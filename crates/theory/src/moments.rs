//! First-moment curves for the Theorem 2 machinery.
//!
//! `E[Z_{k,ℓ}]` — the expected number of impostor vectors at overlap `ℓ`
//! consistent with all `m` query results — is bounded by (Lemma 8 with the
//! Jensen-gap simplification of Lemma 13):
//!
//! ```text
//! E[Z_{k,ℓ}] ≤ C(k,ℓ)·C(n−k, k−ℓ)·(2π·(k−ℓ))^{−m/2}
//! ```
//!
//! using that a query stays consistent with probability
//! `≈ (2π·E[X])^{−1/2}` where `X ~ Bin(Γ, 2(1−ℓ/k)k/n)` has mean exactly
//! `k − ℓ` at the paper's `Γ = n/2`. These exact finite-`n` curves are what
//! the `it_threshold` experiment overlays on simulated uniqueness
//! frequencies; their zero crossing converges to Theorem 2's `m_IT` as
//! `n → ∞` (the `ln 2π` slack shrinks like `1/ln k`).

use crate::rate_function::l_max;
use crate::special::ln_choose;

/// `ln` of the first-moment bound on `E[Z_{k,ℓ}]`.
///
/// # Panics
/// Panics unless `1 ≤ k ≤ n − 1` and `ℓ < k`.
pub fn ln_first_moment(n: usize, k: usize, m: f64, l: usize) -> f64 {
    assert!(k >= 1 && k < n, "need 1 ≤ k < n");
    assert!(l < k, "overlap must satisfy ℓ < k");
    let vectors = ln_choose(k as u64, l as u64) + ln_choose((n - k) as u64, (k - l) as u64);
    let per_query = -0.5 * (2.0 * std::f64::consts::PI * (k - l) as f64).ln();
    vectors + m * per_query
}

/// `ln Σ_ℓ E[Z_{k,ℓ}]` over the first-moment regime `ℓ ≤ ℓ_max(k)`
/// (log-sum-exp; large overlaps are handled by Proposition 11 instead).
pub fn ln_total_first_moment(n: usize, k: usize, m: f64) -> f64 {
    let lmax = l_max(k);
    let terms: Vec<f64> = (0..=lmax).map(|l| ln_first_moment(n, k, m, l)).collect();
    log_sum_exp(&terms)
}

/// Whether the first moment predicts a unique consistent vector
/// (`Σ E[Z] < 1`, i.e. Markov gives failure probability < `Σ E[Z]`).
pub fn predicts_unique(n: usize, k: usize, m: f64) -> bool {
    ln_total_first_moment(n, k, m) < 0.0
}

/// The query count where the first moment crosses 1, by bisection — the
/// exact finite-`n` analogue of Theorem 2's threshold.
pub fn first_moment_threshold(n: usize, k: usize) -> f64 {
    let mut lo = 1.0f64;
    let mut hi = 16.0 * crate::thresholds::m_information_theoretic(n, k).max(8.0);
    debug_assert!(predicts_unique(n, k, hi), "upper bracket too small");
    if predicts_unique(n, k, lo) {
        return lo;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if predicts_unique(n, k, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

fn log_sum_exp(xs: &[f64]) -> f64 {
    let mx = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !mx.is_finite() {
        return mx;
    }
    mx + xs.iter().map(|x| (x - mx).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::{k_of, m_information_theoretic};

    #[test]
    fn moment_decreases_in_m() {
        let (n, k) = (100_000, 32);
        for l in [0usize, 5, 20] {
            assert!(ln_first_moment(n, k, 300.0, l) < ln_first_moment(n, k, 150.0, l));
        }
    }

    #[test]
    fn total_dominates_each_term() {
        let (n, k, m) = (10_000, 50, 400.0);
        let total = ln_total_first_moment(n, k, m);
        for l in 0..=l_max(k) {
            assert!(ln_first_moment(n, k, m, l) <= total + 1e-12);
        }
    }

    #[test]
    fn threshold_brackets_behaviour() {
        let (n, k) = (100_000, 32);
        let t = first_moment_threshold(n, k);
        assert!(predicts_unique(n, k, t * 1.05));
        assert!(!predicts_unique(n, k, t * 0.95));
    }

    #[test]
    fn threshold_converges_to_theorem2_scale() {
        // Ratio first-moment-threshold / m_IT must lie below ~1.1 and climb
        // toward 1 as n grows (the ln 2π slack decays like 1/ln k).
        let theta = 0.4;
        let mut last_ratio = 0.0;
        for &n in &[10_000usize, 10_000_000, 10_000_000_000] {
            let k = k_of(n, theta);
            let ratio = first_moment_threshold(n, k) / m_information_theoretic(n, k);
            assert!(ratio < 1.15, "n={n}: ratio={ratio}");
            assert!(ratio > last_ratio * 0.98, "ratio should trend upward");
            last_ratio = ratio;
        }
        assert!(last_ratio > 0.6, "ratio={last_ratio} too far from 1");
    }

    #[test]
    fn log_sum_exp_stability() {
        let xs = [-1000.0, -1001.0, -999.5];
        let lse = log_sum_exp(&xs);
        assert!(lse > -999.5 && lse < -998.0);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn small_k_edge_case() {
        // k = 1: only ℓ = 0 valid; should still evaluate.
        let v = ln_first_moment(100, 1, 10.0, 0);
        assert!(v.is_finite());
        assert!(ln_total_first_moment(100, 1, 10.0).is_finite());
    }

    #[test]
    #[should_panic(expected = "ℓ < k")]
    fn rejects_full_overlap() {
        let _ = ln_first_moment(100, 5, 10.0, 5);
    }
}
