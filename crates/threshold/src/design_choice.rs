//! Pool-size selection for threshold queries.
//!
//! The additive channel is happiest with huge pools (every draw carries
//! information); a threshold channel saturates — once a pool's load is far
//! above or below `T` its bit is predictable and worthless. The efficiency
//! optimum `Γ*(n, k, T)` from [`pooled_theory::threshold_gt`] maximizes
//! `Γ·(p1−p0)²`, balancing per-query coverage against bit informativeness;
//! this module materializes it as a without-replacement design (threshold
//! semantics collapse multi-edges anyway, so with-replacement draws would
//! only shrink effective pools).

use pooled_design::{noreplace, CsrDesign};
use pooled_rng::SeedSequence;
use pooled_theory::threshold_gt::recommended_gamma;

/// Sample the recommended design for threshold-`t` queries: `m` pools of
/// the efficiency-optimal size `Γ*(n, k, t)`, each a uniform subset.
///
/// # Panics
/// Panics if `n == 0` or `k ∉ [1, n]`.
pub fn recommended_design(n: usize, k: usize, t: u64, m: usize, seeds: &SeedSequence) -> CsrDesign {
    let (gamma, _) = recommended_gamma(n, k, t);
    noreplace::sample(n, m, gamma, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_design::PoolingDesign;
    use pooled_theory::threshold_gt::separation;

    #[test]
    fn design_uses_the_recommended_pool_size() {
        let seeds = SeedSequence::new(1);
        let d = recommended_design(1000, 8, 2, 40, &seeds);
        let (want, _) = recommended_gamma(1000, 8, 2);
        assert_eq!(d.gamma(), want);
        assert_eq!(d.m(), 40);
    }

    #[test]
    fn recommended_size_has_healthy_separation_and_best_efficiency() {
        for t in [1u64, 2, 4] {
            let (g, s) = recommended_gamma(1000, 8, t);
            // High thresholds are intrinsically harder (T=4 needs half the
            // k=8 support in one pool), so the floor is modest.
            assert!(s > 0.1, "T={t}: separation {s} at Γ*={g}");
            // Γ* maximizes efficiency Γ·(p1−p0)², not raw separation: it
            // must beat both a tiny and an oversized pool on that measure.
            let eff = |gamma: usize| gamma as f64 * separation(1000, 8, gamma, t).powi(2);
            assert!(eff(g) >= eff(10), "T={t}: Γ*={g} loses to Γ=10");
            assert!(eff(g) >= eff(900), "T={t}: Γ*={g} loses to Γ=900");
        }
    }

    #[test]
    fn pools_are_distinct_subsets() {
        let seeds = SeedSequence::new(2);
        let d = recommended_design(500, 6, 3, 20, &seeds);
        for q in 0..d.m() {
            d.for_each_distinct(q, &mut |_, c| assert_eq!(c, 1));
        }
    }
}
