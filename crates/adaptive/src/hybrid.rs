//! The two-round hybrid: MN screening plus one verification round.
//!
//! Round 1 runs the paper's design with a *reduced* budget `m₁` — too few
//! queries for exact recovery, but plenty for the MN scores to push the
//! true support into the top `c·k` ranks (the Subset-Select observation of
//! Feige–Lellouche, reference \[14\] of the paper). Round 2 queries those
//! `c·k` candidates *individually*, in parallel, which resolves them
//! exactly.
//!
//! Total cost: `m₁ + c·k` queries in **2 rounds**. The hybrid undercuts
//! the one-round design's `m_MN ≈ d(θ)·k·ln(n/k)` iff screening captures
//! with `m₁ < m_MN − c·k`. Measurement (see the `adaptive_tradeoff`
//! experiment) says that is a *high* bar: capturing **all** `k` ones in the
//! top `c·k` ranks is nearly as demanding as exact recovery — the zero-side
//! union bound only relaxes from `ln n` to `ln(n/(ck))` — so reliable
//! capture needs `m₁ ≈ 0.7–0.8·m_MN` and the hybrid's net saving
//! `0.2·m_MN − c·k` is positive only when `ln(n/k)` is large (extremely
//! sparse regimes). The experiment tabulates both sides of that crossover
//! rather than assuming the win. Failure is at least *detectable*: if
//! fewer than `k` ones surface in round 2, the run reports
//! `captured = false`.

use pooled_core::mn::MnDecoder;
use pooled_core::Signal;
use pooled_design::CsrDesign;
use pooled_par::topk::top_k_indices;
use pooled_rng::SeedSequence;

use crate::oracle::CountOracle;

/// Hybrid parameters.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Screening queries in round 1 (the paper's design, `Γ = n/2`).
    pub m1: usize,
    /// Candidate-list size as a multiple of `k` (round 2 queries
    /// `min(n, candidate_mult·k)` singletons).
    pub candidate_mult: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self { m1: 0, candidate_mult: 4 }
    }
}

/// Outcome of a hybrid run.
#[derive(Clone, Debug)]
pub struct HybridResult {
    /// The reconstruction: exact iff `captured`.
    pub estimate: Signal,
    /// Total queries (screening + verification).
    pub queries: usize,
    /// Parallel rounds (always 2, or 1 when the candidate list is all of
    /// `[n]`).
    pub rounds: usize,
    /// Queries per round.
    pub per_round: Vec<usize>,
    /// Whether all `k` ones surfaced among the candidates (detectable
    /// success certificate).
    pub captured: bool,
}

/// Run the two-round hybrid for a weight-`k` signal.
///
/// The screening design is drawn from `seeds.child("design", 0)`; the
/// oracle answers both rounds and does the query accounting.
///
/// # Panics
/// Panics if `k == 0` with a nonzero candidate multiplier budget — use
/// `k ≥ 1` (for `k = 0` there is nothing to reconstruct).
pub fn two_round_hybrid(
    oracle: &mut CountOracle,
    k: usize,
    cfg: &HybridConfig,
    seeds: &SeedSequence,
) -> HybridResult {
    assert!(k >= 1, "hybrid needs a positive target weight");
    let n = oracle.n();
    let start = oracle.queries();
    let candidates: Vec<usize> = if cfg.candidate_mult.saturating_mul(k) >= n || cfg.m1 == 0 {
        // Degenerate: no screening signal available (or candidate list is
        // everything) — verify all of [n] in one round.
        (0..n).collect()
    } else {
        // Round 1: screening queries through the oracle (with multiplicity,
        // the additive-channel semantics).
        let design = CsrDesign::sample(n, cfg.m1, n / 2, &seeds.child("design", 0));
        let mut y = Vec::with_capacity(cfg.m1);
        let mut pool: Vec<usize> = Vec::with_capacity(n / 2);
        for q in 0..cfg.m1 {
            pool.clear();
            pooled_design::PoolingDesign::for_each_draw(&design, q, &mut |e| pool.push(e));
            y.push(oracle.count_set(&pool));
        }
        oracle.next_round();
        let out = MnDecoder::new(k).decode(&design, &y);
        top_k_indices(&out.scores, cfg.candidate_mult * k)
    };
    // Round 2: resolve candidates individually, in parallel.
    let mut ones: Vec<usize> = Vec::new();
    for &i in &candidates {
        if oracle.count_range(i, i + 1) == 1 {
            ones.push(i);
        }
    }
    oracle.next_round();
    ones.sort_unstable();
    let captured = ones.len() == k;
    HybridResult {
        estimate: Signal::from_support(n, ones),
        queries: oracle.queries() - start,
        rounds: oracle.rounds(),
        per_round: oracle.per_round(),
        captured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_theory::thresholds::{k_of, m_mn_finite};

    fn run(n: usize, k: usize, cfg: &HybridConfig, seed: u64) -> (Signal, HybridResult) {
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let mut oracle = CountOracle::new(&sigma);
        let res = two_round_hybrid(&mut oracle, k, cfg, &seeds);
        (sigma, res)
    }

    #[test]
    fn captures_with_seventy_percent_budget_and_wide_list() {
        // Measured capture at n=1000, θ=0.3: frac 0.7 × mult 12 ⇒ ~97%.
        let n = 1000;
        let k = k_of(n, 0.3);
        let m1 = (0.7 * m_mn_finite(n, 0.3)).round() as usize;
        let cfg = HybridConfig { m1, candidate_mult: 12 };
        let mut ok = 0;
        for seed in 0..10 {
            let (sigma, res) = run(n, k, &cfg, seed);
            if res.captured {
                assert_eq!(res.estimate, sigma, "captured ⇒ exact (seed {seed})");
                ok += 1;
            }
            assert_eq!(res.rounds, 2);
            assert_eq!(res.queries, m1 + 12 * k);
        }
        assert!(ok >= 8, "only {ok}/10 captured at m1={m1}");
    }

    #[test]
    fn capture_rate_grows_with_screening_budget() {
        // The monotone backbone of the trade-off: more screening queries,
        // more captures (compare far-apart budgets to dodge noise).
        let n = 1000;
        let k = k_of(n, 0.3);
        let m_full = m_mn_finite(n, 0.3);
        let count = |frac: f64| {
            let cfg = HybridConfig { m1: (frac * m_full).round() as usize, candidate_mult: 8 };
            (0..12).filter(|&seed| run(n, k, &cfg, 200 + seed).1.captured).count()
        };
        let (low, high) = (count(0.25), count(0.9));
        assert!(high > low, "capture {high}/12 at 0.9·m not above {low}/12 at 0.25·m");
    }

    #[test]
    fn break_even_requires_extreme_sparsity() {
        // Honest negative result, pinned: at n = 1000, θ = 0.3 the hybrid's
        // reliable configuration (0.7·m_MN + 12k) does NOT beat the
        // one-round design. The saving 0.3·m_MN − 12k turns positive only
        // once ln(n/k) ≳ 12·(1/d)/0.3 ≈ 7.5, i.e. n/k ≳ 2000.
        let n = 1000;
        let k = k_of(n, 0.3);
        let m_full = m_mn_finite(n, 0.3);
        let hybrid_cost = 0.7 * m_full + 12.0 * k as f64;
        assert!(
            hybrid_cost > m_full,
            "at this scale the hybrid should not yet win ({hybrid_cost} vs {m_full})"
        );
        // And the break-even scale, from the same arithmetic, is real: at
        // n/k = 10⁵ the saving is positive.
        let (n2, theta2) = (10_000_000usize, 0.2);
        let k2 = k_of(n2, theta2);
        let m_full2 = m_mn_finite(n2, theta2);
        assert!(0.7 * m_full2 + 12.0 * k2 as f64 <= m_full2, "n/k=10^5 should break even");
    }

    #[test]
    fn capture_failure_is_detected_not_silent() {
        // Hopeless screening budget: capture must be reported false, and
        // the estimate must contain only verified ones (never false
        // positives).
        let cfg = HybridConfig { m1: 5, candidate_mult: 2 };
        let mut any_failure = false;
        for seed in 0..10 {
            let (sigma, res) = run(2000, 12, &cfg, 100 + seed);
            if !res.captured {
                any_failure = true;
                assert!(res.estimate.weight() < 12);
            }
            for &i in res.estimate.support() {
                assert!(sigma.is_one(i), "false positive at {i} (seed {seed})");
            }
        }
        assert!(any_failure, "m1=5 should fail to capture sometimes");
    }

    #[test]
    fn degenerate_candidate_list_covers_everything() {
        // candidate_mult·k ≥ n: single exhaustive round, always exact.
        let cfg = HybridConfig { m1: 10, candidate_mult: 1000 };
        let (sigma, res) = run(50, 3, &cfg, 7);
        assert!(res.captured);
        assert_eq!(res.estimate, sigma);
        assert_eq!(res.rounds, 1);
        assert_eq!(res.queries, 50);
    }

    #[test]
    fn zero_screening_budget_falls_back_to_exhaustive() {
        let cfg = HybridConfig { m1: 0, candidate_mult: 4 };
        let (sigma, res) = run(60, 4, &cfg, 8);
        assert!(res.captured);
        assert_eq!(res.estimate, sigma);
        assert_eq!(res.queries, 60);
    }

    #[test]
    fn per_round_accounting_is_consistent() {
        let cfg = HybridConfig { m1: 80, candidate_mult: 4 };
        let (_, res) = run(500, 6, &cfg, 9);
        assert_eq!(res.per_round.iter().sum::<usize>(), res.queries);
        assert_eq!(res.per_round.len(), res.rounds);
        assert_eq!(res.per_round[0], 80);
        assert_eq!(res.per_round[1], 24);
    }

    #[test]
    #[should_panic(expected = "positive target weight")]
    fn rejects_k_zero() {
        let sigma = Signal::from_support(10, vec![]);
        let mut oracle = CountOracle::new(&sigma);
        let _ = two_round_hybrid(&mut oracle, 0, &HybridConfig::default(), &SeedSequence::new(1));
    }
}
