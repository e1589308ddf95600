//! Counting Dorfman: the classic two-stage screen with additive queries.
//!
//! Dorfman's 1943 scheme (the paper's reference \[13\], the origin of the
//! whole field) pools blood samples in groups and retests members of
//! positive groups individually. With *additive* queries the scheme gets
//! two quantitative upgrades: a group whose count equals its size needs no
//! stage-2 at all, and within a flagged group the last member's value is
//! inferred from the group count minus the first `s−1` individual results.
//!
//! Query count in expectation: `⌈n/g⌉ + E[#unresolved groups]·(g−1)`,
//! minimized near `g ≈ √(n/k)·…` — [`optimal_group_size`] scans the exact
//! hypergeometric expectation. Two rounds always; exact recovery always.

use pooled_core::Signal;
use pooled_theory::special::ln_choose;

use crate::oracle::CountOracle;

/// Outcome of a counting-Dorfman run.
#[derive(Clone, Debug)]
pub struct DorfmanResult {
    /// The exactly reconstructed signal.
    pub estimate: Signal,
    /// Total additive queries issued.
    pub queries: usize,
    /// Parallel rounds used (always ≤ 2).
    pub rounds: usize,
    /// Queries per round.
    pub per_round: Vec<usize>,
    /// The group size used in stage 1.
    pub group_size: usize,
}

/// Reconstruct the oracle's signal with group size `g`.
///
/// # Panics
/// Panics if `g == 0`.
pub fn counting_dorfman(oracle: &mut CountOracle, g: usize) -> DorfmanResult {
    assert!(g >= 1, "group size must be positive");
    let n = oracle.n();
    let start = oracle.queries();
    // Stage 1: group counts.
    let mut groups: Vec<(usize, usize, u64)> = Vec::with_capacity(n.div_ceil(g));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + g).min(n);
        let c = oracle.count_range(lo, hi);
        groups.push((lo, hi, c));
        lo = hi;
    }
    oracle.next_round();
    // Stage 2: resolve groups with 0 < count < size.
    let mut ones: Vec<usize> = Vec::new();
    for (lo, hi, c) in groups {
        let size = (hi - lo) as u64;
        if c == 0 {
            continue;
        }
        if c == size {
            ones.extend(lo..hi);
            continue;
        }
        let mut found = 0u64;
        for i in lo..hi - 1 {
            if oracle.count_range(i, i + 1) == 1 {
                ones.push(i);
                found += 1;
            }
        }
        if found < c {
            ones.push(hi - 1); // the last member is inferred, not queried
        }
    }
    oracle.next_round();
    ones.sort_unstable();
    DorfmanResult {
        estimate: Signal::from_support(n, ones),
        queries: oracle.queries() - start,
        rounds: oracle.rounds(),
        per_round: oracle.per_round(),
        group_size: g,
    }
}

/// Exact expected query count of counting Dorfman on a uniform weight-`k`
/// signal: `⌈n/g⌉ + Σ_groups P(0 < count < size)·(size−1)` with the count
/// hypergeometric.
pub fn expected_dorfman_queries(n: usize, k: usize, g: usize) -> f64 {
    assert!(g >= 1 && k <= n, "need g ≥ 1 and k ≤ n");
    let ln_total = ln_choose(n as u64, k as u64);
    let mut expected = 0.0f64;
    let mut lo = 0usize;
    while lo < n {
        let s = g.min(n - lo);
        // P(count = 0) = C(n−s, k)/C(n, k); P(count = s) = C(n−s, k−s)/C(n,k).
        let p0 =
            if k <= n - s { (ln_choose((n - s) as u64, k as u64) - ln_total).exp() } else { 0.0 };
        let ps =
            if k >= s { (ln_choose((n - s) as u64, (k - s) as u64) - ln_total).exp() } else { 0.0 };
        expected += 1.0 + (1.0 - p0 - ps) * (s as f64 - 1.0);
        lo += s;
    }
    expected
}

/// Group size minimizing [`expected_dorfman_queries`], by scanning
/// `g ∈ [1, n]` on a log grid with local refinement.
pub fn optimal_group_size(n: usize, k: usize) -> usize {
    assert!(n >= 1, "need a nonempty signal");
    let mut best = (1usize, expected_dorfman_queries(n, k, 1));
    // Coarse log-spaced scan …
    let mut g = 1f64;
    while g <= n as f64 {
        let gi = g.round() as usize;
        let e = expected_dorfman_queries(n, k, gi);
        if e < best.1 {
            best = (gi, e);
        }
        g *= 1.25;
    }
    // … linear refine around the winner.
    let span = (best.0 / 4).max(2);
    for gi in best.0.saturating_sub(span).max(1)..=(best.0 + span).min(n) {
        let e = expected_dorfman_queries(n, k, gi);
        if e < best.1 {
            best = (gi, e);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_rng::SeedSequence;

    fn run(n: usize, k: usize, g: usize, seed: u64) -> (Signal, DorfmanResult) {
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k, &mut seeds.rng());
        let mut oracle = CountOracle::new(&sigma);
        let res = counting_dorfman(&mut oracle, g);
        (sigma, res)
    }

    #[test]
    fn always_exact() {
        for (n, k, g, seed) in [
            (100usize, 5usize, 10usize, 1u64),
            (1000, 8, 11, 2),
            (1000, 0, 25, 3),
            (50, 50, 7, 4),
            (97, 13, 10, 5), // ragged final group
            (10, 3, 1, 6),   // individual testing
            (10, 3, 10, 7),  // single group
        ] {
            let (sigma, res) = run(n, k, g, seed);
            assert_eq!(res.estimate, sigma, "n={n} k={k} g={g}");
        }
    }

    #[test]
    fn two_rounds_at_most() {
        let (_, res) = run(1000, 8, 11, 10);
        assert!(res.rounds <= 2);
        assert_eq!(res.per_round.iter().sum::<usize>(), res.queries);
    }

    #[test]
    fn all_zero_signal_needs_only_stage_one() {
        let (_, res) = run(300, 0, 20, 11);
        assert_eq!(res.queries, 300usize.div_ceil(20));
        assert_eq!(res.rounds, 1);
    }

    #[test]
    fn group_size_one_is_individual_testing() {
        let (_, res) = run(64, 9, 1, 12);
        assert_eq!(res.queries, 64);
        assert_eq!(res.rounds, 1, "every group resolved in stage 1");
    }

    #[test]
    fn expected_queries_matches_simulation() {
        let (n, k, g) = (600usize, 12usize, 8usize);
        let want = expected_dorfman_queries(n, k, g);
        let trials = 300;
        let mut total = 0usize;
        for seed in 0..trials {
            let (_, res) = run(n, k, g, 1000 + seed);
            total += res.queries;
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - want).abs() / want < 0.05, "simulated {mean} vs expected {want}");
    }

    #[test]
    fn optimal_group_size_near_sqrt_rule() {
        // Classical Dorfman: g* ≈ √(n/k) up to constants.
        let g = optimal_group_size(10_000, 100);
        let sqrt_rule = (10_000f64 / 100.0).sqrt();
        assert!(
            (g as f64) > 0.5 * sqrt_rule && (g as f64) < 3.0 * sqrt_rule,
            "g*={g} vs √(n/k)={sqrt_rule}"
        );
    }

    #[test]
    fn optimal_group_size_beats_neighbors() {
        let (n, k) = (5000usize, 50usize);
        let g = optimal_group_size(n, k);
        let e = expected_dorfman_queries(n, k, g);
        for other in [g.saturating_sub(1).max(1), g + 1, 2 * g, (g / 2).max(1)] {
            assert!(
                e <= expected_dorfman_queries(n, k, other) + 1e-9,
                "g*={g} beaten by g={other}"
            );
        }
    }

    #[test]
    fn saturated_groups_skip_stage_two() {
        // k = n: every group is saturated, stage 2 is empty.
        let (_, res) = run(40, 40, 8, 13);
        assert_eq!(res.queries, 5);
        assert_eq!(res.rounds, 1);
    }

    #[test]
    fn dorfman_beats_individual_testing_when_sparse() {
        let (n, k) = (2000usize, 10usize);
        let g = optimal_group_size(n, k);
        assert!(expected_dorfman_queries(n, k, g) < 0.25 * n as f64);
    }
}
