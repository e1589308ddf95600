//! Bernoulli pooling design.
//!
//! The classic alternative to the paper's fixed-size design: every entry
//! joins every query independently with probability `p` (no multi-edges).
//! Pool sizes are `Bin(n, p)` rather than exactly `Γ`, which adds variance
//! to the query results — the design-ablation experiment quantifies how much
//! that costs the MN decoder relative to the random regular design at equal
//! expected pool size `p = Γ/n`.
//!
//! Sampling uses geometric gap skipping, so construction is `O(p·n)` per
//! query instead of `O(n)` coin flips.

use pooled_rng::{Rng64, SeedSequence};

use crate::csr::{CsrBuilder, CsrDesign};
use crate::PoolingDesign;

/// A Bernoulli(`p`) design materialized in CSR form.
#[derive(Clone, Debug)]
pub struct BernoulliDesign {
    csr: CsrDesign,
    p: f64,
}

impl BernoulliDesign {
    /// Sample `m` queries over `n` entries, each entry joining each query
    /// independently with probability `p`.
    ///
    /// Query `q` draws from the substream `seeds.child("query", q)`, the
    /// same per-query substream contract as the regular designs.
    ///
    /// # Panics
    /// Panics if `n == 0` or `p ∉ [0, 1]`.
    pub fn sample(n: usize, m: usize, p: f64, seeds: &SeedSequence) -> Self {
        assert!(n > 0, "design needs at least one entry");
        assert!((0.0..=1.0).contains(&p), "membership probability p={p} outside [0,1]");
        // Room for the mean plus six standard deviations of the
        // Binomial(n·m, p) total, so the arrays never have to grow.
        let mean = p * (n * m) as f64;
        let bound = (mean + 6.0 * mean.sqrt()).ceil() as usize + 64;
        let mut rows = CsrBuilder::new(n, m, bound.min(n * m));
        for q in 0..m {
            let mut rng = seeds.child("query", q as u64).rng();
            for_each_bernoulli_member(n, p, &mut rng, |i| rows.push(i));
            rows.end_pool();
        }
        let gamma = rows.first_pool_draws();
        Self { csr: rows.finish(gamma), p }
    }

    /// Wrap already-materialized CSR storage with its membership
    /// probability (the durable tier's snapshot-reload path). `p` is the
    /// only state beyond the CSR; reload recovers it from the design
    /// key's density, which is exactly what sampling was given.
    ///
    /// # Panics
    /// Panics if `p ∉ [0, 1]`.
    pub fn from_csr(csr: CsrDesign, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "membership probability p={p} outside [0,1]");
        Self { csr, p }
    }

    /// Membership probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Borrow the underlying CSR storage (for the gather decode path).
    pub fn csr(&self) -> &CsrDesign {
        &self.csr
    }
}

/// Visit the members of a Bernoulli(`p`) subset of `{0,…,n−1}` in
/// ascending order, via geometric gap skipping.
pub fn for_each_bernoulli_member<R: Rng64 + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
    mut visit: impl FnMut(usize),
) {
    if p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        (0..n).for_each(visit);
        return;
    }
    let ln_q = (1.0 - p).ln(); // < 0
    let mut i = 0usize;
    loop {
        // Geometric(p) gap: number of failures before the next success.
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        let gap = (u.ln() / ln_q).floor();
        if !gap.is_finite() || gap >= (n - i) as f64 {
            break;
        }
        i += gap as usize;
        visit(i);
        i += 1;
        if i >= n {
            break;
        }
    }
}

impl PoolingDesign for BernoulliDesign {
    fn n(&self) -> usize {
        self.csr.n()
    }

    fn m(&self) -> usize {
        self.csr.m()
    }

    /// Expected pool size `⌊p·n⌉` (pools are Binomial, not fixed).
    fn gamma(&self) -> usize {
        (self.p * self.csr.n() as f64).round() as usize
    }

    fn for_each_draw(&self, q: usize, f: &mut dyn FnMut(usize)) {
        self.csr.for_each_draw(q, f);
    }

    fn for_each_distinct(&self, q: usize, f: &mut dyn FnMut(usize, u32)) {
        self.csr.for_each_distinct(q, f);
    }

    fn distinct_len(&self, q: usize) -> usize {
        self.csr.distinct_len(q)
    }

    fn pool_len(&self, q: usize) -> usize {
        // No multi-edges: draws == distinct entries.
        self.csr.distinct_len(q)
    }

    fn as_csr(&self) -> Option<&CsrDesign> {
        Some(self.csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_rng::SplitMix64;

    fn sample_bernoulli_subset(n: usize, p: f64, rng: &mut SplitMix64) -> Vec<usize> {
        let mut out = Vec::new();
        for_each_bernoulli_member(n, p, rng, |i| out.push(i));
        out
    }

    #[test]
    fn subset_respects_probability_extremes() {
        let mut rng = SplitMix64::new(1);
        assert!(sample_bernoulli_subset(100, 0.0, &mut rng).is_empty());
        assert_eq!(sample_bernoulli_subset(5, 1.0, &mut rng), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn subset_is_sorted_distinct_in_range() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..50 {
            let s = sample_bernoulli_subset(1000, 0.3, &mut rng);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 1000));
        }
    }

    #[test]
    fn subset_size_concentrates_around_pn() {
        let mut rng = SplitMix64::new(3);
        let trials = 2000;
        let total: usize =
            (0..trials).map(|_| sample_bernoulli_subset(500, 0.4, &mut rng).len()).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 200.0).abs() < 5.0, "mean pool size {mean}");
    }

    #[test]
    fn membership_is_uniform_across_entries() {
        let mut rng = SplitMix64::new(4);
        let (n, p, trials) = (60usize, 0.25, 8000usize);
        let mut hits = vec![0u32; n];
        for _ in 0..trials {
            for i in sample_bernoulli_subset(n, p, &mut rng) {
                hits[i] += 1;
            }
        }
        let want = trials as f64 * p;
        for (i, &h) in hits.iter().enumerate() {
            assert!((h as f64 - want).abs() / want < 0.12, "entry {i}: {h} vs {want}");
        }
    }

    #[test]
    fn design_dimensions_and_pool_len() {
        let seeds = SeedSequence::new(7);
        let d = BernoulliDesign::sample(200, 40, 0.5, &seeds);
        assert_eq!(d.n(), 200);
        assert_eq!(d.m(), 40);
        assert_eq!(d.gamma(), 100);
        for q in 0..d.m() {
            assert_eq!(d.pool_len(q), d.distinct_len(q), "no multi-edges");
        }
    }

    #[test]
    fn no_multiplicities_above_one() {
        let seeds = SeedSequence::new(8);
        let d = BernoulliDesign::sample(100, 30, 0.4, &seeds);
        for q in 0..d.m() {
            d.for_each_distinct(q, &mut |_, c| assert_eq!(c, 1));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = BernoulliDesign::sample(100, 10, 0.3, &SeedSequence::new(9));
        let b = BernoulliDesign::sample(100, 10, 0.3, &SeedSequence::new(9));
        for q in 0..10 {
            assert_eq!(a.csr().query_row(q), b.csr().query_row(q));
        }
    }
}
