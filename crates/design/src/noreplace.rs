//! Fixed-size pools sampled **without** replacement.
//!
//! The paper's design draws `Γ` entries *with* replacement and remarks
//! (§I-D) that multi-edges "do not affect practicability". This design is
//! the without-replacement counterpart — each query is a uniform `Γ`-subset
//! of the entries — so the ablation can measure what the multi-edges
//! actually cost or buy. A one-entry can contribute at most 1 to each query
//! here, and every pool has exactly `Γ` distinct members (so `Δ*` degrees
//! concentrate slightly differently: `E[Δ*_i] = Γm/n = m/2` instead of
//! `(1−e^{−1/2})m ≈ 0.39m`).

use pooled_rng::{Rng64, SeedSequence};

use crate::csr::{CsrBuilder, CsrDesign};
use crate::PoolingDesign;

/// A query-regular design whose pools are uniform `Γ`-subsets (no
/// multi-edges), materialized in CSR form.
#[derive(Clone, Debug)]
pub struct NoReplaceDesign {
    csr: CsrDesign,
}

impl NoReplaceDesign {
    /// Sample `m` queries, each a uniform `gamma`-subset of `{0,…,n−1}`,
    /// drawn from the per-query substream `seeds.child("query", q)` by
    /// Floyd's algorithm: for `j` from `n − Γ` to `n − 1`, draw `t ≤ j`
    /// and take `t`, or `j` when `t` is already in. Membership is the
    /// builder's bitset of the open pool.
    ///
    /// # Panics
    /// Panics if `n == 0` or `gamma > n`.
    pub fn sample(n: usize, m: usize, gamma: usize, seeds: &SeedSequence) -> Self {
        assert!(n > 0, "design needs at least one entry");
        assert!(gamma <= n, "Γ={gamma} cannot exceed n={n} without replacement");
        let mut rows = CsrBuilder::new(n, m, m * gamma);
        for q in 0..m {
            let mut rng = seeds.child("query", q as u64).rng();
            for j in n - gamma..n {
                let t = rng.below(j as u64 + 1) as usize;
                rows.push(if rows.contains(t) { j } else { t });
            }
            rows.end_pool();
        }
        let gamma = rows.first_pool_draws();
        Self { csr: rows.finish(gamma) }
    }

    /// Wrap already-materialized CSR storage (the durable tier's
    /// snapshot-reload path: the CSR was serialized from a sampled
    /// design, so re-wrapping it reproduces that design bit-identically
    /// without resampling). The caller guarantees the rows actually came
    /// from a without-replacement sample; this type adds no state beyond
    /// the CSR, so no invariant can be broken here that
    /// [`CsrDesign::from_rows`] did not already check.
    pub fn from_csr(csr: CsrDesign) -> Self {
        Self { csr }
    }

    /// Borrow the underlying CSR storage (for the gather decode path).
    pub fn csr(&self) -> &CsrDesign {
        &self.csr
    }
}

impl PoolingDesign for NoReplaceDesign {
    fn n(&self) -> usize {
        self.csr.n()
    }

    fn m(&self) -> usize {
        self.csr.m()
    }

    fn gamma(&self) -> usize {
        self.csr.gamma()
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

    fn pool_len(&self, _q: usize) -> usize {
        self.csr.gamma()
    }

    fn as_csr(&self) -> Option<&CsrDesign> {
        Some(self.csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pool_has_exactly_gamma_distinct_entries() {
        let d = NoReplaceDesign::sample(100, 25, 50, &SeedSequence::new(1));
        for q in 0..d.m() {
            assert_eq!(d.distinct_len(q), 50, "query {q}");
            d.for_each_distinct(q, &mut |_, c| assert_eq!(c, 1, "no multi-edges"));
        }
    }

    #[test]
    fn gamma_equal_n_gives_full_pools() {
        let d = NoReplaceDesign::sample(20, 5, 20, &SeedSequence::new(2));
        for q in 0..5 {
            let mut seen = [false; 20];
            d.for_each_distinct(q, &mut |e, _| seen[e] = true);
            assert!(seen.iter().all(|&s| s), "query {q} must contain every entry");
        }
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn rejects_gamma_above_n() {
        let _ = NoReplaceDesign::sample(10, 2, 11, &SeedSequence::new(3));
    }

    #[test]
    fn membership_is_uniform() {
        let (n, m, gamma) = (80usize, 4000usize, 40usize);
        let d = NoReplaceDesign::sample(n, m, gamma, &SeedSequence::new(4));
        let mut hits = vec![0u32; n];
        for q in 0..m {
            d.for_each_distinct(q, &mut |e, _| hits[e] += 1);
        }
        let want = m as f64 * gamma as f64 / n as f64;
        for (i, &h) in hits.iter().enumerate() {
            assert!((h as f64 - want).abs() / want < 0.1, "entry {i}: {h} vs {want}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = NoReplaceDesign::sample(60, 8, 30, &SeedSequence::new(5));
        let b = NoReplaceDesign::sample(60, 8, 30, &SeedSequence::new(5));
        for q in 0..8 {
            assert_eq!(a.csr().query_row(q), b.csr().query_row(q));
        }
    }

    #[test]
    fn pool_len_is_gamma() {
        let d = NoReplaceDesign::sample(50, 6, 25, &SeedSequence::new(6));
        for q in 0..6 {
            assert_eq!(d.pool_len(q), 25);
        }
    }
}
