//! Entry-regular (column-regular) pooling design via the configuration
//! model.
//!
//! In the paper's design the per-entry degrees `Δ_i ~ Bin(mn/2, 1/n)`
//! fluctuate, and the concentration event `R` (Lemma 3) is exactly the
//! statement that those fluctuations are benign. This design removes them
//! at the source: every entry participates in **exactly** `Δ` draws. Each
//! entry contributes `Δ` stubs; the `n·Δ` stubs are shuffled uniformly and
//! dealt into `m` pools of (near-)equal size `n·Δ/m`. Multi-edges can occur,
//! exactly as in the paper's multigraph.
//!
//! Comparison point for the design ablation: with degrees pinned to `Δ`, the
//! MN score loses its `Δ_i`-fluctuation noise term, isolating how much of
//! the finite-`n` gap (§V Remark) is caused by degree variance.

use pooled_rng::shuffle::fisher_yates;
use pooled_rng::SeedSequence;

use crate::csr::{CsrBuilder, CsrDesign};
use crate::PoolingDesign;

/// A design in which every entry appears in exactly `Δ` draws,
/// materialized in CSR form.
#[derive(Clone, Debug)]
pub struct EntryRegularDesign {
    csr: CsrDesign,
    delta: usize,
    pool_lens: Vec<u32>,
}

impl EntryRegularDesign {
    /// Sample a design in which each of the `n` entries appears in exactly
    /// `delta` draws, spread over `m` pools of size `⌊nΔ/m⌋` or `⌈nΔ/m⌉`.
    ///
    /// The stub permutation is drawn from `seeds.child("stubs", 0)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `m == 0`.
    pub fn sample(n: usize, m: usize, delta: usize, seeds: &SeedSequence) -> Self {
        assert!(n > 0, "design needs at least one entry");
        assert!(m > 0, "design needs at least one query");
        // One stub per (entry, repetition) pair.
        let mut stubs: Vec<u32> = Vec::with_capacity(n * delta);
        for i in 0..n as u32 {
            stubs.extend(std::iter::repeat_n(i, delta));
        }
        let mut rng = seeds.child("stubs", 0).rng();
        fisher_yates(&mut stubs, &mut rng);
        // Deal into m near-equal pools.
        let total = stubs.len();
        let base = total / m;
        let extra = total % m;
        let mut rows = CsrBuilder::new(n, m, total.min(n * m));
        let mut pool_lens = Vec::with_capacity(m);
        let mut at = 0usize;
        for q in 0..m {
            let len = base + usize::from(q < extra);
            for &e in &stubs[at..at + len] {
                rows.push(e as usize);
            }
            rows.end_pool();
            pool_lens.push(len as u32);
            at += len;
        }
        debug_assert_eq!(at, total);
        let gamma = rows.first_pool_draws();
        Self { csr: rows.finish(gamma), delta, pool_lens }
    }

    /// Wrap already-materialized CSR storage with its per-entry degree
    /// (the durable tier's snapshot-reload path). The per-query pool
    /// lengths are recomputed from the rows — a pool's length is the sum
    /// of its draw multiplicities — so the reloaded design answers
    /// [`PoolingDesign::pool_len`] identically to the sampled original.
    pub fn from_csr(csr: CsrDesign, delta: usize) -> Self {
        let pool_lens = (0..csr.m())
            .map(|q| {
                let (_, mults) = csr.query_row(q);
                mults.iter().sum::<u32>()
            })
            .collect();
        Self { csr, delta, pool_lens }
    }

    /// The exact per-entry degree `Δ`.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Borrow the underlying CSR storage (for the gather decode path).
    pub fn csr(&self) -> &CsrDesign {
        &self.csr
    }

    /// The per-entry degree matching the paper's expected degree at `m`
    /// queries of pool fraction `c = Γ/n`: `Δ = ⌊c·m⌉`.
    pub fn matching_delta(m: usize, pool_fraction: f64) -> usize {
        (pool_fraction * m as f64).round().max(1.0) as usize
    }
}

impl PoolingDesign for EntryRegularDesign {
    fn n(&self) -> usize {
        self.csr.n()
    }

    fn m(&self) -> usize {
        self.csr.m()
    }

    /// Average pool size `⌊nΔ/m⌋`, rounded down (pools differ by at most
    /// one draw).
    fn gamma(&self) -> usize {
        (self.csr.n() * self.delta) / self.csr.m().max(1)
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
        self.pool_lens[q] as usize
    }

    fn as_csr(&self) -> Option<&CsrDesign> {
        Some(self.csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_has_exact_degree() {
        let (n, m, delta) = (120usize, 30usize, 12usize);
        let d = EntryRegularDesign::sample(n, m, delta, &SeedSequence::new(1));
        let mut degree = vec![0usize; n];
        for q in 0..m {
            d.for_each_draw(q, &mut |e| degree[e] += 1);
        }
        assert!(degree.iter().all(|&x| x == delta), "degrees {degree:?}");
    }

    #[test]
    fn pool_sizes_differ_by_at_most_one() {
        let d = EntryRegularDesign::sample(100, 7, 5, &SeedSequence::new(2));
        let lens: Vec<usize> = (0..7).map(|q| d.pool_len(q)).collect();
        let (lo, hi) = (*lens.iter().min().unwrap(), *lens.iter().max().unwrap());
        assert!(hi - lo <= 1, "pool sizes {lens:?}");
        assert_eq!(lens.iter().sum::<usize>(), 100 * 5);
    }

    #[test]
    fn draws_per_query_match_pool_len() {
        let d = EntryRegularDesign::sample(50, 6, 4, &SeedSequence::new(3));
        for q in 0..6 {
            let mut draws = 0usize;
            d.for_each_draw(q, &mut |_| draws += 1);
            assert_eq!(draws, d.pool_len(q), "query {q}");
        }
    }

    #[test]
    fn matching_delta_reproduces_half_density() {
        // Paper's design: Γ = n/2 ⇒ expected degree m/2.
        assert_eq!(EntryRegularDesign::matching_delta(300, 0.5), 150);
        assert_eq!(EntryRegularDesign::matching_delta(1, 0.5), 1);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = EntryRegularDesign::sample(60, 10, 6, &SeedSequence::new(4));
        let b = EntryRegularDesign::sample(60, 10, 6, &SeedSequence::new(4));
        for q in 0..10 {
            assert_eq!(a.csr().query_row(q), b.csr().query_row(q));
        }
    }

    #[test]
    fn delta_zero_yields_empty_design() {
        let d = EntryRegularDesign::sample(10, 3, 0, &SeedSequence::new(5));
        for q in 0..3 {
            assert_eq!(d.pool_len(q), 0);
            assert_eq!(d.distinct_len(q), 0);
        }
    }

    #[test]
    fn multi_edges_are_possible_and_counted() {
        // With Δ close to total draws per pool, collisions are guaranteed
        // eventually; just verify multiplicities sum to pool_len.
        let d = EntryRegularDesign::sample(10, 2, 8, &SeedSequence::new(6));
        for q in 0..2 {
            let mut mult_sum = 0u32;
            d.for_each_distinct(q, &mut |_, c| mult_sum += c);
            assert_eq!(mult_sum as usize, d.pool_len(q));
        }
    }
}
