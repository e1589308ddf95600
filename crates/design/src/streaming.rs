//! Seed-only storage of a pooling design.
//!
//! A query's pool is a pure function of `(master seed, query index)`; storing
//! the design therefore needs nothing beyond its parameters. Every access
//! regenerates the `Γ` draws from the query's substream, trading CPU for an
//! `O(n + m)` footprint — the representation behind the paper-scale
//! (`n = 10⁶`) points of Fig. 2, which pass
//! [`crate::multigraph::AUTO_MATERIALIZE_LIMIT`] (10⁸ expected
//! incidences).
//!
//! Such a design has no transpose, so the CSR gather cannot sum its Ψ/Δ*.
//! [`stream_sums_into`] is the pass that does: the fallback of
//! [`crate::distinct_sums_into`] for designs without a CSR, and, with the
//! query execution folded in, a Monte-Carlo trial's whole decode input.

use pooled_rng::bounded::FixedBound;
use pooled_rng::SeedSequence;

use crate::csr::CsrDesign;
use crate::PoolingDesign;

/// A pooling design regenerated from per-query substreams on demand.
#[derive(Clone, Copy, Debug)]
pub struct StreamingDesign {
    n: usize,
    m: usize,
    gamma: usize,
    seeds: SeedSequence,
}

impl StreamingDesign {
    /// Create the design `G(n, m, Γ)` rooted at `seeds`.
    ///
    /// Uses the same `seeds.child("query", q)` substream contract as
    /// [`CsrDesign::sample`], so materializing this design reproduces the
    /// CSR design bit-for-bit.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, m: usize, gamma: usize, seeds: &SeedSequence) -> Self {
        assert!(n > 0, "design needs at least one entry");
        Self { n, m, gamma, seeds: *seeds }
    }

    /// The seed node this design regenerates from.
    pub fn seeds(&self) -> SeedSequence {
        self.seeds
    }

    /// Materialize into CSR storage (for tests and small designs).
    pub fn materialize(&self) -> CsrDesign {
        CsrDesign::sample(self.n, self.m, self.gamma, &self.seeds)
    }

    /// Visit the draws of query `q` without allocating.
    #[inline]
    pub fn visit_draws<F: FnMut(usize)>(&self, q: usize, mut f: F) {
        let mut rng = self.seeds.child("query", q as u64).rng();
        let fb = FixedBound::new(self.n as u64);
        for _ in 0..self.gamma {
            f(fb.sample(&mut rng) as usize);
        }
    }
}

/// Ψ/Δ* sums in one sequential pass over the queries that produces each
/// query's distinct `(entry, multiplicity)` pool once:
/// `psi[i] = Σ_{q ∋ i} weight(q, pool_q)` over the distinct queries
/// containing entry `i`, and `dstar[i] = |∂*x_i|`.
///
/// `weight` sees the pool it weighs, so a trial computes its query result
/// `y_q = Σ A_iq·σ_i` from it, records it and returns it: query execution
/// and both sums then cost one regeneration per query instead of two. For
/// designs without a transpose; a design that stores a CSR sums faster by
/// [`CsrDesign::gather_distinct_into`]. Exact integer sums, so both agree
/// bit for bit.
///
/// # Panics
/// Panics if `psi` or `dstar` is shorter than `n`.
pub fn stream_sums_into<D: PoolingDesign + ?Sized>(
    design: &D,
    psi: &mut [u64],
    dstar: &mut [u64],
    mut weight: impl FnMut(usize, &[(u32, u32)]) -> u64,
) {
    let n = design.n();
    assert!(psi.len() >= n && dstar.len() >= n, "psi/dstar must have length n");
    psi[..n].fill(0);
    dstar[..n].fill(0);
    let mut pool = Vec::new();
    for q in 0..design.m() {
        pool.clear();
        design.for_each_distinct(q, &mut |e, c| pool.push((e as u32, c)));
        let w = weight(q, &pool);
        for &(e, _) in &pool {
            psi[e as usize] += w;
            dstar[e as usize] += 1;
        }
    }
}

impl PoolingDesign for StreamingDesign {
    fn n(&self) -> usize {
        self.n
    }

    fn m(&self) -> usize {
        self.m
    }

    fn gamma(&self) -> usize {
        self.gamma
    }

    fn for_each_draw(&self, q: usize, f: &mut dyn FnMut(usize)) {
        self.visit_draws(q, f);
    }

    fn for_each_distinct(&self, q: usize, f: &mut dyn FnMut(usize, u32)) {
        // Regenerate, sort, run-length encode on the fly.
        let mut draws: Vec<u32> = Vec::with_capacity(self.gamma);
        self.visit_draws(q, |e| draws.push(e as u32));
        draws.sort_unstable();
        let mut i = 0;
        while i < draws.len() {
            let v = draws[i];
            let mut j = i + 1;
            while j < draws.len() && draws[j] == v {
                j += 1;
            }
            f(v as usize, (j - i) as u32);
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_materialized_csr() {
        let seeds = SeedSequence::new(1905);
        let s = StreamingDesign::new(200, 40, 100, &seeds);
        let c = s.materialize();
        assert_eq!(s.n(), c.n());
        assert_eq!(s.m(), c.m());
        for q in 0..s.m() {
            let mut stream_pairs = Vec::new();
            s.for_each_distinct(q, &mut |e, cnt| stream_pairs.push((e, cnt)));
            let mut csr_pairs = Vec::new();
            c.for_each_distinct(q, &mut |e, cnt| csr_pairs.push((e, cnt)));
            assert_eq!(stream_pairs, csr_pairs, "query {q}");
        }
    }

    #[test]
    fn draw_count_is_gamma() {
        let s = StreamingDesign::new(100, 10, 37, &SeedSequence::new(3));
        for q in 0..10 {
            let mut count = 0;
            s.visit_draws(q, |_| count += 1);
            assert_eq!(count, 37);
        }
    }

    #[test]
    fn repeated_visits_are_identical() {
        let s = StreamingDesign::new(1000, 5, 500, &SeedSequence::new(8));
        let mut first = Vec::new();
        s.visit_draws(2, |e| first.push(e));
        let mut second = Vec::new();
        s.visit_draws(2, |e| second.push(e));
        assert_eq!(first, second);
    }

    #[test]
    fn distinct_multiplicities_sum_to_gamma() {
        let s = StreamingDesign::new(64, 12, 96, &SeedSequence::new(5));
        for q in 0..12 {
            let mut total = 0u32;
            s.for_each_distinct(q, &mut |_, c| total += c);
            assert_eq!(total as usize, s.gamma());
        }
    }

    #[test]
    fn queries_differ_from_each_other() {
        let s = StreamingDesign::new(10_000, 2, 5_000, &SeedSequence::new(11));
        let mut q0 = Vec::new();
        let mut q1 = Vec::new();
        s.visit_draws(0, |e| q0.push(e));
        s.visit_draws(1, |e| q1.push(e));
        assert_ne!(q0, q1);
    }

    #[test]
    fn copy_semantics_share_nothing_mutable() {
        let s = StreamingDesign::new(50, 3, 25, &SeedSequence::new(2));
        let t = s; // Copy
        assert_eq!(s.n(), t.n());
        let mut a = Vec::new();
        let mut b = Vec::new();
        s.visit_draws(0, |e| a.push(e));
        t.visit_draws(0, |e| b.push(e));
        assert_eq!(a, b);
    }
}
