#![warn(missing_docs)]

//! Pooling designs: the random regular bipartite multigraph `G(n, m, Γ)`.
//!
//! The paper's design (§II) draws, for each of the `m` queries, exactly
//! `Γ = n/2` entries uniformly at random **with replacement**. The design is
//! therefore a bipartite *multigraph*: an entry can appear several times in
//! one query, and a one-entry appearing `A_ij` times contributes `A_ij` to
//! the query result, while the decoder's Ψ/Δ* statistics count the query
//! only once (“multi-edges counted only once”).
//!
//! Two physical representations implement the same [`PoolingDesign`] trait:
//!
//! * [`csr::CsrDesign`] — materialized compressed-sparse-row storage of
//!   `(entry, multiplicity)` pairs per query plus the transposed
//!   entry→queries adjacency. Fast repeated access; `O(m·Γ)` build, about
//!   `0.4·n·m` resident pairs.
//! * [`streaming::StreamingDesign`] — stores only one 64-bit substream seed
//!   per query and regenerates the draws on demand. `O(n + m)` memory, which
//!   is what makes the paper's `n = 10⁶` Fig. 2 points feasible.
//!
//! Both are deterministic functions of a [`pooled_rng::SeedSequence`], so
//! `CsrDesign::sample(seeds) ≡ StreamingDesign::new(seeds).materialize()` —
//! an equality the integration tests pin down.
//!
//! Every decoder takes its Ψ/Δ* sums through one door,
//! [`distinct_sums_into`]: a design that stores a CSR
//! ([`PoolingDesign::as_csr`]) sums by [`CsrDesign::gather_distinct_into`],
//! and a streaming design by [`streaming::stream_sums_into`]'s one pass.

//! Beyond the paper's design, the crate implements the alternative families
//! the design-ablation experiment compares at matched density: fixed-size
//! pools without replacement ([`noreplace`]), independent Bernoulli
//! membership ([`bernoulli`]) and exact per-entry degrees via the
//! configuration model ([`entry_regular`]). Each family is one sampling
//! function that pushes its pools through the same builder into a
//! [`CsrDesign`]; [`factory::DesignKind`] samples any of them uniformly,
//! and an [`AnyDesign`] is the CSR tagged with its family and the
//! family's `Γ`.

pub mod bernoulli;
pub mod csr;
pub mod entry_regular;
pub mod factory;
pub mod matvec;
pub mod multigraph;
pub mod noreplace;
pub mod streaming;

pub use csr::CsrDesign;
pub use factory::{AnyDesign, DesignKind};
pub use matvec::distinct_sums_into;
pub use multigraph::RandomRegularDesign;
pub use streaming::StreamingDesign;

/// Abstract interface over pooling designs.
///
/// A design knows its dimensions and can iterate each query's pool both with
/// multiplicities (needed to *execute* a query) and deduplicated (needed by
/// the decoder's neighborhood sums). Iteration is per-query so callers can
/// parallelize across queries with rayon.
pub trait PoolingDesign: Sync {
    /// Number of signal entries `n`.
    fn n(&self) -> usize;

    /// Number of queries `m`.
    fn m(&self) -> usize;

    /// Pool size `Γ` (draws per query, with replacement).
    fn gamma(&self) -> usize;

    /// Visit every draw of query `q` (with multiplicity, `Γ` visits total).
    fn for_each_draw(&self, q: usize, f: &mut dyn FnMut(usize));

    /// Visit every *distinct* entry of query `q` together with its
    /// multiplicity `A_iq ≥ 1`.
    fn for_each_distinct(&self, q: usize, f: &mut dyn FnMut(usize, u32));

    /// The number of distinct entries in query `q` (`|∂a_q|` as a set).
    fn distinct_len(&self, q: usize) -> usize {
        let mut count = 0;
        self.for_each_distinct(q, &mut |_, _| count += 1);
        count
    }

    /// The number of draws in query `q` **with multiplicity** (`Σ_i A_iq`).
    ///
    /// For the paper's regular design this is the constant `Γ`, the
    /// default. A [`CsrDesign`] answers from the draw counts it records
    /// at construction, so it is exact for every family, including those
    /// whose pool sizes vary per query ([`bernoulli`], [`entry_regular`]).
    /// The Γ-general decoder centers scores with these exact per-query
    /// sizes.
    fn pool_len(&self, q: usize) -> usize {
        let _ = q;
        self.gamma()
    }

    /// The materialized CSR storage behind this design, if it keeps one.
    ///
    /// Every family stores a CSR; only [`StreamingDesign`] (and
    /// [`RandomRegularDesign::Streaming`]) regenerates its pools instead
    /// and returns `None`. [`distinct_sums_into`] picks its kernel by it.
    fn as_csr(&self) -> Option<&CsrDesign> {
        None
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use pooled_rng::SeedSequence;

    #[test]
    fn default_distinct_len_counts_visits() {
        let seeds = SeedSequence::new(5);
        let d = CsrDesign::sample(100, 10, 50, &seeds);
        for q in 0..d.m() {
            let mut via_visits = 0;
            d.for_each_distinct(q, &mut |_, _| via_visits += 1);
            assert_eq!(d.distinct_len(q), via_visits);
        }
    }
}
