//! Biadjacency matrix–vector products.
//!
//! The paper (§I-C) observes that Algorithm 1 is two matvecs: `Δ* = M·1` and
//! `Ψ = M·y` where `M` is the unweighted (distinct-incidence) biadjacency
//! matrix, plus the query execution itself, `y = Aᵀσ`, with `A` the
//! multiplicity-weighted matrix. These kernels are the hot path of the whole
//! simulator.
//!
//! # One kernel per storage
//!
//! Every decoder takes its Ψ/Δ* sums from [`distinct_sums_into`], which
//! picks the kernel from what the design stores:
//!
//! | storage | kernel | parallelism | atomics | allocation |
//! |---|---|---|---|---|
//! | CSR ([`PoolingDesign::as_csr`] is `Some`) | [`crate::csr::CsrDesign::gather_distinct_into`]: popcount over the entry bitmap (distinct density ≥ 1/32, mixed weight planes ≤ 5/4 of the incidences per bitmap word), else the index gather over the transpose | entry-parallel | no | none |
//! | streaming (no CSR) | [`crate::streaming::stream_sums_into`]: one pass that regenerates each pool once, and can fold in the query execution `y` | sequential | no | one pool buffer, plus what regenerating a pool allocates |
//!
//! The gather writes nothing shared, so it needs no atomics and no
//! privatized planes, and its popcount arm reads the `n·⌈m/64⌉`-word
//! entry bitmap instead of `4·nnz` bytes of query indices. The streaming
//! pass is the only kernel for designs without a transpose: Fig. 2's
//! `n = 10⁶` points. A Monte-Carlo trial runs on one worker either way.
//!
//! [`pool_sums_u64`] and [`scatter_distinct_u64`] compute the same `y`
//! and Ψ/Δ* the plain way, query by query over any design; they are the
//! oracles the kernels are tested against. All sums are exact integers,
//! so every path agrees bit for bit.

use rayon::prelude::*;

use pooled_par::scatter::AtomicCounters;

use crate::streaming::stream_sums_into;
use crate::PoolingDesign;

/// The Ψ/Δ* sums of Algorithm 1 and its variants:
/// `psi[i] = Σ_{q ∋ i} w[q]` over the distinct queries containing entry
/// `i`, and `dstar[i] = |∂*x_i|`, written into caller buffers.
///
/// The one door every decoder takes (see the module docs): by
/// [`crate::csr::CsrDesign::gather_distinct_into`] when the design stores
/// a CSR, which is allocation-free, and by
/// [`crate::streaming::stream_sums_into`] otherwise.
///
/// # Panics
/// Panics if `w.len() != m` or `psi`/`dstar` are shorter than `n`.
pub fn distinct_sums_into<D: PoolingDesign + ?Sized>(
    design: &D,
    w: &[u64],
    psi: &mut [u64],
    dstar: &mut [u64],
) {
    match design.as_csr() {
        Some(csr) => csr.gather_distinct_into(w, psi, dstar),
        None => {
            assert_eq!(w.len(), design.m(), "weight vector length must equal m");
            stream_sums_into(design, psi, dstar, |q, _| w[q]);
        }
    }
}

/// Query sums with multiplicity: `out[q] = Σ_draws x[i]` (i.e. `Aᵀx`).
///
/// This is exactly the additive query semantics: a one-entry drawn twice
/// contributes twice.
pub fn pool_sums_u64<D: PoolingDesign + ?Sized>(design: &D, x: &[u64]) -> Vec<u64> {
    assert_eq!(x.len(), design.n(), "input vector must have length n");
    (0..design.m())
        .into_par_iter()
        .map(|q| {
            let mut acc = 0u64;
            design.for_each_distinct(q, &mut |e, c| {
                acc += x[e] * c as u64;
            });
            acc
        })
        .collect()
}

/// Scatter-based distinct accumulation:
/// `psi[i] = Σ_{q ∋ i} w[q]` (distinct incidence) and `dstar[i] = |∂*x_i|`.
///
/// Atomic relaxed adds; identical output to the CSR gather path.
pub fn scatter_distinct_u64<D: PoolingDesign + ?Sized>(
    design: &D,
    w: &[u64],
) -> (Vec<u64>, Vec<u64>) {
    assert_eq!(w.len(), design.m(), "weight vector must have length m");
    let psi = AtomicCounters::new(design.n());
    let dstar = AtomicCounters::new(design.n());
    (0..design.m()).into_par_iter().for_each(|q| {
        let wq = w[q];
        design.for_each_distinct(q, &mut |e, _| {
            psi.add(e, wq);
            dstar.incr(e);
        });
    });
    (psi.into_vec(), dstar.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrDesign;
    use pooled_rng::SeedSequence;

    fn design() -> CsrDesign {
        CsrDesign::sample(200, 60, 100, &SeedSequence::new(21))
    }

    #[test]
    fn pool_sums_all_ones_equal_gamma() {
        let d = design();
        let ones = vec![1u64; d.n()];
        let sums = pool_sums_u64(&d, &ones);
        assert!(sums.iter().all(|&s| s as usize == d.gamma()), "{sums:?}");
    }

    #[test]
    fn scatter_matches_gather() {
        let d = design();
        let w: Vec<u64> = (0..d.m() as u64).map(|q| 3 * q + 1).collect();
        let (psi_s, ds_s) = scatter_distinct_u64(&d, &w);
        let mut psi_g = vec![0u64; d.n()];
        let mut ds_g = vec![0u64; d.n()];
        d.gather_distinct_into(&w, &mut psi_g, &mut ds_g);
        assert_eq!(psi_s, psi_g);
        assert_eq!(ds_s, ds_g);
    }

    #[test]
    fn distinct_sums_match_the_scatter_on_both_storages() {
        use crate::streaming::StreamingDesign;
        let stream = StreamingDesign::new(200, 60, 100, &SeedSequence::new(21));
        let csr = stream.materialize();
        let w: Vec<u64> = (0..60).map(|q| q % 5).collect();
        let want = scatter_distinct_u64(&csr, &w);
        for design in [&stream as &dyn PoolingDesign, &csr] {
            let (mut psi, mut dstar) = (vec![u64::MAX; 200], vec![u64::MAX; 200]);
            distinct_sums_into(design, &w, &mut psi, &mut dstar);
            assert_eq!((psi, dstar), want, "as_csr: {}", design.as_csr().is_some());
        }
    }

    #[test]
    fn multiplicity_counts_in_pool_sums_not_in_psi() {
        // Query 0 contains entry 1 three times: the query result weighs it
        // thrice, the Ψ sum only once.
        let d = CsrDesign::from_pools(4, &[vec![1, 1, 1, 2]]);
        let x = vec![0u64, 1, 0, 0];
        assert_eq!(pool_sums_u64(&d, &x), vec![3]);
        let (psi, dstar) = scatter_distinct_u64(&d, &[5]);
        assert_eq!(psi, vec![0, 5, 5, 0]);
        assert_eq!(dstar, vec![0, 1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "length n")]
    fn wrong_input_length_panics() {
        let d = design();
        let _ = pool_sums_u64(&d, &[1, 2, 3]);
    }
}
