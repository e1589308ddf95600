//! Biadjacency matrix–vector products.
//!
//! The paper (§I-C) observes that Algorithm 1 is two matvecs: `Δ* = M·1` and
//! `Ψ = M·y` where `M` is the unweighted (distinct-incidence) biadjacency
//! matrix, plus the query execution itself, `y = Aᵀσ`, with `A` the
//! multiplicity-weighted matrix. These kernels are the hot path of the whole
//! simulator.
//!
//! # Choosing a kernel
//!
//! | kernel | entry point | parallelism | atomics | passes over design | allocation |
//! |---|---|---|---|---|---|
//! | scatter (atomic) | [`scatter_distinct_u64`] | query-parallel | yes | 1 (+1 for `y`) | per call |
//! | scatter (blocked) | [`crate::fused::scatter_distinct_into`] | query-parallel, privatized | no | 1 (+1 for `y`) | arena, reused |
//! | gather (index) | [`crate::csr::CsrDesign::gather_distinct_into`] without a bitmap or past the crossover | entry-parallel over transpose | no | 1 (+1 for `y`) | none |
//! | gather (popcount) | [`crate::csr::CsrDesign::gather_distinct_into`] with a bitmap (distinct density ≥ 1/32), mixed weight planes ≤ 5/4 of the incidences per bitmap word | entry-parallel over the entry bitmap | no | 1 bitmap pass (+1 for `y`) | none (planes on the stack) |
//! | fused | [`crate::fused::decode_sums_fused`] | query-parallel, privatized | no | **1 total** (`y`, Ψ, Δ*) | arena, reused |
//!
//! Trade-offs: atomic scatter works on *any* [`PoolingDesign`] (including
//! streaming) with zero extra memory but serializes on hot slots; blocked
//! scatter privatizes per-worker planes (`t·n` words) and wins once the
//! update density `m·Γ/n` clears `pooled_par::blocked::choose_scatter`'s
//! threshold; gather needs the materialized CSR transpose but is contention
//! free by construction; its popcount arm reads the `n·⌈m/64⌉`-word entry
//! bitmap instead of `4·nnz` bytes of query indices and counts
//! `Σ_b 2^b · popcount(B_i ∧ Y_b)` over the weights' mixed bit-planes,
//! which is how the engine's three served decoders take their sums; the
//! fused kernel is the Monte-Carlo hot path — one traversal produces all
//! three vectors into reusable buffers (streaming variant regenerates each
//! query's pool once instead of twice). All of them produce bit-identical
//! results (exact `u64` sums, property tested).

use rayon::prelude::*;

use pooled_par::scatter::AtomicCounters;

use crate::PoolingDesign;

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

/// Floating-point query sums with multiplicity (`Aᵀx` over `f64`), used by
/// the compressed-sensing baselines.
pub fn pool_sums_f64<D: PoolingDesign + ?Sized>(design: &D, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), design.n(), "input vector must have length n");
    (0..design.m())
        .into_par_iter()
        .map(|q| {
            let mut acc = 0.0f64;
            design.for_each_distinct(q, &mut |e, c| {
                acc += x[e] * c as f64;
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

/// Entry-major spread of query weights *with* multiplicity:
/// `out[i] = Σ_q A_iq · w[q]` — the transpose product `A·w` the baselines use.
pub fn spread_weighted_f64<D: PoolingDesign + ?Sized>(design: &D, w: &[f64]) -> Vec<f64> {
    assert_eq!(w.len(), design.m(), "weight vector must have length m");
    let out: Vec<parking_lot_free::AtomicF64> =
        (0..design.n()).map(|_| parking_lot_free::AtomicF64::new(0.0)).collect();
    (0..design.m()).into_par_iter().for_each(|q| {
        let wq = w[q];
        design.for_each_distinct(q, &mut |e, c| {
            out[e].add(wq * c as f64);
        });
    });
    out.into_iter().map(|a| a.get()).collect()
}

/// Minimal atomic `f64` add via `AtomicU64` CAS (no external crates needed).
mod parking_lot_free {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub struct AtomicF64(AtomicU64);

    impl AtomicF64 {
        pub fn new(v: f64) -> Self {
            Self(AtomicU64::new(v.to_bits()))
        }

        pub fn add(&self, v: f64) {
            let mut cur = self.0.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }

        pub fn get(&self) -> f64 {
            f64::from_bits(self.0.load(Ordering::Relaxed))
        }
    }
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
    fn pool_sums_match_f64_version() {
        let d = design();
        let x: Vec<u64> = (0..d.n() as u64).map(|i| i % 3).collect();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let a = pool_sums_u64(&d, &x);
        let b = pool_sums_f64(&d, &xf);
        for (ia, ib) in a.iter().zip(&b) {
            assert!((*ia as f64 - ib).abs() < 1e-9);
        }
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
    fn spread_weighted_applies_multiplicity() {
        let d = CsrDesign::from_pools(3, &[vec![0, 0, 1], vec![1, 2]]);
        let out = spread_weighted_f64(&d, &[2.0, 10.0]);
        assert_eq!(out, vec![4.0, 12.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "length n")]
    fn wrong_input_length_panics() {
        let d = design();
        let _ = pool_sums_u64(&d, &[1, 2, 3]);
    }

    #[test]
    fn atomic_f64_accumulates_concurrently() {
        let acc = super::parking_lot_free::AtomicF64::new(0.0);
        use rayon::prelude::*;
        (0..10_000u64).into_par_iter().for_each(|_| acc.add(0.5));
        assert!((acc.get() - 5_000.0).abs() < 1e-6);
    }
}
