//! Design-major batched decode kernels: one traversal of the pooling
//! design serves a whole batch of jobs.
//!
//! The fused kernels in [`crate::fused`] already collapse a single job's
//! three sparse products (`y = Aᵀσ`, `Ψ = M·y`, `Δ* = M·1`) into one CSR
//! traversal. These kernels were built to cut the next cost down,
//! *re-streaming the CSR index arrays from memory once per job* when
//! many queued jobs decode against the same cached design.
//!
//! That cost is gone from the per-job path: the served decoders count Ψ
//! by popcount over the design's entry bitmap
//! ([`crate::csr::CsrDesign::gather_distinct_into`]), which stays in L2,
//! while these kernels still stream the index arrays. So a batched lane
//! now costs *more* than a per-job decode. On the repository benchmark
//! (2-vCPU Xeon VM, traced), the engine's `worker.batch_us_per_lane`
//! reads 2292 µs against a per-job `worker.decode_us.p50` of 517 µs on
//! `single_large`, and 562–1144 µs against 181–220 µs on `cold_churn`.
//! Whether these kernels stay is item 3(d) of ROADMAP.md.
//!
//! The kernels here are **structure-of-arrays over a batch of B lanes**:
//! for each query row, the row's `(entries, mults)` slices are read once —
//! while they sit in L1 — and used to gather `y_q` and scatter Ψ for *all
//! B lanes*. CSR index traffic drops from `O(B·nnz)` to `O(nnz)`; what
//! remains per lane is dense arithmetic against its own planes. Δ* does
//! not depend on the query results at all, so the batch shares **one**
//! Δ* plane instead of accumulating B identical copies.
//!
//! Plane layout is lane-major and flat: lane `b` of an `n`-sized plane is
//! `plane[b*n..(b+1)*n]`, so each lane's Ψ hands off to the single-job
//! finish path as a plain contiguous slice. All sums are exact `u64`
//! additions, so every lane is **bit-identical** to the single-job kernel
//! it replaces (pinned by the property suite).
//!
//! The kernels are deliberately sequential per call: the serving engine
//! pins each shard's inner parallelism to 1 (shard-level parallelism is
//! the engine's own), and Monte-Carlo sweeps parallelize across batches —
//! a rayon fan-out inside the kernel would buy nothing in either caller
//! and would cost the allocation-free guarantee.

use crate::csr::CsrDesign;
use crate::PoolingDesign;

/// Check the flat lane-major plane shapes shared by all batch kernels.
fn assert_batch_shapes(
    lanes: usize,
    n: usize,
    m: usize,
    per_query: usize,
    psis: usize,
    dstar: usize,
) {
    assert_eq!(per_query, lanes * m, "per-query plane must be lanes*m");
    assert_eq!(psis, lanes * n, "psi plane must be lanes*n");
    assert!(dstar >= n, "dstar must have length n");
}

/// Batched trial kernel over a materialized design: for `lanes` dense 0/1
/// signals stacked lane-major in `xs` (`lanes × n` bytes), compute every
/// lane's `y = Aᵀx` (`ys`, lane-major `lanes × m`), Ψ plane (`psis`,
/// lane-major `lanes × n`) and the **shared** Δ* (`dstar`, length `n` —
/// identical for every lane because `Δ* = M·1` ignores the signal), in a
/// single traversal of the forward CSR.
///
/// Lane `b` of the output is bit-identical to
/// [`crate::fused::decode_sums_fused`] on `xs[b*n..(b+1)*n]` alone.
///
/// # Panics
/// Panics if `xs.len() != lanes*n`, `ys.len() != lanes*m`,
/// `psis.len() != lanes*n`, or `dstar.len() < n`.
pub fn decode_sums_fused_batch(
    design: &CsrDesign,
    xs: &[u8],
    lanes: usize,
    ys: &mut [u64],
    psis: &mut [u64],
    dstar: &mut [u64],
) {
    let (n, m) = (design.n(), design.m());
    assert_eq!(xs.len(), lanes * n, "signal plane must be lanes*n");
    assert_batch_shapes(lanes, n, m, ys.len(), psis.len(), dstar.len());
    psis.fill(0);
    dstar[..n].fill(0);
    for q in 0..m {
        let (entries, mults) = design.query_row(q);
        for b in 0..lanes {
            let x = &xs[b * n..(b + 1) * n];
            let mut acc = 0u64;
            for (&e, &c) in entries.iter().zip(mults) {
                acc += x[e as usize] as u64 * c as u64;
            }
            ys[b * m + q] = acc;
            let psi = &mut psis[b * n..(b + 1) * n];
            for &e in entries {
                psi[e as usize] += acc;
            }
        }
        for &e in entries {
            dstar[e as usize] += 1;
        }
    }
}

/// Batched trial kernel for arbitrary (in particular streaming) designs:
/// each query's distinct `(entry, multiplicity)` pool is produced **once**
/// into `pool_scratch` and then serves every lane — a streaming design
/// regenerates its pools once per *batch* instead of once per *job*.
///
/// Bit-identical per lane to [`decode_sums_fused_batch`] on materialized
/// designs; same contract and panics (plus `pool_scratch` is clobbered).
pub fn decode_sums_fused_batch_stream<D: PoolingDesign + ?Sized>(
    design: &D,
    xs: &[u8],
    lanes: usize,
    ys: &mut [u64],
    psis: &mut [u64],
    dstar: &mut [u64],
    pool_scratch: &mut Vec<(u32, u32)>,
) {
    let (n, m) = (design.n(), design.m());
    assert_eq!(xs.len(), lanes * n, "signal plane must be lanes*n");
    assert_batch_shapes(lanes, n, m, ys.len(), psis.len(), dstar.len());
    psis.fill(0);
    dstar[..n].fill(0);
    for q in 0..m {
        pool_scratch.clear();
        design.for_each_distinct(q, &mut |e, c| pool_scratch.push((e as u32, c)));
        for b in 0..lanes {
            let x = &xs[b * n..(b + 1) * n];
            let mut acc = 0u64;
            for &(e, c) in pool_scratch.iter() {
                acc += x[e as usize] as u64 * c as u64;
            }
            ys[b * m + q] = acc;
            let psi = &mut psis[b * n..(b + 1) * n];
            for &(e, _) in pool_scratch.iter() {
                psi[e as usize] += acc;
            }
        }
        for &(e, _) in pool_scratch.iter() {
            dstar[e as usize] += 1;
        }
    }
}

/// Batched Ψ/Δ* accumulation when every lane's query results are already
/// known (the decoder's usual entry): `ys` is lane-major `lanes × m`, and
/// one forward-CSR traversal scatters all lanes' Ψ planes plus the shared
/// Δ*. The batch analogue of [`crate::fused::scatter_distinct_into`].
///
/// Lane `b` is bit-identical to
/// [`crate::csr::CsrDesign::gather_distinct_into`] on `ys[b*m..(b+1)*m]`
/// (exact `u64` sums; accumulation order is invisible).
///
/// # Panics
/// Panics if `ys.len() != lanes*m`, `psis.len() != lanes*n`, or
/// `dstar.len() < n`.
pub fn scatter_distinct_batch(
    design: &CsrDesign,
    ys: &[u64],
    lanes: usize,
    psis: &mut [u64],
    dstar: &mut [u64],
) {
    let (n, m) = (design.n(), design.m());
    assert_batch_shapes(lanes, n, m, ys.len(), psis.len(), dstar.len());
    psis.fill(0);
    dstar[..n].fill(0);
    for q in 0..m {
        let (entries, _) = design.query_row(q);
        for b in 0..lanes {
            let wq = ys[b * m + q];
            let psi = &mut psis[b * n..(b + 1) * n];
            for &e in entries {
                psi[e as usize] += wq;
            }
        }
        for &e in entries {
            dstar[e as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{decode_sums_fused, FusedArena};
    use crate::streaming::StreamingDesign;
    use pooled_rng::SeedSequence;

    fn dense_lane(n: usize, seed: u64) -> Vec<u8> {
        (0..n).map(|i| u8::from((i as u64).wrapping_mul(seed | 1).is_multiple_of(4))).collect()
    }

    fn stack_lanes(n: usize, lanes: usize, seed: u64) -> Vec<u8> {
        (0..lanes).flat_map(|b| dense_lane(n, seed + b as u64)).collect()
    }

    /// Reference: the single-job fused kernel, lane by lane.
    fn per_lane_reference(
        design: &CsrDesign,
        xs: &[u8],
        lanes: usize,
    ) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let (n, m) = (design.n(), design.m());
        let mut arena = FusedArena::new();
        let (mut ys, mut psis, mut dstar) = (vec![0; lanes * m], vec![0; lanes * n], vec![0; n]);
        for b in 0..lanes {
            let x: Vec<u64> = xs[b * n..(b + 1) * n].iter().map(|&v| v as u64).collect();
            let mut lane_dstar = vec![0u64; n];
            decode_sums_fused(
                design,
                &x,
                &mut ys[b * m..(b + 1) * m],
                &mut psis[b * n..(b + 1) * n],
                &mut lane_dstar,
                &mut arena,
            );
            dstar.copy_from_slice(&lane_dstar);
        }
        (ys, psis, dstar)
    }

    #[test]
    fn batch_matches_per_lane_fused() {
        for (n, m, gamma, lanes, seed) in
            [(200usize, 60usize, 100usize, 4usize, 3u64), (500, 120, 250, 9, 11), (64, 7, 32, 1, 5)]
        {
            let design = CsrDesign::sample(n, m, gamma, &SeedSequence::new(seed));
            let xs = stack_lanes(n, lanes, seed);
            let (want_ys, want_psis, want_dstar) = per_lane_reference(&design, &xs, lanes);
            let (mut ys, mut psis, mut dstar) =
                (vec![0; lanes * m], vec![0; lanes * n], vec![0; n]);
            decode_sums_fused_batch(&design, &xs, lanes, &mut ys, &mut psis, &mut dstar);
            assert_eq!(ys, want_ys, "n={n} lanes={lanes}");
            assert_eq!(psis, want_psis, "n={n} lanes={lanes}");
            assert_eq!(dstar, want_dstar, "n={n} lanes={lanes}");
        }
    }

    #[test]
    fn stream_batch_matches_csr_batch() {
        let seeds = SeedSequence::new(23);
        let (n, m, gamma, lanes) = (300, 70, 150, 5);
        let stream = StreamingDesign::new(n, m, gamma, &seeds);
        let csr = stream.materialize();
        let xs = stack_lanes(n, lanes, 9);
        let (mut ys_a, mut psis_a, mut dstar_a) =
            (vec![0; lanes * m], vec![0; lanes * n], vec![0; n]);
        decode_sums_fused_batch(&csr, &xs, lanes, &mut ys_a, &mut psis_a, &mut dstar_a);
        let mut pool = Vec::new();
        let (mut ys_b, mut psis_b, mut dstar_b) =
            (vec![0; lanes * m], vec![0; lanes * n], vec![0; n]);
        decode_sums_fused_batch_stream(
            &stream,
            &xs,
            lanes,
            &mut ys_b,
            &mut psis_b,
            &mut dstar_b,
            &mut pool,
        );
        assert_eq!(ys_a, ys_b);
        assert_eq!(psis_a, psis_b);
        assert_eq!(dstar_a, dstar_b);
    }

    #[test]
    fn scatter_batch_matches_gather_per_lane() {
        let design = CsrDesign::sample(250, 80, 125, &SeedSequence::new(41));
        let (n, m, lanes) = (design.n(), design.m(), 6usize);
        let ys: Vec<u64> =
            (0..lanes * m).map(|i| (i as u64).wrapping_mul(2654435761) % 97).collect();
        let (mut psis, mut dstar) = (vec![0u64; lanes * n], vec![0u64; n]);
        scatter_distinct_batch(&design, &ys, lanes, &mut psis, &mut dstar);
        for b in 0..lanes {
            let mut want_psi = vec![0u64; n];
            let mut want_dstar = vec![0u64; n];
            design.gather_distinct_into(&ys[b * m..(b + 1) * m], &mut want_psi, &mut want_dstar);
            assert_eq!(&psis[b * n..(b + 1) * n], &want_psi[..], "lane {b}");
            assert_eq!(dstar, want_dstar, "lane {b}");
        }
    }

    #[test]
    fn zero_lanes_zero_queries_are_fine() {
        let design = CsrDesign::sample(10, 5, 5, &SeedSequence::new(1));
        let (mut ys, mut psis, mut dstar) = (vec![], vec![], vec![7u64; 10]);
        decode_sums_fused_batch(&design, &[], 0, &mut ys, &mut psis, &mut dstar);
        // Δ* is signal-independent, so even an empty batch leaves the
        // design's distinct degrees (never the stale sevens).
        let mut want = vec![0u64; 10];
        for q in 0..design.m() {
            design.for_each_distinct(q, &mut |e, _| want[e] += 1);
        }
        assert_eq!(dstar, want);
        let empty = CsrDesign::sample(10, 0, 5, &SeedSequence::new(1));
        let xs = stack_lanes(10, 3, 2);
        let (mut ys, mut psis, mut dstar) = (vec![], vec![0; 30], vec![0u64; 10]);
        decode_sums_fused_batch(&empty, &xs, 3, &mut ys, &mut psis, &mut dstar);
        assert!(psis.iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "lanes*n")]
    fn wrong_signal_plane_panics() {
        let design = CsrDesign::sample(10, 5, 5, &SeedSequence::new(1));
        let (mut ys, mut psis, mut dstar) = (vec![0; 10], vec![0; 20], vec![0; 10]);
        decode_sums_fused_batch(&design, &[0u8; 19], 2, &mut ys, &mut psis, &mut dstar);
    }
}
