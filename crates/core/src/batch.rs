//! Multi-job batched decode: Algorithm 1 for a batch of jobs that share
//! one pooling design.
//!
//! The batch path was built to stop re-streaming the CSR index arrays once
//! per job when the queued jobs all decode against the same cached
//! design. The per-job decode no longer streams them (it counts by
//! popcount over the design's entry bitmap), so a batched lane now costs
//! *more* than an independent decode: on the repository benchmark
//! (2-vCPU Xeon VM, traced), the engine's `worker.batch_us_per_lane`
//! reads 2292 µs against a per-job `worker.decode_us.p50` of 517 µs on
//! `single_large`, and 562–1144 µs against 181–220 µs on `cold_churn`.
//! Whether the batch path stays is item 3(d) of ROADMAP.md.
//!
//! [`BatchWorkspace`] owns the lane-major Ψ plane
//! and the **shared** Δ* for a batch of `B` lanes, and
//! [`MnDecoder::decode_batch_with`] accumulates all lanes in one design
//! traversal (`pooled_design::batched::scatter_distinct_batch`) before
//! finishing each lane through the ordinary selection path — so every
//! lane's scores, support and estimate are **bit-identical** to an
//! independent [`MnDecoder::decode_csr_with`] call on that lane's `y`
//! (exact `u64` sums; the property suite pins this for arbitrary `B`).
//!
//! Like [`crate::workspace::MnWorkspace`], the batch workspace is
//! allocation-free after warm-up at a stable `(lanes, n)` shape; the
//! engine's batched serving path and the batched Monte-Carlo trials in
//! `pooled_stats` both hold one per worker.

use pooled_design::batched::scatter_distinct_batch;
use pooled_design::csr::CsrDesign;
use pooled_design::PoolingDesign;

use crate::mn::MnDecoder;
use crate::workspace::MnWorkspace;

/// Scratch for a batched decode: `lanes` Ψ lanes, one shared Δ*, and the
/// single-lane finish scratch (scores/selection/estimate). Create once per
/// worker (or replicate loop) and reuse across batches.
#[derive(Default)]
pub struct BatchWorkspace {
    lanes: usize,
    n: usize,
    /// Lane-major Ψ plane: lane `b` is `psis[b*n..(b+1)*n]`.
    psis: Vec<u64>,
    /// Shared Δ* (`M·1` ignores the query results, so one plane serves
    /// every lane of the batch).
    dstar: Vec<u64>,
    /// Per-lane finish scratch, reused lane after lane.
    mn: MnWorkspace,
}

impl BatchWorkspace {
    /// Empty workspace; planes grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the planes for a `lanes × n` batch. Reuses capacity; only the
    /// first call (or growth) allocates. Plane contents are unspecified
    /// until an accumulation kernel overwrites them.
    pub fn prepare(&mut self, lanes: usize, n: usize) {
        self.lanes = lanes;
        self.n = n;
        self.psis.resize(lanes * n, 0);
        self.dstar.resize(n, 0);
    }

    /// The lane count of the last [`Self::prepare`].
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Reserve capacity for a `lanes × n` batch without resizing: callers
    /// whose batch width jitters (the engine's design-affinity runs) can
    /// pre-size for their widest possible batch so a later
    /// [`Self::prepare`] at any width up to it never allocates.
    pub fn reserve(&mut self, lanes: usize, n: usize) {
        let psis_cap = lanes * n;
        if self.psis.capacity() < psis_cap {
            self.psis.reserve(psis_cap - self.psis.len());
        }
        if self.dstar.capacity() < n {
            self.dstar.reserve(n - self.dstar.len());
        }
    }

    /// Mutable `(psis, dstar)` planes for an external accumulation kernel
    /// (`pooled_design::batched`). Call [`Self::prepare`] first.
    pub fn sums_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        (&mut self.psis[..self.lanes * self.n], &mut self.dstar[..self.n])
    }

    /// Lane `b`'s accumulated Ψ.
    ///
    /// # Panics
    /// Panics if `lane >= lanes`.
    pub fn lane_psi(&self, lane: usize) -> &[u64] {
        assert!(lane < self.lanes, "lane {lane} out of range");
        &self.psis[lane * self.n..(lane + 1) * self.n]
    }

    /// The batch's shared Δ*.
    pub fn dstar(&self) -> &[u64] {
        &self.dstar[..self.n]
    }

    /// Finish one lane: scores, selection and estimate from the lane's Ψ
    /// and the shared Δ*, through `decoder`'s ordinary selection path.
    /// Returns the finished single-lane workspace; read the lane's
    /// results (`scores()`, `support()`, `estimate_dense()`) from it
    /// before finishing the next lane — the scratch is reused.
    ///
    /// # Panics
    /// Panics if `lane >= lanes`.
    pub fn finish_lane(&mut self, decoder: &MnDecoder, lane: usize) -> &MnWorkspace {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let n = self.n;
        let psi = &self.psis[lane * n..(lane + 1) * n];
        decoder.finish_from_sums(psi, &self.dstar[..n], &mut self.mn);
        &self.mn
    }
}

impl std::fmt::Debug for BatchWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchWorkspace")
            .field("lanes", &self.lanes)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl MnDecoder {
    /// Batched Algorithm 1: decode `lanes` jobs sharing `design` from
    /// their stacked query results in **one** traversal of the design.
    ///
    /// `ys` is lane-major (`lanes × m`: lane `b` occupies
    /// `ys[b*m..(b+1)*m]`). After the shared accumulation, each lane is
    /// finished in order and handed to `visit(lane, workspace)`; the
    /// workspace's scores/support/estimate are valid for exactly that
    /// lane during the call (the scratch is reused lane after lane).
    ///
    /// Per lane this is bit-identical to [`MnDecoder::decode_csr_with`]
    /// on the lane's `y` alone, for any `lanes ≥ 1` — what changes is the
    /// memory traffic: the CSR index arrays are streamed once per batch
    /// instead of once per job.
    ///
    /// # Panics
    /// Panics if `ys.len() != lanes * design.m()`.
    pub fn decode_batch_with<F>(
        &self,
        design: &CsrDesign,
        ys: &[u64],
        lanes: usize,
        bw: &mut BatchWorkspace,
        mut visit: F,
    ) where
        F: FnMut(usize, &MnWorkspace),
    {
        assert_eq!(ys.len(), lanes * design.m(), "ys must be lane-major lanes*m");
        bw.prepare(lanes, design.n());
        let (psis, dstar) = bw.sums_mut();
        scatter_distinct_batch(design, ys, lanes, psis, dstar);
        for lane in 0..lanes {
            bw.finish_lane(self, lane);
            visit(lane, &bw.mn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::execute_queries;
    use crate::signal::Signal;
    use pooled_rng::SeedSequence;

    fn batch_instance(
        n: usize,
        k: usize,
        m: usize,
        lanes: usize,
        seed: u64,
    ) -> (CsrDesign, Vec<u64>) {
        let seeds = SeedSequence::new(seed);
        let design = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
        let mut ys = Vec::with_capacity(lanes * m);
        for b in 0..lanes {
            let sigma = Signal::random(n, k, &mut seeds.child("signal", b as u64).rng());
            ys.extend(execute_queries(&design, &sigma));
        }
        (design, ys)
    }

    #[test]
    fn batch_lanes_match_independent_decodes() {
        let (n, k, m, lanes) = (400usize, 6usize, 200usize, 5usize);
        let (design, ys) = batch_instance(n, k, m, lanes, 77);
        let decoder = MnDecoder::new(k);
        let mut bw = BatchWorkspace::new();
        let mut seen = 0;
        decoder.decode_batch_with(&design, &ys, lanes, &mut bw, |lane, ws| {
            let mut single = MnWorkspace::new();
            decoder.decode_csr_with(&design, &ys[lane * m..(lane + 1) * m], &mut single);
            assert_eq!(ws.scores(), single.scores(), "lane {lane}");
            assert_eq!(ws.support(), single.support(), "lane {lane}");
            assert_eq!(ws.estimate_dense(), single.estimate_dense(), "lane {lane}");
            seen += 1;
        });
        assert_eq!(seen, lanes);
    }

    #[test]
    fn workspace_reuse_across_batch_shapes() {
        let mut bw = BatchWorkspace::new();
        let decoder = MnDecoder::new(4);
        for (n, m, lanes, seed) in
            [(200usize, 80usize, 3usize, 1u64), (120, 50, 8, 2), (200, 80, 1, 3)]
        {
            let (design, ys) = batch_instance(n, 4, m, lanes, seed);
            let mut supports = Vec::new();
            decoder.decode_batch_with(&design, &ys, lanes, &mut bw, |_, ws| {
                supports.push(ws.support().to_vec());
            });
            assert_eq!(supports.len(), lanes);
            for (lane, support) in supports.iter().enumerate() {
                let mut single = MnWorkspace::new();
                decoder.decode_csr_with(&design, &ys[lane * m..(lane + 1) * m], &mut single);
                assert_eq!(support, single.support(), "n={n} lane={lane}");
            }
        }
    }

    #[test]
    fn lane_accessors_expose_the_sums() {
        let (design, ys) = batch_instance(150, 4, 60, 2, 9);
        let decoder = MnDecoder::new(4);
        let mut bw = BatchWorkspace::new();
        decoder.decode_batch_with(&design, &ys, 2, &mut bw, |_, _| {});
        let mut psi = vec![0u64; 150];
        let mut dstar = vec![0u64; 150];
        design.gather_distinct_into(&ys[60..120], &mut psi, &mut dstar);
        assert_eq!(bw.lane_psi(1), &psi[..]);
        assert_eq!(bw.dstar(), &dstar[..]);
    }

    #[test]
    #[should_panic(expected = "lane-major")]
    fn wrong_ys_length_panics() {
        let (design, _) = batch_instance(100, 3, 40, 1, 1);
        let mut bw = BatchWorkspace::new();
        MnDecoder::new(3).decode_batch_with(&design, &[0u64; 41], 1, &mut bw, |_, _| {});
    }
}
