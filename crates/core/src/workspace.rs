//! Reusable decode workspace: every buffer Algorithm 1 (and its Γ-general
//! variant and the refinement stage) needs, owned in one place so repeated
//! decodes allocate nothing after the first.
//!
//! Monte-Carlo sweeps decode thousands of times with identical shapes; the
//! seed implementation allocated fresh `psi`/`dstar`/`scores`/estimate
//! vectors (plus top-k scratch) on every call. [`MnWorkspace`] keeps them
//! all across replicates. The sums come from
//! `pooled_design::distinct_sums_into`, which needs no scratch of its own
//! on a materialized design, so with a single worker installed the decode
//! path through [`crate::mn::MnDecoder::decode_with`] performs **zero**
//! heap allocations after warm-up on such a design (pinned by
//! `tests/alloc_free.rs`). A streaming design's pass allocates as it
//! regenerates each pool.
//!
//! The one-shot APIs (`decode`, `refine`, …) are thin wrappers that run a
//! fresh workspace and move its buffers into the output — same results,
//! same allocation profile as before.

use pooled_par::topk::{top_k_into, TopKScratch};

use crate::signal::Signal;

/// Scratch and result buffers for the decode pipeline. Create once per
/// worker (or replicate loop) and pass to the `*_with` entry points.
#[derive(Default)]
pub struct MnWorkspace {
    /// Current problem size (set by [`Self::prepare`]).
    n: usize,
    pub(crate) psi: Vec<u64>,
    pub(crate) dstar: Vec<u64>,
    pub(crate) scores: Vec<i64>,
    pub(crate) support: Vec<usize>,
    pub(crate) estimate: Vec<u8>,
    /// Γ-general decoder: exact wide scores and their selection heap.
    pub(crate) scores_wide: Vec<i128>,
    pub(crate) topk_wide: TopKScratch<i128>,
    pub(crate) pool_lens: Vec<u64>,
    pub(crate) gamma_sums: Vec<u64>,
    /// Secondary Δ* buffer for the Γ-sum accumulation (values discarded).
    pub(crate) dstar_scratch: Vec<u64>,
    /// Refinement-stage buffers.
    pub(crate) y_hat: Vec<u64>,
    pub(crate) residual: Vec<i64>,
    pub(crate) ins: Vec<usize>,
    pub(crate) outs: Vec<usize>,
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Selection heap of the `i64` scores.
    pub(crate) topk: TopKScratch<i64>,
}

impl MnWorkspace {
    /// Empty workspace; every buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the Ψ/Δ*/score/estimate buffers for a length-`n` problem.
    /// Reuses capacity; only the first call (or a growth in `n`) allocates.
    ///
    /// Contents are *unspecified* until a decode writes them: every
    /// accumulation and finish path fully overwrites its buffers, so
    /// `prepare` deliberately skips the redundant `O(n)` zeroing that would
    /// otherwise tax each Monte-Carlo replicate.
    pub fn prepare(&mut self, n: usize) {
        self.n = n;
        // Vec::resize truncates without writes when shrinking and
        // zero-extends only the grown tail.
        self.psi.resize(n, 0);
        self.dstar.resize(n, 0);
        self.scores.resize(n, 0);
        self.estimate.resize(n, 0);
    }

    /// The problem size of the last [`Self::prepare`].
    pub fn n(&self) -> usize {
        self.n
    }

    /// Neighborhood sums `Ψ_i` of the last decode.
    pub fn psi(&self) -> &[u64] {
        &self.psi[..self.n]
    }

    /// Distinct-query degrees `Δ*_i` of the last decode.
    pub fn delta_star(&self) -> &[u64] {
        &self.dstar[..self.n]
    }

    /// Integer scores `2Ψ_i − k·Δ*_i` of the last decode.
    pub fn scores(&self) -> &[i64] {
        &self.scores[..self.n]
    }

    /// Exact wide scores of the last Γ-general decode.
    ///
    /// Returns an empty slice when no Γ-general decode has run at the
    /// current problem size — unlike the other accessors (which the decode
    /// that just ran always refreshes), this buffer is only written by
    /// `GeneralMnDecoder::decode_with`, so serving a truncated stale vector
    /// after a re-`prepare` would be silently wrong.
    pub fn scores_wide(&self) -> &[i128] {
        if self.scores_wide.len() == self.n {
            &self.scores_wide
        } else {
            &[]
        }
    }

    /// Selected support indices, in ranking order (best first).
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// Dense 0/1 estimate of the last decode (length `n`).
    pub fn estimate_dense(&self) -> &[u8] {
        &self.estimate[..self.n]
    }

    /// Mutable `(psi, dstar)` at the current problem size, for the sum
    /// kernel to write into: `pooled_design::distinct_sums_into` in the
    /// decoders, or a streaming trial's pass that also executes the
    /// queries (which then calls `MnDecoder::finish_with`). Call
    /// [`Self::prepare`] first.
    pub fn sums_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        let n = self.n;
        (&mut self.psi[..n], &mut self.dstar[..n])
    }

    /// Mutable `(psi, dstar, scores)` at the current problem size, for a
    /// decoder outside this crate that accumulates and scores its own sums
    /// (Threshold-MN, the Ψ-only baseline). Call [`Self::prepare`] first
    /// and [`Self::select_top_k`] after.
    pub fn sums_and_scores_mut(&mut self) -> (&mut [u64], &mut [u64], &mut [i64]) {
        let n = self.n;
        (&mut self.psi[..n], &mut self.dstar[..n], &mut self.scores[..n])
    }

    /// Select the `k` best scores by `(score desc, index asc)` into the
    /// support, in ranking order, and mark them in the dense estimate.
    pub fn select_top_k(&mut self, k: usize) {
        top_k_into(&self.scores[..self.n], k, &mut self.support, &mut self.topk);
        self.mark_support();
    }

    /// Reorder the selected support ascending, in place (the estimate is
    /// unchanged).
    pub fn sort_support(&mut self) {
        self.support.sort_unstable();
    }

    /// Set the dense estimate to the selected support.
    pub(crate) fn mark_support(&mut self) {
        let estimate = &mut self.estimate[..self.n];
        estimate.fill(0);
        for &i in &self.support {
            estimate[i] = 1;
        }
    }

    /// Move the selected support out into a [`Signal`] — the shared tail of
    /// the one-shot decode wrappers.
    pub(crate) fn take_estimate_signal(&mut self, n: usize) -> Signal {
        Signal::from_support(n, std::mem::take(&mut self.support))
    }
}

impl std::fmt::Debug for MnWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MnWorkspace").field("n", &self.n).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_reuses_capacity() {
        let mut ws = MnWorkspace::new();
        ws.prepare(1000);
        let cap = ws.psi.capacity();
        ws.prepare(500);
        assert_eq!(ws.n(), 500);
        assert_eq!(ws.psi.capacity(), cap, "shrinking must not reallocate");
        assert_eq!(ws.psi().len(), 500);
        ws.prepare(1000);
        assert_eq!(ws.psi.capacity(), cap, "regrowth within capacity must not reallocate");
    }

    #[test]
    fn prepare_sizes_all_buffers() {
        // Contents are unspecified after prepare (decode paths overwrite);
        // only the lengths are part of the contract.
        let mut ws = MnWorkspace::new();
        ws.prepare(8);
        assert_eq!(ws.psi().len(), 8);
        assert_eq!(ws.delta_star().len(), 8);
        assert_eq!(ws.scores().len(), 8);
        assert_eq!(ws.estimate_dense().len(), 8);
        ws.prepare(3);
        assert_eq!(ws.psi().len(), 3);
        assert_eq!(ws.estimate_dense().len(), 3);
    }
}
