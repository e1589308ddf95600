//! The Maximum Neighborhood (MN) algorithm — Algorithm 1 of the paper.
//!
//! For each entry `i`, sum the results of all *distinct* queries containing
//! it (`Ψ_i`), count those queries (`Δ*_i`), and score the entry by
//! `Ψ_i − Δ*_i·k/2`. One-entries shift their own queries' results upward by
//! `Δ_i ≈ m/2`, so the `k` largest scores identify the support w.h.p. once
//! `m > (1+ε)·m_MN` (Theorem 1).
//!
//! Implementation notes:
//!
//! * Scores are computed in exact integer arithmetic as `2Ψ_i − k·Δ*_i`
//!   (the ×2 clears the `k/2` fraction), so ranking has no float ties.
//! * Ψ and Δ* come from one door, `pooled_design::distinct_sums_visit`,
//!   which picks the kernel from what the design stores: the gather on a
//!   materialized design (by popcount over the entry bitmap where the
//!   design keeps one), one sequential pass on a streaming design. Each
//!   entry is scored from its own row alone, so the door's visitor scores
//!   it as soon as its sums are final: a decode is one pass.
//! * Lines 7–9 sort all `n` scores only to keep the `k` largest; the
//!   decoder offers each score to an `O(n log k)` top-k heap instead, in
//!   the same pass, with the deterministic `(score desc, index asc)`
//!   tie-break of a stable descending sort. The tests hold it to that
//!   full sort (`pooled_par::topk::top_k_indices_by_sort`).

use pooled_design::{distinct_sums_visit, PoolingDesign};

use crate::signal::Signal;
use crate::workspace::{scoring_visitor, MnWorkspace};

/// Decoder configuration: the target weight `k`, nothing else.
#[derive(Clone, Copy, Debug)]
pub struct MnDecoder {
    k: usize,
}

/// Decoder output: the estimate plus the per-entry evidence.
#[derive(Clone, Debug)]
pub struct MnOutput {
    /// The reconstructed signal `σ̃` (weight exactly `min(k, n)`).
    pub estimate: Signal,
    /// Integer scores `2Ψ_i − k·Δ*_i` for every entry.
    pub scores: Vec<i64>,
    /// Neighborhood sums `Ψ_i` (distinct queries only).
    pub psi: Vec<u64>,
    /// Distinct-query degrees `Δ*_i`.
    pub delta_star: Vec<u64>,
}

impl MnDecoder {
    /// Decoder for signals of known (or upper-bounded) weight `k`.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// The target weight `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Run Algorithm 1 on the query results `y`.
    ///
    /// Thin wrapper over [`Self::decode_with`] on a fresh workspace; hot
    /// loops should hold an [`MnWorkspace`] and call `decode_with` directly
    /// so repeated decodes reuse memory.
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode<D: PoolingDesign + ?Sized>(&self, design: &D, y: &[u64]) -> MnOutput {
        let mut ws = MnWorkspace::new();
        self.decode_with(design, y, &mut ws);
        MnOutput {
            estimate: ws.take_estimate_signal(design.n()),
            scores: std::mem::take(&mut ws.scores),
            psi: std::mem::take(&mut ws.psi),
            delta_star: std::mem::take(&mut ws.dstar),
        }
    }

    /// Workspace decode: identical results to [`Self::decode`], but every
    /// buffer (Ψ, Δ*, scores, selection scratch, estimate) lives in `ws`
    /// and is reused across calls. On a materialized design with one rayon
    /// worker installed, this path performs zero heap allocations after
    /// warm-up; a streaming design's pass allocates as it regenerates each
    /// pool.
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode_with<D: PoolingDesign + ?Sized>(
        &self,
        design: &D,
        y: &[u64],
        ws: &mut MnWorkspace,
    ) {
        self.decode_observed(design, y, ws, |_| {});
    }

    /// [`Self::decode_with`], passing each entry's score to `observe`, in
    /// ascending entry order: one pass in which each entry is scored,
    /// stored, offered to the selection and observed as soon as the sum
    /// kernel finishes its Ψ/Δ*.
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode_observed<D: PoolingDesign + ?Sized>(
        &self,
        design: &D,
        y: &[u64],
        ws: &mut MnWorkspace,
        observe: impl FnMut(i64),
    ) {
        assert_eq!(y.len(), design.m(), "result vector length must equal m");
        ws.prepare(design.n());
        let (psi, dstar, scores, topk) = ws.pass_mut(self.k);
        let visit = scoring_visitor(scores, topk, self.score(), observe);
        distinct_sums_visit(design, y, psi, dstar, visit);
        ws.finish_selection();
    }

    /// Complete Algorithm 1 (scores + selection + estimate) from the Ψ/Δ*
    /// sums already accumulated in `ws` — the entry point for a trial on a
    /// streaming design, whose one pass
    /// (`pooled_design::streaming::stream_sums_into`) executes the queries
    /// and sums them together. Runs the per-entry step of
    /// [`Self::decode_observed`] over the finished sums.
    ///
    /// # Panics
    /// Panics if `ws` was not prepared for exactly this `n` (a stale
    /// workspace would otherwise decode over leftover prefix sums).
    pub fn finish_with(&self, n: usize, ws: &mut MnWorkspace) {
        assert_eq!(ws.n(), n, "workspace not prepared for this n");
        let (psi, dstar, scores, topk) = ws.pass_mut(self.k);
        let mut visit = scoring_visitor(scores, topk, self.score(), |_| {});
        for (i, (&p, &d)) in psi.iter().zip(&*dstar).enumerate() {
            visit(i, p, d);
        }
        drop(visit);
        ws.finish_selection();
    }

    /// Algorithm 1's score of an entry, `2Ψ_i − k·Δ*_i`.
    fn score(&self) -> impl Fn(usize, u64, u64) -> i64 {
        let k = self.k as i64;
        move |_, p, d| 2 * p as i64 - k * d as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::execute_queries;
    use pooled_design::RandomRegularDesign;
    use pooled_rng::SeedSequence;
    use pooled_theory::thresholds::{k_of, m_mn_finite};

    /// End-to-end helper: sample, execute, decode, compare.
    fn run(n: usize, k: usize, m: usize, seed: u64) -> (Signal, MnOutput) {
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
        let y = execute_queries(&design, &sigma);
        let out = MnDecoder::new(k).decode(&design, &y);
        (sigma, out)
    }

    #[test]
    fn recovers_above_threshold_n1000_theta03() {
        // Theorem 1 + finite-size Remark: m ≈ 1.4·m_MN_finite ⇒ recovery.
        let n = 1000;
        let k = k_of(n, 0.3);
        let m = (1.4 * m_mn_finite(n, 0.3)).ceil() as usize;
        let mut successes = 0;
        for seed in 0..10 {
            let (sigma, out) = run(n, k, m, seed);
            if out.estimate == sigma {
                successes += 1;
            }
        }
        assert!(successes >= 8, "only {successes}/10 recoveries at m={m}");
    }

    #[test]
    fn fails_far_below_threshold() {
        // With a handful of queries, exact recovery of k=8 in n=1000 should
        // essentially never happen.
        let mut successes = 0;
        for seed in 0..10 {
            let (sigma, out) = run(1000, 8, 10, 100 + seed);
            if out.estimate == sigma {
                successes += 1;
            }
        }
        assert!(successes <= 1, "{successes} lucky recoveries at m=10");
    }

    #[test]
    fn estimate_weight_is_k() {
        let (_, out) = run(500, 7, 50, 1);
        assert_eq!(out.estimate.weight(), 7);
    }

    #[test]
    fn streaming_and_csr_designs_decode_identically() {
        use pooled_design::{CsrDesign, StreamingDesign};
        let seeds = SeedSequence::new(11);
        let n = 400;
        let sigma = Signal::random(n, 6, &mut seeds.child("signal", 0).rng());
        let design_seeds = seeds.child("design", 0);
        let csr = RandomRegularDesign::Csr(CsrDesign::sample(n, 150, n / 2, &design_seeds));
        let stream =
            RandomRegularDesign::Streaming(StreamingDesign::new(n, 150, n / 2, &design_seeds));
        let y_c = execute_queries(&csr, &sigma);
        let y_s = execute_queries(&stream, &sigma);
        assert_eq!(y_c, y_s);
        let a = MnDecoder::new(6).decode(&csr, &y_c);
        let b = MnDecoder::new(6).decode(&stream, &y_s);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn one_entry_scores_dominate_on_average() {
        let (sigma, out) = run(2000, 10, 400, 12);
        let avg = |pred: &dyn Fn(usize) -> bool| {
            let (mut sum, mut cnt) = (0i128, 0i128);
            for i in 0..2000 {
                if pred(i) {
                    sum += out.scores[i] as i128;
                    cnt += 1;
                }
            }
            sum as f64 / cnt as f64
        };
        let one_avg = avg(&|i| sigma.is_one(i));
        let zero_avg = avg(&|i| !sigma.is_one(i));
        assert!(
            one_avg > zero_avg + 100.0,
            "one-avg {one_avg} not separated from zero-avg {zero_avg}"
        );
    }

    #[test]
    fn psi_and_delta_star_consistency() {
        // Ψ_i ≤ Δ*_i · max(y); Δ*_i ≤ m.
        let seeds = SeedSequence::new(13);
        let n = 300;
        let sigma = Signal::random(n, 5, &mut seeds.child("signal", 0).rng());
        let design = RandomRegularDesign::sample(n, 80, &seeds.child("design", 0));
        let y = execute_queries(&design, &sigma);
        let out = MnDecoder::new(5).decode(&design, &y);
        let ymax = *y.iter().max().unwrap();
        for i in 0..n {
            assert!(out.delta_star[i] <= 80);
            assert!(out.psi[i] <= out.delta_star[i] * ymax);
        }
    }

    #[test]
    fn k_zero_returns_zero_signal() {
        let seeds = SeedSequence::new(14);
        let design = RandomRegularDesign::sample(50, 10, &seeds);
        let y = vec![0u64; 10];
        let out = MnDecoder::new(0).decode(&design, &y);
        assert_eq!(out.estimate.weight(), 0);
    }

    #[test]
    fn k_equal_n_returns_all_ones() {
        let seeds = SeedSequence::new(15);
        let design = RandomRegularDesign::sample(20, 10, &seeds);
        let sigma = Signal::from_dense(&[1u8; 20]);
        let y = execute_queries(&design, &sigma);
        let out = MnDecoder::new(20).decode(&design, &y);
        assert_eq!(out.estimate, sigma);
    }

    #[test]
    #[should_panic(expected = "length must equal m")]
    fn wrong_y_length_panics() {
        let seeds = SeedSequence::new(16);
        let design = RandomRegularDesign::sample(50, 10, &seeds);
        let _ = MnDecoder::new(3).decode(&design, &[0u64; 9]);
    }

    #[test]
    fn fig1_example_decodes() {
        // With enough tiny queries on n=7, MN finds σ = (1,1,0,0,1,0,0).
        let sigma = Signal::from_dense(&[1, 1, 0, 0, 1, 0, 0]);
        let seeds = SeedSequence::new(17);
        let design = RandomRegularDesign::sample_with(7, 60, 3, &seeds);
        let y = execute_queries(&design, &sigma);
        let out = MnDecoder::new(3).decode(&design, &y);
        assert_eq!(out.estimate, sigma);
    }
}
