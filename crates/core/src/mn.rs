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
//! * Two accumulation strategies ([`DecodeStrategy`]): query-parallel
//!   atomic *scatter* (works for any design) and entry-parallel *gather*
//!   over the materialized design (no atomics; by popcount over the entry
//!   bitmap where the design keeps one). Identical results.
//! * Two selection paths ([`SelectionMethod`]): the faithful full
//!   parallel sort of Algorithm 1 and an `O(n log k)` parallel top-k
//!   selection. Identical results (deterministic tie-break by index).

use pooled_design::csr::CsrDesign;
use pooled_design::fused::scatter_distinct_into;
use pooled_design::{PoolingDesign, RandomRegularDesign};
use pooled_par::sort::par_merge_sort_with;

use crate::signal::Signal;
use crate::workspace::MnWorkspace;

/// How Ψ and Δ* are accumulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DecodeStrategy {
    /// Pick gather when the design is materialized, scatter otherwise.
    #[default]
    Auto,
    /// Query-parallel atomic scatter-add (any design).
    Scatter,
    /// Entry-parallel gather (materialized only; falls back to scatter for
    /// streaming designs) through `CsrDesign::gather_distinct_into`: by
    /// popcount over the entry bitmap when the design keeps one (distinct
    /// density ≥ 1/32) and `y` has few enough mixed bit-planes, else over
    /// the transpose's query indices. At n = 10⁴, m = 862 the popcount
    /// reads a 1.1 MiB bitmap where the index gather streams 13.6 MB, and
    /// the serving engine's median `single_large` job (k = 16, 2-vCPU Xeon
    /// VM) went from 1.49 ms to 0.54 ms of service time.
    Gather,
}

/// How the k best scores are selected (Lines 7–9 of Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionMethod {
    /// Parallel top-k selection, `O(n log k)` — the default.
    #[default]
    TopK,
    /// Faithful full parallel sort of all `n` scores, `O(n log n)`.
    FullSort,
}

/// Decoder configuration.
#[derive(Clone, Copy, Debug)]
pub struct MnDecoder {
    k: usize,
    strategy: DecodeStrategy,
    selection: SelectionMethod,
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
        Self { k, strategy: DecodeStrategy::Auto, selection: SelectionMethod::TopK }
    }

    /// Select the Ψ/Δ* accumulation strategy.
    pub fn with_strategy(mut self, strategy: DecodeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Select the top-k selection method.
    pub fn with_selection(mut self, selection: SelectionMethod) -> Self {
        self.selection = selection;
        self
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
        ws_into_output(design.n(), ws)
    }

    /// Workspace decode: identical results to [`Self::decode`], but every
    /// buffer (Ψ, Δ*, scores, selection scratch, estimate) lives in `ws`
    /// and is reused across calls. With one rayon worker installed, this
    /// path performs zero heap allocations after warm-up.
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode_with<D: PoolingDesign + ?Sized>(
        &self,
        design: &D,
        y: &[u64],
        ws: &mut MnWorkspace,
    ) {
        assert_eq!(y.len(), design.m(), "result vector length must equal m");
        let n = design.n();
        ws.prepare(n);
        let (psi, dstar, arena) = ws.sums_mut();
        scatter_distinct_into(design, y, psi, dstar, arena);
        self.finish_with(n, ws);
    }

    /// Gather-path decode for materialized designs (no atomics; popcount
    /// over the entry bitmap where the design keeps one).
    pub fn decode_csr(&self, design: &CsrDesign, y: &[u64]) -> MnOutput {
        let mut ws = MnWorkspace::new();
        self.decode_csr_with(design, y, &mut ws);
        ws_into_output(design.n(), ws)
    }

    /// Workspace variant of [`Self::decode_csr`].
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode_csr_with(&self, design: &CsrDesign, y: &[u64], ws: &mut MnWorkspace) {
        assert_eq!(y.len(), design.m(), "result vector length must equal m");
        let n = design.n();
        ws.prepare(n);
        design.gather_distinct_into(y, &mut ws.psi, &mut ws.dstar);
        self.finish_with(n, ws);
    }

    /// Strategy-dispatching decode for the wrapper design type.
    pub fn decode_design(&self, design: &RandomRegularDesign, y: &[u64]) -> MnOutput {
        let mut ws = MnWorkspace::new();
        self.decode_design_with(design, y, &mut ws);
        ws_into_output(design.n(), ws)
    }

    /// Workspace variant of [`Self::decode_design`].
    pub fn decode_design_with(
        &self,
        design: &RandomRegularDesign,
        y: &[u64],
        ws: &mut MnWorkspace,
    ) {
        match (self.strategy, design) {
            (DecodeStrategy::Scatter, _) => self.decode_with(design, y, ws),
            (DecodeStrategy::Gather | DecodeStrategy::Auto, RandomRegularDesign::Csr(c)) => {
                self.decode_csr_with(c, y, ws)
            }
            (_, d) => self.decode_with(d, y, ws),
        }
    }

    /// Complete Algorithm 1 (scores + selection + estimate) from the Ψ/Δ*
    /// sums already accumulated in `ws` — the entry point for external
    /// accumulation kernels like `pooled_design::fused::decode_sums_fused`.
    ///
    /// # Panics
    /// Panics if `ws` was not prepared for exactly this `n` (a stale
    /// workspace would otherwise decode over leftover prefix sums).
    pub fn finish_with(&self, n: usize, ws: &mut MnWorkspace) {
        assert_eq!(ws.n(), n, "workspace not prepared for this n");
        let k64 = self.k as i64;
        let scores = &mut ws.scores[..n];
        for ((score, &p), &d) in scores.iter_mut().zip(&ws.psi[..n]).zip(&ws.dstar[..n]) {
            *score = 2 * p as i64 - k64 * d as i64;
        }
        self.select_with(n, ws);
    }

    /// Lines 7–9 of Algorithm 1 over `ws.scores`: selection + estimate.
    fn select_with(&self, n: usize, ws: &mut MnWorkspace) {
        match self.selection {
            SelectionMethod::TopK => ws.select_top_k(self.k),
            SelectionMethod::FullSort => {
                ws.order.clear();
                ws.order.extend(ws.scores[..n].iter().enumerate().map(|(i, &s)| (s, i as u32)));
                par_merge_sort_with(&mut ws.order, &mut ws.order_scratch, |&(s, i)| {
                    (std::cmp::Reverse(s), i)
                });
                ws.order.truncate(self.k.min(n));
                ws.support.clear();
                ws.support.extend(ws.order.iter().map(|&(_, i)| i as usize));
                ws.mark_support();
            }
        }
    }
}

/// Move a decoded workspace's buffers into the allocating output type.
fn ws_into_output(n: usize, mut ws: MnWorkspace) -> MnOutput {
    MnOutput {
        estimate: ws.take_estimate_signal(n),
        scores: std::mem::take(&mut ws.scores),
        psi: std::mem::take(&mut ws.psi),
        delta_star: std::mem::take(&mut ws.dstar),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::execute_queries;
    use pooled_design::multigraph::StorageMode;
    use pooled_rng::SeedSequence;
    use pooled_theory::thresholds::{k_of, m_mn_finite};

    /// End-to-end helper: sample, execute, decode, compare.
    fn run(n: usize, k: usize, m: usize, seed: u64) -> (Signal, MnOutput) {
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
        let y = execute_queries(&design, &sigma);
        let out = MnDecoder::new(k).decode_design(&design, &y);
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
    fn strategies_agree() {
        let seeds = SeedSequence::new(9);
        let n = 600;
        let sigma = Signal::random(n, 10, &mut seeds.child("signal", 0).rng());
        let design = RandomRegularDesign::sample_with(
            n,
            300,
            n / 2,
            &seeds.child("design", 0),
            StorageMode::Materialized,
        );
        let y = execute_queries(&design, &sigma);
        let dec = MnDecoder::new(10);
        let a = dec.with_strategy(DecodeStrategy::Scatter).decode_design(&design, &y);
        let b = dec.with_strategy(DecodeStrategy::Gather).decode_design(&design, &y);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn selection_methods_agree() {
        let seeds = SeedSequence::new(10);
        let n = 800;
        let sigma = Signal::random(n, 12, &mut seeds.child("signal", 0).rng());
        let design = RandomRegularDesign::sample(n, 200, &seeds.child("design", 0));
        let y = execute_queries(&design, &sigma);
        let a = MnDecoder::new(12).with_selection(SelectionMethod::TopK).decode_design(&design, &y);
        let b =
            MnDecoder::new(12).with_selection(SelectionMethod::FullSort).decode_design(&design, &y);
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn streaming_and_csr_designs_decode_identically() {
        let seeds = SeedSequence::new(11);
        let n = 400;
        let sigma = Signal::random(n, 6, &mut seeds.child("signal", 0).rng());
        let csr = RandomRegularDesign::sample_with(
            n,
            150,
            n / 2,
            &seeds.child("design", 0),
            StorageMode::Materialized,
        );
        let stream = RandomRegularDesign::sample_with(
            n,
            150,
            n / 2,
            &seeds.child("design", 0),
            StorageMode::Streaming,
        );
        let y_c = execute_queries(&csr, &sigma);
        let y_s = execute_queries(&stream, &sigma);
        assert_eq!(y_c, y_s);
        let a = MnDecoder::new(6).decode_design(&csr, &y_c);
        let b = MnDecoder::new(6).decode_design(&stream, &y_s);
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
        let out = MnDecoder::new(5).decode_design(&design, &y);
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
        let out = MnDecoder::new(0).decode_design(&design, &y);
        assert_eq!(out.estimate.weight(), 0);
    }

    #[test]
    fn k_equal_n_returns_all_ones() {
        let seeds = SeedSequence::new(15);
        let design = RandomRegularDesign::sample(20, 10, &seeds);
        let sigma = Signal::from_dense(&[1u8; 20]);
        let y = execute_queries(&design, &sigma);
        let out = MnDecoder::new(20).decode_design(&design, &y);
        assert_eq!(out.estimate, sigma);
    }

    #[test]
    #[should_panic(expected = "length must equal m")]
    fn wrong_y_length_panics() {
        let seeds = SeedSequence::new(16);
        let design = RandomRegularDesign::sample(50, 10, &seeds);
        let _ = MnDecoder::new(3).decode_design(&design, &[0u64; 9]);
    }

    #[test]
    fn fig1_example_decodes() {
        // With enough tiny queries on n=7, MN finds σ = (1,1,0,0,1,0,0).
        let sigma = Signal::from_dense(&[1, 1, 0, 0, 1, 0, 0]);
        let seeds = SeedSequence::new(17);
        let design = RandomRegularDesign::sample_with(7, 60, 3, &seeds, StorageMode::Materialized);
        let y = execute_queries(&design, &sigma);
        let out = MnDecoder::new(3).decode_design(&design, &y);
        assert_eq!(out.estimate, sigma);
    }
}
