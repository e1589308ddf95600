//! The MN algorithm for arbitrary pool sizes and heterogeneous designs.
//!
//! [`crate::mn::MnDecoder`] hard-codes the paper's convention `Γ = n/2`,
//! where the centering term `Δ*_i·k/2` turns into the integer score
//! `2Ψ_i − k·Δ*_i`. For the pool-size ablation (`gamma_sweep`) and the
//! alternative design families (Bernoulli pools have *random* sizes) the
//! correct centering is per query: the expected contribution of query `q`
//! to `Ψ_i` under the null is `|a_q|·k/n`, so the score becomes
//!
//! ```text
//! score_i = n·Ψ_i − k·Σ_{q ∈ ∂*x_i} |a_q|        (exact, in i128)
//! ```
//!
//! where `|a_q|` is the number of draws of query `q` (with multiplicity).
//! For the regular design (`|a_q| = Γ` constant) this is `n·Ψ_i − kΓ·Δ*_i =
//! (n/2)·(2Ψ_i − k·Δ*_i)` at `Γ = n/2` — a positive multiple of the classic
//! score, so the two decoders rank identically (property-tested).
//!
//! The `k` winners come from the same selection as the classic decoder's,
//! `pooled_par::topk::top_k_into`, run on the exact `i128` scores.

use pooled_design::{distinct_sums_into, PoolingDesign};
use pooled_par::topk::top_k_into;

use crate::signal::Signal;
use crate::workspace::MnWorkspace;

/// MN decoding for designs with arbitrary (even per-query) pool sizes.
#[derive(Clone, Copy, Debug)]
pub struct GeneralMnDecoder {
    k: usize,
}

/// Output of the Γ-general decoder.
#[derive(Clone, Debug)]
pub struct GeneralMnOutput {
    /// The reconstructed signal (weight exactly `min(k, n)`).
    pub estimate: Signal,
    /// Exact integer scores `n·Ψ_i − k·Σ_{q∈∂*x_i}|a_q|`.
    pub scores: Vec<i128>,
    /// Neighborhood sums `Ψ_i` (distinct queries only).
    pub psi: Vec<u64>,
    /// Distinct-query degrees `Δ*_i`.
    pub delta_star: Vec<u64>,
}

impl GeneralMnDecoder {
    /// Decoder for signals of known (or upper-bounded) weight `k`.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// The target weight `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Run the Γ-general MN algorithm on the query results `y`.
    ///
    /// Thin wrapper over [`Self::decode_with`] on a fresh workspace.
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode<D: PoolingDesign + ?Sized>(&self, design: &D, y: &[u64]) -> GeneralMnOutput {
        let mut ws = MnWorkspace::new();
        self.decode_with(design, y, &mut ws);
        let n = design.n();
        GeneralMnOutput {
            estimate: ws.take_estimate_signal(n),
            scores: std::mem::take(&mut ws.scores_wide),
            psi: std::mem::take(&mut ws.psi),
            delta_star: std::mem::take(&mut ws.dstar),
        }
    }

    /// Workspace decode: identical results to [`Self::decode`] with all
    /// buffers (including the exact `i128` scores, read back via
    /// [`MnWorkspace::scores_wide`]) reused across calls.
    ///
    /// Both sums (`y`, and the design's [`PoolingDesign::pool_len`] as
    /// weights) come from `pooled_design::distinct_sums_into`: by popcount
    /// over the entry bitmap where a materialized design keeps one.
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
        let (psi, dstar) = ws.sums_mut();
        distinct_sums_into(design, y, psi, dstar);
        // Per-entry sum of neighbor pool sizes: the same kernel with the
        // pool sizes as the query weights (Δ* recomputed into scratch).
        ws.pool_lens.clear();
        ws.pool_lens.extend((0..design.m()).map(|q| design.pool_len(q) as u64));
        ws.gamma_sums.clear();
        ws.gamma_sums.resize(n, 0);
        ws.dstar_scratch.clear();
        ws.dstar_scratch.resize(n, 0);
        distinct_sums_into(design, &ws.pool_lens, &mut ws.gamma_sums, &mut ws.dstar_scratch);
        self.finish_with(n, ws);
    }

    /// Score `n·Ψ_i − k·Σ|a_q|` from the sums in `ws` and select the `k`
    /// best.
    fn finish_with(&self, n: usize, ws: &mut MnWorkspace) {
        let (n_i, k_i) = (n as i128, self.k as i128);
        ws.scores_wide.clear();
        ws.scores_wide.extend(
            ws.psi[..n]
                .iter()
                .zip(&ws.gamma_sums[..n])
                .map(|(&p, &g)| n_i * p as i128 - k_i * g as i128),
        );
        // The k best by (score desc, index asc), through the top-k heap
        // every decoder selects with.
        top_k_into(&ws.scores_wide, self.k, &mut ws.support, &mut ws.topk_wide);
        ws.mark_support();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mn::MnDecoder;
    use crate::query::execute_queries;
    use pooled_design::factory::DesignKind;
    use pooled_design::CsrDesign;
    use pooled_rng::SeedSequence;

    #[test]
    fn matches_classic_decoder_on_regular_design() {
        let seeds = SeedSequence::new(21);
        let n = 800;
        let sigma = Signal::random(n, 9, &mut seeds.child("signal", 0).rng());
        let design = CsrDesign::sample(n, 250, n / 2, &seeds.child("design", 0));
        let y = execute_queries(&design, &sigma);
        let classic = MnDecoder::new(9).decode(&design, &y);
        let general = GeneralMnDecoder::new(9).decode(&design, &y);
        assert_eq!(classic.estimate, general.estimate);
        // Scores are positive multiples of each other: identical ranking.
        let mut classic_rank: Vec<usize> = (0..n).collect();
        classic_rank.sort_by_key(|&i| (std::cmp::Reverse(classic.scores[i]), i));
        let mut general_rank: Vec<usize> = (0..n).collect();
        general_rank.sort_by_key(|&i| (std::cmp::Reverse(general.scores[i]), i));
        assert_eq!(classic_rank, general_rank);
    }

    #[test]
    fn recovers_with_large_pools() {
        // Pool fraction c = 1 (Γ = n, with replacement): the classic scorer
        // would mis-center, the general scorer handles it. m = 400 is
        // comfortably above the corrected d(1,θ)-threshold (≈ 235 at
        // n = 1000, θ = 0.3).
        let seeds = SeedSequence::new(22);
        let (n, k) = (1000, 8);
        let m = 400;
        let mut successes = 0;
        for trial in 0..10u64 {
            let s = seeds.child("trial", trial);
            let sigma = Signal::random(n, k, &mut s.child("signal", 0).rng());
            let design = CsrDesign::sample(n, m, n, &s.child("design", 0));
            let y = execute_queries(&design, &sigma);
            let out = GeneralMnDecoder::new(k).decode(&design, &y);
            if out.estimate == sigma {
                successes += 1;
            }
        }
        assert!(successes >= 8, "only {successes}/10 at Γ=n, m={m}");
    }

    #[test]
    fn smaller_pools_beat_full_pools_at_fixed_m() {
        // theory::gamma_opt's shift-corrected constant d_cor(c,θ) is
        // increasing in c, so at a fixed sub-threshold query budget the
        // paper's Γ = n/2 should beat Γ = n, and Γ = n/8 should not lose to
        // Γ = n/2 (±2 trials of sampling noise on 12 trials).
        let seeds = SeedSequence::new(27);
        let (n, k, m) = (1000, 8, 260);
        let (mut eighth, mut half, mut full) = (0i32, 0i32, 0i32);
        for trial in 0..12u64 {
            let s = seeds.child("trial", trial);
            let sigma = Signal::random(n, k, &mut s.child("signal", 0).rng());
            let ok = |gamma: usize| {
                let d = CsrDesign::sample(n, m, gamma, &s.child("design", gamma as u64));
                let y = execute_queries(&d, &sigma);
                (GeneralMnDecoder::new(k).decode(&d, &y).estimate == sigma) as i32
            };
            eighth += ok(n / 8);
            half += ok(n / 2);
            full += ok(n);
        }
        assert!(half >= full, "Γ=n/2: {half}/12 vs Γ=n: {full}/12");
        assert!(eighth + 2 >= half, "Γ=n/8: {eighth}/12 vs Γ=n/2: {half}/12");
    }

    #[test]
    fn recovers_on_every_design_family() {
        let seeds = SeedSequence::new(23);
        let (n, k, m) = (1000, 8, 420);
        for kind in DesignKind::ALL {
            let mut successes = 0;
            for trial in 0..6u64 {
                let s = seeds.child(kind.name(), trial);
                let sigma = Signal::random(n, k, &mut s.child("signal", 0).rng());
                let design = kind.sample(n, m, 0.5, &s.child("design", 0));
                let y = execute_queries(&design, &sigma);
                let out = GeneralMnDecoder::new(k).decode(&design, &y);
                if out.estimate == sigma {
                    successes += 1;
                }
            }
            assert!(successes >= 5, "{}: {successes}/6 recoveries", kind.name());
        }
    }

    #[test]
    fn estimate_weight_is_min_k_n() {
        let seeds = SeedSequence::new(24);
        let design = CsrDesign::sample(30, 20, 15, &seeds);
        let sigma = Signal::random(30, 5, &mut seeds.child("signal", 0).rng());
        let y = execute_queries(&design, &sigma);
        assert_eq!(GeneralMnDecoder::new(5).decode(&design, &y).estimate.weight(), 5);
        assert_eq!(GeneralMnDecoder::new(40).decode(&design, &y).estimate.weight(), 30);
    }

    #[test]
    fn streaming_design_decodes_identically_to_csr() {
        use pooled_design::StreamingDesign;
        let seeds = SeedSequence::new(28);
        let n = 400;
        let sigma = Signal::random(n, 6, &mut seeds.child("signal", 0).rng());
        let stream = StreamingDesign::new(n, 120, n / 2, &seeds.child("design", 0));
        let csr = stream.materialize();
        let y = execute_queries(&csr, &sigma);
        let a = GeneralMnDecoder::new(6).decode(&stream, &y);
        let b = GeneralMnDecoder::new(6).decode(&csr, &y);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    #[should_panic(expected = "length must equal m")]
    fn wrong_y_length_panics() {
        let seeds = SeedSequence::new(25);
        let design = CsrDesign::sample(20, 5, 10, &seeds);
        let _ = GeneralMnDecoder::new(2).decode(&design, &[0u64; 4]);
    }

    #[test]
    fn zero_scores_for_zero_results() {
        // All-zero y with nonzero pools: score = −k·Σ|a_q| ≤ 0, Ψ = 0.
        let seeds = SeedSequence::new(26);
        let design = CsrDesign::sample(40, 8, 20, &seeds);
        let y = vec![0u64; 8];
        let out = GeneralMnDecoder::new(3).decode(&design, &y);
        assert!(out.psi.iter().all(|&p| p == 0));
        assert!(out.scores.iter().all(|&s| s <= 0));
    }
}
