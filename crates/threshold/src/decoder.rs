//! The Threshold-MN decoder: the paper's Algorithm 1 transferred to the
//! one-bit threshold channel.
//!
//! For each entry `i` let `Ψ⁺_i` be the number of *positive* distinct
//! queries containing it and `Δ*_i` its distinct-query degree. Conditioned
//! on membership, a query is positive with probability `p1` for one-entries
//! and `p0 < p1` for zero-entries ([`pooled_theory::threshold_gt`]), so the
//! positive *fraction* `Ψ⁺_i/Δ*_i` concentrates on `p1` or `p0` and ranking
//! by it recovers the support once the degrees are large enough — the same
//! thresholding argument as Corollary 6 with separation `p1 − p0`.
//!
//! The degree-normalized comparison is evaluated in exact integers as
//! `score_i = m·Ψ⁺_i − P·Δ*_i` where `P = Σ_q bit_q` (subtracting the
//! global positive rate removes the common drift, and cross-multiplying by
//! `m` clears the fraction), so ranking has no float ties.

use pooled_core::workspace::{scoring_visitor, MnWorkspace};
use pooled_core::Signal;
use pooled_design::{distinct_sums_visit, PoolingDesign};

/// Decoder configuration: the target support size.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdMnDecoder {
    k: usize,
}

/// Decoder output: the estimate plus the per-entry evidence.
#[derive(Clone, Debug)]
pub struct ThresholdOutput {
    /// The reconstructed signal (weight exactly `min(k, n)`).
    pub estimate: Signal,
    /// Integer scores `m·Ψ⁺_i − P·Δ*_i`.
    pub scores: Vec<i64>,
    /// Positive-neighborhood counts `Ψ⁺_i`.
    pub psi_pos: Vec<u64>,
    /// Distinct-query degrees `Δ*_i`.
    pub delta_star: Vec<u64>,
}

impl ThresholdMnDecoder {
    /// Decoder for signals of known (or upper-bounded) weight `k`.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// The target weight `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Decode the threshold bits `bits` (one per query).
    ///
    /// Thin wrapper over [`Self::decode_with`] on a fresh workspace.
    ///
    /// # Panics
    /// Panics if `bits.len() != design.m()` or any bit exceeds 1.
    pub fn decode<D: PoolingDesign + ?Sized>(&self, design: &D, bits: &[u8]) -> ThresholdOutput {
        assert_eq!(bits.len(), design.m(), "bit vector length must equal m");
        let weights: Vec<u64> = bits
            .iter()
            .map(|&b| {
                assert!(b <= 1, "threshold bits must be 0 or 1, got {b}");
                b as u64
            })
            .collect();
        let mut ws = MnWorkspace::new();
        self.decode_with(design, &weights, &mut ws);
        ThresholdOutput {
            estimate: Signal::from_support(design.n(), ws.support().to_vec()),
            scores: ws.scores().to_vec(),
            psi_pos: ws.psi().to_vec(),
            delta_star: ws.delta_star().to_vec(),
        }
    }

    /// Workspace decode: identical results to [`Self::decode`], with Ψ⁺,
    /// Δ*, the scores and the support written into `ws` and read back
    /// through its accessors. The support is ascending, as in
    /// [`ThresholdOutput::estimate`]. `bits` are the 0/1 outcomes as `u64`
    /// weights for `pooled_design::distinct_sums_visit`, so on a design
    /// with an entry bitmap Ψ⁺ costs one popcount plane. Allocation-free
    /// after warm-up on a materialized design.
    ///
    /// # Panics
    /// Panics if `bits.len() != design.m()` or any bit exceeds 1.
    pub fn decode_with<D: PoolingDesign + ?Sized>(
        &self,
        design: &D,
        bits: &[u64],
        ws: &mut MnWorkspace,
    ) {
        self.decode_observed(design, bits, ws, |_| {});
    }

    /// [`Self::decode_with`], passing each entry's score to `observe`, in
    /// ascending entry order. `P` is counted first; then one pass scores
    /// each entry `m·Ψ⁺_i − P·Δ*_i`, stores it, offers it to the selection
    /// and observes it as soon as the sum kernel finishes its sums, and
    /// the selected support is sorted ascending after it.
    ///
    /// # Panics
    /// Panics if `bits.len() != design.m()` or any bit exceeds 1.
    pub fn decode_observed<D: PoolingDesign + ?Sized>(
        &self,
        design: &D,
        bits: &[u64],
        ws: &mut MnWorkspace,
        observe: impl FnMut(i64),
    ) {
        assert_eq!(bits.len(), design.m(), "bit vector length must equal m");
        assert!(bits.iter().all(|&b| b <= 1), "threshold bits must be 0 or 1");
        let m = bits.len() as i64;
        let positives = bits.iter().sum::<u64>() as i64;
        ws.prepare(design.n());
        let (psi_pos, delta_star, scores, topk) = ws.pass_mut(self.k);
        let score = move |_, p: u64, d: u64| m * p as i64 - positives * d as i64;
        let visit = scoring_visitor(scores, topk, score, observe);
        distinct_sums_visit(design, bits, psi_pos, delta_star, visit);
        ws.finish_selection();
        ws.sort_support();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ThresholdChannel;
    use crate::design_choice::recommended_design;
    use pooled_rng::SeedSequence;
    use pooled_theory::threshold_gt::{m_threshold_estimate, recommended_gamma};

    fn run(n: usize, k: usize, t: u64, m: usize, seed: u64) -> (Signal, ThresholdOutput) {
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let design = recommended_design(n, k, t, m, &seeds.child("design", 0));
        let bits = ThresholdChannel::new(t).execute(&design, &sigma);
        let out = ThresholdMnDecoder::new(k).decode(&design, &bits);
        (sigma, out)
    }

    #[test]
    fn recovers_at_t1_binary_group_testing() {
        let (n, k, t) = (1000usize, 8usize, 1u64);
        let (g, _) = recommended_gamma(n, k, t);
        let m = (1.2 * m_threshold_estimate(n, k, g, t)).ceil() as usize;
        let mut ok = 0;
        for seed in 0..10 {
            let (sigma, out) = run(n, k, t, m, seed);
            ok += (out.estimate == sigma) as u32;
        }
        assert!(ok >= 8, "only {ok}/10 at T=1, m={m}");
    }

    #[test]
    fn recovers_at_higher_thresholds() {
        for t in [2u64, 4] {
            let (n, k) = (800usize, 10usize);
            let (g, _) = recommended_gamma(n, k, t);
            let m = (1.2 * m_threshold_estimate(n, k, g, t)).ceil() as usize;
            let mut ok = 0;
            for seed in 0..8 {
                let (sigma, out) = run(n, k, t, m, 50 + seed);
                ok += (out.estimate == sigma) as u32;
            }
            assert!(ok >= 6, "only {ok}/8 at T={t}, m={m}");
        }
    }

    #[test]
    fn fails_with_too_few_queries() {
        let mut ok = 0;
        for seed in 0..8 {
            let (sigma, out) = run(1000, 8, 2, 12, 100 + seed);
            ok += (out.estimate == sigma) as u32;
        }
        assert!(ok <= 1, "{ok} lucky recoveries at m=12");
    }

    #[test]
    fn one_entries_outscore_zero_entries_on_average() {
        let (sigma, out) = run(600, 6, 2, 500, 7);
        let avg = |keep: &dyn Fn(usize) -> bool| {
            let v: Vec<f64> = (0..600).filter(|&i| keep(i)).map(|i| out.scores[i] as f64).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let one = avg(&|i| sigma.is_one(i));
        let zero = avg(&|i| !sigma.is_one(i));
        assert!(one > zero, "one-avg {one} ≤ zero-avg {zero}");
    }

    #[test]
    fn estimate_weight_is_k() {
        let (_, out) = run(300, 5, 2, 200, 9);
        assert_eq!(out.estimate.weight(), 5);
    }

    #[test]
    fn all_negative_bits_give_nonpositive_scores() {
        let seeds = SeedSequence::new(10);
        let design = recommended_design(200, 4, 2, 50, &seeds);
        let bits = vec![0u8; 50];
        let out = ThresholdMnDecoder::new(4).decode(&design, &bits);
        assert!(out.scores.iter().all(|&s| s == 0), "P=0 makes every score 0");
        assert!(out.psi_pos.iter().all(|&p| p == 0));
    }

    #[test]
    #[should_panic(expected = "must be 0 or 1")]
    fn rejects_non_binary_bits() {
        let seeds = SeedSequence::new(11);
        let design = recommended_design(100, 4, 2, 20, &seeds);
        let _ = ThresholdMnDecoder::new(4).decode(&design, &[2u8; 20]);
    }

    #[test]
    #[should_panic(expected = "length must equal m")]
    fn rejects_wrong_length() {
        let seeds = SeedSequence::new(12);
        let design = recommended_design(100, 4, 2, 20, &seeds);
        let _ = ThresholdMnDecoder::new(4).decode(&design, &[0u8; 19]);
    }
}
