//! Disagreement-guided local search for threshold estimates.
//!
//! The one-bit analogue of `pooled_core::refine`: starting from the
//! Threshold-MN estimate, greedily swap a weak in-support entry for a
//! strong out-of-support entry whenever the swap reduces the number of
//! queries whose observed bit disagrees with the bit implied by the
//! estimate's pool loads. Stops at zero disagreements (a consistent
//! estimate) or a local minimum.
//!
//! Each bit constrains far less than an exact count, so consistency is a
//! weaker certificate than in the additive model — the `threshold_gt`
//! experiment's refined column measures how much working range the search
//! still buys.

use rayon::prelude::*;

use pooled_core::Signal;
use pooled_design::csr::CsrDesign;
use pooled_design::PoolingDesign;

use crate::channel::pool_loads;

/// Tuning knobs for the bit-level local search.
#[derive(Clone, Copy, Debug)]
pub struct BitRefineConfig {
    /// Candidates per side (weakest in-support × strongest out-of-support).
    pub window: usize,
    /// Hard cap on applied swaps.
    pub max_swaps: usize,
}

impl Default for BitRefineConfig {
    fn default() -> Self {
        Self { window: 24, max_swaps: 256 }
    }
}

/// Result of the bit-level refinement.
#[derive(Clone, Debug)]
pub struct BitRefineOutput {
    /// The (possibly improved) estimate; weight equals the input weight.
    pub estimate: Signal,
    /// Disagreeing queries before refinement.
    pub initial_disagreements: usize,
    /// Disagreeing queries after refinement.
    pub final_disagreements: usize,
    /// Swaps applied.
    pub swaps: usize,
    /// Whether every query's implied bit matches the observed bit.
    pub consistent: bool,
}

/// Greedily swap support entries to reduce observed-vs-implied bit
/// disagreements at threshold `t`.
///
/// `scores` shortlist the candidates (`ThresholdOutput::scores`); they
/// steer the search only — correctness comes from exact disagreement
/// recomputation per candidate pair.
///
/// # Panics
/// Panics if `bits`, `scores`, or `estimate` disagree with the design's
/// dimensions.
pub fn refine_bits(
    design: &CsrDesign,
    bits: &[u8],
    t: u64,
    scores: &[i64],
    estimate: &Signal,
    cfg: &BitRefineConfig,
) -> BitRefineOutput {
    assert_eq!(bits.len(), design.m(), "bit vector length must equal m");
    assert_eq!(scores.len(), design.n(), "score vector length must equal n");
    assert_eq!(estimate.n(), design.n(), "estimate length must equal n");
    let n = design.n();
    let mut loads = pool_loads(design, estimate);
    let disagree = |load: u64, q: usize| (u8::from(load >= t) != bits[q]) as i64;
    let mut total: i64 = loads.iter().enumerate().map(|(q, &l)| disagree(l, q)).sum();
    let initial = total as usize;
    let mut dense = estimate.dense().to_vec();
    let mut swaps = 0usize;

    while total > 0 && swaps < cfg.max_swaps {
        let mut ins: Vec<usize> = (0..n).filter(|&i| dense[i] == 1).collect();
        let mut outs: Vec<usize> = (0..n).filter(|&i| dense[i] == 0).collect();
        if ins.is_empty() || outs.is_empty() {
            break;
        }
        ins.sort_by_key(|&i| (scores[i], i));
        outs.sort_by_key(|&i| (std::cmp::Reverse(scores[i]), i));
        ins.truncate(cfg.window);
        outs.truncate(cfg.window);
        let pairs: Vec<(usize, usize)> =
            ins.iter().flat_map(|&i| outs.iter().map(move |&j| (i, j))).collect();
        let best = pairs
            .par_iter()
            .map(|&(i, j)| (swap_delta(design, &loads, bits, t, i, j), i, j))
            .min_by_key(|&(d, i, j)| (d, i, j))
            .expect("candidate set is nonempty");
        let (delta, i, j) = best;
        if delta >= 0 {
            break;
        }
        for &q in design.entry_row(i).0 {
            loads[q as usize] -= 1;
        }
        for &q in design.entry_row(j).0 {
            loads[q as usize] += 1;
        }
        dense[i] = 0;
        dense[j] = 1;
        total += delta;
        swaps += 1;
    }

    BitRefineOutput {
        estimate: Signal::from_dense(&dense),
        initial_disagreements: initial,
        final_disagreements: total as usize,
        swaps,
        consistent: total == 0,
    }
}

/// Exact change in disagreements if `i` leaves the support and `j` joins:
/// loads change by −1 on `∂*x_i`, +1 on `∂*x_j` (distinct membership; a
/// pool member counts once regardless of multi-edges).
fn swap_delta(design: &CsrDesign, loads: &[u64], bits: &[u8], t: u64, i: usize, j: usize) -> i64 {
    let (qi, _) = design.entry_row(i);
    let (qj, _) = design.entry_row(j);
    let eval = |q: u32, load_delta: i64| -> i64 {
        let q = q as usize;
        let old = loads[q];
        let new = old.saturating_add_signed(load_delta);
        let old_bad = (u8::from(old >= t) != bits[q]) as i64;
        let new_bad = (u8::from(new >= t) != bits[q]) as i64;
        new_bad - old_bad
    };
    let mut delta = 0i64;
    let (mut a, mut b) = (0usize, 0usize);
    while a < qi.len() || b < qj.len() {
        match (qi.get(a), qj.get(b)) {
            (Some(&x), Some(&y)) if x == y => {
                a += 1;
                b += 1; // load unchanged: −1 + 1
            }
            (Some(&x), Some(&y)) if x < y => {
                delta += eval(x, -1);
                a += 1;
            }
            (Some(_), Some(&y)) => {
                delta += eval(y, 1);
                b += 1;
            }
            (Some(&x), None) => {
                delta += eval(x, -1);
                a += 1;
            }
            (None, Some(&y)) => {
                delta += eval(y, 1);
                b += 1;
            }
            (None, None) => unreachable!("loop guard"),
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ThresholdChannel;
    use crate::decoder::ThresholdMnDecoder;
    use pooled_rng::SeedSequence;
    use pooled_theory::threshold_gt::recommended_gamma;

    fn setup(n: usize, k: usize, t: u64, m: usize, seed: u64) -> (Signal, CsrDesign, Vec<u8>) {
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let (gamma, _) = recommended_gamma(n, k, t);
        // Materialize a without-replacement design as CSR pools.
        let design = pooled_design::noreplace::sample(n, m, gamma, &seeds.child("design", 0));
        let bits = ThresholdChannel::new(t).execute(&design, &sigma);
        (sigma, design, bits)
    }

    #[test]
    fn consistent_estimate_is_left_untouched() {
        let (sigma, design, bits) = setup(500, 6, 2, 600, 1);
        let out = ThresholdMnDecoder::new(6).decode(&design, &bits);
        assert_eq!(out.estimate, sigma, "pick m high enough for this test");
        let r = refine_bits(&design, &bits, 2, &out.scores, &out.estimate, &Default::default());
        assert!(r.consistent);
        assert_eq!(r.swaps, 0);
        assert_eq!(r.initial_disagreements, 0);
    }

    #[test]
    fn fixes_a_planted_single_swap_error() {
        let (sigma, design, bits) = setup(500, 8, 2, 700, 2);
        let mut dense = sigma.dense().to_vec();
        let out_i = sigma.support()[2];
        let in_j = (0..500).find(|&i| dense[i] == 0).unwrap();
        dense[out_i] = 0;
        dense[in_j] = 1;
        let corrupted = Signal::from_dense(&dense);
        let scores = ThresholdMnDecoder::new(8).decode(&design, &bits).scores;
        let r = refine_bits(&design, &bits, 2, &scores, &corrupted, &Default::default());
        assert_eq!(r.estimate, sigma, "one swap should repair the plant");
        assert_eq!(r.swaps, 1);
    }

    #[test]
    fn never_increases_disagreements() {
        for seed in 10..16 {
            let (_, design, bits) = setup(600, 8, 2, 120, seed);
            let out = ThresholdMnDecoder::new(8).decode(&design, &bits);
            let r = refine_bits(&design, &bits, 2, &out.scores, &out.estimate, &Default::default());
            assert!(r.final_disagreements <= r.initial_disagreements, "seed {seed}");
        }
    }

    #[test]
    fn improves_success_below_threshold() {
        let (n, k, t, m) = (800usize, 7usize, 2u64, 190usize);
        let (mut plain_ok, mut refined_ok) = (0, 0);
        for seed in 20..40 {
            let (sigma, design, bits) = setup(n, k, t, m, seed);
            let out = ThresholdMnDecoder::new(k).decode(&design, &bits);
            let r = refine_bits(&design, &bits, t, &out.scores, &out.estimate, &Default::default());
            plain_ok += (out.estimate == sigma) as u32;
            refined_ok += (r.estimate == sigma) as u32;
        }
        assert!(refined_ok >= plain_ok, "refined {refined_ok}/20 below plain {plain_ok}/20");
    }

    #[test]
    fn weight_and_determinism() {
        let (_, design, bits) = setup(400, 5, 2, 100, 50);
        let out = ThresholdMnDecoder::new(5).decode(&design, &bits);
        let a = refine_bits(&design, &bits, 2, &out.scores, &out.estimate, &Default::default());
        let b = refine_bits(&design, &bits, 2, &out.scores, &out.estimate, &Default::default());
        assert_eq!(a.estimate.weight(), 5);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.swaps, b.swaps);
    }

    #[test]
    fn consistency_flag_matches_report() {
        use crate::verify::consistency_report;
        for seed in 60..66 {
            let (_, design, bits) = setup(500, 6, 2, 260, seed);
            let out = ThresholdMnDecoder::new(6).decode(&design, &bits);
            let r = refine_bits(&design, &bits, 2, &out.scores, &out.estimate, &Default::default());
            let rep = consistency_report(&design, &bits, &r.estimate, 2);
            assert_eq!(r.consistent, rep.is_consistent(), "seed {seed}");
            assert_eq!(
                r.final_disagreements,
                rep.missed_positives + rep.false_positives,
                "seed {seed}"
            );
        }
    }
}
