//! The Subset Select relaxation (Feige & Lellouche, discussed in §I-B).
//!
//! Instead of demanding the full support, Subset Select asks for a set of
//! entries that are *all* correct (a high-precision subset of the
//! one-entries). The MN scores support this directly: Corollary 6 shows
//! one- and zero-entry scores separate by `≈ (1−2α)·m/2`, so entries whose
//! score clears a margin above the bulk are one-entries with overwhelming
//! probability — even at query counts where full recovery still fails
//! (visible in Fig. 4: overlap ≈ 0.99 well before success rate reaches 1).

use crate::mn::MnOutput;
use crate::signal::Signal;

/// Configuration for the high-confidence subset extraction.
#[derive(Clone, Copy, Debug)]
pub struct SubsetSelectDecoder {
    /// Signal weight bound `k` (as in the MN decoder).
    pub k: usize,
    /// Margin in units of the score interquartile scale; larger = more
    /// conservative subsets.
    pub margin: f64,
}

/// A high-confidence subset of one-entries.
#[derive(Clone, Debug)]
pub struct SubsetOutput {
    /// Selected entries (sorted). All are claimed to be one-entries.
    pub selected: Vec<usize>,
    /// The score cut-off actually used.
    pub cutoff: i64,
}

impl SubsetSelectDecoder {
    /// Decoder returning at most `k` entries with margin 1.0 (balanced).
    pub fn new(k: usize) -> Self {
        Self { k, margin: 1.0 }
    }

    /// Adjust the confidence margin.
    pub fn with_margin(mut self, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative");
        self.margin = margin;
        self
    }

    /// Extract the confident subset from an MN decode.
    ///
    /// The cut-off sits `margin` gap-widths above the (n−k)-th largest
    /// score (the top of the zero-entry bulk under perfect separation):
    /// entries above it are kept, capped at `k`.
    pub fn extract(&self, out: &MnOutput) -> SubsetOutput {
        let n = out.scores.len();
        if n == 0 || self.k == 0 {
            return SubsetOutput { selected: Vec::new(), cutoff: i64::MAX };
        }
        let k = self.k.min(n);
        // Rank scores descending (small k ⇒ cheap partial sort).
        let ranked = pooled_par::topk::top_k_indices(&out.scores, (2 * k).min(n));
        let kth = out.scores[ranked[k - 1]];
        // Bulk top: best score *outside* the top-k.
        let bulk_top = if ranked.len() > k { out.scores[ranked[k]] } else { i64::MIN / 2 };
        let gap = (kth - bulk_top).max(0);
        let cutoff = bulk_top + ((self.margin * gap as f64).ceil() as i64).max(1);
        let mut selected: Vec<usize> =
            ranked.iter().take(k).copied().filter(|&i| out.scores[i] >= cutoff).collect();
        selected.sort_unstable();
        SubsetOutput { selected, cutoff }
    }

    /// Precision of a subset against the ground truth (1.0 when empty).
    pub fn precision(truth: &Signal, subset: &SubsetOutput) -> f64 {
        if subset.selected.is_empty() {
            return 1.0;
        }
        let correct = subset.selected.iter().filter(|&&i| truth.is_one(i)).count();
        correct as f64 / subset.selected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mn::MnDecoder;
    use crate::query::execute_queries;
    use pooled_design::multigraph::RandomRegularDesign;
    use pooled_rng::SeedSequence;
    use pooled_theory::thresholds::m_mn_finite;

    fn run(n: usize, k: usize, m: usize, seed: u64) -> (Signal, MnOutput) {
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
        let y = execute_queries(&design, &sigma);
        (sigma, MnDecoder::new(k).decode(&design, &y))
    }

    #[test]
    fn well_separated_scores_select_full_support() {
        let n = 1000;
        let k = 8;
        let m = (1.8 * m_mn_finite(n, 0.3)).ceil() as usize;
        let (sigma, out) = run(n, k, m, 1);
        let subset = SubsetSelectDecoder::new(k).extract(&out);
        assert_eq!(SubsetSelectDecoder::precision(&sigma, &subset), 1.0);
        assert_eq!(subset.selected, sigma.support());
    }

    #[test]
    fn subset_is_high_precision_below_full_recovery() {
        // At ~0.75·m_MN full recovery is unreliable, yet the confident
        // subset should stay precise on average.
        let n = 1000;
        let k = 8;
        let m = (0.75 * m_mn_finite(n, 0.3)).ceil() as usize;
        let mut prec_sum = 0.0;
        let mut count = 0;
        for seed in 0..8 {
            let (sigma, out) = run(n, k, m, 100 + seed);
            let subset = SubsetSelectDecoder::new(k).with_margin(1.5).extract(&out);
            if !subset.selected.is_empty() {
                prec_sum += SubsetSelectDecoder::precision(&sigma, &subset);
                count += 1;
            }
        }
        assert!(count > 0, "margin too conservative: all subsets empty");
        let avg = prec_sum / count as f64;
        assert!(avg > 0.9, "average subset precision {avg}");
    }

    #[test]
    fn never_selects_more_than_k() {
        let (_, out) = run(500, 6, 100, 2);
        let subset = SubsetSelectDecoder::new(6).extract(&out);
        assert!(subset.selected.len() <= 6);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let (_, out) = run(100, 3, 30, 3);
        let subset = SubsetSelectDecoder::new(0).extract(&out);
        assert!(subset.selected.is_empty());
    }

    #[test]
    fn selected_entries_are_sorted_unique() {
        let (_, out) = run(800, 10, 250, 4);
        let subset = SubsetSelectDecoder::new(10).extract(&out);
        assert!(subset.selected.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_margin_rejected() {
        let _ = SubsetSelectDecoder::new(3).with_margin(-0.5);
    }
}
