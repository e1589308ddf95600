//! Control baselines: the floor every real decoder must clear.
//!
//! * [`RandomGuessDecoder`] — `k` uniform indices; expected overlap `k/n`.
//! * [`PsiOnlyDecoder`] — ranks by the raw neighborhood sum `Ψ_i` *without*
//!   the `Δ*_i·k/2` centering of Algorithm 1. This is the ablation DESIGN.md
//!   calls out: it shows how much the degree-fluctuation correction buys.

use pooled_core::signal::Signal;
use pooled_core::workspace::{scoring_visitor, MnWorkspace};
use pooled_design::csr::CsrDesign;
use pooled_design::{distinct_sums_visit, PoolingDesign};
use pooled_rng::SeedSequence;

use crate::AdditiveDecoder;

/// Uniform random support of size `k` (seeded for reproducibility).
#[derive(Clone, Copy, Debug)]
pub struct RandomGuessDecoder {
    seeds: SeedSequence,
}

impl RandomGuessDecoder {
    /// Construct with a seed node.
    pub fn new(seeds: SeedSequence) -> Self {
        Self { seeds }
    }
}

impl AdditiveDecoder for RandomGuessDecoder {
    fn name(&self) -> &'static str {
        "random-guess"
    }

    fn reconstruct(&self, design: &CsrDesign, _y: &[u64], k: usize) -> Signal {
        let mut rng = self.seeds.child("guess", 0).rng();
        Signal::random(design.n(), k.min(design.n()), &mut rng)
    }
}

/// Rank by raw `Ψ_i` (no centering) — Algorithm 1 minus Line 7's
/// `−Δ*_i·k/2` term.
#[derive(Clone, Copy, Debug, Default)]
pub struct PsiOnlyDecoder;

impl PsiOnlyDecoder {
    /// Construct the decoder.
    pub fn new() -> Self {
        Self
    }

    /// Workspace decode: Ψ and Δ* into `ws` from the sum every decoder
    /// takes (`pooled_design::distinct_sums_visit`), each entry's raw Ψ
    /// scored and offered as the kernel finishes it, and the `k` best as
    /// an ascending support
    /// ([`MnWorkspace::support`]). [`AdditiveDecoder::reconstruct`] runs
    /// it on a fresh workspace.
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode_with<D: PoolingDesign + ?Sized>(
        &self,
        design: &D,
        y: &[u64],
        k: usize,
        ws: &mut MnWorkspace,
    ) {
        assert_eq!(y.len(), design.m(), "result vector length must equal m");
        ws.prepare(design.n());
        let (psi, dstar, scores, topk) = ws.pass_mut(k);
        let visit = scoring_visitor(scores, topk, |_, p, _| p as i64, |_| {});
        distinct_sums_visit(design, y, psi, dstar, visit);
        ws.finish_selection();
        ws.sort_support();
    }
}

impl AdditiveDecoder for PsiOnlyDecoder {
    fn name(&self) -> &'static str {
        "psi-only"
    }

    fn reconstruct(&self, design: &CsrDesign, y: &[u64], k: usize) -> Signal {
        let mut ws = MnWorkspace::new();
        self.decode_with(design, y, k, &mut ws);
        Signal::from_support(design.n(), ws.support().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_core::metrics::overlap_fraction;
    use pooled_core::mn::MnDecoder;
    use pooled_core::query::execute_queries;

    #[test]
    fn random_guess_overlap_is_near_k_over_n() {
        let seeds = SeedSequence::new(1);
        let (n, k) = (1000usize, 10usize);
        let d = CsrDesign::sample(n, 5, n / 2, &seeds.child("design", 0));
        let mut total = 0.0;
        let trials = 200;
        for t in 0..trials {
            let sigma = Signal::random(n, k, &mut seeds.child("sig", t).rng());
            let dec = RandomGuessDecoder::new(seeds.child("dec", t));
            let est = dec.reconstruct(&d, &[0; 5], k);
            total += overlap_fraction(&sigma, &est);
        }
        let mean = total / trials as f64;
        assert!((mean - 0.01).abs() < 0.01, "mean random overlap {mean}");
    }

    #[test]
    fn psi_only_beats_random_but_loses_to_mn() {
        // Ψ-only carries signal but is degraded by degree fluctuations; MN
        // should beat or match it, and both beat random.
        let (n, k) = (1000usize, 8usize);
        let m = 180;
        let (mut ov_psi, mut ov_mn) = (0.0, 0.0);
        let trials = 12;
        for t in 0..trials {
            let seeds = SeedSequence::new(3000 + t);
            let d = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
            let sigma = Signal::random(n, k, &mut seeds.child("sig", 0).rng());
            let y = execute_queries(&d, &sigma);
            let psi_est = PsiOnlyDecoder::new().reconstruct(&d, &y, k);
            let mn_est = MnDecoder::new(k).decode(&d, &y).estimate;
            ov_psi += overlap_fraction(&sigma, &psi_est);
            ov_mn += overlap_fraction(&sigma, &mn_est);
        }
        ov_psi /= trials as f64;
        ov_mn /= trials as f64;
        assert!(ov_psi > 0.2, "Ψ-only carries no signal? overlap {ov_psi}");
        assert!(ov_mn + 0.05 >= ov_psi, "MN {ov_mn} should not lose to Ψ-only {ov_psi}");
    }

    #[test]
    fn decoders_have_stable_names() {
        assert_eq!(PsiOnlyDecoder::new().name(), "psi-only");
        assert_eq!(RandomGuessDecoder::new(SeedSequence::new(0)).name(), "random-guess");
    }

    #[test]
    fn random_guess_weight_is_k() {
        let seeds = SeedSequence::new(5);
        let d = CsrDesign::sample(50, 3, 25, &seeds);
        let est = RandomGuessDecoder::new(seeds).reconstruct(&d, &[0; 3], 7);
        assert_eq!(est.weight(), 7);
    }
}
