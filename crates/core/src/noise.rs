//! Noisy query channels — the robustness extension.
//!
//! The paper assumes exact counts; real measurement pipelines (qPCR cycle
//! thresholds, neural-network pool classifiers) report perturbed values.
//! This module wraps query execution with configurable integer noise so the
//! `noise_robustness` experiment can chart how gracefully the MN decoder
//! degrades — its thresholding structure gives it natural slack of order
//! `(1−α)m/2` per score (Corollary 6).

use pooled_design::PoolingDesign;
use pooled_rng::discrete::Binomial;
use pooled_rng::SeedSequence;

use crate::query::execute_queries;
use crate::signal::Signal;

/// Integer noise applied independently to each query result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NoiseModel {
    /// No perturbation (the paper's setting).
    Exact,
    /// Symmetric binomial jitter `y + (Bin(2λ, 1/2) − λ)`, clamped at 0:
    /// integer-valued, mean 0, variance `λ/2`.
    SymmetricBinomial {
        /// Jitter half-width parameter λ.
        lambda: u32,
    },
    /// Each *individual draw* of a one-entry is missed independently with
    /// probability `p` (false-negative dilution, the DNA-pooling failure
    /// mode): `y' ~ Bin(y, 1−p)`.
    Dilution {
        /// Per-molecule drop-out probability.
        p: f64,
    },
}

/// Execute queries through a noise channel.
///
/// Noise for query `q` is drawn from `seeds.child("noise", q)`, so reruns
/// and thread counts cannot change the data.
pub fn execute_noisy<D: PoolingDesign + ?Sized>(
    design: &D,
    sigma: &Signal,
    model: NoiseModel,
    seeds: &SeedSequence,
) -> Vec<u64> {
    let clean = execute_queries(design, sigma);
    apply_noise(&clean, model, seeds)
}

/// Apply a noise model to already-computed exact results.
pub fn apply_noise(clean: &[u64], model: NoiseModel, seeds: &SeedSequence) -> Vec<u64> {
    match model {
        NoiseModel::Exact => clean.to_vec(),
        NoiseModel::SymmetricBinomial { lambda } => clean
            .iter()
            .enumerate()
            .map(|(q, &y)| {
                let mut rng = seeds.child("noise", q as u64).rng();
                let jitter = Binomial::new(2 * lambda as u64, 0.5).sample(&mut rng);
                (y + jitter).saturating_sub(lambda as u64)
            })
            .collect(),
        NoiseModel::Dilution { p } => {
            assert!((0.0..=1.0).contains(&p), "dilution probability {p} outside [0,1]");
            clean
                .iter()
                .enumerate()
                .map(|(q, &y)| {
                    let mut rng = seeds.child("noise", q as u64).rng();
                    Binomial::new(y, 1.0 - p).sample(&mut rng)
                })
                .collect()
        }
    }
}

/// Convenience wrapper bundling a noise model with its seed node.
#[derive(Clone, Copy, Debug)]
pub struct NoisyChannel {
    model: NoiseModel,
    seeds: SeedSequence,
}

impl NoisyChannel {
    /// Create a channel with the given model rooted at `seeds`.
    pub fn new(model: NoiseModel, seeds: SeedSequence) -> Self {
        Self { model, seeds }
    }

    /// The configured model.
    pub fn model(&self) -> NoiseModel {
        self.model
    }

    /// Execute queries through this channel.
    pub fn execute<D: PoolingDesign + ?Sized>(&self, design: &D, sigma: &Signal) -> Vec<u64> {
        execute_noisy(design, sigma, self.model, &self.seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mn::MnDecoder;
    use pooled_design::multigraph::RandomRegularDesign;
    use pooled_theory::thresholds::m_mn_finite;

    #[test]
    fn exact_model_is_identity() {
        let y = vec![3u64, 0, 7];
        assert_eq!(apply_noise(&y, NoiseModel::Exact, &SeedSequence::new(1)), y);
    }

    #[test]
    fn symmetric_noise_zero_lambda_is_identity() {
        let y = vec![5u64, 2, 9];
        let noisy =
            apply_noise(&y, NoiseModel::SymmetricBinomial { lambda: 0 }, &SeedSequence::new(2));
        assert_eq!(noisy, y);
    }

    #[test]
    fn symmetric_noise_is_mean_preserving() {
        let y = vec![100u64; 4000];
        let noisy =
            apply_noise(&y, NoiseModel::SymmetricBinomial { lambda: 8 }, &SeedSequence::new(3));
        let mean: f64 = noisy.iter().map(|&v| v as f64).sum::<f64>() / noisy.len() as f64;
        assert!((mean - 100.0).abs() < 0.3, "mean={mean}");
        assert!(noisy.iter().any(|&v| v != 100), "noise never fired");
    }

    #[test]
    fn dilution_reduces_counts() {
        let y = vec![50u64; 2000];
        let noisy = apply_noise(&y, NoiseModel::Dilution { p: 0.2 }, &SeedSequence::new(4));
        let mean: f64 = noisy.iter().map(|&v| v as f64).sum::<f64>() / noisy.len() as f64;
        assert!((mean - 40.0).abs() < 0.5, "mean={mean}");
        assert!(noisy.iter().all(|&v| v <= 50));
    }

    #[test]
    fn dilution_p_zero_is_identity_p_one_is_zero() {
        let y = vec![9u64, 4];
        let seeds = SeedSequence::new(5);
        assert_eq!(apply_noise(&y, NoiseModel::Dilution { p: 0.0 }, &seeds), y);
        assert_eq!(apply_noise(&y, NoiseModel::Dilution { p: 1.0 }, &seeds), vec![0, 0]);
    }

    #[test]
    fn noise_is_deterministic_in_seed() {
        let y = vec![20u64; 100];
        let model = NoiseModel::SymmetricBinomial { lambda: 4 };
        let a = apply_noise(&y, model, &SeedSequence::new(6));
        let b = apply_noise(&y, model, &SeedSequence::new(6));
        assert_eq!(a, b);
        let c = apply_noise(&y, model, &SeedSequence::new(7));
        assert_ne!(a, c);
    }

    #[test]
    fn mn_survives_mild_noise_with_margin() {
        // Generous queries + small λ: recovery should still succeed mostly.
        let n = 1000;
        let k = 8;
        let m = (2.0 * m_mn_finite(n, 0.3)).ceil() as usize;
        let mut successes = 0;
        for seed in 0..6 {
            let seeds = SeedSequence::new(900 + seed);
            let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
            let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
            let channel = NoisyChannel::new(
                NoiseModel::SymmetricBinomial { lambda: 2 },
                seeds.child("chan", 0),
            );
            let y = channel.execute(&design, &sigma);
            let out = MnDecoder::new(k).decode(&design, &y);
            if out.estimate == sigma {
                successes += 1;
            }
        }
        assert!(successes >= 4, "only {successes}/6 noisy recoveries");
    }
}
