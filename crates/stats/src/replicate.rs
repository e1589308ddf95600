//! Seeded parallel trial execution.
//!
//! Every trial gets its own [`SeedSequence`] derived from the master seed,
//! so the set of trial results is a pure function of `(master, trials)` no
//! matter how rayon schedules them.
//!
//! Two execution paths:
//!
//! * [`run_trials`] — stateless closure per trial (the original API).
//! * [`run_trials_with`] — per-worker workspace threaded through the
//!   trials of each chunk, so sweeps reuse decode buffers instead of
//!   allocating per replicate. [`mn_trial_with`] is the canonical trial
//!   on that path: it decodes through the fused single-pass kernel
//!   (`pooled_design::fused`) and an [`MnTrialWorkspace`]. Every trial
//!   samples its own design and signal, so trials are independent and
//!   the figures' Wilson intervals hold as computed.

use rayon::prelude::*;

use pooled_core::workspace::MnWorkspace;
use pooled_rng::SeedSequence;

/// Run `trials` independent replicates of `trial_fn` in parallel.
///
/// `trial_fn` receives `(trial_index, seed_node)` and must be deterministic
/// given those inputs. Results come back in trial order.
pub fn run_trials<T, F>(master: &SeedSequence, trials: usize, trial_fn: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SeedSequence) -> T + Sync,
{
    (0..trials).into_par_iter().map(|t| trial_fn(t, master.child("trial", t as u64))).collect()
}

/// Workspace variant of [`run_trials`]: each parallel worker builds one
/// workspace via `init` and threads it through all its trials, so
/// per-replicate buffers are reused. Results are independent of the worker
/// count (trials stay seeded by index).
pub fn run_trials_with<T, W, INIT, F>(
    master: &SeedSequence,
    trials: usize,
    init: INIT,
    trial_fn: F,
) -> Vec<T>
where
    T: Send,
    W: Send,
    INIT: Fn() -> W + Sync + Send,
    F: Fn(usize, SeedSequence, &mut W) -> T + Sync + Send,
{
    (0..trials)
        .into_par_iter()
        .map_init(init, |ws, t| trial_fn(t, master.child("trial", t as u64), ws))
        .collect()
}

/// One MN reconstruction trial outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialOutcome {
    /// Whether `σ̃ = σ` exactly.
    pub exact: bool,
    /// Fraction of one-entries recovered.
    pub overlap: f64,
}

/// Reusable buffers for [`mn_trial_with`]: the decode workspace plus the
/// trial-local query-result and dense-signal vectors.
#[derive(Default)]
pub struct MnTrialWorkspace {
    /// Decode workspace (Ψ/Δ*/scores/selection/estimate + fused arena).
    pub mn: MnWorkspace,
    /// Query results `y` (filled by the fused kernel).
    pub y: Vec<u64>,
    /// The signal as dense `u64` (the fused kernel's input layout).
    pub x: Vec<u64>,
}

impl MnTrialWorkspace {
    /// Empty workspace; buffers grow on the first trial.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The canonical single trial every figure shares: sample `σ` and
/// `G(n, m, Γ=n/2)`, execute, decode with MN, compare.
///
/// Thin wrapper over [`mn_trial_with`] on a fresh workspace.
pub fn mn_trial(n: usize, k: usize, m: usize, seeds: &SeedSequence) -> TrialOutcome {
    mn_trial_with(n, k, m, seeds, &mut MnTrialWorkspace::new())
}

/// Workspace MN trial: identical outcome to [`mn_trial`], but query
/// execution and the decoder's Ψ/Δ* accumulation run in **one fused
/// traversal** of the design (`pooled_design::fused`), and every decode
/// buffer is reused from `ws` — replicate loops stop allocating per trial.
pub fn mn_trial_with(
    n: usize,
    k: usize,
    m: usize,
    seeds: &SeedSequence,
    ws: &mut MnTrialWorkspace,
) -> TrialOutcome {
    use pooled_core::mn::MnDecoder;
    use pooled_core::signal::Signal;
    use pooled_design::fused::{decode_sums_fused, decode_sums_fused_stream};
    use pooled_design::multigraph::RandomRegularDesign;

    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
    // Dense u64 signal for the fused kernel.
    ws.x.clear();
    ws.x.extend(sigma.dense().iter().map(|&b| b as u64));
    ws.y.clear();
    ws.y.resize(m, 0);
    ws.mn.prepare(n);
    {
        let (psi, dstar, arena) = ws.mn.sums_mut();
        match &design {
            RandomRegularDesign::Csr(csr) => {
                decode_sums_fused(csr, &ws.x, &mut ws.y, psi, dstar, arena);
            }
            RandomRegularDesign::Streaming(stream) => {
                decode_sums_fused_stream(stream, &ws.x, &mut ws.y, psi, dstar, arena);
            }
        }
    }
    MnDecoder::new(k).finish_with(n, &mut ws.mn);
    let estimate = ws.mn.estimate_dense();
    TrialOutcome {
        exact: pooled_core::metrics::exact_recovery_dense(&sigma, estimate),
        overlap: pooled_core::metrics::overlap_fraction_dense(&sigma, estimate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_order_stable_and_deterministic() {
        let master = SeedSequence::new(42);
        let a = run_trials(&master, 32, |t, seeds| (t, seeds.seed()));
        let b = run_trials(&master, 32, |t, seeds| (t, seeds.seed()));
        assert_eq!(a, b);
        for (i, (t, _)) in a.iter().enumerate() {
            assert_eq!(i, *t);
        }
    }

    #[test]
    fn trials_get_distinct_seeds() {
        let master = SeedSequence::new(1);
        let seeds = run_trials(&master, 64, |_, s| s.seed());
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn mn_trial_is_deterministic() {
        let seeds = SeedSequence::new(7).child("x", 3);
        let a = mn_trial(300, 5, 120, &seeds);
        let b = mn_trial(300, 5, 120, &seeds);
        assert_eq!(a, b);
    }

    #[test]
    fn mn_trial_overlap_bounds() {
        let seeds = SeedSequence::new(9);
        for t in 0..8 {
            let out = mn_trial(200, 4, 40, &seeds.child("t", t));
            assert!((0.0..=1.0).contains(&out.overlap));
            if out.exact {
                assert_eq!(out.overlap, 1.0);
            }
        }
    }

    #[test]
    fn fused_trial_matches_classic_pipeline() {
        use pooled_core::metrics::{exact_recovery, overlap_fraction};
        use pooled_core::mn::MnDecoder;
        use pooled_core::query::execute_queries;
        use pooled_core::signal::Signal;
        use pooled_design::multigraph::RandomRegularDesign;

        let mut ws = MnTrialWorkspace::new();
        for seed in 0..6u64 {
            let (n, k, m) = (300, 5, 110);
            let seeds = SeedSequence::new(seed).child("t", 0);
            let got = mn_trial_with(n, k, m, &seeds, &mut ws);
            // Classic path: separate execute + decode.
            let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
            let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
            let y = execute_queries(&design, &sigma);
            let out = MnDecoder::new(k).decode_design(&design, &y);
            assert_eq!(got.exact, exact_recovery(&sigma, &out.estimate), "seed {seed}");
            assert_eq!(got.overlap, overlap_fraction(&sigma, &out.estimate), "seed {seed}");
        }
    }

    #[test]
    fn run_trials_with_matches_run_trials() {
        let master = SeedSequence::new(77);
        let stateless = run_trials(&master, 24, |t, seeds| (t, seeds.seed()));
        let stateful = run_trials_with(&master, 24, || 0u64, |t, seeds, _ws| (t, seeds.seed()));
        assert_eq!(stateless, stateful);
    }

    #[test]
    fn zero_trials_is_empty() {
        let master = SeedSequence::new(3);
        let v: Vec<u8> = run_trials(&master, 0, |_, _| 1);
        assert!(v.is_empty());
    }
}
