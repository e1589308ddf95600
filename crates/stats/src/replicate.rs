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
//!   on that path, with an [`MnTrialWorkspace`]. Every trial samples its
//!   own design and signal, so trials are independent and the figures'
//!   Wilson intervals hold as computed.
//!
//! A trial decodes the way the serving engine's workers do. On a
//! materialized design it builds `y` from the support's transpose rows
//! (`execute_queries_support_into`) and takes Ψ/Δ* from the CSR gather
//! through `MnDecoder::decode_with`. A design past the materialization
//! limit streams (Fig. 2's `n = 10⁶` points); it has no transpose, so one
//! pass (`pooled_design::streaming::stream_sums_into`) executes the
//! queries and sums them together before `MnDecoder::finish_with`. Each
//! trial runs on one worker, so both kernels run sequentially inside it.

use rayon::prelude::*;

use pooled_core::metrics::{exact_recovery_dense, overlap_fraction_dense};
use pooled_core::mn::MnDecoder;
use pooled_core::query::execute_queries_support_into;
use pooled_core::signal::Signal;
use pooled_core::workspace::MnWorkspace;
use pooled_design::streaming::stream_sums_into;
use pooled_design::{PoolingDesign, RandomRegularDesign};
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
/// trial-local query results.
#[derive(Default)]
pub struct MnTrialWorkspace {
    /// Decode workspace (Ψ/Δ*/scores/selection/estimate).
    pub mn: MnWorkspace,
    /// Query results `y`.
    pub y: Vec<u64>,
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

/// Workspace MN trial: identical outcome to [`mn_trial`], with every
/// buffer reused from `ws`, so replicate loops stop allocating per trial
/// (beyond sampling the design).
pub fn mn_trial_with(
    n: usize,
    k: usize,
    m: usize,
    seeds: &SeedSequence,
    ws: &mut MnTrialWorkspace,
) -> TrialOutcome {
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
    decode_trial(&design, &sigma, k, ws)
}

/// The step of a trial after sampling: execute the queries of `sigma` on
/// `design`, decode with MN, compare. Picks the kernels from what the
/// design stores (see the module docs).
fn decode_trial<D: PoolingDesign + ?Sized>(
    design: &D,
    sigma: &Signal,
    k: usize,
    ws: &mut MnTrialWorkspace,
) -> TrialOutcome {
    let decoder = MnDecoder::new(k);
    ws.y.clear();
    ws.y.resize(design.m(), 0);
    match design.as_csr() {
        Some(csr) => {
            execute_queries_support_into(csr, sigma.support(), &mut ws.y);
            decoder.decode_with(design, &ws.y, &mut ws.mn);
        }
        None => {
            let (n, dense, y) = (design.n(), sigma.dense(), &mut ws.y);
            ws.mn.prepare(n);
            let (psi, dstar) = ws.mn.sums_mut();
            stream_sums_into(design, psi, dstar, |q, pool| {
                y[q] = pool.iter().map(|&(e, c)| dense[e as usize] as u64 * c as u64).sum();
                y[q]
            });
            decoder.finish_with(n, &mut ws.mn);
        }
    }
    let estimate = ws.mn.estimate_dense();
    TrialOutcome {
        exact: exact_recovery_dense(sigma, estimate),
        overlap: overlap_fraction_dense(sigma, estimate),
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
    fn workspace_trial_matches_classic_pipeline() {
        use pooled_core::metrics::{exact_recovery, overlap_fraction};
        use pooled_core::query::execute_queries;

        let mut ws = MnTrialWorkspace::new();
        for seed in 0..6u64 {
            let (n, k, m) = (300, 5, 110);
            let seeds = SeedSequence::new(seed).child("t", 0);
            let got = mn_trial_with(n, k, m, &seeds, &mut ws);
            // Classic path: separate execute + decode.
            let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
            let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
            let y = execute_queries(&design, &sigma);
            let out = MnDecoder::new(k).decode(&design, &y);
            assert_eq!(got.exact, exact_recovery(&sigma, &out.estimate), "seed {seed}");
            assert_eq!(got.overlap, overlap_fraction(&sigma, &out.estimate), "seed {seed}");
        }
    }

    #[test]
    fn streaming_trial_step_matches_its_materialized_twin() {
        // `sample` streams only past 10⁸ expected incidences, so build the
        // streaming arm directly, at four points across the transition
        // (n = 300, k = 6: the finite-size threshold is ≈ 138).
        use pooled_design::StreamingDesign;
        let (mut ws_stream, mut ws_csr) = (MnTrialWorkspace::new(), MnTrialWorkspace::new());
        let mut exact = Vec::new();
        for (n, m, k, seed) in
            [(300, 40, 6, 1u64), (300, 110, 6, 2), (300, 160, 6, 3), (257, 130, 5, 4)]
        {
            let seeds = SeedSequence::new(seed);
            let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
            let stream = StreamingDesign::new(n, m, n / 2, &seeds.child("design", 0));
            let csr = RandomRegularDesign::Csr(stream.materialize());
            let stream = RandomRegularDesign::Streaming(stream);
            let got = decode_trial(&stream, &sigma, k, &mut ws_stream);
            let want = decode_trial(&csr, &sigma, k, &mut ws_csr);
            assert_eq!(got, want, "n={n} m={m}");
            assert_eq!(ws_stream.y, ws_csr.y, "n={n} m={m}");
            assert_eq!(ws_stream.mn.scores(), ws_csr.mn.scores(), "n={n} m={m}");
            assert_eq!(ws_stream.mn.support(), ws_csr.mn.support(), "n={n} m={m}");
            exact.push(got.exact);
        }
        assert!(exact.contains(&true) && exact.contains(&false), "{exact:?}");
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
