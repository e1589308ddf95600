//! Success-rate and overlap sweeps over the query count (Figs. 3–4).
//!
//! For each `m` on a grid, run `trials` seeded MN reconstructions and record
//! the empirical success rate (exact recovery), its Wilson interval, and
//! the mean overlap. One [`SweepRow`] per grid point is exactly one plotted
//! point of Fig. 3 (success) and Fig. 4 (overlap).

use pooled_rng::SeedSequence;

use crate::replicate::{mn_trial_with, run_trials_with, MnTrialWorkspace};
use crate::summary::Summary;
use crate::wilson::wilson_interval;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Signal length.
    pub n: usize,
    /// Signal weight.
    pub k: usize,
    /// Query counts to evaluate.
    pub m_grid: Vec<usize>,
    /// Independent trials per grid point (the paper uses 100).
    pub trials: usize,
    /// Master seed.
    pub master_seed: u64,
}

/// One grid point of a sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepRow {
    /// Query count.
    pub m: usize,
    /// Fraction of trials with exact recovery.
    pub success_rate: f64,
    /// 95% Wilson interval for the success rate (every trial samples its
    /// own design and signal, so the trials are independent).
    pub success_ci: (f64, f64),
    /// Mean overlap across trials.
    pub mean_overlap: f64,
    /// Std-dev of the overlap.
    pub overlap_stddev: f64,
    /// Trials evaluated.
    pub trials: usize,
}

/// Run the MN sweep: [`mn_trial_with`] per trial over
/// [`run_trials_with`]. Trials are parallel; grid points sequential (each
/// grid point already saturates the pool).
pub fn run_mn_sweep(cfg: &SweepConfig) -> Vec<SweepRow> {
    assert!(cfg.trials > 0, "sweep needs at least one trial");
    assert!(cfg.k <= cfg.n, "k must not exceed n");
    let master = SeedSequence::new(cfg.master_seed);
    cfg.m_grid
        .iter()
        .map(|&m| {
            let node = master.child("m", m as u64);
            let outcomes = run_trials_with(&node, cfg.trials, MnTrialWorkspace::new, |_, s, ws| {
                mn_trial_with(cfg.n, cfg.k, m, &s, ws)
            });
            let successes = outcomes.iter().filter(|o| o.exact).count() as u64;
            let mut overlap = Summary::new();
            for o in &outcomes {
                overlap.push(o.overlap);
            }
            SweepRow {
                m,
                success_rate: successes as f64 / cfg.trials as f64,
                success_ci: wilson_interval(successes, cfg.trials as u64, 1.96),
                mean_overlap: overlap.mean(),
                overlap_stddev: overlap.stddev(),
                trials: cfg.trials,
            }
        })
        .collect()
}

/// Evenly spaced `points` query counts from `lo` to `hi` inclusive.
pub fn linear_grid(lo: usize, hi: usize, points: usize) -> Vec<usize> {
    assert!(points >= 2 && hi > lo, "need points ≥ 2 and hi > lo");
    (0..points).map(|i| lo + (hi - lo) * i / (points - 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_theory::thresholds::{k_of, m_mn_finite};

    #[test]
    fn grid_endpoints_and_monotonicity() {
        let g = linear_grid(0, 1000, 6);
        assert_eq!(g.first(), Some(&0));
        assert_eq!(g.last(), Some(&1000));
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sweep_shows_phase_transition_shape() {
        // Small but real: n=300, θ≈0.3 ⇒ k=6 (k_of(300,0.3)=5..6 range).
        let n = 300;
        let k = k_of(n, 0.3);
        let m_hi = (1.8 * m_mn_finite(n, 0.3)).ceil() as usize;
        let cfg =
            SweepConfig { n, k, m_grid: vec![5, m_hi / 3, m_hi], trials: 20, master_seed: 1905 };
        let rows = run_mn_sweep(&cfg);
        assert_eq!(rows.len(), 3);
        // Monotone trend: the top of the grid beats the bottom.
        assert!(rows[2].success_rate >= rows[0].success_rate);
        assert!(rows[2].mean_overlap > rows[0].mean_overlap);
        // The generous point should essentially always succeed.
        assert!(rows[2].success_rate >= 0.85, "rate {}", rows[2].success_rate);
        // CI sanity.
        for r in &rows {
            assert!(r.success_ci.0 <= r.success_rate && r.success_rate <= r.success_ci.1);
        }
    }

    #[test]
    fn sweep_is_reproducible() {
        let cfg = SweepConfig { n: 200, k: 4, m_grid: vec![30, 60], trials: 10, master_seed: 7 };
        let a = run_mn_sweep(&cfg);
        let b = run_mn_sweep(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.success_rate, y.success_rate);
            assert_eq!(x.mean_overlap, y.mean_overlap);
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let cfg = SweepConfig { n: 10, k: 2, m_grid: vec![5], trials: 0, master_seed: 0 };
        let _ = run_mn_sweep(&cfg);
    }
}
