#![warn(missing_docs)]

//! Experiment statistics: the machinery that turns decoder runs into the
//! rows and series of the paper's figures.
//!
//! * [`summary`] — streaming moments (Welford) and quantiles.
//! * [`wilson`] — Wilson score intervals for empirical success rates.
//! * [`replicate`] — seeded parallel trial execution (one substream per
//!   trial, bit-reproducible across thread counts).
//! * [`sweep`] — success-rate / overlap sweeps over the query count `m`
//!   (Figs. 3 and 4).
//! * [`transition`] — per-trial minimal-`m` search (exponential ramp +
//!   bisection) for the phase-transition plot (Fig. 2).

pub mod replicate;
pub mod summary;
pub mod sweep;
pub mod transition;
pub mod wilson;

pub use replicate::{
    mn_trial, mn_trial_with, run_trials, run_trials_with, MnTrialWorkspace, TrialOutcome,
};
pub use summary::Summary;
pub use sweep::{run_mn_sweep, SweepConfig, SweepRow};
pub use transition::{find_transition, TransitionConfig, TransitionStats};
pub use wilson::wilson_interval;
