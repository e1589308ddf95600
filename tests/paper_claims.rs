//! Seeded, scaled-down versions of the paper's headline numbers, run as
//! tests so regressions in the pipeline show up as failures.

use pooled_data::prelude::*;
use pooled_data::stats::replicate::{mn_trial, run_trials};
use pooled_data::stats::{find_transition, run_mn_sweep, SweepConfig, TransitionConfig};
use pooled_data::theory::thresholds::{k_of, m_mn, m_mn_finite};

/// Fig. 1's worked example: result vector (2, 2, 3, 1, 1).
#[test]
fn fig1_query_results() {
    use pooled_data::design::csr::CsrDesign;
    let sigma = Signal::from_dense(&[1, 1, 0, 0, 1, 0, 0]);
    let pools = vec![vec![0, 1, 3], vec![1, 1, 2], vec![0, 1, 4], vec![4, 5], vec![4, 6]];
    let d = CsrDesign::from_pools(7, &pools);
    assert_eq!(execute_queries(&d, &sigma), vec![2, 2, 3, 1, 1]);
}

/// §VI claim, shape version: at n=1000, θ=0.3, m=220 the mean overlap is
/// high (≥0.90 for our implementation) and reaches ≥0.99 by ~1.6×m.
#[test]
fn claim99_shape() {
    let n = 1000;
    let k = k_of(n, 0.3);
    let master = SeedSequence::new(1905);
    let at_220 = run_trials(&master.child("m", 220), 40, |_, s| mn_trial(n, k, 220, &s));
    let mean_220: f64 = at_220.iter().map(|o| o.overlap).sum::<f64>() / 40.0;
    assert!(mean_220 >= 0.90, "overlap at m=220 fell to {mean_220}");
    let at_350 = run_trials(&master.child("m", 350), 40, |_, s| mn_trial(n, k, 350, &s));
    let mean_350: f64 = at_350.iter().map(|o| o.overlap).sum::<f64>() / 40.0;
    assert!(mean_350 >= 0.99, "overlap at m=350 only {mean_350}");
    assert!(mean_350 > mean_220);
}

/// Fig. 3's qualitative content: the success curve transitions from ~0 to
/// ~1 around the finite-size Theorem 1 threshold.
#[test]
fn fig3_phase_transition_location() {
    let n = 1000;
    let theta = 0.3;
    let k = k_of(n, theta);
    let m_theory = m_mn_finite(n, theta); // ≈ 222
    let cfg = SweepConfig {
        n,
        k,
        m_grid: vec![(0.3 * m_theory) as usize, (1.6 * m_theory) as usize],
        trials: 30,
        master_seed: 1905,
    };
    let rows = run_mn_sweep(&cfg);
    assert!(rows[0].success_rate <= 0.2, "below threshold: {}", rows[0].success_rate);
    assert!(rows[1].success_rate >= 0.8, "above threshold: {}", rows[1].success_rate);
}

/// The Fig. 3/4 sweep, bit for bit: `(m, successes, mean_overlap bits)` at
/// n = 300, θ = 0.3 (k = 6), 24 trials, seed 1905, over four m across the
/// transition (the finite-size threshold is ≈ 138). Recorded before the
/// sweep moved from design-major batches of one trial onto
/// `run_trials_with(mn_trial_with)`; any change to a trial's seeding,
/// sampling or decode moves them.
#[test]
fn mn_sweep_reproduces_its_golden_rows() {
    const GOLDEN: [(usize, usize, u64); 4] = [
        (55, 0, 0x3fe3_c71c_71c7_1c71),
        (110, 12, 0x3fec_e38e_38e3_8e39),
        (165, 22, 0x3fef_8e38_e38e_38e3),
        (221, 23, 0x3fef_c71c_71c7_1c72),
    ];
    let n = 300;
    let cfg = SweepConfig {
        n,
        k: k_of(n, 0.3),
        m_grid: GOLDEN.iter().map(|g| g.0).collect(),
        trials: 24,
        master_seed: 1905,
    };
    let rows: Vec<(usize, usize, u64)> = run_mn_sweep(&cfg)
        .iter()
        .map(|r| {
            let successes = (r.success_rate * r.trials as f64).round() as usize;
            (r.m, successes, r.mean_overlap.to_bits())
        })
        .collect();
    assert_eq!(rows, GOLDEN);
}

/// Fig. 2's qualitative content: the measured transition point grows with
/// n along the theory curve (ratio to theory bounded, monotone m*).
#[test]
fn fig2_transition_tracks_theory() {
    let theta = 0.3;
    let mut last_mean = 0.0;
    for &n in &[300usize, 1000, 3000] {
        let k = k_of(n, theta);
        let theory = m_mn_finite(n, theta);
        let cfg = TransitionConfig {
            n,
            k,
            trials: 10,
            m_start: (theory / 8.0).ceil().max(2.0) as usize,
            m_cap: (theory * 10.0).ceil() as usize,
            master_seed: 7,
        };
        let stats = find_transition(&cfg);
        assert_eq!(stats.capped, 0, "n={n}: trials capped");
        let ratio = stats.mean / theory;
        assert!((0.2..1.6).contains(&ratio), "n={n}: transition {} vs theory {theory}", stats.mean);
        assert!(stats.mean > last_mean, "m* should grow with n");
        last_mean = stats.mean;
    }
}

/// Fig. 2's trial path, bit for bit: the per-trial minimal `m` of the
/// transition search at n = 300, θ = 0.3, 8 trials, seed 7. Recorded while
/// each trial still took `y`, Ψ and Δ* from the fused trial kernel; any
/// change to a probe's seeding, sampling or decode moves them.
#[test]
fn fig2_transition_reproduces_its_golden_minima() {
    const GOLDEN: [usize; 8] = [148, 121, 164, 141, 99, 155, 105, 114];
    let (n, theta) = (300, 0.3);
    let theory = m_mn_finite(n, theta);
    let cfg = TransitionConfig {
        n,
        k: k_of(n, theta),
        trials: 8,
        m_start: (theory / 8.0).ceil().max(2.0) as usize,
        m_cap: (theory * 10.0).ceil() as usize,
        master_seed: 7,
    };
    assert_eq!(find_transition(&cfg).per_trial, GOLDEN);
}

/// Theorem 1's θ-dependence: harder (larger θ) needs more queries, matching
/// the ordering of the thresholds.
#[test]
fn theorem1_theta_ordering_empirical() {
    let n = 1000;
    let mut transitions = Vec::new();
    for &theta in &[0.2, 0.4] {
        let k = k_of(n, theta);
        let theory = m_mn_finite(n, theta);
        let cfg = TransitionConfig {
            n,
            k,
            trials: 8,
            m_start: (theory / 8.0).ceil().max(2.0) as usize,
            m_cap: (theory * 10.0).ceil() as usize,
            master_seed: 21,
        };
        transitions.push(find_transition(&cfg).mean);
    }
    assert!(
        transitions[1] > transitions[0],
        "θ=0.4 transition {} should exceed θ=0.2 transition {}",
        transitions[1],
        transitions[0]
    );
    assert!(m_mn(n, 0.4) > m_mn(n, 0.2));
}
