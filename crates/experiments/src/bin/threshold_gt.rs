//! EXT-THR: threshold group testing — success rate vs queries at `T ∈
//! {1, 2, 4}`, with the additive channel as the information ceiling.
//!
//! For each threshold the design uses the efficiency-optimal pool size
//! `Γ*(n, k, T)`; the additive column runs the paper's MN decoder on the
//! *same* query budget with its own design, quantifying the price of
//! collapsing counts to one bit. The Hoeffding estimate
//! `m_est(T) = 2n·ln n/(Γ*(p1−p0)²)` is reported for each T so the
//! measured transitions can be compared against the design formula.

use pooled_core::{exact_recovery, overlap_fraction};
use pooled_experiments::{output_dir, write_artifacts, Scale, DEFAULT_SEED};
use pooled_io::csv::fmt_f64;
use pooled_io::{Args, GnuplotScript, Manifest};
use pooled_rng::SeedSequence;
use pooled_stats::replicate::{mn_trial, run_trials};
use pooled_stats::sweep::linear_grid;
use pooled_stats::wilson_interval;
use pooled_theory::threshold_gt::{m_threshold_estimate, recommended_gamma};
use pooled_theory::thresholds::k_of;
use pooled_threshold::{ThresholdChannel, ThresholdMnDecoder};

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let scale = Scale::from_args(&args);
    let seed = args.get_u64("seed", DEFAULT_SEED);
    let trials = args.get_usize("trials", if scale == Scale::Full { 100 } else { 20 });
    let n = args.get_usize("n", if scale == Scale::Full { 10_000 } else { 1000 });
    let theta = args.get_f64("theta", 0.3);
    let k = k_of(n, theta);
    let thresholds_t: Vec<u64> = vec![1, 2, 4];

    let mut rows = Vec::new();
    for &t in &thresholds_t {
        let (gamma, sep) = recommended_gamma(n, k, t);
        let m_est = m_threshold_estimate(n, k, gamma, t);
        let m_hi = (2.0 * m_est).ceil() as usize;
        eprintln!(
            "threshold_gt: T={t} Γ*={gamma} separation={sep:.3} m_est={m_est:.0} (grid to {m_hi})"
        );
        for m in linear_grid((m_hi / 16).max(4), m_hi, 16) {
            let master = SeedSequence::new(seed ^ (t << 48) ^ (m as u64));
            let outcomes = run_trials(&master, trials, |_, s| {
                let sigma = pooled_core::Signal::random(n, k, &mut s.child("signal", 0).rng());
                let design =
                    pooled_threshold::recommended_design(n, k, t, m, &s.child("design", 0));
                let bits = ThresholdChannel::new(t).execute(&design, &sigma);
                let out = ThresholdMnDecoder::new(k).decode(&design, &bits);
                let refined = pooled_threshold::refine_bits(
                    &design,
                    &bits,
                    t,
                    &out.scores,
                    &out.estimate,
                    &pooled_threshold::BitRefineConfig::default(),
                );
                (
                    exact_recovery(&sigma, &out.estimate),
                    overlap_fraction(&sigma, &out.estimate),
                    exact_recovery(&sigma, &refined.estimate),
                )
            });
            let successes = outcomes.iter().filter(|o| o.0).count() as u64;
            let refined_rate = outcomes.iter().filter(|o| o.2).count() as f64 / trials as f64;
            let overlap: f64 = outcomes.iter().map(|o| o.1).sum::<f64>() / outcomes.len() as f64;
            let (lo, hi) = wilson_interval(successes, trials as u64, 1.96);
            // Additive ceiling: the paper's decoder at the same budget.
            let additive = run_trials(&master.child("additive", 0), trials, |_, s| {
                mn_trial(n, k, m, &s).exact
            });
            let additive_rate = additive.iter().filter(|&&e| e).count() as f64 / trials as f64;
            rows.push(vec![
                t.to_string(),
                gamma.to_string(),
                m.to_string(),
                fmt_f64(successes as f64 / trials as f64),
                fmt_f64(lo),
                fmt_f64(hi),
                fmt_f64(overlap),
                fmt_f64(refined_rate),
                fmt_f64(additive_rate),
                fmt_f64(m_est),
            ]);
        }
    }

    let dir = output_dir(&args);
    let manifest = Manifest::new(
        "threshold_gt",
        seed,
        scale.name(),
        serde_json::json!({"n": n, "theta": theta, "k": k, "T": thresholds_t, "trials": trials}),
    );
    let mut gp = GnuplotScript::new(
        &format!("EXT-THR — threshold-GT success over m (n = {n}, θ = {theta})"),
        "number of tests m",
        "success rate",
    );
    for &t in &thresholds_t {
        gp = gp.series(
            "threshold_gt.csv",
            &format!("($1=={t}?$3:1/0):4"),
            &format!("T = {t}"),
            "linespoints",
        );
    }
    let header = [
        "T",
        "gamma_star",
        "m",
        "success_rate",
        "ci_lo",
        "ci_hi",
        "mean_overlap",
        "refined_success",
        "additive_success",
        "m_estimate",
    ];
    let csv = write_artifacts(&dir, "threshold_gt", &header, &rows, &manifest, Some(&gp));
    println!("threshold_gt: wrote {}", csv.display());
}
