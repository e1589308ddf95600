//! NOISE: robustness of the MN decoder under noisy query channels.
//!
//! The MN threshold proof leaves a score margin of order `(1−α)m/2`
//! (Corollary 6); this experiment measures how much of that margin survives
//! two realistic perturbations: symmetric integer jitter and one-entry
//! dilution (false-negative drop-out).

use pooled_core::metrics::{exact_recovery, overlap_fraction};
use pooled_core::mn::MnDecoder;
use pooled_core::noise::{execute_noisy, NoiseModel};
use pooled_core::refine::{refine, RefineConfig};
use pooled_core::signal::Signal;
use pooled_design::multigraph::RandomRegularDesign;
use pooled_experiments::{output_dir, write_artifacts, DEFAULT_SEED};
use pooled_io::csv::fmt_f64;
use pooled_io::{render_table, Args, Manifest};
use pooled_rng::SeedSequence;
use pooled_stats::replicate::run_trials;
use pooled_theory::thresholds::{k_of, m_mn_finite};

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let seed = args.get_u64("seed", DEFAULT_SEED);
    let n = args.get_usize("n", 1000);
    let theta = args.get_f64("theta", 0.3);
    let trials = args.get_usize("trials", 30);
    let factor = args.get_f64("m-factor", 1.5);
    let k = k_of(n, theta);
    let m = (factor * m_mn_finite(n, theta)).ceil() as usize;

    let mut models: Vec<(String, NoiseModel)> = vec![("exact".into(), NoiseModel::Exact)];
    for lambda in [1u32, 2, 4, 8, 16] {
        models.push((format!("jitter_l{lambda}"), NoiseModel::SymmetricBinomial { lambda }));
    }
    for p in [0.01, 0.02, 0.05, 0.1] {
        models.push((format!("dilution_p{p}"), NoiseModel::Dilution { p }));
    }

    let master = SeedSequence::new(seed);
    let header = ["model", "m", "success_rate", "mean_overlap", "refined_success"];
    let mut rows = Vec::new();
    for (mi, (name, model)) in models.iter().enumerate() {
        let node = master.child("model", mi as u64);
        let outs = run_trials(&node, trials, |_, seeds| {
            let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
            let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
            let y = execute_noisy(&design, &sigma, *model, &seeds.child("noise", 0));
            let out = MnDecoder::new(k).decode(&design, &y);
            // Refinement under noise: minimizes ‖y − ŷ‖₁ even when no
            // consistent vector exists (noisy y), acting as an ℓ1 denoiser.
            let refined_exact = match &design {
                RandomRegularDesign::Csr(csr) => {
                    let r = refine(csr, &y, &out.scores, &out.estimate, &RefineConfig::default());
                    exact_recovery(&sigma, &r.estimate)
                }
                _ => exact_recovery(&sigma, &out.estimate),
            };
            (
                exact_recovery(&sigma, &out.estimate),
                overlap_fraction(&sigma, &out.estimate),
                refined_exact,
            )
        });
        let success = outs.iter().filter(|(e, _, _)| *e).count() as f64 / trials as f64;
        let overlap = outs.iter().map(|(_, o, _)| o).sum::<f64>() / trials as f64;
        let refined = outs.iter().filter(|(_, _, r)| *r).count() as f64 / trials as f64;
        rows.push(vec![
            name.clone(),
            m.to_string(),
            fmt_f64(success),
            fmt_f64(overlap),
            fmt_f64(refined),
        ]);
    }
    println!("Noise robustness at n={n}, θ={theta} (k={k}), m={m} ({factor}×m_MN_finite):");
    println!("{}", render_table(&header, &rows));

    let dir = output_dir(&args);
    let manifest = Manifest::new(
        "noise_robustness",
        seed,
        "default",
        serde_json::json!({"n": n, "theta": theta, "m": m, "trials": trials,
                           "m_factor": factor}),
    );
    let csv = write_artifacts(&dir, "noise_robustness", &header, &rows, &manifest, None);
    println!("noise_robustness: wrote {}", csv.display());
}
