//! BASE: decoder comparison across the related-work landscape (§I-B).
//!
//! Runs MN against OMP, Basis Pursuit, AMP, the Ψ-only ablation and the
//! random-guess floor on the same additive instances, plus the peeling
//! decoder and COMP/DD on their own channels, sweeping `m` in units of
//! `k·ln(n/k)` — the natural axis on which the paper quotes all constants.

use pooled_baselines::amp::AmpDecoder;
use pooled_baselines::basis_pursuit::BasisPursuitDecoder;
use pooled_baselines::binary_gt::{comp, dd, execute_or, gt_design_for};
use pooled_baselines::control::{PsiOnlyDecoder, RandomGuessDecoder};
use pooled_baselines::omp::OmpDecoder;
use pooled_baselines::peeling::{peel, sparse_design_for};
use pooled_baselines::AdditiveDecoder;
use pooled_core::metrics::overlap_fraction;
use pooled_core::mn::MnDecoder;
use pooled_core::query::execute_queries;
use pooled_core::signal::Signal;
use pooled_design::csr::CsrDesign;
use pooled_experiments::{output_dir, write_artifacts, DEFAULT_SEED};
use pooled_io::csv::fmt_f64;
use pooled_io::{render_table, Args, Manifest};
use pooled_rng::SeedSequence;
use pooled_stats::replicate::run_trials;
use pooled_theory::thresholds::k_of;

struct CellStats {
    success: f64,
    overlap: f64,
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let seed = args.get_u64("seed", DEFAULT_SEED);
    let n = args.get_usize("n", 200);
    let theta = args.get_f64("theta", 0.3);
    let trials = args.get_usize("trials", 20);
    let k = k_of(n, theta);
    let unit = k as f64 * (n as f64 / k as f64).ln(); // k·ln(n/k)
    let factors = [1.0f64, 1.5, 2.0, 3.0, 4.0, 6.0];
    let master = SeedSequence::new(seed);

    let additive: Vec<(&'static str, Box<dyn AdditiveDecoder + Sync>)> = vec![
        ("mn", Box::new(MnAdapter)),
        ("psi-only", Box::new(PsiOnlyDecoder::new())),
        ("omp", Box::new(OmpDecoder::new())),
        ("basis-pursuit", Box::new(BasisPursuitDecoder::new())),
        ("amp", Box::new(AmpDecoder::new())),
    ];

    let header = ["decoder", "m", "m_over_klnnk", "success_rate", "mean_overlap"];
    let mut rows = Vec::new();
    for &f in &factors {
        let m = (f * unit).round() as usize;
        // Additive-channel decoders share instances.
        for (name, decoder) in &additive {
            let node = master.child(name, (f * 100.0) as u64);
            let stats = run_additive(&node, n, k, m, trials, decoder.as_ref());
            rows.push(row(name, m, f, &stats));
        }
        // Random-guess floor.
        {
            let node = master.child("random", (f * 100.0) as u64);
            let outs = run_trials(&node, trials, |_, seeds| {
                let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
                let est = RandomGuessDecoder::new(seeds.child("dec", 0)).reconstruct(
                    &CsrDesign::sample(n, 1, 1, &seeds),
                    &[0],
                    k,
                );
                summarize(&sigma, &est)
            });
            rows.push(row("random-guess", m, f, &aggregate(&outs)));
        }
        // Peeling on its sparse design.
        {
            let node = master.child("peeling", (f * 100.0) as u64);
            let outs = run_trials(&node, trials, |_, seeds| {
                let d = sparse_design_for(n, m, k, 1.0, &seeds.child("design", 0));
                let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
                let y = execute_queries(&d, &sigma);
                summarize(&sigma, &peel(&d, &y).to_signal())
            });
            rows.push(row("peeling", m, f, &aggregate(&outs)));
        }
        // COMP / DD on the OR channel.
        for gt_name in ["comp", "dd"] {
            let node = master.child(gt_name, (f * 100.0) as u64);
            let outs = run_trials(&node, trials, |_, seeds| {
                let d = gt_design_for(n, m, k, &seeds.child("design", 0));
                let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
                let or = execute_or(&d, &sigma);
                let est = if gt_name == "comp" { comp(&d, &or) } else { dd(&d, &or) };
                summarize(&sigma, &est)
            });
            rows.push(row(gt_name, m, f, &aggregate(&outs)));
        }
    }

    println!("Decoder comparison at n={n}, θ={theta} (k={k}, k·ln(n/k)={unit:.1}):");
    println!("{}", render_table(&header, &rows));
    let dir = output_dir(&args);
    let manifest = Manifest::new(
        "baselines_table",
        seed,
        "default",
        serde_json::json!({"n": n, "theta": theta, "k": k, "trials": trials,
                           "factors": factors}),
    );
    let csv = write_artifacts(&dir, "baselines_table", &header, &rows, &manifest, None);
    println!("baselines_table: wrote {}", csv.display());
}

/// MN behind the common trait (the CSR gather).
struct MnAdapter;

impl AdditiveDecoder for MnAdapter {
    fn name(&self) -> &'static str {
        "mn"
    }

    fn reconstruct(&self, design: &CsrDesign, y: &[u64], k: usize) -> Signal {
        MnDecoder::new(k).decode(design, y).estimate
    }
}

fn run_additive(
    node: &SeedSequence,
    n: usize,
    k: usize,
    m: usize,
    trials: usize,
    decoder: &(dyn AdditiveDecoder + Sync),
) -> CellStats {
    let outs = run_trials(node, trials, |_, seeds| {
        let d = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let y = execute_queries(&d, &sigma);
        summarize(&sigma, &decoder.reconstruct(&d, &y, k))
    });
    aggregate(&outs)
}

fn summarize(sigma: &Signal, est: &Signal) -> (bool, f64) {
    (sigma == est, overlap_fraction(sigma, est))
}

fn aggregate(outs: &[(bool, f64)]) -> CellStats {
    let t = outs.len() as f64;
    CellStats {
        success: outs.iter().filter(|(e, _)| *e).count() as f64 / t,
        overlap: outs.iter().map(|(_, o)| o).sum::<f64>() / t,
    }
}

fn row(name: &str, m: usize, f: f64, s: &CellStats) -> Vec<String> {
    vec![name.to_string(), m.to_string(), fmt_f64(f), fmt_f64(s.success), fmt_f64(s.overlap)]
}
