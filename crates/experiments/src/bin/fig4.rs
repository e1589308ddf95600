//! FIG4: overlap (fraction of one-entries recovered) vs number of queries.
//!
//! Same grid as FIG3 but plotting the overlap metric — the panel showing
//! that almost all one-entries are found well before exact recovery
//! stabilizes.

use pooled_experiments::{output_dir, write_artifacts, Scale, DEFAULT_SEED, PAPER_THETAS};
use pooled_io::csv::fmt_f64;
use pooled_io::{Args, GnuplotScript, Manifest};
use pooled_stats::sweep::linear_grid;
use pooled_stats::{run_mn_sweep, SweepConfig};
use pooled_theory::thresholds::k_of;

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let scale = Scale::from_args(&args);
    let seed = args.get_u64("seed", DEFAULT_SEED);
    let trials = args.get_usize("trials", if scale == Scale::Full { 100 } else { 20 });
    let points = args.get_usize("points", 21);
    let panels: Vec<(usize, usize)> = match scale {
        Scale::Default => vec![(1000, 1000)],
        Scale::Full => vec![(1000, 1000), (10_000, 3000)],
    };

    let mut rows = Vec::new();
    for &(n, m_hi) in &panels {
        for &theta in &PAPER_THETAS {
            let k = k_of(n, theta);
            let cfg = SweepConfig {
                n,
                k,
                m_grid: linear_grid(m_hi / points, m_hi, points),
                trials,
                // Same seed derivation as fig3: identical trials, so the
                // two figures describe the same simulated data, as in the
                // paper.
                master_seed: seed ^ (n as u64) ^ (((theta * 1000.0) as u64) << 32),
            };
            for row in run_mn_sweep(&cfg) {
                rows.push(vec![
                    n.to_string(),
                    theta.to_string(),
                    row.m.to_string(),
                    fmt_f64(row.mean_overlap),
                    fmt_f64(row.overlap_stddev),
                    fmt_f64(row.success_rate),
                ]);
            }
            eprintln!("fig4: n={n} θ={theta} done (k={k})");
        }
    }

    let dir = output_dir(&args);
    let manifest = Manifest::new(
        "fig4",
        seed,
        scale.name(),
        serde_json::json!({"panels": panels, "thetas": PAPER_THETAS, "trials": trials}),
    );
    let n0 = panels[0].0;
    let mut gp = GnuplotScript::new(
        &format!("Fig. 4 — overlap over m (n = {n0})"),
        "number of tests m",
        "overlap",
    );
    for &theta in &PAPER_THETAS {
        gp = gp.series(
            "fig4.csv",
            &format!("($1=={n0} && $2=={theta}?$3:1/0):4"),
            &format!("theta = {theta}"),
            "linespoints",
        );
    }
    let header = ["n", "theta", "m", "mean_overlap", "overlap_sd", "success_rate"];
    let csv = write_artifacts(&dir, "fig4", &header, &rows, &manifest, Some(&gp));
    println!("fig4: wrote {}", csv.display());
}
