//! FIG3: exact-recovery success rate vs number of queries `m`.
//!
//! Reproduces both panels (`n = 10³` with `m ≤ 1000`; `n = 10⁴` with
//! `m ≤ 3000`) across `θ ∈ {0.1, …, 0.4}`, with Wilson 95% intervals and
//! the Theorem 1 thresholds for the dashed verticals. Default scale runs
//! `n = 10³` with 20 trials; `--full` adds `n = 10⁴` and 100 trials.

use pooled_experiments::{output_dir, write_artifacts, Scale, DEFAULT_SEED, PAPER_THETAS};
use pooled_io::csv::fmt_f64;
use pooled_io::{Args, GnuplotScript, Manifest};
use pooled_stats::sweep::linear_grid;
use pooled_stats::{run_mn_sweep, SweepConfig};
use pooled_theory::thresholds::{k_of, m_mn, m_mn_finite};

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
                master_seed: seed ^ (n as u64) ^ (((theta * 1000.0) as u64) << 32),
            };
            for row in run_mn_sweep(&cfg) {
                rows.push(vec![
                    n.to_string(),
                    theta.to_string(),
                    row.m.to_string(),
                    fmt_f64(row.success_rate),
                    fmt_f64(row.success_ci.0),
                    fmt_f64(row.success_ci.1),
                    fmt_f64(row.mean_overlap),
                    fmt_f64(row.overlap_stddev),
                ]);
            }
            eprintln!("fig3: n={n} θ={theta} done (k={k})");
        }
    }

    let dir = output_dir(&args);
    let manifest = Manifest::new(
        "fig3",
        seed,
        scale.name(),
        serde_json::json!({"panels": panels, "thetas": PAPER_THETAS, "trials": trials}),
    );
    let n0 = panels[0].0;
    let mut gp = GnuplotScript::new(
        &format!("Fig. 3 — success rate over m (n = {n0})"),
        "number of tests m",
        "success rate",
    );
    for &theta in &PAPER_THETAS {
        gp = gp
            .series(
                "fig3.csv",
                &format!("($1=={n0} && $2=={theta}?$3:1/0):4"),
                &format!("theta = {theta}"),
                "linespoints",
            )
            .vertical_line(m_mn(n0, theta), &format!("m_MN(theta={theta})"));
        let _ = m_mn_finite(n0, theta); // documented alternative vertical
    }
    let header =
        ["n", "theta", "m", "success_rate", "ci_lo", "ci_hi", "mean_overlap", "overlap_sd"];
    let csv = write_artifacts(&dir, "fig3", &header, &rows, &manifest, Some(&gp));
    println!("fig3: wrote {}", csv.display());
}
