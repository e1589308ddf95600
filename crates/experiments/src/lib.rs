#![warn(missing_docs)]

//! Shared infrastructure for the reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or table of the
//! paper (see DESIGN.md's per-experiment index). They share:
//!
//! * [`Scale`] — the `default` (laptop-minutes) vs `full` (paper-scale)
//!   parameter profiles;
//! * [`output_dir`] and [`write_artifacts`] — a common `results/` output
//!   directory with CSV + gnuplot + manifest per experiment;
//! * the θ grid of the evaluation section: `{0.1, 0.2, 0.3, 0.4}`.

use std::path::{Path, PathBuf};

use pooled_io::{Args, Manifest};

/// The θ values every figure of the paper sweeps.
pub const PAPER_THETAS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];

/// Default master seed (the paper's publication year + algorithm initials).
pub const DEFAULT_SEED: u64 = 1905;

/// Scale profile selected by `--full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale defaults: minutes, reproduces the *shape*.
    Default,
    /// Paper-scale grid (n up to 10⁶, 100 trials): hours.
    Full,
}

impl Scale {
    /// Read the scale from parsed arguments.
    pub fn from_args(args: &Args) -> Self {
        if args.flag("full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// Identifier for manifests.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

/// Resolve (and create) the output directory: `--out DIR` or `./results`.
///
/// # Panics
/// Panics when the directory cannot be created.
pub fn output_dir(args: &Args) -> PathBuf {
    let dir = PathBuf::from(args.get_str("out", "results"));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create output dir {dir:?}: {e}"));
    dir
}

/// Write the standard artifact triple: CSV, manifest, and (optionally) a
/// gnuplot script rendered by the caller.
///
/// # Panics
/// Panics on I/O failure — experiment runs should fail loudly.
pub fn write_artifacts(
    dir: &Path,
    experiment: &str,
    header: &[&str],
    rows: &[Vec<String>],
    manifest: &Manifest,
    gnuplot: Option<&pooled_io::GnuplotScript>,
) -> PathBuf {
    let csv_path = dir.join(format!("{experiment}.csv"));
    pooled_io::write_csv(&csv_path, header, rows)
        .unwrap_or_else(|e| panic!("writing {csv_path:?}: {e}"));
    manifest
        .write_to(dir.join(format!("{experiment}.manifest.json")))
        .unwrap_or_else(|e| panic!("writing manifest: {e}"));
    if let Some(gp) = gnuplot {
        gp.write_to(dir.join(format!("{experiment}.gp")))
            .unwrap_or_else(|e| panic!("writing gnuplot script: {e}"));
    }
    csv_path
}

/// Log-spaced `n` grid from `lo` to `hi` with `per_decade` points per
/// decade (deduplicated, ascending).
pub fn log_grid(lo: usize, hi: usize, per_decade: usize) -> Vec<usize> {
    assert!(lo >= 1 && hi >= lo && per_decade >= 1, "bad log grid spec");
    let mut out = Vec::new();
    let ratio = 10f64.powf(1.0 / per_decade as f64);
    let mut x = lo as f64;
    while x <= hi as f64 * 1.0001 {
        out.push(x.round() as usize);
        x *= ratio;
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_grid_covers_decades() {
        let g = log_grid(100, 100_000, 2);
        assert_eq!(g.first(), Some(&100));
        assert!(*g.last().unwrap() >= 100_000);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        // 2 per decade over 3 decades ⇒ 7 points.
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn scale_parsing() {
        let full = Args::parse(vec!["--full".to_string()]);
        let def = Args::parse(Vec::<String>::new());
        assert_eq!(Scale::from_args(&full), Scale::Full);
        assert_eq!(Scale::from_args(&def), Scale::Default);
        assert_eq!(Scale::Full.name(), "full");
    }

    #[test]
    fn paper_thetas_match_evaluation_section() {
        assert_eq!(PAPER_THETAS, [0.1, 0.2, 0.3, 0.4]);
    }
}
