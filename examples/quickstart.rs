//! Quickstart: reconstruct a sparse binary signal from parallel pooled
//! queries in ~20 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pooled_data::prelude::*;

fn main() {
    // Hidden signal: n entries, k of them are ones (k = n^0.3 regime).
    let n = 2_000;
    let k = 10;
    let seeds = SeedSequence::new(1905);
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());

    // How many parallel queries does Theorem 1 ask for? At n this small the
    // finite-size Remark's correction still underestimates slightly, so run
    // with a comfortable 1.7× margin.
    let theta = (k as f64).ln() / (n as f64).ln();
    let m = (1.7 * thresholds::m_mn_finite(n, theta)).ceil() as usize;
    println!("n = {n}, k = {k} (θ ≈ {theta:.2}); running m = {m} parallel queries");

    // Sample the design, execute all queries at once, decode greedily.
    let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
    let y = execute_queries(&design, &sigma);
    let out = MnDecoder::new(k).decode(&design, &y);

    println!("true support:      {:?}", sigma.support());
    println!("recovered support: {:?}", out.estimate.support());
    assert_eq!(out.estimate, sigma, "exact recovery expected at this m");
    println!("exact recovery ✓");
}
