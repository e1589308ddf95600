//! Parallel feature selection inspired by group testing (the paper's ML
//! motivation, ref. [33] Zhou et al., NeurIPS'14).
//!
//! Scenario: a model's quality gain is (approximately) additive in the
//! relevant features it sees. Evaluating a feature *pool* (train a cheap
//! probe model on that subset) returns how many relevant features the pool
//! contains — exactly an additive pooled query. All probe models train in
//! parallel; the MN decoder then names the relevant features.
//!
//! ```sh
//! cargo run --release --example feature_selection
//! ```

use pooled_data::core::metrics::Confusion;
use pooled_data::core::subset_select::SubsetSelectDecoder;
use pooled_data::prelude::*;

fn main() {
    // 5,000 candidate features, 12 actually relevant.
    let n_features = 5_000;
    let k_relevant = 12;
    let seeds = SeedSequence::new(7);
    let relevant = Signal::random(n_features, k_relevant, &mut seeds.child("truth", 0).rng());

    // Budget: how many probe models can we train in parallel?
    let theta = (k_relevant as f64).ln() / (n_features as f64).ln();
    let m = (1.25 * thresholds::m_mn_finite(n_features, theta)).ceil() as usize;
    println!("{n_features} candidate features, {k_relevant} relevant, {m} parallel probe models");

    // Each "probe model" scores its feature pool: the additive oracle.
    let design = RandomRegularDesign::sample(n_features, m, &seeds.child("design", 0));
    let scores = execute_queries(&design, &relevant);

    // Full reconstruction.
    let out = MnDecoder::new(k_relevant).decode(&design, &scores);
    let confusion = Confusion::compare(&relevant, &out.estimate);
    println!(
        "full MN decode: precision {:.3}, recall {:.3}",
        confusion.precision(),
        confusion.recall()
    );

    // High-confidence shortlist (Subset Select): features safe to ship now.
    let shortlist = SubsetSelectDecoder::new(k_relevant).with_margin(1.2).extract(&out);
    let precision = SubsetSelectDecoder::precision(&relevant, &shortlist);
    println!(
        "confident shortlist: {} features, precision {:.3}",
        shortlist.selected.len(),
        precision
    );
    assert!(precision >= 0.9, "shortlist should be high-precision");
}
