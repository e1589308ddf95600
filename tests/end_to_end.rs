//! Cross-crate integration tests: the full pipeline from design sampling
//! through decoding, exercising both storages and both entry points.

use pooled_data::core::metrics::overlap_fraction;
use pooled_data::core::workspace::MnWorkspace;
use pooled_data::design::matvec::scatter_distinct_u64;
use pooled_data::design::{CsrDesign, StreamingDesign};
use pooled_data::par::topk::top_k_indices_by_sort;
use pooled_data::prelude::*;
use pooled_data::stats::replicate::{mn_trial, run_trials};
use pooled_data::theory::thresholds::{k_of, m_mn_finite};

#[test]
fn recovery_at_theorem1_scale_multiple_thetas() {
    for &theta in &[0.2, 0.3, 0.4] {
        let n = 1500;
        let k = k_of(n, theta);
        let m = (1.4 * m_mn_finite(n, theta)).ceil() as usize;
        let master = SeedSequence::new(100 + (theta * 10.0) as u64);
        let outs = run_trials(&master, 8, |_, seeds| mn_trial(n, k, m, &seeds));
        let successes = outs.iter().filter(|o| o.exact).count();
        assert!(successes >= 6, "θ={theta}: only {successes}/8 recoveries at m={m}");
    }
}

#[test]
fn pipeline_equivalence_csr_vs_streaming_and_all_decode_paths() {
    let seeds = SeedSequence::new(555);
    let n = 1200;
    let k = 9;
    let m = 420;
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design_seeds = seeds.child("design", 0);
    let csr = RandomRegularDesign::Csr(CsrDesign::sample(n, m, n / 2, &design_seeds));
    let stream = RandomRegularDesign::Streaming(StreamingDesign::new(n, m, n / 2, &design_seeds));
    let y1 = execute_queries(&csr, &sigma);
    let y2 = execute_queries(&stream, &sigma);
    assert_eq!(y1, y2, "storage modes must produce identical observations");

    // The reference: Ψ/Δ* scattered query by query, scored, and ranked by
    // the faithful full sort of Algorithm 1's Lines 7–9.
    let (psi, dstar) = scatter_distinct_u64(&csr, &y1);
    let scores: Vec<i64> =
        psi.iter().zip(&dstar).map(|(&p, &d)| 2 * p as i64 - k as i64 * d as i64).collect();
    let ranked = top_k_indices_by_sort(&scores, k);

    let mut ws = MnWorkspace::new();
    for (design, y) in [(&csr, &y1), (&stream, &y2)] {
        let out = MnDecoder::new(k).decode(design, y);
        assert_eq!(out.scores, scores, "decode paths disagree");
        let mut support = ranked.clone();
        support.sort_unstable();
        assert_eq!(out.estimate.support(), &support[..], "decode paths disagree");
        MnDecoder::new(k).decode_with(design, y, &mut ws);
        assert_eq!(ws.scores(), &scores[..], "decode paths disagree");
        assert_eq!(ws.support(), &ranked[..], "decode paths disagree");
    }
}

#[test]
fn overlap_grows_monotonically_with_m_on_average() {
    let n = 800;
    let k = 7;
    let master = SeedSequence::new(77);
    let mut means = Vec::new();
    for &m in &[20usize, 80, 240, 480] {
        let outs =
            run_trials(&master.child("m", m as u64), 10, |_, seeds| mn_trial(n, k, m, &seeds));
        means.push(outs.iter().map(|o| o.overlap).sum::<f64>() / 10.0);
    }
    assert!(means[3] > means[0] + 0.3, "no learning curve: {means:?}");
    assert!(
        means.windows(2).filter(|w| w[1] + 0.10 < w[0]).count() == 0,
        "overlap regressed sharply along m: {means:?}"
    );
}

#[test]
fn facade_prelude_round_trip() {
    // The README example, verbatim semantics.
    let seeds = SeedSequence::new(1905);
    let n = 512;
    let k = 6;
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design = RandomRegularDesign::sample(n, 400, &seeds.child("design", 0));
    let y = execute_queries(&design, &sigma);
    let decoded = MnDecoder::new(k).decode(&design, &y);
    assert_eq!(decoded.estimate, sigma);
}

#[test]
fn weight_mismatch_degrades_gracefully() {
    // Decoder told k+2: estimate has k+2 ones but must contain the truth
    // at generous m.
    let seeds = SeedSequence::new(31);
    let n = 600;
    let k = 5;
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design = RandomRegularDesign::sample(n, 500, &seeds.child("design", 0));
    let y = execute_queries(&design, &sigma);
    let out = MnDecoder::new(k + 2).decode(&design, &y);
    assert_eq!(out.estimate.weight(), k + 2);
    assert_eq!(overlap_fraction(&sigma, &out.estimate), 1.0, "true support must be included");
}
