//! Decoder wall-clock comparison at a common instance size — the cost side
//! of the related-work table (accuracy side lives in `baselines_table`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pooled_baselines::amp::AmpDecoder;
use pooled_baselines::basis_pursuit::BasisPursuitDecoder;
use pooled_baselines::omp::OmpDecoder;
use pooled_baselines::peeling::{peel, sparse_design_for};
use pooled_baselines::AdditiveDecoder;
use pooled_core::mn::MnDecoder;
use pooled_core::query::execute_queries;
use pooled_core::signal::Signal;
use pooled_design::csr::CsrDesign;
use pooled_rng::SeedSequence;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoders");
    group.sample_size(10);
    let n = 200;
    let k = 5;
    let m = 120;
    let seeds = SeedSequence::new(1905);
    let design = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let y = execute_queries(&design, &sigma);

    group.bench_function("mn", |b| {
        b.iter(|| black_box(MnDecoder::new(k).decode(&design, &y)));
    });
    group.bench_function("omp", |b| {
        let dec = OmpDecoder::new();
        b.iter(|| black_box(dec.reconstruct(&design, &y, k)));
    });
    group.bench_function("amp", |b| {
        let dec = AmpDecoder::new();
        b.iter(|| black_box(dec.reconstruct(&design, &y, k)));
    });
    group.bench_function("basis_pursuit_lp", |b| {
        let dec = BasisPursuitDecoder::new();
        b.iter(|| black_box(dec.reconstruct(&design, &y, k)));
    });
    // Peeling runs on its own sparse design.
    let sparse = sparse_design_for(n, m, k, 1.0, &seeds.child("sparse", 0));
    let y_sparse = execute_queries(&sparse, &sigma);
    group.bench_function("peeling", |b| {
        b.iter(|| black_box(peel(&sparse, &y_sparse)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
