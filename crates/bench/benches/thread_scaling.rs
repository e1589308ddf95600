//! Thread-scaling of the parallel reconstruction (§I-C “Parallelized
//! Reconstruction”): the same decode under 1, 2, 4, 8 rayon workers.
//!
//! Pools come from `pooled_par::pool::pool_with_threads`, each built once
//! outside the measured iterations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pooled_core::mn::MnDecoder;
use pooled_core::query::execute_queries;
use pooled_core::signal::Signal;
use pooled_design::CsrDesign;
use pooled_par::pool::pool_with_threads;
use pooled_rng::SeedSequence;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("thread_scaling_decode");
    group.sample_size(10);
    let n = 100_000;
    let k = 32;
    let m = 2500;
    let seeds = SeedSequence::new(1905);
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
    let y = execute_queries(&design, &sigma);
    for &threads in &[1usize, 2, 4, 8] {
        let pool = pool_with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &_threads| {
            b.iter(|| pool.install(|| black_box(MnDecoder::new(k).decode(&design, &y))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
