//! Storage-mode ablation: materializing the CSR design vs regenerating
//! pools from seeds (the Fig. 2 large-n enabler), plus the two query
//! execution paths.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pooled_core::query::{execute_queries, execute_queries_support_into};
use pooled_core::signal::Signal;
use pooled_design::csr::CsrDesign;
use pooled_design::streaming::StreamingDesign;
use pooled_rng::SeedSequence;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("design");
    group.sample_size(10);
    let n = 20_000;
    let m = 800;
    let seeds = SeedSequence::new(1905);

    group.bench_function("sample_csr", |b| {
        b.iter(|| black_box(CsrDesign::sample(n, m, n / 2, &seeds)));
    });

    let csr = CsrDesign::sample(n, m, n / 2, &seeds);
    let stream = StreamingDesign::new(n, m, n / 2, &seeds);
    let sigma = Signal::random(n, 20, &mut seeds.child("signal", 0).rng());

    group.bench_function("execute_csr_dense", |b| {
        b.iter(|| black_box(execute_queries(&csr, &sigma)));
    });
    let mut y = vec![0; m];
    group.bench_function("execute_csr_support_into", |b| {
        b.iter(|| {
            execute_queries_support_into(&csr, black_box(sigma.support()), black_box(&mut y))
        });
    });
    group.bench_function("execute_streaming", |b| {
        b.iter(|| black_box(execute_queries(&stream, &sigma)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
