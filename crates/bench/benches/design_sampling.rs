//! Sampling cost per design family, on one thread as an engine worker pays
//! it on a cache miss, plus the query execution paths: the dense walk
//! over every pool and the support's transpose rows (what workers run),
//! against seed-only regeneration.
//!
//! Sampling runs at `cold_churn`'s and `single_large`'s shapes of the
//! repository benchmark (n = 4000, m = 564 and n = 10⁴, m = 862, both at
//! the paper's `c = ½`) and at one sparse shape, n = 10⁵, m = 200,
//! `c = 0.005`, whose pools of Γ = 500 draws touch fewer than one in 64
//! words of the builder's bitset (Γ·64 < n).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pooled_core::query::{execute_queries, execute_queries_support_into};
use pooled_core::signal::Signal;
use pooled_design::csr::CsrDesign;
use pooled_design::factory::DesignKind;
use pooled_design::streaming::StreamingDesign;
use pooled_par::pool::install_with_threads;
use pooled_rng::SeedSequence;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("design");
    group.sample_size(10);
    let seeds = SeedSequence::new(1905);

    let shapes = [
        ("cold_churn", 4_000usize, 564usize, 0.5),
        ("single_large", 10_000, 862, 0.5),
        ("sparse", 100_000, 200, 0.005),
    ];
    install_with_threads(1, || {
        for (label, n, m, density) in shapes {
            for kind in DesignKind::ALL {
                group.bench_function(format!("sample/{}/{label}", kind.name()), |b| {
                    b.iter(|| black_box(kind.sample(n, m, density, &seeds)));
                });
            }
        }
    });

    let (n, m) = (20_000, 800);
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
