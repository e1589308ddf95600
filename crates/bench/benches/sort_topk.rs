//! Sorting-step ablation (Lines 7–9 of Algorithm 1): parallel merge sort vs
//! the standard library's sort vs top-k selection on realistic score
//! vectors.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pooled_par::sort::par_merge_sort;
use pooled_par::topk::top_k_indices;
use pooled_rng::{Rng64, SeedSequence};

fn score_vector(n: usize, k: usize) -> Vec<i64> {
    let mut rng = SeedSequence::new(1905).rng();
    let mut scores: Vec<i64> = (0..n).map(|_| rng.below(2000) as i64 - 1000).collect();
    for _ in 0..k {
        scores[rng.index(n)] += 100_000;
    }
    scores
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection_step");
    group.sample_size(10);
    let n = 1_000_000;
    let k = 63; // ≈ n^0.3
    let scores = score_vector(n, k);

    group.bench_function("par_merge_sort_full", |b| {
        b.iter(|| {
            let mut v: Vec<(i64, u32)> =
                scores.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
            par_merge_sort(&mut v, |&(s, i)| (std::cmp::Reverse(s), i));
            v.truncate(k);
            black_box(());
        });
    });
    group.bench_function("std_sort_unstable_full", |b| {
        b.iter(|| {
            let mut v: Vec<(i64, u32)> =
                scores.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
            v.sort_unstable_by_key(|&(s, i)| (std::cmp::Reverse(s), i));
            v.truncate(k);
            black_box(());
        });
    });
    group.bench_function("parallel_top_k", |b| {
        b.iter(|| black_box(top_k_indices(&scores, k)));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
