//! Ψ/Δ* by popcount over the entry bitmap, on every instruction arm the
//! running CPU has, vs the index gather over the transpose, by the number
//! of mixed weight bit-planes: the measurement behind the crossover
//! constants in `pooled_design::csr` (one for the AVX-512 arm, one for the
//! scalar arms), and behind serving the fastest arm at every row width.
//!
//! Shapes are the served ones at the paper's `c = ½` (`single_large`,
//! `cold_churn` and `cluster_tcp` of the repository benchmark: bitmap rows
//! of 14, 9 and 6 words) and a density sweep down to the bitmap's cutoff
//! of 1/32. Weights are uniform below `2^p`, so all `p` planes are mixed;
//! the served weights have up to 12 (`single_large`'s `y` has 5, and the
//! Bernoulli pool sizes Γ-general MN weighs by have 10–12). Everything
//! runs on one thread, as engine workers do.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pooled_design::csr::{CsrDesign, PopcountArm};
use pooled_rng::{Rng64, SeedSequence};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("popcount_vs_gather");
    group.sample_size(20);
    // (label, n, m, Γ): the served shapes at Γ = n/2 (distinct density
    // 1 − e^{−1/2} ≈ 0.39), then n = 10⁴ at falling pool sizes down to
    // Γ = n/31, whose density ≈ 0.032 sits just above the cutoff.
    let shapes = [
        ("n10000_m862_g2", 10_000usize, 862usize, 5_000usize),
        ("n4000_m564_g2", 4_000, 564, 2_000),
        ("n1000_m334_g2", 1_000, 334, 500),
        ("n10000_m862_g4", 10_000, 862, 2_500),
        ("n10000_m862_g8", 10_000, 862, 1_250),
        ("n10000_m862_g16", 10_000, 862, 625),
        ("n10000_m862_g31", 10_000, 862, 10_000 / 31),
    ];
    for (label, n, m, gamma) in shapes {
        let design = CsrDesign::sample(n, m, gamma, &SeedSequence::new(1905));
        assert!(design.has_bitmap(), "{label} must keep a bitmap");
        let (mut psi, mut dstar) = (vec![0u64; n], vec![0u64; n]);
        for planes in [1u32, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24] {
            let mut rng = SeedSequence::new(planes as u64).rng();
            let w: Vec<u64> = (0..m).map(|_| rng.next_u64() >> (64 - planes)).collect();
            pooled_par::pool::install_with_threads(1, || {
                group.bench_function(format!("index/{label}/p{planes}"), |b| {
                    b.iter(|| {
                        design.index_gather_distinct_into(&w, &mut psi, &mut dstar);
                        black_box(psi[0])
                    });
                });
                for arm in PopcountArm::available() {
                    let name = format!("{arm:?}").to_lowercase();
                    group.bench_function(format!("{name}/{label}/p{planes}"), |b| {
                        b.iter(|| {
                            design.popcount_distinct_into(&w, &mut psi, &mut dstar, arm);
                            black_box(psi[0])
                        });
                    });
                }
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
