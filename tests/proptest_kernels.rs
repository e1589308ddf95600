//! Property-based equivalence of the sum kernels and the workspace
//! decoders against the plain query-by-query paths they replace.
//!
//! Everything here must be **bit-identical** — the kernels are exact `u64`
//! accumulations, so no tolerance is involved anywhere.

use proptest::prelude::*;

use pooled_data::core::mn::MnDecoder;
use pooled_data::core::mn_general::GeneralMnDecoder;
use pooled_data::core::query::execute_queries;
use pooled_data::core::workspace::MnWorkspace;
use pooled_data::design::csr::CsrDesign;
use pooled_data::design::matvec::{pool_sums_u64, scatter_distinct_u64};
use pooled_data::design::streaming::stream_sums_into;
use pooled_data::design::{distinct_sums_into, StreamingDesign};
use pooled_data::par::topk::top_k_indices_by_sort;
use pooled_data::prelude::*;

/// A dense 0/1 `u64` signal derived from a seeded `Signal`.
fn dense_u64(n: usize, k: usize, seeds: &SeedSequence) -> Vec<u64> {
    let sigma = Signal::random(n, k.min(n), &mut seeds.child("signal", 0).rng());
    sigma.dense().iter().map(|&b| b as u64).collect()
}

/// Rows of `(index, multiplicity)` pairs, one row per query or entry.
type Rows = Vec<Vec<(u32, u32)>>;

/// The sort → run-length construction the design builder replaced, kept
/// here as its oracle: per pool the ascending `(entry, multiplicity)`
/// runs of its sorted draws, and per entry the ascending
/// `(query, multiplicity)` pairs of the pools that contain it.
fn sorted_rle_reference(n: usize, pools: &[Vec<usize>]) -> (Rows, Rows) {
    let rows: Rows = pools
        .iter()
        .map(|pool| {
            let mut draws: Vec<u32> = pool.iter().map(|&e| e as u32).collect();
            draws.sort_unstable();
            let mut row: Vec<(u32, u32)> = Vec::new();
            for e in draws {
                match row.last_mut() {
                    Some((v, c)) if *v == e => *c += 1,
                    _ => row.push((e, 1)),
                }
            }
            row
        })
        .collect();
    let mut cols = vec![Vec::new(); n];
    for (q, row) in rows.iter().enumerate() {
        for &(e, c) in row {
            cols[e as usize].push((q as u32, c));
        }
    }
    (rows, cols)
}

/// `design` has exactly the oracle's rows for `pools`, both orientations,
/// the bitmap the oracle's density calls for, and the oracle's Ψ/Δ* for
/// the weights `w`.
fn assert_matches_reference(design: &CsrDesign, pools: &[Vec<usize>], w: &[u64]) {
    let (n, m) = (design.n(), design.m());
    let (rows, cols) = sorted_rle_reference(n, pools);
    assert_eq!(m, rows.len());
    let pairs = |(idx, mults): (&[u32], &[u32])| -> Vec<(u32, u32)> {
        idx.iter().copied().zip(mults.iter().copied()).collect()
    };
    for (q, row) in rows.iter().enumerate() {
        assert_eq!(&pairs(design.query_row(q)), row, "query {}", q);
    }
    for (i, col) in cols.iter().enumerate() {
        assert_eq!(&pairs(design.entry_row(i)), col, "entry {}", i);
    }
    let nnz: usize = rows.iter().map(Vec::len).sum();
    assert_eq!(design.has_bitmap(), m > 0 && 32 * nnz >= n * m);
    let (mut psi, mut dstar) = (vec![u64::MAX; n], vec![u64::MAX; n]);
    design.gather_distinct_into(w, &mut psi, &mut dstar);
    for (i, col) in cols.iter().enumerate() {
        assert_eq!(psi[i], col.iter().map(|&(q, _)| w[q as usize]).sum::<u64>(), "psi {}", i);
        assert_eq!(dstar[i], col.len() as u64, "dstar {}", i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The streaming pass, with the query execution folded in (one pool
    /// regeneration per query), is bit-identical to the two-pass
    /// `pool_sums_u64` + `scatter_distinct_u64` composition on the
    /// *streaming* representation, and the sum door's CSR gather agrees on
    /// the materialized twin.
    #[test]
    fn fused_stream_matches_two_pass(
        n in 4usize..200,
        m in 0usize..40,
        k in 0usize..15,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let gamma = (n / 2).max(1);
        let stream = StreamingDesign::new(n, m, gamma, &seeds.child("d", 0));
        let x = dense_u64(n, k, &seeds);
        let want_y = pool_sums_u64(&stream, &x);
        let (want_psi, want_dstar) = scatter_distinct_u64(&stream, &want_y);
        let (mut y, mut psi, mut dstar) = (vec![0; m], vec![u64::MAX; n], vec![u64::MAX; n]);
        stream_sums_into(&stream, &mut psi, &mut dstar, |q, pool| {
            y[q] = pool.iter().map(|&(e, c)| x[e as usize] * c as u64).sum();
            y[q]
        });
        prop_assert_eq!(&y, &want_y);
        prop_assert_eq!(&psi, &want_psi);
        prop_assert_eq!(&dstar, &want_dstar);
        // And the door's CSR kernel on the materialized twin agrees.
        let csr = stream.materialize();
        let (mut psi2, mut dstar2) = (vec![u64::MAX; n], vec![u64::MAX; n]);
        distinct_sums_into(&csr, &want_y, &mut psi2, &mut dstar2);
        prop_assert_eq!(psi2, want_psi);
        prop_assert_eq!(dstar2, want_dstar);
    }

    /// Sparse query execution over the support's transpose rows is
    /// bit-identical to the dense walk over every pool, on every design
    /// family, and overwrites whatever the output slice held before.
    #[test]
    fn support_queries_match_dense_queries(
        n in 2usize..250,
        m in 1usize..60,
        k in 0usize..20,
        c_milli in 1u32..=1000,
        seed in any::<u64>(),
    ) {
        use pooled_data::core::query::{execute_queries_dense_into, execute_queries_support_into};
        use pooled_data::design::factory::DesignKind;
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", 0).rng());
        let mut y = vec![u64::MAX; m];
        for kind in DesignKind::ALL {
            let design = kind.sample(n, m, c_milli as f64 / 1000.0, &seeds.child("d", 0));
            let mut want = Vec::new();
            execute_queries_dense_into(&design, sigma.dense(), &mut want);
            execute_queries_support_into(design.csr(), sigma.support(), &mut y);
            prop_assert_eq!(&y, &want, "{}", kind.name());
        }
    }

    /// The workspace decode produces the same estimate, scores, Ψ and Δ* as
    /// the allocating API, and the workspace can be reused across problem
    /// shapes.
    #[test]
    fn decode_with_matches_decode(
        n in 8usize..200,
        m in 1usize..40,
        k in 0usize..12,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let design = CsrDesign::sample(n, m, (n / 2).max(1), &seeds.child("d", 0));
        let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", 0).rng());
        let y = execute_queries(&design, &sigma);
        let want = MnDecoder::new(k).decode(&design, &y);
        let mut ws = MnWorkspace::new();
        MnDecoder::new(k).decode_with(&design, &y, &mut ws);
        prop_assert_eq!(ws.scores(), &want.scores[..]);
        prop_assert_eq!(ws.psi(), &want.psi[..]);
        prop_assert_eq!(ws.delta_star(), &want.delta_star[..]);
        prop_assert_eq!(ws.estimate_dense(), want.estimate.dense());
        // Reuse the same workspace on the general decoder.
        let want_general = GeneralMnDecoder::new(k).decode(&design, &y);
        GeneralMnDecoder::new(k).decode_with(&design, &y, &mut ws);
        prop_assert_eq!(ws.scores_wide(), &want_general.scores[..]);
        prop_assert_eq!(ws.estimate_dense(), want_general.estimate.dense());
    }

    /// The entry-bitmap popcount kernel, on every instruction arm the
    /// running CPU has, equals the index gather over the transpose: every
    /// family, densities on both sides of the 1/32 cutoff (below it the
    /// design keeps no bitmap and still sums), `m` on and around word
    /// boundaries (rows of 7, 8, 9, 14 and 17 words among them), `n = 1`
    /// and `n` from 10 to 159, mostly not a whole number of 8-entry
    /// groups, all-zero, constant and up to 40-bit weights.
    #[test]
    fn popcount_sums_match_the_index_gather(
        n_draw in 0usize..160,
        m_idx in 0usize..14,
        m_draw in 1usize..300,
        c_idx in 0usize..9,
        width in 0u32..=40,
        constant in 0u32..4,
        seed in any::<u64>(),
    ) {
        use pooled_data::design::csr::PopcountArm;
        use pooled_data::design::factory::DesignKind;
        let n = if n_draw < 10 { 1 } else { n_draw };
        let m = [1, 63, 64, 65, 128, 129, 448, 512, 513, 575, 862, 1025, m_draw, m_draw][m_idx];
        let c = [0.005, 0.01, 0.02, 0.03, 0.04, 0.06, 0.25, 0.5, 1.0][c_idx];
        let seeds = SeedSequence::new(seed);
        let mut rng = seeds.child("w", 0).rng();
        let w: Vec<u64> = if constant == 0 {
            vec![rng.next_u64() >> (64 - width.max(1)); m]
        } else {
            (0..m).map(|_| if width == 0 { 0 } else { rng.next_u64() >> (64 - width) }).collect()
        };
        for kind in DesignKind::ALL {
            let design = kind.sample(n, m, c, &seeds.child("d", 0));
            let csr = design.csr();
            prop_assert_eq!(csr.has_bitmap(), 32 * csr.nnz() >= n * m, "{}", kind.name());
            let (mut want_psi, mut want_dstar) = (vec![0u64; n], vec![0u64; n]);
            csr.index_gather_distinct_into(&w, &mut want_psi, &mut want_dstar);
            let (mut psi, mut dstar) = (vec![u64::MAX; n], vec![u64::MAX; n]);
            csr.gather_distinct_into(&w, &mut psi, &mut dstar);
            prop_assert_eq!(&psi, &want_psi, "{} auto", kind.name());
            prop_assert_eq!(&dstar, &want_dstar, "{} auto", kind.name());
            if csr.has_bitmap() {
                for arm in PopcountArm::available() {
                    let (mut psi, mut dstar) = (vec![u64::MAX; n], vec![u64::MAX; n]);
                    csr.popcount_distinct_into(&w, &mut psi, &mut dstar, arm);
                    prop_assert_eq!(&psi, &want_psi, "{} {:?}", kind.name(), arm);
                    prop_assert_eq!(&dstar, &want_dstar, "{} {:?}", kind.name(), arm);
                }
            }
        }
    }

    /// The visiting door calls its visitor exactly once per entry, in
    /// ascending order, with the entry's final Ψ/Δ* (the index gather's)
    /// and never past `n`: on every family (by popcount where a bitmap is
    /// kept, on every arm this CPU has, and by the index gather where it
    /// is not), on the streaming twin, and in 1- and 2-thread pools, with
    /// up to 40 mixed planes (two passes at `m = 1025`).
    #[test]
    fn visiting_sums_visit_each_entry_once_with_its_final_sums(
        n_draw in 0usize..160,
        m_idx in 0usize..8,
        m_draw in 1usize..300,
        c_idx in 0usize..5,
        width in 0u32..=40,
        threads in 1usize..=2,
        seed in any::<u64>(),
    ) {
        use pooled_data::design::csr::PopcountArm;
        use pooled_data::design::distinct_sums_visit;
        use pooled_data::design::factory::DesignKind;
        use pooled_data::par::pool::install_with_threads;
        let n = if n_draw < 10 { 1 } else { n_draw };
        let m = [1, 64, 65, 448, 513, 1025, m_draw, m_draw][m_idx];
        let c = [0.01, 0.04, 0.25, 0.5, 1.0][c_idx];
        let seeds = SeedSequence::new(seed);
        let mut rng = seeds.child("w", 0).rng();
        let w: Vec<u64> =
            (0..m).map(|_| if width == 0 { 3 } else { rng.next_u64() >> (64 - width) }).collect();
        type Visiting<'a> = dyn FnMut(&mut [u64], &mut [u64], &mut dyn FnMut(usize, u64, u64)) + Send + 'a;
        let visits = |call: &mut Visiting| {
            let (mut psi, mut dstar, mut seen) = (vec![u64::MAX; n], vec![u64::MAX; n], Vec::new());
            install_with_threads(threads, || call(&mut psi, &mut dstar, &mut |i, p, d| seen.push((i, p, d))));
            (seen, psi, dstar)
        };
        let gamma = ((c * n as f64).round() as usize).clamp(1, n);
        let stream = StreamingDesign::new(n, m, gamma, &seeds.child("d", 0));
        let (want_psi, want_dstar) = scatter_distinct_u64(&stream, &w);
        let want_seen: Vec<_> = (0..n).map(|i| (i, want_psi[i], want_dstar[i])).collect();
        let want = (want_seen, want_psi, want_dstar);
        let got = visits(&mut |p, s, v| distinct_sums_visit(&stream, &w, p, s, v));
        prop_assert!(got == want, "streaming");
        for kind in DesignKind::ALL {
            let design = kind.sample(n, m, c, &seeds.child("d", 0));
            let (psi, dstar) = scatter_distinct_u64(&design, &w);
            let want = ((0..n).map(|i| (i, psi[i], dstar[i])).collect::<Vec<_>>(), psi, dstar);
            let got = visits(&mut |p, s, v| distinct_sums_visit(&design, &w, p, s, v));
            prop_assert!(got == want, "{} served", kind.name());
            let csr = design.csr();
            if csr.has_bitmap() {
                for arm in PopcountArm::available() {
                    let got = visits(&mut |p, s, v| csr.popcount_distinct_visit(&w, p, s, arm, v));
                    prop_assert!(got == want, "{} {:?}", kind.name(), arm);
                }
            }
        }
    }

    /// Each served decoder's observer sees exactly the scores its
    /// workspace holds after the decode, in entry order, and the observed
    /// decode selects what the plain workspace decode selects: on every
    /// family and the streaming twin, in 1- and 2-thread pools.
    #[test]
    fn observed_decodes_observe_exactly_their_scores(
        n in 2usize..200,
        m in 1usize..700,
        k in 0usize..10,
        c_idx in 0usize..3,
        threads in 1usize..=2,
        seed in any::<u64>(),
    ) {
        use pooled_data::design::factory::DesignKind;
        use pooled_data::par::pool::install_with_threads;
        use pooled_data::threshold::ThresholdMnDecoder;
        let c = [0.02, 0.5, 1.0][c_idx];
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", 0).rng());
        let gamma = ((c * n as f64).round() as usize).clamp(1, n);
        let stream = StreamingDesign::new(n, m, gamma, &seeds.child("d", 0));
        let families: Vec<_> =
            DesignKind::ALL.iter().map(|kind| kind.sample(n, m, c, &seeds.child("d", 0))).collect();
        let mut designs: Vec<&dyn PoolingDesign> =
            families.iter().map(|d| d as &dyn PoolingDesign).collect();
        designs.push(&stream);
        let (mut ws, mut plain) = (MnWorkspace::new(), MnWorkspace::new());
        for design in designs {
            let y = execute_queries(design, &sigma);
            let bits: Vec<u64> = y.iter().map(|&v| u64::from(v * 2 > k as u64)).collect();
            install_with_threads(threads, || {
                let mut seen = Vec::new();
                MnDecoder::new(k).decode_observed(design, &y, &mut ws, |s| seen.push(s));
                MnDecoder::new(k).decode_with(design, &y, &mut plain);
                assert_eq!(seen, ws.scores(), "mn");
                assert_eq!(ws.support(), plain.support(), "mn");
                let mut seen = Vec::new();
                GeneralMnDecoder::new(k).decode_observed(design, &y, &mut ws, |s| seen.push(s));
                GeneralMnDecoder::new(k).decode_with(design, &y, &mut plain);
                assert_eq!(seen, ws.scores_wide(), "mn_general");
                assert_eq!(ws.support(), plain.support(), "mn_general");
                let mut seen = Vec::new();
                ThresholdMnDecoder::new(k).decode_observed(design, &bits, &mut ws, |s| seen.push(s));
                ThresholdMnDecoder::new(k).decode_with(design, &bits, &mut plain);
                assert_eq!(seen, ws.scores(), "threshold_mn");
                assert_eq!(ws.support(), plain.support(), "threshold_mn");
            });
        }
    }

    /// Every decoder's workspace entry, on every family and on the
    /// streaming twin of the random regular design, reproduces its
    /// reference: Ψ/Δ* scattered query by query (`scatter_distinct_u64`),
    /// scored by the decoder's formula, and ranked by a full sort
    /// (`top_k_indices_by_sort`).
    #[test]
    fn csr_decoders_match_their_scatter_twins(
        n in 2usize..200,
        m in 1usize..140,
        k in 0usize..10,
        c_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        use pooled_data::baselines::control::PsiOnlyDecoder;
        use pooled_data::design::factory::DesignKind;
        use pooled_data::threshold::ThresholdMnDecoder;
        let c = [0.02, 0.1, 0.5, 1.0][c_idx];
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", 0).rng());
        let gamma = ((c * n as f64).round() as usize).clamp(1, n);
        let stream = StreamingDesign::new(n, m, gamma, &seeds.child("d", 0));
        let families: Vec<_> =
            DesignKind::ALL.iter().map(|kind| kind.sample(n, m, c, &seeds.child("d", 0))).collect();
        let mut designs: Vec<(&str, &dyn PoolingDesign)> =
            families.iter().map(|d| (d.kind().name(), d as &dyn PoolingDesign)).collect();
        designs.push(("streaming", &stream));
        let mut ws = MnWorkspace::new();
        for (name, design) in designs {
            let y = execute_queries(design, &sigma);
            let (psi, dstar) = scatter_distinct_u64(design, &y);
            let ranked = |scores: &[i64]| top_k_indices_by_sort(scores, k);
            let ascending = |scores: &[i64]| {
                let mut support = ranked(scores);
                support.sort_unstable();
                support
            };

            let scores: Vec<i64> =
                psi.iter().zip(&dstar).map(|(&p, &d)| 2 * p as i64 - k as i64 * d as i64).collect();
            MnDecoder::new(k).decode_with(design, &y, &mut ws);
            prop_assert_eq!(ws.psi(), &psi[..], "{} mn", name);
            prop_assert_eq!(ws.delta_star(), &dstar[..], "{} mn", name);
            prop_assert_eq!(ws.scores(), &scores[..], "{} mn", name);
            prop_assert_eq!(ws.support(), &ranked(&scores)[..], "{} mn", name);

            let pool_lens: Vec<u64> = (0..m).map(|q| design.pool_len(q) as u64).collect();
            let (gamma_sums, _) = scatter_distinct_u64(design, &pool_lens);
            let wide: Vec<i128> = psi
                .iter()
                .zip(&gamma_sums)
                .map(|(&p, &g)| n as i128 * p as i128 - k as i128 * g as i128)
                .collect();
            let narrow: Vec<i64> = wide.iter().map(|&s| i64::try_from(s).unwrap()).collect();
            GeneralMnDecoder::new(k).decode_with(design, &y, &mut ws);
            prop_assert_eq!(ws.scores_wide(), &wide[..], "{} mn_general", name);
            prop_assert_eq!(ws.support(), &ranked(&narrow)[..], "{} mn_general", name);

            let t = y.iter().sum::<u64>() / m as u64;
            let bits: Vec<u64> = y.iter().map(|&v| u64::from(v > t)).collect();
            let (psi_pos, dstar_pos) = scatter_distinct_u64(design, &bits);
            let positives = bits.iter().sum::<u64>() as i64;
            let scores: Vec<i64> = psi_pos
                .iter()
                .zip(&dstar_pos)
                .map(|(&p, &d)| m as i64 * p as i64 - positives * d as i64)
                .collect();
            ThresholdMnDecoder::new(k).decode_with(design, &bits, &mut ws);
            prop_assert_eq!(ws.psi(), &psi_pos[..], "{} threshold_mn", name);
            prop_assert_eq!(ws.scores(), &scores[..], "{} threshold_mn", name);
            prop_assert_eq!(ws.support(), &ascending(&scores)[..], "{} threshold_mn", name);

            let scores: Vec<i64> = psi.iter().map(|&p| p as i64).collect();
            PsiOnlyDecoder::new().decode_with(design, &y, k, &mut ws);
            prop_assert_eq!(ws.scores(), &scores[..], "{} psi_only", name);
            prop_assert_eq!(ws.support(), &ascending(&scores)[..], "{} psi_only", name);
        }
    }

    /// The sort-free builder behind every constructor reproduces the sort
    /// → run-length oracle: `from_pools` on random unsorted pools of 0 to
    /// 3n draws (so multiplicities of 3 and more occur), both below and
    /// above n/64 draws, at n on and around a bitset word and m from 0,
    /// and `CsrDesign::sample` on the draws its substreams replay.
    #[test]
    fn design_builder_matches_the_sorted_rle_oracle(
        n_idx in 0usize..8,
        n_draw in 1usize..3000,
        m_idx in 0usize..6,
        m_draw in 0usize..40,
        seed in any::<u64>(),
    ) {
        let n = [1, 63, 64, 65, n_draw, n_draw, n_draw, n_draw][n_idx];
        let m = [0, 1, 63, 64, 65, m_draw][m_idx];
        let seeds = SeedSequence::new(seed);
        let mut rng = seeds.child("pools", 0).rng();
        let pools: Vec<Vec<usize>> = (0..m)
            .map(|_| {
                let draws = if rng.below(2) == 0 {
                    rng.below(n as u64 / 64 + 2)
                } else {
                    rng.below(3 * n as u64 + 1)
                };
                (0..draws).map(|_| rng.below(n as u64) as usize).collect()
            })
            .collect();
        let w: Vec<u64> = (0..m).map(|_| rng.below(1 << 12)).collect();
        let design = CsrDesign::from_pools(n, &pools);
        prop_assert_eq!(design.gamma(), pools.first().map_or(0, Vec::len));
        assert_matches_reference(&design, &pools, &w);

        let gamma = rng.below(3 * n as u64 + 1) as usize;
        let stream = StreamingDesign::new(n, m, gamma, &seeds);
        let replayed: Vec<Vec<usize>> = (0..m)
            .map(|q| {
                let mut pool = Vec::new();
                stream.visit_draws(q, |e| pool.push(e));
                pool
            })
            .collect();
        let sampled = CsrDesign::sample(n, m, gamma, &seeds);
        prop_assert_eq!(sampled.gamma(), gamma);
        assert_matches_reference(&sampled, &replayed, &w);
    }
}

/// The arm `gather_distinct_into` serves is the fastest one this CPU has,
/// as detected here apart from `PopcountArm`'s own checks. The printed
/// line names the arms every kernel test above ran on this host: a host
/// without AVX-512 tests only the `popcnt` and portable arms.
#[test]
fn served_popcount_arm_is_the_best_available() {
    use pooled_data::design::csr::PopcountArm;
    let arms: Vec<PopcountArm> = PopcountArm::available().collect();
    println!("popcount arms on this host: {arms:?}");
    #[cfg(target_arch = "x86_64")]
    let best = if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
    {
        PopcountArm::Avx512
    } else if is_x86_feature_detected!("popcnt") {
        PopcountArm::Popcnt
    } else {
        PopcountArm::Portable
    };
    #[cfg(not(target_arch = "x86_64"))]
    let best = PopcountArm::Portable;
    assert_eq!(PopcountArm::best(), best);
    assert_eq!(arms.first(), Some(&best));
    assert_eq!(arms.last(), Some(&PopcountArm::Portable));
}
