//! Property-based equivalence of the fused / blocked / workspace kernels
//! against the seed paths they replace.
//!
//! Everything here must be **bit-identical** — the kernels are exact `u64`
//! accumulations, so no tolerance is involved anywhere.

use proptest::prelude::*;

use pooled_data::core::batch::BatchWorkspace;
use pooled_data::core::mn::MnDecoder;
use pooled_data::core::mn_general::GeneralMnDecoder;
use pooled_data::core::query::execute_queries;
use pooled_data::core::workspace::MnWorkspace;
use pooled_data::design::batched::{decode_sums_fused_batch, decode_sums_fused_batch_stream};
use pooled_data::design::csr::CsrDesign;
use pooled_data::design::fused::{
    decode_sums_fused, decode_sums_fused_stream, scatter_distinct_into, FusedArena,
};
use pooled_data::design::matvec::{pool_sums_u64, scatter_distinct_u64};
use pooled_data::design::StreamingDesign;
use pooled_data::par::blocked::BlockedScatter;
use pooled_data::par::scatter::AtomicCounters;
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

    /// `decode_sums_fused` (CSR) is bit-identical to the two-pass
    /// `pool_sums_u64` + `scatter_distinct_u64` composition.
    #[test]
    fn fused_csr_matches_two_pass(
        n in 4usize..250,
        m in 0usize..60,
        k in 0usize..20,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let gamma = (n / 2).max(1);
        let design = CsrDesign::sample(n, m, gamma, &seeds.child("d", 0));
        let x = dense_u64(n, k, &seeds);
        let want_y = pool_sums_u64(&design, &x);
        let (want_psi, want_dstar) = scatter_distinct_u64(&design, &want_y);
        let mut arena = FusedArena::new();
        let (mut y, mut psi, mut dstar) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused(&design, &x, &mut y, &mut psi, &mut dstar, &mut arena);
        prop_assert_eq!(y, want_y);
        prop_assert_eq!(psi, want_psi);
        prop_assert_eq!(dstar, want_dstar);
    }

    /// The streaming fused variant (single pool regeneration per query) is
    /// bit-identical to the two-pass composition on the *streaming*
    /// representation, and to the CSR kernel on the materialized twin.
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
        let mut arena = FusedArena::new();
        let (mut y, mut psi, mut dstar) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused_stream(&stream, &x, &mut y, &mut psi, &mut dstar, &mut arena);
        prop_assert_eq!(&y, &want_y);
        prop_assert_eq!(&psi, &want_psi);
        prop_assert_eq!(&dstar, &want_dstar);
        // And the CSR kernel on the materialized twin agrees.
        let csr = stream.materialize();
        let (mut y2, mut psi2, mut dstar2) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused(&csr, &x, &mut y2, &mut psi2, &mut dstar2, &mut arena);
        prop_assert_eq!(y2, want_y);
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

    /// Blocked privatized scatter matches `AtomicCounters` on random
    /// designs (the decoder access pattern, both planes).
    #[test]
    fn blocked_scatter_matches_atomic(
        n in 2usize..300,
        m in 0usize..50,
        gamma in 1usize..80,
        seed in any::<u64>(),
    ) {
        let design = CsrDesign::sample(n, m, gamma, &SeedSequence::new(seed));
        let w: Vec<u64> = (0..m as u64).map(|q| q.wrapping_mul(2654435761) % 1000).collect();
        // Atomic reference.
        let psi_acc = AtomicCounters::new(n);
        let dstar_acc = AtomicCounters::new(n);
        for (q, &wq) in w.iter().enumerate() {
            pooled_data::design::PoolingDesign::for_each_distinct(&design, q, &mut |e, _| {
                psi_acc.add(e, wq);
                dstar_acc.incr(e);
            });
        }
        let (want_psi, want_dstar) = (psi_acc.into_vec(), dstar_acc.into_vec());
        // Blocked kernel.
        let mut blocked = BlockedScatter::new();
        let (mut psi, mut dstar) = (vec![0u64; n], vec![0u64; n]);
        blocked.scatter_pair(&mut psi, &mut dstar, m, |a, b, range| {
            for q in range {
                let wq = w[q];
                pooled_data::design::PoolingDesign::for_each_distinct(&design, q, &mut |e, _| {
                    a[e] += wq;
                    b[e] += 1;
                });
            }
        });
        prop_assert_eq!(&psi, &want_psi);
        prop_assert_eq!(&dstar, &want_dstar);
        // Heuristic dispatcher (any kernel it picks) agrees too.
        let mut arena = FusedArena::new();
        let (mut psi_h, mut dstar_h) = (vec![0u64; n], vec![0u64; n]);
        scatter_distinct_into(&design, &w, &mut psi_h, &mut dstar_h, &mut arena);
        prop_assert_eq!(psi_h, want_psi);
        prop_assert_eq!(dstar_h, want_dstar);
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

    /// The batched decode is bit-identical, lane by lane, to B independent
    /// `decode_csr_with` calls, for arbitrary B ∈ [1, 32], shapes and
    /// signals — reusing one batch workspace across cases.
    #[test]
    fn decode_batch_with_matches_independent_decodes(
        lanes in 1usize..=32,
        n in 8usize..160,
        m in 1usize..40,
        k in 0usize..10,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let design = CsrDesign::sample(n, m, (n / 2).max(1), &seeds.child("d", 0));
        // Lane-major stacked query results from independent signals.
        let mut ys = Vec::with_capacity(lanes * m);
        for b in 0..lanes {
            let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", b as u64).rng());
            ys.extend(execute_queries(&design, &sigma));
        }
        let decoder = MnDecoder::new(k);
        let mut bw = BatchWorkspace::new();
        let mut single = MnWorkspace::new();
        let mut visited = 0usize;
        let mut failure: Option<String> = None;
        decoder.decode_batch_with(&design, &ys, lanes, &mut bw, |lane, ws| {
            decoder.decode_csr_with(&design, &ys[lane * m..(lane + 1) * m], &mut single);
            if ws.scores() != single.scores()
                || ws.support() != single.support()
                || ws.psi() != single.psi()
                || ws.delta_star() != single.delta_star()
                || ws.estimate_dense() != single.estimate_dense()
            {
                failure.get_or_insert_with(|| format!("lane {lane} diverged"));
            }
            visited += 1;
        });
        prop_assert_eq!(failure, None);
        prop_assert_eq!(visited, lanes);
    }

    /// The batched trial kernels (CSR and streaming) match the single-job
    /// fused kernel lane by lane: same y, same Ψ, and one shared Δ*.
    #[test]
    fn batched_trial_kernels_match_fused_per_lane(
        lanes in 1usize..=16,
        n in 4usize..120,
        m in 0usize..30,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let gamma = (n / 2).max(1);
        let stream = StreamingDesign::new(n, m, gamma, &seeds.child("d", 0));
        let csr = stream.materialize();
        let xs: Vec<u8> = (0..lanes * n)
            .map(|i| u8::from((i as u64).wrapping_mul(seed | 1).is_multiple_of(3)))
            .collect();
        let (mut ys, mut psis, mut dstar) =
            (vec![0u64; lanes * m], vec![0u64; lanes * n], vec![0u64; n]);
        decode_sums_fused_batch(&csr, &xs, lanes, &mut ys, &mut psis, &mut dstar);
        let mut pool = Vec::new();
        let (mut ys_s, mut psis_s, mut dstar_s) =
            (vec![0u64; lanes * m], vec![0u64; lanes * n], vec![0u64; n]);
        decode_sums_fused_batch_stream(
            &stream, &xs, lanes, &mut ys_s, &mut psis_s, &mut dstar_s, &mut pool,
        );
        prop_assert_eq!(&ys, &ys_s);
        prop_assert_eq!(&psis, &psis_s);
        prop_assert_eq!(&dstar, &dstar_s);
        let mut arena = FusedArena::new();
        for b in 0..lanes {
            let x: Vec<u64> = xs[b * n..(b + 1) * n].iter().map(|&v| v as u64).collect();
            let (mut y, mut psi, mut ds) = (vec![0u64; m], vec![0u64; n], vec![0u64; n]);
            decode_sums_fused(&csr, &x, &mut y, &mut psi, &mut ds, &mut arena);
            prop_assert_eq!(&ys[b * m..(b + 1) * m], &y[..], "lane {} y", b);
            prop_assert_eq!(&psis[b * n..(b + 1) * n], &psi[..], "lane {} psi", b);
            prop_assert_eq!(&dstar, &ds, "lane {} dstar", b);
        }
    }

    /// The entry-bitmap popcount kernel, on both arms of its `popcnt`
    /// dispatch, equals the index gather over the transpose: every
    /// family, densities on both sides of the 1/32 cutoff (below it the
    /// design keeps no bitmap and still sums), `m` on and around word
    /// boundaries, `n = 1`, all-zero, constant and up to 40-bit weights.
    #[test]
    fn popcount_sums_match_the_index_gather(
        n_draw in 0usize..160,
        m_idx in 0usize..8,
        m_draw in 1usize..300,
        c_idx in 0usize..9,
        width in 0u32..=40,
        constant in 0u32..4,
        seed in any::<u64>(),
    ) {
        use pooled_data::design::csr::PopcountArm;
        use pooled_data::design::factory::DesignKind;
        let n = if n_draw < 10 { 1 } else { n_draw };
        let m = [1, 63, 64, 65, 128, 129, m_draw, m_draw][m_idx];
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
                for arm in [PopcountArm::Native, PopcountArm::Portable] {
                    let (mut psi, mut dstar) = (vec![u64::MAX; n], vec![u64::MAX; n]);
                    csr.popcount_distinct_into(&w, &mut psi, &mut dstar, arm);
                    prop_assert_eq!(&psi, &want_psi, "{} {:?}", kind.name(), arm);
                    prop_assert_eq!(&dstar, &want_dstar, "{} {:?}", kind.name(), arm);
                }
            }
        }
    }

    /// The served decoders' CSR entries (the popcount kernel where the
    /// design keeps a bitmap) reproduce their generic scatter twins on
    /// every family: the same scores and the same support.
    #[test]
    fn csr_decoders_match_their_scatter_twins(
        n in 2usize..200,
        m in 1usize..140,
        k in 0usize..10,
        c_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        use pooled_data::design::factory::DesignKind;
        use pooled_data::threshold::ThresholdMnDecoder;
        let c = [0.02, 0.1, 0.5, 1.0][c_idx];
        let seeds = SeedSequence::new(seed);
        let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", 0).rng());
        let mut ws = MnWorkspace::new();
        for kind in DesignKind::ALL {
            let design = kind.sample(n, m, c, &seeds.child("d", 0));
            let csr = design.csr();
            let y = execute_queries(&design, &sigma);
            let mn = MnDecoder::new(k);
            mn.decode_with(&design, &y, &mut ws);
            let (scores, support) = (ws.scores().to_vec(), ws.support().to_vec());
            mn.decode_csr_with(csr, &y, &mut ws);
            prop_assert_eq!(ws.scores(), &scores[..], "{} mn", kind.name());
            prop_assert_eq!(ws.support(), &support[..], "{} mn", kind.name());

            let general = GeneralMnDecoder::new(k);
            general.decode_with(&design, &y, &mut ws);
            let (scores, support) = (ws.scores_wide().to_vec(), ws.support().to_vec());
            general.decode_csr_with(csr, |q| design.pool_len(q), &y, &mut ws);
            prop_assert_eq!(ws.scores_wide(), &scores[..], "{} mn_general", kind.name());
            prop_assert_eq!(ws.support(), &support[..], "{} mn_general", kind.name());

            let t = y.iter().sum::<u64>() / m as u64;
            let bits: Vec<u8> = y.iter().map(|&v| u8::from(v > t)).collect();
            let want = ThresholdMnDecoder::new(k).decode(&design, &bits);
            let weights: Vec<u64> = bits.iter().map(|&b| b as u64).collect();
            ThresholdMnDecoder::new(k).decode_csr_with(csr, &weights, &mut ws);
            prop_assert_eq!(ws.scores(), &want.scores[..], "{} threshold_mn", kind.name());
            prop_assert_eq!(ws.support(), want.estimate.support(), "{} threshold_mn", kind.name());
            prop_assert_eq!(ws.psi(), &want.psi_pos[..], "{} threshold_mn", kind.name());
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
