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
}
