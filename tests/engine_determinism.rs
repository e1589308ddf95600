//! The engine's determinism contract, property-tested: a traffic mix
//! served by 1 worker and by `L` workers produces **bit-identical**
//! [`JobResult`] fingerprints for the same seeds — placement, scheduling,
//! queue sizing and cache temperature must all be invisible in results.
//!
//! Style follows `tests/proptest_kernels.rs`: randomized shapes, exact
//! equality everywhere (digests are `u64`s; no tolerances).

use proptest::prelude::*;

use pooled_data::design::factory::DesignKind;
use pooled_data::engine::engine::{Engine, EngineConfig};
use pooled_data::engine::job::{DecoderKind, Digest, JobResult};
use pooled_data::engine::traffic::LoadProfile;

/// Serve `specs`-worth of the profile on a fresh engine and return the
/// results (sorted by id — `run_batch` guarantees it).
fn serve(
    profile: &LoadProfile,
    jobs: usize,
    workers: usize,
    queue: usize,
    batch_window: usize,
) -> Vec<JobResult> {
    let engine = Engine::start(EngineConfig {
        workers,
        queue_capacity: queue,
        results_capacity: queue,
        design_cache_capacity: 4,
        batch_window,
    });
    let mut out = Vec::new();
    engine.run_batch(&profile.specs(jobs), &mut out);
    engine.shutdown();
    out
}

/// The deterministic projection of a result list.
fn fingerprints(results: &[JobResult]) -> Vec<(u64, u64)> {
    results.iter().map(|r| (r.id, r.fingerprint())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 1 worker vs L workers (with a random design-affinity batch
    /// window): bit-identical results for every decoder mix and design
    /// family, under deliberately tight queues (backpressure reordering
    /// and batching must not leak into results either).
    #[test]
    fn one_worker_and_l_workers_agree(
        seed in any::<u64>(),
        workers in 2usize..5,
        queue in 1usize..8,
        batch_window in 1usize..6,
        n in 150usize..400,
        design_idx in 0usize..4,
        jobs in 10usize..40,
    ) {
        let k = 4 + (seed % 4) as usize;
        let profile = LoadProfile {
            design_kind: DesignKind::ALL[design_idx],
            distinct_designs: 3,
            decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn, DecoderKind::ThresholdMn],
            query_cost: None,
            ..LoadProfile::default_mix(n, k, n / 2, seed)
        };
        let serial = serve(&profile, jobs, 1, queue, 1);
        let sharded = serve(&profile, jobs, workers, queue, batch_window);
        prop_assert_eq!(serial.len(), jobs);
        prop_assert_eq!(fingerprints(&serial), fingerprints(&sharded));
    }

    /// Cache temperature is invisible: replaying the same batch on the
    /// same (now warm) engine reproduces the cold-pass results exactly.
    #[test]
    fn warm_cache_replay_is_bit_identical(
        seed in any::<u64>(),
        workers in 1usize..4,
        jobs in 8usize..24,
    ) {
        let profile = LoadProfile {
            distinct_designs: 2,
            decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
            query_cost: None,
            ..LoadProfile::default_mix(250, 5, 120, seed)
        };
        let engine = Engine::start(EngineConfig {
            workers,
            queue_capacity: 8,
            results_capacity: 8,
            design_cache_capacity: 2,
            batch_window: 1,
        });
        let specs = profile.specs(jobs);
        let mut cold = Vec::new();
        engine.run_batch(&specs, &mut cold);
        let mut warm = Vec::new();
        engine.run_batch(&specs, &mut warm);
        let stats = engine.shutdown();
        prop_assert_eq!(fingerprints(&cold), fingerprints(&warm));
        // The second pass must have been served from cache: at most one
        // cold sample per design key per racing worker.
        prop_assert!(stats.cache_misses <= 2 * workers as u64);
    }
}

/// Deterministic spot check with the exact acceptance-shaped mix (the
/// three served decoders on a small instance) under a fixed set of worker
/// counts, queue sizes and batch windows.
#[test]
fn full_registry_mix_is_worker_count_invariant() {
    let profile = LoadProfile {
        distinct_designs: 2,
        decoders: DecoderKind::ALL.to_vec(),
        query_cost: None,
        ..LoadProfile::default_mix(120, 4, 80, 1905)
    };
    let a = serve(&profile, 18, 1, 4, 1);
    let b = serve(&profile, 18, 3, 4, 1);
    let c = serve(&profile, 18, 2, 2, 4);
    assert_eq!(fingerprints(&a), fingerprints(&b));
    assert_eq!(fingerprints(&a), fingerprints(&c));
    // Every decoder actually ran.
    for kind in DecoderKind::ALL {
        assert!(a.iter().any(|r| r.decoder == kind), "{} never served", kind.name());
    }
}

/// Shapes the golden test serves, as `(n, k, m, c_milli)`: `m = 192` fills
/// whole 64-query words, `m = 130` ends every bitmap row in a partial
/// word, and `c = 0.02` leaves the design's distinct density below 1/32.
const GOLDEN_SHAPES: [(usize, usize, usize, u32); 3] =
    [(300, 5, 192, 500), (257, 4, 130, 500), (400, 4, 200, 20)];

/// Combined fingerprints per family and served decoder, one per shape of
/// [`GOLDEN_SHAPES`]. They were recorded with the index-gather and scatter
/// kernels, so the popcount kernel has to reproduce them bit for bit.
const GOLDEN: [(DesignKind, DecoderKind, [u64; 3]); 12] = [
    (
        DesignKind::RandomRegular,
        DecoderKind::Mn,
        [5917118934687093198, 18333805586275226623, 9650041406764401277],
    ),
    (
        DesignKind::RandomRegular,
        DecoderKind::GeneralMn,
        [1349698366866213509, 11816234223677370875, 11753685030420885463],
    ),
    (
        DesignKind::RandomRegular,
        DecoderKind::ThresholdMn,
        [9536156515332741891, 16304423067891340082, 3621554851938248835],
    ),
    (
        DesignKind::NoReplace,
        DecoderKind::Mn,
        [17956127443493232747, 17748626684133724859, 16699163470311179011],
    ),
    (
        DesignKind::NoReplace,
        DecoderKind::GeneralMn,
        [14641897336944394504, 1095432069458437638, 634365187900052298],
    ),
    (
        DesignKind::NoReplace,
        DecoderKind::ThresholdMn,
        [1333701159554420145, 5764485530935234582, 9626410461972646252],
    ),
    (
        DesignKind::Bernoulli,
        DecoderKind::Mn,
        [10561541597813073146, 6642518716632163223, 17582158811047769534],
    ),
    (
        DesignKind::Bernoulli,
        DecoderKind::GeneralMn,
        [16160691666769839608, 1557966322741210035, 1066962056358720280],
    ),
    (
        DesignKind::Bernoulli,
        DecoderKind::ThresholdMn,
        [13390045664489892656, 2114652523550996281, 16021297438415963032],
    ),
    (
        DesignKind::EntryRegular,
        DecoderKind::Mn,
        [12092514369238036737, 14493373557115947937, 18169711126062015765],
    ),
    (
        DesignKind::EntryRegular,
        DecoderKind::GeneralMn,
        [6412858134498158443, 18171305912539983569, 2018841730218471010],
    ),
    (
        DesignKind::EntryRegular,
        DecoderKind::ThresholdMn,
        [7836626738575192886, 9804642717974727074, 12813353550721064735],
    ),
];

/// Absolute results, not just agreement between worker counts: a fixed
/// job list per family × served decoder × shape, folded into one digest
/// and compared with the constant recorded for it. A kernel change that
/// moved every result the same way would pass the tests above and fail
/// this one.
#[test]
fn served_decoders_reproduce_their_golden_fingerprints() {
    let mut got = Vec::new();
    for (kind, decoder, _) in GOLDEN {
        let mut per_shape = [0u64; 3];
        for (slot, &(n, k, m, c_milli)) in per_shape.iter_mut().zip(&GOLDEN_SHAPES) {
            let profile = LoadProfile {
                design_kind: kind,
                c_milli,
                distinct_designs: 2,
                decoders: vec![decoder],
                query_cost: None,
                ..LoadProfile::default_mix(n, k, m, 2017)
            };
            let mut digest = Digest::new();
            for r in serve(&profile, 6, 2, 4, 1) {
                digest.push(r.fingerprint());
            }
            *slot = digest.finish();
        }
        got.push((kind, decoder, per_shape));
    }
    assert_eq!(got, GOLDEN);
}
