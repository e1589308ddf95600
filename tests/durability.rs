//! The durable tier's correctness contract, end to end.
//!
//! Three layers, strictest first:
//!
//! 1. **WAL codec under damage** — property-tested: *every* truncation
//!    point and *every* single-bit flip of a write-ahead log recovers
//!    the exact valid record prefix (or errors cleanly) — never any
//!    other key set. Mirrors the transport codec's corruption proptests.
//! 2. **Crash recovery** — a durable engine dropped abruptly (the crash
//!    path: no shutdown checkpoint) restarts from its directory at full
//!    warmth: zero cold misses on its old working set, and result
//!    fingerprints **bit-identical** to a never-crashed run.
//! 3. **Storage-fault sweep** — deterministic crash-point / torn-write /
//!    bit-flip injection ([`StorageFault::roll`]) into the recovered
//!    directory across a seed sweep, pinning the headline invariant:
//!    recovery yields a correct prefix of the log or a clean error, and
//!    the recovered node's fingerprints never diverge.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pooled_data::design::factory::DesignKind;
use pooled_data::engine::cache::DesignKey;
use pooled_data::engine::durability::fault::StorageFault;
use pooled_data::engine::durability::wal::{
    decode_record, replay_dir, segment_paths, WalRecord, WalWriter,
};
use pooled_data::engine::durability::{recover, DurabilityConfig};
use pooled_data::engine::engine::{Engine, EngineConfig, EngineStats};
use pooled_data::engine::job::{DecoderKind, JobResult};
use pooled_data::engine::telemetry::{Metric, MetricsRegistry};
use pooled_data::engine::traffic::LoadProfile;

/// A fresh scratch directory under the OS temp dir, unique per process
/// and call.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pooled-durable-it-{}-{tag}-{seq}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Flat-copy a durability directory (WAL segments + snapshots).
fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("copy target");
    for entry in fs::read_dir(from).expect("source dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

fn key(seed: u64) -> DesignKey {
    DesignKey { n: 64, m: 16, kind: DesignKind::RandomRegular, c_milli: 500, seed }
}

/// Apply `records` the way replay does, returning the live key set.
fn apply_prefix(records: &[WalRecord], upto: usize) -> Vec<DesignKey> {
    let mut keys: Vec<DesignKey> = Vec::new();
    for record in &records[..upto] {
        match record {
            WalRecord::Admit(k) => {
                keys.retain(|have| have != k);
                keys.push(*k);
            }
            WalRecord::Evict(k) => keys.retain(|have| have != k),
            WalRecord::Stats(_) => {}
        }
    }
    keys
}

/// Write an admit/evict sequence derived from `ops` into one segment;
/// returns the decoded record list and the segment's bytes.
fn build_log(dir: &Path, ops: &[u64]) -> (Vec<WalRecord>, PathBuf, Vec<u8>) {
    let metrics = Arc::new(MetricsRegistry::new());
    let mut writer = WalWriter::open(dir, u64::MAX, false, metrics).expect("open WAL");
    let mut records = Vec::new();
    for &op in ops {
        // Small key space so evictions actually hit resident keys.
        let record =
            if op % 3 == 0 { WalRecord::Evict(key(op % 5)) } else { WalRecord::Admit(key(op % 5)) };
        writer.append(&record).expect("append");
        records.push(record);
    }
    drop(writer);
    let (_, path) = segment_paths(dir).expect("segments").pop().expect("one segment");
    let bytes = fs::read(&path).expect("segment bytes");
    (records, path, bytes)
}

/// Byte offset where each record ends, in order.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let (_, consumed) = decode_record(&bytes[at..]).expect("clean log");
        at += consumed;
        boundaries.push(at);
    }
    boundaries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every truncation point recovers the exact valid record prefix:
    /// the records wholly before the cut are applied, everything after
    /// is discarded, and a mid-record cut is flagged as a torn tail.
    #[test]
    fn every_wal_truncation_recovers_the_exact_valid_prefix(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        e in any::<u64>(), f in any::<u64>(), cut_sel in any::<u64>(),
    ) {
        let dir = scratch_dir("prop-trunc");
        let (records, path, bytes) = build_log(&dir, &[a, b, c, d, e, f]);
        let boundaries = record_boundaries(&bytes);
        let cut = (cut_sel % (bytes.len() as u64 + 1)) as usize;
        fs::write(&path, &bytes[..cut]).expect("truncate");
        let replay = replay_dir(&dir).expect("truncation is never a hard error");
        let whole = boundaries.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(&replay.keys, &apply_prefix(&records, whole));
        prop_assert_eq!(replay.records_replayed, whole as u64);
        let clean = cut == 0 || boundaries.contains(&cut);
        prop_assert_eq!(replay.torn_tail, !clean, "cut at {} of {:?}", cut, boundaries);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Every single-bit flip stops replay exactly at the damaged record:
    /// the prefix before it survives, nothing after it is applied, and
    /// the outcome is never some other key set.
    #[test]
    fn every_wal_bit_flip_recovers_the_prefix_before_the_damage(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        e in any::<u64>(), f in any::<u64>(), flip_sel in any::<u64>(), flip_bit in 0u32..8,
    ) {
        let dir = scratch_dir("prop-flip");
        let (records, path, bytes) = build_log(&dir, &[a, b, c, d, e, f]);
        let boundaries = record_boundaries(&bytes);
        let flip = (flip_sel % bytes.len() as u64) as usize;
        let mut damaged = bytes.clone();
        damaged[flip] ^= 1 << flip_bit;
        fs::write(&path, &damaged).expect("corrupt");
        let replay = replay_dir(&dir).expect("last-segment damage is a torn tail, not a hard error");
        // The record holding the flipped byte is the first rejected one.
        let whole = boundaries.iter().filter(|&&end| end <= flip).count();
        prop_assert_eq!(&replay.keys, &apply_prefix(&records, whole));
        prop_assert!(replay.torn_tail, "flip at byte {} bit {} went undetected", flip, flip_bit);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A small, fast profile mixing decoders over two distinct designs.
fn profile(seed: u64) -> LoadProfile {
    LoadProfile {
        distinct_designs: 2,
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(300, 5, 180, seed)
    }
}

fn config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 32,
        results_capacity: 32,
        design_cache_capacity: 8,
        batch_window: 1,
    }
}

fn fingerprints(results: &[JobResult]) -> Vec<(u64, u64)> {
    results.iter().map(|r| (r.id, r.fingerprint())).collect()
}

/// Serve `jobs` of the profile on a non-durable engine (ground truth).
fn serve_cold(p: &LoadProfile, jobs: usize) -> (Vec<JobResult>, EngineStats) {
    let engine = Engine::start(config());
    let mut out = Vec::new();
    engine.run_batch(&p.specs(jobs), &mut out);
    let stats = engine.shutdown();
    (out, stats)
}

/// Serve on a durable engine; returns results, live stats, and the
/// engine itself so the caller chooses crash (drop) vs clean shutdown.
fn serve_durable(dir: &Path, p: &LoadProfile, jobs: usize) -> (Vec<JobResult>, Engine) {
    let engine =
        Engine::start_durable(config(), DurabilityConfig::new(dir)).expect("durable start");
    let mut out = Vec::new();
    engine.run_batch(&p.specs(jobs), &mut out);
    (out, engine)
}

#[test]
fn crash_recovery_is_warm_and_bit_identical_to_a_never_crashed_run() {
    let p = profile(2201);
    let jobs = 24;
    let (want, cold_stats) = serve_cold(&p, jobs);
    let want = fingerprints(&want);
    assert!(cold_stats.cache_misses > 0, "cold run must pay cold misses");

    let dir = scratch_dir("crash-warm");
    let (first, engine) = serve_durable(&dir, &p, jobs);
    assert_eq!(fingerprints(&first), want, "durable serving must not change results");
    let pre_crash = engine.stats();
    assert!(engine.metrics().get(Metric::WalAppends) > 0, "admissions must hit the WAL");
    drop(engine); // crash: no shutdown checkpoint

    // The replacement reaches full warmth before its first job: the
    // whole profile serves without one cold miss, and fingerprints are
    // bit-identical to the never-crashed ground truth.
    let (second, recovered) = serve_durable(&dir, &p, jobs);
    assert_eq!(fingerprints(&second), want, "recovered node diverged from ground truth");
    let stats = recovered.stats();
    assert_eq!(stats.cache_misses, 0, "recovered node paid cold misses: {stats:?}");
    assert!(stats.cache_hits > 0);
    assert!(
        stats.cache_hit_rate() >= pre_crash.cache_hit_rate(),
        "recovery must reach at least the pre-crash warm hit rate"
    );
    assert!(recovered.metrics().get(Metric::RecoveryRecordsReplayed) > 0);
    recovered.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn live_prewarms_survive_a_clean_shutdown() {
    // A live prewarm only queues its keys for the engine's sampler; a
    // clean shutdown samples them before its checkpoint, so the next
    // incarnation serves those keys without a cold miss.
    let p = profile(4409);
    let specs = p.specs(12);
    let keys: Vec<DesignKey> = specs.iter().map(|s| s.design_key()).collect();
    let dir = scratch_dir("live-prewarm");
    let engine =
        Engine::start_durable(config(), DurabilityConfig::new(&dir)).expect("durable start");
    engine.prewarm(&keys);
    let first = engine.shutdown();
    assert_eq!((first.cache_hits, first.cache_misses), (0, 0), "prewarming is not traffic");

    let engine =
        Engine::start_durable(config(), DurabilityConfig::new(&dir)).expect("durable restart");
    let mut out = Vec::new();
    engine.run_batch(&specs, &mut out);
    let stats = engine.shutdown();
    assert_eq!(out.len(), specs.len());
    assert_eq!(stats.cache_misses, 0, "the prewarmed keys must be warm after the restart");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stats_and_histograms_survive_a_clean_restart_cycle() {
    let p = profile(3307);
    let dir = scratch_dir("stats-survive");

    let (_, engine) = serve_durable(&dir, &p, 12);
    let run1 = engine.shutdown(); // clean: checkpoints cumulative stats
    assert_eq!(run1.jobs_completed, 12);
    assert_eq!(run1.histogram.count(), 12);

    let (_, engine) = serve_durable(&dir, &p, 12);
    let merged = engine.stats();
    assert_eq!(merged.jobs_completed, 24, "restart must keep counting, not reset");
    assert_eq!(merged.histogram.count(), 24, "latency histogram must merge across restarts");
    assert_eq!(merged.total_latency.count(), 24);
    assert_eq!(merged.exact_recoveries, run1.exact_recoveries * 2, "same jobs, same outcomes");
    assert_eq!(merged.cache_misses, run1.cache_misses, "second run is fully warm");
    let run2 = engine.shutdown();

    // And the cycle composes: a third incarnation sees both runs.
    let (_, engine) = serve_durable(&dir, &p, 12);
    let third = engine.stats();
    assert_eq!(third.jobs_completed, 36);
    assert_eq!(third.histogram.count(), 36);
    assert!(third.total_latency.mean() > 0.0);
    assert_eq!(run2.jobs_completed, 24);
    engine.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn storage_fault_sweep_recovers_a_correct_prefix_never_a_wrong_design() {
    let p = profile(4403);
    let jobs = 16;
    let (want, _) = serve_cold(&p, jobs);
    let want = fingerprints(&want);

    // Build one healthy durability directory, then crash.
    let healthy = scratch_dir("sweep-healthy");
    let (_, engine) = serve_durable(&healthy, &p, jobs);
    let full_keys = {
        let replay = replay_dir(&healthy).expect("healthy replay");
        drop(engine); // crash after reading: replay keys are the admitted set
        replay.keys
    };
    assert!(!full_keys.is_empty());

    for seed in 0..24u64 {
        let damaged = scratch_dir(&format!("sweep-{seed}"));
        copy_dir(&healthy, &damaged);
        let (_, segment) =
            segment_paths(&damaged).expect("segments").pop().expect("at least one segment");
        let len = fs::metadata(&segment).expect("segment meta").len();
        let fault = StorageFault::roll(seed, len);
        pooled_data::engine::durability::fault::inject(&segment, &fault).expect("inject");

        // Damage to the newest segment is always the torn-tail shape:
        // recovery must succeed with a prefix of the admitted keys.
        let metrics = MetricsRegistry::new();
        let rec = recover(&DurabilityConfig::new(&damaged), &metrics)
            .unwrap_or_else(|e| panic!("seed {seed} ({fault:?}): tail damage must recover: {e}"));
        assert!(
            rec.keys.len() <= full_keys.len() && rec.keys.iter().all(|k| full_keys.contains(k)),
            "seed {seed} ({fault:?}): recovered keys are not a subset of the admitted set"
        );

        // And a node started from the damaged directory serves the
        // exact ground-truth fingerprints (missing keys just resample).
        let (results, engine) = serve_durable(&damaged, &p, jobs);
        assert_eq!(
            fingerprints(&results),
            want,
            "seed {seed} ({fault:?}): recovered node fingerprints diverged"
        );
        engine.shutdown();
        fs::remove_dir_all(&damaged).expect("cleanup");
    }
    fs::remove_dir_all(&healthy).expect("cleanup");
}

#[test]
fn corruption_behind_surviving_history_is_a_clean_refusal() {
    // A corrupt record *before* intact segments cannot satisfy the
    // prefix rule: the durable constructor must refuse with a clean
    // error — serving from a guessed key set is the one forbidden
    // outcome.
    let dir = scratch_dir("refuse");
    let metrics = Arc::new(MetricsRegistry::new());
    let mut writer = WalWriter::open(&dir, u64::MAX, false, metrics).expect("open WAL");
    writer.append(&WalRecord::Admit(key(1))).expect("append");
    writer.rotate().expect("rotate");
    writer.append(&WalRecord::Admit(key(2))).expect("append");
    drop(writer);
    let (_, first) = segment_paths(&dir).expect("segments").remove(0);
    let mut bytes = fs::read(&first).expect("first segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    fs::write(&first, bytes).expect("corrupt first segment");

    let err = Engine::start_durable(config(), DurabilityConfig::new(&dir))
        .err()
        .expect("corrupt history must refuse to start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupt_design_snapshots_are_rejected_and_resampled_not_served() {
    let p = profile(5501);
    let jobs = 16;
    let (want, _) = serve_cold(&p, jobs);
    let want = fingerprints(&want);

    let dir = scratch_dir("snap-fallback");
    let (_, engine) = serve_durable(&dir, &p, jobs);
    drop(engine); // crash

    // Corrupt every spilled design snapshot.
    let mut corrupted = 0;
    for entry in fs::read_dir(&dir).expect("dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "snap") {
            let mut bytes = fs::read(&path).expect("snapshot");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            fs::write(&path, bytes).expect("corrupt snapshot");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "durable run must have spilled snapshots");

    let metrics = MetricsRegistry::new();
    let rec = recover(&DurabilityConfig::new(&dir), &metrics).expect("recover");
    assert_eq!(rec.snapshots_rejected, corrupted, "every corrupt snapshot must be rejected");
    assert_eq!(rec.snapshots_loaded, 0);
    assert!(!rec.keys.is_empty(), "the key set comes from the WAL, not the snapshots");

    // Recovery falls back to resampling: still warm before traffic,
    // still bit-identical.
    let (results, engine) = serve_durable(&dir, &p, jobs);
    assert_eq!(fingerprints(&results), want);
    assert_eq!(engine.stats().cache_misses, 0, "resampled prewarm must still be warm");
    engine.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn wal_and_recovery_counters_surface_in_the_expositions() {
    let p = profile(6607);
    let dir = scratch_dir("counters");
    let (_, engine) = serve_durable(&dir, &p, 8);
    drop(engine); // crash

    let (_, engine) = serve_durable(&dir, &p, 8);
    let snap = engine.metrics().snapshot();
    assert!(snap.get(Metric::RecoveryRecordsReplayed) > 0);
    assert!(snap.get(Metric::WalSegmentsCompacted) > 0, "recovery compacts the replayed log");
    let stats = engine.stats();
    let text = pooled_data::engine::render_prometheus(&stats, Some(&snap));
    for needle in [
        "pooled_wal_appends_total",
        "pooled_wal_bytes_total",
        "pooled_wal_fsyncs_total",
        "pooled_wal_segments_compacted_total",
        "pooled_recovery_records_replayed_total",
        "pooled_recovery_torn_tail_total",
    ] {
        assert!(text.contains(needle), "missing {needle} in exposition");
    }
    engine.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}
