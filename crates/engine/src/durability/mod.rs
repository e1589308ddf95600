//! The durable tier: crash recovery for the design cache and the
//! engine's cumulative telemetry.
//!
//! An engine's expensive state is its warm design cache — every resident
//! design took a full sampling pass to build — plus the counters and
//! latency histograms operators trend across restarts. A process crash
//! loses both: the replacement node serves its first requests cold, and
//! the telemetry plane forgets everything it learned. This module makes
//! both survivable with three cooperating pieces:
//!
//! * **[`wal`]** — a write-ahead design log. Every cache admission and
//!   eviction appends a checksummed record; replay reconstructs the
//!   exact live key set in admission order. Segments rotate by size and
//!   a compactor rewrites the live set into one fresh segment.
//! * **[`snapshot`]** — disk-spilled designs. The CSR structure of each
//!   admitted design is serialized beside the log, so recovery reloads
//!   warm designs instead of resampling them. Snapshots are an
//!   accelerator only: a rejected snapshot falls back to resampling
//!   from the key, which is bit-identical by construction.
//! * **[`fault`]** — deterministic storage-fault injection (crash
//!   points, torn writes, bit flips) so the crash-consistency invariant
//!   is pinned by tests, not asserted in prose.
//!
//! The invariant the tests enforce: **recovery yields a correct prefix
//! of the log or a clean error — never a wrong design.** Designs are
//! pure functions of their keys, so a recovered node's decode
//! fingerprints are bit-identical to a node that never crashed.

pub mod fault;
pub mod snapshot;
pub mod wal;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use pooled_design::AnyDesign;

use crate::cache::DesignKey;
use crate::engine::EngineStats;
use crate::telemetry::{Metric, MetricsRegistry};

use self::wal::{replay_dir, WalError, WalRecord, WalWriter};

/// Where and how an engine persists its durable state.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and design snapshots.
    pub dir: PathBuf,
    /// Rotate the active WAL segment once it exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Force every append to disk (`fsync` per record). Off by default:
    /// the kernel's page cache already survives process crashes, which
    /// is the failure mode this tier defends; power-loss durability
    /// costs an fsync per admission and is opt-in.
    pub fsync: bool,
    /// Spill each admitted design's CSR beside the log. On by default;
    /// turning it off trades recovery speed (resampling instead of
    /// loading) for zero snapshot disk usage.
    pub spill_designs: bool,
}

impl DurabilityConfig {
    /// Defaults: 1 MiB segments, no per-record fsync, snapshots on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), segment_max_bytes: 1 << 20, fsync: false, spill_designs: true }
    }
}

/// Everything recovered from a durability directory.
pub struct Recovery {
    /// Live keys at the replayed prefix, in admission order.
    pub keys: Vec<DesignKey>,
    /// Designs reloaded from snapshots (a subset of `keys`; the rest
    /// must be resampled).
    pub designs: Vec<(DesignKey, Arc<AnyDesign>)>,
    /// The newest persisted stats checkpoint, if any.
    pub stats: Option<EngineStats>,
    /// WAL records successfully replayed.
    pub records_replayed: u64,
    /// Whether replay stopped at a torn tail (crash mid-append).
    pub torn_tail: bool,
    /// Snapshots loaded and verified.
    pub snapshots_loaded: u64,
    /// Snapshots rejected as corrupt (their keys resample instead).
    pub snapshots_rejected: u64,
    /// WAL segments visited.
    pub segments: u64,
}

impl Recovery {
    /// The persisted stats checkpoint shaped for use as a restart
    /// baseline: cumulative counters survive, but point-in-time gauges
    /// (cache residency, queue depths, worker count) are zeroed because
    /// the restarted engine reports its own live values for those.
    pub fn stats_baseline(&self) -> EngineStats {
        let mut s = self.stats.unwrap_or_else(EngineStats::zero);
        s.cache_len = 0;
        s.queued_jobs = 0;
        s.pending_results = 0;
        s.workers = 0;
        s
    }
}

/// Replay `config.dir`: WAL prefix first, then whatever snapshots cover
/// the recovered keys. Counters land in `metrics` so the recovery is
/// visible in the node's own exposition.
pub fn recover(config: &DurabilityConfig, metrics: &MetricsRegistry) -> Result<Recovery, WalError> {
    let replay = replay_dir(&config.dir)?;
    metrics.add(Metric::RecoveryRecordsReplayed, replay.records_replayed);
    if replay.torn_tail {
        metrics.inc(Metric::RecoveryTornTail);
    }
    let (designs, snapshots_rejected) = if config.spill_designs {
        snapshot::load_all(&config.dir, &replay.keys)
    } else {
        (Vec::new(), 0)
    };
    Ok(Recovery {
        snapshots_loaded: designs.len() as u64,
        snapshots_rejected,
        designs,
        keys: replay.keys,
        stats: replay.stats,
        records_replayed: replay.records_replayed,
        torn_tail: replay.torn_tail,
        segments: replay.segments,
    })
}

/// The live journal an engine attaches to its design cache: admissions
/// spill a snapshot and append an `ADMIT`; evictions append an `EVICT`
/// and delete the snapshot.
///
/// Journal I/O errors are swallowed (after damaging nothing): a full or
/// failing disk must degrade durability, not take down serving. The
/// worst outcome of a lost record is a cold resample after the next
/// crash — the WAL's prefix rule already treats missing tail records as
/// a torn write.
pub struct WalJournal {
    writer: Mutex<WalWriter>,
    dir: PathBuf,
    spill_designs: bool,
}

impl WalJournal {
    /// Open the WAL in `config.dir` for appending.
    pub fn open(config: &DurabilityConfig, metrics: Arc<MetricsRegistry>) -> io::Result<Self> {
        let writer = WalWriter::open(&config.dir, config.segment_max_bytes, config.fsync, metrics)?;
        Ok(Self {
            writer: Mutex::new(writer),
            dir: config.dir.clone(),
            spill_designs: config.spill_designs,
        })
    }

    /// The directory this journal persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Compact the log down to `live` (admission order) plus a stats
    /// checkpoint. Called after recovery prewarm and at clean shutdown.
    pub fn checkpoint(&self, live: &[DesignKey], stats: &EngineStats) -> io::Result<()> {
        let mut writer = self.writer.lock().expect("WAL writer poisoned");
        writer.compact(live, Some(stats))
    }

    /// `key`'s design entered the cache. Called by the design cache
    /// outside its map lock but inside the admission path (write-ahead:
    /// the record lands before the design serves).
    pub fn admitted(&self, key: &DesignKey, design: &AnyDesign) {
        if self.spill_designs {
            let _ = snapshot::spill_design(&self.dir, key, design);
        }
        let mut writer = self.writer.lock().expect("WAL writer poisoned");
        let _ = writer.append(&WalRecord::Admit(*key));
    }

    /// `key`'s design was evicted from the cache.
    pub fn evicted(&self, key: &DesignKey) {
        {
            let mut writer = self.writer.lock().expect("WAL writer poisoned");
            let _ = writer.append(&WalRecord::Evict(*key));
        }
        if self.spill_designs {
            let _ = snapshot::remove_design(&self.dir, key);
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh scratch directory under the OS temp dir, unique per
    /// process and call (parallel test threads never collide).
    pub(crate) fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("pooled-durability-{}-{tag}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::scratch_dir;
    use super::*;
    use pooled_design::DesignKind;

    fn key(seed: u64) -> DesignKey {
        DesignKey { n: 80, m: 24, kind: DesignKind::RandomRegular, c_milli: 500, seed }
    }

    #[test]
    fn journal_then_recover_round_trips_keys_designs_and_stats() {
        let dir = scratch_dir("mod-roundtrip");
        let config = DurabilityConfig::new(&dir);
        let metrics = Arc::new(MetricsRegistry::new());
        let journal = WalJournal::open(&config, Arc::clone(&metrics)).unwrap();
        let keys: Vec<_> = (0..3).map(key).collect();
        for k in &keys {
            journal.admitted(k, &k.sample());
        }
        journal.evicted(&keys[0]);
        let mut stats = EngineStats::zero();
        stats.jobs_completed = 17;
        stats.cache_len = 2; // gauge: must be zeroed in the baseline
        journal.checkpoint(&keys[1..], &stats).unwrap();
        drop(journal);

        let metrics2 = MetricsRegistry::new();
        let rec = recover(&config, &metrics2).unwrap();
        assert_eq!(rec.keys, &keys[1..]);
        assert_eq!(rec.snapshots_loaded, 2);
        assert_eq!(rec.snapshots_rejected, 0);
        assert!(!rec.torn_tail);
        let baseline = rec.stats_baseline();
        assert_eq!(baseline.jobs_completed, 17);
        assert_eq!(baseline.cache_len, 0);
        assert_eq!(metrics2.get(Metric::RecoveryRecordsReplayed), rec.records_replayed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_without_snapshots_still_yields_the_key_set() {
        let dir = scratch_dir("mod-no-spill");
        let mut config = DurabilityConfig::new(&dir);
        config.spill_designs = false;
        let metrics = Arc::new(MetricsRegistry::new());
        let journal = WalJournal::open(&config, Arc::clone(&metrics)).unwrap();
        journal.admitted(&key(9), &key(9).sample());
        drop(journal);
        let rec = recover(&config, &metrics).unwrap();
        assert_eq!(rec.keys, vec![key(9)]);
        assert_eq!(rec.snapshots_loaded, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_directory_recovers_to_the_empty_state() {
        let dir = scratch_dir("mod-empty");
        let metrics = MetricsRegistry::new();
        let rec = recover(&DurabilityConfig::new(dir.join("nothing")), &metrics).unwrap();
        assert!(rec.keys.is_empty());
        assert!(rec.stats.is_none());
        assert_eq!(metrics.get(Metric::RecoveryTornTail), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
