//! The write-ahead design log: append-only, checksummed records of
//! design-cache admissions and evictions.
//!
//! Every record is one [`crate::codec`] record under magic `0xD6`
//! (`header ‖ payload ‖ checksum`, explicit little-endian fields), so a
//! WAL segment can never be confused with a wire stream. This module
//! keeps the record-type table — `1`=ADMIT `2`=EVICT `3`=STATS:
//!
//! `ADMIT` / `EVICT` carry a [`DesignKey`] in the codec's 32-byte key
//! layout (the PREWARM frame payload). `STATS` carries a full
//! [`EngineStats`] snapshot in the codec's 7984-byte stats layout (the
//! STATS frame payload minus its correlation token) — a checkpoint of
//! the engine's cumulative telemetry, written by the compactor so
//! counters and latency histograms survive a restart.
//!
//! The log is a sequence of segment files `wal-<seq>.log`. Appends go
//! to the highest segment; once it exceeds the rotation threshold a new
//! segment opens. The compactor ([`WalWriter::compact`]) writes a fresh
//! segment holding only a `STATS` checkpoint plus one `ADMIT` per live
//! key, syncs it, and then deletes every older segment — crash-safe in
//! that order: a crash mid-compaction leaves either the old segments
//! (new one torn, replay prefix-stops on it) or both (replay of the old
//! records followed by the compacted live set converges to the same key
//! set, because `ADMIT` is idempotent and `EVICT` of an absent key is a
//! no-op).
//!
//! **Replay is prefix-only.** [`replay_dir`] applies records in segment
//! order and stops at the first torn or corrupt record: in the final
//! segment that is the expected shape of a crash mid-append (the valid
//! prefix is kept, [`WalReplay::torn_tail`] is set); in any earlier
//! segment it means lost history *between* surviving records, so replay
//! refuses with [`WalError::CorruptSegment`] rather than reconstruct a
//! key set no process ever held. Either way the outcome is a correct
//! prefix of the log or a clean error — never a silently wrong key set,
//! because every record is covered by its checksum.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cache::DesignKey;
use crate::codec::{
    get_key, get_stats, put_key, put_stats, Envelope, RecordError, CHECKSUM_LEN, HEADER_LEN,
    KEY_LEN, STATS_LEN,
};
use crate::engine::EngineStats;
use crate::telemetry::{Metric, MetricsRegistry};

/// First byte of every WAL record.
pub const WAL_MAGIC: u8 = 0xD6;

const REC_ADMIT: u8 = 1;
const REC_EVICT: u8 = 2;
const REC_STATS: u8 = 3;

const WAL: Envelope = Envelope { magic: WAL_MAGIC, payload_len: payload_len_of };

fn payload_len_of(rec_type: u8) -> Option<usize> {
    match rec_type {
        REC_ADMIT | REC_EVICT => Some(KEY_LEN),
        REC_STATS => Some(STATS_LEN),
        _ => None,
    }
}

/// One write-ahead log record.
///
/// `Stats` dwarfs the key variants (it carries the full latency
/// histogram), but records are transient encode/decode carriers — never
/// stored in bulk — so the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WalRecord {
    /// A design entered the cache (sampled on a miss, prewarmed, or
    /// rewritten by the compactor as part of the live set).
    Admit(DesignKey),
    /// A design left the cache (LRU eviction).
    Evict(DesignKey),
    /// A checkpoint of the engine's cumulative telemetry.
    Stats(EngineStats),
}

/// Why a whole-log replay failed.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure reading or listing segments.
    Io(io::Error),
    /// A corrupt record strictly before the log's tail: records after it
    /// survived, so the prefix rule cannot name a consistent state.
    /// Recovery refuses cleanly instead of guessing.
    CorruptSegment {
        /// Sequence number of the segment holding the corrupt record.
        segment: u64,
        /// Byte offset of the corrupt record within that segment.
        offset: usize,
        /// What failed to decode there.
        cause: RecordError,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::CorruptSegment { segment, offset, cause } => {
                write!(f, "corrupt WAL segment {segment} at byte {offset}: {cause}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Serialize `record` into `buf` (cleared first; reuse across appends).
pub fn encode_record(record: &WalRecord, buf: &mut Vec<u8>) {
    match record {
        WalRecord::Admit(key) => WAL.encode(buf, REC_ADMIT, |buf| put_key(buf, key)),
        WalRecord::Evict(key) => WAL.encode(buf, REC_EVICT, |buf| put_key(buf, key)),
        WalRecord::Stats(stats) => WAL.encode(buf, REC_STATS, |buf| put_stats(buf, stats)),
    }
}

/// Parse one record from the front of `bytes`; returns the record and
/// how many bytes it consumed. Magic, version, type, length and
/// checksum are all verified before any payload byte is interpreted —
/// the same envelope as the wire decoder, so corruption can neither
/// trigger a huge allocation nor desynchronize replay silently.
pub fn decode_record(bytes: &[u8]) -> Result<(WalRecord, usize), RecordError> {
    let (rec_type, p, total) = WAL.decode(bytes)?;
    let record = match rec_type {
        REC_ADMIT => WalRecord::Admit(get_key(p)?),
        REC_EVICT => WalRecord::Evict(get_key(p)?),
        _ => WalRecord::Stats(get_stats(p)?),
    };
    Ok((record, total))
}

fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:08}.log")
}

/// Every WAL segment in `dir` as `(sequence, path)`, ascending by
/// sequence. Files not matching `wal-<seq>.log` are ignored (design
/// snapshots share the directory).
pub fn segment_paths(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        segments.push((seq, entry.path()));
    }
    segments.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(segments)
}

/// Outcome of replaying a WAL directory.
#[derive(Clone, Debug)]
pub struct WalReplay {
    /// The live key set after applying every replayed record, in
    /// admission order (oldest first) — feed it to a cache prewarm and
    /// the LRU recency order matches the pre-crash cache.
    pub keys: Vec<DesignKey>,
    /// The newest replayed `STATS` checkpoint, if any.
    pub stats: Option<EngineStats>,
    /// Records successfully applied.
    pub records_replayed: u64,
    /// Whether replay stopped at a torn/corrupt record in the final
    /// segment (the crash-mid-append shape; the valid prefix was kept).
    pub torn_tail: bool,
    /// Segments visited.
    pub segments: u64,
}

/// Replay every segment in `dir` under the prefix rule (module docs).
/// A missing or empty directory replays to the empty state.
pub fn replay_dir(dir: &Path) -> Result<WalReplay, WalError> {
    let segments = match segment_paths(dir) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut keys: Vec<DesignKey> = Vec::new();
    let mut stats = None;
    let mut records_replayed = 0u64;
    let mut torn_tail = false;
    let last = segments.len().saturating_sub(1);
    for (i, (seq, path)) in segments.iter().enumerate() {
        let bytes = fs::read(path)?;
        let mut at = 0usize;
        while at < bytes.len() {
            match decode_record(&bytes[at..]) {
                Ok((record, consumed)) => {
                    apply(&mut keys, &mut stats, &record);
                    records_replayed += 1;
                    at += consumed;
                }
                Err(cause) => {
                    if i == last {
                        torn_tail = true;
                        break;
                    }
                    return Err(WalError::CorruptSegment { segment: *seq, offset: at, cause });
                }
            }
        }
    }
    Ok(WalReplay { keys, stats, records_replayed, torn_tail, segments: segments.len() as u64 })
}

fn apply(keys: &mut Vec<DesignKey>, stats: &mut Option<EngineStats>, record: &WalRecord) {
    match record {
        WalRecord::Admit(key) => {
            keys.retain(|k| k != key);
            keys.push(*key);
        }
        WalRecord::Evict(key) => keys.retain(|k| k != key),
        WalRecord::Stats(s) => *stats = Some(*s),
    }
}

/// The appender: owns the highest segment, rotates past the size
/// threshold, and compacts on request. Counts every append, byte and
/// fsync into the engine's [`MetricsRegistry`].
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    seq: u64,
    segment_bytes: u64,
    segment_max_bytes: u64,
    fsync: bool,
    metrics: Arc<MetricsRegistry>,
    buf: Vec<u8>,
}

impl WalWriter {
    /// Open `dir` for appending: the next segment after the highest
    /// existing one (existing segments are never appended to — their
    /// tail may be torn, and replay handles that; new records must not
    /// land after a torn record).
    pub fn open(
        dir: &Path,
        segment_max_bytes: u64,
        fsync: bool,
        metrics: Arc<MetricsRegistry>,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let next_seq = segment_paths(dir)?.last().map_or(0, |&(seq, _)| seq + 1);
        let file = File::create(dir.join(segment_file_name(next_seq)))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            file,
            seq: next_seq,
            segment_bytes: 0,
            segment_max_bytes: segment_max_bytes.max(1),
            fsync,
            metrics,
            buf: Vec::with_capacity(HEADER_LEN + STATS_LEN + CHECKSUM_LEN),
        })
    }

    /// Sequence number of the segment currently being appended to.
    pub fn current_segment(&self) -> u64 {
        self.seq
    }

    /// Append one record, rotating first if the current segment is past
    /// the size threshold.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let mut buf = std::mem::take(&mut self.buf);
        encode_record(record, &mut buf);
        if self.segment_bytes > 0 && self.segment_bytes + buf.len() as u64 > self.segment_max_bytes
        {
            self.rotate()?;
        }
        let outcome = self.file.write_all(&buf);
        let len = buf.len() as u64;
        self.buf = buf;
        outcome?;
        self.segment_bytes += len;
        self.metrics.inc(Metric::WalAppends);
        self.metrics.add(Metric::WalBytes, len);
        if self.fsync {
            self.sync()?;
        }
        Ok(())
    }

    /// Force the current segment to disk (counted as one fsync).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.metrics.inc(Metric::WalFsyncs);
        Ok(())
    }

    /// Finish the current segment and open the next one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.metrics.inc(Metric::WalFsyncs);
        self.seq += 1;
        self.file = File::create(self.dir.join(segment_file_name(self.seq)))?;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Compact: write a fresh segment holding `stats` (when given) plus
    /// one `ADMIT` per live key, sync it, then delete every older
    /// segment. After this the log's replayable state is exactly
    /// `(live, stats)` — the segment/compaction lifecycle in the module
    /// docs.
    pub fn compact(&mut self, live: &[DesignKey], stats: Option<&EngineStats>) -> io::Result<()> {
        self.rotate()?;
        if let Some(stats) = stats {
            self.append(&WalRecord::Stats(*stats))?;
        }
        for key in live {
            self.append(&WalRecord::Admit(*key))?;
        }
        // Durability point: the new segment must be on disk before any
        // old segment disappears, or a crash here could lose both.
        self.sync()?;
        for (seq, path) in segment_paths(&self.dir)? {
            if seq < self.seq {
                fs::remove_file(path)?;
            }
        }
        self.metrics.inc(Metric::WalSegmentsCompacted);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::testutil::scratch_dir;
    use pooled_design::factory::DesignKind;

    fn key(seed: u64) -> DesignKey {
        DesignKey { n: 120, m: 40, kind: DesignKind::RandomRegular, c_milli: 500, seed }
    }

    fn registry() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        for record in [
            WalRecord::Admit(key(7)),
            WalRecord::Evict(key(9)),
            WalRecord::Stats(EngineStats::zero()),
        ] {
            encode_record(&record, &mut buf);
            let (decoded, consumed) = decode_record(&buf).expect("valid record");
            assert_eq!(decoded, record);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn record_layout_is_stable_little_endian() {
        // The on-disk format is a durability contract: pin the exact
        // bytes (checksums included) of a known ADMIT and STATS record,
        // so a field reorder, endianness or checksum change cannot slip
        // through as "still round-trips".
        let key = DesignKey {
            n: 1000,
            m: 420,
            kind: DesignKind::NoReplace,
            c_milli: 350,
            seed: 0xDEAD_BEEF,
        };
        let mut buf = Vec::new();
        encode_record(&WalRecord::Admit(key), &mut buf);
        assert_eq!(buf.len(), 48);
        assert_eq!(&buf[..8], &[0xD6, 1, 1, 0, 32, 0, 0, 0]);
        assert_eq!(&buf[8..16], &1000u64.to_le_bytes(), "n");
        assert_eq!(&buf[16..24], &420u64.to_le_bytes(), "m");
        assert_eq!(&buf[24..32], &0xDEAD_BEEFu64.to_le_bytes(), "seed");
        assert_eq!(&buf[32..36], &350u32.to_le_bytes(), "c_milli");
        assert_eq!(&buf[36..40], &[1, 0, 0, 0], "design kind code (NoReplace), pad");
        assert_eq!(&buf[40..48], &0x4404_1c47_eb5f_d23fu64.to_le_bytes(), "checksum");

        let mut stats = EngineStats::zero();
        stats.jobs_completed = 1234;
        stats.workers = 8;
        stats.total_latency.push(4_000.0);
        encode_record(&WalRecord::Stats(stats), &mut buf);
        assert_eq!(buf.len(), 8000);
        assert_eq!(&buf[..4], &[0xD6, 1, 3, 0]);
        assert_eq!(&buf[4..8], &7984u32.to_le_bytes(), "payload length");
        assert_eq!(&buf[8..16], &1234u64.to_le_bytes(), "jobs_completed");
        assert_eq!(&buf[72..80], &8u64.to_le_bytes(), "workers");
        assert_eq!(&buf[80..88], &1u64.to_le_bytes(), "total_latency count");
        assert_eq!(&buf[88..96], &4_000f64.to_bits().to_le_bytes(), "total_latency mean");
        assert_eq!(&buf[7992..], &0x0b57_f127_fd95_2723u64.to_le_bytes(), "checksum");
    }

    #[test]
    fn append_and_replay_recover_the_live_set_in_admission_order() {
        let dir = scratch_dir("wal-replay");
        let metrics = registry();
        let mut w = WalWriter::open(&dir, 1 << 20, false, Arc::clone(&metrics)).unwrap();
        for s in 0..4 {
            w.append(&WalRecord::Admit(key(s))).unwrap();
        }
        w.append(&WalRecord::Evict(key(1))).unwrap();
        w.append(&WalRecord::Admit(key(0))).unwrap(); // refresh: moves to back
        drop(w);
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(replay.records_replayed, 6);
        assert!(!replay.torn_tail);
        assert_eq!(replay.keys, vec![key(2), key(3), key(0)]);
        assert_eq!(metrics.get(Metric::WalAppends), 6);
        assert!(metrics.get(Metric::WalBytes) > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = scratch_dir("wal-rotate");
        // Threshold of one record: every append after the first rotates.
        let record_len = HEADER_LEN + KEY_LEN + CHECKSUM_LEN;
        let mut w = WalWriter::open(&dir, record_len as u64, false, registry()).unwrap();
        for s in 0..5 {
            w.append(&WalRecord::Admit(key(s))).unwrap();
        }
        drop(w);
        assert!(segment_paths(&dir).unwrap().len() >= 5);
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(replay.keys.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_rewrites_the_live_set_only_and_deletes_old_segments() {
        let dir = scratch_dir("wal-compact");
        let metrics = registry();
        let mut w = WalWriter::open(&dir, 1 << 20, false, Arc::clone(&metrics)).unwrap();
        for s in 0..8 {
            w.append(&WalRecord::Admit(key(s))).unwrap();
            if s % 2 == 0 {
                w.append(&WalRecord::Evict(key(s))).unwrap();
            }
        }
        let live = vec![key(1), key(3), key(5), key(7)];
        let mut stats = EngineStats::zero();
        stats.jobs_completed = 99;
        w.compact(&live, Some(&stats)).unwrap();
        drop(w);
        let segments = segment_paths(&dir).unwrap();
        assert_eq!(segments.len(), 1, "older segments must be deleted");
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(replay.keys, live);
        assert_eq!(replay.stats.unwrap().jobs_completed, 99);
        assert_eq!(replay.records_replayed, 1 + 4);
        assert_eq!(metrics.get(Metric::WalSegmentsCompacted), 1);
        assert!(metrics.get(Metric::WalFsyncs) >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_keeps_the_valid_prefix() {
        let dir = scratch_dir("wal-torn");
        let mut w = WalWriter::open(&dir, 1 << 20, false, registry()).unwrap();
        for s in 0..3 {
            w.append(&WalRecord::Admit(key(s))).unwrap();
        }
        drop(w);
        let (_, path) = segment_paths(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 5); // tear the last record
        fs::write(&path, bytes).unwrap();
        let replay = replay_dir(&dir).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.keys, vec![key(0), key(1)]);
        assert_eq!(replay.records_replayed, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_before_the_final_segment_is_a_clean_error() {
        let dir = scratch_dir("wal-corrupt-mid");
        let record_len = (HEADER_LEN + KEY_LEN + CHECKSUM_LEN) as u64;
        let mut w = WalWriter::open(&dir, record_len, false, registry()).unwrap();
        for s in 0..4 {
            w.append(&WalRecord::Admit(key(s))).unwrap();
        }
        drop(w);
        let segments = segment_paths(&dir).unwrap();
        assert!(segments.len() >= 3);
        // Flip a bit in the *first* segment: surviving later segments
        // make the prefix rule unsatisfiable, so replay must refuse.
        let (_, first) = &segments[0];
        let mut bytes = fs::read(first).unwrap();
        bytes[10] ^= 0x40;
        fs::write(first, bytes).unwrap();
        match replay_dir(&dir) {
            Err(WalError::CorruptSegment { cause, .. }) => {
                assert_eq!(cause, RecordError::BadChecksum);
            }
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_or_missing_dir_replays_to_the_empty_state() {
        let dir = scratch_dir("wal-missing");
        let replay = replay_dir(&dir.join("never-created")).unwrap();
        assert!(replay.keys.is_empty());
        assert_eq!(replay.records_replayed, 0);
        assert!(!replay.torn_tail);
        let _ = fs::remove_dir_all(&dir);
    }
}
