//! The one checksummed-record format behind transport frames and WAL
//! records.
//!
//! Every record is `header ‖ payload ‖ checksum` with an **explicit
//! little-endian field layout** — fields are written byte by byte, never
//! `unsafe`-transmuted, so the format is identical across platforms and
//! independent of Rust struct layout:
//!
//! ```text
//! offset  size  field
//! 0       1     magic      (0xD5 wire frame, 0xD6 WAL record)
//! 1       1     version    (1; any other value is rejected)
//! 2       1     type       (per-magic table: transport::frame, durability::wal)
//! 3       1     reserved   (0)
//! 4       4     payload length, u32 LE (fixed per type)
//! 8       len   payload
//! 8+len   8     checksum, u64 LE over header ‖ payload
//! ```
//!
//! The distinct magic bytes mean a WAL segment can never be mistaken for
//! a wire stream. The payload length is *redundant* on purpose: each
//! type has exactly one legal length, and a mismatch is rejected before
//! any payload byte is interpreted — a corrupted length can neither
//! trigger a huge allocation nor desynchronize a stream parser. The
//! checksum is the workspace's `mix64` chain ([`Digest`]) over the
//! length-tagged bytes; it detects corruption, not tampering (the
//! transport trusts its network like the in-process queues trust their
//! callers). Design snapshots carry the same checksum.
//!
//! Besides the envelope, this module owns the payload pieces both
//! formats share, so each has one definition:
//!
//! * the [`DesignKind`] and [`DecoderKind`] codes;
//! * the [`KEY_LEN`]-byte [`DesignKey`] layout — the PREWARM frame
//!   payload and the ADMIT/EVICT record payload: `n:u64, m:u64,
//!   seed:u64, c_milli:u32, kind:u8, pad:[u8;3](=0)`;
//! * the [`STATS_LEN`]-byte [`EngineStats`] layout — the STATS frame
//!   payload after its token and the STATS record payload: the 9 scalar
//!   counters and gauges, both latency [`Summary`] accumulators as raw
//!   Welford parts (`count` plus `mean/m2/min/max` as `f64::to_bits`
//!   words — lossless, so a far side's merged moments are bit-identical
//!   to a local merge), and the full [`LatencyHistogram`]: `count`,
//!   `sum_micros`, `max_micros`, then all [`LATENCY_BUCKETS`] bucket
//!   counters.

use pooled_design::factory::DesignKind;
use pooled_lab::histogram::{LatencyHistogram, LATENCY_BUCKETS};
use pooled_stats::summary::Summary;

use crate::cache::DesignKey;
use crate::engine::EngineStats;
use crate::job::{DecoderKind, Digest};

/// Format version this build writes and accepts.
pub const VERSION: u8 = 1;
/// Fixed header size (magic, version, type, reserved, length).
pub const HEADER_LEN: usize = 8;
/// Trailing checksum size.
pub const CHECKSUM_LEN: usize = 8;
/// Encoded [`DesignKey`] size.
pub const KEY_LEN: usize = 32;
/// Encoded [`EngineStats`] size: 9 scalar words + 2×5 summary words + 3
/// histogram scalars + [`LATENCY_BUCKETS`] bucket counters, 8 bytes
/// each.
pub const STATS_LEN: usize = (9 + 10 + 3 + LATENCY_BUCKETS) * 8;

/// Why a byte sequence is not a valid record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// First byte is not the format's magic.
    BadMagic(u8),
    /// Version byte differs from [`VERSION`].
    BadVersion(u8),
    /// Unknown record type byte.
    UnknownType(u8),
    /// Payload length does not match the record type's fixed layout.
    BadLength {
        /// The offending record type.
        rec_type: u8,
        /// The length the header claimed.
        got: u32,
    },
    /// Fewer bytes than the record needs — a torn write, or a stream
    /// that has not delivered the rest yet.
    Truncated {
        /// Bytes the record needs in total.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Checksum mismatch — the record was corrupted.
    BadChecksum,
    /// A payload field holds a value outside its domain (an unknown
    /// enum code, or an integer that does not fit `usize`).
    BadValue {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            RecordError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            RecordError::UnknownType(t) => write!(f, "unknown record type {t}"),
            RecordError::BadLength { rec_type, got } => {
                write!(f, "payload length {got} is illegal for record type {rec_type}")
            }
            RecordError::Truncated { needed, got } => {
                write!(f, "truncated record: {got} of {needed} bytes")
            }
            RecordError::BadChecksum => write!(f, "checksum mismatch"),
            RecordError::BadValue { field, value } => {
                write!(f, "field {field} has out-of-domain value {value}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// One record format: its magic byte and the one legal payload length of
/// each of its record types (`None` for an unknown type).
pub(crate) struct Envelope {
    pub(crate) magic: u8,
    pub(crate) payload_len: fn(u8) -> Option<usize>,
}

impl Envelope {
    /// Encode one record of `rec_type` into `buf` (cleared first; reuse
    /// the buffer to stay allocation-free after warm-up): the header,
    /// whatever `payload` appends — exactly the type's payload length —
    /// and the checksum.
    pub(crate) fn encode(
        &self,
        buf: &mut Vec<u8>,
        rec_type: u8,
        payload: impl FnOnce(&mut Vec<u8>),
    ) {
        let len = (self.payload_len)(rec_type).expect("encoding a known record type");
        buf.clear();
        buf.reserve(HEADER_LEN + len + CHECKSUM_LEN);
        buf.extend_from_slice(&[self.magic, VERSION, rec_type, 0]);
        put_u32(buf, len as u32);
        payload(buf);
        debug_assert_eq!(buf.len(), HEADER_LEN + len);
        let ck = checksum(buf);
        put_u64(buf, ck);
    }

    /// Validate the record at the front of `bytes`; returns its type,
    /// its payload and the whole record's length. Magic, version and
    /// type are checked on whatever prefix is present, so a stream gone
    /// bad is refused at its first wrong byte rather than buffered until
    /// a full header accumulates; then length and checksum. No payload
    /// byte is interpreted before all of them pass, nothing past the
    /// record is read, and nothing is allocated.
    pub(crate) fn decode<'a>(&self, bytes: &'a [u8]) -> Result<(u8, &'a [u8], usize), RecordError> {
        match bytes {
            [magic, ..] if *magic != self.magic => return Err(RecordError::BadMagic(*magic)),
            [_, version, ..] if *version != VERSION => {
                return Err(RecordError::BadVersion(*version))
            }
            _ => {}
        }
        let short = RecordError::Truncated { needed: HEADER_LEN, got: bytes.len() };
        let rec_type = *bytes.get(2).ok_or(short)?;
        let len = (self.payload_len)(rec_type).ok_or(RecordError::UnknownType(rec_type))?;
        if bytes.len() < HEADER_LEN {
            return Err(short);
        }
        let claimed = get_u32(bytes, 4);
        if claimed as usize != len {
            return Err(RecordError::BadLength { rec_type, got: claimed });
        }
        let total = HEADER_LEN + len + CHECKSUM_LEN;
        if bytes.len() < total {
            return Err(RecordError::Truncated { needed: total, got: bytes.len() });
        }
        let body = &bytes[..HEADER_LEN + len];
        if checksum(body) != get_u64(bytes, HEADER_LEN + len) {
            return Err(RecordError::BadChecksum);
        }
        Ok((rec_type, &body[HEADER_LEN..], total))
    }
}

/// Checksum of the length-tagged byte stream: `mix64`-chained words, the
/// same digest primitive the determinism fingerprints use.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d.push(u64::from_le_bytes(word));
    }
    d.finish()
}

// The field helpers run per word in other modules' loops (a snapshot
// decode calls `get_u32` twice per design entry), so they must inline
// across codegen units.
#[inline]
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

#[inline]
pub(crate) fn get_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

#[inline]
pub(crate) fn get_usize(
    bytes: &[u8],
    at: usize,
    field: &'static str,
) -> Result<usize, RecordError> {
    let value = get_u64(bytes, at);
    usize::try_from(value).map_err(|_| RecordError::BadValue { field, value })
}

/// Reserved code of the hidden panic-probe decoder, which is
/// deliberately absent from [`DecoderKind::ALL`] (it exists only to
/// exercise worker panic containment) yet must survive the wire so the
/// containment tests run over TCP too.
const DECODER_CODE_PANIC_PROBE: u8 = 0xFE;

/// Code of a decoder (index in [`DecoderKind::ALL`] — stable because
/// `ALL` is the presentation order the whole workspace keys on).
pub(crate) fn decoder_code(kind: DecoderKind) -> u8 {
    if kind == DecoderKind::PanicProbe {
        return DECODER_CODE_PANIC_PROBE;
    }
    DecoderKind::ALL.iter().position(|&k| k == kind).expect("decoder in ALL") as u8
}

pub(crate) fn decoder_from_code(code: u8) -> Result<DecoderKind, RecordError> {
    if code == DECODER_CODE_PANIC_PROBE {
        return Ok(DecoderKind::PanicProbe);
    }
    DecoderKind::ALL
        .get(code as usize)
        .copied()
        .ok_or(RecordError::BadValue { field: "decoder", value: code as u64 })
}

/// Code of a design family (index in [`DesignKind::ALL`]).
pub(crate) fn design_code(kind: DesignKind) -> u8 {
    DesignKind::ALL.iter().position(|&k| k == kind).expect("design kind in ALL") as u8
}

pub(crate) fn design_from_code(code: u8) -> Result<DesignKind, RecordError> {
    DesignKind::ALL
        .get(code as usize)
        .copied()
        .ok_or(RecordError::BadValue { field: "design_kind", value: code as u64 })
}

/// Append `key` in its [`KEY_LEN`]-byte layout.
pub(crate) fn put_key(buf: &mut Vec<u8>, key: &DesignKey) {
    put_u64(buf, key.n as u64);
    put_u64(buf, key.m as u64);
    put_u64(buf, key.seed);
    put_u32(buf, key.c_milli);
    buf.push(design_code(key.kind));
    buf.extend_from_slice(&[0u8; 3]); // pad
}

/// Parse the [`KEY_LEN`]-byte key layout at the front of `p`.
pub(crate) fn get_key(p: &[u8]) -> Result<DesignKey, RecordError> {
    Ok(DesignKey {
        n: get_usize(p, 0, "n")?,
        m: get_usize(p, 8, "m")?,
        seed: get_u64(p, 16),
        c_milli: get_u32(p, 24),
        kind: design_from_code(p[28])?,
    })
}

/// Append `s` in its [`STATS_LEN`]-byte layout.
pub(crate) fn put_stats(buf: &mut Vec<u8>, s: &EngineStats) {
    put_u64(buf, s.jobs_completed);
    put_u64(buf, s.jobs_poisoned);
    put_u64(buf, s.exact_recoveries);
    put_u64(buf, s.cache_hits);
    put_u64(buf, s.cache_misses);
    put_u64(buf, s.cache_len as u64);
    put_u64(buf, s.queued_jobs as u64);
    put_u64(buf, s.pending_results as u64);
    put_u64(buf, s.workers as u64);
    put_summary(buf, &s.total_latency);
    put_summary(buf, &s.decode_latency);
    put_u64(buf, s.histogram.count());
    put_u64(buf, s.histogram.sum_micros());
    put_u64(buf, s.histogram.max_micros());
    for &b in s.histogram.bucket_counts() {
        put_u64(buf, b);
    }
}

/// Parse the [`STATS_LEN`]-byte stats layout at the front of `p`.
pub(crate) fn get_stats(p: &[u8]) -> Result<EngineStats, RecordError> {
    let mut buckets = [0u64; LATENCY_BUCKETS];
    for (i, b) in buckets.iter_mut().enumerate() {
        *b = get_u64(p, (22 + i) * 8);
    }
    Ok(EngineStats {
        jobs_completed: get_u64(p, 0),
        jobs_poisoned: get_u64(p, 8),
        exact_recoveries: get_u64(p, 16),
        cache_hits: get_u64(p, 24),
        cache_misses: get_u64(p, 32),
        cache_len: get_usize(p, 40, "cache_len")?,
        queued_jobs: get_usize(p, 48, "queued_jobs")?,
        pending_results: get_usize(p, 56, "pending_results")?,
        workers: get_usize(p, 64, "workers")?,
        total_latency: get_summary(p, 72),
        decode_latency: get_summary(p, 112),
        histogram: LatencyHistogram::from_raw_parts(
            buckets,
            get_u64(p, 152),
            get_u64(p, 160),
            get_u64(p, 168),
        ),
    })
}

/// Append a [`Summary`]'s raw Welford parts as 5 LE words (`f64`s via
/// `to_bits`, so the far side reconstructs the accumulator bit-exactly).
fn put_summary(buf: &mut Vec<u8>, s: &Summary) {
    let (count, mean, m2, min, max) = s.raw_parts();
    put_u64(buf, count);
    put_u64(buf, mean.to_bits());
    put_u64(buf, m2.to_bits());
    put_u64(buf, min.to_bits());
    put_u64(buf, max.to_bits());
}

fn get_summary(p: &[u8], at: usize) -> Summary {
    Summary::from_raw_parts(
        get_u64(p, at),
        f64::from_bits(get_u64(p, at + 8)),
        f64::from_bits(get_u64(p, at + 16)),
        f64::from_bits(get_u64(p, at + 24)),
        f64::from_bits(get_u64(p, at + 32)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_probe_decoder_survives_under_its_reserved_code() {
        assert_eq!(decoder_code(DecoderKind::PanicProbe), DECODER_CODE_PANIC_PROBE);
        assert_eq!(decoder_from_code(DECODER_CODE_PANIC_PROBE), Ok(DecoderKind::PanicProbe));
    }

    #[test]
    fn decoder_and_design_codes_cover_all_variants() {
        for (i, &k) in DecoderKind::ALL.iter().enumerate() {
            assert_eq!(decoder_code(k), i as u8);
            assert_eq!(decoder_from_code(i as u8), Ok(k));
        }
        assert!(decoder_from_code(DecoderKind::ALL.len() as u8).is_err());
        for (i, &k) in DesignKind::ALL.iter().enumerate() {
            assert_eq!(design_code(k), i as u8);
            assert_eq!(design_from_code(i as u8), Ok(k));
        }
        assert!(design_from_code(DesignKind::ALL.len() as u8).is_err());
    }

    #[test]
    fn the_envelope_refuses_a_bad_prefix_before_a_full_header_arrives() {
        const TEST: Envelope = Envelope { magic: 0xAB, payload_len: |t| (t == 1).then_some(8) };
        let mut buf = Vec::new();
        TEST.encode(&mut buf, 1, |b| put_u64(b, 42));
        assert_eq!(TEST.decode(&buf), Ok((1, &42u64.to_le_bytes()[..], buf.len())));
        let short = RecordError::Truncated { needed: HEADER_LEN, got: 2 };
        assert_eq!(TEST.decode(&[0xAB, VERSION]), Err(short));
        assert_eq!(TEST.decode(&[0x00]), Err(RecordError::BadMagic(0x00)));
        assert_eq!(TEST.decode(&[0xAB, 9]), Err(RecordError::BadVersion(9)));
        assert_eq!(TEST.decode(&[0xAB, VERSION, 5]), Err(RecordError::UnknownType(5)));
    }
}
