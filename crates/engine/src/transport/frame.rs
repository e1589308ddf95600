//! Length-prefixed binary framing for the engine's wire types.
//!
//! Every frame is one [`crate::codec`] record under magic `0xD5`
//! (`header ‖ payload ‖ checksum`, explicit little-endian fields, one
//! legal payload length per type, checksum verified before any payload
//! byte is read). This module keeps the wire's message-type table —
//! `1`=SUBMIT `2`=RESULT `3`=BUSY `4`=REJECT `5`=PREWARM `6`=STATS
//! `7`=STATS_REQUEST — and the per-type payload layouts (all integers
//! little-endian):
//!
//! `SUBMIT` — a [`JobSpec`], 60 bytes: `id:u64, n:u64, k:u64, m:u64,
//! design_seed:u64, job_seed:u64, c_milli:u32, query_cost_micros:u32,
//! design_kind:u8, decoder:u8, pad:u16(=0)`.
//!
//! `RESULT` — a [`JobResult`], 64 bytes: `id:u64, support_digest:u64,
//! score_digest:u64, decode_micros:u64, queue_micros:u64,
//! total_micros:u64, hits:u32, weight:u32, worker:u32, decoder:u8,
//! exact:u8(0|1), pad:u16(=0)`.
//!
//! `BUSY` / `REJECT` — 8 bytes: the job `id` the server could not accept
//! right now (backpressure — retry) or will never accept (infeasible
//! spec — don't).
//!
//! `PREWARM` — a [`DesignKey`] in the codec's 32-byte key layout.
//! Client → server, fire-and-forget: warm the node's design cache for
//! this key (the router's standby-warming path). The server only claims
//! the key and queues it for its engine's sampler thread
//! ([`crate::engine::Engine::prewarm`]), so the frame never stalls the
//! event loop that reads it. No reply — a node that cannot warm, or
//! whose sampler queue is full, simply pays the miss later.
//!
//! `STATS` — a token-correlated [`EngineStats`] snapshot, 7992 bytes
//! (server → client, answering `STATS_REQUEST`): the echoed request
//! token, then the codec's 7984-byte stats layout — lossless, so the far
//! side's merged moments and quantiles are bit-identical to a local
//! merge. Fixed-size like every other frame.
//!
//! `STATS_REQUEST` — 8 bytes: an opaque correlation token the server
//! echoes back in its `STATS` reply (client → server). A server whose
//! session cannot observe engine stats sends no reply; the scraper's
//! read deadline turns that silence into a `stats_unavailable` marker.

use std::sync::Arc;

pub use crate::codec::{CHECKSUM_LEN, HEADER_LEN, VERSION};

use crate::cache::DesignKey;
use crate::codec::{
    decoder_code, decoder_from_code, design_code, design_from_code, get_key, get_stats, get_u32,
    get_u64, get_usize, put_key, put_stats, put_u32, put_u64, Envelope, RecordError, KEY_LEN,
    STATS_LEN,
};
use crate::engine::EngineStats;
use crate::job::{DesignSpec, JobResult, JobSpec};
use crate::telemetry::{Metric, MetricsRegistry};

/// First byte of every frame.
pub const MAGIC: u8 = 0xD5;
/// `SUBMIT` payload size.
pub const SPEC_PAYLOAD_LEN: usize = 60;
/// `RESULT` payload size.
pub const RESULT_PAYLOAD_LEN: usize = 64;
/// `BUSY` / `REJECT` payload size.
pub const ID_PAYLOAD_LEN: usize = 8;
/// `PREWARM` payload size.
pub const KEY_PAYLOAD_LEN: usize = KEY_LEN;
/// `STATS` payload size: the token, then the stats layout.
pub const STATS_PAYLOAD_LEN: usize = 8 + STATS_LEN;
/// `STATS_REQUEST` payload size (the correlation token).
pub const STATS_REQUEST_PAYLOAD_LEN: usize = 8;
/// Largest whole frame the protocol can produce.
pub const MAX_FRAME_LEN: usize = HEADER_LEN + STATS_PAYLOAD_LEN + CHECKSUM_LEN;

const TYPE_SUBMIT: u8 = 1;
const TYPE_RESULT: u8 = 2;
const TYPE_BUSY: u8 = 3;
const TYPE_REJECT: u8 = 4;
const TYPE_PREWARM: u8 = 5;
const TYPE_STATS: u8 = 6;
const TYPE_STATS_REQUEST: u8 = 7;

const WIRE: Envelope = Envelope { magic: MAGIC, payload_len: payload_len_of };

fn payload_len_of(msg_type: u8) -> Option<usize> {
    match msg_type {
        TYPE_SUBMIT => Some(SPEC_PAYLOAD_LEN),
        TYPE_RESULT => Some(RESULT_PAYLOAD_LEN),
        TYPE_BUSY | TYPE_REJECT => Some(ID_PAYLOAD_LEN),
        TYPE_PREWARM => Some(KEY_PAYLOAD_LEN),
        TYPE_STATS => Some(STATS_PAYLOAD_LEN),
        TYPE_STATS_REQUEST => Some(STATS_REQUEST_PAYLOAD_LEN),
        _ => None,
    }
}

/// A server's answer to a `STATS_REQUEST`: the far-side engine's
/// telemetry snapshot, tagged with the request's correlation token so a
/// scraper can discard stale replies after a timeout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StatsReply {
    /// Echo of the request token this snapshot answers.
    pub token: u64,
    /// The serving engine's stats at scrape time.
    pub stats: EngineStats,
}

/// One decoded wire message.
//
// The STATS variant embeds a full fixed-size histogram (~8 KiB), which
// dwarfs the other variants; boxing it would forfeit `Copy` for the hot
// SUBMIT/RESULT frames and put an allocation on the scrape path, so the
// size skew is accepted deliberately.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: run this job.
    Submit(JobSpec),
    /// Server → client: one completed job.
    Result(JobResult),
    /// Server → client: the submission queue was full when job `id`
    /// arrived (backpressure made explicit — the client may retry).
    Busy(u64),
    /// Server → client: job `id` is infeasible and will never be
    /// accepted (do not retry).
    Reject(u64),
    /// Client → server, fire-and-forget: warm the design cache for this
    /// key before traffic arrives (standby keep-warm). Never answered.
    Prewarm(DesignKey),
    /// Server → client: the engine-stats snapshot answering a
    /// [`Frame::StatsRequest`] with the same token.
    Stats(StatsReply),
    /// Client → server: scrape the serving engine's stats. The reply is
    /// a [`Frame::Stats`] echoing the token; a session with no stats to
    /// report stays silent and lets the scraper's deadline expire.
    StatsRequest(u64),
}

/// Serialize `frame` into `buf` (cleared first; reuse the buffer across
/// frames to keep the wire path allocation-free after warm-up).
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) {
    let msg_type = match frame {
        Frame::Submit(_) => TYPE_SUBMIT,
        Frame::Result(_) => TYPE_RESULT,
        Frame::Busy(_) => TYPE_BUSY,
        Frame::Reject(_) => TYPE_REJECT,
        Frame::Prewarm(_) => TYPE_PREWARM,
        Frame::Stats(_) => TYPE_STATS,
        Frame::StatsRequest(_) => TYPE_STATS_REQUEST,
    };
    WIRE.encode(buf, msg_type, |buf| match frame {
        Frame::Submit(spec) => {
            put_u64(buf, spec.id);
            put_u64(buf, spec.n as u64);
            put_u64(buf, spec.k as u64);
            put_u64(buf, spec.m as u64);
            put_u64(buf, spec.design.seed);
            put_u64(buf, spec.seed);
            put_u32(buf, spec.design.c_milli);
            put_u32(buf, spec.query_cost_micros);
            buf.push(design_code(spec.design.kind));
            buf.push(decoder_code(spec.decoder));
            buf.extend_from_slice(&[0u8; 2]); // pad
        }
        Frame::Result(r) => {
            put_u64(buf, r.id);
            put_u64(buf, r.support_digest);
            put_u64(buf, r.score_digest);
            put_u64(buf, r.decode_micros);
            put_u64(buf, r.queue_micros);
            put_u64(buf, r.total_micros);
            put_u32(buf, r.hits);
            put_u32(buf, r.weight);
            put_u32(buf, r.worker);
            buf.push(decoder_code(r.decoder));
            buf.push(r.exact as u8);
            buf.extend_from_slice(&[0u8; 2]); // pad
        }
        Frame::Busy(id) | Frame::Reject(id) => put_u64(buf, *id),
        Frame::Prewarm(key) => put_key(buf, key),
        Frame::Stats(reply) => {
            put_u64(buf, reply.token);
            put_stats(buf, &reply.stats);
        }
        Frame::StatsRequest(token) => put_u64(buf, *token),
    });
}

/// Parse one frame from the front of `bytes`; returns the frame and how
/// many bytes it consumed. Never reads past the frame, never allocates,
/// and never interprets a payload byte before magic, version, type,
/// length and checksum have all been verified.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), RecordError> {
    let (msg_type, p, total) = WIRE.decode(bytes)?;
    let frame = match msg_type {
        TYPE_SUBMIT => Frame::Submit(JobSpec {
            id: get_u64(p, 0),
            n: get_usize(p, 8, "n")?,
            k: get_usize(p, 16, "k")?,
            m: get_usize(p, 24, "m")?,
            design: DesignSpec {
                kind: design_from_code(p[56])?,
                c_milli: get_u32(p, 48),
                seed: get_u64(p, 32),
            },
            decoder: decoder_from_code(p[57])?,
            seed: get_u64(p, 40),
            query_cost_micros: get_u32(p, 52),
        }),
        TYPE_RESULT => Frame::Result(JobResult {
            id: get_u64(p, 0),
            decoder: decoder_from_code(p[60])?,
            exact: match p[61] {
                0 => false,
                1 => true,
                code => return Err(RecordError::BadValue { field: "exact", value: code as u64 }),
            },
            hits: get_u32(p, 48),
            weight: get_u32(p, 52),
            support_digest: get_u64(p, 8),
            score_digest: get_u64(p, 16),
            decode_micros: get_u64(p, 24),
            queue_micros: get_u64(p, 32),
            total_micros: get_u64(p, 40),
            worker: get_u32(p, 56),
        }),
        TYPE_BUSY => Frame::Busy(get_u64(p, 0)),
        TYPE_REJECT => Frame::Reject(get_u64(p, 0)),
        TYPE_PREWARM => Frame::Prewarm(get_key(p)?),
        TYPE_STATS => Frame::Stats(StatsReply { token: get_u64(p, 0), stats: get_stats(&p[8..])? }),
        TYPE_STATS_REQUEST => Frame::StatsRequest(get_u64(p, 0)),
        _ => unreachable!("payload_len_of admitted the type"),
    };
    Ok((frame, total))
}

/// Write one frame to `w` (buffered writers should flush when their
/// burst ends, not per frame). `scratch` is the reusable encode buffer.
pub fn write_frame<W: std::io::Write>(
    w: &mut W,
    frame: &Frame,
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    encode_frame(frame, scratch);
    w.write_all(scratch)
}

/// A segment-queue sink: accepts whole encoded frames as discrete
/// owned buffers instead of a byte stream.
///
/// This is the zero-copy outbound contract. [`FrameWriter::send_segment`]
/// borrows a recycled buffer from the sink, encodes the frame straight
/// into it, and hands the buffer back as the queue entry — after the
/// encode, no byte of the frame is ever copied or memmoved again; the
/// drain side (a vectored `writev` over the queued segments) only
/// advances an offset.
pub trait SegmentSink {
    /// A cleared, reusable buffer to encode the next frame into (the
    /// sink's recycle pool keeps the steady state allocation-free).
    fn take_buffer(&mut self) -> Vec<u8>;
    /// Queue `segment` — one whole encoded frame — for transmission.
    fn push_segment(&mut self, segment: Vec<u8>);
}

/// A sink plus its reusable encode scratch — the pairing every frame
/// producer needs (the server's per-connection writer, a remote node's
/// submission half). One definition here so a future change to the
/// encode path has exactly one home.
///
/// The sink is either a byte stream ([`std::io::Write`]: `send` encodes
/// into the shared scratch and streams it) or a [`SegmentSink`]
/// (`send_segment` encodes into a sink-owned buffer that *becomes* the
/// queue entry — the event-loop server's zero-copy outbound path).
pub struct FrameWriter<W> {
    w: W,
    scratch: Vec<u8>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<W> FrameWriter<W> {
    /// Wrap a sink (callers hand in a `BufWriter` when batching).
    pub fn new(w: W) -> Self {
        Self { w, scratch: Vec::new(), metrics: None }
    }

    /// [`Self::new`] with wire accounting: every frame that reaches the
    /// sink adds its encoded byte count to [`Metric::WireBytesTx`] and
    /// bumps [`Metric::WireFramesTx`].
    pub fn with_metrics(w: W, metrics: Arc<MetricsRegistry>) -> Self {
        Self { w, scratch: Vec::new(), metrics: Some(metrics) }
    }

    fn meter(&self, encoded_len: usize) {
        if let Some(metrics) = &self.metrics {
            metrics.add(Metric::WireBytesTx, encoded_len as u64);
            metrics.inc(Metric::WireFramesTx);
        }
    }

    /// The underlying sink (the event-loop server keeps a connection's
    /// outbound segment queue inside its writer and drains it against
    /// the socket between readiness ticks).
    pub fn get_ref(&self) -> &W {
        &self.w
    }

    /// Mutable access to the underlying sink.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.w
    }
}

impl<W: std::io::Write> FrameWriter<W> {
    /// Encode and write one frame (buffered until [`Self::flush`] when
    /// the sink buffers).
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        write_frame(&mut self.w, frame, &mut self.scratch)?;
        self.meter(self.scratch.len());
        Ok(())
    }

    /// Flush the sink.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

impl<W: SegmentSink> FrameWriter<W> {
    /// Encode one frame directly into a sink-recycled buffer and queue
    /// it as a discrete segment. Infallible: queueing into memory has
    /// no I/O to fail — backpressure is the *caller's* contract (the
    /// server pauses reading a tenant whose queue passes high water).
    pub fn send_segment(&mut self, frame: &Frame) {
        let mut segment = self.w.take_buffer();
        encode_frame(frame, &mut segment);
        let len = segment.len();
        self.w.push_segment(segment);
        self.meter(len);
    }
}

/// The one stream decoder: feed whatever byte run a socket produced via
/// [`FrameAssembler::extend`], then pull complete frames with
/// [`FrameAssembler::next_frame`] until it returns `Ok(None)` ("need
/// more bytes"). Partial frames stay buffered across calls, so a tenant
/// dribbling one byte per readiness tick still decodes correctly — just
/// slowly, and at its own expense only — and a blocking reader whose
/// read deadline fires mid-frame loses nothing. The event-loop server,
/// the client and the remote node's reply pump all decode through it.
///
/// Truncation is *not* an error here — it is the steady state between
/// reads. Every other [`RecordError`] is fatal to the stream (no resync
/// point), and a stream gone bad is refused at its first wrong magic,
/// version or type byte — a garbage-spraying peer is dropped at once
/// instead of being buffered until a full header accumulates.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` — decoded frames are logically removed
    /// by advancing this, and physically removed by [`Self::compact`]
    /// so a long-lived connection doesn't grow the buffer forever.
    pos: usize,
}

impl FrameAssembler {
    /// An empty assembler (per-connection; holds no fd).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (a partial frame, or complete
    /// frames not yet pulled).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, returning it with its encoded
    /// byte count (for wire accounting). `Ok(None)` means the buffer
    /// holds only a frame prefix — extend and retry after the next
    /// read. Any `Err` is unrecoverable: drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<(Frame, usize)>, RecordError> {
        match decode_frame(&self.buf[self.pos..]) {
            Ok((frame, consumed)) => {
                self.pos += consumed;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                }
                Ok(Some((frame, consumed)))
            }
            Err(RecordError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// [`Self::next_frame`] with wire accounting: each decoded frame
    /// adds its whole byte count (header ‖ payload ‖ checksum) to
    /// [`Metric::WireBytesRx`] and bumps [`Metric::WireFramesRx`]; a
    /// checksum mismatch bumps [`Metric::WireChecksumRejects`] before
    /// the error surfaces.
    pub fn next_frame_metered(
        &mut self,
        metrics: &MetricsRegistry,
    ) -> Result<Option<(Frame, usize)>, RecordError> {
        let out = self.next_frame();
        match &out {
            Ok(Some((_, consumed))) => {
                metrics.add(Metric::WireBytesRx, *consumed as u64);
                metrics.inc(Metric::WireFramesRx);
            }
            Err(RecordError::BadChecksum) => metrics.inc(Metric::WireChecksumRejects),
            _ => {}
        }
        out
    }

    /// Physically drop the consumed prefix once it dominates the buffer
    /// (amortized O(1) per byte — each byte moves at most once).
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::checksum;
    use crate::job::DecoderKind;
    use pooled_design::factory::DesignKind;

    fn spec() -> JobSpec {
        JobSpec {
            id: 42,
            n: 1000,
            k: 7,
            m: 420,
            design: DesignSpec { kind: DesignKind::NoReplace, c_milli: 350, seed: 0xDEAD_BEEF },
            decoder: DecoderKind::GeneralMn,
            seed: 0x1234_5678_9ABC_DEF0,
            query_cost_micros: 2_000,
        }
    }

    fn result() -> JobResult {
        JobResult {
            id: 42,
            decoder: DecoderKind::Mn,
            exact: true,
            hits: 7,
            weight: 7,
            support_digest: 0x1111_2222_3333_4444,
            score_digest: 0x5555_6666_7777_8888,
            decode_micros: 314,
            queue_micros: 159,
            total_micros: 2_653,
            worker: 3,
        }
    }

    fn design_key() -> DesignKey {
        DesignKey { n: 1000, m: 420, kind: DesignKind::NoReplace, c_milli: 350, seed: 0xDEAD_BEEF }
    }

    fn stats_reply() -> StatsReply {
        let mut stats = EngineStats::zero();
        stats.jobs_completed = 1234;
        stats.jobs_poisoned = 3;
        stats.exact_recoveries = 1200;
        stats.cache_hits = 999;
        stats.cache_misses = 17;
        stats.cache_len = 16;
        stats.queued_jobs = 5;
        stats.pending_results = 2;
        stats.workers = 8;
        for i in 0..100u64 {
            stats.total_latency.push(4_000.0 + i as f64 * 13.5);
            stats.decode_latency.push(250.0 + i as f64);
            stats.histogram.record_micros(4_000 + i * 13);
        }
        StatsReply { token: 0xFEED_F00D_CAFE_0001, stats }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        for frame in [
            Frame::Submit(spec()),
            Frame::Result(result()),
            Frame::Busy(9),
            Frame::Reject(11),
            Frame::Prewarm(design_key()),
            Frame::Stats(stats_reply()),
            Frame::StatsRequest(0xA5A5),
        ] {
            encode_frame(&frame, &mut buf);
            let (decoded, consumed) = decode_frame(&buf).expect("round trip");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, buf.len());
            assert!(buf.len() <= MAX_FRAME_LEN);
        }
    }

    #[test]
    fn segment_writer_emits_one_decodable_segment_per_frame() {
        /// Minimal recording sink: keeps every segment it was handed
        /// and counts how many recycled buffers were requested.
        #[derive(Default)]
        struct RecordingSink {
            segments: Vec<Vec<u8>>,
            recycled: Vec<Vec<u8>>,
        }
        impl SegmentSink for RecordingSink {
            fn take_buffer(&mut self) -> Vec<u8> {
                self.recycled.pop().unwrap_or_default()
            }
            fn push_segment(&mut self, segment: Vec<u8>) {
                self.segments.push(segment);
            }
        }

        let metrics = Arc::new(MetricsRegistry::new());
        let mut writer = FrameWriter::with_metrics(RecordingSink::default(), Arc::clone(&metrics));
        let frames =
            [Frame::Submit(spec()), Frame::Result(result()), Frame::Busy(9), Frame::Reject(11)];
        let mut expected_bytes = 0u64;
        for frame in &frames {
            writer.send_segment(frame);
            expected_bytes += writer.get_ref().segments.last().expect("segment").len() as u64;
        }
        let sink = writer.get_mut();
        assert_eq!(sink.segments.len(), frames.len(), "exactly one segment per frame");
        for (segment, frame) in sink.segments.iter().zip(&frames) {
            let (decoded, consumed) = decode_frame(segment).expect("segment decodes standalone");
            assert_eq!(&decoded, frame);
            assert_eq!(consumed, segment.len(), "segment holds exactly one frame");
        }
        // A recycled dirty buffer must be fully overwritten, not appended to.
        sink.recycled.push(vec![0xFF; 300]);
        let before = sink.segments.len();
        writer.send_segment(&Frame::Busy(77));
        let sink = writer.get_ref();
        let (decoded, consumed) =
            decode_frame(&sink.segments[before]).expect("recycled segment decodes");
        assert_eq!(decoded, Frame::Busy(77));
        assert_eq!(consumed, sink.segments[before].len());
        // Wire accounting matches the byte-stream path: bytes + frames.
        let last = sink.segments[before].len() as u64;
        assert_eq!(metrics.get(Metric::WireBytesTx), expected_bytes + last);
        assert_eq!(metrics.get(Metric::WireFramesTx), frames.len() as u64 + 1);
    }

    #[test]
    fn assembler_reassembles_frames_from_single_byte_feeds() {
        // The adversarial dribbler scenario in miniature: every byte of
        // a multi-frame burst arrives alone, and the assembler must
        // yield exactly the original frame sequence with exact counts.
        let frames = [
            Frame::Submit(spec()),
            Frame::Busy(9),
            Frame::Result(result()),
            Frame::Prewarm(design_key()),
            Frame::Stats(stats_reply()),
            Frame::StatsRequest(0xA5A5),
            Frame::Reject(11),
        ];
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut scratch);
            wire.extend_from_slice(&scratch);
        }
        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        let mut accounted = 0usize;
        for byte in &wire {
            asm.extend(std::slice::from_ref(byte));
            while let Some((frame, consumed)) = asm.next_frame().expect("valid stream") {
                decoded.push(frame);
                accounted += consumed;
            }
        }
        assert_eq!(decoded.as_slice(), frames.as_slice());
        assert_eq!(accounted, wire.len(), "every wire byte belongs to exactly one frame");
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_yields_all_frames_of_a_burst_then_holds_the_tail() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for frame in [Frame::Busy(1), Frame::Busy(2), Frame::Busy(3)] {
            encode_frame(&frame, &mut scratch);
            wire.extend_from_slice(&scratch);
        }
        // Deliver two complete frames plus half of the third in one read.
        let split = wire.len() - scratch.len() / 2;
        let mut asm = FrameAssembler::new();
        asm.extend(&wire[..split]);
        assert_eq!(asm.next_frame().unwrap().map(|(f, _)| f), Some(Frame::Busy(1)));
        assert_eq!(asm.next_frame().unwrap().map(|(f, _)| f), Some(Frame::Busy(2)));
        assert!(asm.next_frame().unwrap().is_none(), "half a frame is not a frame");
        assert!(asm.buffered() > 0);
        asm.extend(&wire[split..]);
        assert_eq!(asm.next_frame().unwrap().map(|(f, _)| f), Some(Frame::Busy(3)));
        assert!(asm.next_frame().unwrap().is_none());
    }

    #[test]
    fn assembler_surfaces_stream_corruption_as_fatal() {
        let mut wire = Vec::new();
        encode_frame(&Frame::Busy(1), &mut wire);
        let tail = wire.len() - 1;
        wire[tail] ^= 0xFF; // corrupt the checksum
        let mut asm = FrameAssembler::new();
        asm.extend(&wire);
        assert_eq!(asm.next_frame(), Err(RecordError::BadChecksum));
        let mut asm = FrameAssembler::new();
        asm.extend(&[0x00, 0x01, 0x02]); // garbage, wrong magic
        assert!(asm.next_frame().is_err(), "desynced stream must not look like 'need more'");
    }

    #[test]
    fn assembler_compaction_keeps_long_lived_buffers_bounded() {
        let mut frame_bytes = Vec::new();
        encode_frame(&Frame::Submit(spec()), &mut frame_bytes);
        let mut asm = FrameAssembler::new();
        for _ in 0..10_000 {
            asm.extend(&frame_bytes);
            let (_, consumed) = asm.next_frame().expect("valid").expect("complete");
            assert_eq!(consumed, frame_bytes.len());
        }
        assert_eq!(asm.buffered(), 0);
        // 10k frames passed through; the retained allocation must stay
        // on the order of one compaction window, not the stream size.
        assert!(asm.buf.capacity() < 64 * 1024, "buffer grew to {}", asm.buf.capacity());
    }

    #[test]
    fn metered_io_counts_bytes_frames_and_checksum_rejects() {
        let tx = Arc::new(MetricsRegistry::new());
        let mut writer = FrameWriter::with_metrics(Vec::new(), Arc::clone(&tx));
        for frame in [Frame::Busy(7), Frame::Reject(8)] {
            writer.send(&frame).unwrap();
        }
        let wire = writer.get_ref().clone();
        assert_eq!(tx.get(Metric::WireBytesTx), wire.len() as u64);
        assert_eq!(tx.get(Metric::WireFramesTx), 2);

        let metrics = MetricsRegistry::new();
        let mut asm = FrameAssembler::new();
        asm.extend(&wire);
        while asm.next_frame_metered(&metrics).expect("valid").is_some() {}
        assert_eq!(metrics.get(Metric::WireFramesRx), 2);
        assert_eq!(metrics.get(Metric::WireBytesRx), wire.len() as u64);
        assert_eq!(metrics.get(Metric::WireChecksumRejects), 0);

        let mut bad = Vec::new();
        encode_frame(&Frame::Busy(9), &mut bad);
        let tail = bad.len() - 1;
        bad[tail] ^= 0xFF;
        asm.extend(&bad);
        assert!(asm.next_frame_metered(&metrics).is_err());
        assert_eq!(metrics.get(Metric::WireChecksumRejects), 1);
        assert_eq!(
            metrics.get(Metric::WireFramesRx),
            2,
            "rejected frame is not counted as received"
        );
    }

    #[test]
    fn stats_layout_is_stable_little_endian() {
        let reply = stats_reply();
        let mut buf = Vec::new();
        encode_frame(&Frame::Stats(reply), &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + STATS_PAYLOAD_LEN + CHECKSUM_LEN);
        assert_eq!(buf.len(), MAX_FRAME_LEN);
        let len = STATS_PAYLOAD_LEN as u32;
        assert_eq!(&buf[..4], &[MAGIC, VERSION, 6, 0]);
        assert_eq!(&buf[4..8], &len.to_le_bytes());
        assert_eq!(&buf[8..16], &0xFEED_F00D_CAFE_0001u64.to_le_bytes(), "token");
        assert_eq!(&buf[16..24], &1234u64.to_le_bytes(), "jobs_completed");
        assert_eq!(&buf[24..32], &3u64.to_le_bytes(), "jobs_poisoned");
        assert_eq!(&buf[80..88], &8u64.to_le_bytes(), "workers");
        assert_eq!(&buf[88..96], &100u64.to_le_bytes(), "total_latency count");
        // The summary's mean travels as raw f64 bits — lossless.
        let mean = f64::from_le_bytes(buf[96..104].try_into().unwrap());
        assert_eq!(mean.to_bits(), reply.stats.total_latency.mean().to_bits());

        let mut buf = Vec::new();
        encode_frame(&Frame::StatsRequest(7), &mut buf);
        assert_eq!(&buf[..8], &[MAGIC, VERSION, 7, 0, 8, 0, 0, 0]);
        assert_eq!(&buf[8..16], &7u64.to_le_bytes(), "token");
    }

    #[test]
    fn stats_round_trip_preserves_moments_and_quantiles_bit_exactly() {
        // The far side must be able to merge a scraped snapshot into its
        // cluster view exactly as if the histogram had been recorded
        // locally — that's what makes remote ClusterStats sums complete.
        let reply = stats_reply();
        let mut buf = Vec::new();
        encode_frame(&Frame::Stats(reply), &mut buf);
        let (decoded, _) = decode_frame(&buf).expect("round trip");
        let Frame::Stats(back) = decoded else { panic!("wrong frame type") };
        assert_eq!(back.token, reply.token);
        let (a, b) = (&back.stats, &reply.stats);
        assert_eq!(a.total_latency.mean().to_bits(), b.total_latency.mean().to_bits());
        assert_eq!(a.total_latency.variance().to_bits(), b.total_latency.variance().to_bits());
        assert_eq!(a.decode_latency.min().to_bits(), b.decode_latency.min().to_bits());
        assert_eq!(a.histogram.quantile_micros(0.99), b.histogram.quantile_micros(0.99));
        assert_eq!(a.histogram.sum_micros(), b.histogram.sum_micros());
        // An empty snapshot round-trips too (±∞ summary sentinels).
        let empty = StatsReply { token: 0, stats: EngineStats::zero() };
        encode_frame(&Frame::Stats(empty), &mut buf);
        let (decoded, _) = decode_frame(&buf).expect("empty round trip");
        assert_eq!(decoded, Frame::Stats(empty));
    }

    #[test]
    fn every_stats_truncation_and_corruption_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Stats(stats_reply()), &mut buf);
        for cut in [0, 1, 7, 8, 100, HEADER_LEN + STATS_PAYLOAD_LEN, buf.len() - 1] {
            let err = decode_frame(&buf[..cut]).expect_err("truncation must fail");
            assert!(matches!(err, RecordError::Truncated { .. }), "cut {cut}: {err:?}");
        }
        // Checksum coverage: flip a byte in the header, the scalar block,
        // the bucket array, and the checksum itself.
        for i in [2usize, 20, 500, 5_000, buf.len() - 3] {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x40;
            assert!(decode_frame(&corrupt).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn prewarm_layout_is_stable_little_endian() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Prewarm(design_key()), &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + KEY_PAYLOAD_LEN + CHECKSUM_LEN);
        assert_eq!(&buf[..8], &[MAGIC, VERSION, 5, 0, 32, 0, 0, 0]);
        assert_eq!(&buf[8..16], &1000u64.to_le_bytes(), "n");
        assert_eq!(&buf[16..24], &420u64.to_le_bytes(), "m");
        assert_eq!(&buf[24..32], &0xDEAD_BEEFu64.to_le_bytes(), "seed");
        assert_eq!(&buf[32..36], &350u32.to_le_bytes(), "c_milli");
        assert_eq!(buf[36], 1, "design kind code (NoReplace)");
    }

    #[test]
    fn layout_is_stable_little_endian() {
        // The byte layout is a wire contract: pin the exact bytes of a
        // known SUBMIT frame so an accidental field reorder or endianness
        // change cannot slip through as "still round-trips".
        let mut buf = Vec::new();
        encode_frame(&Frame::Submit(spec()), &mut buf);
        assert_eq!(buf.len(), HEADER_LEN + SPEC_PAYLOAD_LEN + CHECKSUM_LEN);
        assert_eq!(&buf[..8], &[MAGIC, VERSION, 1, 0, 60, 0, 0, 0]);
        assert_eq!(&buf[8..16], &42u64.to_le_bytes(), "id");
        assert_eq!(&buf[16..24], &1000u64.to_le_bytes(), "n");
        assert_eq!(&buf[56..60], &350u32.to_le_bytes(), "c_milli");
        assert_eq!(buf[64], 1, "design kind code (NoReplace)");
        assert_eq!(buf[65], 1, "decoder code (GeneralMn)");
    }

    #[test]
    fn only_served_decoder_codes_decode() {
        // Patch the decoder byte of a SUBMIT (payload byte 57) and a
        // RESULT (payload byte 60) to every value and re-seal the
        // checksum: the codes of `DecoderKind::ALL` decode, and every
        // other byte is refused, so no frame can name a decoder the
        // registry does not serve.
        for (frame, at) in [(Frame::Submit(spec()), 57), (Frame::Result(result()), 60)] {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let body = buf.len() - CHECKSUM_LEN;
            for code in 0..=u8::MAX {
                buf[HEADER_LEN + at] = code;
                let ck = checksum(&buf[..body]);
                buf[body..].copy_from_slice(&ck.to_le_bytes());
                let decoded = decode_frame(&buf).map(|(frame, _)| match frame {
                    Frame::Submit(spec) => spec.decoder,
                    Frame::Result(r) => r.decoder,
                    other => panic!("decoded to {other:?}"),
                });
                let want = DecoderKind::ALL
                    .get(code as usize)
                    .copied()
                    .ok_or(RecordError::BadValue { field: "decoder", value: code as u64 });
                assert_eq!(decoded, want, "decoder byte {code:#04x} at payload byte {at}");
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Result(result()), &mut buf);
        for cut in 0..buf.len() {
            let err = decode_frame(&buf[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(err, RecordError::Truncated { .. }),
                "cut at {cut} gave {err:?} instead of Truncated"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        // The checksum covers header and payload, so flipping any byte —
        // including the padding — must fail decode; flipping checksum
        // bytes fails by definition.
        let mut buf = Vec::new();
        encode_frame(&Frame::Submit(spec()), &mut buf);
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x40;
            assert!(decode_frame(&corrupt).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn header_errors_take_precedence() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Busy(1), &mut buf);
        let mut bad = buf.clone();
        bad[0] = 0x00;
        assert_eq!(decode_frame(&bad), Err(RecordError::BadMagic(0x00)));
        let mut bad = buf.clone();
        bad[1] = 9;
        assert_eq!(decode_frame(&bad), Err(RecordError::BadVersion(9)));
        let mut bad = buf.clone();
        bad[2] = 77;
        assert_eq!(decode_frame(&bad), Err(RecordError::UnknownType(77)));
    }
}
