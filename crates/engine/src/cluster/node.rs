//! "A place jobs run": the [`NodeHandle`] abstraction and its two impls.
//!
//! The cluster router talks to its nodes through this trait, so a
//! single in-process engine and a remote engine across the transport
//! frame protocol look identical to it: single-node paths are just a
//! 1-node cluster.
//!
//! * [`LocalNode`] owns an [`Engine`] and reads its completions from a
//!   private [`ResultRoute`], so a node's completion stream never
//!   interleaves with another tenant's.
//! * [`RemoteNode`] wraps one TCP connection speaking the transport
//!   frame protocol: submissions are written frames, and `recv`/
//!   `try_recv` read reply frames into [`NodeEvent`]s on the caller's
//!   thread, with the same tri-state as the in-process queues. No
//!   thread stands behind the handle.
//!
//! Backpressure is uniform but surfaces at the two places it physically
//! occurs: a local full queue is *synchronous* ([`SubmitOutcome::Busy`]
//! from `try_submit`), a remote full queue is *asynchronous* (a `BUSY`
//! frame arriving later as [`NodeEvent::Busy`]). Callers that handle
//! both — hold the spec until the node resolves another job, then
//! resubmit it — work unchanged against either node kind; that is the
//! router's BUSY-aware retry loop.

use std::collections::VecDeque;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{BufWriter, Read};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::DesignKey;
use crate::engine::{Engine, EngineConfig, EngineStats, ResultRoute, SubmitError};
use crate::job::{JobResult, JobSpec};
use crate::queue::TryPop;
use crate::telemetry::{Metric, MetricsRegistry};
use crate::transport::frame::{Frame, FrameAssembler, FrameWriter, StatsReply};
use crate::transport::reactor::recv_nonblocking;
use crate::transport::{connect_stream, WireTimeouts};

/// Something a node hands back on its completion stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeEvent {
    /// One completed job.
    Result(JobResult),
    /// The node's submission queue was full when job `id` arrived
    /// (remote backpressure — the wire's `BUSY` frame); resubmit later.
    Busy(u64),
    /// The node terminally refused job `id`: the spec passed local
    /// validation but the node's transport rejected it (e.g. its
    /// `max_dimension` cap is below the spec shape). Never retry; the
    /// router resolves the job without a result
    /// ([`crate::cluster::Router::rejected`]).
    Rejected(u64),
    /// The node is gone while it still owed replies: its connection
    /// dropped, broke framing, or stayed silent past the read deadline
    /// with submissions outstanding. Everything in flight there is lost;
    /// the router re-routes to the survivors.
    Down,
}

/// What can go wrong talking to a node.
#[derive(Debug)]
pub enum NodeError {
    /// The node is shutting down (or the connection is gone); the spec
    /// will never be served here.
    Closed,
    /// Socket-level failure on a remote node.
    Io(std::io::Error),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Closed => write!(f, "node closed"),
            NodeError::Io(e) => write!(f, "node i/o error: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// Outcome of a non-blocking submission to a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job was accepted (locally queued, or handed to the wire — a
    /// remote node may still answer with [`NodeEvent::Busy`]).
    Accepted,
    /// Local backpressure: the submission queue is full *right now*;
    /// retry after draining an event.
    Busy,
}

/// A place jobs run. Object-safe; `Send + Sync` so one handle can be
/// shared between a submitting thread and a draining thread.
pub trait NodeHandle: Send + Sync {
    /// Blocking submission: waits out local backpressure, errs once the
    /// node is gone. (A remote node cannot block on the peer's queue —
    /// its backpressure arrives later as [`NodeEvent::Busy`].)
    fn submit(&self, spec: JobSpec) -> Result<(), NodeError>;

    /// Non-blocking submission (see [`SubmitOutcome`]).
    fn try_submit(&self, spec: JobSpec) -> Result<SubmitOutcome, NodeError>;

    /// Push buffered submissions toward the node. No-op for local nodes;
    /// remote nodes flush their socket writer. Call before waiting on
    /// events for jobs just submitted.
    fn flush(&self) -> Result<(), NodeError> {
        Ok(())
    }

    /// Blocking receive; `None` once the node's completion stream is
    /// closed **and** drained.
    fn recv(&self) -> Option<NodeEvent>;

    /// Non-blocking receive with the tri-state a fan-in loop needs:
    /// `Empty` (poll again later) vs `Closed` (this node is done).
    fn try_recv(&self) -> TryPop<NodeEvent>;

    /// Warm this node's design cache for `keys` ahead of traffic — the
    /// cluster's standby keep-warm path. Best-effort and administrative:
    /// a node that cannot warm simply pays the cold miss later. Returns
    /// without waiting for any sample ([`Engine::prewarm`]).
    fn prewarm(&self, keys: &[DesignKey]) -> Result<(), NodeError>;

    /// This node's serving telemetry: a local node reads its engine's
    /// stats directly, a remote node **scrapes** them over the wire
    /// (`STATS_REQUEST` → `STATS`, bounded wait). `None` means the stats
    /// are *unavailable right now* (scrape timeout or dead connection)
    /// — callers must surface that distinctly, never treat it as zeros.
    fn stats(&self) -> Option<EngineStats>;

    /// Close the completion stream: wakes blocked `recv` callers,
    /// further events are dropped. Idempotent. Does not stop the
    /// underlying engine — that is [`NodeHandle::shutdown`]'s job.
    fn close(&self);

    /// Tear the node down. Returns final telemetry when this handle
    /// owned the serving resources (a [`LocalNode`] shuts its engine
    /// down); `None` for remote nodes, whose engines outlive the handle.
    fn shutdown(self: Box<Self>) -> Option<EngineStats>;
}

/// An in-process node: an [`Engine`] it owns, behind a private
/// [`ResultRoute`].
pub struct LocalNode {
    engine: Engine,
    route: ResultRoute,
}

impl LocalNode {
    /// Start a fresh engine owned by this node. The node's completion
    /// stream holds up to `config.results_capacity` buffered results.
    pub fn start(config: EngineConfig) -> Self {
        Self::start_prewarmed(config, &[])
    }

    /// [`Self::start`] with a design-cache warm-up from a key snapshot
    /// before the node accepts traffic (see
    /// [`Engine::start_prewarmed`]) — the restarted-node path.
    pub fn start_prewarmed(config: EngineConfig, prewarm: &[DesignKey]) -> Self {
        let engine = Engine::start_prewarmed(config, prewarm);
        let route = engine.open_route(config.results_capacity.max(1));
        Self { engine, route }
    }
}

impl NodeHandle for LocalNode {
    fn submit(&self, spec: JobSpec) -> Result<(), NodeError> {
        self.engine.submit_routed(spec, &self.route).map_err(|_| NodeError::Closed)
    }

    fn try_submit(&self, spec: JobSpec) -> Result<SubmitOutcome, NodeError> {
        match self.engine.try_submit_routed(spec, &self.route) {
            Ok(()) => Ok(SubmitOutcome::Accepted),
            Err(SubmitError::Backpressure(_)) => Ok(SubmitOutcome::Busy),
            Err(SubmitError::Closed(_)) => Err(NodeError::Closed),
        }
    }

    fn recv(&self) -> Option<NodeEvent> {
        self.route.recv().map(NodeEvent::Result)
    }

    fn try_recv(&self) -> TryPop<NodeEvent> {
        match self.route.try_recv() {
            TryPop::Item(r) => TryPop::Item(NodeEvent::Result(r)),
            TryPop::Empty => TryPop::Empty,
            TryPop::Closed => TryPop::Closed,
        }
    }

    fn prewarm(&self, keys: &[DesignKey]) -> Result<(), NodeError> {
        self.engine.prewarm(keys);
        Ok(())
    }

    fn stats(&self) -> Option<EngineStats> {
        Some(self.engine.stats())
    }

    fn close(&self) {
        self.route.close();
    }

    fn shutdown(self: Box<Self>) -> Option<EngineStats> {
        self.route.close();
        Some(self.engine.shutdown())
    }
}

/// A node across the wire: one TCP connection to a transport server,
/// speaking the frame protocol. Submissions are `SUBMIT` frames, and the
/// caller's own `recv`/`try_recv`/`stats` read the replies off the
/// socket; no thread stands behind the handle.
///
/// Two fds: the socket, which the reader reads and [`NodeHandle::close`]
/// shuts down, and the writer's clone. Writes and reads take separate
/// locks, so one thread may submit while another waits in `recv`. A
/// scrape and a blocking `recv` share the reader, so they take turns.
pub struct RemoteNode {
    stream: TcpStream,
    writer: Mutex<FrameWriter<BufWriter<TcpStream>>>,
    reader: Mutex<Reader>,
    /// Submissions written minus replies received: how many answers the
    /// peer still owes. Read-deadline silence is only fatal while this
    /// is nonzero — an idle connection may be silent forever.
    owed: AtomicU64,
    /// Set by [`NodeHandle::close`] before it shuts the socket down, so
    /// the reader takes the end it sees for a goodbye, never a `Down`.
    closing: AtomicBool,
    /// The socket's read deadline ([`WireTimeouts::read`]), which a
    /// scrape shortens while it waits and then restores.
    read_timeout: Option<Duration>,
    /// Wire accounting for this connection (bytes/frames both ways).
    metrics: Arc<MetricsRegistry>,
    /// Correlation tokens for scrapes, unique per request.
    scrape_token: AtomicU64,
}

/// The read side of a [`RemoteNode`], under one lock.
struct Reader {
    /// Decodes across reads, so a read deadline that fires mid-frame
    /// keeps the partial frame buffered: a reply split across the
    /// deadline is reassembled, never desynchronized.
    asm: FrameAssembler,
    buf: Vec<u8>,
    /// Replies a scrape read on its way to its `STATS` frame, in arrival
    /// order; `recv`/`try_recv` hand these out first.
    pending: VecDeque<NodeEvent>,
    /// The stream is over; every later read finds it closed.
    ended: bool,
}

/// What one step of the reply reader found.
enum Step {
    /// A reply to a submission, already settled against `owed`.
    Event(NodeEvent),
    /// A `STATS` frame: it answers a scrape, not a submission.
    Stats(Box<StatsReply>),
    /// No frame: the read would block, or its deadline passed.
    Silent,
    /// The stream ended here. `down` when the peer left owing replies,
    /// mid-frame, or with a broken or illegal frame.
    Ended { down: bool },
}

impl RemoteNode {
    /// How long a stats scrape waits for the far side's `STATS` reply
    /// before reporting the node's stats unavailable.
    const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

    /// Connect to a transport server with the default [`WireTimeouts`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_with(addr, WireTimeouts::default())
    }

    /// Connect with explicit deadlines. A read deadline turns a half-dead
    /// peer from an eternal hang into a typed [`NodeEvent::Down`]: when
    /// a blocking `recv` finds the socket silent past `timeouts.read`
    /// *while replies are owed*, it declares the node down and ends the
    /// stream.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        timeouts: WireTimeouts,
    ) -> std::io::Result<Self> {
        let stream = connect_stream(addr, timeouts.connect)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeouts.read)?;
        let metrics = Arc::new(MetricsRegistry::new());
        let writer =
            FrameWriter::with_metrics(BufWriter::new(stream.try_clone()?), Arc::clone(&metrics));
        Ok(Self {
            stream,
            writer: Mutex::new(writer),
            reader: Mutex::new(Reader {
                asm: FrameAssembler::new(),
                buf: vec![0u8; 16 * 1024],
                pending: VecDeque::new(),
                ended: false,
            }),
            owed: AtomicU64::new(0),
            closing: AtomicBool::new(false),
            read_timeout: timeouts.read,
            metrics,
            scrape_token: AtomicU64::new(0),
        })
    }

    /// This connection's wire accounting (frame/byte counters both ways
    /// plus scrape outcomes).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Decode the next buffered frame; failing that, read the socket and
    /// decode again. Without `block` that is one read that never waits;
    /// with it, reads under the socket's read deadline until a frame,
    /// silence or the end of the stream.
    fn step(&self, r: &mut Reader, block: bool) -> Step {
        let mut read = false;
        loop {
            if r.ended || self.closing.load(Ordering::Acquire) {
                return r.end(false);
            }
            let event = match r.asm.next_frame_metered(&self.metrics) {
                Ok(Some((Frame::Result(result), _))) => NodeEvent::Result(result),
                Ok(Some((Frame::Busy(id), _))) => NodeEvent::Busy(id),
                Ok(Some((Frame::Reject(id), _))) => NodeEvent::Rejected(id),
                Ok(Some((Frame::Stats(reply), _))) => return Step::Stats(Box::new(reply)),
                // A server never sends SUBMIT/PREWARM/STATS_REQUEST, and
                // a corrupt frame leaves no resync point: either way the
                // conversation is over, abnormally.
                Ok(Some(_)) | Err(_) => return r.end(true),
                Ok(None) if read && !block => return Step::Silent,
                Ok(None) => {
                    read = true;
                    let down = match r.fill(&self.stream, block) {
                        Ok(0) => r.asm.buffered() > 0 || self.owed() > 0,
                        Ok(_) => continue,
                        Err(e) if e.kind() == Interrupted => continue,
                        Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => return Step::Silent,
                        Err(_) => true,
                    };
                    // EOF is a clean goodbye only between frames and with
                    // no replies owed; any other error means the peer is
                    // gone. After a local close, either is a goodbye.
                    return r.end(down && !self.closing.load(Ordering::Acquire));
                }
            };
            // A reply settles one owed submission (guard against a buggy
            // peer answering more often than asked).
            let _ =
                self.owed.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
            return Step::Event(event);
        }
    }

    fn owed(&self) -> u64 {
        self.owed.load(Ordering::Acquire)
    }

    /// Read until the `STATS` frame carrying `token` arrives or the
    /// scrape deadline passes, queueing every reply read on the way.
    fn await_stats(&self, r: &mut Reader, token: u64) -> Option<EngineStats> {
        let deadline = Instant::now() + Self::SCRAPE_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.metrics.inc(Metric::StatsScrapeTimeouts);
                return None;
            }
            let wait = self.read_timeout.map_or(left, |read| read.min(left));
            self.stream.set_read_timeout(Some(wait)).ok()?;
            match self.step(r, true) {
                Step::Stats(reply) if reply.token == token => {
                    self.metrics.inc(Metric::StatsScrapes);
                    return Some(reply.stats);
                }
                // An earlier scrape's reply, landing after it gave up.
                Step::Stats(_) => {}
                Step::Event(event) => r.pending.push_back(event),
                // The wire's own deadline passed with replies owed.
                Step::Silent if wait < left && self.owed() > 0 => {
                    r.pending.push_back(NodeEvent::Down);
                    r.ended = true;
                    return None;
                }
                Step::Silent => {}
                Step::Ended { down } => {
                    if down {
                        r.pending.push_back(NodeEvent::Down);
                    }
                    return None;
                }
            }
        }
    }
}

impl Reader {
    /// One read of `stream` into the assembler: never waits unless
    /// `block`. Returns the byte count (0 at end of stream).
    fn fill(&mut self, stream: &TcpStream, block: bool) -> std::io::Result<usize> {
        let got = if block {
            (&*stream).read(&mut self.buf)?
        } else {
            recv_nonblocking(stream.as_raw_fd(), &mut self.buf)?
        };
        self.asm.extend(&self.buf[..got]);
        Ok(got)
    }

    /// End the stream, as a `Down` when `down`.
    fn end(&mut self, down: bool) -> Step {
        self.ended = true;
        Step::Ended { down }
    }
}

impl NodeHandle for RemoteNode {
    fn submit(&self, spec: JobSpec) -> Result<(), NodeError> {
        // The wire cannot block on the peer's queue; "blocking" submit is
        // write + flush, and backpressure arrives as a BUSY event.
        self.try_submit(spec)?;
        self.flush()
    }

    fn try_submit(&self, spec: JobSpec) -> Result<SubmitOutcome, NodeError> {
        let mut writer = self.writer.lock().expect("remote writer poisoned");
        // Count the submission as owed before it can possibly be
        // answered; a failed write fails the node anyway.
        self.owed.fetch_add(1, Ordering::AcqRel);
        writer.send(&Frame::Submit(spec)).map_err(NodeError::Io)?;
        Ok(SubmitOutcome::Accepted)
    }

    fn prewarm(&self, keys: &[DesignKey]) -> Result<(), NodeError> {
        // Fire-and-forget PREWARM frames: never answered, so they do not
        // count as owed replies.
        let mut writer = self.writer.lock().expect("remote writer poisoned");
        for key in keys {
            writer.send(&Frame::Prewarm(*key)).map_err(NodeError::Io)?;
        }
        writer.flush().map_err(NodeError::Io)
    }

    fn flush(&self) -> Result<(), NodeError> {
        self.writer.lock().expect("remote writer poisoned").flush().map_err(NodeError::Io)
    }

    /// Blocks in `read(2)` under the socket's read deadline: silence
    /// past it while replies are owed is [`NodeEvent::Down`], idle
    /// silence keeps waiting.
    fn recv(&self) -> Option<NodeEvent> {
        // Anything buffered must reach the server before we wait on it.
        let _ = self.flush();
        let mut r = self.reader.lock().expect("remote reader poisoned");
        if let Some(event) = r.pending.pop_front() {
            return Some(event);
        }
        loop {
            match self.step(&mut r, true) {
                Step::Event(event) => return Some(event),
                // The late reply of a scrape that gave up.
                Step::Stats(_) => {}
                Step::Silent if self.owed() > 0 => {
                    r.ended = true;
                    return Some(NodeEvent::Down);
                }
                Step::Silent => {}
                Step::Ended { down } => return down.then_some(NodeEvent::Down),
            }
        }
    }

    /// Never waits: a buffered frame, or one nonblocking read.
    fn try_recv(&self) -> TryPop<NodeEvent> {
        let _ = self.flush();
        let mut r = self.reader.lock().expect("remote reader poisoned");
        if let Some(event) = r.pending.pop_front() {
            return TryPop::Item(event);
        }
        loop {
            match self.step(&mut r, false) {
                Step::Event(event) => return TryPop::Item(event),
                Step::Stats(_) => {}
                Step::Silent => return TryPop::Empty,
                Step::Ended { down: true } => return TryPop::Item(NodeEvent::Down),
                Step::Ended { down: false } => return TryPop::Closed,
            }
        }
    }

    /// Scrape the far side's engine stats over the wire: send a
    /// `STATS_REQUEST` and read (bounded by the 2 s `SCRAPE_TIMEOUT`)
    /// until the token-matching `STATS` reply arrives. Replies read on
    /// the way wait in order for `recv`/`try_recv`. `None` means the
    /// node's stats are *unavailable* — send failure, an ended stream,
    /// or deadline expiry — and the caller must surface that rather
    /// than zero-merge.
    fn stats(&self) -> Option<EngineStats> {
        let token = self.scrape_token.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        {
            let mut writer = self.writer.lock().expect("remote writer poisoned");
            if writer.send(&Frame::StatsRequest(token)).is_err() || writer.flush().is_err() {
                return None;
            }
        }
        let mut r = self.reader.lock().expect("remote reader poisoned");
        let stats = self.await_stats(&mut r, token);
        let _ = self.stream.set_read_timeout(self.read_timeout);
        stats
    }

    /// Shuts the socket down without taking the reader, so a blocked
    /// `recv` returns (with `None`, never `Down`).
    fn close(&self) {
        self.closing.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn shutdown(self: Box<Self>) -> Option<EngineStats> {
        self.close();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DecoderKind, DesignSpec};

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            n: 250,
            k: 5,
            m: 160,
            design: DesignSpec::random_regular(3),
            decoder: DecoderKind::Mn,
            seed: 500 + id,
            query_cost_micros: 0,
        }
    }

    #[test]
    fn local_node_round_trips_jobs_and_reports_stats() {
        let node = LocalNode::start(EngineConfig::with_workers(2));
        for id in 0..6 {
            node.submit(spec(id)).unwrap();
        }
        let mut got: Vec<u64> = (0..6)
            .map(|_| match node.recv().expect("result") {
                NodeEvent::Result(r) => r.id,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..6).collect::<Vec<u64>>());
        let stats = node.stats().expect("local nodes report stats");
        assert_eq!(stats.jobs_completed, 6);
        let final_stats = Box::new(node).shutdown().expect("owned node returns final stats");
        assert_eq!(final_stats.jobs_completed, 6);
    }

    #[test]
    fn local_backpressure_is_synchronous_busy() {
        let node = LocalNode::start(EngineConfig {
            workers: 1,
            queue_capacity: 1,
            results_capacity: 8,
            design_cache_capacity: 2,
            batch_window: 1,
        });
        // Slow job parks the worker; fill the 1-slot queue behind it.
        let mut slow = spec(0);
        slow.query_cost_micros = 50_000;
        node.submit(slow).unwrap();
        let mut accepted = 0u32;
        let mut busy = 0u32;
        for id in 1..16 {
            match node.try_submit(spec(id)).unwrap() {
                SubmitOutcome::Accepted => accepted += 1,
                SubmitOutcome::Busy => busy += 1,
            }
        }
        assert!(busy > 0, "a full local queue must surface synchronous Busy");
        // Everything accepted is eventually served.
        for _ in 0..=accepted {
            assert!(matches!(node.recv(), Some(NodeEvent::Result(_))));
        }
        Box::new(node).shutdown();
    }

    #[test]
    fn a_peer_dying_with_owed_replies_surfaces_down() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            use std::io::Read;
            let (mut conn, _) = listener.accept().unwrap();
            // Swallow one SUBMIT frame, then vanish without replying.
            let mut frame = [0u8; 76];
            let _ = conn.read_exact(&mut frame);
        });
        let node = RemoteNode::connect(addr).unwrap();
        node.submit(spec(0)).unwrap();
        assert_eq!(node.recv(), Some(NodeEvent::Down), "death with owed replies must be Down");
        assert!(node.recv().is_none(), "the stream is closed after Down");
        server.join().unwrap();
        Box::new(node).shutdown();
    }

    #[test]
    fn owed_reply_silence_past_the_read_deadline_is_down_but_idle_silence_is_not() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            // Accept, then hold the connection open in silence forever.
            let (_conn, _) = listener.accept().unwrap();
            let _ = hold_rx.recv();
        });
        let timeouts = WireTimeouts {
            connect: Some(std::time::Duration::from_secs(2)),
            read: Some(std::time::Duration::from_millis(40)),
        };
        let node = RemoteNode::connect_with(addr, timeouts).unwrap();
        // Idle well past the read deadline: the node must keep waiting,
        // not declare an idle connection dead.
        std::thread::sleep(std::time::Duration::from_millis(120));
        assert_eq!(node.try_recv(), TryPop::Empty, "idle silence must not end the stream");
        // Now a submission goes unanswered past the deadline: Down.
        node.submit(spec(0)).unwrap();
        assert_eq!(node.recv(), Some(NodeEvent::Down));
        drop(hold_tx);
        server.join().unwrap();
        Box::new(node).shutdown();
    }

    #[test]
    fn a_stats_reply_split_across_the_read_deadline_is_reassembled() {
        use crate::transport::frame::{decode_frame, encode_frame, CHECKSUM_LEN, HEADER_LEN};
        use std::io::Write;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = [0u8; HEADER_LEN + 8 + CHECKSUM_LEN];
            conn.read_exact(&mut request).unwrap();
            let Ok((Frame::StatsRequest(token), _)) = decode_frame(&request) else {
                panic!("expected a STATS_REQUEST");
            };
            let mut reply = Vec::new();
            encode_frame(
                &Frame::Stats(StatsReply { token, stats: EngineStats::zero() }),
                &mut reply,
            );
            // Half the reply, then silence well past the client's read
            // deadline, then the rest.
            let half = reply.len() / 2;
            conn.write_all(&reply[..half]).unwrap();
            std::thread::sleep(Duration::from_millis(150));
            conn.write_all(&reply[half..]).unwrap();
            // Hold the connection until the client hangs up.
            let _ = conn.read(&mut [0u8; 1]);
        });
        let timeouts = WireTimeouts {
            connect: Some(Duration::from_secs(2)),
            read: Some(Duration::from_millis(40)),
        };
        let node = RemoteNode::connect_with(addr, timeouts).unwrap();
        assert!(node.stats().is_some(), "a reply split across the deadline must still land");
        Box::new(node).shutdown();
        server.join().unwrap();
    }

    #[test]
    fn a_scrape_while_replies_are_in_flight_loses_none_of_them() {
        use crate::transport::{TransportConfig, TransportServer};

        let engine = Arc::new(Engine::start(EngineConfig::with_workers(1)));
        let server =
            TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
                .expect("bind loopback");
        let node = RemoteNode::connect(server.local_addr()).unwrap();
        for id in 0..8 {
            node.try_submit(JobSpec { query_cost_micros: 3_000, ..spec(id) }).unwrap();
        }
        node.flush().unwrap();
        // Let results reach the socket ahead of the STATS reply, so the
        // scrape reads past them.
        while engine.stats().jobs_completed < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(node.stats().is_some(), "a scrape must land mid-stream");
        let mut got: Vec<u64> = (0..8)
            .map(|_| match node.recv() {
                Some(NodeEvent::Result(r)) => r.id,
                other => panic!("expected a result, got {other:?}"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<u64>>(), "every result exactly once");
        assert_eq!(node.try_recv(), TryPop::Empty);
        Box::new(node).shutdown();
        server.stop();
        Arc::try_unwrap(engine).ok().expect("transport released the engine").shutdown();
    }

    #[test]
    fn close_ends_the_completion_stream() {
        let node = LocalNode::start(EngineConfig::with_workers(1));
        node.submit(spec(0)).unwrap();
        assert!(matches!(node.recv(), Some(NodeEvent::Result(_))));
        node.close();
        // The stream is terminally closed: nothing blocks, nothing
        // arrives, and the tri-state says so.
        assert_eq!(node.try_recv(), TryPop::Closed);
        assert!(node.recv().is_none());
        // The engine itself still runs: a submission after close is
        // accepted and served; its result is dropped (nobody listens),
        // never delivered to a resurrected stream.
        node.submit(spec(1)).unwrap();
        let stats = Box::new(node).shutdown().expect("owned node returns final stats");
        assert_eq!(stats.jobs_completed, 2, "the post-close job was still served");
    }
}
