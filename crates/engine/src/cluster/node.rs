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
//!   frame protocol: submissions are written frames, and a pump thread
//!   turns reply frames into [`NodeEvent`]s so `recv`/`try_recv` have
//!   the same non-blocking tri-state as the in-process queues.
//!
//! Backpressure is uniform but surfaces at the two places it physically
//! occurs: a local full queue is *synchronous* ([`SubmitOutcome::Busy`]
//! from `try_submit`), a remote full queue is *asynchronous* (a `BUSY`
//! frame arriving later as [`NodeEvent::Busy`]). Callers that handle
//! both — push the spec back on a retry queue — work unchanged against
//! either node kind; that is the router's BUSY-aware retry loop.

use std::io::{BufWriter, Read};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::DesignKey;
use crate::engine::{Engine, EngineConfig, EngineStats, ResultRoute, SubmitError};
use crate::job::{JobResult, JobSpec};
use crate::queue::{BoundedQueue, TryPop};
use crate::telemetry::{Metric, MetricsRegistry};
use crate::transport::frame::{Frame, FrameAssembler, FrameWriter, StatsReply};
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
    /// a node that cannot warm simply pays the cold miss later. Default
    /// is a no-op for node kinds without a cache to warm.
    fn prewarm(&self, _keys: &[DesignKey]) -> Result<(), NodeError> {
        Ok(())
    }

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

/// Rendezvous between a stats scrape (the requester, blocked in
/// [`NodeHandle::stats`]) and the reply pump, which reads the `STATS`
/// frame off the socket and deposits it here. Token-matched so a reply
/// that arrives after its scrape already timed out is discarded instead
/// of answering the *next* scrape with stale numbers.
#[derive(Debug, Default)]
struct ScrapeState {
    reply: Option<StatsReply>,
    /// Set when the pump exits: no reply will ever arrive again.
    closed: bool,
}

type ScrapeSlot = (Mutex<ScrapeState>, Condvar);

/// A node across the wire: one TCP connection to a transport server,
/// speaking the PR 4 frame protocol. Submissions are `SUBMIT` frames; a
/// pump thread reads reply frames into a bounded event queue so
/// `recv`/`try_recv` behave exactly like a local node's.
pub struct RemoteNode {
    stream: TcpStream,
    writer: Mutex<FrameWriter<BufWriter<TcpStream>>>,
    events: Arc<BoundedQueue<NodeEvent>>,
    /// Submissions written minus replies received: how many answers the
    /// peer still owes. Read-deadline silence is only fatal while this
    /// is nonzero — an idle connection may be silent forever.
    owed: Arc<AtomicU64>,
    pump: Mutex<Option<JoinHandle<()>>>,
    /// Wire accounting for this connection (bytes/frames both ways).
    metrics: Arc<MetricsRegistry>,
    /// Where the pump deposits `STATS` replies for a waiting scrape.
    scrape: Arc<ScrapeSlot>,
    /// Correlation tokens for scrapes, unique per request.
    scrape_token: AtomicU64,
}

impl RemoteNode {
    /// Buffered events the pump may hold before backpressuring the
    /// socket. Far above any router window, so the pump never stalls in
    /// practice; bounded so a runaway peer cannot grow memory.
    const EVENT_CAPACITY: usize = 1024;

    /// How long a stats scrape waits for the far side's `STATS` reply
    /// before reporting the node's stats unavailable.
    const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

    /// Connect to a transport server with the default [`WireTimeouts`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_with(addr, WireTimeouts::default())
    }

    /// Connect with explicit deadlines. A read deadline turns a half-dead
    /// peer from an eternal hang into a typed [`NodeEvent::Down`]: when
    /// the socket stays silent past `timeouts.read` *while replies are
    /// owed*, the pump declares the node down and ends the stream.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        timeouts: WireTimeouts,
    ) -> std::io::Result<Self> {
        let stream = connect_stream(addr, timeouts.connect)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(timeouts.read)?;
        let write_half = stream.try_clone()?;
        let events = Arc::new(BoundedQueue::new(Self::EVENT_CAPACITY));
        let owed = Arc::new(AtomicU64::new(0));
        let metrics = Arc::new(MetricsRegistry::new());
        let scrape: Arc<ScrapeSlot> =
            Arc::new((Mutex::new(ScrapeState::default()), Condvar::new()));
        let pump_events = Arc::clone(&events);
        let pump_owed = Arc::clone(&owed);
        let pump_metrics = Arc::clone(&metrics);
        let pump_scrape = Arc::clone(&scrape);
        let pump = std::thread::Builder::new()
            .name("remote-node-pump".into())
            .spawn(move || {
                pump_replies(read_half, &pump_events, &pump_owed, &pump_metrics, &pump_scrape)
            })
            .expect("failed to spawn remote node pump");
        Ok(Self {
            stream,
            writer: Mutex::new(FrameWriter::with_metrics(
                BufWriter::new(write_half),
                Arc::clone(&metrics),
            )),
            events,
            owed,
            pump: Mutex::new(Some(pump)),
            metrics,
            scrape,
            scrape_token: AtomicU64::new(0),
        })
    }

    /// This connection's wire accounting (frame/byte counters both ways
    /// plus scrape outcomes).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }
}

impl Drop for RemoteNode {
    /// A handle dropped without [`NodeHandle::shutdown`] must not leak
    /// its pump thread (blocked in `read` on a cloned fd, the socket
    /// would stay open and the server would never see EOF): close the
    /// connection — which unblocks the pump — and join it. Idempotent
    /// with `shutdown`, which already took the pump handle.
    fn drop(&mut self) {
        self.close();
        if let Some(pump) = self.pump.lock().expect("pump handle poisoned").take() {
            pump.join().expect("remote node pump panicked");
        }
    }
}

/// Reader half: turn reply frames into events until the stream ends.
/// Every exit path closes the event queue — that is how `recv` callers
/// learn the node is gone. A terminal exit *while replies are owed*
/// pushes [`NodeEvent::Down`] first, so the router learns the difference
/// between a clean goodbye and a node that died holding its jobs.
///
/// Bytes are decoded through a [`FrameAssembler`], so a read deadline
/// that fires mid-frame keeps the partial frame buffered: a reply split
/// across the deadline is reassembled, never desynchronized.
fn pump_replies(
    mut stream: TcpStream,
    events: &BoundedQueue<NodeEvent>,
    owed: &AtomicU64,
    metrics: &MetricsRegistry,
    scrape: &ScrapeSlot,
) {
    let mut asm = FrameAssembler::new();
    let mut read_buf = vec![0u8; 16 * 1024];
    loop {
        let event = match asm.next_frame_metered(metrics) {
            Ok(Some((Frame::Result(result), _))) => NodeEvent::Result(result),
            Ok(Some((Frame::Busy(id), _))) => NodeEvent::Busy(id),
            Ok(Some((Frame::Reject(id), _))) => NodeEvent::Rejected(id),
            // A STATS reply answers a scrape, not a submission: hand it
            // to the waiting scraper without touching `owed` and without
            // occupying an event slot.
            Ok(Some((Frame::Stats(reply), _))) => {
                let (slot, cvar) = scrape;
                slot.lock().expect("scrape slot poisoned").reply = Some(reply);
                cvar.notify_all();
                continue;
            }
            // Only a frame prefix is buffered: read more.
            Ok(None) => match stream.read(&mut read_buf) {
                Ok(0) => {
                    // EOF is a clean goodbye only between frames and with
                    // no replies owed.
                    if asm.buffered() > 0 || owed.load(Ordering::Acquire) > 0 {
                        let _ = events.push(NodeEvent::Down);
                    }
                    break;
                }
                Ok(got) => {
                    asm.extend(&read_buf[..got]);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // The read deadline expired. Idle silence is legal —
                    // keep listening. Silence while replies are owed
                    // means the peer is half-dead, and any other socket
                    // error means it is gone: declare it down.
                    let timed_out = matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    );
                    if timed_out && owed.load(Ordering::Acquire) == 0 {
                        continue;
                    }
                    let _ = events.push(NodeEvent::Down);
                    break;
                }
            },
            // A server never sends SUBMIT/PREWARM/STATS_REQUEST; corrupt
            // frames leave no resync point. Either way the conversation
            // is over — and abnormal, so it surfaces as Down.
            Ok(Some((Frame::Submit(_) | Frame::Prewarm(_) | Frame::StatsRequest(_), _)))
            | Err(_) => {
                let _ = events.push(NodeEvent::Down);
                break;
            }
        };
        // A reply settles one owed submission (guard against a buggy
        // peer answering more often than asked).
        let _ = owed.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
        if events.push(event).is_err() {
            break; // handle closed locally; stop pumping
        }
    }
    events.close();
    // Wake any scrape still waiting: its reply can never arrive now.
    let (slot, cvar) = scrape;
    slot.lock().expect("scrape slot poisoned").closed = true;
    cvar.notify_all();
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

    fn recv(&self) -> Option<NodeEvent> {
        // Anything buffered must reach the server before we wait on it.
        let _ = self.flush();
        self.events.pop()
    }

    fn try_recv(&self) -> TryPop<NodeEvent> {
        let _ = self.flush();
        self.events.try_pop()
    }

    /// Scrape the far side's engine stats over the wire: send a
    /// `STATS_REQUEST` and wait (bounded by the 2 s `SCRAPE_TIMEOUT`)
    /// for the pump to deposit the token-matching `STATS` reply. `None`
    /// means the node's stats are *unavailable* — send failure, dead
    /// pump, or deadline expiry — and the caller must surface that
    /// rather than zero-merge.
    fn stats(&self) -> Option<EngineStats> {
        let token = self.scrape_token.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        {
            // Clear any stale reply from a scrape that timed out before
            // its answer landed.
            let (slot, _) = &*self.scrape;
            slot.lock().expect("scrape slot poisoned").reply = None;
        }
        {
            let mut writer = self.writer.lock().expect("remote writer poisoned");
            if writer.send(&Frame::StatsRequest(token)).is_err() || writer.flush().is_err() {
                return None;
            }
        }
        let (slot, cvar) = &*self.scrape;
        let mut state = slot.lock().expect("scrape slot poisoned");
        let deadline = Instant::now() + Self::SCRAPE_TIMEOUT;
        loop {
            if let Some(reply) = state.reply.take() {
                if reply.token == token {
                    self.metrics.inc(Metric::StatsScrapes);
                    return Some(reply.stats);
                }
                // Stale token: discard and keep waiting for ours.
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                self.metrics.inc(Metric::StatsScrapeTimeouts);
                return None;
            }
            let (next, _) = cvar
                .wait_timeout(state, deadline.saturating_duration_since(now))
                .expect("scrape slot poisoned");
            state = next;
        }
    }

    fn close(&self) {
        self.events.close();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn shutdown(self: Box<Self>) -> Option<EngineStats> {
        self.close();
        if let Some(pump) = self.pump.lock().expect("pump handle poisoned").take() {
            pump.join().expect("remote node pump panicked");
        }
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
        // Idle well past the read deadline: the pump must keep waiting,
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
