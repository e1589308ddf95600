//! Readiness-driven TCP front over one [`Engine`], with a private
//! [`ResultRoute`] per connection.
//!
//! One accept thread, N event-loop threads, zero per-connection
//! threads:
//!
//! ```text
//!  accept ──(conn_id % N)──► loop thread: EpollBackend::wait(ready fds only)
//!                              ├─ readable ► budgeted read ► FrameAssembler
//!                              │      SUBMIT ► engine.try_submit_routed_stamped (full queue ⇒ BUSY(id))
//!                              │      infeasible ⇒ REJECT(id)   (never a silent drop)
//!                              ├─ route waker ► route.try_recv drain ► segment queue
//!                              └─ writable ► vectored writev, resume at head offset
//! ```
//!
//! Each connection is a state machine, not a thread pair: an inbound
//! [`FrameAssembler`] that decodes across partial reads, an outbound
//! queue of encoded frame segments drained by vectored writes with
//! partial-write resume, and a per-tick read budget. The loop parks in
//! its [`EpollBackend`] and is roused by socket readiness or by the
//! route waker ([`ResultRoute::register_waker`]) when a worker finishes
//! a job — results are pushed to the loop, never polled for.
//!
//! A tick costs O(active), not O(connections). The kernel holds the
//! interest set across ticks (registered at adoption, modified only on
//! pause/resume and write-arm/disarm edges, deregistered at close), so
//! a wait returns exactly the ready fds and an idle herd of tenants is
//! never scanned; idle eviction rides a coarse timer wheel that
//! examines a connection once per timeout period, not once per sweep;
//! and the outbound path never compacts — a partial write just advances
//! an offset into the segment queue.
//!
//! Tenant isolation is a liveness guarantee at three layers:
//!
//! * a tenant at its in-flight cap gets `BUSY` (its results queue can
//!   never fill, so workers never block on a slow socket);
//! * a write-blocked tenant accumulates output only to a bounded high
//!   water, after which the loop stops *reading* from it (its own
//!   submissions stall, nobody else's);
//! * a firehose tenant is cut off at the per-tick read budget and
//!   resumed next tick; an idle or Slowloris tenant is evicted after
//!   [`TransportConfig::idle_timeout`].
//!
//! Each accepted connection opens its own [`ResultRoute`] on the
//! server's engine, so concurrent tenants only ever see their own
//! completions, and the engine's shared completion stream stays
//! untouched. Closing a connection closes its route, never the engine.
//!
//! The server trusts determinism, not the network: a malformed frame
//! (bad magic, bad checksum, torn stream) terminates the connection —
//! after a framing error there is no way to resynchronize, and
//! decoding a corrupted `JobSpec` would break the bit-identical
//! results contract the loopback suite pins.
//!
//! [`FrameAssembler`]: crate::transport::frame::FrameAssembler
//! [`EpollBackend`]: crate::transport::reactor::EpollBackend

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{Engine, ResultRoute, SubmitError};
use crate::queue::TryPop;
use crate::telemetry::{Metric, MetricsRegistry};
use crate::transport::frame::{Frame, FrameAssembler, FrameWriter, SegmentSink, StatsReply};
use crate::transport::reactor::{writev_fd, EpollBackend, Interest, IoVec, ReadyEvent, WakePipe};

/// The readiness backend ([`TransportConfig::backend`]). Epoll is the
/// only one: O(ready fds) per wait and O(1) interest updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Linux epoll; `bind` fails with `Unsupported` elsewhere.
    #[default]
    Epoll,
}

/// Transport sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// Per-connection cap on jobs in flight (accepted but not yet
    /// written back as `RESULT` frames). Doubles as the connection's
    /// event-queue bound. A tenant at its cap gets `BUSY` replies, so
    /// a stalled tenant that pipelines submissions without reading can
    /// never park an engine worker on its full result queue — tenant
    /// isolation is a liveness guarantee, not just a routing one.
    pub route_capacity: usize,
    /// Upper bound on a remote spec's `n` and `m`. `is_feasible` admits
    /// any self-consistent shape, but a network peer could send a
    /// well-formed `SUBMIT` whose buffers would exhaust memory and take
    /// every tenant down; anything larger than this is `REJECT`ed at
    /// the door.
    pub max_dimension: usize,
    /// Event-loop threads. Connections are assigned at accept time
    /// (`conn_id % event_loops`); each loop multiplexes its share
    /// through its own [`EpollBackend`]. Server thread count is
    /// `1 + event_loops`, independent of connection count.
    pub event_loops: usize,
    /// Per-connection, per-tick read budget in bytes. A firehose tenant
    /// that keeps the kernel buffer full is cut off at this budget each
    /// tick and resumed the next, so it pays latency for its own volume
    /// instead of starving the other tenants on its loop.
    pub read_budget: usize,
    /// Evict a connection after this long without a byte of progress in
    /// either direction (Slowloris/abandoned-tenant reclamation).
    /// `None` disables eviction.
    pub idle_timeout: Option<Duration>,
    /// Accept-time cap on concurrent connections; connection attempts
    /// beyond it are dropped at the door (the fd is the scarce resource
    /// being protected, so no protocol reply is owed).
    pub max_connections: usize,
    /// Readiness backend; epoll is the only one.
    pub backend: BackendChoice,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            route_capacity: 256,
            max_dimension: 1 << 24,
            event_loops: 2,
            read_budget: 64 * 1024,
            idle_timeout: Some(Duration::from_secs(300)),
            max_connections: 65_536,
            backend: BackendChoice::Epoll,
        }
    }
}

/// Read-chunk size: one `read` syscall per chunk, sized so a typical
/// submit burst lands in one go.
const READ_CHUNK: usize = 16 * 1024;

/// Shared between the accept loop, the event loops, and `stop`.
struct ServerShared {
    engine: Arc<Engine>,
    config: TransportConfig,
    stopping: AtomicBool,
    /// Live connection count (accept increments, teardown decrements);
    /// mirrored by the `pooled_transport_connections` gauge.
    live: AtomicUsize,
    next_conn: AtomicU64,
    /// Server-wide wire accounting (all connections share one registry:
    /// frames/bytes both ways, checksum rejects, rejected jobs,
    /// answered scrapes, reactor wakeups/budget/evictions).
    metrics: Arc<MetricsRegistry>,
    /// One inbox per event loop: the accept thread and route wakers
    /// post to it, the loop drains it at the top of every tick.
    inboxes: Vec<Arc<LoopInbox>>,
}

/// Cross-thread mailbox of one event loop.
struct LoopInbox {
    /// Connections accepted but not yet registered with the loop.
    new_conns: Mutex<Vec<(u64, TcpStream)>>,
    /// Connections whose route has undrained results (posted by route
    /// wakers, deduplicated by each connection's `queued` flag).
    ready: Mutex<Vec<u64>>,
    /// Rouses the loop out of `epoll_wait`.
    wake: WakePipe,
}

impl LoopInbox {
    /// Wake the loop, counting wakeups that actually signaled the pipe
    /// (coalesced wakes are free and uncounted).
    fn wake(&self, metrics: &MetricsRegistry) {
        if self.wake.wake() {
            metrics.inc(Metric::ReactorWakeups);
        }
    }
}

/// A listening TCP front. Dropping without [`TransportServer::stop`]
/// abandons the threads (they exit on their next wake-up after the
/// process-exit teardown); call `stop` for a deterministic teardown.
pub struct TransportServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_handle: Option<JoinHandle<()>>,
    loop_handles: Vec<JoinHandle<()>>,
}

impl TransportServer {
    /// Bind `addr` (use port 0 for an ephemeral loopback port) and start
    /// accepting connections against `engine`; every connection gets
    /// its own [`ResultRoute`] on it.
    pub fn bind<A: ToSocketAddrs>(
        engine: Arc<Engine>,
        addr: A,
        config: TransportConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let loops = config.event_loops.max(1);
        // Create every epoll instance before spawning anything: off Linux
        // (or on a failed `epoll_create1`) the bind fails loudly.
        let mut backends = Vec::with_capacity(loops);
        for _ in 0..loops {
            backends.push(EpollBackend::new()?);
        }
        let mut inboxes = Vec::with_capacity(loops);
        for _ in 0..loops {
            inboxes.push(Arc::new(LoopInbox {
                new_conns: Mutex::new(Vec::new()),
                ready: Mutex::new(Vec::new()),
                wake: WakePipe::new()?,
            }));
        }
        let shared = Arc::new(ServerShared {
            engine,
            config,
            stopping: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            metrics: Arc::new(MetricsRegistry::new()),
            inboxes,
        });
        let mut loop_handles = Vec::with_capacity(loops);
        for (loop_id, backend) in backends.into_iter().enumerate() {
            let loop_shared = Arc::clone(&shared);
            loop_handles.push(
                std::thread::Builder::new()
                    .name(format!("transport-loop-{loop_id}"))
                    .spawn(move || event_loop(loop_id, &loop_shared, backend))
                    .expect("failed to spawn transport event loop"),
            );
        }
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("transport-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("failed to spawn transport accept thread");
        Ok(Self { local_addr, shared, accept_handle: Some(accept_handle), loop_handles })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This server's wire accounting, summed over all connections.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Connections currently being served (observability; also pins the
    /// no-fd-leak contract — a disconnected tenant's count is gone once
    /// its loop reaps the connection).
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// Stop accepting, drop every live connection, and join all
    /// transport threads. The engine keeps running — its owner shuts it
    /// down.
    pub fn stop(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop: it only observes `stopping` between
        // accepts, so poke it with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            handle.join().expect("transport accept thread panicked");
        }
        for inbox in &self.shared.inboxes {
            inbox.wake(&self.shared.metrics);
        }
        for handle in self.loop_handles.drain(..) {
            handle.join().expect("transport event loop panicked");
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let loops = shared.inboxes.len() as u64;
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue, // transient accept error; keep serving
        };
        if shared.live.load(Ordering::Acquire) >= shared.config.max_connections {
            continue; // at capacity: drop at the door (fd is the scarce resource)
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue; // a socket the loop can't poll is unusable
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        shared.live.fetch_add(1, Ordering::AcqRel);
        shared.metrics.inc(Metric::TransportConnections);
        let inbox = &shared.inboxes[(conn_id % loops) as usize];
        inbox.new_conns.lock().expect("inbox poisoned").push((conn_id, stream));
        inbox.wake(&shared.metrics);
    }
}

/// Most segments a single `writev` gathers. 64 RESULT frames is ~5KiB —
/// comfortably one syscall's worth — and the array lives on the stack.
const MAX_IOV: usize = 64;

/// Retired segment buffers a connection keeps for reuse. The cap bounds
/// idle memory; under steady load the pool cycles and the outbound path
/// stops allocating entirely.
const SPARE_SEGMENTS: usize = 64;

/// A connection's outbound queue of encoded frame segments.
///
/// Zero-copy by construction: each frame is encoded once, directly into
/// a recycled buffer ([`SegmentSink::take_buffer`] →
/// [`FrameWriter::send_segment`]), and that buffer *is* the queue
/// entry. Draining gathers the segments into one vectored `writev`;
/// a partial write advances `head` into the front segment and fully
/// sent segments pop into the spare pool. No byte is memmoved or
/// re-copied after encode — the compaction memmove the byte-ring
/// predecessor paid on every append (`buf.drain(..pos)`) is gone, and
/// the regression tests pin that by watching segment addresses stay put
/// while a write-blocked tenant accumulates frames.
#[derive(Default)]
struct OutRing {
    /// Encoded frames awaiting transmission, oldest first.
    segs: VecDeque<Vec<u8>>,
    /// Bytes of `segs[0]` already accepted by the kernel.
    head: usize,
    /// Total unsent bytes across all segments (kept incrementally so
    /// high-water checks are O(1), not O(segments)).
    pending: usize,
    /// Retired segment buffers, cleared and ready for reuse.
    spare: Vec<Vec<u8>>,
}

impl OutRing {
    /// Unsent bytes queued on this connection.
    fn pending(&self) -> usize {
        self.pending
    }

    /// Fill `iovs` with the unsent byte ranges (the front segment from
    /// `head`, then whole segments), up to the array's length. Returns
    /// the entry count and the total bytes they cover.
    fn fill_iovs(&self, iovs: &mut [IoVec; MAX_IOV]) -> (usize, usize) {
        let mut count = 0;
        let mut bytes = 0;
        for (i, seg) in self.segs.iter().take(MAX_IOV).enumerate() {
            let slice = if i == 0 { &seg[self.head..] } else { &seg[..] };
            iovs[count] = IoVec::from_slice(slice);
            bytes += slice.len();
            count += 1;
        }
        (count, bytes)
    }

    /// Record that the kernel accepted `n` bytes: advance the head
    /// offset, retire fully sent segments into the spare pool. Only
    /// bookkeeping moves — never frame bytes.
    fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.pending, "advance past the queue");
        self.pending -= n;
        while n > 0 {
            let remaining = self.segs[0].len() - self.head;
            if n < remaining {
                self.head += n;
                return;
            }
            n -= remaining;
            self.head = 0;
            let mut seg = self.segs.pop_front().expect("accounted segment");
            if self.spare.len() < SPARE_SEGMENTS {
                seg.clear();
                self.spare.push(seg);
            }
        }
    }
}

impl SegmentSink for OutRing {
    fn take_buffer(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }

    fn push_segment(&mut self, segment: Vec<u8>) {
        debug_assert!(!segment.is_empty(), "a frame never encodes to zero bytes");
        self.pending += segment.len();
        self.segs.push_back(segment);
    }
}

/// One connection's state machine. No threads, no locks — everything
/// here is owned by exactly one event loop. The only cross-thread piece
/// is `queued`, shared with the route waker closure.
struct Conn {
    stream: TcpStream,
    /// This tenant's private completion stream on the server's engine.
    route: ResultRoute,
    asm: FrameAssembler,
    /// Outbound frames ride inside the metered writer; its sink is the
    /// [`OutRing`] the write phase drains.
    wire: FrameWriter<OutRing>,
    /// Jobs accepted but not yet answered on the wire. Bounding this at
    /// `route_capacity` (reads refuse with BUSY at the cap) is what
    /// keeps workers from ever blocking on this tenant's event queue:
    /// at most `route_capacity` results can exist at once, and the
    /// queue holds exactly that many — a worker's push always finds
    /// room, even if the tenant stops reading forever.
    pending: usize,
    /// Wake dedup flag shared with this connection's route waker: set
    /// by the waker when it posts to the loop's ready list, cleared by
    /// the loop before draining, so each burst of deliveries costs one
    /// inbox entry.
    queued: Arc<AtomicBool>,
    /// Last instant a byte moved in either direction (idle eviction).
    last_activity: Instant,
    /// Interest mask currently registered with epoll. The loop
    /// recomputes the desired mask after touching a connection and
    /// issues a `modify` only when it differs — interest updates happen
    /// on pause/resume and write-arm/disarm *edges*, never per tick.
    interest: Interest,
    /// Tick stamp of the last budgeted read, so a connection that is
    /// both in the ready set and on the carried-over hot list gets one
    /// read budget per tick, not two.
    serviced_tick: u64,
    /// Read budget ran out with socket bytes possibly still pending —
    /// the loop polls with zero timeout and returns to this conn next
    /// tick (fairness without starvation).
    hot: bool,
    /// Out ring passed high water: stop reading from this tenant until
    /// it drains its results (a write-blocked tenant stalls itself,
    /// never the loop and never a worker).
    read_paused: bool,
    /// Route reported `Closed` (engine shutdown): flush what's
    /// buffered, then die.
    draining: bool,
    /// Terminal; reaped at end of tick.
    dead: bool,
}

impl Conn {
    /// Output high water: past this, reading from the tenant pauses.
    /// Sized so the cap-bounded result backlog always fits (a RESULT
    /// frame is 80 bytes; 96 leaves headroom) plus a burst of replies.
    fn pause_high(config: &TransportConfig) -> usize {
        16 * 1024 + config.route_capacity * 96
    }

    /// The interest mask this connection's state calls for right now:
    /// read unless paused, write while unsent segments remain.
    fn desired_interest(&self) -> Interest {
        Interest { readable: !self.read_paused, writable: self.wire.get_ref().pending() > 0 }
    }
}

/// Coarse single-level timer wheel for idle eviction, keyed by
/// last-activity bucket.
///
/// The predecessor swept *every* connection each interval — another
/// O(connections) tick cost. The wheel checks only connections whose
/// scheduled bucket has come due: activity never touches the wheel
/// (`Conn::last_activity` just advances), and a due connection that
/// turns out to be alive is rescheduled into the bucket matching its
/// actual deadline. Each connection sits in exactly one bucket, so the
/// amortized cost per interval is O(due connections), and an idle herd
/// is examined once per timeout period instead of once per sweep.
struct IdleWheel {
    /// `buckets[cursor]` is due now; slot `cursor + k` is due in `k`
    /// granules.
    buckets: Vec<Vec<u64>>,
    cursor: usize,
    granularity: Duration,
    last_advance: Instant,
    timeout: Duration,
}

impl IdleWheel {
    fn new(timeout: Duration, granularity: Duration, now: Instant) -> Self {
        // Enough slots to park a fresh connection a full timeout out,
        // plus slack so "due" and "just scheduled" never collide.
        let slots = (timeout.as_nanos() / granularity.as_nanos().max(1)) as usize + 2;
        Self {
            buckets: vec![Vec::new(); slots],
            cursor: 0,
            granularity,
            last_advance: now,
            timeout,
        }
    }

    /// Park `id` in the bucket matching `deadline` (its last activity
    /// plus the timeout), clamped into the wheel's horizon.
    fn schedule(&mut self, id: u64, deadline: Instant, now: Instant) {
        let granules = if deadline <= now {
            1 // already due: next advance picks it up
        } else {
            let nanos = (deadline - now).as_nanos();
            let g = nanos.div_ceil(self.granularity.as_nanos().max(1)) as usize;
            g.clamp(1, self.buckets.len() - 1)
        };
        let slot = (self.cursor + granules) % self.buckets.len();
        self.buckets[slot].push(id);
    }

    /// Advance the cursor over every granule that has elapsed since the
    /// last call, draining due buckets into `due` (the caller checks
    /// each id's real `last_activity` and either evicts or reschedules).
    fn collect_due(&mut self, now: Instant, due: &mut Vec<u64>) {
        due.clear();
        let mut steps = 0;
        while now.duration_since(self.last_advance) >= self.granularity {
            self.last_advance += self.granularity;
            self.cursor = (self.cursor + 1) % self.buckets.len();
            due.append(&mut self.buckets[self.cursor]);
            // A long stall (debugger, suspended VM) must not spin the
            // wheel forever: one full revolution visits every bucket.
            steps += 1;
            if steps >= self.buckets.len() {
                self.last_advance = now;
                break;
            }
        }
    }
}

/// Epoll token of the loop's wake pipe (connection ids count up from
/// zero and can never reach it).
const WAKE_TOKEN: u64 = u64::MAX;

fn event_loop(loop_id: usize, shared: &Arc<ServerShared>, mut backend: EpollBackend) {
    let inbox = Arc::clone(&shared.inboxes[loop_id]);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut ready: Vec<ReadyEvent> = Vec::new();
    let mut hot_ids: Vec<u64> = Vec::new();
    let mut dead_ids: Vec<u64> = Vec::new();
    let mut due_ids: Vec<u64> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut tick: u64 = 0;
    let sweep_interval = shared
        .config
        .idle_timeout
        .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)));
    let mut wheel = match (shared.config.idle_timeout, sweep_interval) {
        (Some(timeout), Some(granularity)) => {
            Some(IdleWheel::new(timeout, granularity, Instant::now()))
        }
        _ => None,
    };
    if backend.register(inbox.wake.read_fd(), WAKE_TOKEN, Interest::READ).is_err() {
        return; // no wakeup channel, no loop — bind's smoke tests catch this
    }

    while !shared.stopping.load(Ordering::SeqCst) {
        tick = tick.wrapping_add(1);

        // ── park: only ready fds come back, idle tenants cost nothing ─
        let timeout = if hot_ids.is_empty() { sweep_interval } else { Some(Duration::ZERO) };
        // A failed wait leaves `ready` empty: the tick still drains the
        // inbox, and the next wait retries.
        let _ = backend.wait(timeout, &mut ready);
        shared.metrics.inc(Metric::TransportTicks);
        shared.metrics.add(Metric::TransportReadyFds, ready.len() as u64);
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        inbox.wake.drain();
        let prev_hot = std::mem::take(&mut hot_ids);

        // ── adopt newly accepted connections (interest: register) ────
        let fresh = std::mem::take(&mut *inbox.new_conns.lock().expect("inbox poisoned"));
        for (id, stream) in fresh {
            let mut conn = register_conn(id, stream, shared, &inbox);
            if backend.register(conn.stream.as_raw_fd(), id, Interest::READ).is_err() {
                conn.dead = true;
            } else {
                // The socket may already hold the tenant's first burst
                // (it was live before the loop ever waited on it).
                conn.serviced_tick = tick;
                read_conn(&mut conn, shared, &mut scratch);
                flush_out(&mut conn, shared);
                sync_interest(id, &mut conn, &mut backend);
            }
            if conn.hot {
                hot_ids.push(id);
            }
            if conn.dead {
                dead_ids.push(id);
            } else if let Some(wheel) = &mut wheel {
                let now = Instant::now();
                wheel.schedule(id, conn.last_activity + wheel.timeout, now);
            }
            conns.insert(id, conn);
        }

        // ── drain routes the wakers flagged ──────────────────────────
        let flagged = std::mem::take(&mut *inbox.ready.lock().expect("inbox poisoned"));
        for id in flagged {
            let Some(conn) = conns.get_mut(&id) else { continue };
            if conn.dead {
                continue;
            }
            drain_route(conn, shared);
            flush_out(conn, shared);
            sync_interest(id, conn, &mut backend);
            if conn.dead {
                dead_ids.push(id);
            }
        }

        // ── readiness events: read, then drain what the read queued ──
        for ev in &ready {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else { continue };
            if conn.dead {
                continue;
            }
            if ev.error {
                conn.dead = true;
                dead_ids.push(ev.token);
                continue;
            }
            if (ev.readable || ev.hup) && conn.serviced_tick != tick {
                conn.serviced_tick = tick;
                read_conn(conn, shared, &mut scratch);
            }
            flush_out(conn, shared);
            sync_interest(ev.token, conn, &mut backend);
            if conn.hot {
                hot_ids.push(ev.token);
            }
            if conn.dead {
                dead_ids.push(ev.token);
            }
        }

        // ── hot carry-over: budget-bounded readers get their next turn
        //    even if readiness reporting raced the budget edge ────────
        for id in prev_hot {
            let Some(conn) = conns.get_mut(&id) else { continue };
            if conn.dead || !conn.hot || conn.serviced_tick == tick {
                continue; // gone, cooled off, or already served above
            }
            conn.serviced_tick = tick;
            read_conn(conn, shared, &mut scratch);
            flush_out(conn, shared);
            sync_interest(id, conn, &mut backend);
            if conn.hot {
                hot_ids.push(id);
            }
            if conn.dead {
                dead_ids.push(id);
            }
        }

        // ── idle wheel: examine only connections whose bucket is due ─
        if let Some(wheel) = &mut wheel {
            let now = Instant::now();
            wheel.collect_due(now, &mut due_ids);
            for &id in &due_ids {
                let Some(conn) = conns.get_mut(&id) else { continue };
                if conn.dead {
                    continue; // already on the reap list this tick
                }
                if now.duration_since(conn.last_activity) > wheel.timeout {
                    shared.metrics.inc(Metric::TransportIdleEvictions);
                    conn.dead = true;
                    dead_ids.push(id);
                } else {
                    wheel.schedule(id, conn.last_activity + wheel.timeout, now);
                }
            }
        }

        // ── reap (interest: deregister) ──────────────────────────────
        for id in dead_ids.drain(..) {
            // A connection can earn multiple dead entries in one tick;
            // the first removal wins and the rest no-op here.
            let Some(mut conn) = conns.remove(&id) else { continue };
            let _ = backend.deregister(conn.stream.as_raw_fd());
            teardown_conn(&mut conn, shared);
        }
    }

    // Loop exit: tear down every served connection plus any the accept
    // thread posted that we never adopted.
    for conn in conns.values_mut() {
        teardown_conn(conn, shared);
    }
    for (_, stream) in std::mem::take(&mut *inbox.new_conns.lock().expect("inbox poisoned")) {
        let _ = stream.shutdown(Shutdown::Both);
        shared.live.fetch_sub(1, Ordering::AcqRel);
        shared.metrics.dec(Metric::TransportConnections);
    }
}

/// Open the route, install its waker, and build the state machine for
/// a freshly accepted connection.
fn register_conn(
    id: u64,
    stream: TcpStream,
    shared: &Arc<ServerShared>,
    inbox: &Arc<LoopInbox>,
) -> Conn {
    let route = shared.engine.open_route(shared.config.route_capacity.max(1));
    let queued = Arc::new(AtomicBool::new(false));
    {
        let queued = Arc::clone(&queued);
        let inbox = Arc::clone(inbox);
        let metrics = Arc::clone(&shared.metrics);
        // Push-then-wake, dedup'd: the first delivery of a burst posts
        // the conn id and signals the pipe; the rest ride along free.
        route.register_waker(Arc::new(move || {
            if !queued.swap(true, Ordering::AcqRel) {
                inbox.ready.lock().expect("inbox poisoned").push(id);
                inbox.wake(&metrics);
            }
        }));
    }
    Conn {
        stream,
        route,
        asm: FrameAssembler::new(),
        wire: FrameWriter::with_metrics(OutRing::default(), Arc::clone(&shared.metrics)),
        pending: 0,
        queued,
        last_activity: Instant::now(),
        interest: Interest::READ,
        serviced_tick: 0,
        hot: false,
        read_paused: false,
        draining: false,
        dead: false,
    }
}

/// Push the connection's interest edges to epoll: recompute the
/// desired mask and issue a `modify` only when it drifted from what is
/// registered. This is the O(1)-per-edge half of the O(active) tick —
/// a connection whose state didn't change costs no syscall at all.
fn sync_interest(id: u64, conn: &mut Conn, backend: &mut EpollBackend) {
    if conn.dead {
        return;
    }
    let want = conn.desired_interest();
    if want == conn.interest {
        return;
    }
    if backend.modify(conn.stream.as_raw_fd(), id, want).is_err() {
        conn.dead = true;
        return;
    }
    conn.interest = want;
}

/// Drain freshly queued output and settle a drain-then-close: results
/// go out on the tick they are produced (the kernel buffer is almost
/// always writable), and a `draining` connection whose queue just
/// emptied dies here.
fn flush_out(conn: &mut Conn, shared: &ServerShared) {
    if !conn.dead && conn.wire.get_ref().pending() > 0 {
        write_conn(conn, shared);
    }
    if conn.draining && conn.wire.get_ref().pending() == 0 {
        conn.dead = true;
    }
}

/// Close the route and the socket, and release the connection's slot
/// in the live count/gauge.
fn teardown_conn(conn: &mut Conn, shared: &ServerShared) {
    conn.route.close();
    let _ = conn.stream.shutdown(Shutdown::Both);
    shared.live.fetch_sub(1, Ordering::AcqRel);
    shared.metrics.dec(Metric::TransportConnections);
}

/// One loop-side step of [`drain_route`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RouteDrainStep {
    /// Clear the connection's `queued` flag, so the next delivery posts
    /// the connection again.
    Clear,
    /// Receive from the route until it reports `Empty`.
    RecvDry,
}

/// The order of [`drain_route`]'s steps — clear first, then drain. A
/// delivery whose waker swaps `queued` after the clear finds it clear
/// and posts the connection again, so its result is never stranded; a
/// delivery whose swap lands before the clear pushed its result before
/// the swap, so the drain that follows the clear receives it. Draining
/// first loses results: a delivery between the last `try_recv` and the
/// clear finds `queued` still set, does not post, and leaves its result
/// queued with no post pending. `route_drain_order_never_strands_a_result`
/// checks every interleaving.
const ROUTE_DRAIN_ORDER: [RouteDrainStep; 2] = [RouteDrainStep::Clear, RouteDrainStep::RecvDry];

/// Move the route's finished results into the out ring (non-blocking;
/// the route waker re-posts if a delivery races the drain).
fn drain_route(conn: &mut Conn, shared: &ServerShared) {
    for step in ROUTE_DRAIN_ORDER {
        match step {
            RouteDrainStep::Clear => conn.queued.store(false, Ordering::Release),
            RouteDrainStep::RecvDry => recv_dry(conn, shared),
        }
    }
}

/// Receive from the route until `Empty`, encoding each result as a
/// RESULT frame.
fn recv_dry(conn: &mut Conn, shared: &ServerShared) {
    loop {
        if conn.dead || conn.draining {
            return;
        }
        match conn.route.try_recv() {
            TryPop::Item(result) => {
                conn.pending = conn.pending.saturating_sub(1);
                conn.wire.send_segment(&Frame::Result(result));
                // The trace itself drained at delivery; this is its
                // wire-tx causal counterpart in the flight recorder.
                shared.engine.note_wire_tx(result.id);
            }
            TryPop::Empty => return,
            TryPop::Closed => {
                // Engine gone: whatever is already encoded still goes
                // out, then the connection closes.
                conn.draining = true;
                return;
            }
        }
    }
}

/// Budgeted nonblocking read: pull at most `read_budget` bytes this
/// tick, feeding the assembler and processing every complete frame.
fn read_conn(conn: &mut Conn, shared: &ServerShared, scratch: &mut [u8]) {
    let mut budget = shared.config.read_budget.max(1);
    conn.hot = false;
    loop {
        if conn.dead || conn.draining || conn.read_paused {
            return;
        }
        if budget == 0 {
            // Bytes may still be pending in the kernel buffer; come
            // back next tick so siblings on this loop get their turn.
            conn.hot = true;
            shared.metrics.inc(Metric::ReactorReadBudgetExhausted);
            return;
        }
        let want = budget.min(scratch.len());
        match (&conn.stream).read(&mut scratch[..want]) {
            Ok(0) => {
                // Clean EOF: the tenant hung up. In-flight results have
                // nowhere to go — teardown drops them, as the blocking
                // front did.
                conn.dead = true;
                return;
            }
            Ok(n) => {
                budget -= n;
                conn.last_activity = Instant::now();
                conn.asm.extend(&scratch[..n]);
                if !process_frames(conn, shared) {
                    conn.dead = true;
                    return;
                }
                if n < want {
                    return; // short read: kernel buffer is drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Decode and serve every complete frame the assembler holds. Returns
/// `false` when the connection must end (torn stream, protocol
/// violation, or the engine is shutting down).
fn process_frames(conn: &mut Conn, shared: &ServerShared) -> bool {
    loop {
        let frame = match conn.asm.next_frame_metered(&shared.metrics) {
            Ok(Some((frame, _))) => frame,
            Ok(None) => return true, // partial frame: wait for more bytes
            Err(_) => return false,  // torn/corrupt stream: no resync possible
        };
        // When this frame is a SUBMIT whose job gets sampled, this is
        // the instant its trace's `wire_rx` span records.
        let received = Instant::now();
        match frame {
            Frame::Submit(spec) => {
                // Semantic validation without unwinding the loop: remote
                // peers must not be able to panic the server with a bad
                // spec, nor OOM the process with a well-formed spec whose
                // buffers would be astronomically large.
                if !spec.is_feasible()
                    || spec.n > shared.config.max_dimension
                    || spec.m > shared.config.max_dimension
                {
                    shared.metrics.inc(Metric::JobsRejected);
                    conn.wire.send_segment(&Frame::Reject(spec.id));
                } else if conn.pending >= shared.config.route_capacity {
                    // Per-connection in-flight cap: a tenant at its
                    // window gets BUSY like any other backpressure —
                    // explicit, retryable, never a drop.
                    conn.wire.send_segment(&Frame::Busy(spec.id));
                } else {
                    conn.pending += 1;
                    match shared.engine.try_submit_routed_stamped(spec, &conn.route, Some(received))
                    {
                        Ok(()) => {}
                        Err(SubmitError::Backpressure(_)) => {
                            conn.pending -= 1;
                            // The explicit backpressure contract: full
                            // queue ⇒ BUSY reply carrying the id, never
                            // a silent drop.
                            conn.wire.send_segment(&Frame::Busy(spec.id));
                        }
                        Err(SubmitError::Closed(_)) => return false,
                    }
                }
            }
            Frame::Prewarm(key) => {
                // Administrative fire-and-forget (no reply channel, no
                // pending slot). Same door policy as SUBMIT: a shape past
                // the dimension cap could OOM the node via the sampler,
                // so oversized or degenerate keys are silently ignored —
                // the worst case is a cold miss later.
                if key.n == 0
                    || key.m == 0
                    || key.n > shared.config.max_dimension
                    || key.m > shared.config.max_dimension
                    || !(1..=1000).contains(&key.c_milli)
                {
                    continue;
                }
                shared.engine.prewarm(std::slice::from_ref(&key));
            }
            Frame::StatsRequest(token) => {
                // Scrape: answer with the engine's stats, echoing the
                // token.
                shared.metrics.inc(Metric::StatsScrapes);
                let stats = shared.engine.stats();
                conn.wire.send_segment(&Frame::Stats(StatsReply { token, stats }));
            }
            // RESULT/BUSY/REJECT/STATS flow server→client only;
            // receiving one here is a protocol violation — drop the
            // connection.
            Frame::Result(_) | Frame::Busy(_) | Frame::Reject(_) | Frame::Stats(_) => return false,
        }
        // A tenant that won't read its replies gets its output bounded:
        // past high water the loop stops reading from it, so it can
        // stall only itself (its cap-bounded results always fit).
        if conn.wire.get_ref().pending() >= Conn::pause_high(&shared.config) {
            conn.read_paused = true;
            return true;
        }
    }
}

/// Drain the outbound segment queue against the nonblocking socket
/// with vectored writes — every queued frame rides one `writev`
/// gather, and a partial write advances the queue's head offset so the
/// resume (next tick, when the backend reports writability again)
/// starts mid-segment without any byte ever being copied.
fn write_conn(conn: &mut Conn, shared: &ServerShared) {
    let fd = conn.stream.as_raw_fd();
    loop {
        let mut iovs = [IoVec::empty(); MAX_IOV];
        let ring = conn.wire.get_mut();
        let (count, attempted) = ring.fill_iovs(&mut iovs);
        if count == 0 {
            break;
        }
        shared.metrics.inc(Metric::TransportWritevCalls);
        match writev_fd(fd, &iovs[..count]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                if n < attempted {
                    shared.metrics.inc(Metric::TransportPartialWrites);
                }
                ring.advance(n);
                conn.last_activity = Instant::now();
                if n < attempted {
                    break; // kernel send buffer is full; resume next tick
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    // Resuming reads at half the pause threshold (not zero) keeps a
    // borderline tenant from flapping between paused and resumed on
    // every frame.
    if conn.read_paused && conn.wire.get_ref().pending() < Conn::pause_high(&shared.config) / 2 {
        conn.read_paused = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encoded wire bytes of one BUSY frame (convenient fixed-size
    /// segment for queue arithmetic).
    fn busy_len() -> usize {
        let mut writer = FrameWriter::new(OutRing::default());
        writer.send_segment(&Frame::Busy(0));
        writer.get_ref().pending()
    }

    /// The zero-copy regression the old byte ring failed: while a
    /// partial write is outstanding, appending more frames must not
    /// move a single already-encoded byte. The byte ring compacted with
    /// `buf.drain(..pos)` on append — every unsent byte memmoved, O(n)
    /// per append for a write-blocked tenant. The segment queue is
    /// pinned here by address: the storage of every queued segment
    /// stays exactly where the encoder left it.
    #[test]
    fn appends_never_move_queued_bytes_while_a_partial_write_is_outstanding() {
        let mut writer = FrameWriter::new(OutRing::default());
        writer.send_segment(&Frame::Busy(1));
        writer.send_segment(&Frame::Busy(2));
        let frame_len = busy_len();

        // A partial write consumed half of the front segment…
        writer.get_mut().advance(frame_len / 2);
        let ring = writer.get_ref();
        assert_eq!(ring.head, frame_len / 2);
        let pinned: Vec<(usize, Vec<u8>)> =
            ring.segs.iter().map(|s| (s.as_ptr() as usize, s.clone())).collect();

        // …and the write-blocked tenant keeps accumulating replies.
        for id in 3..300u64 {
            writer.send_segment(&Frame::Busy(id));
        }
        let ring = writer.get_ref();
        for (i, (ptr, bytes)) in pinned.iter().enumerate() {
            assert_eq!(
                ring.segs[i].as_ptr() as usize,
                *ptr,
                "segment {i} storage moved on append — the outbound path re-copied bytes"
            );
            assert_eq!(&ring.segs[i], bytes, "segment {i} content changed on append");
        }
        assert_eq!(ring.head, frame_len / 2, "append must not disturb the resume offset");
        assert_eq!(ring.pending(), 299 * frame_len - frame_len / 2);
    }

    /// Partial-write resume walks segment boundaries correctly and
    /// retires drained segments into the spare pool, whose buffers the
    /// encoder then reuses — steady-state appends allocate nothing.
    #[test]
    fn advance_retires_segments_and_recycles_their_buffers() {
        let mut writer = FrameWriter::new(OutRing::default());
        for id in 0..4u64 {
            writer.send_segment(&Frame::Busy(id));
        }
        let frame_len = busy_len();
        let retired_ptr = writer.get_ref().segs[0].as_ptr() as usize;

        // Drain 1.5 frames: segment 0 retires, segment 1 is half done.
        writer.get_mut().advance(frame_len + frame_len / 2);
        let ring = writer.get_ref();
        assert_eq!(ring.segs.len(), 3);
        assert_eq!(ring.head, frame_len / 2);
        assert_eq!(ring.pending(), 3 * frame_len - frame_len / 2);
        assert_eq!(ring.spare.len(), 1, "drained segment joins the spare pool");

        // The next encode reuses the retired buffer, byte-for-byte.
        writer.send_segment(&Frame::Busy(99));
        let ring = writer.get_ref();
        assert_eq!(
            ring.segs.back().expect("queued").as_ptr() as usize,
            retired_ptr,
            "encoder must reuse the recycled segment buffer"
        );

        // Draining everything empties the queue and zeroes the offset.
        let rest = writer.get_ref().pending();
        writer.get_mut().advance(rest);
        let ring = writer.get_ref();
        assert_eq!((ring.pending(), ring.head, ring.segs.len()), (0, 0, 0));
    }

    /// `fill_iovs` exposes exactly the unsent bytes: the front segment
    /// from its head offset, then whole segments, capped at `MAX_IOV`.
    #[test]
    fn fill_iovs_covers_the_unsent_suffix_only() {
        let mut writer = FrameWriter::new(OutRing::default());
        for id in 0..3u64 {
            writer.send_segment(&Frame::Busy(id));
        }
        let frame_len = busy_len();
        writer.get_mut().advance(5);
        let mut iovs = [IoVec::empty(); MAX_IOV];
        let (count, bytes) = writer.get_ref().fill_iovs(&mut iovs);
        assert_eq!(count, 3);
        assert_eq!(bytes, 3 * frame_len - 5);
        assert_eq!(iovs[0].len(), frame_len - 5);
        assert_eq!(iovs[1].len(), frame_len);

        // Over MAX_IOV segments: one gather's worth, the rest next call.
        for id in 0..(MAX_IOV as u64 + 40) {
            writer.send_segment(&Frame::Busy(id));
        }
        let (count, _) = writer.get_ref().fill_iovs(&mut iovs);
        assert_eq!(count, MAX_IOV);
    }

    /// One atomic step of the route-waker protocol in the interleaving
    /// model.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Loop: one step of `drain_route`; `RecvDry` is one `try_recv`,
        /// repeated until it finds the queue empty.
        Drain(RouteDrainStep),
        /// Worker: deliver a result into the route's queue.
        Push,
        /// Worker: the waker's swap of `queued`.
        Swap,
        /// Worker: post the connection id and wake the loop, if its swap
        /// found `queued` clear. (`WakePipe`'s own model shows a post
        /// followed by a wake always rouses the loop.)
        Post,
    }

    #[derive(Clone, Copy)]
    struct Model {
        /// Results in the route's queue.
        results: u32,
        /// The connection's `queued` flag.
        queued: bool,
        /// Posts of the connection the loop has not taken yet.
        posts: u32,
        /// Per worker: whether its swap found `queued` clear.
        found_clear: [bool; 2],
    }

    /// Walk every interleaving of one loop drain (`order`, with the
    /// receive step repeated until `Empty`) against two workers (push,
    /// swap, post), starting just after the loop took the connection's
    /// post: with one result queued, or with none (a stale post whose
    /// result an earlier drain already sent). Each final state must
    /// leave no queued result and no set `queued` flag without a post
    /// pending. Returns the number of interleavings walked, or the
    /// first one (as `(thread, step)` pairs, thread 0 the loop) that
    /// broke the protocol.
    fn explore(order: [RouteDrainStep; 2]) -> Result<usize, String> {
        fn walk(
            m: Model,
            pcs: [usize; 3],
            order: [RouteDrainStep; 2],
            trace: &mut Vec<(usize, Step)>,
        ) -> Result<usize, String> {
            const WORKER: [Step; 3] = [Step::Push, Step::Swap, Step::Post];
            let mut walked = 0;
            for t in 0..3 {
                let step = if t == 0 {
                    order.get(pcs[0]).map(|&s| Step::Drain(s))
                } else {
                    WORKER.get(pcs[t]).copied()
                };
                let Some(step) = step else { continue };
                let mut next = m;
                let mut next_pcs = pcs;
                next_pcs[t] += 1;
                match step {
                    Step::Drain(RouteDrainStep::Clear) => next.queued = false,
                    Step::Drain(RouteDrainStep::RecvDry) if next.results > 0 => {
                        next.results -= 1;
                        next_pcs[t] = pcs[t]; // `Item`: receive again
                    }
                    Step::Drain(RouteDrainStep::RecvDry) => {} // `Empty`: done
                    Step::Push => next.results += 1,
                    Step::Swap => {
                        next.found_clear[t - 1] = !std::mem::replace(&mut next.queued, true);
                    }
                    Step::Post => next.posts += u32::from(next.found_clear[t - 1]),
                }
                trace.push((t, step));
                walked += walk(next, next_pcs, order, trace)?;
                trace.pop();
            }
            if walked > 0 {
                return Ok(walked);
            }
            if m.results > 0 && m.posts == 0 {
                return Err(format!("result stranded with no post pending: {trace:?}"));
            }
            if m.queued && m.posts == 0 {
                return Err(format!(
                    "`queued` set with no post pending, later results never post: {trace:?}"
                ));
            }
            Ok(1)
        }
        let roused = Model { results: 1, queued: true, posts: 0, found_clear: [false; 2] };
        let stale = Model { results: 0, ..roused };
        let mut walked = 0;
        for start in [roused, stale] {
            walked += walk(start, [0; 3], order, &mut Vec::new())?;
        }
        Ok(walked)
    }

    #[test]
    fn route_drain_order_never_strands_a_result() {
        let walked = explore(ROUTE_DRAIN_ORDER).expect("the drain order strands no result");
        // The drain's length depends on what it finds, so there is no
        // closed form; pinning the count shows the walk stays exhaustive.
        assert_eq!(walked, 11_244);
        // The model is not vacuous: draining before clearing `queued`
        // strands a result delivered between the two.
        assert!(explore([RouteDrainStep::RecvDry, RouteDrainStep::Clear]).is_err());
    }

    #[test]
    fn idle_wheel_examines_a_connection_once_per_timeout_not_per_sweep() {
        let start = Instant::now();
        let timeout = Duration::from_millis(100);
        let granularity = Duration::from_millis(25);
        let mut wheel = IdleWheel::new(timeout, granularity, start);
        let mut due = Vec::new();

        wheel.schedule(7, start + timeout, start);
        // Three sweeps' worth of advancing: the id must not surface
        // early (the per-sweep full scan is what the wheel replaces).
        wheel.collect_due(start + Duration::from_millis(80), &mut due);
        assert!(due.is_empty(), "id surfaced {due:?} before its deadline bucket");
        // Crossing the deadline granule surfaces it exactly once.
        wheel.collect_due(start + Duration::from_millis(105), &mut due);
        assert_eq!(due, vec![7]);
        wheel.collect_due(start + Duration::from_millis(130), &mut due);
        assert!(due.is_empty(), "an id never surfaces twice without a reschedule");
    }

    #[test]
    fn idle_wheel_reschedule_tracks_fresh_activity() {
        let start = Instant::now();
        let timeout = Duration::from_millis(100);
        let mut wheel = IdleWheel::new(timeout, Duration::from_millis(25), start);
        let mut due = Vec::new();
        wheel.schedule(3, start + timeout, start);
        let now = start + Duration::from_millis(105);
        wheel.collect_due(now, &mut due);
        assert_eq!(due, vec![3]);
        // The connection was active at +90ms: the loop reschedules it
        // for +190ms rather than evicting.
        let last_activity = start + Duration::from_millis(90);
        wheel.schedule(3, last_activity + timeout, now);
        wheel.collect_due(start + Duration::from_millis(180), &mut due);
        assert!(due.is_empty(), "rescheduled id must wait for its new deadline");
        wheel.collect_due(start + Duration::from_millis(200), &mut due);
        assert_eq!(due, vec![3]);
    }

    #[test]
    fn idle_wheel_survives_a_long_stall_without_spinning() {
        let start = Instant::now();
        let mut wheel = IdleWheel::new(Duration::from_secs(1), Duration::from_millis(250), start);
        let mut due = Vec::new();
        wheel.schedule(1, start + Duration::from_secs(1), start);
        // A multi-minute stall (suspended VM) advances at most one full
        // revolution and still surfaces everything scheduled.
        wheel.collect_due(start + Duration::from_secs(300), &mut due);
        assert_eq!(due, vec![1]);
        wheel.collect_due(start + Duration::from_secs(301), &mut due);
        assert!(due.is_empty());
    }

    /// Past-due and far-future deadlines clamp into the wheel instead
    /// of panicking or parking forever.
    #[test]
    fn idle_wheel_clamps_deadlines_into_its_horizon() {
        let start = Instant::now();
        let timeout = Duration::from_millis(100);
        let granularity = Duration::from_millis(25);
        let mut wheel = IdleWheel::new(timeout, granularity, start);
        let mut due = Vec::new();
        wheel.schedule(1, start, start); // already due
        wheel.schedule(2, start + Duration::from_secs(3600), start); // far out
        wheel.collect_due(start + granularity, &mut due);
        assert_eq!(due, vec![1], "past-due lands in the very next granule");
        wheel.collect_due(start + timeout + 2 * granularity, &mut due);
        assert_eq!(due, vec![2], "far deadlines clamp to the wheel horizon");
    }
}
