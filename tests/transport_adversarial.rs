//! Hostile tenants against the readiness-driven connection front.
//!
//! The event-loop server multiplexes every tenant on a handful of loop
//! threads, so its real contract is *containment*: one misbehaving
//! socket — dribbling bytes, never reading its replies, or going silent
//! — must cost the server one connection's bounded state and nothing
//! else. Each test here pairs an adversarial raw socket with a
//! well-behaved tenant (a one-node [`Router`] over a [`RemoteNode`]) on
//! the same server and asserts the well-behaved tenant's results stay
//! bit-identical to the in-process ground truth while the adversary is
//! contained (or evicted).
//!
//! The file also pins the resource contracts of both ends: server
//! thread count is O(event loops), not O(connections); a `RemoteNode`
//! starts no thread; and one blocked in [`NodeHandle::recv`] burns no
//! CPU.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pooled_data::engine::cluster::{NodeEvent, NodeHandle, RemoteNode, Router};
use pooled_data::engine::engine::{Engine, EngineConfig};
use pooled_data::engine::job::{DecoderKind, Digest, JobResult, JobSpec};
use pooled_data::engine::telemetry::Metric;
use pooled_data::engine::traffic::LoadProfile;
use pooled_data::engine::transport::frame::{
    encode_frame, Frame, FrameAssembler, CHECKSUM_LEN, HEADER_LEN,
};
use pooled_data::engine::transport::reactor::{
    raise_fd_limit, thread_count, thread_cpu_time, thread_cpu_time_by_name,
};
use pooled_data::engine::transport::{TransportConfig, TransportServer};
use pooled_data::lab::latency::LatencyModel;

/// Every test here measures wall-clock behavior (eviction deadlines,
/// CPU accounting, thread counts) on what may be a single-core CI box;
/// running them concurrently makes scheduler noise look like transport
/// bugs. Each test holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn profile(seed: u64) -> LoadProfile {
    LoadProfile {
        distinct_designs: 2,
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(300, 5, 180, seed)
    }
}

fn engine(workers: usize, queue: usize) -> Arc<Engine> {
    Arc::new(Engine::start(EngineConfig {
        workers,
        queue_capacity: queue,
        results_capacity: queue,
        design_cache_capacity: 4,
        batch_window: 1,
    }))
}

/// One wire tenant: a router over a single `RemoteNode`, 16 jobs in
/// flight.
fn tenant(addr: SocketAddr) -> Router {
    let node = RemoteNode::connect(addr).expect("connect loopback");
    Router::new(vec![(0, Box::new(node) as Box<dyn NodeHandle>)], 16)
}

fn fingerprints(results: &[JobResult]) -> Vec<(u64, u64)> {
    results.iter().map(|r| (r.id, r.fingerprint())).collect()
}

fn in_process_ground_truth(p: &LoadProfile, jobs: usize) -> Vec<(u64, u64)> {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 16,
        results_capacity: 16,
        design_cache_capacity: 4,
        batch_window: 1,
    });
    let mut out = Vec::new();
    engine.run_batch(&p.specs(jobs), &mut out);
    engine.shutdown();
    fingerprints(&out)
}

fn encoded_submit(spec: &JobSpec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(&Frame::Submit(*spec), &mut buf);
    buf
}

/// The frame checksum, computed by hand: the `Digest` chain over the
/// byte count, then over the bytes as little-endian words (the last one
/// zero-padded).
fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d.push(u64::from_le_bytes(word));
    }
    d.finish()
}

/// Read raw frames off an adversary's socket until `want` frames have
/// arrived (the adversaries speak the protocol by hand, without a
/// node's conveniences).
fn read_frames_raw(stream: &mut TcpStream, want: usize) -> Vec<Frame> {
    let mut asm = FrameAssembler::new();
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    while got.len() < want {
        while let Some((frame, _)) = asm.next_frame().expect("clean stream") {
            got.push(frame);
            if got.len() == want {
                return got;
            }
        }
        let n = stream.read(&mut chunk).expect("read reply bytes");
        assert!(n > 0, "server hung up before all replies arrived");
        asm.extend(&chunk[..n]);
    }
    got
}

fn wait_for_live(server: &TransportServer, want: usize, within: Duration) {
    let deadline = Instant::now() + within;
    while server.live_connections() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.live_connections(), want, "live connection count never converged");
}

#[test]
fn a_dribbling_tenant_cannot_stall_other_tenants() {
    let _serial = serial();
    // Slowloris, read side: the adversary feeds one SUBMIT frame a byte
    // at a time. Under the old thread-per-connection front that cost a
    // dedicated (mostly idle) thread; under the event loop it must cost
    // one partial-frame buffer — and zero latency for anyone else.
    let engine = engine(1, 16);
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind");
    let addr = server.local_addr();

    let p = profile(41);
    let spec = p.spec(1_000); // id disjoint from the well-behaved batch
    let wire = encoded_submit(&spec);
    let dribbler = std::thread::spawn(move || {
        let mut socket = TcpStream::connect(addr).expect("dribbler connect");
        socket.set_nodelay(true).expect("nodelay");
        for byte in &wire {
            socket.write_all(std::slice::from_ref(byte)).expect("dribble");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The frame is finally whole; the server must serve it like any
        // other submission.
        match read_frames_raw(&mut socket, 1).remove(0) {
            Frame::Result(r) => assert_eq!(r.id, spec.id),
            other => panic!("dribbler expected its RESULT, got {other:?}"),
        }
    });

    // While ~100 ms of dribbling is in progress, a well-behaved tenant
    // serves a whole batch with the usual bit-identical fingerprints.
    let jobs = 16;
    let mut tenant = tenant(addr);
    let mut out = Vec::new();
    let served_in = Instant::now();
    tenant.run_batch(&p.specs(jobs), &mut out);
    let served_in = served_in.elapsed();
    assert_eq!(fingerprints(&out), in_process_ground_truth(&p, jobs));
    // Not a tight latency bound — just "not serialized behind a 100 ms
    // dribble" (the old design never had this failure mode; the shared
    // event loop must not introduce it).
    assert!(served_in < Duration::from_secs(5), "batch took {served_in:?} behind a dribbler");

    dribbler.join().expect("dribbler thread");
    drop(tenant);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn a_write_blocked_tenant_is_contained() {
    let _serial = serial();
    // The adversary fires a burst of submissions and then never reads a
    // byte back. The in-flight cap must bound what the server buffers
    // for it (BUSY past route_capacity, pause-read past the high-water
    // mark) — and the engine's workers must never block on its socket,
    // so a concurrent tenant sees full service.
    let engine = engine(2, 16);
    let server = TransportServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        TransportConfig { route_capacity: 4, ..TransportConfig::default() },
    )
    .expect("bind");
    let addr = server.local_addr();

    let p = profile(43);
    let mut blocked = TcpStream::connect(addr).expect("blocked connect");
    let mut burst = Vec::new();
    for i in 0..64u64 {
        burst.extend_from_slice(&encoded_submit(&p.spec(10_000 + i)));
    }
    blocked.write_all(&burst).expect("burst");
    // ...and now the adversary goes deaf: no reads, ever.

    let jobs = 24;
    let mut tenant = tenant(addr);
    let mut out = Vec::new();
    tenant.run_batch(&p.specs(jobs), &mut out);
    assert_eq!(fingerprints(&out), in_process_ground_truth(&p, jobs));

    // Containment is also cleanup: dropping the deaf socket must reap
    // its connection (and its buffered replies) promptly.
    drop(blocked);
    drop(tenant);
    wait_for_live(&server, 0, Duration::from_secs(5));
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn an_unserved_decoder_code_is_refused_at_the_door() {
    let _serial = serial();
    // A well-formed SUBMIT whose decoder byte names no served decoder,
    // sealed with a valid checksum: the server must hang up without a
    // reply and without handing the job to a worker, while a
    // well-behaved tenant keeps bit-identical service.
    let engine = engine(1, 16);
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind");
    let addr = server.local_addr();

    let p = profile(59);
    let mut wire = encoded_submit(&p.spec(1_000));
    wire[HEADER_LEN + 57] = 0xFE; // the SUBMIT payload's decoder byte
    let body = wire.len() - CHECKSUM_LEN;
    let ck = frame_checksum(&wire[..body]);
    wire[body..].copy_from_slice(&ck.to_le_bytes());
    let mut adversary = TcpStream::connect(addr).expect("adversary connect");
    adversary.write_all(&wire).expect("send the frame");
    adversary.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut reply = Vec::new();
    adversary.read_to_end(&mut reply).expect("the server hangs up");
    assert!(reply.is_empty(), "the server answered with {} bytes", reply.len());

    let jobs = 16;
    let mut tenant = tenant(addr);
    let mut out = Vec::new();
    tenant.run_batch(&p.specs(jobs), &mut out);
    assert_eq!(fingerprints(&out), in_process_ground_truth(&p, jobs));

    drop(tenant);
    server.stop();
    let stats = Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
    assert_eq!(stats.jobs_poisoned, 0, "a worker ran the refused frame's job");
    assert_eq!(stats.jobs_completed, jobs as u64);
}

#[test]
fn idle_tenants_are_evicted_after_the_timeout() {
    let _serial = serial();
    // Slowloris, connection-hoarding side: a tenant that connects and
    // sends nothing must be evicted once `idle_timeout` elapses — while
    // a tenant doing steady work sails through untouched, because
    // activity resets its clock.
    let engine = engine(1, 16);
    let server = TransportServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        TransportConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..TransportConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let idler = TcpStream::connect(addr).expect("idler connect");
    // Steady work spanning several eviction sweeps: 20 jobs at a fixed
    // 20 ms apiece ≈ 400 ms of continuous traffic on one worker.
    let p = LoadProfile { query_cost: Some(LatencyModel::Fixed(20_000.0)), ..profile(47) };
    let jobs = 20;
    // Ground truth first: computing it replays 400 ms of real job cost,
    // and doing that *between* wire calls would idle the client past
    // its own eviction deadline.
    let want = in_process_ground_truth(&p, jobs);
    let mut tenant = tenant(addr);
    let mut out = Vec::new();
    tenant.run_batch(&p.specs(jobs), &mut out);
    assert_eq!(fingerprints(&out), want);

    // The batch spanned many sweep intervals with every inter-job gap
    // well under the timeout — so merely *finishing* proves activity
    // resets the clock. One more round-trip, immediately, pins it.
    let late = p.spec(9_999);
    out.clear();
    tenant.run_batch(&[late], &mut out);
    assert_eq!(out[0].id, late.id, "active tenant broken after idle sweeps");

    // By now the idler has been silent for far longer than 150 ms; its
    // eviction must be counted and its socket really closed (EOF, not
    // silence). The tenant's own connection may get evicted too once it
    // goes quiet — that's the feature working, so no live-count assert.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().snapshot().get(Metric::TransportIdleEvictions) == 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let evictions = server.metrics().snapshot().get(Metric::TransportIdleEvictions);
    assert!(evictions >= 1, "idle eviction must be counted, saw {evictions}");
    let mut idler = idler;
    idler.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut scratch = [0u8; 8];
    assert_eq!(idler.read(&mut scratch).expect("EOF read"), 0, "idler socket must be closed");

    drop(tenant);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn server_threads_scale_with_loops_not_connections() {
    let _serial = serial();
    // The headline resource contract of the refactor: 128 tenants on a
    // 2-loop server must not add O(connections) threads. The old front
    // spawned a reader *and* a writer per connection — 256 threads for
    // this fixture; the bound here leaves room for the engine, the
    // loops, the accept thread, and unrelated test threads, and is
    // still ~an order of magnitude below the old design.
    let baseline = thread_count().expect("/proc/self/status readable");
    let engine = engine(1, 16);
    let server = TransportServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        TransportConfig { event_loops: 2, ..TransportConfig::default() },
    )
    .expect("bind");
    let addr = server.local_addr();

    let tenants: Vec<TcpStream> =
        (0..128).map(|_| TcpStream::connect(addr).expect("tenant connect")).collect();
    wait_for_live(&server, tenants.len(), Duration::from_secs(10));

    let now = thread_count().expect("/proc/self/status readable");
    let grew = now.saturating_sub(baseline);
    assert!(
        grew <= 32,
        "128 connections grew the process by {grew} threads — that is O(connections)"
    );

    // And the multiplexed connections actually work: one of the 128 raw
    // sockets completes a round-trip while the other 127 sit connected.
    let p = profile(53);
    let spec = p.spec(0);
    let mut probe = tenants.into_iter().next().expect("have tenants");
    probe.write_all(&encoded_submit(&spec)).expect("probe submit");
    match read_frames_raw(&mut probe, 1).remove(0) {
        Frame::Result(r) => assert_eq!(r.id, spec.id),
        other => panic!("probe expected RESULT, got {other:?}"),
    }

    drop(probe);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn a_remote_node_starts_no_thread() {
    let _serial = serial();
    // Replies are read on the caller's thread, so a connection costs
    // the process two fds and no thread: 16 nodes must not grow it by
    // 16 threads.
    let engine = engine(1, 16);
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind");
    let baseline = thread_count().expect("/proc/self/status readable");
    let nodes: Vec<RemoteNode> =
        (0..16).map(|_| RemoteNode::connect(server.local_addr()).expect("connect")).collect();
    wait_for_live(&server, nodes.len(), Duration::from_secs(10));
    let grew = thread_count().expect("/proc/self/status readable").saturating_sub(baseline);
    assert!(grew <= 2, "16 remote nodes grew the process by {grew} threads");

    drop(nodes);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn a_waiting_client_burns_no_cpu() {
    let _serial = serial();
    // `RemoteNode::recv`'s contract: the wait is a kernel park, not a
    // spin. While a 150 ms job is in service, the waiting thread must
    // accrue (almost) no CPU time.
    let engine = engine(1, 8);
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind");
    let p = LoadProfile { query_cost: Some(LatencyModel::Fixed(150_000.0)), ..profile(59) };
    let spec = p.spec(0);
    let node = RemoteNode::connect(server.local_addr()).expect("connect");
    node.submit(spec).expect("submit");

    let cpu_before = thread_cpu_time();
    let wall = Instant::now();
    match node.recv() {
        Some(NodeEvent::Result(r)) => assert_eq!(r.id, spec.id),
        other => panic!("expected RESULT, got {other:?}"),
    }
    let wall = wall.elapsed();
    let cpu = thread_cpu_time() - cpu_before;

    assert!(wall >= Duration::from_millis(100), "job finished suspiciously fast: {wall:?}");
    // Generous bound (decode + a couple of syscalls), but a spinning
    // wait on this 150 ms window would bill tens of milliseconds even
    // on a loaded single-core box.
    assert!(cpu < Duration::from_millis(50), "recv() burned {cpu:?} CPU over a {wall:?} wait");

    drop(node);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

/// What one run of the idle-herd scenario observed.
struct HerdRun {
    /// Idle sockets actually connected (the 10k ask, clamped to what
    /// `RLIMIT_NOFILE` permits — each loopback connection costs two fds
    /// in this one process).
    herd: usize,
    fingerprints: Vec<(u64, u64)>,
    /// CPU accrued by the (single) event-loop thread across the
    /// streaming phase only — adoption of the herd is excluded.
    loop_cpu: Duration,
    ticks: u64,
    /// Ready fds epoll delivered over the same window.
    ready_fds: u64,
}

/// The satellite scenario: a huge herd of connected-but-silent tenants
/// parks on a single-loop server while one working tenant streams a
/// batch. Returns the measurements for the test to assert on.
fn idle_herd_batch(p: &LoadProfile, jobs: usize) -> HerdRun {
    let limit = raise_fd_limit(20_000);
    let herd = 9_999usize.min((limit.saturating_sub(600) / 2) as usize);
    let engine = engine(1, 16);
    let server = TransportServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        TransportConfig {
            event_loops: 1,
            idle_timeout: None,
            max_connections: herd + 8,
            ..TransportConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let idle: Vec<TcpStream> =
        (0..herd).map(|_| TcpStream::connect(addr).expect("idle connect")).collect();
    wait_for_live(&server, herd, Duration::from_secs(60));

    // Herd adopted and registered; everything from here to the metric
    // re-read is the measured streaming window.
    let before = server.metrics().snapshot();
    let cpu_before =
        thread_cpu_time_by_name("transport-loop").expect("loop thread visible in /proc");
    let mut tenant = tenant(addr);
    let mut out = Vec::new();
    tenant.run_batch(&p.specs(jobs), &mut out);
    let loop_cpu = thread_cpu_time_by_name("transport-loop").expect("loop thread visible in /proc")
        - cpu_before;
    let after = server.metrics().snapshot();

    drop(tenant);
    drop(idle);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
    HerdRun {
        herd,
        fingerprints: fingerprints(&out),
        loop_cpu,
        ticks: after.get(Metric::TransportTicks) - before.get(Metric::TransportTicks),
        ready_fds: after.get(Metric::TransportReadyFds) - before.get(Metric::TransportReadyFds),
    }
}

#[test]
fn an_idle_herd_under_epoll_costs_o_active_work() {
    let _serial = serial();
    // The tentpole's headline: ~10k idle fds must be free. The kernel
    // holds their interest; the loop hears only about the one tenant
    // doing work, so both the delivered-event count and the loop
    // thread's CPU stay O(active) no matter how big the herd is.
    let p = profile(71);
    let jobs = 120;
    let want = in_process_ground_truth(&p, jobs);
    let run = idle_herd_batch(&p, jobs);

    assert!(run.herd >= 1_000, "fd limit clamped the herd to {} — scenario trivialized", run.herd);
    assert_eq!(run.fingerprints, want, "herd pressure changed results");
    assert!(run.ticks > 0, "streaming a batch must tick the loop");
    // Per tick the loop can legitimately hear about the wake pipe and
    // the active tenant; 4× that is slack. A backend reporting the
    // registered set (O(connections)) would blow past this by ~three
    // orders of magnitude.
    assert!(
        run.ready_fds <= run.ticks * 4,
        "{} ready fds over {} ticks with one active tenant — that is O(connections)",
        run.ready_fds,
        run.ticks
    );
    // Generous for a loaded single-core box, yet far below what any
    // per-tick herd scan (rebuild, iterate, or re-register) would bill.
    assert!(
        run.loop_cpu < Duration::from_millis(500),
        "event loop burned {:?} streaming {jobs} jobs past {} idle tenants",
        run.loop_cpu,
        run.herd
    );
}
