//! The transport's correctness contract, end to end over loopback TCP.
//!
//! Three layers, strictest first:
//!
//! 1. **Codec** — property-tested round-trips of random `JobSpec` /
//!    `JobResult` frames, plus rejection of every truncation and every
//!    single-byte corruption (the checksum covers header and payload).
//! 2. **Conversation** — BUSY retry under a deliberately tiny submission
//!    queue, REJECT for infeasible specs, multiple concurrent tenants on
//!    one server each seeing exactly their own completions.
//! 3. **The headline invariant** — a `LoadProfile` replayed over TCP
//!    yields result fingerprints **bit-identical** to in-process
//!    `run_batch` submission, across worker counts and design-affinity
//!    batch windows.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pooled_data::design::factory::DesignKind;
use pooled_data::engine::cache::DesignKey;
use pooled_data::engine::cluster::{NodeEvent, NodeHandle, RemoteNode, Router};
use pooled_data::engine::engine::{Engine, EngineConfig};
use pooled_data::engine::job::{DecoderKind, DesignSpec, JobResult, JobSpec};
use pooled_data::engine::telemetry::Metric;
use pooled_data::engine::traffic::LoadProfile;
use pooled_data::engine::transport::frame::{decode_frame, encode_frame, Frame, MAX_FRAME_LEN};
use pooled_data::engine::transport::{TransportConfig, TransportServer};
use pooled_data::lab::split::LatencySplit;

fn spec_from(rng_words: [u64; 8]) -> JobSpec {
    JobSpec {
        id: rng_words[0],
        n: (rng_words[1] % (1 << 40)) as usize,
        k: (rng_words[2] % (1 << 40)) as usize,
        m: (rng_words[3] % (1 << 40)) as usize,
        design: DesignSpec {
            kind: DesignKind::ALL[(rng_words[4] % DesignKind::ALL.len() as u64) as usize],
            c_milli: (rng_words[4] >> 32) as u32,
            seed: rng_words[5],
        },
        decoder: DecoderKind::ALL[(rng_words[6] % DecoderKind::ALL.len() as u64) as usize],
        seed: rng_words[7],
        query_cost_micros: (rng_words[6] >> 32) as u32,
    }
}

fn result_from(w: [u64; 8]) -> JobResult {
    JobResult {
        id: w[0],
        decoder: DecoderKind::ALL[(w[1] % DecoderKind::ALL.len() as u64) as usize],
        exact: w[1] & (1 << 60) != 0,
        hits: w[2] as u32,
        weight: (w[2] >> 32) as u32,
        support_digest: w[3],
        score_digest: w[4],
        decode_micros: w[5],
        queue_micros: w[6],
        total_micros: w[7],
        worker: (w[1] >> 32) as u32 & 0xFFFF,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Codec round-trip: struct → bytes → the same struct, for random
    /// field values across the whole wire domain.
    #[test]
    fn spec_frames_round_trip(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        e in any::<u64>(), f in any::<u64>(), g in any::<u64>(), h in any::<u64>(),
    ) {
        let spec = spec_from([a, b, c, d, e, f, g, h]);
        let mut buf = Vec::new();
        encode_frame(&Frame::Submit(spec), &mut buf);
        let (decoded, consumed) = decode_frame(&buf).expect("valid frame");
        prop_assert_eq!(decoded, Frame::Submit(spec));
        prop_assert_eq!(consumed, buf.len());
    }

    /// Same for results.
    #[test]
    fn result_frames_round_trip(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        e in any::<u64>(), f in any::<u64>(), g in any::<u64>(), h in any::<u64>(),
    ) {
        let result = result_from([a, b, c, d, e, f, g, h]);
        let mut buf = Vec::new();
        encode_frame(&Frame::Result(result), &mut buf);
        let (decoded, consumed) = decode_frame(&buf).expect("valid frame");
        prop_assert_eq!(decoded, Frame::Result(result));
        prop_assert_eq!(consumed, buf.len());
    }

    /// A random truncation point never yields a frame, and a random
    /// single-byte corruption is always detected (checksum or a header
    /// check — either way, never a silently different frame).
    #[test]
    fn torn_and_corrupted_frames_are_rejected(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        cut_sel in any::<u64>(), flip_sel in any::<u64>(), flip_bit in 0u32..8,
    ) {
        let spec = spec_from([a, b, c, d, a ^ b, c ^ d, a ^ c, b ^ d]);
        let mut buf = Vec::new();
        encode_frame(&Frame::Submit(spec), &mut buf);
        let cut = (cut_sel % buf.len() as u64) as usize;
        prop_assert!(decode_frame(&buf[..cut]).is_err(), "truncation at {} accepted", cut);
        let flip = (flip_sel % buf.len() as u64) as usize;
        let mut corrupt = buf.clone();
        corrupt[flip] ^= 1 << flip_bit;
        prop_assert!(decode_frame(&corrupt).is_err(), "bit flip at {} accepted", flip);
    }
}

/// A small, fast profile mixing decoders and designs.
fn profile(seed: u64) -> LoadProfile {
    LoadProfile {
        distinct_designs: 2,
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(300, 5, 180, seed)
    }
}

fn engine(workers: usize, queue: usize, batch_window: usize) -> Arc<Engine> {
    Arc::new(Engine::start(EngineConfig {
        workers,
        queue_capacity: queue,
        results_capacity: queue,
        design_cache_capacity: 4,
        batch_window,
    }))
}

/// One wire tenant: a router over a single `RemoteNode`, 16 jobs in
/// flight.
fn tenant(addr: SocketAddr) -> Router {
    let node = RemoteNode::connect(addr).expect("connect loopback");
    Router::new(vec![(0, Box::new(node) as Box<dyn NodeHandle>)], 16)
}

/// Fingerprint projection used by every cross-wire comparison.
fn fingerprints(results: &[JobResult]) -> Vec<(u64, u64)> {
    results.iter().map(|r| (r.id, r.fingerprint())).collect()
}

/// Serve the profile in-process (the pre-transport ground truth).
fn serve_in_process(p: &LoadProfile, jobs: usize, workers: usize, window: usize) -> Vec<JobResult> {
    let engine = Engine::start(EngineConfig {
        workers,
        queue_capacity: 16,
        results_capacity: 16,
        design_cache_capacity: 4,
        batch_window: window,
    });
    let mut out = Vec::new();
    engine.run_batch(&p.specs(jobs), &mut out);
    engine.shutdown();
    out
}

/// Serve the profile over loopback TCP.
fn serve_over_tcp(
    p: &LoadProfile,
    jobs: usize,
    workers: usize,
    window: usize,
    queue: usize,
) -> (Vec<JobResult>, u64) {
    let engine = engine(workers, queue, window);
    let server = TransportServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        TransportConfig { route_capacity: 32, ..TransportConfig::default() },
    )
    .expect("bind loopback");
    let mut tenant = tenant(server.local_addr());
    let mut out = Vec::new();
    tenant.run_batch(&p.specs(jobs), &mut out);
    let retries = tenant.busy_retries();
    drop(tenant);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("server released the engine").shutdown();
    (out, retries)
}

#[test]
fn tcp_fingerprints_are_bit_identical_to_in_process() {
    // The headline invariant: same profile, same fingerprints, whether
    // jobs arrive through the in-process queue or over the wire — at one
    // worker and several, per-job and batched.
    let p = profile(1905);
    let jobs = 24;
    let want = fingerprints(&serve_in_process(&p, jobs, 1, 1));
    for (workers, window) in [(1, 1), (4, 1), (1, 4), (4, 4)] {
        let in_proc = fingerprints(&serve_in_process(&p, jobs, workers, window));
        assert_eq!(in_proc, want, "in-process determinism broke at {workers}w/{window}b");
        let (tcp, _) = serve_over_tcp(&p, jobs, workers, window, 16);
        assert_eq!(
            fingerprints(&tcp),
            want,
            "TCP results diverged at {workers} workers, batch window {window}"
        );
    }
}

#[test]
fn busy_backpressure_retries_until_everything_is_served() {
    // A 1-slot submission queue with pipelined submissions forces BUSY
    // replies; the router must absorb them and still serve the full
    // batch with fingerprints intact.
    let p = LoadProfile {
        query_cost: Some(pooled_data::lab::latency::LatencyModel::Fixed(500.0)),
        ..profile(7)
    };
    let jobs = 30;
    let want = fingerprints(&serve_in_process(&p, jobs, 1, 1));
    let (tcp, retries) = serve_over_tcp(&p, jobs, 2, 1, 1);
    assert_eq!(fingerprints(&tcp), want, "BUSY retries changed results");
    // Not asserted > 0 (timing-dependent), but with queue=1 and 500µs
    // jobs the retry path essentially always runs; print for the log.
    eprintln!("busy_backpressure test absorbed {retries} BUSY retries");
}

#[test]
fn infeasible_specs_are_rejected_not_served() {
    let engine = engine(1, 8, 1);
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind");
    // A bare node: a router would refuse the infeasible spec itself.
    let node = RemoteNode::connect(server.local_addr()).expect("connect");
    let mut bad = profile(3).spec(0);
    bad.k = bad.n + 1; // infeasible: heavier than the universe
    node.submit(bad).expect("submit");
    match node.recv() {
        Some(NodeEvent::Rejected(id)) => assert_eq!(id, bad.id),
        other => panic!("expected REJECT, got {other:?}"),
    }
    // The connection survives a reject: a good job still round-trips.
    let good = profile(3).spec(1);
    node.submit(good).expect("submit good");
    match node.recv() {
        Some(NodeEvent::Result(r)) => assert_eq!(r.id, good.id),
        other => panic!("expected RESULT, got {other:?}"),
    }
    drop(node);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn concurrent_tenants_see_exactly_their_own_results() {
    let engine = engine(3, 16, 1);
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind");
    let addr = server.local_addr();
    let p = profile(11);
    let all = p.specs(40);
    let (first_half, second_half) = all.split_at(20);
    let spawn = |specs: Vec<JobSpec>| {
        std::thread::spawn(move || {
            let mut out = Vec::new();
            tenant(addr).run_batch(&specs, &mut out);
            out
        })
    };
    let a = spawn(first_half.to_vec());
    let b = spawn(second_half.to_vec());
    let got_a = a.join().expect("tenant A");
    let got_b = b.join().expect("tenant B");
    let ids = |rs: &[JobResult]| rs.iter().map(|r| r.id).collect::<Vec<_>>();
    assert_eq!(ids(&got_a), (0..20).collect::<Vec<u64>>());
    assert_eq!(ids(&got_b), (20..40).collect::<Vec<u64>>());
    // And both tenants' results match the in-process ground truth.
    let want = fingerprints(&serve_in_process(&p, 40, 1, 1));
    let mut merged = got_a;
    merged.extend_from_slice(&got_b);
    merged.sort_unstable_by_key(|r| r.id);
    assert_eq!(fingerprints(&merged), want);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn oversized_feasible_specs_are_rejected_at_the_door() {
    // `is_feasible` admits any self-consistent shape; the server must
    // still refuse a well-formed spec whose buffers would exhaust memory
    // (n = 2^21 here against a 2^20 cap standing in for "astronomical").
    let engine = engine(1, 8, 1);
    let server = TransportServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        TransportConfig { route_capacity: 8, max_dimension: 1 << 20, ..TransportConfig::default() },
    )
    .expect("bind");
    let node = RemoteNode::connect(server.local_addr()).expect("connect");
    let mut huge = profile(5).spec(0);
    huge.n = 1 << 21;
    huge.k = 1;
    assert!(huge.is_feasible(), "the attack spec passes semantic validation");
    node.submit(huge).expect("submit");
    match node.recv() {
        Some(NodeEvent::Rejected(id)) => assert_eq!(id, huge.id),
        other => panic!("expected REJECT for the oversized spec, got {other:?}"),
    }
    drop(node);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

/// A one-event-loop server in front of a one-worker engine that starts
/// with `warm`'s design resident.
fn one_loop_server(warm: &JobSpec, max_dimension: usize) -> (Arc<Engine>, TransportServer) {
    let config = EngineConfig { design_cache_capacity: 4, ..EngineConfig::with_workers(1) };
    let engine = Arc::new(Engine::start_prewarmed(config, &[warm.design_key()]));
    let transport = TransportConfig { event_loops: 1, max_dimension, ..TransportConfig::default() };
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", transport).expect("bind");
    (engine, server)
}

#[test]
fn a_prewarm_never_stalls_its_event_loop() {
    // Tenant A asks for a big cold design; tenant B shares A's only
    // event loop. The loop only claims A's key, and the engine's
    // sampler samples it, so B's round trips keep completing meanwhile.
    // A loop that sampled the key itself would write no reply to B
    // until A's design was resident.
    let warm = JobSpec {
        id: 0,
        n: 1000,
        k: 8,
        m: 300,
        design: DesignSpec::random_regular(7),
        decoder: DecoderKind::Mn,
        seed: 1,
        query_cost_micros: 0,
    };
    let (engine, server) = one_loop_server(&warm, TransportConfig::default().max_dimension);
    let mut tenant_b = tenant(server.local_addr());
    let cold = DesignKey { n: 10_000, m: 1_000, ..warm.design_key() };
    let mut tenant_a = TcpStream::connect(server.local_addr()).expect("connect A");
    let mut frame = Vec::new();
    encode_frame(&Frame::Prewarm(cold), &mut frame);
    tenant_a.write_all(&frame).expect("write PREWARM");
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.metrics().get(Metric::WireFramesRx) == 0 {
        assert!(Instant::now() < deadline, "the PREWARM frame was never decoded");
        std::thread::yield_now();
    }

    let (mut served, mut during_sample) = (0u64, 0u64);
    let mut out = Vec::new();
    while engine.stats().cache_len < 2 {
        out.clear();
        let job = JobSpec { id: served, seed: served, ..warm };
        tenant_b.run_batch(&[job], &mut out);
        assert_eq!(out.len(), 1);
        served += 1;
        if engine.stats().cache_len < 2 {
            during_sample += 1;
        }
    }
    assert!(
        during_sample > 0,
        "none of B's {served} round trips completed while A's design was being sampled"
    );
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 0, "B's key stayed warm and A's prewarm is not traffic");
    drop((tenant_a, tenant_b));
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn invalid_prewarms_sample_nothing_and_keep_the_connection() {
    // PREWARM answers nothing, so a bad key is ignored at the door
    // rather than refused: a degenerate shape, a zero density and a
    // shape past `max_dimension` must all leave the cache untouched and
    // the connection open, and the valid key behind them is warmed.
    let warm = profile(31).spec(0);
    let (engine, server) = one_loop_server(&warm, 1 << 10);
    let mut tenant = TcpStream::connect(server.local_addr()).expect("connect");
    let valid = DesignKey { seed: warm.design.seed ^ 1, ..warm.design_key() };
    let mut bytes = Vec::new();
    for key in [
        DesignKey { n: 0, ..valid },
        DesignKey { c_milli: 0, ..valid },
        DesignKey { n: (1 << 10) + 1, ..valid },
        valid,
    ] {
        let mut frame = Vec::new();
        encode_frame(&Frame::Prewarm(key), &mut frame);
        bytes.extend_from_slice(&frame);
    }
    let mut request = Vec::new();
    encode_frame(&Frame::StatsRequest(77), &mut request);
    bytes.extend_from_slice(&request);
    tenant.write_all(&bytes).expect("write frames");

    // Frames are served in order, so the STATS reply shows all four
    // PREWARMs were handled, and the connection survived them.
    let mut reply = vec![0u8; MAX_FRAME_LEN];
    tenant.read_exact(&mut reply).expect("the connection must stay open");
    match decode_frame(&reply).expect("a STATS frame") {
        (Frame::Stats(stats), _) => assert_eq!(stats.token, 77),
        (other, _) => panic!("expected STATS, got {other:?}"),
    }
    drop(tenant);
    server.stop();
    let engine = Arc::try_unwrap(engine).ok().expect("engine released");
    assert_eq!(engine.metrics().get(Metric::PrewarmsDropped), 0);
    // Shutdown joins the sampler, so this counts every key it was given.
    let stats = engine.shutdown();
    assert_eq!(stats.cache_len, 2, "exactly the valid PREWARM made a key resident");
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
}

#[test]
fn a_tenant_at_its_window_gets_busy_not_a_parked_worker() {
    // Per-connection in-flight cap: with route_capacity 1 and a 100 ms
    // job occupying the only slot, the second submission must bounce
    // with BUSY *immediately* — the server never lets more results
    // accumulate than the tenant's queue can hold, which is what keeps a
    // stalled tenant from ever blocking an engine worker.
    let engine = engine(2, 8, 1);
    let server = TransportServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        TransportConfig { route_capacity: 1, ..TransportConfig::default() },
    )
    .expect("bind");
    let node = RemoteNode::connect(server.local_addr()).expect("connect");
    let p = LoadProfile {
        query_cost: Some(pooled_data::lab::latency::LatencyModel::Fixed(100_000.0)),
        ..profile(13)
    };
    let first = p.spec(0);
    let second = p.spec(1);
    node.try_submit(first).expect("submit 1");
    node.try_submit(second).expect("submit 2");
    node.flush().expect("flush");
    // The BUSY for job 2 must arrive while job 1 (100 ms) is still in
    // service — long before its RESULT.
    match node.recv() {
        Some(NodeEvent::Busy(id)) => assert_eq!(id, second.id),
        other => panic!("expected BUSY for the over-window job, got {other:?}"),
    }
    match node.recv() {
        Some(NodeEvent::Result(r)) => assert_eq!(r.id, first.id),
        other => panic!("expected RESULT for job 1, got {other:?}"),
    }
    drop(node);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}

#[test]
fn disconnected_tenants_do_not_leak_connections() {
    // Regression: the server kept a socket clone per connection for its
    // whole lifetime — one leaked fd per tenant that ever connected.
    let engine = engine(1, 8, 1);
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind");
    for round in 0..3 {
        let mut out = Vec::new();
        tenant(server.local_addr()).run_batch(&profile(round).specs(4), &mut out);
        assert_eq!(out.len(), 4);
    }
    // Teardown is asynchronous (reader sees EOF, joins its writer, then
    // deregisters); poll briefly instead of racing it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.live_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(server.live_connections(), 0, "dead connections must deregister");
    // Closing a connection closes its route, never the engine: a tenant
    // arriving after every other one left is still served.
    let mut out = Vec::new();
    tenant(server.local_addr()).run_batch(&profile(3).specs(4), &mut out);
    assert_eq!(out.len(), 4);
    server.stop();
    let stats = Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
    assert_eq!(stats.jobs_completed, 16);
}

#[test]
fn latency_split_accounts_every_job() {
    let engine = engine(2, 16, 1);
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind");
    let mut tenant = tenant(server.local_addr());
    let specs = profile(23).specs(16);
    let mut out = Vec::new();
    let mut split = LatencySplit::new();
    tenant.run_batch_split(&specs, &mut out, &mut split);
    assert_eq!(out.len(), 16);
    assert_eq!(split.count(), 16, "one split record per served job");
    drop(tenant);
    server.stop();
    Arc::try_unwrap(engine).ok().expect("engine released").shutdown();
}
