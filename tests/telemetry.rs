//! The telemetry plane's correctness contract, end to end.
//!
//! Three claims, strictest first:
//!
//! 1. **Determinism** — tracing is fingerprint-invisible: the same
//!    traffic served with tracing off, sampled 1-in-4, or tracing every
//!    job yields **bit-identical** result fingerprints, at 1 and 4
//!    workers, in process and over loopback TCP. Timestamps never feed
//!    a seed or a kernel.
//! 2. **Wire-scraped cluster stats** — a 3-node TCP cluster's
//!    [`ClusterStats`] is *complete*: every node reports real far-side
//!    `EngineStats` over the STATS frame, the merged view equals the
//!    per-node sum, and a node that cannot be scraped lands in
//!    `stats_unavailable` instead of silently zero-merging.
//! 3. **Flight recorder** — full tracing drains real span timelines
//!    (admit → … → route hop, plus wire spans on TCP paths) into the
//!    per-shard rings, and the JSON dump carries them.
//!
//! [`ClusterStats`]: pooled_data::engine::cluster::ClusterStats

use std::sync::Arc;

use pooled_data::engine::cluster::{chaos, ChaosConfig, LocalNode, NodeHandle, RemoteNode, Router};
use pooled_data::engine::engine::{Engine, EngineConfig};
use pooled_data::engine::job::{DecoderKind, JobResult};
use pooled_data::engine::telemetry::{CausalKind, Metric, Span, TelemetryConfig};
use pooled_data::engine::traffic::LoadProfile;
use pooled_data::engine::transport::{TransportConfig, TransportServer};

/// A small, fast profile whose keys shard over several nodes.
fn profile(seed: u64) -> LoadProfile {
    LoadProfile {
        distinct_designs: 6,
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(300, 5, 180, seed)
    }
}

fn node_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 8,
        results_capacity: 8,
        design_cache_capacity: 8,
        batch_window: 1,
    }
}

/// Fingerprint projection used by every comparison.
fn fingerprints(results: &[JobResult]) -> Vec<(u64, u64)> {
    results.iter().map(|r| (r.id, r.fingerprint())).collect()
}

/// Serve the profile in process under a given telemetry config.
fn serve_traced(telemetry: TelemetryConfig, workers: usize, jobs: usize) -> Vec<JobResult> {
    let engine = Engine::start_with(node_config(workers), telemetry);
    let mut out = Vec::new();
    engine.run_batch(&profile(41).specs(jobs), &mut out);
    engine.shutdown();
    out
}

#[test]
fn tracing_is_fingerprint_invisible_at_any_sampling_rate() {
    let baseline = fingerprints(&serve_traced(TelemetryConfig::off(), 1, 48));
    for workers in [1usize, 4] {
        for (label, telemetry) in [
            ("off", TelemetryConfig::off()),
            ("sampled-1-in-4", TelemetryConfig::sampled(4)),
            ("full", TelemetryConfig::full()),
        ] {
            let got = fingerprints(&serve_traced(telemetry, workers, 48));
            assert_eq!(
                got, baseline,
                "tracing={label} at {workers} workers changed result fingerprints"
            );
        }
    }
}

#[test]
fn sampling_records_exactly_the_selected_jobs() {
    let jobs = 48u64;
    let engine = Engine::start_with(node_config(2), TelemetryConfig::sampled(4));
    let mut out = Vec::new();
    engine.run_batch(&profile(42).specs(jobs as usize), &mut out);
    let metrics = engine.metrics();
    // Ids are 0..48, so exactly the multiples of 4 are sampled — the
    // knob is a pure function of the id, not of timing or topology.
    assert_eq!(metrics.get(Metric::TracesRecorded), jobs / 4);
    assert_eq!(metrics.get(Metric::JobsCompleted), jobs);
    let traced: Vec<u64> =
        engine.flight_recorder().traces().into_iter().flatten().map(|t| t.id).collect();
    assert!(!traced.is_empty());
    assert!(traced.iter().all(|id| id % 4 == 0), "only sampled ids may be recorded: {traced:?}");
    engine.shutdown();
}

#[test]
fn full_tracing_over_tcp_matches_untraced_in_process_and_stamps_wire_spans() {
    let specs = profile(43).specs(32);
    let baseline = {
        let engine = Engine::start(node_config(2));
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        engine.shutdown();
        fingerprints(&out)
    };

    let engine = Arc::new(Engine::start_with(node_config(2), TelemetryConfig::full()));
    let server =
        TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", TransportConfig::default())
            .expect("bind loopback");
    let node = RemoteNode::connect(server.local_addr()).expect("connect loopback");
    let mut tenant = Router::new(vec![(0, Box::new(node) as Box<dyn NodeHandle>)], 16);
    let mut out = Vec::new();
    tenant.run_batch(&specs, &mut out);
    drop(tenant);
    server.stop();

    assert_eq!(fingerprints(&out), baseline, "full tracing over TCP changed result bits");

    // The wire path left its marks: every trace carries the server's
    // frame-ingress stamp ahead of its admit, and RESULT frames left
    // wire-tx causal records behind.
    let recorder = engine.flight_recorder();
    let traces: Vec<_> = recorder.traces().into_iter().flatten().collect();
    assert!(!traces.is_empty(), "full tracing over TCP must record traces");
    for t in &traces {
        let rx = t.span_micros(Span::WireRx).expect("TCP-submitted jobs stamp wire_rx");
        let admit = t.span_micros(Span::Admit).expect("every trace stamps admit");
        assert!(rx <= admit, "frame ingress precedes admission (rx={rx}, admit={admit})");
        assert!(t.span_micros(Span::RouteHop).is_some(), "completed jobs stamp route_hop");
    }
    let wire_tx = recorder.causal_records().iter().filter(|r| r.kind == CausalKind::WireTx).count();
    assert_eq!(wire_tx, specs.len(), "one wire-tx record per RESULT frame sent");

    let stats = Arc::try_unwrap(engine).ok().expect("transport released the engine").shutdown();
    assert_eq!(stats.jobs_completed, specs.len() as u64);
}

/// Build a pinned 3-node TCP loopback cluster; returns the engines (so
/// the test can stop them), the servers, and the router.
fn tcp_cluster(workers: usize) -> (Vec<Arc<Engine>>, Vec<TransportServer>, Router) {
    let engines: Vec<Arc<Engine>> =
        (0..3).map(|_| Arc::new(Engine::start(node_config(workers)))).collect();
    let servers: Vec<TransportServer> = engines
        .iter()
        .map(|e| {
            TransportServer::bind(Arc::clone(e), "127.0.0.1:0", TransportConfig::default())
                .expect("bind loopback")
        })
        .collect();
    let handles: Vec<(u64, Box<dyn NodeHandle>)> = servers
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let node = RemoteNode::connect(s.local_addr()).expect("connect loopback");
            (id as u64, Box::new(node) as Box<dyn NodeHandle>)
        })
        .collect();
    let router = Router::new(handles, 8);
    (engines, servers, router)
}

#[test]
fn cluster_stats_merge_is_complete_over_tcp() {
    // The satellite contract: `RemoteNode::stats()` scrapes real
    // far-side EngineStats over the STATS frame, so the router's merged
    // view over a 3-node TCP cluster equals the per-node sum — no node
    // is a silent zero.
    let jobs = 48usize;
    let (engines, servers, mut router) = tcp_cluster(1);
    let mut out = Vec::new();
    router.run_batch(&profile(44).specs(jobs), &mut out);
    assert_eq!(out.len(), jobs);

    let stats = router.stats();
    assert!(
        stats.stats_unavailable.is_empty(),
        "healthy nodes must all answer the scrape: {:?}",
        stats.stats_unavailable
    );
    let mut sum_completed = 0u64;
    let mut sum_exact = 0u64;
    let mut sum_hits = 0u64;
    let mut sum_misses = 0u64;
    for (id, node_stats) in &stats.nodes {
        let s = node_stats.as_ref().unwrap_or_else(|| panic!("node {id} scrape failed"));
        sum_completed += s.jobs_completed;
        sum_exact += s.exact_recoveries;
        sum_hits += s.cache_hits;
        sum_misses += s.cache_misses;
    }
    assert_eq!(sum_completed, jobs as u64, "per-node scrapes must cover every job");
    assert_eq!(stats.merged.jobs_completed, sum_completed);
    assert_eq!(stats.merged.exact_recoveries, sum_exact);
    assert_eq!(stats.merged.cache_hits, sum_hits);
    assert_eq!(stats.merged.cache_misses, sum_misses);

    router.shutdown();
    for server in servers {
        server.stop();
    }
    for engine in engines {
        Arc::try_unwrap(engine).ok().expect("transport released the engine").shutdown();
    }
}

#[test]
fn an_unscrapable_node_is_marked_unavailable_not_zero_merged() {
    let jobs = 24usize;
    let (engines, mut servers, mut router) = tcp_cluster(1);
    let mut out = Vec::new();
    router.run_batch(&profile(45).specs(jobs), &mut out);
    assert_eq!(out.len(), jobs);
    let healthy = router.stats();
    assert!(healthy.stats_unavailable.is_empty());

    // Sever node 1's connection (its engine keeps running — a network
    // partition, the case where "zero jobs" would be a lie).
    let victim = servers.remove(1);
    victim.stop();
    let partitioned = router.stats();
    assert_eq!(
        partitioned.stats_unavailable,
        vec![1],
        "the severed node must be marked a blind spot"
    );
    let (_, victim_stats) =
        partitioned.nodes.iter().find(|(id, _)| *id == 1).expect("node 1 still in the view");
    assert!(victim_stats.is_none(), "an unscrapable node reports None, not zeros");
    // The survivors' contribution is still real.
    assert!(partitioned.merged.jobs_completed > 0);
    assert!(partitioned.merged.jobs_completed < jobs as u64);

    router.shutdown();
    for server in servers {
        server.stop();
    }
    for engine in engines {
        Arc::try_unwrap(engine).ok().expect("transport released the engine").shutdown();
    }
}

#[test]
fn a_killed_chaos_node_goes_stats_unavailable() {
    // Same satellite, local flavor: a chaos-killed node cannot be
    // scraped, and the router's view says so explicitly.
    let handles_and_controllers: Vec<_> = (0..3u64)
        .map(|id| {
            let inner = Box::new(LocalNode::start(node_config(1)));
            chaos::wrap(inner, ChaosConfig::quiet(id))
        })
        .collect();
    let mut controllers = Vec::new();
    let handles: Vec<(u64, Box<dyn NodeHandle>)> = handles_and_controllers
        .into_iter()
        .enumerate()
        .map(|(id, (node, controller))| {
            controllers.push(controller);
            (id as u64, Box::new(node) as Box<dyn NodeHandle>)
        })
        .collect();
    let mut router = Router::new(handles, 8);
    let mut out = Vec::new();
    router.run_batch(&profile(46).specs(12), &mut out);
    assert!(router.stats().stats_unavailable.is_empty());

    controllers[2].kill();
    let stats = router.stats();
    assert_eq!(stats.stats_unavailable, vec![2]);
    router.shutdown();
}

#[test]
fn the_flight_recorder_dump_carries_span_timelines() {
    let engine = Engine::start_with(node_config(2), TelemetryConfig::full());
    let mut out = Vec::new();
    engine.run_batch(&profile(47).specs(24), &mut out);
    let recorder = engine.flight_recorder();
    assert!(recorder.traces_recorded() >= 24);

    // Every recorded trace is a causally ordered timeline. (DecodeStart
    // is back-computed from the decode duration, so it is only checked
    // against its own end, not against the independently rounded
    // dequeue stamp.)
    for t in recorder.traces().into_iter().flatten() {
        let admit = t.span_micros(Span::Admit).expect("admit stamped");
        let dequeue = t.span_micros(Span::Dequeue).expect("dequeue stamped");
        let probe = t.span_micros(Span::CacheProbe).expect("cache_probe stamped");
        let start = t.span_micros(Span::DecodeStart).expect("decode_start stamped");
        let end = t.span_micros(Span::DecodeEnd).expect("decode_end stamped");
        let route = t.span_micros(Span::RouteHop).expect("route_hop stamped");
        assert!(admit <= dequeue && dequeue <= probe && start <= end && end <= route);
    }

    // And the JSON dump carries them by name.
    let json = engine.flight_recorder().dump_json();
    for needle in
        ["\"admit\":", "\"dequeue\":", "\"decode_start\":", "\"decode_end\":", "\"route_hop\":"]
    {
        assert!(json.contains(needle), "dump missing {needle} in:\n{json}");
    }
    engine.shutdown();
}
