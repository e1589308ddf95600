//! The failure-domain contract, end to end: **node death is a handled
//! event**, and it is fingerprint-invisible.
//!
//! Layered like `tests/cluster_determinism.rs`, strictest first:
//!
//! 1. **Kill mid-stream** — a 3-node cluster (local and TCP loopback)
//!    loses a node partway through a profile; every job still
//!    completes and the fingerprints are bit-identical to the
//!    fault-free run. The local variant additionally pins the HRW
//!    top-2 warm-standby guarantee: the failed-over key slice lands on
//!    survivors **without a single cold design miss**, because the
//!    router prewarmed each key's standby as traffic first named it.
//! 2. **Black hole** — a node that accepts submissions and never
//!    answers is caught by probation, not by a hung `collect`.
//! 3. **Degenerate and adversarial edges** — the last node dying
//!    fails jobs per-job instead of wedging the fan-in; duplicated and
//!    delayed events are absorbed as stale, changing nothing; a
//!    planned [`Router::remove_node`] drain is fingerprint-invisible
//!    and loses no telemetry.
//!
//! All fault schedules are seeded ([`ChaosConfig`]), so every failure
//! here replays bit-for-bit.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use pooled_data::engine::cluster::chaos::{self, ChaosConfig, ChaosController};
use pooled_data::engine::cluster::{FailoverConfig, LocalNode, NodeHandle, RemoteNode, Router};
use pooled_data::engine::engine::{Engine, EngineConfig};
use pooled_data::engine::job::{DecoderKind, DesignSpec, JobResult, JobSpec};
use pooled_data::engine::telemetry::{Metric, MetricsRegistry};
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
    let mut sorted: Vec<&JobResult> = results.iter().collect();
    sorted.sort_unstable_by_key(|r| r.id);
    sorted.iter().map(|r| (r.id, r.fingerprint())).collect()
}

/// Fault-free ground truth: the same specs through one local node.
fn ground_truth(specs: &[JobSpec]) -> Vec<(u64, u64)> {
    let node: Box<dyn NodeHandle> = Box::new(LocalNode::start(node_config(1)));
    let mut router = Router::new(vec![(0, node)], 8);
    let mut out = Vec::new();
    router.run_batch(specs, &mut out);
    router.shutdown();
    fingerprints(&out)
}

/// A cluster of chaos-wrapped local nodes, returning the controllers
/// keyed in node-id order.
fn chaos_local_cluster(
    nodes: u64,
    workers: usize,
    config: impl Fn(u64) -> ChaosConfig,
) -> (Router, Vec<ChaosController>) {
    let mut controllers = Vec::new();
    let handles: Vec<(u64, Box<dyn NodeHandle>)> = (0..nodes)
        .map(|id| {
            let inner: Box<dyn NodeHandle> = Box::new(LocalNode::start(node_config(workers)));
            let (node, controller) = chaos::wrap(inner, config(id));
            controllers.push(controller);
            (id, Box::new(node) as Box<dyn NodeHandle>)
        })
        .collect();
    (Router::new(handles, 8), controllers)
}

#[test]
fn killing_a_node_mid_stream_loses_no_jobs_and_no_bits() {
    // The headline: 3 nodes, kill one between two streaming phases.
    // Every job completes, fingerprints match the fault-free run, and
    // the failed-over slice costs the survivors zero cold misses — the
    // router prewarmed every key's standby during phase 1, and HRW
    // top-2 makes the standby exactly the post-failure owner.
    let p = profile(6001);
    let specs = p.specs(40);
    let want = ground_truth(&specs);

    let (mut router, controllers) = chaos_local_cluster(3, 1, ChaosConfig::quiet);
    // Phase 1: stream half; this names every design key to the router,
    // which prewarms each key's standby as a side effect.
    let phase1_keys: HashSet<_> = specs[..20].iter().map(|s| s.design_key()).collect();
    assert_eq!(phase1_keys.len(), 6, "phase 1 must name every design key");
    let mut out = Vec::new();
    for &s in &specs[..20] {
        router.submit(s);
    }
    assert_eq!(router.collect(20, &mut out), 20);

    // Snapshot survivor cache traffic, then kill the node that owns
    // the next spec's key (so phase 2 *must* fail over).
    let victim = router.membership().owner(&specs[20].design_key());
    let misses_before: HashMap<u64, u64> = router
        .stats()
        .nodes
        .iter()
        .filter(|(id, _)| *id != victim)
        .map(|(id, s)| (*id, s.as_ref().expect("local stats").cache_misses))
        .collect();
    controllers[victim as usize].kill();

    // Phase 2: stream the rest; the router discovers the corpse on the
    // first touch and re-routes to the prewarmed standbys.
    for &s in &specs[20..] {
        router.submit(s);
    }
    assert_eq!(router.collect(20, &mut out), 20, "every phase-2 job must complete");

    assert_eq!(out.len(), 40);
    assert_eq!(fingerprints(&out), want, "failover changed results");
    assert!(router.failed().is_empty(), "no job may fail terminally");
    assert_eq!(router.failed_nodes(), &[victim], "exactly the killed node failed");
    assert_eq!(router.nodes(), 2);

    // Zero cold misses on the survivors: the failed-over slice was
    // already resident (prewarm), and their own slices were warm.
    for (id, stats) in router.stats().nodes {
        let miss_delta = stats.as_ref().expect("local stats").cache_misses - misses_before[&id];
        assert_eq!(miss_delta, 0, "node {id} paid {miss_delta} cold misses after failover");
    }
    router.shutdown();
}

#[test]
fn standby_prewarm_samples_off_the_submitting_thread() {
    // The router prewarms a new key's standby as it routes the key's
    // first job. The standby's sampler thread does the sampling, so
    // `submit` returns before the design is resident there; the design
    // arrives later, and the job's bits are the in-process ones.
    let spec = JobSpec {
        id: 0,
        n: 4000,
        k: 8,
        m: 400,
        design: DesignSpec::random_regular(77),
        decoder: DecoderKind::Mn,
        seed: 5,
        query_cost_micros: 0,
    };
    let key = spec.design_key();
    let nodes: Vec<(u64, Box<dyn NodeHandle>)> = (0..2u64)
        .map(|id| (id, Box::new(LocalNode::start(node_config(1))) as Box<dyn NodeHandle>))
        .collect();
    let mut router = Router::new(nodes, 8);
    let standby = router.membership().standby(&key).expect("two nodes give a standby");
    let standby_designs = |router: &Router| -> usize {
        router
            .stats()
            .nodes
            .iter()
            .find(|(id, _)| *id == standby)
            .and_then(|(_, s)| s.as_ref())
            .expect("local stats")
            .cache_len
    };

    router.submit(spec);
    assert_eq!(
        standby_designs(&router),
        0,
        "submit sampled the standby's design on its own thread"
    );
    let mut out = Vec::new();
    assert_eq!(router.collect(1, &mut out), 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while standby_designs(&router) == 0 {
        assert!(std::time::Instant::now() < deadline, "the standby never warmed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut want = Vec::new();
    let reference = Engine::start(node_config(1));
    reference.run_batch(&[spec], &mut want);
    reference.shutdown();
    assert_eq!(fingerprints(&out), fingerprints(&want));
    router.shutdown();
}

#[test]
fn killing_a_tcp_node_mid_stream_loses_no_jobs_and_no_bits() {
    // Same headline over sockets: engine → transport server → loopback
    // → RemoteNode, with the victim's *connection* severed mid-stream
    // (its server-side engine keeps running, as in a network partition
    // — the dangerous case, because the victim may still serve jobs
    // whose results no one hears).
    let p = profile(6002);
    let specs = p.specs(40);
    let want = ground_truth(&specs);

    let engines: Vec<Arc<Engine>> =
        (0..3).map(|_| Arc::new(Engine::start(node_config(1)))).collect();
    let servers: Vec<TransportServer> = engines
        .iter()
        .map(|e| {
            TransportServer::bind(Arc::clone(e), "127.0.0.1:0", TransportConfig::default())
                .expect("bind loopback")
        })
        .collect();
    let mut controllers = Vec::new();
    let handles: Vec<(u64, Box<dyn NodeHandle>)> = servers
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let inner: Box<dyn NodeHandle> =
                Box::new(RemoteNode::connect(s.local_addr()).expect("connect loopback"));
            let (node, controller) = chaos::wrap(inner, ChaosConfig::quiet(id as u64));
            controllers.push(controller);
            (id as u64, Box::new(node) as Box<dyn NodeHandle>)
        })
        .collect();
    let mut router = Router::new(handles, 8);

    // Phase 1: stream half and resolve it completely, so the cut below
    // lands at a known point — nothing in flight, but the victim's key
    // slice still has unserved traffic coming.
    let mut out = Vec::new();
    for &s in &specs[..20] {
        router.submit(s);
    }
    assert_eq!(router.collect(20, &mut out), 20);

    // Cut the wire of the node that owns the next spec's key, then
    // stream the rest: the router discovers the corpse on the first
    // phase-2 touch — a failed write, or a closed completion stream
    // under unresolved work — and re-routes the victim's slice.
    // (Cutting at a resolved point makes the failover deterministic:
    // phase-2 jobs for the victim's keys can never be answered over the
    // severed socket. Cutting mid-window instead races the 1-worker
    // victim draining its whole slice — these µs-scale decodes finish
    // in under a millisecond — after which the clean close correctly
    // fails nothing over.)
    let victim = router.membership().owner(&specs[20].design_key());
    controllers[victim as usize].kill();
    for &s in &specs[20..] {
        router.submit(s);
    }
    assert_eq!(router.collect(20, &mut out), 20, "every phase-2 job must complete");

    assert_eq!(out.len(), 40);
    assert_eq!(fingerprints(&out), want, "TCP failover changed results");
    assert!(router.failed().is_empty());
    assert_eq!(router.failed_nodes(), &[victim]);

    router.shutdown();
    for server in servers {
        server.stop();
    }
    let mut served = 0;
    for engine in engines {
        served += Arc::try_unwrap(engine)
            .ok()
            .expect("transport released the engine")
            .shutdown()
            .jobs_completed;
    }
    // The victim's engine outlives the cut and may still have served
    // phase-2 jobs whose results died with the wire (the OS buffers
    // writes for a moment after the far side is gone) — those were
    // re-served elsewhere, so the cluster-wide total is at least the
    // job count, never less.
    assert!(served >= 40, "only {served} jobs served across all engines");
}

#[test]
fn a_black_holed_node_is_caught_by_probation_not_a_hang() {
    // Node 0 swallows every submission (the wire says yes, the peer
    // never answers). No error, no close — only silence. Probation
    // must declare it dead and re-route; collect must never hang.
    let p = profile(6003);
    let specs = p.specs(24);
    let want = ground_truth(&specs);

    let config = FailoverConfig {
        probation: Duration::from_millis(150),
        retry_backoff: Duration::from_millis(1),
        ..FailoverConfig::default()
    };
    let mut controllers = Vec::new();
    let handles: Vec<(u64, Box<dyn NodeHandle>)> = (0..2u64)
        .map(|id| {
            let inner: Box<dyn NodeHandle> = Box::new(LocalNode::start(node_config(1)));
            let chaos_config = if id == 0 {
                ChaosConfig { drop_milli: 1000, ..ChaosConfig::quiet(13) }
            } else {
                ChaosConfig::quiet(13)
            };
            let (node, controller) = chaos::wrap(inner, chaos_config);
            controllers.push(controller);
            (id, Box::new(node) as Box<dyn NodeHandle>)
        })
        .collect();
    let mut router = Router::with_config(handles, 8, config);

    let mut out = Vec::new();
    router.run_batch(&specs, &mut out);

    assert_eq!(out.len(), 24);
    assert_eq!(fingerprints(&out), want, "probation failover changed results");
    assert_eq!(router.failed_nodes(), &[0], "the black hole must be declared dead");
    assert!(controllers[0].dropped() > 0, "the schedule must actually have swallowed jobs");
    let stats = router.shutdown();
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn the_last_node_dying_fails_jobs_per_job_instead_of_wedging() {
    // A 1-node cluster loses its node with work outstanding: collect
    // returns short (taken + failed = submitted), later submissions
    // fail immediately, and shutdown still works. The old behavior —
    // recv blocking forever — is the bug this pins closed.
    let p = profile(6004);
    let specs = p.specs(4);
    let (mut router, controllers) = chaos_local_cluster(1, 1, ChaosConfig::quiet);
    let metrics = Arc::new(MetricsRegistry::new());
    router.attach_metrics(Arc::clone(&metrics));
    for &s in &specs {
        router.submit(s);
    }
    controllers[0].kill();
    let mut out = Vec::new();
    let taken = router.collect(4, &mut out);
    assert_eq!(
        taken + router.failed().len(),
        4,
        "every job resolves: served before the kill, or failed by it"
    );
    assert_eq!(router.outstanding(), 0, "nothing may be left dangling");
    assert_eq!(router.nodes(), 0);
    assert_eq!(router.failed_nodes(), &[0]);
    // With no survivor every reclaimed job fails, so the failover
    // counter and the failed list describe the same jobs.
    assert_eq!(
        metrics.get(Metric::JobsFailedOver),
        router.failed().len() as u64,
        "pooled_jobs_failed_over_total must count every job the dead node held"
    );

    // With no nodes left, new work fails terminally and immediately.
    let failed_before = router.failed().len();
    router.submit(p.specs(5)[4]);
    assert_eq!(router.failed().len(), failed_before + 1);
    router.shutdown();
}

#[test]
fn duplicated_and_delayed_events_are_absorbed_as_stale() {
    // A flaky (but live) cluster: both nodes duplicate half their
    // events and delay a fifth. The router must tolerate every replay
    // — counting them, not crashing on them — and results must be
    // bit-identical to the clean run.
    let p = profile(6005);
    let specs = p.specs(30);
    let want = ground_truth(&specs);

    let (mut router, _controllers) = chaos_local_cluster(2, 1, |id| ChaosConfig {
        duplicate_milli: 500,
        delay_milli: 200,
        ..ChaosConfig::quiet(17 + id)
    });
    let mut out = Vec::new();
    router.run_batch(&specs, &mut out);

    assert_eq!(out.len(), 30);
    assert_eq!(fingerprints(&out), want, "event replay changed results");
    assert!(router.stale_events() > 0, "the schedule must actually have duplicated events");
    assert!(router.failed().is_empty());
    assert!(router.failed_nodes().is_empty(), "flaky events alone must not kill a node");
    router.shutdown();
}

#[test]
fn remove_node_drains_gracefully_and_changes_no_bits() {
    // The planned inverse of add_node, driven mid-stream on the
    // profile workload: half the jobs in flight when a node is drained
    // out. Results bit-identical, the drained node's telemetry
    // survives in the merged view, and nothing counts as a failure.
    let p = profile(6006);
    let specs = p.specs(32);
    let want = ground_truth(&specs);

    let handles: Vec<(u64, Box<dyn NodeHandle>)> = (0..3u64)
        .map(|id| (id, Box::new(LocalNode::start(node_config(1))) as Box<dyn NodeHandle>))
        .collect();
    let mut router = Router::new(handles, 8);
    for &s in &specs[..16] {
        router.submit(s);
    }
    let drained = router.remove_node(1).expect("owned local node reports final stats");
    assert_eq!(router.nodes(), 2);
    for &s in &specs[16..] {
        router.submit(s);
    }
    let mut out = Vec::new();
    assert_eq!(router.collect(32, &mut out), 32);

    assert_eq!(fingerprints(&out), want, "remove_node changed results");
    let stats = router.shutdown();
    assert_eq!(
        stats.merged.jobs_completed, 32,
        "the drained node's {} served jobs must stay in the merged totals",
        drained.jobs_completed
    );
    assert!(stats.failed_nodes.is_empty(), "a planned drain is not a failure");
    assert_eq!(stats.jobs_failed, 0);
}
