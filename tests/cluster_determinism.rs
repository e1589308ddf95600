//! The cluster tier's correctness contract, end to end.
//!
//! Three layers, strictest first:
//!
//! 1. **Placement** — property-tested: [`Membership`]'s HRW ownership is
//!    a pure function of the key and the node-id *set* (independent of
//!    id order, arrival order, and router instance), and adding a node
//!    migrates exactly the keys the new node wins — the
//!    minimal-migration property the rebalance protocol relies on.
//! 2. **Topology invariance** — the headline invariant: a
//!    [`LoadProfile`] replayed through 1 local node, a 3-node local
//!    cluster, and a 3-node TCP loopback cluster produces
//!    **bit-identical** per-job result fingerprints (also pinned by the
//!    CI engine smoke via `engine_load`'s `cluster` scenario).
//! 3. **Operations** — a mid-stream rebalance (drain → swap → re-route)
//!    changes no fingerprints, and a node restarted from a design-key
//!    snapshot serves its first requests without a single cold miss.

use std::sync::Arc;

use proptest::prelude::*;

use pooled_data::engine::cluster::{LocalNode, Membership, NodeHandle, RemoteNode, Router};
use pooled_data::engine::engine::{Engine, EngineConfig};
use pooled_data::engine::job::{DecoderKind, JobResult};
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

/// Fingerprint projection used by every cross-topology comparison.
fn fingerprints(results: &[JobResult]) -> Vec<(u64, u64)> {
    results.iter().map(|r| (r.id, r.fingerprint())).collect()
}

/// Serve the profile through a router over `nodes` local engines.
fn serve_local_cluster(
    p: &LoadProfile,
    jobs: usize,
    nodes: usize,
    workers: usize,
) -> Vec<JobResult> {
    let handles: Vec<(u64, Box<dyn NodeHandle>)> = (0..nodes as u64)
        .map(|id| (id, Box::new(LocalNode::start(node_config(workers))) as Box<dyn NodeHandle>))
        .collect();
    let mut router = Router::new(handles, 8);
    let mut out = Vec::new();
    router.run_batch(&p.specs(jobs), &mut out);
    let stats = router.shutdown();
    assert_eq!(stats.merged.jobs_completed, jobs as u64);
    out
}

/// Serve the profile through a router over `nodes` TCP loopback nodes —
/// engine → transport server → socket → [`RemoteNode`] per shard.
fn serve_tcp_cluster(p: &LoadProfile, jobs: usize, nodes: usize, workers: usize) -> Vec<JobResult> {
    let engines: Vec<Arc<Engine>> =
        (0..nodes).map(|_| Arc::new(Engine::start(node_config(workers)))).collect();
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
    let mut router = Router::new(handles, 8);
    let mut out = Vec::new();
    router.run_batch(&p.specs(jobs), &mut out);
    router.shutdown();
    for server in servers {
        server.stop();
    }
    let mut served = 0;
    for engine in engines {
        served += Arc::try_unwrap(engine)
            .ok()
            .expect("server released the engine")
            .shutdown()
            .jobs_completed;
    }
    assert_eq!(served, jobs as u64, "every job must have been served by some node");
    out
}

#[test]
fn fingerprints_are_identical_across_1_local_3_local_and_3_tcp_nodes() {
    // The headline invariant: same profile, same fingerprints, whether
    // jobs run on one engine, across three engines behind a router, or
    // across three engines each behind a socket. The 1-node pass is
    // simultaneously checked against a bare engine, so "a single node
    // is a 1-node cluster" is literal.
    let p = profile(1905);
    let jobs = 30;
    let bare = Engine::start(node_config(2));
    let mut want = Vec::new();
    bare.run_batch(&p.specs(jobs), &mut want);
    bare.shutdown();
    let want = fingerprints(&want);

    let one = fingerprints(&serve_local_cluster(&p, jobs, 1, 2));
    assert_eq!(one, want, "a 1-node cluster diverged from the bare engine");
    let three = fingerprints(&serve_local_cluster(&p, jobs, 3, 2));
    assert_eq!(three, want, "sharding across 3 local nodes changed results");
    let tcp = fingerprints(&serve_tcp_cluster(&p, jobs, 3, 2));
    assert_eq!(tcp, want, "3 TCP loopback nodes changed results");
}

#[test]
fn rebalance_mid_stream_is_fingerprint_invisible() {
    // Stream half the profile into a 2-node cluster, add a third node
    // (drain → swap → re-route), stream the rest: results must be
    // bit-identical to the static 1-node serve, and the membership swap
    // must have moved only keys the new node owns.
    let p = profile(77);
    let jobs = 32;
    let specs = p.specs(jobs);
    let want = fingerprints(&serve_local_cluster(&p, jobs, 1, 1));

    let handles: Vec<(u64, Box<dyn NodeHandle>)> = (0..2u64)
        .map(|id| (id, Box::new(LocalNode::start(node_config(1))) as Box<dyn NodeHandle>))
        .collect();
    let mut router = Router::new(handles, 4);
    let before = router.membership().clone();
    for &s in &specs[..16] {
        router.submit(s);
    }
    router.add_node(9, Box::new(LocalNode::start(node_config(1))));
    let after = router.membership().clone();
    for &s in &specs[16..] {
        router.submit(s);
    }
    let mut out = Vec::new();
    router.collect(jobs, &mut out);
    out.sort_unstable_by_key(|r| r.id);
    assert_eq!(fingerprints(&out), want, "rebalance changed results");
    for s in &specs {
        let key = s.design_key();
        if before.owner(&key) != after.owner(&key) {
            assert_eq!(after.owner(&key), 9, "a key migrated to a survivor");
        }
    }
    router.shutdown();
}

#[test]
fn prewarmed_node_serves_first_requests_without_cold_misses() {
    // Snapshot/restore-lite at the node level: a "restarted" node warmed
    // from the profile's design keys before accepting traffic sees zero
    // cold misses on its first requests — no cold-start latency cliff.
    let p = profile(4242);
    let node = LocalNode::start_prewarmed(node_config(2), &p.design_keys());
    for spec in p.specs(12) {
        node.submit(spec).expect("submit");
    }
    for _ in 0..12 {
        node.recv().expect("result");
    }
    let stats = node.stats().expect("local stats");
    assert_eq!(stats.jobs_completed, 12);
    assert_eq!(stats.cache_misses, 0, "a prewarmed node must see no cold miss");
    assert_eq!(stats.cache_hits, 12);
    Box::new(node).shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Placement is a pure function of (key, id set): independent of the
    /// order ids were listed, of the order keys are asked, and of which
    /// membership instance answers.
    #[test]
    fn placement_is_independent_of_order_and_instance(
        seed in any::<u64>(),
        ids in proptest::collection::vec(any::<u64>(), 1..8),
        jobs in 4usize..40,
    ) {
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        let a = Membership::new(unique.clone());
        let mut reversed = unique.clone();
        reversed.reverse();
        let b = Membership::new(reversed);
        let keys: Vec<_> = profile(seed).specs(jobs).iter().map(|s| s.design_key()).collect();
        // Same owners forwards, backwards, and across instances.
        let forward: Vec<u64> = keys.iter().map(|k| a.owner(k)).collect();
        let backward: Vec<u64> = keys.iter().rev().map(|k| b.owner(k)).collect();
        prop_assert_eq!(
            forward.iter().rev().cloned().collect::<Vec<u64>>(),
            backward,
            "placement depended on order or instance"
        );
        // And it is stable under repetition.
        for (k, &owner) in keys.iter().zip(&forward) {
            prop_assert_eq!(a.owner(k), owner);
        }
    }

    /// HRW minimal migration: growing the membership moves exactly the
    /// keys the new node wins — every other key keeps its owner.
    #[test]
    fn adding_a_node_moves_only_keys_it_owns(
        seed in any::<u64>(),
        ids in proptest::collection::vec(any::<u64>(), 1..7),
        new_id in any::<u64>(),
        jobs in 8usize..60,
    ) {
        // Map the survivors and the newcomer into disjoint id ranges so
        // the added id is fresh by construction.
        let mut unique: Vec<u64> = ids.iter().map(|i| i % 1_000_000).collect();
        unique.sort_unstable();
        unique.dedup();
        let new_id = 1_000_000 + new_id % 1_000_000;
        let old = Membership::new(unique);
        let new = old.with_node(new_id);
        for spec in profile(seed).specs(jobs) {
            let key = spec.design_key();
            let before = old.owner(&key);
            let after = new.owner(&key);
            if before != after {
                prop_assert_eq!(after, new_id, "a key migrated between survivors");
            }
        }
    }

    /// Routing determinism at the cluster level: the same profile
    /// through clusters of different sizes (including 1) produces
    /// bit-identical fingerprints.
    #[test]
    fn cluster_size_is_fingerprint_invisible(
        seed in any::<u64>(),
        nodes in 2usize..4,
        jobs in 8usize..20,
    ) {
        let p = profile(seed);
        let one = fingerprints(&serve_local_cluster(&p, jobs, 1, 1));
        let many = fingerprints(&serve_local_cluster(&p, jobs, nodes, 2));
        prop_assert_eq!(one, many);
    }
}
