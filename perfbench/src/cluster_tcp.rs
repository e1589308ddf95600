//! `cluster_tcp`: many small tenants over the full network stack. A
//! `Router` over two `RemoteNode`s, each connected to its own in-process
//! `TransportServer` (epoll, one event loop) in front of a one-worker
//! engine with batch window 8, driven open loop at a fixed Poisson rate.

use std::sync::Arc;

use pooled_engine::transport::BackendChoice;
use pooled_engine::{
    Engine, EngineConfig, Metric, MetricsSnapshot, NodeHandle, RemoteNode, Router, TransportConfig,
    TransportServer,
};

use crate::gen::{poisson_schedule, SpecGen, CLUSTER_NODES};
use crate::open_loop::{drive, Driven};
use crate::phase::{timed_setup, Completion, Meter, Phase, PhaseConfig};
use crate::stats::{quantile, sorted};

/// Offered load: about half of what the stack sustains closed loop on
/// two cores, so queues stay short and the network path carries the cost.
pub const RATE_PER_S: f64 = 2000.0;
/// Router in-flight window per node.
const ROUTER_WINDOW: usize = 64;
/// Wire time above which a job counts as stalled.
const STALL_US: f64 = 100_000.0;

struct Stack {
    engines: Vec<Arc<Engine>>,
    servers: Vec<TransportServer>,
    router: Router,
}

fn start(gen: &SpecGen, cfg: &PhaseConfig) -> Stack {
    let mut engines = Vec::new();
    let mut servers = Vec::new();
    let mut nodes: Vec<(u64, Box<dyn NodeHandle>)> = Vec::new();
    for id in 0..CLUSTER_NODES {
        let config = EngineConfig { workers: 1, batch_window: 8, ..EngineConfig::default() };
        // Every node holds every design, so neither owner nor standby
        // ever samples inside the window.
        let engine = Arc::new(Engine::start_prewarmed_with(config, gen.keys(), cfg.telemetry()));
        let transport = TransportConfig {
            event_loops: 1,
            backend: BackendChoice::Epoll,
            ..TransportConfig::default()
        };
        let server = TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", transport)
            .expect("bind loopback transport server");
        let node = RemoteNode::connect(server.local_addr()).expect("connect to loopback server");
        nodes.push((id, Box::new(node)));
        engines.push(engine);
        servers.push(server);
    }
    Stack { engines, servers, router: Router::new(nodes, ROUTER_WINDOW) }
}

fn stop(stack: Stack) {
    let Stack { engines, servers, router } = stack;
    if router.outstanding() == 0 {
        router.shutdown();
    } else {
        drop(router);
    }
    for server in servers {
        server.stop();
    }
    for engine in engines {
        if let Ok(engine) = Arc::try_unwrap(engine) {
            engine.shutdown();
        }
    }
}

fn wire_counters(stack: &Stack) -> Vec<MetricsSnapshot> {
    stack.servers.iter().map(|s| s.metrics().snapshot()).collect()
}

fn counter_delta(before: &[MetricsSnapshot], after: &[MetricsSnapshot], metric: Metric) -> f64 {
    before.iter().zip(after).map(|(b, a)| a.get(metric).saturating_sub(b.get(metric))).sum::<u64>()
        as f64
}

pub fn run(cfg: &PhaseConfig) -> Phase {
    let gen = SpecGen::cluster_tcp(cfg.seed);
    let schedule = poisson_schedule(RATE_PER_S, cfg.seconds, cfg.seed);
    let specs: Vec<_> = (0..schedule.len() as u64).map(|i| gen.spec(i)).collect();
    let (mut stack, setup_s) = timed_setup(cfg.setup_reps, || start(&gen, cfg), stop);

    let stats_before: Vec<_> = stack.engines.iter().map(|e| e.stats()).collect();
    let wire_before = wire_counters(&stack);
    let busy_before = stack.router.busy_retries();
    let stale_before = stack.router.stale_events();
    let meter = Meter::start();
    let Driven { completions, late_us } =
        drive(&mut stack.router, &specs, &schedule, meter.t0, |_| {});
    let reading = meter.stop();

    let wire_after = wire_counters(&stack);
    let stats_after: Vec<_> = stack.engines.iter().map(|e| e.stats()).collect();
    let cluster = stack.router.stats();
    let lost = (stack.router.failed().len()
        + stack.router.rejected().len()
        + stack.router.outstanding()) as u64;
    let jobs = completions.len().max(1) as f64;
    let ticks = counter_delta(&wire_before, &wire_after, Metric::TransportTicks);
    let wire = sorted(completions.iter().map(Completion::outside_engine_us));
    let served: Vec<u64> =
        cluster.nodes.iter().map(|(_, s)| s.map_or(0, |s| s.jobs_completed)).collect();
    let live = vec![
        ("transport.wire_us.p50", quantile(&wire, 0.5)),
        ("transport.wire_us.p99", quantile(&wire, 0.99)),
        ("transport.ticks_per_job", ticks / jobs),
        (
            "transport.ready_fds_per_tick",
            counter_delta(&wire_before, &wire_after, Metric::TransportReadyFds) / ticks.max(1.0),
        ),
        (
            "transport.writev_per_job",
            counter_delta(&wire_before, &wire_after, Metric::TransportWritevCalls) / jobs,
        ),
        (
            "transport.bytes_per_job",
            (counter_delta(&wire_before, &wire_after, Metric::WireBytesRx)
                + counter_delta(&wire_before, &wire_after, Metric::WireBytesTx))
                / jobs,
        ),
        ("transport.stalls_over_100ms", wire.iter().filter(|&&w| w > STALL_US).count() as f64),
        ("cluster.busy_retries", (stack.router.busy_retries() - busy_before) as f64),
        ("cluster.stale_events", (stack.router.stale_events() - stale_before) as f64),
        (
            "cluster.node_share_max",
            served.iter().copied().max().unwrap_or(0) as f64
                / served.iter().sum::<u64>().max(1) as f64,
        ),
        ("gen.late_us.p99", quantile(&sorted(late_us.iter().copied()), 0.99)),
    ];
    let (mut hits, mut misses) = (0, 0);
    for (b, a) in stats_before.iter().zip(&stats_after) {
        hits += a.cache_hits - b.cache_hits;
        misses += a.cache_misses - b.cache_misses;
    }
    let recorders = stack.engines.iter().map(|e| e.flight_recorder()).collect();
    stop(stack);

    Phase {
        open_loop: true,
        setup_s,
        attempted: specs.len() as u64,
        lost,
        t0: meter.t0,
        window_s: cfg.seconds,
        cpu_ms: reading.cpu_ms,
        alloc: reading.alloc,
        cache_hits: hits,
        cache_misses: misses,
        recorders,
        live,
        completions,
        gen,
    }
}
