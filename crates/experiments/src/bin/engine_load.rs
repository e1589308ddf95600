//! ENGINE-LOAD: load generator for the `pooled_engine` serving layer.
//!
//! Replays a deterministic traffic mix against the engine and measures
//! serving behaviour the figure binaries cannot see. The run is a table
//! of named scenarios ([`SCENARIOS`]); `--scenarios a,b,…` picks some,
//! in the order given, and the default `all` runs every one. Each
//! scenario is a function of one shared [`Ctx`] that returns its section
//! of the report and its named checks:
//!
//! * `workers` — the same batch at 1, 2, 4, … `--workers` shards, cold
//!   pass then warm pass; every worker count must give **bit-identical**
//!   result fingerprints (the engine's determinism contract).
//! * `batch` — the warm batch at the top worker count with
//!   design-affinity batch windows 1, 4, 8, 16; batching must not move a
//!   bit.
//! * `open_loop` — Poisson arrivals at `--rate` jobs/sec that never wait
//!   for completions: shed jobs and p50/p95/p99 latency.
//! * `tcp` — the batch through the loopback transport front at 1 and
//!   `--workers` shards, with the queue/service/wire latency split only
//!   the client side of the socket sees; fingerprints must equal
//!   in-process submission.
//! * `cluster` — a design-sharded mix through the router on a 1-node
//!   cluster, a `--cluster`-node local cluster and a `--cluster`-node TCP
//!   cluster: per-node warm hit rates (key-affinity sharding keeps every
//!   node at least as warm as the single node at equal traffic) and
//!   cross-topology fingerprints.
//! * `failover` — the cluster mix fault-free, then on a chaos-wrapped
//!   cluster that **loses a node halfway through the stream**: the
//!   throughput dip, the recovery gap, the survivors' cold misses after
//!   the kill (zero when the HRW top-2 standby prewarm did its job), and
//!   no lost job or changed bit.
//! * `telemetry` — the warm batch with tracing off and with every job
//!   traced: the overhead (budget 5%), fingerprints, and the Prometheus
//!   exposition on stdout.
//! * `durability` — crash recovery against a real WAL in `--wal-dir`
//!   (default: a fresh temp dir, removed afterwards): a durable engine
//!   journals the traffic and crashes, and the restart must come back
//!   warm from disk alone and bit-identical. A given `--wal-dir` is left
//!   populated, so a second run on it starts warm across processes.
//! * `connections` — decade tiers of 10, 100, … `--connections`
//!   concurrent loopback tenants on one epoll server: merged results
//!   bit-identical to in-process, and a peak thread count O(event
//!   loops), never O(connections).
//!
//! Jobs carry a simulated query cost (`--latency-micros`, default 4000):
//! the paper's premise is that queries dominate reconstruction time, and
//! overlapping that cost across shards is where the multi-worker speedup
//! comes from.
//!
//! Writes one JSON report (`--out`, default `BENCH_ENGINE.json`): a
//! section per scenario run and a `checks` map. Exits non-zero if any
//! check is false. The bare command runs every scenario, so it
//! regenerates the whole report.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pooled_engine::cluster::{chaos, ChaosConfig, LocalNode, NodeHandle, RemoteNode, Router};
use pooled_engine::engine::{Engine, EngineConfig, EngineStats};
use pooled_engine::job::{DecoderKind, JobResult};
use pooled_engine::telemetry::{render_prometheus, Metric, TelemetryConfig};
use pooled_engine::traffic::{poisson_arrivals, LoadProfile};
use pooled_engine::transport::reactor::{raise_fd_limit, thread_count};
use pooled_engine::transport::{TransportClient, TransportConfig, TransportServer};
use pooled_engine::{DurabilityConfig, JobSpec};
use pooled_experiments::DEFAULT_SEED;
use pooled_io::Args;
use pooled_lab::latency::LatencyModel;
use pooled_lab::split::LatencySplit;
use pooled_rng::SeedSequence;
use pooled_theory::thresholds::m_mn_finite;
use serde_json::{json, Value};

/// A scenario: measure, and return a report section plus named checks.
type Scenario = fn(&Ctx) -> Outcome;

/// Every scenario, in the order `all` runs them.
const SCENARIOS: [(&str, Scenario); 9] = [
    ("workers", workers),
    ("batch", batch),
    ("open_loop", open_loop),
    ("tcp", tcp),
    ("cluster", cluster),
    ("failover", failover),
    ("telemetry", telemetry),
    ("durability", durability),
    ("connections", connections),
];

/// What one scenario measured.
struct Outcome {
    /// The scenario's section of the report.
    section: Value,
    /// Named invariants; a false one fails the run.
    checks: Vec<(&'static str, bool)>,
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let selected = select(&args.get_str("scenarios", "all")).unwrap_or_else(|err| {
        eprintln!("engine_load: {err}");
        std::process::exit(2);
    });
    let out_path = args.get_str("out", "BENCH_ENGINE.json");
    let ctx = Ctx::from_args(&args);
    eprintln!(
        "engine_load: {} jobs, n={} k={} m={}, {} design(s), query cost {}µs",
        ctx.jobs,
        ctx.profile.n,
        ctx.profile.k,
        ctx.profile.m,
        ctx.profile.distinct_designs,
        ctx.latency_micros
    );

    let mut report = vec![
        ("experiment".to_string(), json!("engine_load")),
        ("seed".to_string(), json!(ctx.profile.seed)),
        ("params".to_string(), ctx.params()),
    ];
    let mut checks = Vec::new();
    for (name, scenario) in selected {
        let outcome = scenario(&ctx);
        report.push((name.to_string(), outcome.section));
        checks.extend(outcome.checks);
    }
    for (name, ok) in &checks {
        println!("check {name}: {}", if *ok { "yes" } else { "NO" });
    }
    let check_map = checks.iter().map(|(name, ok)| (name.to_string(), Value::Bool(*ok)));
    report.push(("checks".to_string(), Value::Object(check_map.collect())));
    let text = serde_json::to_string_pretty(&Value::Object(report)).expect("serializable");
    std::fs::write(&out_path, text).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("engine_load: wrote {out_path}");
    if let Err(failed) = verdict(&checks) {
        eprintln!("engine_load: FAILED checks: {failed}");
        std::process::exit(1);
    }
}

/// The scenarios `raw` names (comma-separated, or `all`), in the order
/// given.
fn select(raw: &str) -> Result<Vec<(&'static str, Scenario)>, String> {
    if raw == "all" {
        return Ok(SCENARIOS.to_vec());
    }
    let mut picked: Vec<(&'static str, Scenario)> = Vec::new();
    for name in raw.split(',').map(str::trim) {
        let Some(&entry) = SCENARIOS.iter().find(|(known, _)| *known == name) else {
            let valid: Vec<&str> = SCENARIOS.iter().map(|(known, _)| *known).collect();
            return Err(format!("unknown scenario {name:?}; valid: all, {}", valid.join(", ")));
        };
        if picked.iter().any(|(known, _)| *known == name) {
            return Err(format!("scenario {name:?} named twice"));
        }
        picked.push(entry);
    }
    Ok(picked)
}

/// `Err` listing every false check: one is enough to fail the run.
fn verdict(checks: &[(&str, bool)]) -> Result<(), String> {
    let failed: Vec<&str> = checks.iter().filter(|(_, ok)| !ok).map(|(name, _)| *name).collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join(", "))
    }
}

/// What every scenario reads: sizing, the traffic, and the memoised
/// in-process reference fingerprints.
struct Ctx {
    jobs: usize,
    /// The top worker count; also each reference engine's.
    workers: usize,
    queue: usize,
    cache: usize,
    latency_micros: u64,
    /// Open-loop arrival rate, jobs/sec.
    rate: f64,
    /// Nodes in the `cluster` and `failover` topologies.
    cluster: usize,
    /// The top tier of the `connections` sweep.
    connections: usize,
    /// Where `durability` keeps its WAL; `None` means a fresh temp dir.
    wal_dir: Option<PathBuf>,
    profile: LoadProfile,
    /// The profile's first `jobs` specs: the batch most scenarios replay.
    specs: Vec<JobSpec>,
    /// In-process fingerprints of the profile's first `n` specs, by `n`,
    /// each computed on first use so any scenario can run alone.
    references: RefCell<BTreeMap<usize, u64>>,
}

impl Ctx {
    fn from_args(args: &Args) -> Self {
        let seed = args.get_u64("seed", DEFAULT_SEED);
        let jobs = args.get_usize("jobs", 256);
        let n = args.get_usize("n", 1000);
        let theta = args.get_f64("theta", 0.3);
        let k = args.get_usize("k", (n as f64).powf(theta).round() as usize);
        let m = args.get_usize("m", (1.5 * m_mn_finite(n, theta)).ceil() as usize);
        // Default 4 ms: queries must dominate decode CPU for shard scaling
        // to show (the paper's regime); `--latency-micros 0` gives
        // pure-CPU jobs.
        let latency_micros = args.get_u64("latency-micros", 4000);
        let cluster = args.get_usize("cluster", 3);
        assert!(cluster >= 1, "--cluster sizes the cluster scenarios; it must be at least 1");
        let connections = args.get_usize("connections", 1000);
        assert!(connections >= 1, "--connections is the top tenant tier; it must be at least 1");
        let wal_dir = args.get_str("wal-dir", "");
        let profile = LoadProfile {
            distinct_designs: args.get_u64("designs", 1),
            decoders: parse_decoders(&args.get_str("decoders", "mn")),
            query_cost: (latency_micros > 0).then_some(LatencyModel::Fixed(latency_micros as f64)),
            ..LoadProfile::default_mix(n, k, m, seed)
        };
        Self {
            jobs,
            workers: args.get_usize("workers", 8),
            queue: args.get_usize("queue", 64),
            cache: args.get_usize("cache", 16),
            latency_micros,
            rate: args.get_f64("rate", 1500.0),
            cluster,
            connections,
            wal_dir: (!wal_dir.is_empty()).then(|| PathBuf::from(wal_dir)),
            specs: profile.specs(jobs),
            profile,
            references: RefCell::new(BTreeMap::new()),
        }
    }

    fn params(&self) -> Value {
        json!({
            "jobs": self.jobs, "n": self.profile.n, "k": self.profile.k, "m": self.profile.m,
            "distinct_designs": self.profile.distinct_designs,
            "query_cost_micros": self.latency_micros,
            "queue_capacity": self.queue, "design_cache_capacity": self.cache,
        })
    }

    /// The engine configuration every scenario starts from.
    fn config(&self, workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            queue_capacity: self.queue,
            results_capacity: self.queue,
            design_cache_capacity: self.cache,
            batch_window: 1,
        }
    }

    /// Fingerprint of the profile's first `jobs` specs served by one
    /// in-process engine at the top worker count.
    fn reference(&self, jobs: usize) -> u64 {
        if let Some(&fingerprint) = self.references.borrow().get(&jobs) {
            return fingerprint;
        }
        let engine = Engine::start(self.config(self.workers));
        let mut results = Vec::with_capacity(jobs);
        engine.run_batch(&self.profile.specs(jobs), &mut results);
        engine.shutdown();
        let fingerprint = batch_fingerprint(&results);
        self.references.borrow_mut().insert(jobs, fingerprint);
        fingerprint
    }

    /// The design-sharded mix for a `nodes`-node cluster: at least two
    /// distinct designs per node, never fewer than the profile has.
    fn cluster_mix(&self, nodes: usize) -> (u64, Vec<JobSpec>) {
        let designs = self.profile.distinct_designs.max(2 * nodes as u64);
        let profile = LoadProfile { distinct_designs: designs, ..self.profile.clone() };
        (designs, profile.specs(self.jobs))
    }
}

/// Closed-loop worker sweep: the batch at 1, 2, 4, … up to `--workers`
/// shards, every count bit-identical to the reference.
fn workers(ctx: &Ctx) -> Outcome {
    let counts = ladder(1, 2, ctx.workers);
    let rows: Vec<Value> = counts.iter().map(|&w| closed_loop(ctx, ctx.config(w))).collect();
    let want = ctx.reference(ctx.jobs);
    let deterministic = rows.iter().all(|row| fingerprint(row) == want);
    let speedup =
        num(&rows[rows.len() - 1], "warm_jobs_per_sec") / num(&rows[0], "warm_jobs_per_sec");
    Outcome {
        section: json!({"closed_loop": rows, "warm_speedup_at_max_workers": speedup}),
        checks: vec![("deterministic_across_worker_counts", deterministic)],
    }
}

/// Batch-size sweep: the warm batch at the top worker count with the
/// design-affinity batch window at 1 (the per-job baseline), 4, 8, 16.
fn batch(ctx: &Ctx) -> Outcome {
    let rows: Vec<Value> = [1usize, 4, 8, 16]
        .iter()
        .map(|&window| closed_loop(ctx, ctx.config(ctx.workers).with_batch_window(window)))
        .collect();
    let base = num(&rows[0], "warm_jobs_per_sec");
    let rows: Vec<Value> = rows
        .into_iter()
        .map(|row| {
            let speedup = num(&row, "warm_jobs_per_sec") / base;
            join(row, json!({"speedup_vs_per_job": speedup}))
        })
        .collect();
    let want = ctx.reference(ctx.jobs);
    let deterministic = rows.iter().all(|row| fingerprint(row) == want);
    let speedup = num(&rows[rows.len() - 1], "speedup_vs_per_job");
    Outcome {
        section: json!({"batch_sweep": rows, "batched_speedup_at_max_window": speedup}),
        checks: vec![("deterministic_across_batch_windows", deterministic)],
    }
}

/// Two batch passes on a fresh engine, cold cache then warm.
fn closed_loop(ctx: &Ctx, config: EngineConfig) -> Value {
    let engine = Engine::start(config);
    let mut results = Vec::with_capacity(ctx.jobs);
    let cold = per_sec(ctx.jobs, || engine.run_batch(&ctx.specs, &mut results));
    let fingerprint = batch_fingerprint(&results);
    let cache_misses = engine.stats().cache_misses;
    results.clear();
    let warm = per_sec(ctx.jobs, || engine.run_batch(&ctx.specs, &mut results));
    assert_eq!(
        batch_fingerprint(&results),
        fingerprint,
        "cold and warm passes disagree at {} workers",
        config.workers
    );
    let exact = results.iter().filter(|r| r.exact).count() as f64 / results.len() as f64;
    engine.shutdown();
    show(
        "closed_loop",
        json!({
            "workers": config.workers,
            "batch_window": config.batch_window,
            "cold_jobs_per_sec": cold,
            "warm_jobs_per_sec": warm,
            "exact_rate": exact,
            "cache_misses": cache_misses,
            "fingerprint": fingerprint,
        }),
    )
}

/// Open-loop Poisson replay: submit on the arrival schedule, never wait
/// for completions; a full queue sheds the job.
fn open_loop(ctx: &Ctx) -> Outcome {
    let engine = Engine::start(EngineConfig {
        results_capacity: ctx.jobs.max(1),
        ..ctx.config(ctx.workers)
    });
    let arrivals =
        poisson_arrivals(ctx.rate, ctx.jobs, &SeedSequence::new(ctx.profile.seed ^ 0xA11));
    let started = Instant::now();
    let mut shed = 0u64;
    for (&spec, &at) in ctx.specs.iter().zip(&arrivals) {
        let wait = at - started.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        if engine.try_submit(spec).is_err() {
            shed += 1;
        }
    }
    let stats = engine.shutdown_into(&mut Vec::new());
    let latency = |q: f64| {
        if stats.histogram.count() > 0 {
            stats.histogram.quantile_micros(q)
        } else {
            0
        }
    };
    let section = show(
        "open_loop",
        json!({
            "rate_per_sec": ctx.rate,
            "served": stats.jobs_completed,
            "shed": shed,
            "latency_p50_micros": latency(0.50),
            "latency_p95_micros": latency(0.95),
            "latency_p99_micros": latency(0.99),
        }),
    );
    Outcome { section, checks: vec![] }
}

/// TCP loopback replay: the batch through the transport front (frame
/// codec → TCP → event loop → engine queues) at 1 and `--workers`
/// shards.
fn tcp(ctx: &Ctx) -> Outcome {
    let rows: Vec<Value> = [1, ctx.workers]
        .iter()
        .map(|&workers| {
            let served = Served::start(ctx.config(workers), TransportConfig::default());
            let mut client = TransportClient::connect(served.addr()).expect("connect loopback");
            let mut results = Vec::with_capacity(ctx.jobs);
            let mut split = LatencySplit::new();
            let jobs_per_sec = per_sec(ctx.jobs, || {
                client.run_batch_split(&ctx.specs, &mut results, &mut split).expect("tcp replay");
            });
            let busy_retries = client.busy_retries();
            drop(client);
            served.stop();
            let row = json!({
                "workers": workers,
                "jobs_per_sec": jobs_per_sec,
                "fingerprint": batch_fingerprint(&results),
                "busy_retries": busy_retries,
            });
            show("tcp", join(row, p95s(&split)))
        })
        .collect();
    let want = ctx.reference(ctx.jobs);
    let matched = rows.iter().all(|row| fingerprint(row) == want);
    Outcome {
        section: json!({"tcp_loopback": rows}),
        checks: vec![("tcp_fingerprints_match_in_process", matched)],
    }
}

/// Cluster sweep: the design-sharded mix through the router on a 1-node
/// cluster (the fingerprint baseline and warm-hit-rate yardstick), a
/// `--cluster`-node local cluster and a `--cluster`-node TCP cluster.
fn cluster(ctx: &Ctx) -> Outcome {
    let nodes = ctx.cluster;
    let (designs, specs) = ctx.cluster_mix(nodes);
    let per_node = ctx.config((ctx.workers / nodes).max(1));
    let single = Router::new(local_nodes(1, ctx.config(ctx.workers)), ROUTER_WINDOW);
    let local = Router::new(local_nodes(nodes, per_node), ROUTER_WINDOW);
    let mut passes =
        vec![cluster_pass("single", single, &specs), cluster_pass("local", local, &specs)];
    // Each TCP node is an engine behind its own transport server,
    // reached through a `RemoteNode` — the full wire path per shard.
    let served: Vec<Served> =
        (0..nodes).map(|_| Served::start(per_node, TransportConfig::default())).collect();
    let remote: Vec<(u64, Box<dyn NodeHandle>)> = served
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let node = RemoteNode::connect(s.addr()).expect("connect loopback node");
            (id as u64, Box::new(node) as Box<dyn NodeHandle>)
        })
        .collect();
    passes.push(cluster_pass("tcp", Router::new(remote, ROUTER_WINDOW), &specs));
    for s in served {
        s.stop();
    }

    let baseline = fingerprint(&passes[0]);
    let single_rate = num(&passes[0], "min_node_warm_hit_rate");
    let deterministic = passes.iter().all(|pass| fingerprint(pass) == baseline);
    // Every node that saw traffic must stay at least as warm as the
    // single node at equal total traffic.
    let rates_hold =
        passes.iter().all(|pass| num(pass, "min_node_warm_hit_rate") >= single_rate - 1e-9);
    Outcome {
        section: json!({
            "cluster_nodes": nodes,
            "distinct_designs": designs,
            "single_node_warm_hit_rate": single_rate,
            "passes": passes,
            "cluster_node_hit_rates_at_least_single_node_warm_rate": rates_hold,
        }),
        checks: vec![("cluster_fingerprints_match_single_node", deterministic)],
    }
}

/// Per-node in-flight window for the router (pipelining depth).
const ROUTER_WINDOW: usize = 16;

/// `count` in-process nodes, ids `0..count`.
fn local_nodes(count: usize, config: EngineConfig) -> Vec<(u64, Box<dyn NodeHandle>)> {
    (0..count as u64)
        .map(|id| (id, Box::new(LocalNode::start(config)) as Box<dyn NodeHandle>))
        .collect()
}

/// Every node's stats as the router sees them (a scrape for remote
/// nodes).
fn node_stats(router: &Router) -> Vec<(u64, EngineStats)> {
    let nodes = router.stats().nodes.into_iter();
    nodes.map(|(id, stats)| (id, stats.expect("every node answers a stats scrape"))).collect()
}

/// Replay `specs` through `router`: a cold pass, then a timed warm pass
/// with the router-observed latency split. Per-node warm hit rates come
/// from the cache delta between the passes.
fn cluster_pass(topology: &str, mut router: Router, specs: &[JobSpec]) -> Value {
    let mut results = Vec::with_capacity(specs.len());
    router.run_batch(specs, &mut results);
    let fingerprint = batch_fingerprint(&results);
    let cold = node_stats(&router);
    results.clear();
    let mut split = LatencySplit::new();
    let warm_jobs_per_sec =
        per_sec(specs.len(), || router.run_batch_split(specs, &mut results, &mut split));
    assert_eq!(batch_fingerprint(&results), fingerprint, "{topology}: warm pass diverged");
    let total = node_stats(&router);
    let busy_retries = router.busy_retries();
    router.shutdown();

    let mut min_rate = 1.0f64;
    let per_node: Vec<Value> = cold
        .iter()
        .zip(&total)
        .map(|((id, cold), (_, total))| {
            let hits = total.cache_hits - cold.cache_hits;
            let accesses = hits + total.cache_misses - cold.cache_misses;
            // An idle node (no accesses) is vacuously warm.
            let rate = if accesses == 0 { 1.0 } else { hits as f64 / accesses as f64 };
            min_rate = min_rate.min(rate);
            json!({
                "node": id,
                "jobs_completed": total.jobs_completed,
                "warm_cache_hits": hits,
                "warm_cache_accesses": accesses,
                "warm_hit_rate": rate,
            })
        })
        .collect();
    let row = json!({
        "topology": topology,
        "nodes": per_node.len(),
        "warm_jobs_per_sec": warm_jobs_per_sec,
        "fingerprint": fingerprint,
        "busy_retries": busy_retries,
        "min_node_warm_hit_rate": min_rate,
    });
    let row = show("cluster", join(row, p95s(&split)));
    join(row, json!({"per_node": per_node}))
}

/// Kill-node failover: a fault-free baseline, then the same stream on a
/// chaos-wrapped cluster whose victim — the owner of the first spec's
/// key — is killed after half the completions have arrived.
fn failover(ctx: &Ctx) -> Outcome {
    let nodes = ctx.cluster.max(2);
    let (_, specs) = ctx.cluster_mix(nodes);
    assert!(specs.len() >= 2, "failover needs jobs on both sides of the kill");
    let config = ctx.config((ctx.workers / nodes).max(1));

    // Fault-free baseline on an identical topology: a cold pass to warm
    // the caches, then a timed warm pass.
    let mut router = Router::new(local_nodes(nodes, config), ROUTER_WINDOW);
    let mut results = Vec::with_capacity(specs.len());
    router.run_batch(&specs, &mut results);
    let baseline = batch_fingerprint(&results);
    results.clear();
    let baseline_jobs_per_sec = per_sec(specs.len(), || router.run_batch(&specs, &mut results));
    assert_eq!(batch_fingerprint(&results), baseline, "failover baseline warm pass diverged");
    router.shutdown();

    // The kill cluster: every node behind a quiet chaos wrapper, so the
    // only fault in the run is the one explicit mid-stream kill.
    let mut controllers = Vec::with_capacity(nodes);
    let wrapped: Vec<(u64, Box<dyn NodeHandle>)> = local_nodes(nodes, config)
        .into_iter()
        .map(|(id, node)| {
            let (wrapped, controller) = chaos::wrap(node, ChaosConfig::quiet(id));
            controllers.push(controller);
            (id, Box::new(wrapped) as Box<dyn NodeHandle>)
        })
        .collect();
    let mut router = Router::new(wrapped, ROUTER_WINDOW);
    // Cold pass: warms every owner's cache and, through the router's
    // standby prewarm, every key's HRW runner-up.
    results.clear();
    router.run_batch(&specs, &mut results);
    assert_eq!(batch_fingerprint(&results), baseline, "chaos-wrapped cold pass diverged");
    let victim = router.membership().owner(&specs[0].design_key());

    // The measured stream: submit everything, timestamp completions,
    // pull the kill switch once half of them have surfaced.
    results.clear();
    let kill_at = (specs.len() / 2).max(1);
    let started = Instant::now();
    for &spec in &specs {
        router.submit(spec);
    }
    let mut killed_at: Option<Instant> = None;
    let mut first_after_kill: Option<Instant> = None;
    let mut misses_at_kill = 0u64;
    loop {
        if let Some(result) = router.poll() {
            results.push(result);
            if killed_at.is_some() && first_after_kill.is_none() {
                first_after_kill = Some(Instant::now());
            }
            if results.len() == kill_at && killed_at.is_none() {
                misses_at_kill = survivor_misses(&router, victim);
                controllers[victim as usize].kill();
                killed_at = Some(Instant::now());
            }
        } else if router.outstanding() == 0 {
            break;
        } else {
            std::thread::park_timeout(Duration::from_micros(50));
        }
    }
    let finished = Instant::now();
    let killed_at = killed_at.expect("the kill point is inside the stream");
    let survivor_cold_misses = survivor_misses(&router, victim) - misses_at_kill;
    let failed_jobs = router.failed().len();
    // Poll order is completion order; fingerprints compare in id order.
    results.sort_by_key(|r| r.id);
    let matched = results.len() == specs.len() && batch_fingerprint(&results) == baseline;
    router.shutdown();

    let post_kill_jobs = results.len().saturating_sub(kill_at);
    let section = show(
        "failover",
        json!({
            "cluster_nodes": nodes,
            "killed_node": victim,
            "killed_at_job": kill_at,
            "jobs": specs.len(),
            "baseline_warm_jobs_per_sec": baseline_jobs_per_sec,
            "pre_kill_jobs_per_sec": kill_at as f64
                / killed_at.duration_since(started).as_secs_f64().max(f64::EPSILON),
            "post_kill_jobs_per_sec": post_kill_jobs as f64
                / finished.duration_since(killed_at).as_secs_f64().max(f64::EPSILON),
            "recovery_micros": first_after_kill
                .map_or(0, |t| t.duration_since(killed_at).as_micros() as u64),
            "survivor_cold_misses_after_kill": survivor_cold_misses,
            "standby_kept_survivors_warm": survivor_cold_misses == 0,
            "failed_jobs": failed_jobs,
        }),
    );
    Outcome {
        section,
        checks: vec![("failover_fingerprints_match_fault_free", matched && failed_jobs == 0)],
    }
}

/// Sum of design-cache misses over every live node except `victim`.
/// `DesignCache::prewarm` is telemetry-silent, so a zero delta across the
/// kill shows the HRW top-2 standby prewarm (not luck) kept the
/// survivors warm.
fn survivor_misses(router: &Router, victim: u64) -> u64 {
    let nodes = router.stats().nodes;
    nodes
        .iter()
        .filter(|(id, _)| *id != victim)
        .filter_map(|(_, s)| s.as_ref().map(|s| s.cache_misses))
        .sum()
}

/// Telemetry overhead: one engine with tracing off and one tracing every
/// job, both warmed, then interleaved best-of-5 timed passes. The jobs
/// are sleep-dominated, so the true overhead is small: interleaving
/// makes machine-load drift hit both sides equally, and each side's
/// fastest pass discards scheduler jitter.
fn telemetry(ctx: &Ctx) -> Outcome {
    let config = ctx.config(ctx.workers);
    let engines = [
        Engine::start_with(config, TelemetryConfig::off()),
        Engine::start_with(config, TelemetryConfig::full()),
    ];
    let mut results = Vec::with_capacity(ctx.jobs);
    let fingerprints = engines.each_ref().map(|engine| {
        results.clear();
        engine.run_batch(&ctx.specs, &mut results);
        batch_fingerprint(&results)
    });
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (i, engine) in engines.iter().enumerate() {
            results.clear();
            let started = Instant::now();
            engine.run_batch(&ctx.specs, &mut results);
            best[i] = best[i].min(started.elapsed().as_secs_f64());
            assert_eq!(batch_fingerprint(&results), fingerprints[i], "warm pass {i} diverged");
        }
    }
    let full = &engines[1];
    let prometheus = render_prometheus(&full.stats(), Some(&full.metrics().snapshot()));
    // The flight-recorder dump must be real JSON, not JSON-shaped.
    serde_json::from_str(&full.flight_recorder().dump_json()).expect("flight recorder dump parses");
    for engine in engines {
        engine.shutdown();
    }
    println!("--- prometheus exposition (full tracing) ---");
    print!("{prometheus}");
    println!("--- end prometheus exposition ---");

    let [off, full] = best.map(|secs| ctx.jobs as f64 / secs);
    let overhead_pct = 100.0 * (1.0 - full / off);
    let section = show(
        "telemetry",
        json!({
            "warm_jobs_per_sec_off": off,
            "warm_jobs_per_sec_full_tracing": full,
            "overhead_pct": overhead_pct,
            "telemetry_overhead_within_5pct": overhead_pct <= 5.0,
        }),
    );
    let want = ctx.reference(ctx.jobs);
    Outcome {
        section,
        checks: vec![(
            "telemetry_fingerprints_match_untraced",
            fingerprints.iter().all(|&f| f == want),
        )],
    }
}

/// Crash recovery against a real durability directory. A fresh engine
/// gives the ground-truth fingerprint and the cold-miss yardstick; a
/// durable engine journals the same traffic and then **crashes** —
/// dropped without a shutdown checkpoint, so recovery has only the
/// per-admission WAL records and spilled snapshots — and a restart
/// recovers from disk alone. `Engine::start_durable` returns only after
/// replay and prewarm, so the restart's construction time is its
/// time-to-warm, and its first 100 jobs must take no cold miss. The
/// restart shuts down cleanly, checkpointing the log for the next
/// process.
fn durability(ctx: &Ctx) -> Outcome {
    let dir = ctx.wal_dir.clone().unwrap_or_else(|| {
        let dir = std::env::temp_dir().join(format!("engine_load-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir); // fresh
        dir
    });
    let config = ctx.config(ctx.workers);
    let specs = &ctx.specs;
    let first = &specs[..specs.len().min(100)];
    let mut results = Vec::with_capacity(specs.len());

    // Ground truth: a never-durable, never-crashed engine.
    let engine = Engine::start(config);
    let started = Instant::now();
    engine.run_batch(first, &mut results);
    let cold_first_100_misses = engine.stats().cache_misses;
    results.clear();
    engine.run_batch(specs, &mut results);
    let cold_pass_micros = started.elapsed().as_micros() as u64;
    let truth = batch_fingerprint(&results);
    engine.shutdown();

    // Incarnation 1: journal the traffic, then crash. It starts warm
    // when `dir` already holds an earlier process's log.
    let started = Instant::now();
    let durable = Engine::start_durable(config, DurabilityConfig::new(&dir)).expect("open WAL dir");
    let incarnation_recovery_micros = started.elapsed().as_micros() as u64;
    let incarnation_records_replayed = durable.metrics().get(Metric::RecoveryRecordsReplayed);
    let miss_base = durable.stats().cache_misses;
    results.clear();
    durable.run_batch(first, &mut results);
    let incarnation_first_100_misses = durable.stats().cache_misses - miss_base;
    results.clear();
    durable.run_batch(specs, &mut results);
    let mut matched = batch_fingerprint(&results) == truth;
    drop(durable); // the crash: no shutdown, no checkpoint

    // The restart: disk is all it has.
    let started = Instant::now();
    let recovered =
        Engine::start_durable(config, DurabilityConfig::new(&dir)).expect("recover WAL dir");
    let restart_recovery_micros = started.elapsed().as_micros() as u64;
    let restart_records_replayed = recovered.metrics().get(Metric::RecoveryRecordsReplayed);
    let miss_base = recovered.stats().cache_misses;
    results.clear();
    recovered.run_batch(first, &mut results);
    let restart_first_100_cold_misses = recovered.stats().cache_misses - miss_base;
    results.clear();
    let restart_warm_jobs_per_sec =
        per_sec(specs.len(), || recovered.run_batch(specs, &mut results));
    matched &= batch_fingerprint(&results) == truth;
    recovered.shutdown(); // clean: checkpoints for the next process
    if ctx.wal_dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let section = show(
        "durability",
        json!({
            "wal_dir": dir.display().to_string(),
            "cold_pass_micros": cold_pass_micros,
            "cold_first_100_misses": cold_first_100_misses,
            "incarnation_started_warm": incarnation_records_replayed > 0,
            "incarnation_records_replayed": incarnation_records_replayed,
            "incarnation_recovery_micros": incarnation_recovery_micros,
            "incarnation_first_100_misses": incarnation_first_100_misses,
            "restart_recovery_micros": restart_recovery_micros,
            "restart_records_replayed": restart_records_replayed,
            "restart_first_100_cold_misses": restart_first_100_cold_misses,
            "restart_warm_jobs_per_sec": restart_warm_jobs_per_sec,
        }),
    );
    Outcome {
        section,
        checks: vec![
            ("durability_fingerprints_match", matched),
            ("restart_first_100_jobs_warm", restart_first_100_cold_misses == 0),
        ],
    }
}

/// Connection-front sweep: decade tiers of concurrent loopback tenants
/// up to `--connections`, each tier once.
fn connections(ctx: &Ctx) -> Outcome {
    let rows: Vec<Value> = ladder(10, 10, ctx.connections)
        .into_iter()
        .map(|tier| connection_tier(ctx, tier))
        .collect();
    let all =
        |key: &str| rows.iter().all(|row| row.get(key).and_then(Value::as_bool) == Some(true));
    let checks = vec![
        ("connection_fingerprints_match_in_process", all("fingerprints_match")),
        ("connection_threads_bounded", all("threads_bounded")),
    ];
    Outcome { section: json!({"requested_max": ctx.connections, "tiers": rows}), checks }
}

/// One fan-out tier: `requested` concurrent loopback tenants against one
/// event-loop server, each replaying its own contiguous id slice of one
/// batch (so the merged results compare 1:1 against the in-process
/// reference). At most 8 driver threads own the tenants round-robin and
/// serve them serially — tenant concurrency lives in the server's event
/// loops, not in the load generator. The thread count is sampled while
/// every tenant is connected, *before* the serve phase, which is exactly
/// when a thread-per-connection design would be caught.
fn connection_tier(ctx: &Ctx, requested: usize) -> Value {
    // Three fds per loopback connection — the client's stream, its
    // cloned read half, and the server's end — plus slack for the
    // engine, wake pipes, and whatever the process already holds. A tier
    // the fd limit cannot host is clamped — loudly, and recorded in the
    // report, never silently passed off as the full run.
    const FD_SLACK: u64 = 400;
    let fd_limit = raise_fd_limit(3 * requested as u64 + FD_SLACK);
    let conns = requested.min((fd_limit.saturating_sub(FD_SLACK) / 3) as usize).max(1);
    if conns < requested {
        eprintln!(
            "engine_load: fd limit {fd_limit} clamps the {requested}-connection tier to {conns}"
        );
    }
    let total_jobs = ctx.jobs.max(conns);
    let specs = ctx.profile.specs(total_jobs);
    let want = ctx.reference(total_jobs);

    let config = TransportConfig { max_connections: conns + 8, ..TransportConfig::default() };
    let served = Served::start(ctx.config(ctx.workers), config);
    let addr = served.addr();

    // Tenant t's slice: total_jobs / conns jobs, the remainder spread
    // over the first tenants, ids contiguous.
    let per = total_jobs / conns;
    let extra = total_jobs % conns;
    let mut slices = Vec::with_capacity(conns);
    let mut at = 0usize;
    for t in 0..conns {
        let len = per + usize::from(t < extra);
        slices.push(specs[at..at + len].to_vec());
        at += len;
    }

    let drivers = conns.min(8);
    let barrier = Arc::new(std::sync::Barrier::new(drivers + 1));
    let mut handles = Vec::with_capacity(drivers);
    for d in 0..drivers {
        let mine: Vec<Vec<JobSpec>> = slices.iter().skip(d).step_by(drivers).cloned().collect();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            // A transient connect failure (listen backlog, fd pressure)
            // must not kill a driver thread — the barrier would deadlock
            // the whole sweep. Retry briefly before giving up.
            let connect = |t: usize| {
                let mut last = None;
                for attempt in 0..4 {
                    match TransportClient::connect(addr) {
                        Ok(client) => return client,
                        Err(err) => {
                            last = Some(err);
                            std::thread::sleep(Duration::from_millis(50 << attempt));
                        }
                    }
                }
                panic!("tenant {t} connect failed after retries: {:?}", last.unwrap());
            };
            let mut clients: Vec<TransportClient> = (0..mine.len()).map(connect).collect();
            barrier.wait(); // every driver's tenants are connected
            barrier.wait(); // main has sampled the thread count
            let mut results = Vec::new();
            let mut split = LatencySplit::new();
            for (client, batch) in clients.iter_mut().zip(&mine) {
                client.run_batch_split(batch, &mut results, &mut split).expect("tenant batch");
            }
            let busy = clients.iter().map(TransportClient::busy_retries).sum::<u64>();
            (results, split, busy)
        }));
    }
    barrier.wait(); // connect phase done from the drivers' side...
    let deadline = Instant::now() + Duration::from_secs(30);
    while served.server.live_connections() < conns && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5)); // ...let the loops adopt
    }
    let live = served.server.live_connections();
    assert_eq!(live, conns, "only {live}/{conns} tenants came up");
    let peak_threads = thread_count().unwrap_or(0);
    let started = Instant::now();
    barrier.wait(); // release the serve phase
    let mut merged: Vec<JobResult> = Vec::with_capacity(total_jobs);
    let mut split = LatencySplit::new();
    let mut busy_retries = 0u64;
    for handle in handles {
        let (results, driver_split, busy) = handle.join().expect("driver panicked");
        merged.extend(results);
        split.queue.merge(&driver_split.queue);
        split.service.merge(&driver_split.service);
        split.wire.merge(&driver_split.wire);
        busy_retries += busy;
    }
    let elapsed = started.elapsed().as_secs_f64();
    // Read the readiness counters before `stop` tears the loops down.
    let snap = served.server.metrics().snapshot();
    served.stop();

    merged.sort_unstable_by_key(|r| r.id);
    // O(event loops), never O(connections): the loops, the accept
    // thread, the engine's workers, the sweep's own drivers, and a fixed
    // allowance for the runtime (main thread, telemetry, allocator…).
    let thread_bound = config.event_loops + 1 + ctx.workers + drivers + 16;
    // Ready fds epoll delivered: per tick, O(active) however many idle
    // tenants are registered.
    let ticks = snap.get(Metric::TransportTicks);
    let ready_fds = snap.get(Metric::TransportReadyFds);
    let row = json!({
        "requested_connections": requested,
        "connections": conns,
        "total_jobs": total_jobs,
        "jobs_per_sec": total_jobs as f64 / elapsed,
        "fingerprints_match": batch_fingerprint(&merged) == want,
        "peak_threads": peak_threads,
        "thread_bound": thread_bound,
        "threads_bounded": peak_threads > 0 && peak_threads <= thread_bound,
        "busy_retries": busy_retries,
    });
    let counters = json!({
        "ticks": ticks,
        "ready_fds": ready_fds,
        "ready_fds_per_tick": ready_fds as f64 / ticks.max(1) as f64,
        "writev_calls": snap.get(Metric::TransportWritevCalls),
        "partial_writes": snap.get(Metric::TransportPartialWrites),
        "fd_limit": fd_limit,
    });
    show("connections", join(join(row, p95s(&split)), counters))
}

/// An engine behind its own loopback transport server.
struct Served {
    engine: Arc<Engine>,
    server: TransportServer,
}

impl Served {
    fn start(config: EngineConfig, transport: TransportConfig) -> Self {
        let engine = Arc::new(Engine::start(config));
        let server = TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", transport)
            .expect("bind loopback transport");
        Self { engine, server }
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    fn stop(self) {
        self.server.stop();
        Arc::try_unwrap(self.engine).ok().expect("the server released the engine").shutdown();
    }
}

/// `start`, `start·factor`, `start·factor²`, … below `top`, then `top`.
fn ladder(start: usize, factor: usize, top: usize) -> Vec<usize> {
    let below = std::iter::successors(Some(start), |x| Some(x * factor)).take_while(|&x| x < top);
    below.chain(std::iter::once(top)).collect()
}

/// Print one measured row on stdout and hand it back.
fn show(scenario: &str, row: Value) -> Value {
    println!("{scenario:<11} {}", serde_json::to_string(&row).expect("serializable"));
    row
}

/// The fields of `a` followed by those of `b`; both are JSON objects.
fn join(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Object(mut a), Value::Object(b)) => {
            a.extend(b);
            Value::Object(a)
        }
        _ => panic!("rows are JSON objects"),
    }
}

/// The p95 of each leg of a queue/service/wire latency split.
fn p95s(split: &LatencySplit) -> Value {
    json!({
        "queue_p95_micros": split.queue.quantile_micros(0.95),
        "service_p95_micros": split.service.quantile_micros(0.95),
        "wire_p95_micros": split.wire.quantile_micros(0.95),
    })
}

/// A number a scenario measured into `row`.
fn num(row: &Value, key: &str) -> f64 {
    row.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("row has no number {key:?}"))
}

/// The result fingerprint a pass measured into `row`.
fn fingerprint(row: &Value) -> u64 {
    row.get("fingerprint").and_then(Value::as_u64).expect("row has a fingerprint")
}

/// Jobs per second of `jobs` jobs served by `serve`.
fn per_sec(jobs: usize, serve: impl FnOnce()) -> f64 {
    let started = Instant::now();
    serve();
    jobs as f64 / started.elapsed().as_secs_f64()
}

/// Fingerprint of a batch: order-sensitive chaining over results, which
/// `run_batch` hands back sorted by id — so equal batches ⇔ equal values.
fn batch_fingerprint(results: &[JobResult]) -> u64 {
    let mut d = pooled_engine::job::Digest::new();
    for r in results {
        d.push(r.fingerprint());
    }
    d.finish()
}

fn parse_decoders(raw: &str) -> Vec<DecoderKind> {
    raw.split(',')
        .map(|name| {
            DecoderKind::from_name(name.trim())
                .unwrap_or_else(|| panic!("unknown decoder {name:?} (see DecoderKind::ALL)"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(selected: &[(&'static str, Scenario)]) -> Vec<&'static str> {
        selected.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn an_unknown_scenario_is_rejected_with_the_valid_names() {
        let err = select("workers,wrokers").map(|_| ()).expect_err("a typo must not run");
        assert!(err.contains("\"wrokers\""), "{err}");
        for (name, _) in SCENARIOS {
            assert!(err.contains(name), "{err} lacks {name}");
        }
        assert!(select("tcp,tcp").is_err(), "a scenario named twice would repeat a report key");
    }

    #[test]
    fn scenarios_run_in_the_order_named_and_all_is_every_one() {
        assert_eq!(names(&select("tcp, workers").unwrap()), ["tcp", "workers"]);
        assert_eq!(names(&select("all").unwrap()), names(&SCENARIOS));
    }

    #[test]
    fn one_false_check_fails_the_run() {
        assert_eq!(verdict(&[("a", true), ("b", true)]), Ok(()));
        assert_eq!(verdict(&[("a", true), ("b", false), ("c", true)]), Err("b".to_string()));
        assert_eq!(verdict(&[]), Ok(()));
    }

    /// Any subset runs alone and in any order: the reference fingerprint
    /// is computed by whichever scenario needs it first.
    #[test]
    fn scenarios_run_alone_in_any_order_and_pass_their_checks() {
        let raw = ["--jobs", "12", "--workers", "2", "--n", "200", "--latency-micros", "0"];
        let ctx = Ctx::from_args(&Args::parse(raw.iter().map(|s| s.to_string())));
        let mut checks = Vec::new();
        for (_, scenario) in select("tcp,batch").unwrap() {
            let outcome = scenario(&ctx);
            assert!(matches!(outcome.section, Value::Object(_)));
            checks.extend(outcome.checks);
        }
        assert_eq!(
            checks,
            [
                ("tcp_fingerprints_match_in_process", true),
                ("deterministic_across_batch_windows", true)
            ]
        );
    }
}
