//! `cold_churn`: design churn on the durable tier. A durable engine
//! (default `DurabilityConfig`: snapshots on, fsync off) with a
//! 16-design cache serves a 48-design working set of Zipf-popular keys,
//! closed loop with two jobs in flight. Set-up is the restart: the
//! engine recovers from the directory an untimed earlier incarnation
//! left behind.

use std::path::Path;
use std::time::Instant;

use pooled_engine::durability::recover;
use pooled_engine::{DurabilityConfig, Engine, EngineConfig, Metric, MetricsRegistry};

use crate::gen::SpecGen;
use crate::phase::{secs, timed_setup, Completion, Meter, Phase, PhaseConfig};

const CACHE_CAPACITY: usize = 16;
const IN_FLIGHT: u64 = 2;

pub fn run(cfg: &PhaseConfig) -> Phase {
    let gen = SpecGen::cold_churn(cfg.seed);
    let dir = cfg.scratch_dir("cold_churn", if cfg.traced { "traced" } else { "plain" });
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig {
        workers: 2,
        design_cache_capacity: CACHE_CAPACITY,
        ..EngineConfig::default()
    };

    // The earlier incarnation: warm the most popular designs, then shut
    // down cleanly so the directory holds a checkpoint and snapshots.
    let first = Engine::start_durable(config, DurabilityConfig::new(&dir))
        .expect("start the first durable incarnation");
    first.prewarm(&gen.keys()[..CACHE_CAPACITY]);
    first.shutdown();

    let (engine, setup_s) = timed_setup(
        cfg.setup_reps,
        || {
            Engine::start_durable_with(config, DurabilityConfig::new(&dir), cfg.telemetry())
                .expect("restart the durable engine")
        },
        |e| {
            e.shutdown();
        },
    );

    let before = engine.stats();
    let wal = engine.metrics();
    let (appends0, bytes0) = (wal.get(Metric::WalAppends), wal.get(Metric::WalBytes));
    let mut sent: Vec<Instant> = Vec::with_capacity(4096);
    let mut completions = Vec::with_capacity(4096);
    let meter = Meter::start();
    let deadline = meter.t0 + secs(cfg.seconds);
    for id in 0..IN_FLIGHT {
        sent.push(Instant::now());
        engine.submit(gen.spec(id)).expect("engine closed while serving");
    }
    let mut in_flight = IN_FLIGHT;
    while in_flight > 0 {
        let result = engine.recv().expect("engine closed while serving");
        let observed = Instant::now();
        let at = sent[result.id as usize];
        completions.push(Completion { start: at, sent: at, observed, result });
        in_flight -= 1;
        if observed < deadline {
            let id = sent.len() as u64;
            sent.push(Instant::now());
            engine.submit(gen.spec(id)).expect("engine closed while serving");
            in_flight += 1;
        }
    }
    let reading = meter.stop();
    let after = engine.stats();
    let jobs = completions.len().max(1) as f64;
    let mut live = vec![
        ("wal.appends_per_job", (wal.get(Metric::WalAppends) - appends0) as f64 / jobs),
        ("wal.bytes_per_job", (wal.get(Metric::WalBytes) - bytes0) as f64 / jobs),
        ("snapshot.bytes_per_miss", mean_snapshot_bytes(&dir)),
    ];
    let recorders = vec![engine.flight_recorder()];
    engine.shutdown();
    if cfg.traced {
        let t = Instant::now();
        let recovery = recover(&DurabilityConfig::new(&dir), &MetricsRegistry::new())
            .expect("recover the benchmark's own directory");
        live.push(("recovery.ms", t.elapsed().as_secs_f64() * 1e3));
        live.push(("recovery.snapshots_loaded", recovery.snapshots_loaded as f64));
    }
    let _ = std::fs::remove_dir_all(&dir);

    Phase {
        open_loop: false,
        setup_s,
        attempted: sent.len() as u64,
        lost: 0,
        t0: meter.t0,
        window_s: cfg.seconds,
        cpu_ms: reading.cpu_ms,
        alloc: reading.alloc,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        recorders,
        live,
        completions,
        gen,
    }
}

/// Mean size of the design snapshots resident in `dir`: what one cache
/// miss spills.
fn mean_snapshot_bytes(dir: &Path) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .expect("list the durability directory")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .filter_map(|e| e.metadata().ok().map(|m| m.len()))
        .collect();
    sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64
}
