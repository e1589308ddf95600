//! `single_large`: the paper's setting. One large instance at a time on
//! an in-process engine, closed loop with exactly one job in flight.

use pooled_engine::{Engine, EngineConfig};

use crate::gen::SpecGen;
use crate::phase::{secs, timed_setup, Completion, Meter, Phase, PhaseConfig};

pub fn run(cfg: &PhaseConfig) -> Phase {
    let gen = SpecGen::single_large(cfg.seed);
    let config = EngineConfig { workers: 2, batch_window: 1, ..EngineConfig::default() };
    let (engine, setup_s) = timed_setup(
        cfg.setup_reps,
        || Engine::start_prewarmed_with(config, gen.keys(), cfg.telemetry()),
        |e| {
            e.shutdown();
        },
    );

    let before = engine.stats();
    let mut completions = Vec::with_capacity(4096);
    let meter = Meter::start();
    let deadline = meter.t0 + secs(cfg.seconds);
    let mut id = 0u64;
    while std::time::Instant::now() < deadline {
        let spec = gen.spec(id);
        let sent = std::time::Instant::now();
        engine.submit(spec).expect("engine closed while serving");
        let result = engine.recv().expect("engine closed while serving");
        let observed = std::time::Instant::now();
        completions.push(Completion { start: sent, sent, observed, result });
        id += 1;
    }
    let reading = meter.stop();
    let after = engine.stats();
    let recorders = vec![engine.flight_recorder()];
    engine.shutdown();

    Phase {
        open_loop: false,
        setup_s,
        attempted: id,
        lost: 0,
        t0: meter.t0,
        window_s: cfg.seconds,
        cpu_ms: reading.cpu_ms,
        alloc: reading.alloc,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        recorders,
        live: Vec::new(),
        completions,
        gen,
    }
}
