//! Allocation accounting for the workspace decode path.
//!
//! The acceptance bar for the workspace refactor: after warm-up, a
//! 100-replicate repeated decode through each served decoder's
//! `decode_with` on a materialized design performs **zero** heap
//! allocations. A counting wrapper around the system
//! allocator pins this down exactly (single-worker pool: with more workers
//! the scoped-thread fan-out itself allocates, which is outside the decode
//! path's contract).
//!
//! The counter is process-global, so every test holds [`serial`] for its
//! whole body: under the default parallel harness a test measuring its
//! window would otherwise count another test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Run this binary's tests one at a time. A test that fails poisons the
/// lock; the next one takes it anyway, since the guarded data is `()`.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

use pooled_data::core::mn::MnDecoder;
use pooled_data::core::mn_general::GeneralMnDecoder;
use pooled_data::core::query::execute_queries;
use pooled_data::core::workspace::MnWorkspace;
use pooled_data::design::csr::CsrDesign;
use pooled_data::design::factory::DesignKind;
use pooled_data::engine::engine::{Engine, EngineConfig};
use pooled_data::engine::job::DecoderKind;
use pooled_data::engine::traffic::LoadProfile;
use pooled_data::par::pool::pool_with_threads;
use pooled_data::prelude::*;
use pooled_data::threshold::ThresholdMnDecoder;

#[test]
fn workspace_decode_is_allocation_free_after_warmup() {
    let _serial = serial();
    let (n, m, k) = (20_000usize, 600usize, 12usize);
    let seeds = SeedSequence::new(1905);
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    // The paper's design at c = ½ sums by popcount over its entry bitmap;
    // the sparse Bernoulli design (no bitmap) by the index gather.
    let dense = DesignKind::RandomRegular.sample(n, m, 0.5, &seeds.child("design", 0));
    let sparse = DesignKind::Bernoulli.sample(n, m, 0.01, &seeds.child("design", 1));
    for design in [&dense, &sparse] {
        let y = execute_queries(design, &sigma);
        let bits: Vec<u64> = y.iter().map(|&v| u64::from(v > k as u64 / 2)).collect();
        let reference = MnDecoder::new(k).decode(design, &y);
        let decode = |name: &str, ws: &mut MnWorkspace| match name {
            "mn" => MnDecoder::new(k).decode_with(design, &y, ws),
            "mn_general" => GeneralMnDecoder::new(k).decode_with(design, &y, ws),
            _ => ThresholdMnDecoder::new(k).decode_with(design, &bits, ws),
        };

        let pool = pool_with_threads(1);
        pool.install(|| {
            let mut ws = MnWorkspace::new();
            for name in ["mn", "mn_general", "threshold_mn"] {
                // Warm-up: grows every buffer to the workload's shape.
                decode(name, &mut ws);
                decode(name, &mut ws);

                let before = allocation_count();
                for _ in 0..100 {
                    decode(name, &mut ws);
                }
                let after = allocation_count();
                assert_eq!(
                    after - before,
                    0,
                    "{name} workspace decode on {} allocated {} times across 100 replicates",
                    design.kind().name(),
                    after - before
                );
            }

            // And it still computes the right answer.
            MnDecoder::new(k).decode_with(design, &y, &mut ws);
            assert_eq!(ws.estimate_dense(), reference.estimate.dense());
            assert_eq!(ws.scores(), &reference.scores[..]);
        });
    }
}

#[test]
fn engine_steady_state_serving_is_allocation_free_after_warmup() {
    // The full serving path — submission queue, design-cache hit, signal
    // draw, query execution, workspace decode, telemetry, completion
    // queue, batch drain — performs zero heap allocations per job once
    // every worker has warmed its scratch to the traffic's shape. This is
    // the engine's core scaling contract: steady-state throughput cannot
    // degrade from allocator pressure. The mix is every decoder the
    // registry has, so the contract holds for each of them.
    let _serial = serial();
    let profile = LoadProfile {
        distinct_designs: 1,
        decoders: DecoderKind::ALL.to_vec(),
        query_cost: None,
        ..LoadProfile::default_mix(2000, 9, 300, 77)
    };
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        results_capacity: 32,
        design_cache_capacity: 4,
        batch_window: 1,
    });
    let specs = profile.specs(24);
    let mut results = Vec::with_capacity(256);

    // Warm-up: several passes so *both* workers have served every decoder
    // kind at this shape (work stealing is nondeterministic, so one pass
    // is not a guarantee) and every queue/scratch buffer has grown.
    for _ in 0..6 {
        results.clear();
        engine.run_batch(&specs, &mut results);
    }
    let reference: Vec<(u64, u64)> = results.iter().map(|r| (r.id, r.fingerprint())).collect();

    results.clear();
    let before = allocation_count();
    for _ in 0..4 {
        engine.run_batch(&specs, &mut results);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state engine serving allocated {} times across {} jobs",
        after - before,
        4 * specs.len()
    );

    // And the served results are still correct and deterministic.
    for pass in results.chunks(specs.len()) {
        let got: Vec<(u64, u64)> = pass.iter().map(|r| (r.id, r.fingerprint())).collect();
        assert_eq!(got, reference);
    }
    engine.shutdown();
}

#[test]
fn batched_engine_serving_is_allocation_free_after_warmup() {
    // Design-affinity runs — pop_run, one cache hit and one query sleep
    // per run, then each lane through the per-job stages (support draw,
    // support query execution, registry decode) under its own unwind
    // guard, telemetry, completion queue — must also serve with zero heap
    // allocations per job at steady state. A run of any length reuses the
    // same per-job scratch, so this is the per-job contract at window 8.
    let _serial = serial();
    let profile = LoadProfile {
        distinct_designs: 1,
        decoders: vec![DecoderKind::Mn],
        query_cost: None,
        ..LoadProfile::default_mix(2000, 9, 300, 78)
    };
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        results_capacity: 32,
        design_cache_capacity: 4,
        batch_window: 8,
    });
    let specs = profile.specs(24);
    let mut results = Vec::with_capacity(256);

    // Queue timing decides which worker (if any) pops a lone job in the
    // passes below. Serve lone jobs until each worker has had one, so both
    // workers' scratch has grown at this shape before anything is counted.
    let mut served_alone = [false; 2];
    for spec in specs.iter().cycle().take(1_000) {
        results.clear();
        engine.run_batch(std::slice::from_ref(spec), &mut results);
        served_alone[results[0].worker as usize] = true;
        if served_alone == [true; 2] {
            break;
        }
    }
    assert_eq!(served_alone, [true; 2], "a worker never served a lone job");

    // Warm-up: both workers must have seen full and partial runs at this
    // shape (run lengths depend on queue timing, so several passes).
    for _ in 0..6 {
        results.clear();
        engine.run_batch(&specs, &mut results);
    }
    let reference: Vec<(u64, u64)> = results.iter().map(|r| (r.id, r.fingerprint())).collect();

    results.clear();
    let before = allocation_count();
    for _ in 0..4 {
        engine.run_batch(&specs, &mut results);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state batched serving allocated {} times across {} jobs",
        after - before,
        4 * specs.len()
    );

    // Results served in runs remain correct, deterministic, and identical to the
    // per-job engine's fingerprints for the same traffic.
    for pass in results.chunks(specs.len()) {
        let got: Vec<(u64, u64)> = pass.iter().map(|r| (r.id, r.fingerprint())).collect();
        assert_eq!(got, reference);
    }
    engine.shutdown();

    let per_job = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        results_capacity: 32,
        design_cache_capacity: 4,
        batch_window: 1,
    });
    let mut unbatched = Vec::new();
    per_job.run_batch(&specs, &mut unbatched);
    per_job.shutdown();
    let got: Vec<(u64, u64)> = unbatched.iter().map(|r| (r.id, r.fingerprint())).collect();
    assert_eq!(got, reference, "batching must be fingerprint-invisible");
}

#[test]
fn full_tracing_engine_serving_is_allocation_free_after_warmup() {
    // The telemetry plane's zero-allocation contract: with every job
    // traced (sampling 1-in-1) and every span landing in the flight
    // recorder's ring, steady-state serving still performs zero heap
    // allocations per job. The ring overwrites its oldest slot instead
    // of growing, metric counters are fixed atomics, and JobTrace rides
    // the queue by value — so tracing at full rate must be invisible to
    // the allocator once workers are warm.
    use pooled_data::engine::telemetry::{Metric, TelemetryConfig};

    let _serial = serial();
    let profile = LoadProfile {
        distinct_designs: 1,
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(2000, 9, 300, 79)
    };
    let engine = Engine::start_with(
        EngineConfig {
            workers: 2,
            queue_capacity: 32,
            results_capacity: 32,
            design_cache_capacity: 4,
            batch_window: 1,
        },
        TelemetryConfig::full(),
    );
    let specs = profile.specs(24);
    let mut results = Vec::with_capacity(256);

    // Warm-up: same regime as the untraced test — both workers, both
    // decoder kinds, every ring and scratch buffer at final shape.
    for _ in 0..6 {
        results.clear();
        engine.run_batch(&specs, &mut results);
    }
    let reference: Vec<(u64, u64)> = results.iter().map(|r| (r.id, r.fingerprint())).collect();

    results.clear();
    let before = allocation_count();
    for _ in 0..4 {
        engine.run_batch(&specs, &mut results);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "full-tracing steady-state serving allocated {} times across {} jobs",
        after - before,
        4 * specs.len()
    );

    // Tracing actually happened (this wasn't a vacuous pass)...
    let metrics = engine.metrics();
    assert!(
        metrics.get(Metric::TracesRecorded) >= (10 * specs.len()) as u64,
        "full sampling must trace every job"
    );
    // ...and did not move a single result bit.
    for pass in results.chunks(specs.len()) {
        let got: Vec<(u64, u64)> = pass.iter().map(|r| (r.id, r.fingerprint())).collect();
        assert_eq!(got, reference);
    }
    engine.shutdown();
}

#[test]
fn allocating_api_allocates_per_decode() {
    // Sanity check on the counter itself: the one-shot API must allocate.
    let _serial = serial();
    let (n, m, k) = (2_000usize, 100usize, 6usize);
    let seeds = SeedSequence::new(3);
    let design = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let y = execute_queries(&design, &sigma);
    let decoder = MnDecoder::new(k);
    let before = allocation_count();
    std::hint::black_box(decoder.decode(&design, &y));
    let after = allocation_count();
    assert!(after > before, "counting allocator must observe the allocating path");
}

#[test]
fn sampling_a_design_allocates_a_fixed_number_of_times_not_per_query() {
    // Every family writes its pools straight into the design's arrays, so
    // one design costs a fixed handful of allocations however many
    // queries it has. A per-query buffer would cost at least m = 1024.
    let _serial = serial();
    let (n, m, c) = (2_000usize, 1_024usize, 0.5);
    let seeds = SeedSequence::new(2017).child("design", 0);
    pool_with_threads(1).install(|| {
        for kind in DesignKind::ALL {
            let before = allocation_count();
            let design = std::hint::black_box(kind.sample(n, m, c, &seeds));
            let allocations = allocation_count() - before;
            assert!(allocations <= 32, "{} allocated {allocations} times", kind.name());
            drop(design);
        }
    });
}
