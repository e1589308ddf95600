//! What one measured phase of a workload hands back, and the helpers the
//! workload modules share.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pooled_engine::{FlightRecorder, JobResult, TelemetryConfig};

use crate::gen::SpecGen;
use crate::instruments::{process_cpu_ms, AllocCount};
use crate::stats::median;

/// One completed request as the caller saw it.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// When the request counts from: the send for a closed loop, the due
    /// time for an open loop.
    pub start: Instant,
    /// When the request was handed to the system.
    pub sent: Instant,
    /// When the caller observed the result.
    pub observed: Instant,
    pub result: JobResult,
}

impl Completion {
    /// Caller-observed latency (µs) from `start`.
    pub fn latency_us(&self) -> f64 {
        self.observed.duration_since(self.start).as_secs_f64() * 1e6
    }

    /// Time (µs) between the send and the observation that the engine's
    /// own `total_micros` does not cover: hand-off in process, wire and
    /// event loops over TCP.
    pub fn outside_engine_us(&self) -> f64 {
        let seen = self.observed.duration_since(self.sent).as_secs_f64() * 1e6;
        (seen - self.result.total_micros as f64).max(0.0)
    }

    /// Worker service time (µs): sojourn minus queue wait.
    pub fn service_us(&self) -> f64 {
        self.result.total_micros.saturating_sub(self.result.queue_micros) as f64
    }
}

/// How a phase runs.
#[derive(Clone, Copy, Debug)]
pub struct PhaseConfig {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// How many times set-up runs; the median is reported and the last
    /// set-up serves the window.
    pub setup_reps: usize,
    /// Whether engines trace every job, and the phase takes the traced
    /// run's extra live measurements.
    pub traced: bool,
}

/// Trace-ring capacity per engine shard: every job of a traced window.
const RECORDER_CAPACITY: usize = 1 << 16;

impl PhaseConfig {
    pub fn telemetry(&self) -> TelemetryConfig {
        if self.traced {
            TelemetryConfig { trace_sample_every: 1, recorder_capacity: RECORDER_CAPACITY }
        } else {
            TelemetryConfig::off()
        }
    }

    /// Scratch location for this phase, inside the working directory.
    pub fn scratch_dir(&self, workload: &str, tag: &str) -> PathBuf {
        PathBuf::from(crate::OUT_DIR).join(format!(
            "{workload}-{}-{tag}-{}",
            self.seed,
            std::process::id()
        ))
    }
}

/// Everything one measured phase produced.
pub struct Phase {
    pub gen: SpecGen,
    pub open_loop: bool,
    pub setup_s: f64,
    pub completions: Vec<Completion>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that produced no result: rejected, failed by the router
    /// or timed out.
    pub lost: u64,
    /// Start of the measured window.
    pub t0: Instant,
    /// Length of the measured window; jobs still in flight at its end
    /// are waited for, but only jobs observed within it count as
    /// throughput.
    pub window_s: f64,
    /// Process CPU over the window.
    pub cpu_ms: f64,
    /// Allocations over the window.
    pub alloc: AllocCount,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// One flight recorder per engine, for span reconstruction.
    pub recorders: Vec<Arc<FlightRecorder>>,
    /// Live per-layer counters only this workload's path produces.
    pub live: Vec<(&'static str, f64)>,
}

impl Phase {
    /// Results observed per second of the window, as the median over its
    /// whole seconds, so a host stall in a few of them cannot move it.
    pub fn jobs_per_s(&self) -> f64 {
        let slices = (self.window_s as usize).max(1);
        let slice_s = self.window_s / slices as f64;
        let mut counts = vec![0.0; slices];
        for c in &self.completions {
            let at = c.observed.duration_since(self.t0).as_secs_f64() / slice_s;
            if let Some(n) = counts.get_mut(at as usize) {
                *n += 1.0;
            }
        }
        median(counts) / slice_s
    }

    pub fn cpu_ms_per_job(&self) -> f64 {
        self.cpu_ms / self.completions.len().max(1) as f64
    }
}

/// Wall time, process CPU and allocations from `start` to `stop`.
pub struct Meter {
    pub t0: Instant,
    cpu0: f64,
    alloc0: AllocCount,
}

/// What a [`Meter`] read.
pub struct Reading {
    pub cpu_ms: f64,
    pub alloc: AllocCount,
}

impl Meter {
    pub fn start() -> Self {
        let cpu0 = process_cpu_ms();
        let alloc0 = AllocCount::now();
        Self { t0: Instant::now(), cpu0, alloc0 }
    }

    pub fn stop(&self) -> Reading {
        Reading {
            cpu_ms: process_cpu_ms() - self.cpu0,
            alloc: AllocCount::now().since(self.alloc0),
        }
    }
}

/// Run `make` `reps` times, tearing each result down before the next
/// one starts, and keep the last. Returns it with the median set-up time.
pub fn timed_setup<T>(
    reps: usize,
    mut make: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t = Instant::now();
        kept = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(times))
}

/// `Duration` from fractional seconds.
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}
