//! The engine's observability plane: lock-free metrics, per-job trace
//! spans, and a bounded flight recorder — all zero-allocation on the
//! serving hot path.
//!
//! The stack spans four tiers (decode kernels → sharded engine → TCP
//! transport → failover cluster router); attributing a speedup or a
//! stall honestly needs per-stage timing and per-node counters, not a
//! grab-bag of point-in-time structs. This module is that plane, in
//! four layers:
//!
//! * [`registry`] — a fixed-size, lock-free [`MetricsRegistry`] of
//!   named atomic counters ([`Metric`]): per-outcome job counts
//!   (completed / rejected / busy-shed / poisoned / failed-over) and
//!   transport byte/frame/checksum-reject counters. Incrementing is one
//!   relaxed atomic add; snapshots are torn-free per counter and never
//!   block a worker.
//! * [`trace`] — [`JobTrace`]: a fixed-size array of monotonic span
//!   timestamps (admit → dequeue → cache probe → decode start/end →
//!   route hop → wire rx/tx) that rides alongside a queued job when the
//!   sampling knob selects it. `Copy`, no heap, and invisible to the
//!   decode path — fingerprints are bit-identical at any sampling rate.
//! * [`recorder`] — the [`FlightRecorder`]: bounded per-shard ring
//!   buffers that absorb completed traces plus causal records from the
//!   cluster tier (failover, stale events, chaos injections, scrape
//!   timeouts), overwriting the oldest entry instead of allocating.
//!   Dumpable as JSON for postmortems.
//! * [`export`] — the Prometheus-text exposition renderer over an
//!   [`EngineStats`] snapshot and a registry snapshot (used by
//!   `engine_load`'s `telemetry` scenario).
//!
//! [`EngineStats`]: crate::engine::EngineStats

pub mod export;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use export::render_prometheus;
pub use recorder::{CausalKind, CausalRecord, FlightRecorder};
pub use registry::{Metric, MetricsRegistry, MetricsSnapshot, METRIC_COUNT};
pub use trace::{JobTrace, Span, TRACE_SPANS};

use crate::job::JobSpec;

/// Telemetry knobs, deliberately separate from `EngineConfig` so every
/// existing construction site keeps compiling; engines built through
/// the plain constructors run with tracing off and only the always-on
/// atomic counters active.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Trace-sampling knob: `0` disables span tracing entirely, `1`
    /// traces every job, `k` traces jobs whose id is divisible by `k`.
    /// The decision is a pure function of the job id, so a sampled run
    /// records the *same* jobs regardless of worker count or topology.
    pub trace_sample_every: u64,
    /// Capacity of each per-shard trace ring and of the causal-record
    /// ring in the [`FlightRecorder`] (clamped to at least 1).
    pub recorder_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl TelemetryConfig {
    /// Tracing disabled (the default); counters still run.
    pub fn off() -> Self {
        Self { trace_sample_every: 0, recorder_capacity: 256 }
    }

    /// Trace every job.
    pub fn full() -> Self {
        Self { trace_sample_every: 1, recorder_capacity: 256 }
    }

    /// Trace one job in `every` (by id; `0` means off).
    pub fn sampled(every: u64) -> Self {
        Self { trace_sample_every: every, recorder_capacity: 256 }
    }

    /// Whether this configuration samples `spec` for span tracing.
    pub fn samples(&self, spec: &JobSpec) -> bool {
        spec.trace_sampled(self.trace_sample_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DecoderKind, DesignSpec};

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            n: 100,
            k: 3,
            m: 40,
            design: DesignSpec::random_regular(7),
            decoder: DecoderKind::Mn,
            seed: 1,
            query_cost_micros: 0,
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_id() {
        let off = TelemetryConfig::off();
        let full = TelemetryConfig::full();
        let every4 = TelemetryConfig::sampled(4);
        for id in 0..32 {
            assert!(!off.samples(&spec(id)));
            assert!(full.samples(&spec(id)));
            assert_eq!(every4.samples(&spec(id)), id % 4 == 0);
        }
    }
}
