#![warn(missing_docs)]

//! `pooled_engine` — a sharded, batched reconstruction **service engine**.
//!
//! The paper's premise is that queries dominate reconstruction time, so a
//! production system must organize decoding around *throughput*: many
//! reconstruction jobs in flight, worker shards that overlap the slow
//! query-execution stage, and no per-job setup cost on the hot path. This
//! crate is that serving layer over the workspace's decode kernels:
//!
//! * [`job`] — `Copy` wire types: [`job::JobSpec`] in,
//!   [`job::JobResult`] out, with compact result digests so bit-exact
//!   determinism is checkable across worker counts.
//! * [`queue`] — bounded MPMC queues; a full submission queue *blocks the
//!   submitter* (backpressure) instead of growing memory.
//! * [`cache`] — the LRU design cache: repeated traffic never regenerates
//!   pooling designs, bounded by the same policy as the thread-pool memo.
//! * [`registry`] — every decoder (classic MN, Γ-general MN,
//!   threshold-MN) behind one trait object.
//! * [`worker`] — per-shard scratch reuse and the one serve loop every
//!   run of same-design jobs takes, lane by lane through the per-job
//!   stages; the MN paths serve jobs with **zero heap allocations**
//!   after warm-up (`tests/alloc_free.rs`).
//! * [`engine`] — the shards themselves: graceful shutdown, per-job
//!   latency/throughput telemetry ([`pooled_stats::summary::Summary`] +
//!   [`pooled_lab::histogram::LatencyHistogram`]).
//! * [`telemetry`] — the observability plane: a lock-free
//!   [`telemetry::MetricsRegistry`] of named counters, per-job
//!   [`telemetry::JobTrace`] span timelines under a sampling knob, the
//!   bounded [`telemetry::FlightRecorder`] (trace + causal rings,
//!   JSON-dumpable), and a Prometheus exposition renderer — all
//!   zero-allocation on the serving hot path and fingerprint-invisible
//!   at any sampling rate.
//! * [`traffic`] — deterministic load profiles and Poisson arrivals for
//!   the `engine_load` generator and the throughput benches.
//! * [`codec`] — the one checksummed-record format: the `header ‖
//!   payload ‖ checksum` envelope shared by transport frames and WAL
//!   records, the little-endian field helpers, the `DesignKind` /
//!   `DecoderKind` codes, and the `DesignKey` and `EngineStats` layouts
//!   both formats carry.
//! * [`transport`] — the TCP front: length-prefixed checksummed frames,
//!   a readiness-driven event-loop server multiplexing every connection
//!   over a few epoll threads (backpressure = explicit `BUSY`
//!   frames), and a pipelined client whose results are bit-identical to
//!   in-process submission.
//! * [`cluster`] — the multi-node tier: the [`cluster::NodeHandle`]
//!   abstraction over "a place jobs run" (in-process engine or remote
//!   engine over the frame protocol), rendezvous-hashed
//!   `DesignKey → node` placement with top-2 warm-standby assignment,
//!   and a router with per-node in-flight windows, BUSY-aware retry, a
//!   draining rebalance step (add/remove), health-checked failover
//!   that re-routes a dead node's jobs to prewarmed survivors, and a
//!   deterministic fault-injection wrapper ([`cluster::ChaosNode`])
//!   for testing all of it.
//! * [`durability`] — the durable tier: a checksummed write-ahead
//!   design log with segment rotation and compaction, disk-spilled
//!   design snapshots, crash recovery
//!   ([`engine::Engine::start_durable`] replays the WAL prefix and
//!   reaches full warmth *before* accepting traffic), persisted
//!   engine stats/histograms, and deterministic storage-fault
//!   injection ([`durability::fault::StorageFault`]) pinning the
//!   invariant: a correct prefix of the log or a clean error — never
//!   a wrong design.
//!
//! ```
//! use pooled_engine::engine::{Engine, EngineConfig};
//! use pooled_engine::traffic::LoadProfile;
//!
//! let profile = LoadProfile { query_cost: None, ..LoadProfile::default_mix(400, 5, 200, 7) };
//! let engine = Engine::start(EngineConfig::with_workers(2));
//! let mut results = Vec::new();
//! engine.run_batch(&profile.specs(16), &mut results);
//! assert_eq!(results.len(), 16);
//! let stats = engine.shutdown();
//! assert_eq!(stats.jobs_completed, 16);
//! ```

pub mod cache;
pub mod cluster;
pub mod codec;
pub mod durability;
pub mod engine;
#[cfg(test)]
mod interleave;
pub mod job;
pub mod queue;
pub mod registry;
pub mod telemetry;
pub mod traffic;
pub mod transport;
pub mod worker;

pub use cache::{DesignCache, DesignKey};
pub use cluster::{FailoverConfig, LocalNode, Membership, NodeHandle, RemoteNode, Router};
pub use durability::{DurabilityConfig, Recovery, WalJournal};
pub use engine::{Engine, EngineConfig, EngineStats, ResultRoute, RouteWaker};
pub use job::{DecoderKind, DesignSpec, JobResult, JobSpec};
pub use queue::BoundedQueue;
pub use registry::{decoder, DecodeScratch, EngineDecoder, Truth};
pub use telemetry::{
    render_prometheus, FlightRecorder, JobTrace, Metric, MetricsRegistry, MetricsSnapshot,
    TelemetryConfig,
};
pub use traffic::{poisson_arrivals, LoadProfile, PreparedProfile};
pub use transport::{TransportClient, TransportConfig, TransportServer};
