//! Multi-node serving: the engine as one tier of a scalable system.
//!
//! The paper's parallel reconstruction story scales past one machine
//! only if each shard keeps its design pools hot. This module is that
//! scaling tier, in three layers:
//!
//! * [`node`] — the [`NodeHandle`] abstraction: "a place jobs run",
//!   with [`LocalNode`] (an in-process [`Engine`] behind a private
//!   route) and [`RemoteNode`] (one TCP connection speaking the
//!   transport frame protocol, its replies read on the caller's
//!   thread) as interchangeable impls, so single-node paths really are
//!   a 1-node cluster — a batch over the wire is a [`Router`] over one
//!   remote node.
//! * [`membership`] — deterministic placement: rendezvous (HRW)
//!   hashing of [`DesignKey`] → node, so every job carrying a key
//!   lands on that key's owner, each node's design cache serves a
//!   stable slice, and adding a node migrates only the keys the new
//!   node wins.
//! * [`router`] — the [`Router`]: per-node in-flight windows,
//!   BUSY-aware retry against both local (synchronous) and remote
//!   (frame) backpressure, result fan-in preserving per-job
//!   determinism fingerprints, a rebalance step with an explicit
//!   drain protocol ([`Router::add_node`] / [`Router::remove_node`]),
//!   and health-checked **failover** ([`FailoverConfig`]): a node that
//!   errors, closes, or goes silent past probation is removed and its
//!   jobs re-route to the survivors — whose caches the router kept
//!   warm for exactly those keys via HRW top-2 standby placement
//!   ([`Membership::standby`]).
//! * [`chaos`] — deterministic fault injection ([`ChaosNode`]): a
//!   wrapper handle that drops, delays, duplicates, or severs traffic
//!   on a seeded schedule, so the failover paths above are pinned by
//!   replayable tests instead of luck.
//!
//! The headline invariant, pinned by `tests/cluster_determinism.rs`,
//! `tests/cluster_failover.rs` and the CI cluster smoke: a
//! `LoadProfile` replayed through 1 local node, an N-node local
//! cluster, an N-node TCP loopback cluster — or an N-node cluster
//! that **loses a node mid-stream** — yields **bit-identical** per-job
//! result fingerprints. The cluster may change *where* and *when* a
//! job runs — never *what* it computes.
//!
//! [`Engine`]: crate::engine::Engine
//! [`DesignKey`]: crate::cache::DesignKey

pub mod chaos;
pub mod membership;
pub mod node;
pub mod router;

pub use chaos::{ChaosConfig, ChaosController, ChaosNode};
pub use membership::Membership;
pub use node::{LocalNode, NodeError, NodeEvent, NodeHandle, RemoteNode, SubmitOutcome};
pub use router::{ClusterStats, FailoverConfig, Router};
