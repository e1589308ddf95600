#![warn(missing_docs)]

//! Parallel primitives used by the pooled-data reconstruction pipeline.
//!
//! The paper observes (§I-C, “Parallelized Reconstruction”) that the MN
//! decoder is two sparse matrix–vector products followed by a sort, all of
//! which parallelize. This crate supplies the building blocks the workspace
//! calls on top of rayon, each checked against a sequential reference by
//! the tests and property suites:
//!
//! * [`chunks`] — deterministic chunking of index ranges across workers.
//! * [`topk`] — parallel top-k selection over any `Ord` score: what
//!   Algorithm 1's final sort actually needs (the k largest scores), and
//!   the one ranking step of every decoder.
//! * [`scatter`] — atomic scatter-add accumulators: the query-parallel
//!   reference for the Ψ/Δ* sums.
//! * [`lru`] — the bounded LRU map behind the engine's design cache.
//! * [`pool`] — rayon thread pools of a fixed worker count, for the
//!   ablation benches and one-thread kernel timings.
//!
//! # The Ψ/Δ* kernels
//!
//! The decoder's Ψ/Δ* accumulation (`m·Γ` updates into `n` slots) has one
//! kernel per design storage, both in `pooled_design` behind
//! `pooled_design::distinct_sums_into`:
//!
//! | storage | kernel | atomics | extra memory |
//! |---|---|---|---|
//! | CSR | `CsrDesign::gather_distinct_into`: entry-parallel popcount over the entry bitmap (distinct density ≥ 1/32, mixed weight bit-planes ≤ 5/4 of the incidences per bitmap word: 30 planes at the paper's `c = ½`, `y` uses about 5), else the index gather over the transpose | no | `n·⌈m/64⌉`-word entry bitmap per design |
//! | streaming | `pooled_design::streaming::stream_sums_into`: one sequential pass, each pool regenerated once | no | one pool buffer |
//!
//! [`scatter::AtomicCounters`] scatters the same sums query by query over
//! any design; `pooled_design::matvec::scatter_distinct_u64` uses it as
//! the oracle the kernels are tested against.

pub mod chunks;
pub mod lru;
pub mod pool;
pub mod scatter;
pub mod topk;

pub use chunks::even_ranges;
pub use lru::LruCache;
pub use pool::{install_with_threads, pool_with_threads};
pub use scatter::AtomicCounters;
pub use topk::{top_k_indices, top_k_into, TopKScratch};
