#![warn(missing_docs)]

//! Parallel primitives used by the pooled-data reconstruction pipeline.
//!
//! The paper observes (§I-C, “Parallelized Reconstruction”) that the MN
//! decoder is two sparse matrix–vector products followed by a sort, all of
//! which parallelize. This crate supplies those building blocks on top of
//! rayon, each with a sequential reference implementation that the tests and
//! property suites check against:
//!
//! * [`chunks`] — deterministic chunking of index ranges across workers.
//! * [`scan`] — parallel prefix sums (the classic two-pass blocked scan).
//! * [`sort`] — parallel merge sort and sample sort over `Copy` keys.
//! * [`radix`] — LSD radix sort for integer keys (the non-comparison
//!   alternative for the score-ranking step).
//! * [`histogram`] — privatized parallel histograms (radix passes, degree
//!   statistics).
//! * [`topk`] — parallel top-k selection (what Algorithm 1's final sort
//!   actually needs: the k largest scores).
//! * [`scatter`] — atomic scatter-add accumulators for the Ψ/Δ* sums.
//! * [`blocked`] — privatized, cache-blocked scatter accumulation (the
//!   contention-free alternative), plus the kernel-choice heuristic.
//! * [`pool`] — scoped rayon thread-pool helpers for the ablation benches,
//!   with a process-wide memoized pool cache.
//!
//! # Choosing a scatter/gather kernel
//!
//! The Ψ/Δ* accumulation (`m·Γ` updates into `n` slots) has these kernels
//! across this crate and `pooled_design`:
//!
//! | kernel | where | atomics | extra memory | wins when |
//! |---|---|---|---|---|
//! | scatter (atomic) | [`scatter::AtomicCounters`] | yes | none | sparse updates (`m·Γ ≪ t·n`), streaming designs |
//! | scatter (blocked) | [`blocked::BlockedScatter`] | no | `t·n` words/plane | dense updates (`m·Γ ≳ 4·t·n`), replicate loops (buffers reused) |
//! | gather (index) | `CsrDesign::gather_distinct_into` | no | none | materialized CSR without a bitmap, or weights past the popcount crossover |
//! | gather (popcount) | `CsrDesign::gather_distinct_into` | no | `n·⌈m/64⌉`-word entry bitmap per design | distinct density ≥ 1/32, and mixed weight bit-planes ≤ 5/4 of the incidences per bitmap word (30 planes at the paper's `c = ½`; `y` uses about 5): the engine's per-job decodes |
//! | fused | `pooled_design::fused` | no | arena (reused) | Monte-Carlo trials: `y`, Ψ and Δ* from **one** traversal |
//! | batched | `pooled_design::batched` | no | planes (reused) | B jobs sharing a design: one traversal serves the whole batch |
//!
//! [`blocked::choose_scatter`] encodes the density heuristic; the fused
//! kernels in `pooled_design` call it internally.

pub mod blocked;
pub mod chunks;
pub mod histogram;
pub mod lru;
pub mod pool;
pub mod radix;
pub mod scan;
pub mod scatter;
pub mod sort;
pub mod topk;

pub use blocked::{choose_scatter, BlockedScatter, ScatterKind};
pub use chunks::even_ranges;
pub use histogram::par_histogram;
pub use lru::LruCache;
pub use pool::{install_with_threads, pool_with_threads};
pub use radix::{par_radix_sort_pairs, radix_rank_desc};
pub use scatter::AtomicCounters;
pub use sort::{par_merge_sort, par_merge_sort_with};
pub use topk::{top_k_indices, top_k_into, TopKScratch};
