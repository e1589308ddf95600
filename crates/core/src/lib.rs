#![warn(missing_docs)]

//! The paper's primary contribution: reconstruction of a sparse binary
//! signal from parallel additive pooled queries.
//!
//! Pipeline (mirroring Algorithm 1 of the paper):
//!
//! 1. Sample a [`pooled_design::RandomRegularDesign`] `G(n, m, Γ = n/2)`.
//! 2. Execute all queries in parallel: [`query::execute_queries`] returns
//!    `y ∈ {0,…,Γ}^m` with `y_q = Σ_i A_iq·σ_i` (multiplicities count).
//! 3. Decode with the **Maximum Neighborhood** algorithm ([`mn`]): score
//!    every entry by `Ψ_i − Δ*_i·k/2` and keep the `k` largest.
//!
//! Supporting machinery:
//!
//! * [`signal`] — the hidden vector `σ`, uniform over weight-`k` vectors.
//! * [`exhaustive`] — the information-theoretic decoder of Theorem 2
//!   (brute-force consistency search, for small instances).
//! * [`bnb`] — the same count via branch-and-bound with residual pruning
//!   and MN-guided ordering (Theorem 2 checks far beyond `C(n,k)`
//!   enumeration).
//! * [`mn_general`] — the MN algorithm for arbitrary pool sizes and the
//!   alternative design families (per-query centering, `i128` scores).
//! * [`refine`](mod@refine) — residual-guided swap search after MN, attacking the §VI
//!   algorithmic-vs-IT gap without extra queries.
//! * [`workspace`] — the reusable decode workspace behind the `*_with`
//!   entry points; Monte-Carlo loops decode allocation-free with it.
//! * [`noise`] — noisy query channels for the robustness extension.
//! * [`subset_select`] — the Subset Select relaxation (Feige–Lellouche):
//!   return only high-confidence one-entries.
//! * [`metrics`] — exact-recovery / overlap metrics used by every figure.
//!
//! ```
//! use pooled_core::{mn::MnDecoder, query::execute_queries, signal::Signal};
//! use pooled_design::multigraph::RandomRegularDesign;
//! use pooled_rng::SeedSequence;
//!
//! let seeds = SeedSequence::new(1905);
//! let (n, k, m) = (512, 6, 420);
//! let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
//! let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
//! let y = execute_queries(&design, &sigma);
//! let out = MnDecoder::new(k).decode(&design, &y);
//! assert_eq!(out.estimate, sigma);
//! ```

pub mod bnb;
pub mod exhaustive;
pub mod metrics;
pub mod mn;
pub mod mn_general;
pub mod noise;
pub mod query;
pub mod refine;
pub mod signal;
pub mod subset_select;
pub mod workspace;

pub use metrics::{exact_recovery, exact_recovery_dense, overlap_fraction, overlap_fraction_dense};
pub use mn::{MnDecoder, MnOutput};
pub use mn_general::{GeneralMnDecoder, GeneralMnOutput};
pub use query::execute_queries;
pub use refine::{refine, refine_with, RefineConfig, RefineOutput, RefineStats};
pub use signal::Signal;
pub use workspace::MnWorkspace;

/// Re-export of the closed-form thresholds (Theorems 1–2 and related work)
/// so downstream users need only this crate.
pub use pooled_theory::thresholds;
