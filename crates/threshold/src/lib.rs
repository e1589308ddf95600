#![warn(missing_docs)]

//! Threshold group testing — the reconstruction problem the paper's §VI
//! singles out as the natural next target for its techniques.
//!
//! In the additive model a query returns the exact number of one-entries in
//! its pool; in the **threshold model** it returns a single bit: `1` iff
//! that count reaches a threshold `T ≥ 1`. (`T = 1` is classical binary
//! group testing; a *gapped* variant leaves a band `[L, U)` where the
//! outcome is adversarially/randomly undetermined.) The paper conjectures
//! that its score-and-rank approach transfers; this crate is that transfer:
//!
//! * [`channel`] — threshold and gapped-threshold query execution over any
//!   [`pooled_design::PoolingDesign`] (distinct-membership counting, the
//!   wet-lab semantics).
//! * [`decoder`] — the **Threshold-MN decoder**: score each entry by the
//!   degree-normalized count of positive queries in its neighborhood, keep
//!   the `k` best. One-entries tilt their queries positive with probability
//!   `p1 > p0` ([`pooled_theory::threshold_gt`]), so the scores separate
//!   exactly as in Corollary 6 with `(p1 − p0)` playing the role of the
//!   additive separation.
//! * [`design_choice`] — pool-size selection: the separation-efficiency
//!   optimum `Γ*(n, k, T)` from `pooled-theory`, materialized as a
//!   without-replacement design.
//! * [`verify`] — consistency checking of an estimate against observed
//!   threshold bits (the analogue of a zero residual).
//! * [`refine_bits`](mod@refine_bits) — disagreement-guided swap search after decoding
//!   (the one-bit analogue of `pooled_core::refine`).
//!
//! ```
//! use pooled_threshold::{channel::ThresholdChannel, decoder::ThresholdMnDecoder};
//! use pooled_threshold::design_choice::recommended_design;
//! use pooled_core::Signal;
//! use pooled_rng::SeedSequence;
//!
//! let seeds = SeedSequence::new(7);
//! let (n, k, t) = (600, 6, 2);
//! let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
//! let design = recommended_design(n, k, t, 700, &seeds.child("design", 0));
//! let bits = ThresholdChannel::new(t).execute(&design, &sigma);
//! let out = ThresholdMnDecoder::new(k).decode(&design, &bits);
//! assert_eq!(out.estimate, sigma);
//! ```

pub mod channel;
pub mod decoder;
pub mod design_choice;
pub mod refine_bits;
pub mod verify;

pub use channel::{GappedChannel, ThresholdChannel};
pub use decoder::{ThresholdMnDecoder, ThresholdOutput};
pub use design_choice::recommended_design;
pub use refine_bits::{refine_bits, BitRefineConfig, BitRefineOutput};
pub use verify::{consistency_report, ConsistencyReport};
