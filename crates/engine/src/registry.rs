//! The decoder registry: every reconstruction algorithm the engine can
//! serve, behind one trait object.
//!
//! [`decoder`] maps a [`DecoderKind`] to a `&'static dyn EngineDecoder`.
//! The hot decoders (classic MN, Γ-general MN) route through PR 1's
//! workspace entry points and are **allocation-free** after warm-up; the
//! channel-transfer and baseline decoders reuse their crates' one-shot
//! APIs (they allocate, and the registry documents that — they exist for
//! comparative traffic, not the hot path).
//!
//! A decoder's contract: given the design, the additive query results
//! `y`, the target weight `k` and the hidden [`Truth`] (engine jobs are
//! self-checking synthetic instances), produce a [`DecodeOutcome`] whose
//! digests are a pure function of `(design, y, k, seed)` — never of
//! worker placement or timing. The determinism suite holds every
//! registered decoder to this. The truth only scores the estimate, so a
//! worker passes the `k`-entry support it drew and never materializes a
//! dense `n`-byte signal.

use pooled_baselines::control::{PsiOnlyDecoder, RandomGuessDecoder};
use pooled_baselines::omp::OmpDecoder;
use pooled_baselines::AdditiveDecoder;
use pooled_core::mn::MnDecoder;
use pooled_core::mn_general::GeneralMnDecoder;
use pooled_core::workspace::MnWorkspace;
use pooled_design::factory::AnyDesign;
use pooled_design::PoolingDesign;
use pooled_rng::SeedSequence;
use pooled_threshold::decoder::ThresholdMnDecoder;

use crate::job::{digest_support, DecoderKind, Digest};

/// Per-worker scratch shared by every decoder: the PR 1 workspace plus a
/// bit buffer for the threshold channel.
#[derive(Default)]
pub struct DecodeScratch {
    /// Reusable MN decode workspace (buffers grow once per shape).
    pub ws: MnWorkspace,
    /// Threshold-channel bit buffer.
    pub bits: Vec<u8>,
}

impl DecodeScratch {
    /// Empty scratch; every buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What a decoder hands back to the worker (see module docs for the
/// determinism contract).
#[derive(Clone, Copy, Debug)]
pub struct DecodeOutcome {
    /// Order-sensitive digest of the selected support.
    pub support_digest: u64,
    /// Digest of the per-entry scores (0 when the decoder has none).
    pub score_digest: u64,
    /// Correctly recovered one-entries.
    pub hits: u32,
    /// Estimate weight.
    pub weight: u32,
}

/// The hidden signal an estimate is scored against.
#[derive(Clone, Copy, Debug)]
pub enum Truth<'a> {
    /// Dense 0/1 indicator of length `n`.
    Dense(&'a [u8]),
    /// The one-entries, ascending (what a worker draws: `k` indices
    /// instead of `n` bytes).
    Support(&'a [usize]),
}

impl Truth<'_> {
    /// How many of the `selected` entries are one-entries.
    pub fn hits(self, selected: &[usize]) -> u32 {
        let hit = |i: usize| match self {
            Truth::Dense(dense) => dense[i] == 1,
            Truth::Support(support) => support.binary_search(&i).is_ok(),
        };
        selected.iter().filter(|&&i| hit(i)).count() as u32
    }
}

/// One servable reconstruction algorithm.
pub trait EngineDecoder: Send + Sync {
    /// Stable identifier (matches [`DecoderKind::name`]).
    fn name(&self) -> &'static str;

    /// Whether steady-state serving through this decoder is
    /// allocation-free (pinned by `tests/alloc_free.rs` for the decoders
    /// that claim it).
    fn alloc_free(&self) -> bool {
        false
    }

    /// Decode `y` against `design`, scoring against the hidden `truth`.
    fn decode_against(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        seed: u64,
        truth: Truth<'_>,
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome;

    /// [`Self::decode_against`] a dense 0/1 truth of length `n`.
    fn decode(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        seed: u64,
        truth: &[u8],
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        self.decode_against(design, y, k, seed, Truth::Dense(truth), scratch)
    }
}

/// The registry: one static decoder per [`DecoderKind`].
pub fn decoder(kind: DecoderKind) -> &'static dyn EngineDecoder {
    match kind {
        DecoderKind::Mn => &MnEngine,
        DecoderKind::GeneralMn => &GeneralMnEngine,
        DecoderKind::ThresholdMn => &ThresholdMnEngine,
        DecoderKind::PsiOnly => &PsiOnlyEngine,
        DecoderKind::RandomGuess => &RandomGuessEngine,
        DecoderKind::Omp => &OmpEngine,
        DecoderKind::PanicProbe => &PanicProbeEngine,
    }
}

/// Count support hits against the truth and fold the outcome.
fn outcome(support: &[usize], score_digest: u64, truth: Truth<'_>) -> DecodeOutcome {
    DecodeOutcome {
        support_digest: digest_support(support),
        score_digest,
        hits: truth.hits(support),
        weight: support.len() as u32,
    }
}

/// Algorithm 1 through the workspace gather path (allocation-free).
struct MnEngine;

impl EngineDecoder for MnEngine {
    fn name(&self) -> &'static str {
        "mn"
    }

    fn alloc_free(&self) -> bool {
        true
    }

    fn decode_against(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: Truth<'_>,
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        MnDecoder::new(k).decode_csr_with(design.csr(), y, &mut scratch.ws);
        let mut d = Digest::new();
        for &s in scratch.ws.scores() {
            d.push(s as u64);
        }
        outcome(scratch.ws.support(), d.finish(), truth)
    }
}

/// Γ-general MN through the workspace path (allocation-free).
struct GeneralMnEngine;

impl EngineDecoder for GeneralMnEngine {
    fn name(&self) -> &'static str {
        "mn_general"
    }

    fn alloc_free(&self) -> bool {
        true
    }

    fn decode_against(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: Truth<'_>,
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        GeneralMnDecoder::new(k).decode_with(design, y, &mut scratch.ws);
        let mut d = Digest::new();
        for &s in scratch.ws.scores_wide() {
            d.push_i128(s);
        }
        outcome(scratch.ws.support(), d.finish(), truth)
    }
}

/// Threshold-MN on the median-threshold one-bit channel: the additive
/// results are collapsed to `y_q ≥ t` with `t = max(1, round(Γ·k/n))`
/// (the null mean, so bits split near 50/50) before decoding.
struct ThresholdMnEngine;

impl EngineDecoder for ThresholdMnEngine {
    fn name(&self) -> &'static str {
        "threshold_mn"
    }

    fn decode_against(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: Truth<'_>,
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let n = design.n() as u64;
        let t = ((design.gamma() as u64 * k as u64 + n / 2) / n).max(1);
        scratch.bits.clear();
        scratch.bits.extend(y.iter().map(|&v| (v >= t) as u8));
        let out = ThresholdMnDecoder::new(k).decode(design, &scratch.bits);
        let mut d = Digest::new();
        for &s in &out.scores {
            d.push(s as u64);
        }
        outcome(out.estimate.support(), d.finish(), truth)
    }
}

/// Ψ-only ablation baseline (no degree centering).
struct PsiOnlyEngine;

impl EngineDecoder for PsiOnlyEngine {
    fn name(&self) -> &'static str {
        "psi_only"
    }

    fn decode_against(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: Truth<'_>,
        _scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let estimate = PsiOnlyDecoder::new().reconstruct(design.csr(), y, k);
        outcome(estimate.support(), 0, truth)
    }
}

/// Random-guess control, seeded from the job so reruns are bit-identical.
struct RandomGuessEngine;

impl EngineDecoder for RandomGuessEngine {
    fn name(&self) -> &'static str {
        "random_guess"
    }

    fn decode_against(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        seed: u64,
        truth: Truth<'_>,
        _scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let guess = RandomGuessDecoder::new(SeedSequence::new(seed).child("guess", 0));
        let estimate = guess.reconstruct(design.csr(), y, k);
        outcome(estimate.support(), 0, truth)
    }
}

/// Orthogonal Matching Pursuit baseline (densifies the design: `m·n`
/// doubles — route only small instances here).
struct OmpEngine;

impl EngineDecoder for OmpEngine {
    fn name(&self) -> &'static str {
        "omp"
    }

    fn decode_against(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: Truth<'_>,
        _scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let estimate = OmpDecoder::new().reconstruct(design.csr(), y, k);
        outcome(estimate.support(), 0, truth)
    }
}

/// The hidden probe behind [`DecoderKind::PanicProbe`]: always panics.
/// Exists so the panic-containment tests can poison a worker's decode
/// stage on demand; never reachable from real traffic (the kind is not
/// in [`DecoderKind::ALL`]).
struct PanicProbeEngine;

impl EngineDecoder for PanicProbeEngine {
    fn name(&self) -> &'static str {
        "panic_probe"
    }

    fn decode_against(
        &self,
        _design: &AnyDesign,
        _y: &[u64],
        _k: usize,
        _seed: u64,
        _truth: Truth<'_>,
        _scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        panic!("panic probe decoder: deliberate decode-stage panic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_core::query::execute_queries;
    use pooled_core::Signal;
    use pooled_design::factory::DesignKind;

    fn instance(seed: u64) -> (AnyDesign, Signal, Vec<u64>, usize) {
        let seeds = SeedSequence::new(seed);
        let (n, k, m) = (300, 5, 220);
        let design = DesignKind::RandomRegular.sample(n, m, 0.5, &seeds.child("design", 0));
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let y = execute_queries(&design, &sigma);
        (design, sigma, y, k)
    }

    #[test]
    fn registry_names_match_kinds() {
        for kind in DecoderKind::ALL {
            assert_eq!(decoder(kind).name(), kind.name());
        }
    }

    #[test]
    fn every_decoder_produces_a_weight_k_estimate() {
        let (design, sigma, y, k) = instance(42);
        let mut scratch = DecodeScratch::new();
        for kind in DecoderKind::ALL {
            let out = decoder(kind).decode(&design, &y, k, 7, sigma.dense(), &mut scratch);
            assert_eq!(out.weight as usize, k, "{}", kind.name());
            assert!(out.hits <= out.weight, "{}", kind.name());
        }
    }

    #[test]
    fn decodes_are_reproducible() {
        let (design, sigma, y, k) = instance(43);
        let mut a = DecodeScratch::new();
        let mut b = DecodeScratch::new();
        for kind in DecoderKind::ALL {
            let x = decoder(kind).decode(&design, &y, k, 9, sigma.dense(), &mut a);
            let z = decoder(kind).decode(&design, &y, k, 9, sigma.dense(), &mut b);
            assert_eq!(x.support_digest, z.support_digest, "{}", kind.name());
            assert_eq!(x.score_digest, z.score_digest, "{}", kind.name());
            assert_eq!(x.hits, z.hits, "{}", kind.name());
        }
    }

    #[test]
    fn support_and_dense_truths_score_alike() {
        let (design, sigma, y, k) = instance(46);
        let mut scratch = DecodeScratch::new();
        for kind in DecoderKind::ALL {
            let dense = decoder(kind).decode(&design, &y, k, 3, sigma.dense(), &mut scratch);
            let sparse = decoder(kind).decode_against(
                &design,
                &y,
                k,
                3,
                Truth::Support(sigma.support()),
                &mut scratch,
            );
            assert_eq!(sparse.hits, dense.hits, "{}", kind.name());
            assert_eq!(sparse.support_digest, dense.support_digest, "{}", kind.name());
            assert_eq!(sparse.score_digest, dense.score_digest, "{}", kind.name());
        }
    }

    #[test]
    fn truth_hits_count_selected_one_entries() {
        let dense = [0u8, 1, 0, 1, 1, 0];
        let support = [1usize, 3, 4];
        for selected in [&[][..], &[0, 2, 5], &[4, 1], &[5, 3, 0, 4]] {
            let want = selected.iter().filter(|&&i| dense[i] == 1).count() as u32;
            assert_eq!(Truth::Dense(&dense).hits(selected), want, "{selected:?}");
            assert_eq!(Truth::Support(&support).hits(selected), want, "{selected:?}");
        }
    }

    #[test]
    fn mn_recovers_an_easy_instance() {
        let (design, sigma, y, k) = instance(44);
        let mut scratch = DecodeScratch::new();
        let out = decoder(DecoderKind::Mn).decode(&design, &y, k, 0, sigma.dense(), &mut scratch);
        assert_eq!(out.hits as usize, k, "MN should recover at m comfortably above threshold");
    }

    #[test]
    fn decoders_disagree_on_scores() {
        // The registry must dispatch to genuinely different algorithms:
        // MN and Ψ-only produce different digests on a generic instance.
        let (design, sigma, y, k) = instance(45);
        let mut scratch = DecodeScratch::new();
        let mn = decoder(DecoderKind::Mn).decode(&design, &y, k, 0, sigma.dense(), &mut scratch);
        let gen =
            decoder(DecoderKind::GeneralMn).decode(&design, &y, k, 0, sigma.dense(), &mut scratch);
        // Same ranking on the regular design (property-tested in core),
        // but the score spaces differ.
        assert_eq!(mn.support_digest, gen.support_digest);
        assert_ne!(mn.score_digest, gen.score_digest);
    }
}
