//! Job descriptions and results — the engine's wire types.
//!
//! A [`JobSpec`] is everything needed to reproduce one reconstruction
//! end-to-end: instance shape, design choice, decoder choice, and the
//! seeds all randomness derives from. Both [`JobSpec`] and [`JobResult`]
//! are `Copy` on purpose: they travel through the engine's preallocated
//! ring queues without touching the heap, which is what makes steady-state
//! serving allocation-free.
//!
//! Results carry compact **digests** of the decoded support and scores
//! (order-sensitive chains — every decoder emits its support in a
//! deterministic ranking order) instead of the vectors themselves. Two
//! runs of the same job are bit-identical exactly when their
//! [`JobResult::fingerprint`]s agree — the property the determinism
//! suite pins across worker counts.

use pooled_design::factory::DesignKind;
use pooled_rng::splitmix::mix64;

/// Which decoder a job runs (dispatched through the trait-object registry
/// in [`crate::registry`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecoderKind {
    /// Algorithm 1 (classic MN).
    Mn,
    /// The Γ-general MN decoder (per-query centering, exact `i128` scores).
    GeneralMn,
    /// Threshold-MN on the one-bit median-threshold channel.
    ThresholdMn,
    /// Deliberately panicking probe for the crate's own panic-containment
    /// tests. It exists only in test builds and is absent from
    /// [`Self::ALL`], so [`Self::from_name`] cannot reach it and it has no
    /// wire code.
    #[cfg(test)]
    PanicProbe,
}

impl DecoderKind {
    /// Every decoder, in presentation order.
    pub const ALL: [DecoderKind; 3] =
        [DecoderKind::Mn, DecoderKind::GeneralMn, DecoderKind::ThresholdMn];

    /// Stable identifier for CLI flags, manifests and telemetry rows.
    pub fn name(&self) -> &'static str {
        match self {
            DecoderKind::Mn => "mn",
            DecoderKind::GeneralMn => "mn_general",
            DecoderKind::ThresholdMn => "threshold_mn",
            #[cfg(test)]
            DecoderKind::PanicProbe => "panic_probe",
        }
    }

    /// Inverse of [`Self::name`] over [`Self::ALL`].
    pub fn from_name(name: &str) -> Option<DecoderKind> {
        DecoderKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// Which pooling design a job decodes against. Jobs sharing a spec share
/// the sampled design through the engine's LRU design cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DesignSpec {
    /// Design family.
    pub kind: DesignKind,
    /// Density `c = Γ/n` in thousandths (integer so the spec can be a
    /// hash key; the paper's `c = 1/2` is `500`).
    pub c_milli: u32,
    /// Seed of the design's private randomness stream.
    pub seed: u64,
}

impl DesignSpec {
    /// The paper's design at density `c = 1/2`.
    pub fn random_regular(seed: u64) -> Self {
        Self { kind: DesignKind::RandomRegular, c_milli: 500, seed }
    }

    /// Density as a float.
    pub fn c(&self) -> f64 {
        self.c_milli as f64 / 1000.0
    }
}

/// One reconstruction request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen identifier, echoed in the result (unique per batch).
    pub id: u64,
    /// Number of entries.
    pub n: usize,
    /// Signal weight.
    pub k: usize,
    /// Number of queries.
    pub m: usize,
    /// Pooling design (cache key together with `n`, `m`).
    pub design: DesignSpec,
    /// Decoder to run.
    pub decoder: DecoderKind,
    /// Seed of the job's private randomness (signal draw).
    pub seed: u64,
    /// Simulated wall-clock cost of *executing* the pooled queries, in
    /// microseconds. The paper's premise is that queries dominate
    /// reconstruction time (wet-lab robots, GPU inference); the worker
    /// sleeps this long before decoding, so multi-worker shards overlap
    /// query latency exactly like parallel lab equipment would.
    pub query_cost_micros: u32,
}

impl JobSpec {
    /// Validate the spec's internal consistency.
    ///
    /// # Panics
    /// Panics on an infeasible spec (`n == 0`, `m == 0`, `k > n`, or a
    /// density outside `(0, 1]`); the engine rejects jobs at submission
    /// rather than poisoning a worker.
    pub fn validate(&self) {
        assert!(self.n > 0, "job {}: n must be positive", self.id);
        assert!(self.m > 0, "job {}: m must be positive", self.id);
        assert!(self.k <= self.n, "job {}: k={} exceeds n={}", self.id, self.k, self.n);
        assert!(
            self.design.c_milli >= 1 && self.design.c_milli <= 1000,
            "job {}: density c_milli={} outside [1,1000]",
            self.id,
            self.design.c_milli
        );
    }

    /// Non-panicking form of [`Self::validate`]'s checks. The transport
    /// server uses this to answer an infeasible remote spec with a
    /// `REJECT` frame instead of letting a panic unwind its event loop.
    pub fn is_feasible(&self) -> bool {
        self.k <= self.n && self.design_key().is_feasible()
    }

    /// The design-cache key this job resolves to — also the cluster
    /// router's placement key: jobs sharing a design key land on the
    /// same node, so that node's cache stays hot for its key slice.
    pub fn design_key(&self) -> crate::cache::DesignKey {
        crate::cache::DesignKey::of(self)
    }

    /// Whether the trace-sampling knob `every` selects this job for span
    /// tracing: `0` never, `1` always, `k` when `id % k == 0`. A pure
    /// function of the job id — a sampled run records the *same* jobs
    /// regardless of worker count, topology, or timing, so sampled
    /// postmortems are comparable across configurations.
    pub fn trace_sampled(&self, every: u64) -> bool {
        match every {
            0 => false,
            k => self.id.is_multiple_of(k),
        }
    }
}

/// One completed reconstruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobResult {
    /// The spec's `id`.
    pub id: u64,
    /// The decoder that ran.
    pub decoder: DecoderKind,
    /// Whether the estimate equals the hidden signal exactly.
    pub exact: bool,
    /// `|supp(σ̃) ∩ supp(σ)|` — correctly recovered one-entries.
    pub hits: u32,
    /// Estimate weight (`min(k, n)` for every registry decoder).
    pub weight: u32,
    /// Order-sensitive digest of the selected support indices.
    pub support_digest: u64,
    /// Digest of the decoder's per-entry scores.
    pub score_digest: u64,
    /// Decode-stage time (µs), excluding the simulated query execution.
    pub decode_micros: u64,
    /// Time spent waiting in the submission queue (µs).
    pub queue_micros: u64,
    /// Sojourn time (µs): queue wait plus the worker's service time —
    /// the latency a tenant observes.
    pub total_micros: u64,
    /// Index of the worker shard that served the job.
    pub worker: u32,
}

/// Sentinel `support_digest` marking a result whose decoder panicked and
/// was contained (see [`JobResult::decode_poisoned`]). A real decode
/// cannot plausibly produce this exact digest with `weight == 0`.
pub const POISONED_SUPPORT_DIGEST: u64 = 0xFA11_ED00_DEC0_DE99;

impl JobResult {
    /// The REJECT-class result minted when `spec`'s decoder panicked:
    /// `exact = false`, zero hits/weight, and the poisoned sentinel
    /// digest. A pure function of the spec (no timings, no randomness),
    /// so containment preserves the determinism contract — every replay
    /// of a poisoned job fingerprints identically.
    pub fn decode_poisoned(spec: &JobSpec, worker: u32) -> JobResult {
        JobResult {
            id: spec.id,
            decoder: spec.decoder,
            exact: false,
            hits: 0,
            weight: 0,
            support_digest: POISONED_SUPPORT_DIGEST,
            score_digest: 0,
            decode_micros: 0,
            queue_micros: 0,
            total_micros: 0,
            worker,
        }
    }

    /// Whether this result marks a contained decoder panic rather than a
    /// completed decode.
    pub fn is_decode_poisoned(&self) -> bool {
        self.weight == 0 && self.support_digest == POISONED_SUPPORT_DIGEST
    }

    /// Digest of every *deterministic* field — everything except timings
    /// and worker placement. Two runs of the same spec must produce equal
    /// fingerprints regardless of worker count or scheduling.
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.push(self.id);
        d.push(self.decoder as u64);
        d.push(self.exact as u64);
        d.push(self.hits as u64);
        d.push(self.weight as u64);
        d.push(self.support_digest);
        d.push(self.score_digest);
        d.finish()
    }
}

/// Incremental 64-bit digest (mix64 chaining) for supports, scores and
/// result fingerprints. Not cryptographic — collision resistance here only
/// needs to make accidental equality of different decodes implausible.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Fresh digest with a fixed initial state.
    pub fn new() -> Self {
        Digest(0x9E37_79B9_7F4A_7C15)
    }

    /// Fold in one word.
    pub fn push(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v).wrapping_add(0x2545_F491_4F6C_DD1D);
    }

    /// Fold in a signed wide score (hi/lo split).
    pub fn push_i128(&mut self, v: i128) {
        self.push(v as u64);
        self.push((v >> 64) as u64);
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// Digest a slice of support indices (order-sensitive; every registry
/// decoder emits its support in ranking order, which is deterministic).
pub fn digest_support(support: &[usize]) -> u64 {
    let mut d = Digest::new();
    for &i in support {
        d.push(i as u64);
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_names_roundtrip() {
        for kind in DecoderKind::ALL {
            assert_eq!(DecoderKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(DecoderKind::from_name("nope"), None);
    }

    #[test]
    fn digests_distinguish_order_and_content() {
        assert_ne!(digest_support(&[1, 2, 3]), digest_support(&[3, 2, 1]));
        assert_ne!(digest_support(&[1, 2, 3]), digest_support(&[1, 2, 4]));
        assert_eq!(digest_support(&[1, 2, 3]), digest_support(&[1, 2, 3]));
    }

    #[test]
    fn fingerprint_ignores_timing_and_worker() {
        let a = JobResult {
            id: 7,
            decoder: DecoderKind::Mn,
            exact: true,
            hits: 5,
            weight: 5,
            support_digest: 11,
            score_digest: 22,
            decode_micros: 100,
            queue_micros: 40,
            total_micros: 200,
            worker: 0,
        };
        let b =
            JobResult { decode_micros: 999, queue_micros: 0, total_micros: 1234, worker: 3, ..a };
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = JobResult { hits: 4, ..a };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    #[should_panic(expected = "exceeds n")]
    fn validate_rejects_oversized_k() {
        JobSpec {
            id: 0,
            n: 10,
            k: 11,
            m: 5,
            design: DesignSpec::random_regular(1),
            decoder: DecoderKind::Mn,
            seed: 1,
            query_cost_micros: 0,
        }
        .validate();
    }
}
