//! Per-shard job processing.
//!
//! Each worker owns a [`WorkerScratch`] — every buffer one job needs,
//! reused forever — and runs jobs end to end: draw the hidden signal,
//! simulate query execution (the paper's dominant cost), execute the
//! additive queries, decode through the registry, and score against the
//! truth. After warm-up at a stable job shape the MN paths perform zero
//! heap allocations per job (pinned by `tests/alloc_free.rs`).
//!
//! The signal is `k`-sparse (`k = n^θ`), so a worker never materializes
//! it densely: `y = Aᵀσ` is summed from the CSR transpose rows of the `k`
//! support entries (`O(k·Δ)` work instead of a walk over all `m·Γ`
//! incidences), and the estimate is scored against the support itself.
//!
//! [`process_batch`] is the design-affinity fast path: a run of MN jobs
//! sharing one cached design is served by **one** traversal of the design
//! (`pooled_design::batched::scatter_distinct_batch`) — Ψ accumulation
//! for every lane while each CSR row is in cache, one shared Δ*, and one
//! overlapped query-latency sleep — instead of re-streaming the CSR index
//! arrays once per job. Every lane's result is bit-identical to
//! [`process_job`] on that spec alone.

use std::time::Instant;

use pooled_core::batch::BatchWorkspace;
use pooled_core::mn::MnDecoder;
use pooled_core::query::execute_queries_support_into;
use pooled_design::batched::scatter_distinct_batch;
use pooled_design::factory::AnyDesign;
use pooled_design::PoolingDesign;
use pooled_rng::shuffle::sample_distinct_floyd_into;
use pooled_rng::SeedSequence;

use crate::job::{DecoderKind, Digest, JobResult, JobSpec};
use crate::registry::{decoder, DecodeScratch, Truth};
use crate::telemetry::{FlightRecorder, JobTrace, Span};

/// All buffers a worker reuses across jobs.
pub struct WorkerScratch {
    /// This worker's shard index (stamped into results).
    worker: u32,
    /// Hidden-signal support, ascending.
    support: Vec<usize>,
    /// Additive query results.
    y: Vec<u64>,
    /// Decoder scratch (MN workspace + threshold bits).
    decode: DecodeScratch,
    /// Batched-path planes (lane supports/ys + the batch workspace).
    batch: BatchScratch,
}

/// Reusable planes for [`process_batch`].
#[derive(Default)]
struct BatchScratch {
    /// The widest run this worker may be handed (the engine's batch
    /// window); planes are capacity-reserved for it on first use, so the
    /// first maximal run after warm-up at a shape never allocates.
    window: usize,
    /// Hidden-signal supports, lane after lane, each ascending.
    supports: Vec<usize>,
    /// Lane `b`'s support is `supports[bounds[b]..bounds[b + 1]]`.
    bounds: Vec<usize>,
    /// Query results, lane-major `lanes × m`.
    ys: Vec<u64>,
    /// Ψ lanes + shared Δ* + per-lane finish scratch.
    bw: BatchWorkspace,
}

impl WorkerScratch {
    /// Empty scratch for shard `worker`; buffers grow on first use.
    /// Equivalent to [`Self::with_batch_window`] at window 1.
    pub fn new(worker: u32) -> Self {
        Self::with_batch_window(worker, 1)
    }

    /// Empty scratch for shard `worker` serving runs of up to
    /// `batch_window` jobs: the batch planes reserve capacity for the
    /// full window the first time a traffic shape is seen, so run-length
    /// jitter (queue timing decides how many jobs a worker drains) can
    /// never trigger a mid-serving allocation after warm-up.
    pub fn with_batch_window(worker: u32, batch_window: usize) -> Self {
        Self {
            worker,
            support: Vec::new(),
            y: Vec::new(),
            decode: DecodeScratch::new(),
            batch: BatchScratch { window: batch_window.max(1), ..BatchScratch::default() },
        }
    }

    /// The shard index.
    pub fn worker(&self) -> u32 {
        self.worker
    }
}

/// Whether `candidate` may join a batch anchored by `first`: both must
/// request the classic MN decoder (the batched kernel's algorithm) and
/// resolve to the same design key, so one traversal serves the run.
/// `k` and the job seed may differ per lane — each lane finishes with its
/// own decoder weight against its own hidden signal.
pub fn batch_compatible(first: &JobSpec, candidate: &JobSpec) -> bool {
    first.decoder == DecoderKind::Mn
        && candidate.decoder == DecoderKind::Mn
        && crate::cache::DesignKey::of(first) == crate::cache::DesignKey::of(candidate)
}

/// Run one job against its (cached) design. Deterministic: every random
/// draw derives from `spec.seed` / `spec.design.seed`, so the result
/// fingerprint is independent of worker placement and timing.
pub fn process_job(spec: &JobSpec, design: &AnyDesign, scratch: &mut WorkerScratch) -> JobResult {
    process_job_traced(spec, design, scratch, None)
}

/// [`process_job`] with span tracing: when `tracing` carries a flight
/// recorder and a live trace, the decode stage's entry and exit are
/// stamped on the recorder's clock (`decode_start` / `decode_end`).
/// Timestamps never feed a seed or a kernel input, so the result is
/// bit-identical to the untraced call — tracing is fingerprint-invisible
/// by construction.
pub fn process_job_traced(
    spec: &JobSpec,
    design: &AnyDesign,
    scratch: &mut WorkerScratch,
    mut tracing: Option<(&FlightRecorder, &mut JobTrace)>,
) -> JobResult {
    let started = Instant::now();
    let seeds = SeedSequence::new(spec.seed);

    // 1. Draw the hidden weight-k signal's support into a reusable buffer.
    let mut rng = seeds.child("signal", 0).rng();
    sample_distinct_floyd_into(spec.n, spec.k, &mut rng, &mut scratch.support);

    // 2. Simulate executing the pooled queries — the latency the paper's
    // parallel design exists to hide. Worker shards overlap these sleeps
    // exactly like parallel lab equipment.
    if spec.query_cost_micros > 0 {
        std::thread::sleep(std::time::Duration::from_micros(spec.query_cost_micros as u64));
    }

    // 3. Additive query results y = Aᵀσ, from the support's transpose rows.
    scratch.y.resize(design.m(), 0);
    execute_queries_support_into(design.csr(), &scratch.support, &mut scratch.y);

    // 4. Decode through the registry.
    if let Some((recorder, trace)) = tracing.as_mut() {
        trace.stamp(Span::DecodeStart, recorder.now_micros());
    }
    let decode_started = Instant::now();
    let out = decoder(spec.decoder).decode_against(
        design,
        &scratch.y,
        spec.k,
        spec.seed,
        Truth::Support(&scratch.support),
        &mut scratch.decode,
    );
    let decode_micros = decode_started.elapsed().as_micros() as u64;
    if let Some((recorder, trace)) = tracing.as_mut() {
        trace.stamp(Span::DecodeEnd, recorder.now_micros());
    }

    JobResult {
        id: spec.id,
        decoder: spec.decoder,
        exact: out.hits as usize == spec.k && out.weight as usize == spec.k,
        hits: out.hits,
        weight: out.weight,
        support_digest: out.support_digest,
        score_digest: out.score_digest,
        decode_micros,
        // Service time only; the engine adds the queue wait it measured.
        queue_micros: 0,
        total_micros: started.elapsed().as_micros() as u64,
        worker: scratch.worker,
    }
}

/// Serve a whole run of batch-compatible jobs (see [`batch_compatible`])
/// against their shared design: each lane's `y` from its support's
/// transpose rows, one design traversal for every lane's Ψ accumulation,
/// one shared Δ*, and one sleep for the batch's query latency (the
/// simulated query executions overlap — they would run on parallel lab
/// equipment — so the batch waits for the slowest lane, not the sum).
///
/// Appends one [`JobResult`] per spec, in spec order. Deterministic:
/// every lane's result fingerprint equals [`process_job`]'s for the same
/// spec (exact `u64` sums make the batched accumulation bit-identical);
/// only the timing fields differ — `decode_micros` is the batch's decode
/// time split evenly across lanes, and every lane shares the batch's
/// service time.
///
/// # Panics
/// Panics (debug) if the specs are not mutually batch-compatible.
pub fn process_batch(
    specs: &[JobSpec],
    design: &AnyDesign,
    scratch: &mut WorkerScratch,
    out: &mut Vec<JobResult>,
) {
    debug_assert!(specs.windows(2).all(|w| batch_compatible(&specs[0], &w[1])));
    if specs.is_empty() {
        return;
    }
    let started = Instant::now();
    let csr = design.csr();
    let (n, m) = (csr.n(), csr.m());
    let lanes = specs.len();
    let batch = &mut scratch.batch;

    // Reserve every plane for the widest run this worker can be handed
    // at this shape: run lengths jitter with queue timing, so without
    // this a first-ever maximal run after warm-up would allocate.
    let window = batch.window.max(lanes);
    batch.bw.reserve(window, n);

    // 1. Draw every lane's hidden weight-k signal's support.
    let k_max = specs.iter().map(|s| s.k).max().unwrap_or(0);
    batch.supports.clear();
    batch.supports.reserve(window * k_max);
    batch.bounds.clear();
    batch.bounds.reserve(window + 1);
    batch.bounds.push(0);
    for spec in specs {
        let mut rng = SeedSequence::new(spec.seed).child("signal", 0).rng();
        sample_distinct_floyd_into(spec.n, spec.k, &mut rng, &mut scratch.support);
        batch.supports.extend_from_slice(&scratch.support);
        batch.bounds.push(batch.supports.len());
    }
    let lane_support = |b: usize| &batch.supports[batch.bounds[b]..batch.bounds[b + 1]];

    // 2. One overlapped query-execution sleep for the whole batch.
    let cost = specs.iter().map(|s| s.query_cost_micros).max().unwrap_or(0);
    if cost > 0 {
        std::thread::sleep(std::time::Duration::from_micros(cost as u64));
    }

    // 3. Every lane's y = Aᵀσ from its support's transpose rows.
    batch.ys.clear();
    batch.ys.reserve(window * m);
    batch.ys.resize(lanes * m, 0);
    for b in 0..lanes {
        execute_queries_support_into(csr, lane_support(b), &mut batch.ys[b * m..(b + 1) * m]);
    }

    // 4. One traversal: every lane's Ψ, plus the shared Δ*.
    let decode_started = Instant::now();
    batch.bw.prepare(lanes, n);
    {
        let (psis, dstar) = batch.bw.sums_mut();
        scatter_distinct_batch(csr, &batch.ys, lanes, psis, dstar);
    }

    // 5. Finish each lane with its own decoder weight and score it.
    let first = out.len();
    for (b, spec) in specs.iter().enumerate() {
        let ws = batch.bw.finish_lane(&MnDecoder::new(spec.k), b);
        let mut d = Digest::new();
        for &s in ws.scores() {
            d.push(s as u64);
        }
        let hits = Truth::Support(lane_support(b)).hits(ws.support());
        let weight = ws.support().len() as u32;
        out.push(JobResult {
            id: spec.id,
            decoder: spec.decoder,
            exact: hits as usize == spec.k && weight as usize == spec.k,
            hits,
            weight,
            support_digest: crate::job::digest_support(ws.support()),
            score_digest: d.finish(),
            decode_micros: 0, // patched below once the batch is timed
            queue_micros: 0,  // the engine adds the wait it measured
            total_micros: 0,
            worker: scratch.worker,
        });
    }
    let decode_micros = decode_started.elapsed().as_micros() as u64 / lanes as u64;
    let total_micros = started.elapsed().as_micros() as u64;
    for result in &mut out[first..] {
        result.decode_micros = decode_micros;
        result.total_micros = total_micros;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DesignKey;
    use crate::job::{DecoderKind, DesignSpec};

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            id: seed,
            n: 400,
            k: 6,
            m: 300,
            design: DesignSpec::random_regular(11),
            decoder: DecoderKind::Mn,
            seed,
            query_cost_micros: 0,
        }
    }

    #[test]
    fn same_spec_same_fingerprint_different_scratch() {
        let spec = spec(5);
        let design = DesignKey::of(&spec).sample();
        let mut a = WorkerScratch::new(0);
        let mut b = WorkerScratch::new(3);
        let ra = process_job(&spec, &design, &mut a);
        let rb = process_job(&spec, &design, &mut b);
        assert_eq!(ra.fingerprint(), rb.fingerprint());
        assert_eq!(rb.worker, 3, "worker stamp reflects the shard");
    }

    #[test]
    fn different_seeds_give_different_instances() {
        let sa = spec(1);
        let sb = spec(2);
        let design = DesignKey::of(&sa).sample();
        let mut ws = WorkerScratch::new(0);
        let ra = process_job(&sa, &design, &mut ws);
        let rb = process_job(&sb, &design, &mut ws);
        assert_ne!(ra.fingerprint(), rb.fingerprint());
    }

    #[test]
    fn batch_fingerprints_match_per_job_processing() {
        // A batch of same-design MN jobs (different seeds, different k)
        // must produce bit-identical fingerprints to serving each spec
        // alone — the batcher's core contract.
        let mut specs: Vec<JobSpec> = (0..7).map(spec).collect();
        specs[3].k = 9; // mixed weights are batchable
        let design = DesignKey::of(&specs[0]).sample();
        let mut per_job = WorkerScratch::new(0);
        let want: Vec<u64> =
            specs.iter().map(|s| process_job(s, &design, &mut per_job).fingerprint()).collect();
        let mut batched = WorkerScratch::new(1);
        let mut out = Vec::new();
        process_batch(&specs, &design, &mut batched, &mut out);
        assert_eq!(out.len(), specs.len());
        let got: Vec<u64> = out.iter().map(|r| r.fingerprint()).collect();
        assert_eq!(got, want);
        assert!(out.iter().all(|r| r.worker == 1));
    }

    /// The worker as it was before sparse query execution — a dense 0/1
    /// truth, the dense `y` walk over every pool, scoring against the
    /// dense truth — kept as the oracle the sparse paths must match bit
    /// for bit: `(exact, hits, weight, support digest, score digest)`.
    fn dense_reference(spec: &JobSpec, design: &AnyDesign) -> (bool, u32, u32, u64, u64) {
        let mut support = Vec::new();
        let mut rng = SeedSequence::new(spec.seed).child("signal", 0).rng();
        sample_distinct_floyd_into(spec.n, spec.k, &mut rng, &mut support);
        let mut truth = vec![0u8; spec.n];
        for &i in &support {
            truth[i] = 1;
        }
        let mut y = Vec::new();
        pooled_core::query::execute_queries_dense_into(design, &truth, &mut y);
        let out = decoder(spec.decoder).decode(
            design,
            &y,
            spec.k,
            spec.seed,
            &truth,
            &mut DecodeScratch::new(),
        );
        let exact = out.hits as usize == spec.k && out.weight as usize == spec.k;
        (exact, out.hits, out.weight, out.support_digest, out.score_digest)
    }

    fn observed(r: &JobResult) -> (bool, u32, u32, u64, u64) {
        (r.exact, r.hits, r.weight, r.support_digest, r.score_digest)
    }

    fn on_family(kind: pooled_design::factory::DesignKind, spec: JobSpec) -> JobSpec {
        JobSpec { design: DesignSpec { kind, c_milli: 500, seed: 11 }, ..spec }
    }

    #[test]
    fn sparse_jobs_match_the_dense_reference_for_every_decoder_and_family() {
        let mut scratch = WorkerScratch::new(0);
        for kind in pooled_design::factory::DesignKind::ALL {
            let design = DesignKey::of(&on_family(kind, spec(0))).sample();
            for (i, decoder) in DecoderKind::ALL.into_iter().enumerate() {
                let s = JobSpec { decoder, ..on_family(kind, spec(20 + i as u64)) };
                let got = process_job(&s, &design, &mut scratch);
                assert_eq!(
                    observed(&got),
                    dense_reference(&s, &design),
                    "{} / {}",
                    kind.name(),
                    decoder.name()
                );
            }
        }
    }

    #[test]
    fn sparse_batches_match_the_dense_reference_on_every_family() {
        let mut scratch = WorkerScratch::with_batch_window(0, 8);
        for kind in pooled_design::factory::DesignKind::ALL {
            let mut specs: Vec<JobSpec> = (0..5).map(|s| on_family(kind, spec(40 + s))).collect();
            specs[2].k = 11;
            let design = DesignKey::of(&specs[0]).sample();
            let mut out = Vec::new();
            process_batch(&specs, &design, &mut scratch, &mut out);
            for (r, s) in out.iter().zip(&specs) {
                assert_eq!(observed(r), dense_reference(s, &design), "{} id {}", kind.name(), s.id);
            }
        }
    }

    #[test]
    fn batch_compatibility_requires_mn_and_one_design() {
        let a = spec(1);
        let mut other_design = spec(2);
        other_design.design = DesignSpec::random_regular(99);
        let mut other_decoder = spec(3);
        other_decoder.decoder = DecoderKind::GeneralMn;
        let mut other_k = spec(4);
        other_k.k = 11;
        assert!(batch_compatible(&a, &spec(5)));
        assert!(batch_compatible(&a, &other_k), "k may vary per lane");
        assert!(!batch_compatible(&a, &other_design));
        assert!(!batch_compatible(&a, &other_decoder));
        assert!(!batch_compatible(&other_decoder, &a));
    }

    #[test]
    fn batch_sleeps_the_slowest_lane_once() {
        let mut specs: Vec<JobSpec> = (0..4).map(spec).collect();
        for (i, s) in specs.iter_mut().enumerate() {
            s.query_cost_micros = 5_000 * (i as u32 + 1);
        }
        let design = DesignKey::of(&specs[0]).sample();
        let mut ws = WorkerScratch::new(0);
        let started = Instant::now();
        let mut out = Vec::new();
        process_batch(&specs, &design, &mut ws, &mut out);
        let elapsed = started.elapsed().as_micros() as u64;
        assert!(elapsed >= 20_000, "batch must wait for the slowest lane ({elapsed}µs)");
        assert!(elapsed < 50_000, "batch slept lanes serially ({elapsed}µs ≥ sum of costs)");
    }

    #[test]
    fn query_cost_is_reflected_in_total_latency() {
        let mut s = spec(3);
        s.query_cost_micros = 20_000; // 20 ms
        let design = DesignKey::of(&s).sample();
        let mut ws = WorkerScratch::new(0);
        let r = process_job(&s, &design, &mut ws);
        assert!(r.total_micros >= 20_000, "total {}µs < simulated 20ms", r.total_micros);
        assert!(r.decode_micros < r.total_micros);
    }
}
