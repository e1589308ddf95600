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
//! Decode is then nearly all of a job. Every served decoder (MN,
//! Γ-general MN, Threshold-MN) takes its Ψ/Δ* sums from
//! `CsrDesign::gather_distinct_visit`, which counts by popcount over the
//! design's entry bitmap, built once when the design is sampled or
//! reloaded, on the fastest instruction arm the CPU has, and scores,
//! ranks and digests each entry inside that one pass. On the repository
//! benchmark's `single_large` workload (n=10⁴, k=16, m=862) a decode
//! reads a 1.1 MiB bitmap that stays in L2 instead of streaming 13.6 MB
//! of transpose indices. On a 2-vCPU Xeon VM with AVX-512, whose
//! `VPOPCNTQ` counts one bitmap word of eight entries at once, the median
//! decode of two traced runs took 109–116 µs of a 132–138 µs service
//! time, against 185–199 of 213–226 µs with the scores, the selection and
//! the score digest in loops after the kernel, in runs alternated with
//! them on the same VM.
//!
//! A worker serves jobs in **runs**: up to the engine's batch window of
//! consecutive queued jobs that resolve to one design key, whatever their
//! decoders or weights. A run of one is the common case. One loop serves
//! every run: the engine probes the design cache once
//! for the run, the loop sleeps once for the run's slowest simulated query
//! execution (parallel lab equipment runs the lanes' queries side by
//! side), and then serves lane after lane through the per-job stages
//! (support draw, `execute_queries_support_into`, the registry decode),
//! each lane under its own `catch_unwind` with its own decode span and
//! its own measured `decode_micros`. Every lane's result is bit-identical
//! to [`process_job`] on that spec alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pooled_core::query::execute_queries_support_into;
use pooled_design::factory::AnyDesign;
use pooled_design::PoolingDesign;
use pooled_rng::shuffle::sample_distinct_floyd_into;
use pooled_rng::SeedSequence;

use crate::job::{JobResult, JobSpec};
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
}

impl WorkerScratch {
    /// Empty scratch for shard `worker`; buffers grow on first use.
    pub fn new(worker: u32) -> Self {
        Self { worker, support: Vec::new(), y: Vec::new(), decode: DecodeScratch::new() }
    }

    /// Empty scratch for shard `worker` serving runs of up to
    /// `batch_window` jobs. The window sizes nothing: a run is served lane
    /// by lane through the same per-job buffers, so this equals
    /// [`Self::new`].
    pub fn with_batch_window(worker: u32, _batch_window: usize) -> Self {
        Self::new(worker)
    }

    /// The shard index.
    pub fn worker(&self) -> u32 {
        self.worker
    }
}

/// A run of same-design jobs as `serve_run` walks it: a plain slice of
/// specs, or the engine's queued jobs, whose sampled traces take each
/// lane's decode span.
pub(crate) trait Run {
    /// Jobs in the run.
    fn lanes(&self) -> usize;
    /// Lane `lane`'s spec.
    fn spec(&self, lane: usize) -> &JobSpec;
    /// Lane `lane`'s trace, when the job is traced.
    fn trace(&mut self, _lane: usize) -> Option<&mut JobTrace> {
        None
    }
}

impl Run for &[JobSpec] {
    fn lanes(&self) -> usize {
        self.len()
    }

    fn spec(&self, lane: usize) -> &JobSpec {
        &self[lane]
    }
}

/// Run one job against its (cached) design: its query-latency sleep, then
/// the per-job stages. Deterministic: every random draw derives from
/// `spec.seed` / `spec.design.seed`, so the result fingerprint is
/// independent of worker placement and timing. A panicking decoder
/// unwinds out of this call; [`process_batch`] and the engine contain it.
pub fn process_job(spec: &JobSpec, design: &AnyDesign, scratch: &mut WorkerScratch) -> JobResult {
    let started = Instant::now();
    sleep_micros(spec.query_cost_micros);
    let mut result = serve_lane(spec, design, scratch, None);
    result.total_micros = started.elapsed().as_micros() as u64;
    result
}

/// Serve a run of jobs that share `design` through the engine's serve
/// loop, untraced: one sleep for the slowest lane's query execution, then
/// each lane through the per-job stages, a panicking lane contained to a
/// poisoned result. Appends one [`JobResult`] per spec, in spec order;
/// each lane's fingerprint equals [`process_job`]'s for the same spec.
/// `decode_micros` is each lane's own, and every lane shares the run's
/// service time.
pub fn process_batch(
    specs: &[JobSpec],
    design: &AnyDesign,
    scratch: &mut WorkerScratch,
    out: &mut Vec<JobResult>,
) {
    serve_run(specs, design, scratch, None, out);
}

/// The one serve loop, for a run of one job or a window's worth: one
/// sleep for the run's slowest query execution (the simulated executions
/// overlap, so the run waits for the slowest lane, not the sum), then each
/// lane through the per-job stages. A lane whose decoder panics yields a
/// REJECT-class poisoned result and the lanes after it are still served;
/// the scratch is safe to reuse after an unwind, because every stage
/// resizes or clears its buffers at use. With a recorder, each traced
/// lane gets its own decode span on the recorder's clock (a poisoned lane
/// keeps `decode_start` with no `decode_end`). Timestamps never feed a
/// seed or a kernel input, so tracing is fingerprint-invisible.
///
/// Appends one [`JobResult`] per lane, in lane order. `decode_micros` is
/// each lane's own; every lane shares the run's service time, because the
/// engine delivers the run's results together.
pub(crate) fn serve_run(
    mut run: impl Run,
    design: &AnyDesign,
    scratch: &mut WorkerScratch,
    recorder: Option<&FlightRecorder>,
    out: &mut Vec<JobResult>,
) {
    let started = Instant::now();
    let lanes = run.lanes();
    sleep_micros((0..lanes).map(|b| run.spec(b).query_cost_micros).max().unwrap_or(0));
    let first = out.len();
    for b in 0..lanes {
        let spec = *run.spec(b);
        let tracing = recorder.zip(run.trace(b));
        let served = catch_unwind(AssertUnwindSafe(|| serve_lane(&spec, design, scratch, tracing)));
        out.push(served.unwrap_or_else(|_| JobResult::decode_poisoned(&spec, scratch.worker)));
    }
    let total_micros = started.elapsed().as_micros() as u64;
    for result in &mut out[first..] {
        // Service time only; the engine adds the queue wait it measured.
        result.total_micros = total_micros;
    }
}

/// Simulate executing the pooled queries — the latency the paper's
/// parallel design exists to hide. Worker shards overlap these sleeps
/// exactly like parallel lab equipment.
fn sleep_micros(micros: u32) {
    if micros > 0 {
        std::thread::sleep(Duration::from_micros(micros as u64));
    }
}

/// The per-job stages of one lane, after its query-latency sleep. Leaves
/// `total_micros` for the caller to stamp.
fn serve_lane(
    spec: &JobSpec,
    design: &AnyDesign,
    scratch: &mut WorkerScratch,
    mut tracing: Option<(&FlightRecorder, &mut JobTrace)>,
) -> JobResult {
    // 1. Draw the hidden weight-k signal's support into a reusable buffer.
    let mut rng = SeedSequence::new(spec.seed).child("signal", 0).rng();
    sample_distinct_floyd_into(spec.n, spec.k, &mut rng, &mut scratch.support);

    // 2. Additive query results y = Aᵀσ, from the support's transpose rows.
    scratch.y.resize(design.m(), 0);
    execute_queries_support_into(design.csr(), &scratch.support, &mut scratch.y);

    // 3. Decode through the registry.
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
        // The engine adds the queue wait it measured.
        queue_micros: 0,
        total_micros: 0,
        worker: scratch.worker,
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
        // A run of same-design jobs (different seeds, weights and
        // decoders) must produce bit-identical fingerprints to serving
        // each spec alone — the batcher's core contract.
        let mut specs: Vec<JobSpec> = (0..7).map(spec).collect();
        specs[3].k = 9;
        specs[4].decoder = DecoderKind::GeneralMn;
        specs[5].decoder = DecoderKind::ThresholdMn;
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
    fn a_panicking_lane_is_poisoned_alone_and_its_run_completes() {
        let mut specs: Vec<JobSpec> = (0..5).map(spec).collect();
        specs[1].decoder = DecoderKind::PanicProbe;
        let design = DesignKey::of(&specs[0]).sample();
        let mut ws = WorkerScratch::new(2);
        let mut out = Vec::new();
        process_batch(&specs, &design, &mut ws, &mut out);
        assert_eq!(out.len(), specs.len());
        for (r, s) in out.iter().zip(&specs) {
            if s.decoder == DecoderKind::PanicProbe {
                assert!(r.is_decode_poisoned(), "the probe lane must fail poisoned");
            } else {
                let want = process_job(s, &design, &mut WorkerScratch::new(2));
                assert_eq!(r.fingerprint(), want.fingerprint(), "lane {}", s.id);
            }
        }
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
