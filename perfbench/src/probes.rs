//! Layer probes of the traced run: timed calls into each layer's public
//! functions, outside the measured window, on the workload's own inputs
//! (or, for the design and registry layers, at `cold_churn`'s shape,
//! where those layers matter). Everything runs inside a one-thread rayon
//! pool, as the engine's workers do: the vendored rayon fans out over
//! scoped threads whenever it sees two, and timed outside such a pool a
//! job would run on both cores and the layers would not add up.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use pooled_core::query::execute_queries_dense_into;
use pooled_design::factory::DesignKind;
use pooled_design::PoolingDesign;
use pooled_engine::cache::DesignCache;
use pooled_engine::durability::snapshot::spill_design;
use pooled_engine::transport::frame::{decode_frame, encode_frame, Frame};
use pooled_engine::worker::{process_batch, process_job, WorkerScratch};
use pooled_engine::{decoder, DecodeScratch, DecoderKind, DesignKey, DesignSpec, JobSpec};
use pooled_rng::shuffle::sample_distinct_floyd_into;
use pooled_rng::SeedSequence;

use crate::check::DesignBank;
use crate::gen::{cold_churn_shape, SpecGen, CHURN_DECODERS, CLUSTER_SHAPE};
use crate::phase::Phase;
use crate::stats::median;

/// Run `op` inside a one-thread rayon pool.
pub fn one_thread<R>(op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build a one-thread pool")
        .install(op)
}

fn time_us(op: impl FnOnce()) -> f64 {
    let t = Instant::now();
    op();
    t.elapsed().as_secs_f64() * 1e6
}

/// Median of `reps` timed runs of `op` (µs), after one untimed warm-up.
fn median_us(reps: usize, mut op: impl FnMut()) -> f64 {
    op();
    median((0..reps).map(|_| time_us(&mut op)))
}

/// Per-job buffers of the worker's stages, mirrored from `process_job`.
#[derive(Default)]
struct Stages {
    support: Vec<usize>,
    truth: Vec<u8>,
    y: Vec<u64>,
    decode: DecodeScratch,
}

impl Stages {
    /// Stage 1: draw the hidden signal exactly as the worker does.
    fn signal(&mut self, spec: &JobSpec) {
        let mut rng = SeedSequence::new(spec.seed).child("signal", 0).rng();
        sample_distinct_floyd_into(spec.n, spec.k, &mut rng, &mut self.support);
        self.truth.clear();
        self.truth.resize(spec.n, 0);
        for &i in &self.support {
            self.truth[i] = 1;
        }
    }
}

/// The worker's stage split over the workload's first jobs: signal draw,
/// query execution and decode, each summed, against `process_job` on
/// the same specs.
pub struct Decomposition {
    pub signal_us: f64,
    pub query_us: f64,
    pub decode_us: f64,
    pub job_us: f64,
    pub jobs: usize,
    /// Median over jobs of (signal + query + decode) ÷ `process_job`:
    /// the share of a job the three stages account for. A median, so one
    /// job caught by a host hiccup in either timing cannot move it.
    pub attributed_ratio: f64,
}

/// Decompose jobs `0, 1, …` of `gen` until `budget_s` is spent (at least
/// `min_jobs`).
pub fn decompose(gen: &SpecGen, bank: &mut DesignBank, budget_s: f64) -> Decomposition {
    const MIN_JOBS: usize = 8;
    one_thread(|| {
        let mut st = Stages::default();
        let mut scratch = WorkerScratch::new(0);
        let (mut signal_us, mut query_us, mut decode_us, mut job_us) = (0.0, 0.0, 0.0, 0.0);
        let mut ratios = Vec::new();
        // Warm every buffer at this shape first.
        let first = gen.spec(0);
        black_box(process_job(&first, &bank.get(&first.design_key()), &mut scratch));
        let started = Instant::now();
        let mut id = 0;
        while ratios.len() < MIN_JOBS || started.elapsed().as_secs_f64() < budget_s {
            let spec = gen.spec(id);
            id += 1;
            let design = bank.get(&spec.design_key());
            let signal = time_us(|| st.signal(&spec));
            let query = time_us(|| execute_queries_dense_into(&*design, &st.truth, &mut st.y));
            let decode = time_us(|| {
                black_box(decoder(spec.decoder).decode(
                    &design,
                    &st.y,
                    spec.k,
                    spec.seed,
                    &st.truth,
                    &mut st.decode,
                ));
            });
            let job = time_us(|| {
                black_box(process_job(&spec, &design, &mut scratch));
            });
            ratios.push((signal + query + decode) / job);
            (signal_us, query_us, decode_us, job_us) =
                (signal_us + signal, query_us + query, decode_us + decode, job_us + job);
        }
        Decomposition {
            signal_us,
            query_us,
            decode_us,
            job_us,
            jobs: ratios.len(),
            attributed_ratio: median(ratios),
        }
    })
}

/// `process_batch` over an 8-lane run of the workload's first design,
/// per lane (µs).
pub fn batch_us_per_lane(gen: &SpecGen, bank: &mut DesignBank) -> f64 {
    const LANES: usize = 8;
    let key = gen.keys()[0];
    let specs: Vec<JobSpec> = (0..LANES as u64)
        .map(|i| JobSpec { decoder: DecoderKind::Mn, ..on_design(gen.spec(i), &key) })
        .collect();
    let design = bank.get(&key);
    one_thread(|| {
        let mut scratch = WorkerScratch::with_batch_window(0, LANES);
        let mut out = Vec::with_capacity(LANES);
        median_us(5, || {
            out.clear();
            process_batch(&specs, &design, &mut scratch, &mut out);
        }) / LANES as f64
    })
}

/// CSR work per job, computed (not measured) from the designs the
/// window's jobs used: stored incidences, and the index bytes the dense
/// query walk plus the transpose gather stream (u32 index and
/// multiplicity per incidence in each orientation, u64 row offsets).
pub fn design_counts(phase: &Phase, bank: &mut DesignBank) -> (f64, f64) {
    let mut jobs_per_key: HashMap<DesignKey, f64> = HashMap::new();
    for c in &phase.completions {
        *jobs_per_key.entry(phase.gen.spec(c.result.id).design_key()).or_default() += 1.0;
    }
    let (mut nnz, mut bytes) = (0.0, 0.0);
    for (key, count) in jobs_per_key {
        let design = bank.get(&key);
        let csr = design.csr();
        let z = csr.nnz() as f64;
        nnz += count * z;
        bytes += count * (2.0 * 8.0 * z + 8.0 * (csr.n() + csr.m() + 2) as f64);
    }
    let jobs = phase.completions.len().max(1) as f64;
    (nnz / jobs, bytes / jobs)
}

/// `spec`, moved onto `key`'s design.
fn on_design(spec: JobSpec, key: &DesignKey) -> JobSpec {
    JobSpec { design: DesignSpec { kind: key.kind, c_milli: key.c_milli, seed: key.seed }, ..spec }
}

/// A RandomRegular design at `cold_churn`'s shape and a job on it.
fn churn_instance(seed: u64) -> (DesignKey, JobSpec) {
    let key = cold_churn_shape().key(DesignKind::RandomRegular, seed);
    (key, on_design(SpecGen::cold_churn(seed).spec(0), &key))
}

/// `decoder(kind).decode` for each of `cold_churn`'s decoders at its
/// shape (µs, median of 5).
pub fn registry_decode_us(seed: u64, bank: &mut DesignBank) -> Vec<(DecoderKind, f64)> {
    let (key, spec) = churn_instance(seed);
    let design = bank.get(&key);
    one_thread(|| {
        let mut st = Stages::default();
        st.signal(&spec);
        execute_queries_dense_into(&*design, &st.truth, &mut st.y);
        CHURN_DECODERS
            .iter()
            .map(|&kind| {
                let us = median_us(5, || {
                    black_box(decoder(kind).decode(
                        &design,
                        &st.y,
                        spec.k,
                        spec.seed,
                        &st.truth,
                        &mut st.decode,
                    ));
                });
                (kind, us)
            })
            .collect()
    })
}

/// `DesignKey::sample` per family at `cold_churn`'s shape (ms, median
/// of 3) — the cost of one cache miss before spill and journal.
pub fn sample_ms(seed: u64) -> Vec<(DesignKind, f64)> {
    let shape = cold_churn_shape();
    one_thread(|| {
        DesignKind::ALL
            .iter()
            .map(|&kind| {
                let key = shape.key(kind, seed);
                let times = (0..3).map(|_| time_us(|| drop(black_box(key.sample()))) / 1e3);
                (kind, median(times))
            })
            .collect()
    })
}

/// `DesignCache::get_or_sample` on a resident key (µs, mean of 20k).
pub fn cache_hit_us(seed: u64) -> f64 {
    const HITS: usize = 20_000;
    let cache = DesignCache::new(4);
    let key = CLUSTER_SHAPE.key(DesignKind::RandomRegular, seed);
    one_thread(|| {
        cache.get_or_sample(&key);
        time_us(|| {
            for _ in 0..HITS {
                black_box(cache.get_or_sample(black_box(&key)));
            }
        }) / HITS as f64
    })
}

/// `snapshot::spill_design` of a `cold_churn`-shaped design into a
/// scratch directory (ms, median of 3).
pub fn spill_ms(seed: u64, bank: &mut DesignBank, dir: &std::path::Path) -> f64 {
    let (key, _) = churn_instance(seed);
    let design = bank.get(&key);
    std::fs::create_dir_all(dir).expect("create the probe directory");
    let times = (0..3).map(|_| {
        time_us(|| spill_design(dir, &key, &design).expect("spill a design snapshot")) / 1e3
    });
    let ms = median(times);
    let _ = std::fs::remove_dir_all(dir);
    ms
}

/// `encode_frame` / `decode_frame` on the workload's SUBMIT and RESULT
/// frames (ns per frame, mean over 20k of each).
pub fn frame_ns(phase: &Phase) -> (f64, f64) {
    const REPS: usize = 20_000;
    let result = phase.completions.first().map(|c| c.result).expect("a completed job");
    let frames = [Frame::Submit(phase.gen.spec(result.id)), Frame::Result(result)];
    let mut buf = Vec::new();
    let encode = time_us(|| {
        for _ in 0..REPS {
            for f in &frames {
                encode_frame(black_box(f), &mut buf);
            }
        }
    });
    let wire: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut b = Vec::new();
            encode_frame(f, &mut b);
            b
        })
        .collect();
    let decode = time_us(|| {
        for _ in 0..REPS {
            for w in &wire {
                black_box(decode_frame(black_box(w)).expect("decode our own frame"));
            }
        }
    });
    let per = (REPS * frames.len()) as f64 / 1e3;
    (encode / per, decode / per)
}
