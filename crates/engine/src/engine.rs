//! The engine proper: worker shards around the job/result queues.
//!
//! ```text
//!  submit ──► [ jobs: BoundedQueue ] ──► worker 0 ─┐
//!   (backpressure when full)      ├──► worker 1 ─┼──► [ results ] ──► drain
//!                                 └──► worker L ─┘
//!                      each worker: design cache → scratch → decode
//!  prewarm ──► [ warm: BoundedQueue ] ──► sampler ──► design cache
//! ```
//!
//! Every worker pins its *inner* rayon parallelism to 1 — shard-level
//! parallelism comes from running `L` workers side by side, which is both
//! faster for many small jobs (no fan-out overhead) and the configuration
//! under which the decode path is allocation-free. Determinism therefore
//! holds by construction: a job's result depends only on its spec, never
//! on which shard ran it or how many shards exist.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pooled_lab::histogram::LatencyHistogram;
use pooled_stats::summary::Summary;
use rayon::ThreadPoolBuilder;

use crate::cache::{Claim, DesignCache, DesignKey};
use crate::durability::{self, DurabilityConfig, WalJournal};
use crate::job::{JobResult, JobSpec};
use crate::queue::{snapshot_lens, BoundedQueue, TryPushError};
use crate::telemetry::{
    CausalKind, FlightRecorder, JobTrace, Metric, MetricsRegistry, Span, TelemetryConfig,
};
use crate::worker::{serve_run, Run, WorkerScratch};

/// Engine sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker shards (`L` in the paper's partial-parallelism question).
    pub workers: usize,
    /// Submission queue bound — how many jobs may wait before `submit`
    /// blocks (backpressure).
    pub queue_capacity: usize,
    /// Completion queue bound.
    pub results_capacity: usize,
    /// Design cache capacity (distinct designs resident at once).
    pub design_cache_capacity: usize,
    /// Design-affinity batch window: the longest run of queued jobs on one
    /// design key, whatever their decoders, that a worker may drain from
    /// the queue as one run. A run pays one cache probe and one simulated
    /// query-latency sleep (its slowest lane's), then serves each lane
    /// through the per-job stages. `1` (the default) serves every job as
    /// a run of its own. Batching is fingerprint-invisible; only
    /// throughput and timing change. The window also bounds fairness: a
    /// worker never takes more than `batch_window` queued jobs ahead of a
    /// job on another design, and never waits for a run to fill.
    pub batch_window: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        Self {
            workers,
            queue_capacity: 256,
            results_capacity: 256,
            design_cache_capacity: 16,
            batch_window: 1,
        }
    }
}

impl EngineConfig {
    /// Default sizing with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }

    /// This configuration with a design-affinity batch window.
    pub fn with_batch_window(mut self, batch_window: usize) -> Self {
        self.batch_window = batch_window;
        self
    }
}

/// Aggregate serving telemetry (see [`Engine::stats`]).
///
/// `Copy` and `PartialEq` are part of the wire contract: the transport's
/// STATS frame carries a whole `EngineStats` by value, and the codec
/// round-trip tests compare decoded stats bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineStats {
    /// Jobs fully served.
    pub jobs_completed: u64,
    /// Of those, jobs whose decoder panicked and came back as a
    /// contained, poisoned REJECT-class result.
    pub jobs_poisoned: u64,
    /// Of those, exact recoveries.
    pub exact_recoveries: u64,
    /// Per-job sojourn latency (µs): queue wait + service.
    pub total_latency: Summary,
    /// Decode-stage per-job latency (µs).
    pub decode_latency: Summary,
    /// Log₂-bucketed sojourn-latency histogram (tail shape).
    pub histogram: LatencyHistogram,
    /// Design-cache hits.
    pub cache_hits: u64,
    /// Design-cache misses (cold samples).
    pub cache_misses: u64,
    /// Designs currently resident.
    pub cache_len: usize,
    /// Jobs waiting in the submission queue.
    pub queued_jobs: usize,
    /// Results waiting to be drained.
    pub pending_results: usize,
    /// Worker shards.
    pub workers: usize,
}

impl EngineStats {
    /// The additive identity for [`Self::merge`]: an engine that has
    /// served nothing with zero workers. The cluster router folds
    /// per-node stats into this.
    pub fn zero() -> Self {
        Self {
            jobs_completed: 0,
            jobs_poisoned: 0,
            exact_recoveries: 0,
            total_latency: Summary::new(),
            decode_latency: Summary::new(),
            histogram: LatencyHistogram::new(),
            cache_hits: 0,
            cache_misses: 0,
            cache_len: 0,
            queued_jobs: 0,
            pending_results: 0,
            workers: 0,
        }
    }

    /// Fold another engine's telemetry into this one, so a router can
    /// aggregate per-node stats into one cluster summary. Every counter
    /// saturates at its type's ceiling instead of wrapping (the same
    /// contract as [`LatencyHistogram::merge`], which this reuses);
    /// latency moments merge exactly via [`Summary::merge`].
    pub fn merge(&mut self, other: &EngineStats) {
        self.jobs_completed = self.jobs_completed.saturating_add(other.jobs_completed);
        self.jobs_poisoned = self.jobs_poisoned.saturating_add(other.jobs_poisoned);
        self.exact_recoveries = self.exact_recoveries.saturating_add(other.exact_recoveries);
        self.total_latency.merge(&other.total_latency);
        self.decode_latency.merge(&other.decode_latency);
        self.histogram.merge(&other.histogram);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.cache_len = self.cache_len.saturating_add(other.cache_len);
        self.queued_jobs = self.queued_jobs.saturating_add(other.queued_jobs);
        self.pending_results = self.pending_results.saturating_add(other.pending_results);
        self.workers = self.workers.saturating_add(other.workers);
    }

    /// Design-cache hit rate over everything merged so far (0 when the
    /// cache was never consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let accesses = self.cache_hits.saturating_add(self.cache_misses);
        if accesses == 0 {
            0.0
        } else {
            self.cache_hits as f64 / accesses as f64
        }
    }
}

/// Per-worker latency telemetry. Plain counters live in the lock-free
/// [`MetricsRegistry`]; the moment/histogram instruments (which need
/// more than an atomic add) fold into one of these slots — each worker
/// owns its own, so the per-job lock below is uncontended in steady
/// state (only [`Engine::stats`] readers ever share it).
struct WorkerTelemetry {
    total_latency: Summary,
    decode_latency: Summary,
    histogram: LatencyHistogram,
}

impl WorkerTelemetry {
    fn new() -> Self {
        Self {
            total_latency: Summary::new(),
            decode_latency: Summary::new(),
            histogram: LatencyHistogram::new(),
        }
    }

    fn record(&mut self, result: &JobResult) {
        self.total_latency.push(result.total_micros as f64);
        self.decode_latency.push(result.decode_micros as f64);
        self.histogram.record_micros(result.total_micros);
    }
}

/// Route id of the shared completion queue (plain `submit`/`recv`).
const SHARED_ROUTE: u32 = u32::MAX;

/// A submitted job plus its enqueue instant, so sojourn time (queue
/// wait plus service) is measurable — under open-loop overload the wait
/// *is* the latency story. `route` says which completion queue receives
/// the result: [`SHARED_ROUTE`] for the engine-wide stream, otherwise a
/// registered per-tenant route (the transport's per-connection queues).
#[derive(Clone, Copy)]
struct QueuedJob {
    spec: JobSpec,
    enqueued: std::time::Instant,
    route: u32,
    /// Span timeline riding with the job — `Copy`, inert padding when
    /// the sampling knob skipped this job.
    trace: JobTrace,
}

impl Run for &mut [QueuedJob] {
    fn lanes(&self) -> usize {
        self.len()
    }

    fn spec(&self, lane: usize) -> &JobSpec {
        &self[lane].spec
    }

    fn trace(&mut self, lane: usize) -> Option<&mut JobTrace> {
        let trace = &mut self[lane].trace;
        trace.sampled.then_some(trace)
    }
}

struct Shared {
    jobs: BoundedQueue<QueuedJob>,
    results: BoundedQueue<JobResult>,
    cache: DesignCache,
    /// Prewarm claims for the sampler thread ([`Engine::prewarm`]). Not
    /// the job queue: `run_batch`'s no-deadlock argument needs every
    /// queued job to yield a result.
    warm: BoundedQueue<DesignKey>,
    /// Claims the sampler owes (queued or sampling): at most the cache
    /// capacity, since a larger warm set would evict itself. A count
    /// only (`Relaxed`): `warm`'s lock orders the keys themselves.
    warming: AtomicUsize,
    /// Per-worker latency slots, indexed by shard id.
    worker_telemetry: Vec<Mutex<WorkerTelemetry>>,
    /// Lock-free counters (per-outcome job counts et al).
    metrics: Arc<MetricsRegistry>,
    /// Bounded trace + causal rings for postmortems.
    recorder: Arc<FlightRecorder>,
    /// Trace-sampling knobs.
    tel: TelemetryConfig,
    active_workers: AtomicUsize,
    /// Design-affinity batch window (≥ 1; 1 = per-job serving).
    batch_window: usize,
    /// Serializes `run_batch` callers: a batch owns the completion stream
    /// while it runs (interleaved batches would steal each other's
    /// results).
    batch_lock: Mutex<()>,
    /// Registered completion routes (`route id → per-tenant queue` plus
    /// its optional waker). Touched per *routed* result only; plain
    /// `submit` traffic never takes this lock.
    routes: Mutex<HashMap<u32, RouteEntry>>,
    /// Next route id (route ids are never reused within an engine).
    next_route: AtomicU32,
    /// Telemetry recovered from a previous incarnation's checkpoint
    /// (zero for non-durable engines). [`Engine::stats`] merges it in,
    /// so counters and latency histograms are cumulative across
    /// restarts; point-in-time gauges in the baseline are pre-zeroed
    /// ([`durability::Recovery::stats_baseline`]).
    recovered: Mutex<EngineStats>,
    /// The durable tier's journal when this engine was started with
    /// [`Engine::start_durable`]; shutdown checkpoints through it.
    journal: Mutex<Option<Arc<WalJournal>>>,
}

/// Callback fired after a result lands in a route's queue (and on route
/// close), so an event-loop consumer parked in `epoll_wait` learns of
/// completions without polling the queue. Must be cheap and non-blocking
/// — it runs on the worker that finished the job.
pub type RouteWaker = Arc<dyn Fn() + Send + Sync>;

/// A registered completion route: the per-tenant result queue plus the
/// optional waker its consumer installed.
struct RouteEntry {
    queue: Arc<BoundedQueue<JobResult>>,
    waker: Option<RouteWaker>,
}

impl Shared {
    /// Deliver one finished result to its completion queue, then fire
    /// the route's waker (push-then-wake: by the time the consumer runs,
    /// the result is visible). Returns `false` only when the *shared*
    /// stream is closed — full shutdown; a closed or vanished per-tenant
    /// route just drops the result (the tenant disconnected; telemetry
    /// already recorded the job).
    fn deliver(&self, route: u32, result: &JobResult) -> bool {
        if route == SHARED_ROUTE {
            return self.results.push(*result).is_ok();
        }
        let entry = {
            let routes = self.routes.lock().expect("route table poisoned");
            routes.get(&route).map(|e| (Arc::clone(&e.queue), e.waker.clone()))
        };
        if let Some((queue, waker)) = entry {
            let _ = queue.push(*result);
            if let Some(waker) = waker {
                waker();
            }
        }
        true
    }

    /// Close every registered route queue (wakes blocked tenants and any
    /// worker mid-push) and fire their wakers (a consumer parked in
    /// `epoll_wait` must observe the close too); the routes stay
    /// registered so late results are dropped by `deliver`, never
    /// redirected.
    fn close_routes(&self) {
        let entries: Vec<_> = {
            let routes = self.routes.lock().expect("route table poisoned");
            routes.values().map(|e| (Arc::clone(&e.queue), e.waker.clone())).collect()
        };
        for (queue, waker) in entries {
            queue.close();
            if let Some(waker) = waker {
                waker();
            }
        }
    }
}

/// A private completion stream registered with [`Engine::open_route`].
///
/// Results of jobs submitted through [`Engine::submit_routed`] /
/// [`Engine::try_submit_routed`] with this route land in this queue
/// instead of the engine-wide stream, so concurrent tenants (one per
/// transport connection) each see exactly their own completions —
/// including while `run_batch` owns the shared stream.
///
/// Clones share the same underlying queue. [`ResultRoute::close`] (or
/// engine shutdown) closes it: a worker finishing a routed job after
/// that drops the result — the tenant is gone.
#[derive(Clone)]
pub struct ResultRoute {
    id: u32,
    queue: Arc<BoundedQueue<JobResult>>,
    shared: Arc<Shared>,
}

impl ResultRoute {
    /// This route's id (unique within its engine, never reused).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Blocking receive; `None` once the route is closed **and** drained.
    pub fn recv(&self) -> Option<JobResult> {
        self.queue.pop()
    }

    /// Non-blocking receive with the tri-state the writer-drain loop
    /// needs: `Empty` (retry later) vs `Closed` (terminate).
    pub fn try_recv(&self) -> crate::queue::TryPop<JobResult> {
        self.queue.try_pop()
    }

    /// Close and unregister the route. Buffered results stay receivable;
    /// results finishing after the close are dropped. Idempotent.
    pub fn close(&self) {
        self.queue.close();
        self.shared.routes.lock().expect("route table poisoned").remove(&self.id);
    }

    /// Install (or replace) the waker fired after every delivery to this
    /// route — the push half of the event-loop integration: workers
    /// push-then-wake, the loop drains [`Self::try_recv`] until `Empty`.
    /// The waker also fires when the engine closes its routes at
    /// shutdown, so a parked consumer observes `Closed` promptly. A
    /// no-op on a route already unregistered by [`Self::close`].
    pub fn register_waker(&self, waker: RouteWaker) {
        if let Some(entry) =
            self.shared.routes.lock().expect("route table poisoned").get_mut(&self.id)
        {
            entry.waker = Some(waker);
        }
    }
}

/// Error: the engine is shutting down; the rejected spec is handed back.
#[derive(Debug, PartialEq)]
pub struct EngineClosed(pub JobSpec);

/// Outcome of a non-blocking submission.
#[derive(Debug, PartialEq)]
pub enum SubmitError {
    /// Submission queue full — backpressure; retry after draining.
    Backpressure(JobSpec),
    /// Engine shutting down.
    Closed(JobSpec),
}

/// A running reconstruction engine. See the module docs for the shape.
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// The sampler thread; `None` once shutdown joined it.
    sampler: Option<JoinHandle<()>>,
}

impl Engine {
    /// Start `config.workers` shards.
    ///
    /// # Panics
    /// Panics if `config.workers == 0` or a worker thread cannot spawn.
    pub fn start(config: EngineConfig) -> Self {
        Self::start_prewarmed(config, &[])
    }

    /// [`Self::start`] with explicit telemetry knobs (trace sampling and
    /// flight-recorder capacity). The plain constructors run with
    /// tracing off; either way the lock-free metric counters are always
    /// live, and fingerprints are bit-identical at any sampling rate.
    ///
    /// # Panics
    /// Panics if `config.workers == 0` or a worker thread cannot spawn.
    pub fn start_with(config: EngineConfig, telemetry: TelemetryConfig) -> Self {
        Self::start_prewarmed_with(config, &[], telemetry)
    }

    /// [`Self::start`], but warm the design cache from a key snapshot
    /// **before** any worker accepts traffic — the snapshot/restore-lite
    /// path: designs resample bit-identically from their keys
    /// ([`DesignCache::keys`] exports them), so a restarted node
    /// regenerates its working set up front instead of paying cold
    /// misses under live traffic. Prewarming does not count toward the
    /// cache's hit/miss telemetry.
    ///
    /// # Panics
    /// Panics if `config.workers == 0` or a worker thread cannot spawn.
    pub fn start_prewarmed(config: EngineConfig, prewarm: &[DesignKey]) -> Self {
        Self::start_prewarmed_with(config, prewarm, TelemetryConfig::off())
    }

    /// [`Self::start_prewarmed`] with explicit telemetry knobs (see
    /// [`Self::start_with`]).
    ///
    /// # Panics
    /// Panics if `config.workers == 0` or a worker thread cannot spawn.
    pub fn start_prewarmed_with(
        config: EngineConfig,
        prewarm: &[DesignKey],
        telemetry: TelemetryConfig,
    ) -> Self {
        Self::start_full(config, telemetry, Arc::new(MetricsRegistry::new()), |shared| {
            shared.cache.prewarm(prewarm)
        })
    }

    /// [`Self::start`] with crash recovery and a live write-ahead log:
    /// replay the WAL prefix in `durability.dir`, load spilled design
    /// snapshots (resampling any key whose snapshot is missing or
    /// rejected), restore the persisted stats/histogram checkpoint, and
    /// only then spawn workers — a recovered node is at full warmth
    /// *before* it accepts its first job. Once running, every cache
    /// admission/eviction is journaled, so the next crash recovers this
    /// incarnation's working set too.
    ///
    /// Errors are filesystem failures or a corrupt WAL segment before
    /// the log's tail ([`durability::wal::WalError::CorruptSegment`],
    /// surfaced as [`std::io::ErrorKind::InvalidData`]) — recovery
    /// refuses to guess rather than serve from a wrong key set. A torn
    /// *tail* is the expected crash shape and recovers the valid prefix.
    ///
    /// # Panics
    /// Panics if `config.workers == 0` or a worker thread cannot spawn.
    pub fn start_durable(config: EngineConfig, durability: DurabilityConfig) -> io::Result<Self> {
        Self::start_durable_with(config, durability, TelemetryConfig::off())
    }

    /// [`Self::start_durable`] with explicit telemetry knobs (see
    /// [`Self::start_with`]).
    ///
    /// # Panics
    /// Panics if `config.workers == 0` or a worker thread cannot spawn.
    pub fn start_durable_with(
        config: EngineConfig,
        durability: DurabilityConfig,
        telemetry: TelemetryConfig,
    ) -> io::Result<Self> {
        let metrics = Arc::new(MetricsRegistry::new());
        std::fs::create_dir_all(&durability.dir)?;
        let recovery = durability::recover(&durability, &metrics).map_err(|e| match e {
            durability::wal::WalError::Io(e) => e,
            corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string()),
        })?;
        let journal = Arc::new(WalJournal::open(&durability, Arc::clone(&metrics))?);
        let engine = Self::start_full(config, telemetry, metrics, |shared| {
            // Loaded snapshots install directly (no resampling); every
            // other recovered key resamples bit-identically from itself.
            for (key, design) in &recovery.designs {
                shared.cache.install(key, Arc::clone(design));
            }
            shared.cache.prewarm(&recovery.keys);
            *shared.recovered.lock().expect("recovered stats poisoned") = recovery.stats_baseline();
        });
        // Checkpoint the recovered state (compacting the replayed log
        // down to the live set), then attach the journal. No traffic
        // can interleave here: the caller holds the only handle.
        let baseline = *engine.shared.recovered.lock().expect("recovered stats poisoned");
        journal.checkpoint(&engine.shared.cache.keys(), &baseline)?;
        engine.shared.cache.set_journal(Arc::clone(&journal));
        *engine.shared.journal.lock().expect("journal slot poisoned") = Some(journal);
        Ok(engine)
    }

    /// The one true constructor: build the shared state, run `warm`
    /// (cache prewarm or crash recovery) before any worker exists, then
    /// spawn the shards. Every public `start_*` routes here, so the
    /// "warm before traffic" guarantee is structural — there is no
    /// ordering to get wrong at a call site.
    fn start_full(
        config: EngineConfig,
        telemetry: TelemetryConfig,
        metrics: Arc<MetricsRegistry>,
        warm: impl FnOnce(&Shared),
    ) -> Self {
        assert!(config.workers > 0, "engine needs at least one worker");
        let shared = Arc::new(Shared {
            jobs: BoundedQueue::new(config.queue_capacity),
            results: BoundedQueue::new(config.results_capacity),
            cache: DesignCache::new(config.design_cache_capacity),
            warm: BoundedQueue::new(config.design_cache_capacity),
            warming: AtomicUsize::new(0),
            worker_telemetry: (0..config.workers)
                .map(|_| Mutex::new(WorkerTelemetry::new()))
                .collect(),
            metrics,
            recorder: Arc::new(FlightRecorder::new(config.workers, telemetry.recorder_capacity)),
            tel: telemetry,
            active_workers: AtomicUsize::new(config.workers),
            batch_window: config.batch_window.max(1),
            batch_lock: Mutex::new(()),
            routes: Mutex::new(HashMap::new()),
            next_route: AtomicU32::new(0),
            recovered: Mutex::new(EngineStats::zero()),
            journal: Mutex::new(None),
        });
        // Workers don't exist yet, so the warm-up can never race traffic.
        warm(&shared);
        let handles = (0..config.workers as u32)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{idx}"))
                    .spawn(move || worker_main(&shared, idx))
                    .expect("failed to spawn engine worker")
            })
            .collect();
        let sampler_shared = Arc::clone(&shared);
        let sampler = std::thread::Builder::new()
            .name("engine-sampler".into())
            .spawn(move || sampler_main(&sampler_shared))
            .expect("failed to spawn the design sampler");
        Self { shared, handles, sampler: Some(sampler) }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The engine's lock-free metrics registry — scrape freely from any
    /// thread; reads never block a worker.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// The engine's flight recorder (per-shard trace rings plus the
    /// causal-event ring); share it with a cluster router so failover
    /// records land next to the job traces they explain.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// Warm the design cache for `keys` while the engine is live — the
    /// cluster's standby keep-warm path: a node designated as a key's
    /// failover target samples the design *before* any failover, so
    /// inheriting the key costs zero cold misses.
    ///
    /// Only claims each cold key in the cache's single-flight election
    /// and queues it for the engine's sampler thread, so it returns in
    /// microseconds, even on an event loop. Resident or claimed keys
    /// cost nothing; a job reaching a claimed key waits for its one
    /// sample. With `design_cache_capacity` claims already owed, the
    /// claim is dropped and counted ([`Metric::PrewarmsDropped`]): the
    /// worst case is a later cold miss. Warming never touches the
    /// hit/miss telemetry, and a clean shutdown samples every queued key
    /// before its checkpoint.
    pub fn prewarm(&self, keys: &[DesignKey]) {
        let shared = &self.shared;
        for key in keys {
            let Claim::Leader(leader) = shared.cache.claim(key) else { continue };
            if shared.warming.fetch_add(1, Ordering::Relaxed) < shared.warm.capacity()
                && shared.warm.try_push(*key).is_ok()
            {
                leader.hand_off();
            } else {
                // Dropping `leader` abandons the claim: waiters re-elect.
                shared.warming.fetch_sub(1, Ordering::Relaxed);
                shared.metrics.inc(Metric::PrewarmsDropped);
            }
        }
    }

    /// Blocking submission: waits under backpressure, errs on shutdown.
    ///
    /// # Panics
    /// Panics if the spec is infeasible ([`JobSpec::validate`]).
    pub fn submit(&self, spec: JobSpec) -> Result<(), EngineClosed> {
        self.submit_with_route(spec, SHARED_ROUTE)
    }

    /// Non-blocking submission; `Backpressure` when the queue is full.
    ///
    /// # Panics
    /// Panics if the spec is infeasible ([`JobSpec::validate`]).
    pub fn try_submit(&self, spec: JobSpec) -> Result<(), SubmitError> {
        self.try_submit_with_route(spec, SHARED_ROUTE)
    }

    /// Register a private completion stream holding up to `capacity`
    /// buffered results (see [`ResultRoute`]).
    ///
    /// # Panics
    /// Panics if `capacity == 0` or the engine has exhausted route ids.
    pub fn open_route(&self, capacity: usize) -> ResultRoute {
        let id = self.shared.next_route.fetch_add(1, Ordering::Relaxed);
        assert!(id != SHARED_ROUTE, "route ids exhausted");
        let queue = Arc::new(BoundedQueue::new(capacity));
        self.shared
            .routes
            .lock()
            .expect("route table poisoned")
            .insert(id, RouteEntry { queue: Arc::clone(&queue), waker: None });
        ResultRoute { id, queue, shared: Arc::clone(&self.shared) }
    }

    /// Blocking submission whose result is delivered to `route` instead
    /// of the shared stream.
    ///
    /// # Panics
    /// Panics if the spec is infeasible ([`JobSpec::validate`]).
    pub fn submit_routed(&self, spec: JobSpec, route: &ResultRoute) -> Result<(), EngineClosed> {
        self.submit_with_route(spec, route.id)
    }

    /// Non-blocking submission whose result is delivered to `route`;
    /// `Backpressure` when the submission queue is full — the transport
    /// turns that into an explicit `BUSY` reply, never a silent drop.
    ///
    /// # Panics
    /// Panics if the spec is infeasible ([`JobSpec::validate`]).
    pub fn try_submit_routed(&self, spec: JobSpec, route: &ResultRoute) -> Result<(), SubmitError> {
        self.try_submit_with_route(spec, route.id)
    }

    /// [`Self::try_submit_routed`] carrying the monotonic instant the
    /// spec's SUBMIT frame came off a socket: a sampled job's trace gets
    /// its `wire_rx` span stamped so wire-path timelines show ingress →
    /// admit. `None` behaves exactly like [`Self::try_submit_routed`].
    ///
    /// # Panics
    /// Panics if the spec is infeasible ([`JobSpec::validate`]).
    pub fn try_submit_routed_stamped(
        &self,
        spec: JobSpec,
        route: &ResultRoute,
        wire_rx: Option<std::time::Instant>,
    ) -> Result<(), SubmitError> {
        spec.validate();
        let mut job = self.queued(spec, route.id);
        if let (true, Some(at)) = (job.trace.sampled, wire_rx) {
            let micros = at
                .checked_duration_since(self.shared.recorder.epoch())
                .map_or(0, |d| d.as_micros() as u64);
            job.trace.stamp(Span::WireRx, micros);
        }
        self.try_push_queued(job)
    }

    /// Record the wire-tx causal counterpart for job `id` — the
    /// transport server calls this as the job's RESULT frame leaves its
    /// socket, after the trace itself has already been drained to the
    /// flight recorder. No-op unless the sampling knob selects the id.
    pub fn note_wire_tx(&self, id: u64) {
        let every = self.shared.tel.trace_sample_every;
        if every != 0 && id.is_multiple_of(every) {
            self.shared.recorder.record_causal(CausalKind::WireTx, 0, id);
        }
    }

    /// Wrap a validated spec for the queue, opening its span trace when
    /// the sampling knob selects it (the `admit` span is stamped here).
    fn queued(&self, spec: JobSpec, route: u32) -> QueuedJob {
        let mut trace = JobTrace::empty();
        if self.shared.tel.samples(&spec) {
            trace = JobTrace::sampled_for(spec.id);
            trace.stamp(Span::Admit, self.shared.recorder.now_micros());
        }
        QueuedJob { spec, enqueued: std::time::Instant::now(), route, trace }
    }

    fn submit_with_route(&self, spec: JobSpec, route: u32) -> Result<(), EngineClosed> {
        spec.validate();
        self.shared.jobs.push(self.queued(spec, route)).map_err(|c| EngineClosed(c.0.spec))
    }

    fn try_submit_with_route(&self, spec: JobSpec, route: u32) -> Result<(), SubmitError> {
        spec.validate();
        self.try_push_queued(self.queued(spec, route))
    }

    fn try_push_queued(&self, job: QueuedJob) -> Result<(), SubmitError> {
        self.shared.jobs.try_push(job).map_err(|e| match e {
            TryPushError::Full(q) => {
                self.shared.metrics.inc(Metric::JobsBusyShed);
                SubmitError::Backpressure(q.spec)
            }
            TryPushError::Closed(q) => SubmitError::Closed(q.spec),
        })
    }

    /// Non-blocking receive of one completed result.
    ///
    /// The completion stream is shared: concurrent receivers each see an
    /// arbitrary subset of results (route by [`JobResult::id`] if several
    /// tenants share one engine).
    pub fn try_recv(&self) -> Option<JobResult> {
        self.shared.results.try_pop().item()
    }

    /// Blocking receive; `None` only after shutdown has drained everything.
    /// Same shared-stream caveat as [`Self::try_recv`].
    pub fn recv(&self) -> Option<JobResult> {
        self.shared.results.pop()
    }

    /// Serve a whole batch: submit every spec (draining completions
    /// whenever backpressure pushes back, so the pair of bounded queues
    /// can never deadlock), then collect exactly `specs.len()` results.
    /// Results are appended to `out` sorted by job id — deterministic
    /// regardless of worker count. Allocation-free when `out` has
    /// capacity.
    ///
    /// Batches are serialized: a second `run_batch` caller blocks until
    /// the first finishes (a batch owns the completion stream while it
    /// runs). Don't mix `run_batch` with concurrent `recv` callers.
    ///
    /// # Panics
    /// Panics if the engine shuts down mid-batch (a batch is a unit of
    /// work; losing part of it is a caller bug, not a recoverable state).
    pub fn run_batch(&self, specs: &[JobSpec], out: &mut Vec<JobResult>) {
        let _batch = self.shared.batch_lock.lock().expect("batch lock poisoned");
        let start = out.len();
        let mut collected = 0usize;
        for &spec in specs {
            let mut pending = spec;
            loop {
                match self.try_submit(pending) {
                    Ok(()) => break,
                    Err(SubmitError::Backpressure(s)) => {
                        pending = s;
                        // Safe to block: a full submission queue means jobs
                        // are in flight, and a worker stuck on a full
                        // results queue implies try-before-block would have
                        // succeeded — so a completion is always coming.
                        match self.recv() {
                            Some(r) => {
                                out.push(r);
                                collected += 1;
                            }
                            None => panic!("engine closed mid-batch"),
                        }
                    }
                    Err(SubmitError::Closed(_)) => panic!("engine closed mid-batch"),
                }
            }
        }
        while collected < specs.len() {
            let r = self.recv().expect("engine closed mid-batch");
            out.push(r);
            collected += 1;
        }
        out[start..].sort_unstable_by_key(|r| r.id);
    }

    /// Current aggregate telemetry.
    ///
    /// The three occupancy gauges (`queued_jobs`, `pending_results`,
    /// `cache_len`) are read from **one** consistent snapshot — both
    /// queue locks held together while the cache length is sampled —
    /// instead of three racy point reads, so a job can never be counted
    /// in two gauges at once or vanish from both.
    pub fn stats(&self) -> EngineStats {
        let (cache_hits, cache_misses) = self.shared.cache.stats();
        let mut total_latency = Summary::new();
        let mut decode_latency = Summary::new();
        let mut histogram = LatencyHistogram::new();
        for slot in &self.shared.worker_telemetry {
            let t = slot.lock().expect("telemetry poisoned");
            total_latency.merge(&t.total_latency);
            decode_latency.merge(&t.decode_latency);
            histogram.merge(&t.histogram);
        }
        let (queued_jobs, pending_results, cache_len) =
            snapshot_lens(&self.shared.jobs, &self.shared.results, || self.shared.cache.len());
        let mut stats = EngineStats {
            jobs_completed: self.shared.metrics.get(Metric::JobsCompleted),
            jobs_poisoned: self.shared.metrics.get(Metric::JobsPoisoned),
            exact_recoveries: self.shared.metrics.get(Metric::ExactRecoveries),
            total_latency,
            decode_latency,
            histogram,
            cache_hits,
            cache_misses,
            cache_len,
            queued_jobs,
            pending_results,
            workers: self.handles.len(),
        };
        // Durable engines report cumulative-across-restarts telemetry:
        // fold in the recovered checkpoint (gauges there are pre-zeroed,
        // so the live gauge values above pass through unchanged).
        let recovered = *self.shared.recovered.lock().expect("recovered stats poisoned");
        stats.merge(&recovered);
        stats
    }

    /// Graceful shutdown: stop accepting jobs, let the shards finish
    /// everything already queued, and join them. Undelivered results are
    /// appended to `out` (sorted by id).
    pub fn shutdown_into(mut self, out: &mut Vec<JobResult>) -> EngineStats {
        let start = out.len();
        let workers = self.handles.len();
        self.shared.jobs.close();
        self.shared.warm.close();
        // Routed tenants are cut loose first: their queues close so a
        // worker mid-push can never stall the join below waiting on a
        // writer that will not drain (disconnected tenants' late results
        // are dropped, with telemetry already recorded).
        self.shared.close_routes();
        // Drain until the last exiting worker closes the completion queue
        // (see `ExitGuard`): keeps the queue flowing so a full `results`
        // can never wedge a worker finishing queued jobs, without a spin.
        while let Some(r) = self.shared.results.pop() {
            out.push(r);
        }
        // The sampler exits once every queued prewarm is sampled, so the
        // checkpoint below holds them.
        for handle in self.handles.drain(..).chain(self.sampler.take()) {
            handle.join().expect("engine thread panicked");
        }
        out[start..].sort_unstable_by_key(|r| r.id);
        self.shared.results.close();
        let mut stats = self.stats();
        stats.workers = workers;
        // Clean shutdown checkpoints the durable tier: the log compacts
        // to the final live set and the *cumulative* stats (baseline
        // included), so the next incarnation's counters keep counting
        // from here. An abrupt drop skips this — that's the crash path,
        // and per-admission WAL records already cover the key set.
        let journal = self.shared.journal.lock().expect("journal slot poisoned").clone();
        if let Some(journal) = journal {
            let _ = journal.checkpoint(&self.shared.cache.keys(), &stats);
        }
        stats
    }

    /// Graceful shutdown discarding undelivered results (batch callers
    /// have already drained theirs).
    pub fn shutdown(self) -> EngineStats {
        let mut discard = Vec::new();
        self.shutdown_into(&mut discard)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // A dropped engine must not leave shards or its sampler parked
        // on the queues.
        self.shared.jobs.close();
        self.shared.warm.close();
        self.shared.results.close();
        self.shared.close_routes();
    }
}

/// The engine's sampler: fills the claims [`Engine::prewarm`] queued, in
/// order, until the queue is closed and drained.
fn sampler_main(shared: &Shared) {
    while let Some(key) = shared.warm.pop() {
        // A panicking sample abandons only its own claim; the claims
        // queued behind it are still filled.
        let sample = || drop(shared.cache.resume(key).sample());
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(sample));
        shared.warming.fetch_sub(1, Ordering::Relaxed);
    }
}

fn worker_main(shared: &Shared, idx: u32) {
    // Runs on every exit path, panicking included: a shard that dies
    // mid-job must still decrement the active count and — on panic —
    // close both queues, so `run_batch`/`shutdown` fail fast instead of
    // waiting forever on a result that will never come. The last shard
    // out closes the completion queue either way, which is what ends
    // `shutdown_into`'s drain (workers only exit once `jobs` is closed).
    struct ExitGuard<'a>(&'a Shared);
    impl Drop for ExitGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.jobs.close();
                self.0.results.close();
                self.0.close_routes();
            }
            if self.0.active_workers.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.0.results.close();
            }
        }
    }
    let _guard = ExitGuard(shared);

    // Pin inner rayon parallelism to 1: shard-level parallelism is the
    // engine's own, and single-threaded decode is the allocation-free
    // configuration. Each shard owns a *private* 1-thread pool: under
    // the vendored rayon (a thread-count marker) this is free, and under
    // real rayon it keeps shards independent instead of funneling every
    // worker through one shared pool thread.
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .thread_name(move |i| format!("engine-shard-{idx}-rayon-{i}"))
        .build()
        .expect("failed to build shard pool");
    pool.install(|| {
        let window = shared.batch_window;
        let mut scratch = WorkerScratch::new(idx);
        // Run buffers, reused forever (capacity = the batch window).
        let mut run: Vec<QueuedJob> = Vec::with_capacity(window);
        let mut served: Vec<JobResult> = Vec::with_capacity(window);
        'serve: loop {
            run.clear();
            // Drain a run of jobs on one design key (always 1 when the
            // window is 1 — the predicate is never consulted then).
            let same_design =
                |a: &QueuedJob, b: &QueuedJob| DesignKey::of(&a.spec) == DesignKey::of(&b.spec);
            if shared.jobs.pop_run(window, &mut run, same_design) == 0 {
                break;
            }
            // Queue waits end now — service time must not leak into them.
            let popped = std::time::Instant::now();
            // One clock read stamps the whole run's queue-exit spans.
            let tracing = run.iter().any(|q| q.trace.sampled);
            if tracing {
                let now = shared.recorder.now_micros();
                for q in &mut run {
                    if q.trace.sampled {
                        q.trace.stamp(Span::Dequeue, now);
                    }
                }
            }
            // One cache access serves the whole run (design affinity).
            let design = shared.cache.get_or_sample(&DesignKey::of(&run[0].spec));
            if tracing {
                let now = shared.recorder.now_micros();
                for q in &mut run {
                    if q.trace.sampled {
                        q.trace.stamp(Span::CacheProbe, now);
                    }
                }
            }
            // Each lane's decode panic is contained to that lane's job.
            served.clear();
            serve_run(&mut run[..], &design, &mut scratch, Some(&shared.recorder), &mut served);
            for (queued, result) in run.iter().zip(&mut served) {
                let queue_micros = popped.duration_since(queued.enqueued).as_micros() as u64;
                result.queue_micros = queue_micros;
                result.total_micros += queue_micros;
                // This worker's own slot: uncontended in steady state.
                shared.worker_telemetry[idx as usize]
                    .lock()
                    .expect("telemetry poisoned")
                    .record(result);
                shared.metrics.inc(Metric::JobsCompleted);
                if result.exact {
                    shared.metrics.inc(Metric::ExactRecoveries);
                }
                if result.is_decode_poisoned() {
                    shared.metrics.inc(Metric::JobsPoisoned);
                }
                // Drain the trace *before* delivery: once a caller
                // observes the result, its trace is guaranteed to be in
                // the recorder.
                let mut trace = queued.trace;
                if trace.sampled {
                    trace.worker = idx;
                    trace.stamp(Span::RouteHop, shared.recorder.now_micros());
                    if shared.recorder.record_trace(idx as usize, &trace) {
                        shared.metrics.inc(Metric::TracesDropped);
                    }
                    shared.metrics.inc(Metric::TracesRecorded);
                }
                if !shared.deliver(queued.route, result) {
                    break 'serve; // shared results closed: shutdown discards the rest
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DecoderKind, DesignSpec};

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            n: 300,
            k: 5,
            m: 200,
            design: DesignSpec::random_regular(3),
            decoder: DecoderKind::Mn,
            seed: 1000 + id,
            query_cost_micros: 0,
        }
    }

    #[test]
    fn batch_results_are_sorted_and_complete() {
        let engine = Engine::start(EngineConfig {
            workers: 3,
            queue_capacity: 4,
            results_capacity: 4,
            design_cache_capacity: 2,
            batch_window: 1,
        });
        let specs: Vec<JobSpec> = (0..40).map(spec).collect();
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        assert_eq!(out.len(), 40);
        assert!(out.windows(2).all(|w| w[0].id < w[1].id));
        let stats = engine.shutdown();
        assert_eq!(stats.jobs_completed, 40);
        // Workers racing on the single cold key coalesce onto one sampler
        // (single-flight); afterwards everything hits.
        assert_eq!(stats.cache_misses, 1, "racing cold misses must single-flight");
        assert_eq!(stats.cache_hits + stats.cache_misses, 40);
    }

    #[test]
    fn a_panicking_decoder_fails_its_job_and_the_shard_keeps_serving() {
        // Panic containment: the hidden probe decoder panics mid-decode;
        // that one job must come back as a poisoned REJECT-class result
        // while every other job — including later ones on the *same*
        // single shard — completes normally.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 8,
            results_capacity: 8,
            design_cache_capacity: 2,
            batch_window: 1,
        });
        let mut specs: Vec<JobSpec> = (0..6).map(spec).collect();
        specs[2].decoder = DecoderKind::PanicProbe;
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        assert_eq!(out.len(), 6, "the poisoned shard must keep serving");
        for r in &out {
            if r.id == 2 {
                assert!(r.is_decode_poisoned(), "the probe job must fail poisoned");
                assert!(!r.exact);
            } else {
                assert!(!r.is_decode_poisoned(), "job {} wrongly poisoned", r.id);
                assert_eq!(r.weight, 5);
            }
        }
        let stats = engine.shutdown();
        assert_eq!(stats.jobs_completed, 6);
    }

    #[test]
    fn a_panicking_lane_poisons_only_itself_in_a_batched_run() {
        // Under a batching window the probe job rides a run with the Mn
        // jobs around it (a run is one design key, whatever the decoder).
        // Each lane is served under its own unwind guard and stamps its
        // own decode span: the probe fails alone with `decode_start` and
        // no `decode_end`, and no two lanes share a decode window.
        let engine = Engine::start_with(
            EngineConfig {
                workers: 1,
                queue_capacity: 16,
                results_capacity: 16,
                design_cache_capacity: 2,
                batch_window: 8,
            },
            TelemetryConfig::full(),
        );
        // n ≈ 2000, so every decode takes well over the recorder's 1 µs tick.
        let mut specs: Vec<JobSpec> =
            (0..8).map(|id| JobSpec { n: 2000, k: 8, m: 600, ..spec(id) }).collect();
        // The first job sleeps 20 ms, so the rest are queued before the
        // worker's second pop and form runs.
        specs[0].query_cost_micros = 20_000;
        specs[5].decoder = DecoderKind::PanicProbe;
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        assert_eq!(out.len(), 8);
        let poisoned: Vec<u64> =
            out.iter().filter(|r| r.is_decode_poisoned()).map(|r| r.id).collect();
        assert_eq!(poisoned, vec![5], "exactly the probe lane fails");

        let traces: Vec<JobTrace> = engine.flight_recorder().traces().concat();
        assert_eq!(traces.len(), 8, "every job is traced");
        let probe = traces.iter().find(|t| t.id == 5).expect("the probe's trace");
        assert!(probe.span_micros(Span::DecodeStart).is_some());
        assert_eq!(probe.span_micros(Span::DecodeEnd), None, "a poisoned decode never ends");
        let mut windows: Vec<(u64, u64)> = traces
            .iter()
            .filter(|t| t.id != 5)
            .map(|t| {
                let start = t.span_micros(Span::DecodeStart).expect("decode_start");
                (start, t.span_micros(Span::DecodeEnd).expect("decode_end"))
            })
            .collect();
        let mut ends: Vec<u64> = windows.iter().map(|w| w.1).collect();
        ends.sort_unstable();
        ends.dedup();
        assert_eq!(ends.len(), windows.len(), "two lanes share a decode_end: {windows:?}");
        windows.sort_unstable();
        for pair in windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "decode windows overlap: {windows:?}");
        }
        engine.shutdown();
    }

    #[test]
    fn runs_of_one_design_span_every_decoder() {
        // A run is one design key alone: jobs whose decoders rotate
        // Mn → GeneralMn → ThresholdMn still share runs, so 32 jobs cost
        // at most 8 cache accesses, and the results equal per-job serving.
        let specs: Vec<JobSpec> = (0..32)
            .map(|id| {
                let decoder = [DecoderKind::Mn, DecoderKind::GeneralMn, DecoderKind::ThresholdMn]
                    [id as usize % 3];
                let query_cost_micros = if id == 0 { 20_000 } else { 0 };
                JobSpec { decoder, query_cost_micros, ..spec(id) }
            })
            .collect();
        let serve = |batch_window: usize| {
            let engine = Engine::start(EngineConfig {
                workers: 1,
                queue_capacity: 32,
                results_capacity: 32,
                design_cache_capacity: 2,
                batch_window,
            });
            let mut out = Vec::new();
            engine.run_batch(&specs, &mut out);
            let stats = engine.shutdown();
            let fingerprints: Vec<(u64, u64)> =
                out.iter().map(|r| (r.id, r.fingerprint())).collect();
            (fingerprints, stats.cache_hits + stats.cache_misses)
        };
        let (batched, accesses) = serve(8);
        assert!(accesses <= 8, "{accesses} cache accesses for 32 jobs on one design");
        assert_eq!(batched, serve(1).0, "mixed-decoder runs changed results");
    }

    #[test]
    fn a_design_change_ends_a_run() {
        // Weights and decoders may differ inside a run, designs may not:
        // jobs alternating between two design keys never share a run, so
        // every job pays its own cache access.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 32,
            results_capacity: 32,
            design_cache_capacity: 2,
            batch_window: 8,
        });
        let specs: Vec<JobSpec> = (0..32)
            .map(|id| {
                let design = DesignSpec::random_regular(3 + id % 2);
                let query_cost_micros = if id == 0 { 20_000 } else { 0 };
                JobSpec { design, k: 4 + id as usize % 3, query_cost_micros, ..spec(id) }
            })
            .collect();
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        assert_eq!(out.len(), 32);
        let stats = engine.shutdown();
        assert_eq!(stats.cache_hits + stats.cache_misses, 32, "a run crossed a design change");
    }

    #[test]
    fn tiny_queues_exercise_backpressure_without_deadlock() {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_capacity: 1,
            results_capacity: 1,
            design_cache_capacity: 1,
            batch_window: 1,
        });
        let specs: Vec<JobSpec> = (0..25).map(spec).collect();
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        assert_eq!(out.len(), 25);
        engine.shutdown();
    }

    #[test]
    fn shutdown_finishes_queued_jobs() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 32,
            results_capacity: 32,
            design_cache_capacity: 2,
            batch_window: 1,
        });
        for id in 0..10 {
            engine.submit(spec(id)).unwrap();
        }
        let mut out = Vec::new();
        let stats = engine.shutdown_into(&mut out);
        assert_eq!(out.len(), 10, "graceful shutdown serves everything accepted");
        assert!(out.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(stats.jobs_completed, 10);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let engine = Engine::start(EngineConfig::with_workers(1));
        let shared = Arc::clone(&engine.shared);
        engine.shutdown();
        let queued = QueuedJob {
            spec: spec(0),
            enqueued: std::time::Instant::now(),
            route: SHARED_ROUTE,
            trace: JobTrace::empty(),
        };
        assert!(shared.jobs.push(queued).is_err());
    }

    #[test]
    fn telemetry_counts_latency_and_recoveries() {
        let engine = Engine::start(EngineConfig::with_workers(2));
        let specs: Vec<JobSpec> = (0..12).map(spec).collect();
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        let stats = engine.stats();
        assert_eq!(stats.jobs_completed, 12);
        assert_eq!(stats.total_latency.count(), 12);
        assert_eq!(stats.histogram.count(), 12);
        assert!(stats.total_latency.mean() > 0.0);
        assert!(stats.exact_recoveries as usize == out.iter().filter(|r| r.exact).count());
        engine.shutdown();
    }

    #[test]
    fn batch_window_is_fingerprint_invisible() {
        // The same traffic served per-job, with a window of 4, and with a
        // window larger than the queue must produce bit-identical result
        // fingerprints — batching may only change timing and throughput.
        let specs: Vec<JobSpec> = (0..30).map(spec).collect();
        let mut want: Option<Vec<(u64, u64)>> = None;
        for window in [1usize, 4, 64] {
            let engine = Engine::start(EngineConfig {
                workers: 2,
                queue_capacity: 16,
                results_capacity: 16,
                design_cache_capacity: 2,
                batch_window: window,
            });
            let mut out = Vec::new();
            engine.run_batch(&specs, &mut out);
            let stats = engine.shutdown();
            assert_eq!(stats.jobs_completed, 30, "window {window}");
            let got: Vec<(u64, u64)> = out.iter().map(|r| (r.id, r.fingerprint())).collect();
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(&got, w, "window {window} changed results"),
            }
        }
    }

    #[test]
    fn batching_shares_one_cache_access_per_run() {
        // With one hot design and a wide-open window, cache traffic drops
        // to roughly one access per batch instead of one per job.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 32,
            results_capacity: 32,
            design_cache_capacity: 2,
            batch_window: 8,
        });
        let specs: Vec<JobSpec> = (0..32).map(spec).collect();
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        assert_eq!(out.len(), 32);
        let stats = engine.shutdown();
        let accesses = stats.cache_hits + stats.cache_misses;
        assert!(
            accesses < 32,
            "batching should amortize cache lookups: {accesses} accesses for 32 jobs"
        );
    }

    #[test]
    fn routed_results_bypass_the_shared_stream() {
        let engine = Engine::start(EngineConfig::with_workers(2));
        let route_a = engine.open_route(16);
        let route_b = engine.open_route(16);
        assert_ne!(route_a.id(), route_b.id());
        for id in 0..6 {
            let r = if id % 2 == 0 { &route_a } else { &route_b };
            engine.submit_routed(spec(id), r).unwrap();
        }
        let mut got_a: Vec<u64> = (0..3).map(|_| route_a.recv().unwrap().id).collect();
        let mut got_b: Vec<u64> = (0..3).map(|_| route_b.recv().unwrap().id).collect();
        got_a.sort_unstable();
        got_b.sort_unstable();
        assert_eq!(got_a, vec![0, 2, 4], "route A sees exactly its own jobs");
        assert_eq!(got_b, vec![1, 3, 5], "route B sees exactly its own jobs");
        assert!(engine.try_recv().is_none(), "nothing leaked to the shared stream");
        // A closed route drops late results instead of blocking workers.
        route_b.close();
        engine.submit_routed(spec(9), &route_b).unwrap();
        let stats = engine.shutdown();
        assert_eq!(stats.jobs_completed, 7, "the dropped result was still served");
    }

    #[test]
    fn shutdown_wakes_routed_receivers() {
        let engine = Engine::start(EngineConfig::with_workers(1));
        let route = engine.open_route(4);
        let waiter = std::thread::spawn(move || route.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        engine.shutdown();
        assert_eq!(waiter.join().unwrap(), None, "shutdown must close routed streams");
    }

    #[test]
    fn route_waker_fires_after_delivery_and_at_shutdown() {
        let engine = Engine::start(EngineConfig::with_workers(1));
        let route = engine.open_route(8);
        let wakes = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&wakes);
        route.register_waker(Arc::new(move || {
            counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        engine.submit_routed(spec(0), &route).unwrap();
        engine.submit_routed(spec(1), &route).unwrap();
        // Push-then-wake: once a wake is observed, at least one result
        // is already in the queue.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while wakes.load(std::sync::atomic::Ordering::SeqCst) < 2 {
            assert!(std::time::Instant::now() < deadline, "waker never fired twice");
            std::thread::yield_now();
        }
        let mut got = 0;
        while let crate::queue::TryPop::Item(_) = route.try_recv() {
            got += 1;
        }
        assert_eq!(got, 2, "both results visible after their wakes");
        let before = wakes.load(std::sync::atomic::Ordering::SeqCst);
        engine.shutdown();
        assert!(
            wakes.load(std::sync::atomic::Ordering::SeqCst) > before,
            "close_routes must fire the waker so parked consumers see Closed"
        );
        assert!(matches!(route.try_recv(), crate::queue::TryPop::Closed));
    }

    #[test]
    fn stats_merge_adds_and_saturates() {
        let engine = Engine::start(EngineConfig::with_workers(2));
        let specs: Vec<JobSpec> = (0..10).map(spec).collect();
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        let a = engine.shutdown();

        // Plain addition: two copies of the same node double every count
        // and merge the latency moments exactly.
        let mut sum = EngineStats::zero();
        sum.merge(&a);
        sum.merge(&a);
        assert_eq!(sum.jobs_completed, 2 * a.jobs_completed);
        assert_eq!(sum.exact_recoveries, 2 * a.exact_recoveries);
        assert_eq!(sum.cache_hits, 2 * a.cache_hits);
        assert_eq!(sum.cache_misses, 2 * a.cache_misses);
        assert_eq!(sum.workers, 2 * a.workers);
        assert_eq!(sum.total_latency.count(), 2 * a.total_latency.count());
        assert_eq!(sum.histogram.count(), 2 * a.histogram.count());
        assert_eq!(sum.total_latency.mean(), a.total_latency.mean());
        let rate = sum.cache_hit_rate();
        assert!((0.0..=1.0).contains(&rate));

        // Saturation: counters near the ceiling clamp instead of wrapping.
        let mut big = EngineStats::zero();
        big.jobs_completed = u64::MAX - 1;
        big.cache_hits = u64::MAX - 1;
        big.merge(&a);
        assert_eq!(big.jobs_completed, u64::MAX, "merge must saturate, not wrap");
        assert_eq!(big.cache_hits, u64::MAX);
        assert!(big.cache_hit_rate().is_finite());
    }

    #[test]
    fn prewarmed_engine_serves_its_first_requests_without_cold_misses() {
        // Snapshot/restore-lite end to end: keys exported from one node
        // warm a "restarted" node before it accepts traffic, so the first
        // request on every key is already a hit.
        let specs: Vec<JobSpec> = (0..12).map(spec).collect();
        let first = Engine::start(EngineConfig::with_workers(2));
        let mut out = Vec::new();
        first.run_batch(&specs, &mut out);
        let snapshot: Vec<DesignKey> = specs.iter().map(DesignKey::of).collect();
        first.shutdown();

        let restarted = Engine::start_prewarmed(EngineConfig::with_workers(2), &snapshot);
        out.clear();
        restarted.run_batch(&specs, &mut out);
        let stats = restarted.shutdown();
        assert_eq!(stats.jobs_completed, 12);
        assert_eq!(stats.cache_misses, 0, "a prewarmed node must see no cold miss");
        assert_eq!(stats.cache_hits, 12);
    }

    #[test]
    fn traffic_on_a_prewarmed_key_waits_for_the_one_sample() {
        // The prewarm claims the key before any job exists, so every job
        // finds it resident or claimed: one sample in all, no miss.
        let engine = Engine::start(EngineConfig::with_workers(2));
        let shared = Arc::clone(&engine.shared);
        let specs: Vec<JobSpec> = (0..8).map(spec).collect();
        let key = DesignKey::of(&specs[0]);
        engine.prewarm(&[key]);
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        engine.prewarm(&[key]); // resident: costs nothing
        let stats = engine.shutdown();
        assert_eq!(out.len(), 8);
        assert_eq!(shared.cache.samples(), 1, "the prewarm's sample served every job");
        assert_eq!((stats.cache_hits, stats.cache_misses), (8, 0));
    }

    #[test]
    fn prewarms_past_the_sampler_queue_are_dropped_and_counted() {
        // Keys big enough that sampling one takes far longer than
        // claiming all of them, so the burst outruns the sampler.
        let specs: Vec<JobSpec> = (0..12)
            .map(|i| JobSpec { n: 1000, m: 200, design: DesignSpec::random_regular(i), ..spec(i) })
            .collect();
        let keys: Vec<DesignKey> = specs.iter().map(DesignKey::of).collect();
        let n = keys.len() as u64;
        let config = EngineConfig { design_cache_capacity: 3, ..EngineConfig::with_workers(1) };

        // Without traffic: every key is sampled once or counted dropped,
        // and the cache holds what was sampled.
        let engine = Engine::start(config);
        let shared = Arc::clone(&engine.shared);
        engine.prewarm(&keys);
        let dropped = engine.metrics().get(Metric::PrewarmsDropped);
        assert!(dropped > 0, "a burst past the queue must drop");
        let stats = engine.shutdown(); // joins the sampler
        let warmed = n - dropped;
        assert_eq!(shared.cache.samples(), warmed, "every queued claim sampled exactly once");
        assert_eq!(stats.cache_len as u64, warmed.min(3));
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0), "prewarming is not traffic");

        // Traffic right behind the burst: a dropped key's job samples it
        // as a counted miss, and no job parks on an abandoned claim.
        let engine = Engine::start(config);
        let shared = Arc::clone(&engine.shared);
        engine.prewarm(&keys);
        let dropped = engine.metrics().get(Metric::PrewarmsDropped);
        let mut out = Vec::new();
        engine.run_batch(&specs, &mut out);
        let stats = engine.shutdown();
        assert_eq!(out.len(), keys.len());
        assert_eq!(stats.cache_hits + stats.cache_misses, n);
        assert!(stats.cache_misses >= dropped, "each dropped key is its job's miss");
        assert_eq!(shared.cache.samples(), stats.cache_misses + (n - dropped));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Engine::start(EngineConfig {
            workers: 0,
            queue_capacity: 1,
            results_capacity: 1,
            design_cache_capacity: 1,
            batch_window: 1,
        });
    }
}
