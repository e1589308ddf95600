//! The cluster router: N [`NodeHandle`]s behind one submission surface.
//!
//! A router owns a set of nodes and a [`Membership`] table. Every job
//! routes by its [`DesignKey`] — HRW hashing pins a key to one node, so
//! that node's design cache stays hot for its key slice while the
//! cluster as a whole serves the full working set. The router keeps a
//! bounded **in-flight window per node** (pipelining without unbounded
//! queue growth), absorbs backpressure from either direction — a local
//! node's synchronous [`SubmitOutcome::Busy`] or a remote node's
//! asynchronous [`NodeEvent::Busy`] frame — by holding the spec until
//! that node resolves another job (its queue has room again), and fans
//! results into one completion buffer.
//!
//! Determinism is inherited, not negotiated: a job's result is a pure
//! function of its spec on *any* node, so placement, windows, retries,
//! rebalances and failovers can only change timing, never fingerprints
//! — the invariant `tests/cluster_determinism.rs` and
//! `tests/cluster_failover.rs` pin across 1-node, N-node, N-TCP-node
//! and kill-a-node-mid-stream topologies.
//!
//! ## Rebalance (drain protocol)
//!
//! [`Router::add_node`] migrates the minimal key slice (an HRW
//! property: exactly the keys the new node wins) in three steps:
//!
//! 1. **Stop routing** migrating keys: queued-but-unsubmitted jobs on
//!    those keys leave their old node's queues.
//! 2. **Flush in-flight**: jobs on migrating keys already inside a node
//!    are served to completion there (results are placement-invariant,
//!    so finishing on the old owner is safe — draining is about cache
//!    residency and ordering, not correctness).
//! 3. **Re-route**: the membership table swaps and the parked jobs go
//!    to the new owner, whose cache now warms the migrated slice.
//!
//! [`Router::remove_node`] is the planned inverse: drain the departing
//! node's in-flight jobs to completion, then swap the table and
//! re-route its parked slice to the survivors.
//!
//! ## Failure domain (health-checked failover)
//!
//! Node death is a handled event, not a hang. Three triggers mark a
//! node failed: a transport error from submit/flush, a
//! [`NodeEvent::Down`] or closed completion stream with work
//! unresolved, and **probation** — a node holding in-flight jobs that
//! has produced no event for [`FailoverConfig::probation`] (catches
//! black-holed peers that accept writes but never answer). Failover
//! removes the node from the membership, reclaims every spec it held
//! (queued, retrying, or in flight), and re-routes them to the
//! survivors under bounded retry with deterministic per-job jitter.
//! A job that exhausts [`FailoverConfig::max_retries`] fails
//! *terminally per job* ([`Router::failed`]) — the fan-in never wedges.
//! Because results are spec-pure, a job served twice (submitted to a
//! dying node that answered anyway, then re-served by a survivor) is
//! harmless: the duplicate resolution is counted in
//! [`Router::stale_events`] and dropped.
//!
//! HRW **top-2 placement** makes failover cheap: every key's
//! runner-up node ([`Membership::standby`]) is exactly the owner the
//! table elects once the current owner leaves, so the router keeps
//! standbys warm ([`NodeHandle::prewarm`]) as keys first appear — the
//! failed-over slice lands on a cache that already holds its designs,
//! costing zero cold misses.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pooled_lab::split::LatencySplit;
use pooled_rng::splitmix::mix64;

use crate::cache::DesignKey;
use crate::cluster::membership::Membership;
use crate::cluster::node::{NodeEvent, NodeHandle, SubmitOutcome};
use crate::engine::EngineStats;
use crate::job::{JobResult, JobSpec};
use crate::queue::TryPop;
use crate::telemetry::{CausalKind, FlightRecorder, Metric, MetricsRegistry};

/// How long the router parks when a full pass makes no progress
/// (windows full, no events ready). Small enough to be invisible next
/// to a query-dominated job, large enough not to burn a core.
const IDLE_PARK: std::time::Duration = std::time::Duration::from_micros(50);

/// Failure-handling knobs for a [`Router`]. The defaults suit
/// production-shaped deployments; tests shrink the timers.
#[derive(Clone, Copy, Debug)]
pub struct FailoverConfig {
    /// How long a node may hold in-flight jobs without producing a
    /// single event before it is declared dead. This is the black-hole
    /// detector: transport errors and closed streams fail a node
    /// immediately, probation catches the peer that accepts writes and
    /// then goes silent.
    pub probation: Duration,
    /// Per-job cap on failover re-routes. A spec that has been
    /// reclaimed from this many dead nodes fails terminally
    /// ([`Router::failed`]) instead of cycling forever.
    pub max_retries: u32,
    /// Base delay before a reclaimed spec resubmits. Attempt `k` waits
    /// `base * 2^(k-1)` plus a deterministic per-job jitter in
    /// `[0, base)` — bounded exponential backoff that never
    /// synchronizes a thundering herd.
    pub retry_backoff: Duration,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        Self {
            probation: Duration::from_secs(2),
            max_retries: 3,
            retry_backoff: Duration::from_millis(2),
        }
    }
}

/// One node and the router's bookkeeping for it.
struct Slot {
    id: u64,
    handle: Box<dyn NodeHandle>,
    /// Routed, not yet submitted (beyond the in-flight window).
    queue: VecDeque<JobSpec>,
    /// Parked specs awaiting resubmission (drained before `queue` once
    /// their ready instant passes): released BUSY bounces resubmit at
    /// once, failover re-routes after their backoff.
    retry: VecDeque<(JobSpec, Instant)>,
    /// Specs the node bounced with BUSY, held until it resolves another
    /// job (a RESULT or REJECT frees a place in its queue), or until it
    /// has nothing else in flight; then they join `retry`.
    held: Vec<JobSpec>,
    /// Submitted, not yet resolved: `job id → (spec, submit instant)`.
    /// The spec is the retry payload; the instant feeds the
    /// router-observed side of the latency split.
    in_flight: HashMap<u64, (JobSpec, Instant)>,
    /// Last sign of life: the most recent accepted submission or
    /// received event. Probation measures silence from here.
    last_event: Instant,
}

impl Slot {
    fn new(id: u64, handle: Box<dyn NodeHandle>) -> Self {
        Self {
            id,
            handle,
            queue: VecDeque::new(),
            retry: VecDeque::new(),
            held: Vec::new(),
            in_flight: HashMap::new(),
            last_event: Instant::now(),
        }
    }

    /// Jobs this slot still has to resolve.
    fn backlog(&self) -> usize {
        self.queue.len() + self.retry.len() + self.held.len() + self.in_flight.len()
    }

    /// Move every held BUSY bounce to the retry queue, ready now.
    fn release_held(&mut self) {
        let now = Instant::now();
        self.retry.extend(self.held.drain(..).map(|spec| (spec, now)));
    }

    /// Every spec this slot holds, in job-id order (failover reclaim).
    fn reclaim(&mut self) -> Vec<JobSpec> {
        let mut specs: Vec<JobSpec> = self.queue.drain(..).collect();
        specs.extend(self.retry.drain(..).map(|(spec, _)| spec));
        specs.append(&mut self.held);
        specs.extend(self.in_flight.drain().map(|(_, (spec, _))| spec));
        // The in-flight map iterates in hash order; sort so failover
        // re-routes deterministically.
        specs.sort_unstable_by_key(|spec| spec.id);
        specs
    }
}

/// Aggregated cluster telemetry: per-node stats where observable (local
/// nodes report, remote nodes' stats live server-side) plus the merged
/// view over every reporting node — including nodes that already left
/// the cluster (failed over or removed), so totals stay complete.
#[derive(Debug)]
pub struct ClusterStats {
    /// `(node id, stats)` per node, in slot order (current members only).
    pub nodes: Vec<(u64, Option<EngineStats>)>,
    /// Every reporting node folded together ([`EngineStats::merge`]),
    /// departed nodes included.
    pub merged: EngineStats,
    /// BUSY responses absorbed (and retried) by the router so far.
    pub busy_retries: u64,
    /// Jobs that failed terminally under failover ([`Router::failed`]).
    pub jobs_failed: u64,
    /// Late, duplicate or post-failover events tolerated and dropped
    /// ([`Router::stale_events`]).
    pub stale_events: u64,
    /// Ids of nodes removed by failover, in failure order.
    pub failed_nodes: Vec<u64>,
    /// Ids of member nodes whose stats could **not** be observed for
    /// this snapshot (a remote scrape timed out or the connection is
    /// gone). Their contribution is missing from `merged` — explicitly
    /// marked here rather than silently zero-merged, so dashboards can
    /// tell "idle node" from "blind spot".
    pub stats_unavailable: Vec<u64>,
}

/// A router over N nodes. Single-owner (`&mut self` surface): one
/// submitting context drives it, which is what makes the fan-in
/// deterministic to reason about. See the module docs for the shape.
pub struct Router {
    slots: Vec<Slot>,
    membership: Membership,
    /// Per-node in-flight window (max unresolved submissions per node).
    window: usize,
    config: FailoverConfig,
    busy_retries: u64,
    /// Jobs routed but not yet fanned into `completed`.
    outstanding: usize,
    /// Fan-in buffer, completion order (FIFO — popped from the front).
    completed: VecDeque<JobResult>,
    /// Ids of jobs a node terminally rejected (see [`Router::rejected`]).
    rejected: Vec<u64>,
    /// Ids of jobs that failed terminally under failover (see
    /// [`Router::failed`]).
    failed: Vec<u64>,
    /// Per-job failover attempt counts (cleared on resolution).
    attempts: HashMap<u64, u32>,
    /// Late/duplicate events tolerated (see [`Router::stale_events`]).
    stale_events: u64,
    /// Nodes removed by failover, in failure order.
    failed_nodes: Vec<u64>,
    /// Keys whose standby has been prewarmed under the current
    /// membership (cleared whenever the table changes).
    warmed: HashSet<DesignKey>,
    /// Final stats of nodes that left the cluster (failover or
    /// `remove_node`), folded into every merged view.
    departed: EngineStats,
    /// Causal-record sink for failovers, removals, stale events and
    /// scrape blind spots (see [`Self::attach_recorder`]).
    recorder: Option<Arc<FlightRecorder>>,
    /// Counter sink for router-tier outcomes (see
    /// [`Self::attach_metrics`]).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Router {
    /// A router over `nodes` (`(id, handle)` pairs) with a per-node
    /// in-flight window of `window` jobs and default failover handling.
    ///
    /// # Panics
    /// Panics if `nodes` is empty, ids repeat, or `window == 0`.
    pub fn new(nodes: Vec<(u64, Box<dyn NodeHandle>)>, window: usize) -> Self {
        Self::with_config(nodes, window, FailoverConfig::default())
    }

    /// [`Self::new`] with explicit [`FailoverConfig`] knobs.
    ///
    /// # Panics
    /// Panics if `nodes` is empty, ids repeat, or `window == 0`.
    pub fn with_config(
        nodes: Vec<(u64, Box<dyn NodeHandle>)>,
        window: usize,
        config: FailoverConfig,
    ) -> Self {
        assert!(window > 0, "the router needs an in-flight window of at least 1");
        let membership = Membership::new(nodes.iter().map(|(id, _)| *id).collect());
        let slots = nodes.into_iter().map(|(id, handle)| Slot::new(id, handle)).collect();
        Self {
            slots,
            membership,
            window,
            config,
            busy_retries: 0,
            outstanding: 0,
            completed: VecDeque::new(),
            rejected: Vec::new(),
            failed: Vec::new(),
            attempts: HashMap::new(),
            stale_events: 0,
            failed_nodes: Vec::new(),
            warmed: HashSet::new(),
            departed: EngineStats::zero(),
            recorder: None,
            metrics: None,
        }
    }

    /// Send the router's causal events — failovers, planned removals,
    /// stale events, scrape blind spots — to a [`FlightRecorder`]
    /// (typically the serving engine's, so job traces and cluster
    /// causality land in one dump).
    pub fn attach_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Count router-tier outcomes (today: [`Metric::JobsFailedOver`])
    /// in a [`MetricsRegistry`].
    pub fn attach_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    fn record_causal(&self, kind: CausalKind, node: u64, job: u64) {
        if let Some(rec) = &self.recorder {
            rec.record_causal(kind, node, job);
        }
    }

    /// The placement table.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Number of live nodes.
    pub fn nodes(&self) -> usize {
        self.slots.len()
    }

    /// BUSY responses absorbed (and retried) so far — both synchronous
    /// (local full queue) and wire (`BUSY` frames).
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Jobs accepted but not yet collectable.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Ids of jobs a node **terminally rejected** — a deployment
    /// mismatch, not a retryable state: the spec passed
    /// [`JobSpec::validate`] here but a remote node's transport refused
    /// it (e.g. its `TransportConfig::max_dimension` is below the spec
    /// shape). Rejected jobs produce no result; streaming callers
    /// should check this after [`Self::collect`] returns short.
    /// [`Self::run_batch`] panics instead — a batch is all-or-nothing.
    pub fn rejected(&self) -> &[u64] {
        &self.rejected
    }

    /// Ids of jobs that **failed terminally under failover**: their
    /// spec was reclaimed from more than [`FailoverConfig::max_retries`]
    /// dead nodes, or the last node died with them pending. Failed jobs
    /// produce no result; streaming callers should check this after
    /// [`Self::collect`] returns short. [`Self::run_batch`] panics
    /// instead — a batch is all-or-nothing.
    pub fn failed(&self) -> &[u64] {
        &self.failed
    }

    /// Events tolerated and dropped because no in-flight job matched:
    /// duplicated frames, and results that raced a failover decision (a
    /// slow node answered after its jobs were re-routed — harmless, the
    /// re-served result is bit-identical).
    pub fn stale_events(&self) -> u64 {
        self.stale_events
    }

    /// Ids of nodes removed by **failover** (not by
    /// [`Self::remove_node`]), in failure order.
    pub fn failed_nodes(&self) -> &[u64] {
        &self.failed_nodes
    }

    /// Route one job to its key's owner. Never blocks: beyond the
    /// node's window the job parks in the router's per-node queue. If
    /// every node has failed, the job fails terminally
    /// ([`Self::failed`]) instead of panicking.
    ///
    /// # Panics
    /// Panics if the spec is infeasible ([`JobSpec::validate`]).
    pub fn submit(&mut self, spec: JobSpec) {
        spec.validate();
        if self.slots.is_empty() {
            self.failed.push(spec.id);
            return;
        }
        let key = spec.design_key();
        self.warm_standby(&key);
        let idx = self.membership.owner_index(&key);
        self.slots[idx].queue.push_back(spec);
        self.outstanding += 1;
        // Start it moving if the window has room; completions are
        // drained by `collect`/`run_batch`.
        if fill_slot(&mut self.slots[idx], self.window, &mut self.busy_retries).is_err() {
            self.fail_over(idx);
        }
    }

    /// Non-blocking fan-in: one completed result, if any is buffered.
    pub fn poll(&mut self) -> Option<JobResult> {
        if self.completed.is_empty() {
            self.step(&mut None);
        }
        self.completed.pop_front()
    }

    /// Blocking fan-in: append up to `count` results to `out`, in
    /// completion order (callers wanting id order sort afterwards, as
    /// [`Self::run_batch`] does). Returns the number appended — short
    /// only when jobs were terminally rejected ([`Self::rejected`]) or
    /// failed under failover ([`Self::failed`]); every other job is
    /// waited for.
    ///
    /// # Panics
    /// Panics if fewer than `count` jobs are outstanding.
    pub fn collect(&mut self, count: usize, out: &mut Vec<JobResult>) -> usize {
        self.collect_impl(count, out, &mut None)
    }

    fn collect_impl(
        &mut self,
        count: usize,
        out: &mut Vec<JobResult>,
        split: &mut Option<&mut LatencySplit>,
    ) -> usize {
        assert!(
            count <= self.outstanding + self.completed.len(),
            "collect({count}) with only {} results coming",
            self.outstanding + self.completed.len()
        );
        let mut taken = 0usize;
        while taken < count {
            if !self.completed.is_empty() {
                let take = (count - taken).min(self.completed.len());
                out.extend(self.completed.drain(..take));
                taken += take;
                continue;
            }
            // Rejections and terminal failures shrink what's coming;
            // return short rather than wait for results that will never
            // arrive.
            if self.outstanding == 0 {
                break;
            }
            if !self.step(split) {
                std::thread::park_timeout(IDLE_PARK);
            }
        }
        taken
    }

    /// Serve a whole batch through the cluster: route every spec, fan
    /// the results back in, and append them to `out` **sorted by job
    /// id** — the same contract as `Engine::run_batch`, so fingerprint
    /// comparisons line up element-wise across 1-node, N-node and
    /// remote topologies. A one-node router over a `RemoteNode` is how
    /// a batch crosses the wire.
    ///
    /// # Panics
    /// Panics if jobs are already outstanding (batches are exclusive),
    /// a spec is infeasible, a node terminally rejects a job, or a job
    /// fails terminally under failover (a batch is a unit of work; the
    /// streaming API surfaces these per job instead).
    pub fn run_batch(&mut self, specs: &[JobSpec], out: &mut Vec<JobResult>) {
        self.run_batch_impl(specs, out, &mut None);
    }

    /// [`Self::run_batch`], additionally folding every job's latency
    /// into `split`: the engine-reported queue wait and service time,
    /// plus everything the engine cannot see from here — for a remote
    /// node the wire, for any node the time a result waits in the
    /// node's completion stream and the router's fan-in.
    pub fn run_batch_split(
        &mut self,
        specs: &[JobSpec],
        out: &mut Vec<JobResult>,
        split: &mut LatencySplit,
    ) {
        self.run_batch_impl(specs, out, &mut Some(split));
    }

    fn run_batch_impl(
        &mut self,
        specs: &[JobSpec],
        out: &mut Vec<JobResult>,
        split: &mut Option<&mut LatencySplit>,
    ) {
        assert!(
            self.outstanding == 0 && self.completed.is_empty(),
            "run_batch needs an idle router (a batch owns the fan-in while it runs)"
        );
        let start = out.len();
        let rejected_before = self.rejected.len();
        let failed_before = self.failed.len();
        for &spec in specs {
            self.submit(spec);
        }
        self.collect_impl(specs.len(), out, split);
        assert!(
            self.rejected.len() == rejected_before,
            "run_batch: node(s) terminally rejected jobs {:?} — a deployment mismatch (e.g. a \
             remote node's TransportConfig::max_dimension below the spec shape), not a retryable \
             state",
            &self.rejected[rejected_before..]
        );
        assert!(
            self.failed.len() == failed_before,
            "run_batch: jobs {:?} failed terminally under failover (retries exhausted or no \
             surviving nodes)",
            &self.failed[failed_before..]
        );
        out[start..].sort_unstable_by_key(|r| r.id);
    }

    /// One non-blocking pass over every node: top up in-flight windows,
    /// flush wires, drain events, check probation. Returns whether
    /// anything moved. At most one node fails over per pass (the next
    /// pass catches any other).
    fn step(&mut self, split: &mut Option<&mut LatencySplit>) -> bool {
        let mut progressed = self.fill_all();
        let mut down: Option<usize> = None;
        'slots: for idx in 0..self.slots.len() {
            loop {
                match self.slots[idx].handle.try_recv() {
                    TryPop::Item(event) => {
                        self.slots[idx].last_event = Instant::now();
                        match event {
                            NodeEvent::Result(result) => {
                                let Some((_, sent)) = self.slots[idx].in_flight.remove(&result.id)
                                else {
                                    // A duplicated frame, or a slow node
                                    // answering after failover re-routed
                                    // the job. The accepted resolution is
                                    // bit-identical; drop this one.
                                    self.stale_events += 1;
                                    self.record_causal(
                                        CausalKind::StaleEvent,
                                        self.slots[idx].id,
                                        result.id,
                                    );
                                    continue;
                                };
                                self.attempts.remove(&result.id);
                                self.slots[idx].release_held();
                                if let Some(split) = split.as_deref_mut() {
                                    let observed = sent.elapsed().as_micros() as u64;
                                    split.record_observed(
                                        result.queue_micros,
                                        result.total_micros,
                                        observed,
                                    );
                                }
                                self.completed.push_back(result);
                                self.outstanding -= 1;
                                progressed = true;
                            }
                            NodeEvent::Busy(id) => {
                                let Some((spec, _)) = self.slots[idx].in_flight.remove(&id) else {
                                    self.stale_events += 1;
                                    self.record_causal(
                                        CausalKind::StaleEvent,
                                        self.slots[idx].id,
                                        id,
                                    );
                                    continue;
                                };
                                // The node's queue is full: hold the spec
                                // until the node resolves another job. A
                                // bounce is not progress.
                                self.busy_retries += 1;
                                self.slots[idx].held.push(spec);
                            }
                            NodeEvent::Rejected(id) => {
                                // Terminal, not retryable: the job passed
                                // local validation but the node's transport
                                // refused it (a config mismatch like
                                // max_dimension). Resolve the job without a
                                // result; the caller sees it in
                                // `rejected()` (or run_batch's panic).
                                if self.slots[idx].in_flight.remove(&id).is_none() {
                                    self.stale_events += 1;
                                    self.record_causal(
                                        CausalKind::StaleEvent,
                                        self.slots[idx].id,
                                        id,
                                    );
                                    continue;
                                }
                                self.attempts.remove(&id);
                                self.slots[idx].release_held();
                                self.rejected.push(id);
                                self.outstanding -= 1;
                                progressed = true;
                            }
                            NodeEvent::Down => {
                                down = Some(idx);
                                break 'slots;
                            }
                        }
                    }
                    TryPop::Empty => break,
                    TryPop::Closed => {
                        if self.slots[idx].backlog() > 0 {
                            // The completion stream died under unresolved
                            // work — the node is gone.
                            down = Some(idx);
                            break 'slots;
                        }
                        break;
                    }
                }
            }
        }
        if down.is_none() {
            down = self.probation_expired();
        }
        if let Some(idx) = down {
            self.fail_over(idx);
            return true;
        }
        progressed
    }

    /// Top up every slot's window; a slot whose transport errors fails
    /// over in place. Returns whether anything was submitted.
    fn fill_all(&mut self) -> bool {
        let mut progressed = false;
        let mut idx = 0;
        while idx < self.slots.len() {
            match fill_slot(&mut self.slots[idx], self.window, &mut self.busy_retries) {
                Ok(moved) => {
                    progressed |= moved;
                    idx += 1;
                }
                Err(()) => {
                    // `fail_over` removes the slot; re-check this index.
                    self.fail_over(idx);
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// The first slot holding in-flight work that has been silent past
    /// probation, if any.
    fn probation_expired(&self) -> Option<usize> {
        self.slots.iter().position(|slot| {
            !slot.in_flight.is_empty() && slot.last_event.elapsed() > self.config.probation
        })
    }

    /// Remove slot `idx` as **failed**: reclaim every spec it held and
    /// re-route to the survivors under bounded retry, or fail the jobs
    /// terminally when retries are exhausted (or no survivors remain).
    fn fail_over(&mut self, idx: usize) {
        // `remove` (not `swap_remove`): slot order must stay aligned
        // with the membership table's node order.
        let mut slot = self.slots.remove(idx);
        let node_id = slot.id;
        self.failed_nodes.push(node_id);
        let reclaimed = slot.reclaim();
        self.record_causal(CausalKind::Failover, node_id, 0);
        if let Some(metrics) = &self.metrics {
            metrics.add(Metric::JobsFailedOver, reclaimed.len() as u64);
        }
        // Sever the node and bank whatever telemetry it can still
        // report, so merged totals stay complete.
        slot.handle.close();
        let Slot { handle, .. } = slot;
        if let Some(stats) = handle.shutdown() {
            self.departed.merge(&stats);
        }
        // Standby assignments shift with the table.
        self.warmed.clear();
        if self.slots.is_empty() {
            // No survivors: every reclaimed job fails terminally. The
            // fan-in unblocks (outstanding hits zero) instead of
            // wedging forever.
            for spec in reclaimed {
                self.attempts.remove(&spec.id);
                self.failed.push(spec.id);
                self.outstanding -= 1;
            }
            return;
        }
        self.membership = self.membership.without_node(node_id);
        let now = Instant::now();
        for spec in reclaimed {
            let attempt = {
                let count = self.attempts.entry(spec.id).or_insert(0);
                *count += 1;
                *count
            };
            if attempt > self.config.max_retries {
                self.attempts.remove(&spec.id);
                self.failed.push(spec.id);
                self.outstanding -= 1;
                continue;
            }
            let key = spec.design_key();
            self.warm_standby(&key);
            let target = self.membership.owner_index(&key);
            let ready = now + retry_delay(self.config.retry_backoff, attempt, spec.id);
            self.slots[target].retry.push_back((spec, ready));
        }
        let _ = self.fill_all();
    }

    /// Prewarm `key`'s standby once per membership epoch, so a failover
    /// of its owner lands on a cache that already holds the design.
    fn warm_standby(&mut self, key: &DesignKey) {
        if self.slots.len() < 2 || !self.warmed.insert(*key) {
            return;
        }
        if let Some(idx) = self.membership.standby_index(key) {
            // Best-effort: a standby that cannot warm pays the cold
            // miss later (and a dead one is failover's problem).
            let _ = self.slots[idx].handle.prewarm(std::slice::from_ref(key));
        }
    }

    /// Add a node, rebalancing with the drain protocol (module docs):
    /// routing stops for the migrating key slice, in-flight jobs on
    /// those keys flush to completion on their old owner, then the
    /// membership swaps and the parked jobs go to the new node.
    /// Safe mid-stream: outstanding jobs elsewhere keep flowing the
    /// whole time, and results remain bit-identical — placement is
    /// fingerprint-invisible.
    ///
    /// # Panics
    /// Panics if `id` is already a member.
    pub fn add_node(&mut self, id: u64, handle: Box<dyn NodeHandle>) {
        let next = self.membership.with_node(id);
        // 1. Stop routing the migrating slice (keys the new node wins).
        let mut parked = extract_migrating(&mut self.slots, &next, id);
        // 2. Flush in-flight migrating jobs on their old owners. A BUSY
        //    bounce during the drain holds the spec on its slot again,
        //    so keep extracting while we wait.
        loop {
            let draining = self.slots.iter().any(|slot| {
                slot.in_flight.values().any(|(spec, _)| next.owner(&spec.design_key()) == id)
            });
            if !draining {
                break;
            }
            if !self.step(&mut None) {
                std::thread::park_timeout(IDLE_PARK);
            }
            parked.extend(extract_migrating(&mut self.slots, &next, id));
        }
        // 3. Swap the table, install the node, re-route the slice.
        // (Recompute the table rather than reusing `next`: a failover
        // during the drain may have shrunk the membership.)
        self.membership = self.membership.with_node(id);
        self.warmed.clear();
        self.slots.push(Slot::new(id, handle));
        for spec in parked {
            let idx = self.membership.owner_index(&spec.design_key());
            self.slots[idx].queue.push_back(spec);
        }
        let _ = self.fill_all();
    }

    /// Remove node `id` **gracefully** — the planned inverse of
    /// [`Self::add_node`]: stop routing to it, let its in-flight jobs
    /// flush to completion there (results are placement-invariant),
    /// then swap the table, re-route its parked slice to the survivors
    /// and shut the node down. Returns the node's final stats when the
    /// handle owned its engine (these are also folded into the router's
    /// merged telemetry), or `None` for remote nodes — or if
    /// the node died mid-drain, in which case failover already
    /// re-routed its in-flight work.
    ///
    /// # Panics
    /// Panics if `id` is not a member or is the last node (drain the
    /// router and call [`Self::shutdown`] instead).
    pub fn remove_node(&mut self, id: u64) -> Option<EngineStats> {
        assert!(self.slots.iter().any(|slot| slot.id == id), "remove_node({id}): not a member");
        assert!(self.slots.len() > 1, "cannot remove the last node — use shutdown instead");
        // 1. Stop routing to the departing node; park its queued work.
        // 2. Flush its in-flight jobs to completion where they are.
        let mut parked: Vec<JobSpec> = Vec::new();
        loop {
            let Some(idx) = self.slots.iter().position(|slot| slot.id == id) else {
                // The node died mid-drain: failover reclaimed and
                // re-routed its in-flight work. Re-route what we parked
                // ourselves and report no stats.
                self.reroute(parked);
                return None;
            };
            let slot = &mut self.slots[idx];
            parked.extend(slot.queue.drain(..));
            parked.extend(slot.retry.drain(..).map(|(spec, _)| spec));
            parked.append(&mut slot.held);
            if slot.in_flight.is_empty() {
                break;
            }
            if !self.step(&mut None) {
                std::thread::park_timeout(IDLE_PARK);
            }
        }
        // 3. Swap the table, drop the node, re-route the parked slice.
        let idx = self.slots.iter().position(|slot| slot.id == id).expect("drained in place");
        self.membership = self.membership.without_node(id);
        self.warmed.clear();
        self.record_causal(CausalKind::NodeRemoved, id, 0);
        let Slot { handle, .. } = self.slots.remove(idx);
        let stats = handle.shutdown();
        if let Some(stats) = &stats {
            self.departed.merge(stats);
        }
        self.reroute(parked);
        stats
    }

    /// Queue `specs` on their current owners (warming standbys) and
    /// start them moving. Outstanding counts are unchanged — these are
    /// jobs the router already accepted.
    fn reroute(&mut self, mut specs: Vec<JobSpec>) {
        specs.sort_unstable_by_key(|spec| spec.id);
        for spec in specs {
            if self.slots.is_empty() {
                self.attempts.remove(&spec.id);
                self.failed.push(spec.id);
                self.outstanding -= 1;
                continue;
            }
            let key = spec.design_key();
            self.warm_standby(&key);
            let idx = self.membership.owner_index(&key);
            self.slots[idx].queue.push_back(spec);
        }
        let _ = self.fill_all();
    }

    /// Live aggregate telemetry (see [`ClusterStats`]). Remote nodes
    /// are scraped over the wire here (`STATS_REQUEST`/`STATS`, bounded
    /// wait); a node whose scrape fails lands in
    /// [`ClusterStats::stats_unavailable`] instead of zero-diluting the
    /// merged view.
    pub fn stats(&self) -> ClusterStats {
        let nodes: Vec<(u64, Option<EngineStats>)> =
            self.slots.iter().map(|s| (s.id, s.handle.stats())).collect();
        let mut merged = self.departed;
        let mut stats_unavailable = Vec::new();
        for (id, stats) in nodes.iter() {
            match stats {
                Some(stats) => merged.merge(stats),
                None => {
                    stats_unavailable.push(*id);
                    self.record_causal(CausalKind::StatsUnavailable, *id, 0);
                }
            }
        }
        ClusterStats {
            nodes,
            merged,
            busy_retries: self.busy_retries,
            jobs_failed: self.failed.len() as u64,
            stale_events: self.stale_events,
            failed_nodes: self.failed_nodes.clone(),
            stats_unavailable,
        }
    }

    /// Shut every node down and return final telemetry (local nodes
    /// report their engines' final stats; remote nodes report `None` —
    /// their engines outlive the router). Nodes that already
    /// left (failover, [`Self::remove_node`]) stay folded into
    /// `merged`.
    ///
    /// # Panics
    /// Panics if jobs are still outstanding (collect them first).
    pub fn shutdown(mut self) -> ClusterStats {
        assert!(self.outstanding == 0, "shutdown with {} jobs outstanding", self.outstanding);
        let busy_retries = self.busy_retries;
        let mut nodes = Vec::new();
        let mut merged = self.departed;
        let mut stats_unavailable = Vec::new();
        for slot in self.slots.drain(..) {
            let stats = slot.handle.shutdown();
            match &stats {
                Some(stats) => merged.merge(stats),
                // At shutdown `None` means the node's engine outlives
                // this handle (a remote node) — its final stats are
                // its owner's to report, so it is "unavailable from
                // here" in the same sense as a failed live scrape.
                None => stats_unavailable.push(slot.id),
            }
            nodes.push((slot.id, stats));
        }
        ClusterStats {
            nodes,
            merged,
            busy_retries,
            jobs_failed: self.failed.len() as u64,
            stale_events: self.stale_events,
            failed_nodes: self.failed_nodes.clone(),
            stats_unavailable,
        }
    }
}

/// Top up one node's in-flight window from its retry/queue backlog
/// (retries whose ready instant has passed take priority). Returns
/// whether anything was submitted, or `Err(())` when the node's
/// transport failed — the caller must fail the node over (the
/// unsubmitted spec is back at the front of its retry queue, so the
/// reclaim loses nothing). A synchronous `Busy` holds the spec and stops
/// filling (the queue is full; a completion must free a slot first).
/// Held specs of a node with nothing in flight are released here, since
/// no completion will come to release them.
fn fill_slot(slot: &mut Slot, window: usize, busy_retries: &mut u64) -> Result<bool, ()> {
    if slot.in_flight.is_empty() && !slot.held.is_empty() {
        slot.release_held();
    }
    let mut progressed = false;
    while slot.in_flight.len() < window {
        let now = Instant::now();
        let spec = if slot.retry.front().is_some_and(|(_, ready)| *ready <= now) {
            slot.retry.pop_front().map(|(spec, _)| spec)
        } else {
            slot.queue.pop_front()
        };
        let Some(spec) = spec else { break };
        match slot.handle.try_submit(spec) {
            Ok(SubmitOutcome::Accepted) => {
                slot.last_event = now;
                slot.in_flight.insert(spec.id, (spec, now));
                progressed = true;
            }
            Ok(SubmitOutcome::Busy) => {
                *busy_retries += 1;
                slot.held.push(spec);
                break;
            }
            Err(_) => {
                slot.retry.push_front((spec, now));
                return Err(());
            }
        }
    }
    if progressed && slot.handle.flush().is_err() {
        return Err(());
    }
    Ok(progressed)
}

/// Deterministic bounded backoff for failover attempt `attempt` of job
/// `id`: `base * 2^min(attempt-1, 6)` plus a per-job jitter in
/// `[0, base)` derived from the job id — reproducible, and never
/// synchronized across jobs.
fn retry_delay(base: Duration, attempt: u32, id: u64) -> Duration {
    let backoff = base * (1u32 << (attempt - 1).min(6));
    let base_micros = (base.as_micros() as u64).max(1);
    let jitter = mix64(id ^ (u64::from(attempt) << 32)) % base_micros;
    backoff + Duration::from_micros(jitter)
}

/// Pull every queued, retrying or held job whose key migrates to
/// `new_id` under `next` out of the slots (step 1 of the drain protocol).
fn extract_migrating(slots: &mut [Slot], next: &Membership, new_id: u64) -> Vec<JobSpec> {
    let mut parked = Vec::new();
    // Keep `spec` unless it migrates, in which case park it.
    let mut stays = |spec: &JobSpec| {
        let migrates = next.owner(&spec.design_key()) == new_id;
        if migrates {
            parked.push(*spec);
        }
        !migrates
    };
    for slot in slots {
        slot.queue.retain(&mut stays);
        slot.retry.retain(|(spec, _)| stays(spec));
        slot.held.retain(&mut stays);
    }
    parked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::node::LocalNode;
    use crate::engine::EngineConfig;
    use crate::job::{DecoderKind, DesignSpec};

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            n: 250,
            k: 5,
            m: 160,
            // Spread ids over distinct designs so keys shard over nodes.
            design: DesignSpec::random_regular(id % 5),
            decoder: DecoderKind::Mn,
            seed: 900 + id,
            query_cost_micros: 0,
        }
    }

    fn local_cluster(nodes: usize, workers: usize) -> Router {
        let handles: Vec<(u64, Box<dyn NodeHandle>)> = (0..nodes as u64)
            .map(|id| {
                let config = EngineConfig {
                    workers,
                    queue_capacity: 8,
                    results_capacity: 8,
                    design_cache_capacity: 8,
                    batch_window: 1,
                };
                (id, Box::new(LocalNode::start(config)) as Box<dyn NodeHandle>)
            })
            .collect();
        Router::new(handles, 4)
    }

    #[test]
    fn batch_results_are_complete_and_id_sorted() {
        let mut router = local_cluster(3, 2);
        let specs: Vec<JobSpec> = (0..30).map(spec).collect();
        let mut out = Vec::new();
        router.run_batch(&specs, &mut out);
        assert_eq!(out.len(), 30);
        assert!(out.windows(2).all(|w| w[0].id < w[1].id));
        let stats = router.shutdown();
        assert_eq!(stats.merged.jobs_completed, 30);
        assert_eq!(stats.nodes.len(), 3);
        assert_eq!(stats.jobs_failed, 0);
        assert!(stats.failed_nodes.is_empty());
    }

    #[test]
    fn placement_follows_the_membership_table() {
        let mut router = local_cluster(3, 1);
        let specs: Vec<JobSpec> = (0..20).map(spec).collect();
        let mut out = Vec::new();
        router.run_batch(&specs, &mut out);
        // Every node served exactly the jobs whose keys it owns.
        let membership = router.membership().clone();
        let want: Vec<u64> = specs.iter().map(|s| membership.owner(&s.design_key())).collect();
        let stats = router.shutdown();
        for (idx, (id, node_stats)) in stats.nodes.iter().enumerate() {
            let expected = want.iter().filter(|&&o| o == *id).count() as u64;
            assert_eq!(
                node_stats.as_ref().expect("local stats").jobs_completed,
                expected,
                "node {idx} served the wrong slice"
            );
        }
    }

    #[test]
    fn cluster_fingerprints_match_a_single_node() {
        let specs: Vec<JobSpec> = (0..24).map(spec).collect();
        let mut single = local_cluster(1, 1);
        let mut want = Vec::new();
        single.run_batch(&specs, &mut want);
        single.shutdown();
        let mut cluster = local_cluster(3, 2);
        let mut got = Vec::new();
        cluster.run_batch(&specs, &mut got);
        cluster.shutdown();
        let project =
            |rs: &[JobResult]| rs.iter().map(|r| (r.id, r.fingerprint())).collect::<Vec<_>>();
        assert_eq!(project(&want), project(&got), "sharding changed results");
    }

    #[test]
    fn tiny_node_queues_backpressure_without_deadlock() {
        // Per-node queue capacity 1 against a window of 4 forces the
        // synchronous Busy path constantly; everything must still serve.
        let handles: Vec<(u64, Box<dyn NodeHandle>)> = (0..2u64)
            .map(|id| {
                let config = EngineConfig {
                    workers: 1,
                    queue_capacity: 1,
                    results_capacity: 1,
                    design_cache_capacity: 4,
                    batch_window: 1,
                };
                (id, Box::new(LocalNode::start(config)) as Box<dyn NodeHandle>)
            })
            .collect();
        let mut router = Router::new(handles, 4);
        let specs: Vec<JobSpec> = (0..25).map(spec).collect();
        let mut out = Vec::new();
        router.run_batch(&specs, &mut out);
        assert_eq!(out.len(), 25);
        assert!(router.busy_retries() > 0, "tiny queues must exercise the retry path");
        router.shutdown();
    }

    /// A node whose queue holds one job: it accepts every submission,
    /// leaves job 0 unanswered until the test finishes it, and answers
    /// every other job BUSY while job 0 occupies the queue.
    #[derive(Clone, Default)]
    struct OneSlotNode(Arc<std::sync::Mutex<OneSlot>>);

    #[derive(Default)]
    struct OneSlot {
        submissions: usize,
        zero_done: bool,
        events: VecDeque<NodeEvent>,
    }

    impl NodeHandle for OneSlotNode {
        fn submit(&self, spec: JobSpec) -> Result<(), crate::cluster::node::NodeError> {
            self.try_submit(spec).map(|_| ())
        }

        fn try_submit(
            &self,
            spec: JobSpec,
        ) -> Result<SubmitOutcome, crate::cluster::node::NodeError> {
            let mut node = self.0.lock().unwrap();
            node.submissions += 1;
            if spec.id != 0 {
                let event = if node.zero_done {
                    NodeEvent::Result(JobResult::decode_poisoned(&spec, 0))
                } else {
                    NodeEvent::Busy(spec.id)
                };
                node.events.push_back(event);
            }
            Ok(SubmitOutcome::Accepted)
        }

        fn recv(&self) -> Option<NodeEvent> {
            self.0.lock().unwrap().events.pop_front()
        }

        fn try_recv(&self) -> TryPop<NodeEvent> {
            match self.recv() {
                Some(event) => TryPop::Item(event),
                None => TryPop::Empty,
            }
        }

        fn prewarm(&self, _keys: &[DesignKey]) -> Result<(), crate::cluster::node::NodeError> {
            Ok(())
        }

        fn stats(&self) -> Option<EngineStats> {
            None
        }

        fn close(&self) {}

        fn shutdown(self: Box<Self>) -> Option<EngineStats> {
            None
        }
    }

    #[test]
    fn busy_bounces_wait_until_the_node_resolves_a_job() {
        let node = OneSlotNode::default();
        let mut router = Router::new(vec![(0, Box::new(node.clone()) as Box<dyn NodeHandle>)], 4);
        for id in 0..4 {
            router.submit(spec(id));
        }
        for _ in 0..50 {
            assert!(router.poll().is_none());
        }
        let submissions = node.0.lock().unwrap().submissions;
        assert_eq!(submissions, 4, "BUSY bounces resubmitted while the node was still full");
        assert_eq!(router.busy_retries(), 3);
        // Job 0 resolves and frees the queue: the held specs resubmit.
        {
            let mut state = node.0.lock().unwrap();
            state.zero_done = true;
            state.events.push_back(NodeEvent::Result(JobResult::decode_poisoned(&spec(0), 0)));
        }
        let mut out = Vec::new();
        assert_eq!(router.collect(4, &mut out), 4);
        assert_eq!(node.0.lock().unwrap().submissions, 7);
        assert_eq!(router.busy_retries(), 3);
        router.shutdown();
    }

    #[test]
    fn mid_stream_rebalance_preserves_results_and_moves_the_minimal_slice() {
        let specs: Vec<JobSpec> = (0..36).map(spec).collect();
        // Ground truth from a static 1-node cluster.
        let mut single = local_cluster(1, 1);
        let mut want = Vec::new();
        single.run_batch(&specs, &mut want);
        single.shutdown();

        // Stream half, rebalance, stream the rest.
        let mut router = local_cluster(2, 1);
        let before = router.membership().clone();
        for &s in &specs[..18] {
            router.submit(s);
        }
        let new_node = Box::new(LocalNode::start(EngineConfig {
            workers: 1,
            queue_capacity: 8,
            results_capacity: 8,
            design_cache_capacity: 8,
            batch_window: 1,
        }));
        router.add_node(7, new_node);
        let after = router.membership().clone();
        for &s in &specs[18..] {
            router.submit(s);
        }
        let mut got = Vec::new();
        router.collect(36, &mut got);
        got.sort_unstable_by_key(|r| r.id);
        let project =
            |rs: &[JobResult]| rs.iter().map(|r| (r.id, r.fingerprint())).collect::<Vec<_>>();
        assert_eq!(project(&want), project(&got), "rebalance changed results");
        // HRW minimal migration at the membership level: every key that
        // changed owner moved to the new node.
        for s in &specs {
            let key = s.design_key();
            if before.owner(&key) != after.owner(&key) {
                assert_eq!(after.owner(&key), 7);
            }
        }
        router.shutdown();
    }

    #[test]
    fn mid_stream_remove_node_preserves_results() {
        let specs: Vec<JobSpec> = (0..36).map(spec).collect();
        let mut single = local_cluster(1, 1);
        let mut want = Vec::new();
        single.run_batch(&specs, &mut want);
        single.shutdown();

        // Stream half through 3 nodes, drain one out, stream the rest.
        let mut router = local_cluster(3, 1);
        for &s in &specs[..18] {
            router.submit(s);
        }
        let stats = router.remove_node(1).expect("owned local node reports stats");
        assert_eq!(router.nodes(), 2);
        assert!(
            !router.membership().node_ids().contains(&1),
            "the membership must drop the removed node"
        );
        for &s in &specs[18..] {
            router.submit(s);
        }
        let mut got = Vec::new();
        router.collect(36, &mut got);
        got.sort_unstable_by_key(|r| r.id);
        let project =
            |rs: &[JobResult]| rs.iter().map(|r| (r.id, r.fingerprint())).collect::<Vec<_>>();
        assert_eq!(project(&want), project(&got), "remove_node changed results");
        // The departed node's work is not lost from the merged view.
        let final_stats = router.shutdown();
        assert_eq!(
            final_stats.merged.jobs_completed, 36,
            "merged stats must include the removed node's {} jobs",
            stats.jobs_completed
        );
        assert!(final_stats.failed_nodes.is_empty(), "a planned drain is not a failure");
    }

    #[test]
    #[should_panic(expected = "idle router")]
    fn run_batch_requires_an_idle_router() {
        let mut router = local_cluster(1, 1);
        router.submit(spec(0));
        let mut out = Vec::new();
        router.run_batch(&[spec(1)], &mut out);
    }

    #[test]
    fn retry_delays_grow_and_stay_bounded() {
        let base = Duration::from_millis(2);
        let d1 = retry_delay(base, 1, 42);
        let d2 = retry_delay(base, 2, 42);
        let d9 = retry_delay(base, 9, 42);
        assert!(d1 >= base && d1 < base * 2, "attempt 1 is base + jitter: {d1:?}");
        assert!(d2 >= base * 2 && d2 < base * 3, "attempt 2 doubles: {d2:?}");
        assert!(d9 < base * 65, "the backoff exponent is capped: {d9:?}");
        // Jitter is deterministic per (id, attempt) and varies by id.
        assert_eq!(retry_delay(base, 1, 42), d1);
        assert_ne!(retry_delay(base, 1, 42), retry_delay(base, 1, 43));
    }

    #[test]
    fn remote_rejects_resolve_as_rejected_ids_not_router_panics() {
        // Regression: a spec can pass JobSpec::validate here yet exceed
        // a remote node's TransportConfig::max_dimension — a deployment
        // mismatch the router must surface per job, not crash on. The
        // streaming API returns short and names the id; every
        // non-rejected job is still served.
        use crate::cluster::node::RemoteNode;
        use crate::engine::Engine;
        use crate::transport::{TransportConfig, TransportServer};
        use std::sync::Arc;

        let engine = Arc::new(Engine::start(EngineConfig::with_workers(1)));
        let server = TransportServer::bind(
            Arc::clone(&engine),
            "127.0.0.1:0",
            TransportConfig {
                route_capacity: 8,
                max_dimension: 1 << 10,
                ..TransportConfig::default()
            },
        )
        .expect("bind loopback");
        let remote = RemoteNode::connect(server.local_addr()).expect("connect");
        let mut router = Router::new(vec![(0, Box::new(remote) as Box<dyn NodeHandle>)], 4);

        let good = spec(1); // n = 250 < 1024: within the node's cap
        let mut huge = spec(2);
        huge.n = 1 << 12; // feasible, but beyond the node's max_dimension
        huge.m = 64;
        assert!(huge.is_feasible());
        router.submit(good);
        router.submit(huge);
        let mut out = Vec::new();
        let taken = router.collect(2, &mut out);
        assert_eq!(taken, 1, "collect returns short on a rejection");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, good.id, "the good job was still served");
        assert_eq!(router.rejected(), &[huge.id]);
        assert_eq!(router.outstanding(), 0);

        router.shutdown();
        server.stop();
        Arc::try_unwrap(engine).ok().expect("transport released the engine").shutdown();
    }
}
