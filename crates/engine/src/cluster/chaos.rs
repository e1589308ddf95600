//! Fault injection for cluster nodes: a [`NodeHandle`] wrapper that
//! drops, delays, duplicates, or severs traffic on a deterministic
//! schedule.
//!
//! [`ChaosNode`] wraps any inner handle and misbehaves *between* the
//! router and the node, which is exactly where real faults live: a
//! submission that never arrives (black-holed peer), an event that
//! arrives late or twice (retransmit storms, a reply racing a
//! failover), a connection that dies mid-stream (process kill). Every
//! decision derives from [`ChaosConfig::seed`] and a per-stream counter
//! via `mix64`, so a failing schedule replays bit-for-bit — no flaky
//! tests, no irreproducible failures.
//!
//! The paired [`ChaosController`] is the test's hand on the lever: it
//! can [`kill`](ChaosController::kill) the node at a chosen moment
//! (the next touch severs the completion stream, exactly like a
//! crashed peer) and read fault counters afterwards to assert the
//! schedule actually injected something.
//!
//! `tests/cluster_failover.rs` drives a chaos-wrapped cluster to pin
//! the failure-domain headline: kill a node mid-stream and every job
//! still completes, with fingerprints bit-identical to the fault-free
//! run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pooled_rng::splitmix::mix64;

use crate::cache::DesignKey;
use crate::cluster::node::{NodeError, NodeEvent, NodeHandle, SubmitOutcome};
use crate::engine::EngineStats;
use crate::job::JobSpec;
use crate::queue::TryPop;
use crate::telemetry::{CausalKind, FlightRecorder};

/// Fault schedule for a [`ChaosNode`]. Rates are per-mille (`0..=1000`)
/// so integer arithmetic stays exact; every roll is a pure function of
/// `seed` and the event counter.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Per-mille chance a submission is silently swallowed (the wire
    /// accepted it; the peer never saw it) — exercises probation.
    pub drop_milli: u32,
    /// Per-mille chance an event is handed to the router twice —
    /// exercises stale-event tolerance.
    pub duplicate_milli: u32,
    /// Per-mille chance an event is held back one poll — exercises
    /// reordering tolerance.
    pub delay_milli: u32,
    /// Sever the node (as if the process died) once this many
    /// submissions have been attempted. `None` leaves the kill switch
    /// to the [`ChaosController`].
    pub disconnect_after: Option<u64>,
}

impl ChaosConfig {
    /// No scheduled faults: the node behaves perfectly until the
    /// controller pulls [`ChaosController::kill`]. The usual config
    /// for kill-mid-stream tests that want a clean before/after.
    pub fn quiet(seed: u64) -> Self {
        Self { seed, drop_milli: 0, duplicate_milli: 0, delay_milli: 0, disconnect_after: None }
    }
}

/// Shared fault state between a [`ChaosNode`] and its controller.
#[derive(Debug, Default)]
struct ChaosState {
    killed: AtomicBool,
    submissions: AtomicU64,
    events: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
}

/// The test's handle on a [`ChaosNode`]: pull the kill switch at a
/// chosen moment, read fault counters afterwards.
#[derive(Clone, Debug)]
pub struct ChaosController {
    state: Arc<ChaosState>,
}

impl ChaosController {
    /// Sever the node as if its process died: the next touch from the
    /// router closes the completion stream, submissions start failing,
    /// and anything in flight inside the node is lost to the caller.
    pub fn kill(&self) {
        self.state.killed.store(true, Ordering::Release);
    }

    /// Whether the kill switch has been pulled (by [`Self::kill`] or
    /// [`ChaosConfig::disconnect_after`]).
    pub fn killed(&self) -> bool {
        self.state.killed.load(Ordering::Acquire)
    }

    /// Submissions attempted through the wrapper so far.
    pub fn submissions(&self) -> u64 {
        self.state.submissions.load(Ordering::Acquire)
    }

    /// Submissions silently swallowed by the drop schedule.
    pub fn dropped(&self) -> u64 {
        self.state.dropped.load(Ordering::Acquire)
    }

    /// Events handed to the router twice by the duplicate schedule.
    pub fn duplicated(&self) -> u64 {
        self.state.duplicated.load(Ordering::Acquire)
    }

    /// Events held back one poll by the delay schedule.
    pub fn delayed(&self) -> u64 {
        self.state.delayed.load(Ordering::Acquire)
    }
}

/// A fault-injecting [`NodeHandle`] wrapper (see the module docs).
/// Built by [`wrap`]; drives faults from a deterministic schedule and
/// a controller-held kill switch.
pub struct ChaosNode {
    inner: Box<dyn NodeHandle>,
    config: ChaosConfig,
    state: Arc<ChaosState>,
    /// Events held back (delay) or queued twice (duplicate), drained
    /// ahead of the inner stream.
    pending: Mutex<VecDeque<NodeEvent>>,
    /// Ensures the kill severs the inner node exactly once.
    kill_applied: AtomicBool,
    /// Optional flight recorder: every injected fault leaves a causal
    /// record, so a post-mortem dump shows *why* the cluster limped.
    recorder: Option<Arc<FlightRecorder>>,
    /// Node id stamped into causal records (set with the recorder).
    node_id: u64,
}

/// Wrap `inner` in a fault-injecting [`ChaosNode`], returning the node
/// (hand it to the router) and the [`ChaosController`] (keep it in the
/// test).
pub fn wrap(inner: Box<dyn NodeHandle>, config: ChaosConfig) -> (ChaosNode, ChaosController) {
    let state = Arc::new(ChaosState::default());
    let controller = ChaosController { state: Arc::clone(&state) };
    let node = ChaosNode {
        inner,
        config,
        state,
        pending: Mutex::new(VecDeque::new()),
        kill_applied: AtomicBool::new(false),
        recorder: None,
        node_id: 0,
    };
    (node, controller)
}

/// Job id carried by a node event, for causal-record tagging.
fn event_job_id(event: &NodeEvent) -> u64 {
    match event {
        NodeEvent::Result(r) => r.id,
        NodeEvent::Busy(id) | NodeEvent::Rejected(id) => *id,
        NodeEvent::Down => 0,
    }
}

impl ChaosNode {
    /// Attach a [`FlightRecorder`]: from here on every injected fault
    /// (kill, drop, delay, duplicate) lands as a causal record tagged
    /// with `node_id`, joining the router's failover records in the
    /// same dump.
    pub fn attach_recorder(&mut self, recorder: Arc<FlightRecorder>, node_id: u64) {
        self.recorder = Some(recorder);
        self.node_id = node_id;
    }

    fn record_causal(&self, kind: CausalKind, job: u64) {
        if let Some(rec) = &self.recorder {
            rec.record_causal(kind, self.node_id, job);
        }
    }
    /// One deterministic per-mille roll: stream separates fault kinds,
    /// counter advances per decision.
    fn roll(&self, stream: u64, counter: u64) -> u32 {
        let lane = stream.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(counter);
        (mix64(self.config.seed ^ mix64(lane)) % 1000) as u32
    }

    /// Apply the kill switch (once): sever the inner node's completion
    /// stream exactly like a crashed peer. Returns whether the node is
    /// dead.
    fn check_killed(&self) -> bool {
        if !self.state.killed.load(Ordering::Acquire) {
            return false;
        }
        if !self.kill_applied.swap(true, Ordering::AcqRel) {
            self.record_causal(CausalKind::ChaosKill, 0);
            self.inner.close();
        }
        true
    }

    fn pop_pending(&self) -> Option<NodeEvent> {
        self.pending.lock().expect("chaos pending poisoned").pop_front()
    }

    fn push_pending(&self, event: NodeEvent) {
        self.pending.lock().expect("chaos pending poisoned").push_back(event);
    }
}

impl NodeHandle for ChaosNode {
    fn submit(&self, spec: JobSpec) -> Result<(), NodeError> {
        // The blocking path is not fault-shaped (the router never uses
        // it); only the kill switch applies.
        if self.check_killed() {
            return Err(NodeError::Closed);
        }
        self.inner.submit(spec)
    }

    fn try_submit(&self, spec: JobSpec) -> Result<SubmitOutcome, NodeError> {
        if self.check_killed() {
            return Err(NodeError::Closed);
        }
        let seq = self.state.submissions.fetch_add(1, Ordering::AcqRel);
        if let Some(cap) = self.config.disconnect_after {
            if seq >= cap {
                self.state.killed.store(true, Ordering::Release);
                self.check_killed();
                return Err(NodeError::Closed);
            }
        }
        if self.roll(1, seq) < self.config.drop_milli {
            // Swallow it: the caller believes the peer has the job; the
            // peer never answers. Probation must catch this.
            self.state.dropped.fetch_add(1, Ordering::AcqRel);
            self.record_causal(CausalKind::ChaosDrop, spec.id);
            return Ok(SubmitOutcome::Accepted);
        }
        self.inner.try_submit(spec)
    }

    fn flush(&self) -> Result<(), NodeError> {
        if self.check_killed() {
            return Err(NodeError::Closed);
        }
        self.inner.flush()
    }

    fn recv(&self) -> Option<NodeEvent> {
        if let Some(event) = self.pop_pending() {
            return Some(event);
        }
        if self.check_killed() {
            return None;
        }
        // The blocking path delivers faithfully — delay/duplicate shape
        // only the polling path the router drives.
        self.inner.recv()
    }

    fn try_recv(&self) -> TryPop<NodeEvent> {
        if let Some(event) = self.pop_pending() {
            return TryPop::Item(event);
        }
        if self.check_killed() {
            return TryPop::Closed;
        }
        match self.inner.try_recv() {
            TryPop::Item(event) => {
                let seq = self.state.events.fetch_add(1, Ordering::AcqRel);
                if self.roll(2, seq) < self.config.delay_milli {
                    self.state.delayed.fetch_add(1, Ordering::AcqRel);
                    self.record_causal(CausalKind::ChaosDelay, event_job_id(&event));
                    self.push_pending(event);
                    return TryPop::Empty;
                }
                if self.roll(3, seq) < self.config.duplicate_milli {
                    self.state.duplicated.fetch_add(1, Ordering::AcqRel);
                    self.record_causal(CausalKind::ChaosDuplicate, event_job_id(&event));
                    self.push_pending(event);
                }
                TryPop::Item(event)
            }
            other => other,
        }
    }

    fn prewarm(&self, keys: &[DesignKey]) -> Result<(), NodeError> {
        if self.check_killed() {
            return Err(NodeError::Closed);
        }
        self.inner.prewarm(keys)
    }

    fn stats(&self) -> Option<EngineStats> {
        // A dead peer cannot be scraped: once killed, stats go
        // unavailable (the cluster view must mark the blind spot, not
        // zero-merge it).
        if self.check_killed() {
            return None;
        }
        self.inner.stats()
    }

    fn close(&self) {
        self.inner.close();
    }

    fn shutdown(self: Box<Self>) -> Option<EngineStats> {
        self.inner.shutdown()
    }
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
            design: DesignSpec::random_regular(0),
            decoder: DecoderKind::Mn,
            seed: 900 + id,
            query_cost_micros: 0,
        }
    }

    fn chaos_local(config: ChaosConfig) -> (ChaosNode, ChaosController) {
        let inner = Box::new(LocalNode::start(EngineConfig::with_workers(1)));
        wrap(inner, config)
    }

    #[test]
    fn a_quiet_chaos_node_is_transparent() {
        let (node, controller) = chaos_local(ChaosConfig::quiet(7));
        assert_eq!(node.try_submit(spec(0)).unwrap(), SubmitOutcome::Accepted);
        let event = node.recv().expect("one result");
        assert!(matches!(event, NodeEvent::Result(r) if r.id == 0));
        assert_eq!(controller.dropped(), 0);
        assert_eq!(controller.duplicated(), 0);
        assert!(!controller.killed());
        Box::new(node).shutdown();
    }

    #[test]
    fn the_kill_switch_severs_the_completion_stream() {
        let (node, controller) = chaos_local(ChaosConfig::quiet(7));
        node.try_submit(spec(0)).unwrap();
        controller.kill();
        // The next touch applies the kill: stream closed, submissions
        // refused — exactly what a crashed peer looks like.
        assert!(matches!(node.try_recv(), TryPop::Closed));
        assert!(matches!(node.try_submit(spec(1)), Err(NodeError::Closed)));
        assert!(node.recv().is_none());
        Box::new(node).shutdown();
    }

    #[test]
    fn drop_schedule_swallows_deterministically() {
        let config = ChaosConfig { drop_milli: 500, ..ChaosConfig::quiet(11) };
        let (node, controller) = chaos_local(config);
        for id in 0..20 {
            assert_eq!(node.try_submit(spec(id)).unwrap(), SubmitOutcome::Accepted);
        }
        let dropped = controller.dropped();
        assert!(dropped > 0, "a 50% drop rate over 20 submissions must swallow some");
        assert!(dropped < 20, "...but not all");
        // Deterministic: an identical schedule swallows the identical count.
        let (replay, replay_controller) = chaos_local(config);
        for id in 0..20 {
            replay.try_submit(spec(id)).unwrap();
        }
        assert_eq!(replay_controller.dropped(), dropped);
        Box::new(node).shutdown();
        Box::new(replay).shutdown();
    }

    #[test]
    fn disconnect_after_pulls_the_kill_switch() {
        let config = ChaosConfig { disconnect_after: Some(2), ..ChaosConfig::quiet(3) };
        let (node, controller) = chaos_local(config);
        assert!(node.try_submit(spec(0)).is_ok());
        assert!(node.try_submit(spec(1)).is_ok());
        assert!(matches!(node.try_submit(spec(2)), Err(NodeError::Closed)));
        assert!(controller.killed());
        Box::new(node).shutdown();
    }

    #[test]
    fn duplicated_events_surface_twice() {
        let config = ChaosConfig { duplicate_milli: 1000, ..ChaosConfig::quiet(5) };
        let (node, controller) = chaos_local(config);
        node.try_submit(spec(0)).unwrap();
        // Poll until the result lands, then once more for the copy.
        let first = loop {
            match node.try_recv() {
                TryPop::Item(event) => break event,
                TryPop::Empty => std::thread::yield_now(),
                TryPop::Closed => panic!("stream closed early"),
            }
        };
        let second = match node.try_recv() {
            TryPop::Item(event) => event,
            other => panic!("expected the duplicate, got {other:?}"),
        };
        assert_eq!(first, second, "the duplicate is bit-identical");
        assert_eq!(controller.duplicated(), 1);
        Box::new(node).shutdown();
    }
}
