//! The lock-free metrics registry: a fixed enum-indexed array of named
//! atomic counters.
//!
//! Dynamic metric registries (string keys, hash maps, registration
//! locks) put allocation and contention exactly where the engine cannot
//! afford them — on the per-job hot path. The serving stack's metric
//! set is closed and known at compile time, so the registry here is an
//! enum-indexed `[AtomicU64; METRIC_COUNT]`: incrementing is one
//! relaxed atomic add with no lock, no branch on a key, and no heap;
//! names are `'static` strings resolved only at exposition time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of registered metrics (the length of [`Metric::ALL`]).
pub const METRIC_COUNT: usize = 30;

/// Every counter the serving stack exports, in exposition order.
///
/// The per-outcome job counters partition a submission's fates across
/// the tiers that observe them: the engine counts `JobsCompleted`,
/// `JobsPoisoned` (decode panics contained by a worker) and
/// `JobsBusyShed` (non-blocking submissions refused at a full queue);
/// the transport server counts `JobsRejected` (infeasible or oversized
/// specs); the cluster router counts `JobsFailedOver` (specs re-routed
/// off a dead node). Wire counters are incremented by whichever
/// endpoint owns the socket half.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Jobs completed and delivered to a result stream.
    JobsCompleted,
    /// Jobs refused as infeasible (terminal REJECT).
    JobsRejected,
    /// Non-blocking submissions shed at a full queue (BUSY-class).
    JobsBusyShed,
    /// Jobs whose decoder panicked and was contained to a poisoned
    /// result.
    JobsPoisoned,
    /// Specs reclaimed from a dead node and re-routed to a survivor.
    JobsFailedOver,
    /// Completed jobs that recovered the hidden signal exactly.
    ExactRecoveries,
    /// Live prewarms dropped because the engine's sampler already owed
    /// a cache's worth of designs; the key's first job pays a cold miss.
    PrewarmsDropped,
    /// Job traces drained into the flight recorder.
    TracesRecorded,
    /// Ring-buffer overwrites: traces or causal records evicted before
    /// anyone dumped them.
    TracesDropped,
    /// Frame bytes written to a socket.
    WireBytesTx,
    /// Frame bytes read from a socket.
    WireBytesRx,
    /// Frames written to a socket.
    WireFramesTx,
    /// Frames read (and verified) from a socket.
    WireFramesRx,
    /// Frames dropped for a checksum mismatch (the connection dies with
    /// them — there is no resync point).
    WireChecksumRejects,
    /// STATS scrapes answered (server) or completed (client).
    StatsScrapes,
    /// STATS scrapes that timed out waiting for the far side.
    StatsScrapeTimeouts,
    /// Records appended to the write-ahead design log.
    WalAppends,
    /// Bytes appended to the write-ahead design log (headers, payloads
    /// and checksums included).
    WalBytes,
    /// `fsync` calls issued by the WAL writer.
    WalFsyncs,
    /// WAL compactions: a live-set-only segment written and every older
    /// segment deleted.
    WalSegmentsCompacted,
    /// WAL records successfully replayed during crash recovery.
    RecoveryRecordsReplayed,
    /// Recoveries that stopped at a torn or corrupt tail record (the
    /// valid prefix was kept; the tail was discarded).
    RecoveryTornTail,
    /// Live transport connections (a **gauge**: incremented at accept,
    /// decremented at close/eviction — it goes down).
    TransportConnections,
    /// Event-loop wakeups actually signaled through the self-pipe
    /// (coalesced wakes that piggybacked on one in flight don't count —
    /// this measures parks interrupted, not results delivered).
    ReactorWakeups,
    /// Readiness ticks on which a connection hit its per-tick read
    /// budget with socket bytes still pending (the firehose-containment
    /// path: the loop moved on and came back).
    ReactorReadBudgetExhausted,
    /// Connections evicted for exceeding the idle timeout without a
    /// byte of progress in either direction (Slowloris reclamation).
    TransportIdleEvictions,
    /// Event-loop readiness ticks (one epoll wait plus the phases it
    /// feeds). The denominator for `pooled_transport_ready_fds_total`.
    TransportTicks,
    /// Ready fds epoll delivered, summed over ticks. `ready_fds /
    /// ticks` is the per-tick front cost, which stays O(active) however
    /// many idle connections are registered — the claim the
    /// `connections` scenario pins.
    TransportReadyFds,
    /// Vectored `writev` syscalls issued draining outbound segment
    /// queues.
    TransportWritevCalls,
    /// `writev` calls the kernel cut short (socket buffer full before
    /// the gather completed); the remainder resumes next tick from the
    /// queue's head offset, copy-free.
    TransportPartialWrites,
}

impl Metric {
    /// All metrics, index-aligned with the registry's counter array.
    pub const ALL: [Metric; METRIC_COUNT] = [
        Metric::JobsCompleted,
        Metric::JobsRejected,
        Metric::JobsBusyShed,
        Metric::JobsPoisoned,
        Metric::JobsFailedOver,
        Metric::ExactRecoveries,
        Metric::PrewarmsDropped,
        Metric::TracesRecorded,
        Metric::TracesDropped,
        Metric::WireBytesTx,
        Metric::WireBytesRx,
        Metric::WireFramesTx,
        Metric::WireFramesRx,
        Metric::WireChecksumRejects,
        Metric::StatsScrapes,
        Metric::StatsScrapeTimeouts,
        Metric::WalAppends,
        Metric::WalBytes,
        Metric::WalFsyncs,
        Metric::WalSegmentsCompacted,
        Metric::RecoveryRecordsReplayed,
        Metric::RecoveryTornTail,
        Metric::TransportConnections,
        Metric::ReactorWakeups,
        Metric::ReactorReadBudgetExhausted,
        Metric::TransportIdleEvictions,
        Metric::TransportTicks,
        Metric::TransportReadyFds,
        Metric::TransportWritevCalls,
        Metric::TransportPartialWrites,
    ];

    /// The metric's exposition name (Prometheus conventions: `_total`
    /// suffix on monotonic counters, unit in the name).
    pub fn name(self) -> &'static str {
        match self {
            Metric::JobsCompleted => "pooled_jobs_completed_total",
            Metric::JobsRejected => "pooled_jobs_rejected_total",
            Metric::JobsBusyShed => "pooled_jobs_busy_shed_total",
            Metric::JobsPoisoned => "pooled_jobs_poisoned_total",
            Metric::JobsFailedOver => "pooled_jobs_failed_over_total",
            Metric::ExactRecoveries => "pooled_exact_recoveries_total",
            Metric::PrewarmsDropped => "pooled_prewarms_dropped_total",
            Metric::TracesRecorded => "pooled_traces_recorded_total",
            Metric::TracesDropped => "pooled_traces_dropped_total",
            Metric::WireBytesTx => "pooled_wire_bytes_tx_total",
            Metric::WireBytesRx => "pooled_wire_bytes_rx_total",
            Metric::WireFramesTx => "pooled_wire_frames_tx_total",
            Metric::WireFramesRx => "pooled_wire_frames_rx_total",
            Metric::WireChecksumRejects => "pooled_wire_checksum_rejects_total",
            Metric::StatsScrapes => "pooled_stats_scrapes_total",
            Metric::StatsScrapeTimeouts => "pooled_stats_scrape_timeouts_total",
            Metric::WalAppends => "pooled_wal_appends_total",
            Metric::WalBytes => "pooled_wal_bytes_total",
            Metric::WalFsyncs => "pooled_wal_fsyncs_total",
            Metric::WalSegmentsCompacted => "pooled_wal_segments_compacted_total",
            Metric::RecoveryRecordsReplayed => "pooled_recovery_records_replayed_total",
            Metric::RecoveryTornTail => "pooled_recovery_torn_tail_total",
            Metric::TransportConnections => "pooled_transport_connections",
            Metric::ReactorWakeups => "pooled_reactor_wakeups_total",
            Metric::ReactorReadBudgetExhausted => "pooled_reactor_read_budget_exhausted_total",
            Metric::TransportIdleEvictions => "pooled_transport_idle_evictions_total",
            Metric::TransportTicks => "pooled_transport_ticks_total",
            Metric::TransportReadyFds => "pooled_transport_ready_fds_total",
            Metric::TransportWritevCalls => "pooled_transport_writev_calls_total",
            Metric::TransportPartialWrites => "pooled_transport_partial_writes_total",
        }
    }

    /// Whether the metric is a gauge (its value can go down) rather
    /// than a monotonic counter. Gauges carry no `_total` suffix and
    /// are exposed with `# TYPE … gauge`; cluster-level merges still
    /// sum them (the sum of per-node live connections is the cluster's
    /// live connections).
    pub fn is_gauge(self) -> bool {
        matches!(self, Metric::TransportConnections)
    }
}

/// A fixed-size set of lock-free counters, shared by `Arc` across the
/// workers, queues, and socket threads of one serving tier.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: [AtomicU64; METRIC_COUNT],
}

impl MetricsRegistry {
    /// All counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one to `metric`. Relaxed ordering: counters are statistics,
    /// not synchronization.
    pub fn inc(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Add `n` to `metric` (bulk recording, e.g. bytes per frame).
    pub fn add(&self, metric: Metric, n: u64) {
        self.counters[metric as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract one from a gauge, saturating at zero (a close racing a
    /// snapshot must never wrap a gauge to 2⁶⁴−1).
    pub fn dec(&self, metric: Metric) {
        debug_assert!(metric.is_gauge(), "{metric:?} is monotonic — dec would corrupt it");
        let _ = self.counters[metric as usize].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| v.checked_sub(1),
        );
    }

    /// Current value of `metric`.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].load(Ordering::Relaxed)
    }

    /// Copy every counter out (each read is individually torn-free;
    /// the set is as consistent as relaxed counters can be).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values = [0u64; METRIC_COUNT];
        for (v, c) in values.iter_mut().zip(&self.counters) {
            *v = c.load(Ordering::Relaxed);
        }
        MetricsSnapshot { values }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: [u64; METRIC_COUNT],
}

impl MetricsSnapshot {
    /// Value of `metric` at snapshot time.
    pub fn get(&self, metric: Metric) -> u64 {
        self.values[metric as usize]
    }

    /// Fold another snapshot in, saturating (cluster-wide sums).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a = a.saturating_add(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_align_with_indices_and_are_unique() {
        for (i, &m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m as usize, i, "{:?} out of order", m);
        }
        let mut names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRIC_COUNT, "duplicate metric name");
        for &m in Metric::ALL.iter() {
            let name = m.name();
            assert!(name.starts_with("pooled_"), "{name} missing namespace");
            assert_eq!(
                name.ends_with("_total"),
                !m.is_gauge(),
                "{name}: counters carry _total, gauges must not"
            );
        }
    }

    #[test]
    fn gauges_go_down_and_saturate_at_zero() {
        let reg = MetricsRegistry::new();
        reg.inc(Metric::TransportConnections);
        reg.inc(Metric::TransportConnections);
        reg.dec(Metric::TransportConnections);
        assert_eq!(reg.get(Metric::TransportConnections), 1);
        reg.dec(Metric::TransportConnections);
        reg.dec(Metric::TransportConnections); // one dec too many
        assert_eq!(reg.get(Metric::TransportConnections), 0, "gauge must not wrap");
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.inc(Metric::JobsCompleted);
        reg.add(Metric::JobsCompleted, 4);
        reg.add(Metric::WireBytesTx, 1024);
        assert_eq!(reg.get(Metric::JobsCompleted), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.get(Metric::JobsCompleted), 5);
        assert_eq!(snap.get(Metric::WireBytesTx), 1024);
        assert_eq!(snap.get(Metric::JobsPoisoned), 0);
    }

    #[test]
    fn concurrent_increments_never_lose_counts() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        reg.inc(Metric::JobsCompleted);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.get(Metric::JobsCompleted), 40_000);
    }

    #[test]
    fn snapshot_merge_saturates() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::JobsCompleted, u64::MAX - 1);
        let mut a = reg.snapshot();
        let b = reg.snapshot();
        a.merge(&b);
        assert_eq!(a.get(Metric::JobsCompleted), u64::MAX);
    }
}
