//! Where did the latency go? Queue wait vs service vs wire.
//!
//! In-process telemetry sees two components of a job's sojourn: time in
//! the submission queue (`queue_micros`) and the worker's service time
//! (the rest of `total_micros`). A remote tenant observes a *third*
//! component the engine cannot see — socket wait: serialization, kernel
//! buffers, the wire, and time a finished result spends waiting to be
//! written and read. [`LatencySplit`] holds one histogram per
//! component so a transport replay can answer "is the tail in the queue
//! or on the socket?" — the question that decides whether to add worker
//! shards or connections.

use crate::histogram::LatencyHistogram;

/// Three-way latency breakdown: queue wait, service, wire/socket wait.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySplit {
    /// Time waiting in the engine's submission queue.
    pub queue: LatencyHistogram,
    /// Worker service time (query execution + decode).
    pub service: LatencyHistogram,
    /// Everything the engine cannot see: framing, kernel buffers, the
    /// wire, the wait for the server's event loop to write the result,
    /// and the wait for the caller to read it.
    pub wire: LatencyHistogram,
}

impl LatencySplit {
    /// An empty split.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one job from its engine-reported timings plus the
    /// client-observed sojourn (submit → result arrival), all in
    /// microseconds. `service` is `total - queue`; `wire` is
    /// `observed - total`. Both clamp at zero: the engine's clock and
    /// the client's clock are different `Instant`s, so a fast result can
    /// arrive "before" the server finished by a few microseconds.
    pub fn record_observed(&mut self, queue_micros: u64, total_micros: u64, observed_micros: u64) {
        self.queue.record_micros(queue_micros);
        self.service.record_micros(total_micros.saturating_sub(queue_micros));
        self.wire.record_micros(observed_micros.saturating_sub(total_micros));
    }

    /// Number of jobs recorded.
    pub fn count(&self) -> u64 {
        self.queue.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_partition_the_observed_sojourn() {
        let mut s = LatencySplit::new();
        // queue 100, service 900 (total 1000), wire 250 (observed 1250).
        s.record_observed(100, 1_000, 1_250);
        assert_eq!(s.count(), 1);
        assert_eq!(s.queue.max_micros(), 100);
        assert_eq!(s.service.max_micros(), 900);
        assert_eq!(s.wire.max_micros(), 250);
    }

    #[test]
    fn clock_skew_clamps_to_zero_instead_of_underflowing() {
        let mut s = LatencySplit::new();
        // Observed sojourn smaller than the server's total (two different
        // monotonic clocks): wire clamps to 0, nothing wraps.
        s.record_observed(50, 1_000, 990);
        assert_eq!(s.wire.max_micros(), 0);
        // Total smaller than queue (can't happen from a sane engine, but
        // the type must not wrap on hostile inputs either).
        s.record_observed(2_000, 1_000, 3_000);
        assert_eq!(s.service.max_micros(), 950, "the wrapped record clamps to 0");
        assert_eq!(s.count(), 2);
    }
}
