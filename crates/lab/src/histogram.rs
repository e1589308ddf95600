//! Fixed-footprint latency histograms for serving telemetry.
//!
//! The reconstruction engine records one latency observation per job on
//! its hot path, so the recorder must be allocation-free and O(1). The
//! original layout was one bucket per power of two, which made quantiles
//! up to 2× off — and, worse, collapsed them entirely under realistic
//! serving load: an open-loop replay whose sojourn times all landed
//! between 32 ms and 64 ms reported p50 = p95 = p99, because a single
//! octave held every observation.
//!
//! The layout here keeps the log₂ octaves but splits each one into
//! [`SUB_BUCKETS`] linear sub-buckets (HDR-histogram style): values below
//! [`SUB_BUCKETS`] are recorded exactly, and every larger bucket spans at
//! most `1/SUB_BUCKETS` (6.25%) of its value — so quantiles over any
//! realistic spread of sojourn times are distinct and within ~6% of the
//! truth, while the whole histogram stays a fixed array of
//! [`LATENCY_BUCKETS`] counters with O(1) bit-twiddling per record.
//! Exact moments live in `pooled_stats::summary::Summary`; this type
//! complements it with tail shape.

/// Linear sub-buckets per log₂ octave (16 ⇒ ≤ 6.25% relative bucket
/// width everywhere).
pub const SUB_BUCKETS: usize = 16;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Total bucket count; covers the whole `u64` microsecond range at
/// `1/SUB_BUCKETS` resolution.
pub const LATENCY_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_BUCKETS + SUB_BUCKETS;

/// An allocation-free log₂-octave × linear-sub-bucket histogram of
/// microsecond latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; LATENCY_BUCKETS], count: 0, sum_micros: 0, max_micros: 0 }
    }

    /// Record one observation in microseconds. O(1), no allocation.
    pub fn record_micros(&mut self, micros: u64) {
        self.record_micros_n(micros, 1);
    }

    /// Record `n` identical observations in O(1) (pre-binned sources,
    /// weighted recording, and the saturation regression tests). All
    /// counters saturate at `u64::MAX` instead of wrapping.
    pub fn record_micros_n(&mut self, micros: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = &mut self.buckets[bucket_of(micros)];
        *b = b.saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum_micros = self.sum_micros.saturating_add(micros.saturating_mul(n));
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }

    /// Largest recorded observation in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// Upper edge of the bucket containing the `q`-quantile (conservative:
    /// the true quantile is at most this, within the bucket's ≤ 6.25%
    /// relative width).
    ///
    /// # Panics
    /// Panics if the histogram is empty or `q ∉ [0, 1]`.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        assert!(self.count > 0, "quantile of an empty histogram");
        assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max_micros);
            }
        }
        self.max_micros
    }

    /// Sum of all recorded observations in microseconds (saturating).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// The raw bucket counters, index-aligned with the fixed
    /// log₂-octave × sub-bucket layout — for wire encodings and
    /// Prometheus-style exposition that must transport the histogram
    /// losslessly.
    pub fn bucket_counts(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Inclusive upper edge in microseconds of bucket `i` (saturating at
    /// `u64::MAX`) — pairs with [`Self::bucket_counts`] so an exporter
    /// can render cumulative `le` buckets without knowing the layout.
    ///
    /// # Panics
    /// Panics if `i >= LATENCY_BUCKETS`.
    pub fn bucket_upper_micros(i: usize) -> u64 {
        assert!(i < LATENCY_BUCKETS, "bucket index {i} out of range");
        bucket_upper(i)
    }

    /// Rebuild a histogram from raw parts (wire decode); the exact
    /// inverse of reading [`Self::bucket_counts`], [`Self::count`],
    /// [`Self::sum_micros`] and [`Self::max_micros`].
    pub fn from_raw_parts(
        buckets: [u64; LATENCY_BUCKETS],
        count: u64,
        sum_micros: u64,
        max_micros: u64,
    ) -> Self {
        Self { buckets, count, sum_micros, max_micros }
    }

    /// Fold another histogram into this one (parallel-reduction support:
    /// per-worker histograms merge into the engine-wide view).
    ///
    /// Every accumulator saturates at `u64::MAX`. `sum_micros` always did,
    /// but `count` and the bucket counters used to wrap (panic in debug),
    /// so merging long-lived per-worker histograms near the top of the
    /// range could report fewer observations than either input — quantile
    /// ranks computed from a wrapped `count` were garbage.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

/// Bucket index of a microsecond value: values below [`SUB_BUCKETS`] map
/// to themselves (exact); above, the octave picks the bucket group and
/// the top [`SUB_BITS`] mantissa bits below the leading one pick the
/// linear sub-bucket within it.
fn bucket_of(micros: u64) -> usize {
    if micros < SUB_BUCKETS as u64 {
        return micros as usize;
    }
    let octave = 63 - micros.leading_zeros(); // ≥ SUB_BITS here
    let group = (octave - SUB_BITS + 1) as usize;
    let sub = ((micros >> (octave - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    group * SUB_BUCKETS + sub
}

/// Largest value mapping to bucket `i` (inclusive upper edge), saturating
/// at `u64::MAX`.
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let group = (i / SUB_BUCKETS) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    let shift = group - 1;
    if shift + SUB_BITS >= 64 {
        return u64::MAX;
    }
    let base = (SUB_BUCKETS as u64 + sub) << shift;
    base + ((1u64 << shift) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn buckets_partition_the_range() {
        // Bucket indices are monotone in the value and every bucket's
        // upper edge maps back into the bucket.
        let probes: Vec<u64> = (0..2000u64)
            .map(|i| i * 37 + 1)
            .chain((0..63u32).map(|s| 1u64 << s))
            .chain((0..63u32).map(|s| (1u64 << s) + (1u64 << s.saturating_sub(1))))
            .chain([u64::MAX, u64::MAX - 1])
            .collect();
        for &v in &probes {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "v={v} above its bucket edge");
            assert_eq!(bucket_of(bucket_upper(b)), b, "edge of bucket {b} escapes");
            if v > 0 {
                assert!(bucket_of(v - 1) <= b, "bucketing not monotone at {v}");
            }
        }
    }

    #[test]
    fn relative_resolution_is_bounded() {
        // Every bucket above the exact range spans < 1/SUB_BUCKETS of its
        // value: quantiles can never be more than ~6.25% conservative.
        for &v in &[100u64, 999, 52_956, 1_000_000, 123_456_789] {
            let upper = bucket_upper(bucket_of(v));
            let width = (upper - v) as f64 / v as f64;
            assert!(width < 1.0 / SUB_BUCKETS as f64, "v={v} upper={upper}");
        }
    }

    #[test]
    fn open_loop_regression_distinct_quantiles() {
        // Regression for the BENCH_ENGINE.json artifact: 255 sojourn
        // times spread over one octave (32–64 ms) must NOT collapse to
        // p50 = p95 = p99 — the old one-bucket-per-octave layout reported
        // 52 956 µs for all three.
        let mut h = LatencyHistogram::new();
        for i in 0..255u64 {
            h.record_micros(33_000 + i * 100); // 33.0 ms … 58.4 ms
        }
        let (p50, p95, p99) =
            (h.quantile_micros(0.50), h.quantile_micros(0.95), h.quantile_micros(0.99));
        assert!(p50 < p95 && p95 < p99, "quantiles collapsed: {p50}/{p95}/{p99}");
        // And each is within the documented 6.25% of the exact rank stat.
        for (q, got) in [(0.50f64, p50), (0.95, p95), (0.99, p99)] {
            let exact = 33_000 + ((q * 255.0).ceil() as u64 - 1) * 100;
            assert!(got >= exact, "q={q}: {got} below exact {exact}");
            assert!(
                (got - exact) as f64 / exact as f64 <= 1.0 / SUB_BUCKETS as f64,
                "q={q}: {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn quantiles_bound_the_truth_within_a_bucket() {
        let mut h = LatencyHistogram::new();
        for v in [100u64, 200, 300, 400, 1000, 2000, 4000, 50_000] {
            h.record_micros(v);
        }
        assert_eq!(h.count(), 8);
        // p50 falls in 400's bucket; the edge is within 6.25% above it.
        let p50 = h.quantile_micros(0.5);
        assert!((400..=425).contains(&p50), "p50={p50}");
        // The max is exact.
        assert_eq!(h.quantile_micros(1.0), 50_000);
        assert_eq!(h.max_micros(), 50_000);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record_micros(v);
        }
        assert_eq!(h.mean_micros(), 20.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let values: Vec<u64> = (0..500).map(|i| (i * 37) % 10_000).collect();
        let mut whole = LatencyHistogram::new();
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record_micros(v);
            if i < 200 {
                left.record_micros(v)
            } else {
                right.record_micros(v)
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.mean_micros(), whole.mean_micros());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(left.quantile_micros(q), whole.quantile_micros(q));
        }
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        // Regression: `merge` saturated `sum_micros` but wrapped `count`
        // and the bucket counters. Two histograms whose counts sum past
        // u64::MAX must clamp to u64::MAX, not wrap to a tiny value that
        // poisons quantile ranks.
        let mut a = LatencyHistogram::new();
        a.record_micros_n(100, u64::MAX - 3);
        let mut b = LatencyHistogram::new();
        b.record_micros_n(100, 10);
        b.record_micros_n(5_000, 2);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "count must saturate, not wrap");
        // The shared bucket also saturates (it held u64::MAX - 3 and
        // receives 10 more); quantiles stay well-defined and monotone.
        let p50 = a.quantile_micros(0.5);
        assert!((100..=106).contains(&p50), "p50={p50} escaped 100's bucket");
        assert_eq!(a.max_micros(), 5_000);
        // Merging *again* keeps everything pinned at the ceiling.
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert!(a.mean_micros().is_finite());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = LatencyHistogram::new();
        bulk.record_micros_n(777, 5);
        bulk.record_micros_n(33, 0); // no-op: records nothing, not even max
        let mut each = LatencyHistogram::new();
        for _ in 0..5 {
            each.record_micros(777);
        }
        assert_eq!(bulk.count(), each.count());
        assert_eq!(bulk.mean_micros(), each.mean_micros());
        assert_eq!(bulk.max_micros(), each.max_micros());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(bulk.quantile_micros(q), each.quantile_micros(q));
        }
    }

    #[test]
    fn extreme_values_stay_in_range() {
        let mut h = LatencyHistogram::new();
        h.record_micros(0);
        h.record_micros(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_micros(1.0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        let _ = LatencyHistogram::new().quantile_micros(0.5);
    }

    #[test]
    fn raw_parts_round_trip_preserves_quantiles() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 700, 52_956, 1_000_000, u64::MAX] {
            h.record_micros(v);
        }
        let back = LatencyHistogram::from_raw_parts(
            *h.bucket_counts(),
            h.count(),
            h.sum_micros(),
            h.max_micros(),
        );
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum_micros(), h.sum_micros());
        assert_eq!(back.max_micros(), h.max_micros());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(back.quantile_micros(q), h.quantile_micros(q));
        }
        // The exposed bucket edges agree with the internal layout, so an
        // exporter can label cumulative buckets without re-deriving it.
        for i in [0usize, SUB_BUCKETS, 200, LATENCY_BUCKETS - 1] {
            assert_eq!(LatencyHistogram::bucket_upper_micros(i), bucket_upper(i));
        }
    }
}
