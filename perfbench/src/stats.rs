//! Order statistics for latency samples.

/// Percentiles the tail rule may report, highest first. The ladder tops
/// out at p99 because that is the tail metric the benchmark names.
const TAIL_LADDER: [f64; 7] = [99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A reported tail: which percentile, its value, and how many samples
/// lie beyond it out of how many.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// Nearest-rank quantile of ascending `sorted` (`q` in `[0, 1]`); 0 when
/// there are no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q * 100.0) - 1]
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` among `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile on the ladder with at least [`MIN_BEYOND`]
/// samples beyond it; the median when even that is unsupported.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let p = TAIL_LADDER.iter().copied().find(|&p| beyond(n, p) >= MIN_BEYOND).unwrap_or(50.0);
    Tail { percentile: p, value: quantile(sorted, p / 100.0), beyond: beyond(n, p), samples: n }
}

/// Samples per slice for [`sliced_tail`]: the fewest for which p99 has
/// [`MIN_BEYOND`] samples beyond it.
pub const SLICE: usize = 1000;

/// A tail that one bad second cannot move: `in_order` (samples in
/// arrival order) is cut into consecutive slices of at least [`SLICE`]
/// samples, [`tail`] is taken in each, and the median slice value is
/// reported with the first slice's percentile and counts. Fewer than
/// `2 * SLICE` samples make one slice, which is [`tail`] itself.
pub fn sliced_tail(in_order: &[f64]) -> (Tail, usize) {
    let slices = (in_order.len() / SLICE).max(1);
    let len = in_order.len() / slices;
    let tails: Vec<Tail> = (0..slices)
        .map(|s| {
            let end = if s + 1 == slices { in_order.len() } else { (s + 1) * len };
            tail(&sorted(in_order[s * len..end].iter().copied()))
        })
        .collect();
    let value = median(tails.iter().map(|t| t.value));
    (Tail { value, ..tails[0] }, slices)
}

/// Median over consecutive slices of `len` samples (the last slice takes
/// the remainder) of each slice's median: a host stall that covers less
/// than half the slices leaves it where it was, where the pooled median
/// would shift.
pub fn sliced_median(in_order: &[f64], len: usize) -> f64 {
    let slices = (in_order.len() / len.max(1)).max(1);
    let len = in_order.len() / slices;
    median((0..slices).map(|s| {
        let end = if s + 1 == slices { in_order.len() } else { (s + 1) * len };
        median(in_order[s * len..end].iter().copied())
    }))
}

/// Sort a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// Median of `values` (0 when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (99.0, 990.0, 10, 1000));
        // One sample fewer leaves only 9 beyond p99: fall back to p98.
        let t = tail(&ramp(999));
        assert_eq!(t.percentile, 98.0);
        assert_eq!(t.beyond, 999 - 980);
        assert!(t.beyond >= MIN_BEYOND);
    }

    #[test]
    fn tail_never_reports_an_unsupported_percentile() {
        for n in [0usize, 1, 5, 19, 20, 21, 40, 100, 200, 500, 5000] {
            let t = tail(&ramp(n));
            if n >= 20 {
                assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
            } else {
                assert_eq!(t.percentile, 50.0, "n={n}");
            }
            // Every higher rung on the ladder would have had fewer than
            // MIN_BEYOND samples beyond it.
            for &p in TAIL_LADDER.iter().filter(|&&p| p > t.percentile) {
                assert!(beyond(n, p) < MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn sliced_tail_takes_the_median_slice() {
        // One slice: exactly the plain tail.
        let (t, slices) = sliced_tail(&ramp(1500));
        assert_eq!((t, slices), (tail(&ramp(1500)), 1));
        // Three slices of 1000, one of them a stall: the median ignores it.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        v[1500] = 1e9;
        let (t, slices) = sliced_tail(&v);
        assert_eq!(slices, 3);
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (99.0, 989.0, 10, 1000));
    }

    #[test]
    fn sliced_median_ignores_a_stall_in_a_minority_of_slices() {
        let mut v: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        // A stall inflates three of ten slices entirely: the pooled median
        // moves, the sliced one does not.
        for x in &mut v[300..600] {
            *x += 1000.0;
        }
        assert_eq!(sliced_median(&v, 100), 49.0);
        assert!(median(v.iter().copied()) > 60.0);
        assert_eq!(sliced_median(&v[..50], 100), median(v[..50].iter().copied()));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = ramp(10);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
    }
}
