//! Atomic scatter-add accumulators.
//!
//! The Ψ/Δ* sums of Algorithm 1 are a transpose-free sparse matrix–vector
//! product: iterate queries in parallel and add each query's result into the
//! slots of its (distinct) member entries. Different queries share member
//! entries, so the adds race — [`AtomicCounters`] makes them safe, relaxed
//! (the sums commute, no ordering is needed) and still cache-friendly.
//!
//! The decoders gather instead (see the crate docs); the counters serve
//! the test oracle `pooled_design::matvec::scatter_distinct_u64` and the
//! degree statistics, each filling fresh counters once and reading them
//! out with [`AtomicCounters::into_vec`].

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size array of `u64` counters supporting concurrent adds.
pub struct AtomicCounters {
    slots: Vec<AtomicU64>,
}

impl AtomicCounters {
    /// Allocate `len` zeroed counters.
    pub fn new(len: usize) -> Self {
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, || AtomicU64::new(0));
        Self { slots }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no counters.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Concurrently add `value` to slot `i` (relaxed; sums commute).
    #[inline]
    pub fn add(&self, i: usize, value: u64) {
        self.slots[i].fetch_add(value, Ordering::Relaxed);
    }

    /// Concurrently increment slot `i` by one.
    #[inline]
    pub fn incr(&self, i: usize) {
        self.add(i, 1);
    }

    /// Read slot `i` (only meaningful after all writers joined).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.slots[i].load(Ordering::Relaxed)
    }

    /// Consume the accumulator into a plain vector.
    pub fn into_vec(self) -> Vec<u64> {
        self.slots.into_iter().map(|a| a.into_inner()).collect()
    }

    /// Snapshot to a plain vector without consuming.
    pub fn to_vec(&self) -> Vec<u64> {
        self.slots.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }
}

impl std::fmt::Debug for AtomicCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicCounters").field("len", &self.slots.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn sequential_adds_accumulate() {
        let acc = AtomicCounters::new(4);
        acc.add(0, 5);
        acc.add(0, 7);
        acc.incr(3);
        assert_eq!(acc.to_vec(), vec![12, 0, 0, 1]);
    }

    #[test]
    fn concurrent_adds_lose_nothing() {
        let acc = AtomicCounters::new(64);
        (0..100_000u64).into_par_iter().for_each(|i| {
            acc.add((i % 64) as usize, 1);
        });
        let v = acc.into_vec();
        assert_eq!(v.iter().sum::<u64>(), 100_000);
        assert!(v.iter().all(|&c| c == 100_000 / 64 || c == 100_000 / 64 + 1));
    }

    #[test]
    fn concurrent_scatter_matches_sequential_histogram() {
        // The decoder's exact access pattern: many (slot, weight) pairs.
        let pairs: Vec<(usize, u64)> =
            (0..200_000).map(|i| ((i * 2654435761usize) % 1000, (i % 7 + 1) as u64)).collect();
        let mut want = vec![0u64; 1000];
        for &(s, w) in &pairs {
            want[s] += w;
        }
        let acc = AtomicCounters::new(1000);
        pairs.par_iter().for_each(|&(s, w)| acc.add(s, w));
        assert_eq!(acc.into_vec(), want);
    }

    #[test]
    fn empty_accumulator() {
        let acc = AtomicCounters::new(0);
        assert!(acc.is_empty());
        assert!(acc.into_vec().is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let acc = AtomicCounters::new(2);
        acc.add(2, 1);
    }
}
