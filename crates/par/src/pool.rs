//! Scoped thread-pool helpers.
//!
//! The thread-scaling ablation bench runs the same decode under 1, 2, 4, …
//! workers; rayon's global pool cannot be resized, so the bench builds
//! pools through this module. The kernel benches and the allocation tests
//! use [`install_with_threads`] and [`pool_with_threads`] to run on one
//! thread, as an engine worker does.
//!
//! Pools are memoized process-wide by worker count ([`pool_with_threads`]):
//! building a rayon pool costs ~100 µs, which used to dominate short
//! ablation iterations that rebuilt the pool per measurement. The memo is
//! a bounded [`LruCache`] (the same policy the reconstruction engine uses
//! for pooling designs): a long sweep over many worker counts keeps at
//! most [`POOL_CACHE_CAPACITY`] pools alive instead of growing without
//! limit. Evicted pools stay valid for existing holders — the `Arc` keeps
//! them alive until the last clone drops.

use std::sync::{Arc, Mutex, OnceLock};

use rayon::{ThreadPool, ThreadPoolBuilder};

use crate::lru::LruCache;

/// Bound on the number of distinct worker counts memoized at once. Sweeps
/// use powers of two up to the machine width, so a handful of entries
/// covers every realistic caller; anything beyond that rebuilds on demand.
pub const POOL_CACHE_CAPACITY: usize = 8;

/// Process-wide LRU of pools keyed by worker count.
static POOL_CACHE: OnceLock<Mutex<LruCache<usize, Arc<ThreadPool>>>> = OnceLock::new();

/// The memoized pool with exactly `threads` workers, built on first request
/// and shared while it stays among the [`POOL_CACHE_CAPACITY`]
/// most-recently-used worker counts.
///
/// # Panics
/// Panics if the pool cannot be built (thread spawn failure).
pub fn pool_with_threads(threads: usize) -> Arc<ThreadPool> {
    let cache = POOL_CACHE.get_or_init(|| Mutex::new(LruCache::new(POOL_CACHE_CAPACITY)));
    if let Some(pool) = cache.lock().expect("pool cache poisoned").get(&threads) {
        return Arc::clone(pool);
    }
    // Build outside the critical section: a failed build must not poison
    // the cache for thread counts whose pools already exist. Two racing
    // builders are harmless — the loser's pool is dropped.
    let pool = Arc::new(
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .thread_name(|i| format!("pooled-worker-{i}"))
            .build()
            .expect("failed to build rayon pool"),
    );
    let mut cache = cache.lock().expect("pool cache poisoned");
    cache.get_or_insert_with(&threads, || pool)
}

/// Run `op` inside the memoized rayon pool with exactly `threads` workers.
///
/// `threads == 0` means "use the default parallelism".
pub fn install_with_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    if threads == 0 {
        return op();
    }
    pool_with_threads(threads).install(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    /// The memoization and eviction tests share the process-wide cache;
    /// serialize them so the eviction sweep cannot race the identity check.
    static CACHE_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn install_limits_worker_count() {
        for t in [1usize, 2, 4] {
            let seen = install_with_threads(t, rayon::current_num_threads);
            assert_eq!(seen, t);
        }
    }

    #[test]
    fn pools_are_memoized_per_thread_count() {
        let _guard = CACHE_TESTS.lock().unwrap();
        let a = pool_with_threads(2);
        let b = pool_with_threads(2);
        assert!(Arc::ptr_eq(&a, &b), "same worker count must share one pool");
        let c = pool_with_threads(3);
        assert!(!Arc::ptr_eq(&a, &c), "different worker counts get distinct pools");
    }

    #[test]
    fn cache_is_bounded_and_evicted_pools_still_work() {
        let _guard = CACHE_TESTS.lock().unwrap();
        // Sweep far past the capacity; every pool handed out stays usable
        // even after the cache drops its own reference.
        let held: Vec<Arc<ThreadPool>> =
            (1..=2 * POOL_CACHE_CAPACITY).map(pool_with_threads).collect();
        let cache = POOL_CACHE.get().expect("cache initialized by the sweep");
        assert!(cache.lock().unwrap().len() <= POOL_CACHE_CAPACITY);
        for (i, pool) in held.iter().enumerate() {
            assert_eq!(pool.install(rayon::current_num_threads), i + 1);
        }
        // A re-request for an evicted count rebuilds rather than panics.
        let again = pool_with_threads(1);
        assert_eq!(again.install(rayon::current_num_threads), 1);
    }

    #[test]
    fn zero_uses_ambient_pool() {
        let ambient = rayon::current_num_threads();
        let seen = install_with_threads(0, rayon::current_num_threads);
        assert_eq!(seen, ambient);
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let data: Vec<u64> = (0..100_000).collect();
        let sums: Vec<u64> = [1usize, 3, 8]
            .iter()
            .map(|&t| install_with_threads(t, || data.par_iter().sum::<u64>()))
            .collect();
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }
}
