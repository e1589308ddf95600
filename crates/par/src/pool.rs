//! Thread pools of a fixed worker count.
//!
//! The thread-scaling ablation bench runs the same decode under 1, 2, 4, …
//! workers; rayon's global pool cannot be resized, so the bench builds
//! pools through this module. The kernel benches and the allocation tests
//! use [`install_with_threads`] and [`pool_with_threads`] to run on one
//! thread, as an engine worker does.
//!
//! Nothing is memoized: the vendored rayon's pool is a worker count that
//! each parallel call fans out over scoped threads, so building one costs
//! nothing worth keeping. Callers that time a kernel build the pool
//! outside the measured region.

use rayon::{ThreadPool, ThreadPoolBuilder};

/// A rayon pool with exactly `threads` workers (`0`: the default
/// parallelism).
///
/// # Panics
/// Panics if the pool cannot be built (thread spawn failure).
pub fn pool_with_threads(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .thread_name(|i| format!("pooled-worker-{i}"))
        .build()
        .expect("failed to build rayon pool")
}

/// Run `op` inside a rayon pool with exactly `threads` workers.
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

    #[test]
    fn install_limits_worker_count() {
        for t in [1usize, 2, 4] {
            let seen = install_with_threads(t, rayon::current_num_threads);
            assert_eq!(seen, t);
        }
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
