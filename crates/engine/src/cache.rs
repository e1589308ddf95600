//! The shared design cache: sampled pooling designs keyed by their spec.
//!
//! Sampling a design is the most expensive allocating step of a job
//! (`O(m·Γ)` draws plus CSR construction + transpose), and real traffic
//! repeats design keys constantly — a tenant reuses its design across
//! thousands of reconstructions. The cache memoizes `spec → Arc<design>`
//! under the workspace-wide LRU policy ([`pooled_par::lru::LruCache`], the
//! same one bounding the thread-pool memo), so repeated traffic never
//! regenerates pools and a key sweep cannot grow memory without limit.
//!
//! Hits are allocation-free (`Arc` clone under a mutex); misses sample
//! *outside* the lock so one tenant's cold key never stalls another
//! tenant's hot path. Cold misses are **single-flight**: workers racing
//! on the same cold key elect one sampler and the rest block on its
//! result instead of each paying the full `O(m·Γ)` sampling cost for a
//! copy that would be discarded — under an `L`-worker cold start on one
//! hot key, exactly one sample runs ([`DesignCache::samples`]).
//!
//! Because sampling is a pure function of the key, the cache's working
//! set serializes as **keys only** ([`DesignCache::keys`]) and restores
//! bit-identically ([`DesignCache::prewarm`]) — the snapshot/restore-lite
//! path a restarted node uses to warm before accepting traffic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use pooled_design::factory::{AnyDesign, DesignKind};
use pooled_par::lru::LruCache;
use pooled_rng::SeedSequence;

use crate::durability::WalJournal;
use crate::job::JobSpec;

/// Full identity of a sampled design. Equal keys ⇒ bit-identical designs
/// (sampling derives everything from the key's fields).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DesignKey {
    /// Number of entries.
    pub n: usize,
    /// Number of queries.
    pub m: usize,
    /// Design family.
    pub kind: DesignKind,
    /// Density in thousandths.
    pub c_milli: u32,
    /// Design seed.
    pub seed: u64,
}

impl DesignKey {
    /// The design key a job resolves to.
    pub fn of(spec: &JobSpec) -> Self {
        Self {
            n: spec.n,
            m: spec.m,
            kind: spec.design.kind,
            c_milli: spec.design.c_milli,
            seed: spec.design.seed,
        }
    }

    /// Sample the design this key identifies (pure function of the key).
    pub fn sample(&self) -> AnyDesign {
        let seeds = SeedSequence::new(self.seed);
        self.kind.sample(self.n, self.m, self.c_milli as f64 / 1000.0, &seeds.child("design", 0))
    }
}

/// State of one in-flight cold sample (see [`DesignCache::get_or_sample`]).
enum SampleState {
    /// The elected sampler is still working.
    Sampling,
    /// The design is ready; waiters clone this.
    Ready(Arc<AnyDesign>),
    /// The sampler unwound without publishing (a panic mid-sample);
    /// waiters must re-run the election instead of parking forever.
    Abandoned,
}

/// One cold key's single-flight rendezvous: the elected sampler publishes
/// here, every racing waiter blocks on the condvar.
struct InFlight {
    state: Mutex<SampleState>,
    ready: Condvar,
}

impl InFlight {
    fn new() -> Self {
        Self { state: Mutex::new(SampleState::Sampling), ready: Condvar::new() }
    }
}

/// Publishes `Abandoned` if the sampler unwinds before publishing a
/// design, so waiters re-elect instead of deadlocking on a result that
/// will never come. Disarmed on the normal path.
struct SamplerGuard<'a> {
    cache: &'a DesignCache,
    key: DesignKey,
    armed: bool,
}

impl Drop for SamplerGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.publish(&self.key, SampleState::Abandoned);
        }
    }
}

/// Bounded, thread-safe `DesignKey → Arc<AnyDesign>` memo with
/// single-flight cold misses.
pub struct DesignCache {
    inner: Mutex<LruCache<DesignKey, Arc<AnyDesign>>>,
    /// Cold keys currently being sampled (`key → rendezvous`). An entry
    /// exists exactly while one sampler works; racing misses on the same
    /// key wait on it instead of sampling again.
    sampling: Mutex<HashMap<DesignKey, Arc<InFlight>>>,
    /// The durable tier's write-ahead log, if this cache is journaled:
    /// every admission and eviction is reported so the log can
    /// reconstruct the live set after a crash.
    journal: Mutex<Option<Arc<WalJournal>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DesignCache {
    /// Cache holding at most `capacity` designs.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LruCache::new(capacity)),
            sampling: Mutex::new(HashMap::new()),
            journal: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Attach the durable tier's journal. From here on every admission
    /// and eviction is reported to it. Designs already resident are
    /// *not* retroactively reported — the caller checkpoints the live
    /// set right after attaching ([`crate::engine::Engine`] does).
    pub fn set_journal(&self, journal: Arc<WalJournal>) {
        *self.journal.lock().expect("design journal poisoned") = Some(journal);
    }

    /// Recovery-time restore: place an already-built design directly
    /// into the cache (skipping resident keys), with no telemetry and
    /// no journal traffic — the design came *from* the journal.
    pub(crate) fn install(&self, key: &DesignKey, design: Arc<AnyDesign>) {
        let mut inner = self.inner.lock().expect("design cache poisoned");
        if inner.get(key).is_none() {
            inner.insert(*key, design);
        }
    }

    /// The single admission point: report to the journal (write-ahead:
    /// the record lands before the design serves), insert, and report
    /// whatever the insertion evicted. Returns the resident design —
    /// the existing one if another path admitted `key` first.
    fn admit(&self, key: &DesignKey, design: Arc<AnyDesign>) -> Arc<AnyDesign> {
        let journal = self.journal.lock().expect("design journal poisoned").clone();
        if let Some(j) = &journal {
            j.admitted(key, &design);
        }
        let (shared, evicted) = {
            let mut inner = self.inner.lock().expect("design cache poisoned");
            match inner.get(key) {
                Some(d) => (Arc::clone(d), None),
                None => {
                    let evicted = inner.insert(*key, Arc::clone(&design));
                    (design, evicted)
                }
            }
        };
        if let (Some(j), Some((evicted_key, _))) = (&journal, &evicted) {
            j.evicted(evicted_key);
        }
        shared
    }

    /// The design for `key`: cached on a hit, sampled (outside the lock)
    /// and inserted on a miss. Concurrent misses on the same key are
    /// coalesced: one caller samples, the rest block on its result and
    /// count as hits — they were served from shared work, not their own
    /// sampling.
    pub fn get_or_sample(&self, key: &DesignKey) -> Arc<AnyDesign> {
        loop {
            if let Some(d) = self.inner.lock().expect("design cache poisoned").get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(d);
            }
            // Cold: join the in-flight sample for this key, or become it.
            let joined = {
                let mut sampling = self.sampling.lock().expect("sampler table poisoned");
                match sampling.get(key) {
                    Some(pending) => Some(Arc::clone(pending)),
                    None => {
                        sampling.insert(*key, Arc::new(InFlight::new()));
                        None
                    }
                }
            };
            let Some(pending) = joined else {
                return self.sample_as_leader(key);
            };
            let mut state = pending.state.lock().expect("in-flight sample poisoned");
            loop {
                match &*state {
                    SampleState::Sampling => {
                        state = pending.ready.wait(state).expect("in-flight sample poisoned");
                    }
                    SampleState::Ready(d) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(d);
                    }
                    // Sampler died before publishing: re-run the election.
                    SampleState::Abandoned => break,
                }
            }
        }
    }

    /// The elected sampler's path: sample the key (counted as the miss),
    /// insert it, and wake every coalesced waiter.
    fn sample_as_leader(&self, key: &DesignKey) -> Arc<AnyDesign> {
        let mut guard = SamplerGuard { cache: self, key: *key, armed: true };
        // A previous sampler may have finished between our cache miss and
        // the election; serving its copy keeps `samples == misses` exact.
        if let Some(d) = self.inner.lock().expect("design cache poisoned").get(key) {
            let d = Arc::clone(d);
            guard.armed = false;
            self.publish(key, SampleState::Ready(Arc::clone(&d)));
            self.hits.fetch_add(1, Ordering::Relaxed);
            return d;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(key.sample());
        let shared = self.admit(key, fresh);
        guard.armed = false;
        self.publish(key, SampleState::Ready(Arc::clone(&shared)));
        shared
    }

    /// Hand `state` to this key's waiters and retire the in-flight entry.
    fn publish(&self, key: &DesignKey, state: SampleState) {
        let pending = self.sampling.lock().expect("sampler table poisoned").remove(key);
        if let Some(pending) = pending {
            *pending.state.lock().expect("in-flight sample poisoned") = state;
            pending.ready.notify_all();
        }
    }

    /// `(hits, misses)` since construction. A hit is any access served
    /// without sampling (cached, or coalesced onto another caller's
    /// in-flight sample); a miss is an access that actually sampled.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Number of designs sampled on behalf of traffic — identical to the
    /// miss count: single-flight coalescing makes "paid the sampling
    /// cost" and "counted as a miss" the same event.
    pub fn samples(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshot-lite export: the keys of every resident design, in no
    /// particular order. Designs resample bit-identically from their
    /// keys, so this *is* the cache's serialized form.
    pub fn keys(&self) -> Vec<DesignKey> {
        self.inner.lock().expect("design cache poisoned").keys().copied().collect()
    }

    /// Snapshot-lite restore: sample every key into the cache (skipping
    /// ones already resident) without touching the hit/miss telemetry —
    /// warming is administrative, not traffic. A restarted node calls
    /// this before accepting jobs so its first requests see no cold
    /// misses ([`crate::engine::Engine::start_prewarmed`]).
    pub fn prewarm(&self, keys: &[DesignKey]) {
        for key in keys {
            if self.inner.lock().expect("design cache poisoned").get(key).is_some() {
                continue;
            }
            // Sample outside the lock, exactly like a traffic miss.
            // Admissions still flow through the journal (when one is
            // attached): a standby prewarmed at runtime must be able to
            // recover its warm set too.
            let fresh = Arc::new(key.sample());
            let _ = self.admit(key, fresh);
        }
    }

    /// Number of cached designs.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("design cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached designs.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("design cache poisoned").capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_design::PoolingDesign;

    fn key(seed: u64) -> DesignKey {
        DesignKey { n: 100, m: 20, kind: DesignKind::RandomRegular, c_milli: 500, seed }
    }

    #[test]
    fn hit_returns_the_same_design_instance() {
        let cache = DesignCache::new(4);
        let a = cache.get_or_sample(&key(1));
        let b = cache.get_or_sample(&key(1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_key() {
        // Even after eviction, a re-miss reproduces the identical design.
        let cache = DesignCache::new(1);
        let first = cache.get_or_sample(&key(7));
        let _evictor = cache.get_or_sample(&key(8));
        let again = cache.get_or_sample(&key(7));
        assert!(!Arc::ptr_eq(&first, &again), "evicted entry must be resampled");
        assert_eq!(first.csr().n(), again.csr().n());
        for q in 0..first.m() {
            assert_eq!(first.csr().query_row(q), again.csr().query_row(q));
        }
    }

    #[test]
    fn capacity_bounds_resident_designs() {
        let cache = DesignCache::new(3);
        for s in 0..10 {
            let _ = cache.get_or_sample(&key(s));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), (0, 10));
    }

    #[test]
    fn distinct_keys_get_distinct_designs() {
        let cache = DesignCache::new(4);
        let a = cache.get_or_sample(&key(1));
        let b = cache.get_or_sample(&key(2));
        assert!(!Arc::ptr_eq(&a, &b));
        // Same shape, different pools.
        let differ = (0..a.m()).any(|q| a.csr().query_row(q) != b.csr().query_row(q));
        assert!(differ, "different seeds produced identical designs");
    }

    #[test]
    fn racing_cold_misses_elect_one_sampler() {
        // Regression: two concurrent `get_or_sample` misses on the same
        // key used to both pay the full sampling cost before one copy was
        // discarded. Under single-flight, 8 threads released together on
        // one cold key must produce exactly one sample — and everyone
        // must hold the same Arc.
        use std::sync::Barrier;
        let cache = Arc::new(DesignCache::new(4));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_sample(&key(42))
                })
            })
            .collect();
        let designs: Vec<Arc<AnyDesign>> =
            handles.into_iter().map(|h| h.join().expect("sampler thread")).collect();
        assert_eq!(cache.samples(), 1, "racing misses must coalesce onto one sampler");
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 7, "coalesced waiters count as hits");
        assert!(designs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }

    #[test]
    fn single_flight_keys_are_independent() {
        // Different cold keys sample independently (no false coalescing).
        use std::sync::Barrier;
        let cache = Arc::new(DesignCache::new(8));
        let barrier = Arc::new(Barrier::new(6));
        let handles: Vec<_> = (0..6u64)
            .map(|i| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_sample(&key(i % 3))
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sampler thread");
        }
        assert_eq!(cache.samples(), 3, "one sample per distinct cold key");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn keys_roundtrip_through_prewarm_bit_identically() {
        // Snapshot-lite: export keys, prewarm a fresh cache, and the
        // restored designs must be bit-identical (same pure function).
        let cache = DesignCache::new(4);
        let a = cache.get_or_sample(&key(1));
        let b = cache.get_or_sample(&key(2));
        let mut snapshot = cache.keys();
        snapshot.sort_unstable_by_key(|k| k.seed);
        assert_eq!(snapshot.len(), 2);

        let restored = DesignCache::new(4);
        restored.prewarm(&snapshot);
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.stats(), (0, 0), "prewarming is not traffic");
        for (want, k) in [(a, key(1)), (b, key(2))] {
            let got = restored.get_or_sample(&k);
            for q in 0..want.m() {
                assert_eq!(want.csr().query_row(q), got.csr().query_row(q));
            }
        }
        // And serving the prewarmed keys is pure hits.
        assert_eq!(restored.stats(), (2, 0));
    }

    #[test]
    fn prewarm_skips_resident_keys() {
        let cache = DesignCache::new(4);
        let first = cache.get_or_sample(&key(5));
        cache.prewarm(&[key(5), key(6)]);
        assert_eq!(cache.len(), 2);
        // The resident entry was not resampled: same Arc.
        let again = cache.get_or_sample(&key(5));
        assert!(Arc::ptr_eq(&first, &again));
    }
}
