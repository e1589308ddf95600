//! The shared design cache: sampled pooling designs keyed by their spec.
//!
//! Sampling a design is by far the most expensive step of a job that
//! misses: `O(m·Γ)` draws counted straight into the design's rows, then
//! the transpose and the entry bitmap (`pooled_design::csr`), in a fixed
//! handful of allocations. At `cold_churn`'s shape of the repository
//! benchmark (n = 4000, m = 564, c = ½) a miss costs about 25–35 ms on
//! one core of a 2-vCPU Xeon VM for RandomRegular, NoReplace and
//! EntryRegular and about 65 ms for Bernoulli (its draws take a
//! logarithm each), against a decode of about 0.2 ms. Real traffic
//! repeats design keys constantly — a tenant reuses its design across
//! thousands of reconstructions. The cache memoizes `spec → Arc<design>`
//! under a bounded LRU policy ([`pooled_par::lru::LruCache`]), so repeated
//! traffic never regenerates pools and a key sweep cannot grow memory
//! without limit.
//!
//! Hits are allocation-free (`Arc` clone under a mutex); misses sample
//! *outside* the lock so one tenant's cold key never stalls another
//! tenant's hot path. Sampling is **single-flight**, and its election is
//! the only code that samples a design: a caller claims a cold key
//! (`DesignCache::claim`) and finds it resident, joins the sample in
//! flight, or wins and owes the key's waiters one sample. Traffic
//! misses, startup and recovery warms ([`DesignCache::prewarm`]) and a
//! live engine's prewarms (claimed at the door, sampled on the engine's
//! sampler thread: [`crate::engine::Engine::prewarm`]) all pass through
//! it, so however many callers race on one cold key, exactly one sample
//! runs ([`DesignCache::samples`]).
//!
//! Because sampling is a pure function of the key, the cache's working
//! set serializes as **keys only** ([`DesignCache::keys`]) and restores
//! bit-identically ([`DesignCache::prewarm`]) — the snapshot/restore-lite
//! path a restarted node uses to warm before accepting traffic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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

    /// Whether this key names a samplable design: `n > 0`, `m > 0` and a
    /// density in `(0, 1]` (a job's key part of [`JobSpec::is_feasible`]).
    pub fn is_feasible(&self) -> bool {
        self.n > 0 && self.m > 0 && (1..=1000).contains(&self.c_milli)
    }

    /// Sample the design this key identifies (pure function of the key).
    pub fn sample(&self) -> AnyDesign {
        let seeds = SeedSequence::new(self.seed);
        self.kind.sample(self.n, self.m, self.c_milli as f64 / 1000.0, &seeds.child("design", 0))
    }
}

/// State of one claimed key's sample (see [`DesignCache::claim`]).
enum SampleState {
    /// The leader is still working.
    Sampling,
    /// The design is ready; waiters clone this.
    Ready(Arc<AnyDesign>),
    /// The leader dropped its claim unpublished (a panic mid-sample, or
    /// a prewarm the sampler had no room for); waiters must re-run the
    /// election instead of parking forever.
    Abandoned,
}

/// One claimed key's single-flight rendezvous: the leader publishes
/// here, every waiter parks on the condvar.
pub(crate) struct InFlight {
    state: Mutex<SampleState>,
    ready: Condvar,
}

/// One step of [`DesignCache::claim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClaimStep {
    /// Look the key up; a resident design ends the claim (retiring the
    /// election this caller won, if any).
    Probe,
    /// Join the key's in-flight sample, or open one and lead it.
    Elect,
}

/// The order of [`DesignCache::claim`]'s steps. The first probe is the
/// hit path. The second is the leader's residency re-check: between this
/// caller's miss and its election, an earlier leader may have admitted
/// the key and retired its own election, and sampling again would pay
/// for a copy `admit` throws away. `election_samples_each_key_once`
/// checks every interleaving.
const CLAIM_ORDER: [ClaimStep; 3] = [ClaimStep::Probe, ClaimStep::Elect, ClaimStep::Probe];

/// What [`DesignCache::claim`] found.
pub(crate) enum Claim<'a> {
    /// The design is resident.
    Resident(Arc<AnyDesign>),
    /// Another caller leads this key's sample; wait for it to publish.
    Pending(Arc<InFlight>),
    /// This caller won the election and owes the key's waiters a sample.
    Leader(Leader<'a>),
}

/// A won election. [`Leader::sample`] is the only code that samples a
/// design. A leader publishes its outcome when dropped and retires the
/// claim: `Abandoned` unless it sampled (a panic mid-sample, or a
/// prewarm the sampler had no room for), so the key's waiters re-elect
/// instead of parking on a claim nobody fills.
pub(crate) struct Leader<'a> {
    cache: &'a DesignCache,
    key: DesignKey,
    outcome: SampleState,
}

impl Leader<'_> {
    /// Sample the key, admit it, and hand it to every waiter.
    pub(crate) fn sample(mut self) -> Arc<AnyDesign> {
        let fresh = Arc::new(self.key.sample());
        self.cache.samples.fetch_add(1, Ordering::Relaxed);
        let shared = self.cache.admit(&self.key, fresh);
        self.outcome = SampleState::Ready(Arc::clone(&shared));
        shared
    }

    /// Pass the claim on as its bare key ([`DesignCache::resume`]).
    pub(crate) fn hand_off(self) {
        std::mem::forget(self);
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        // Runs while unwinding too, so it must not panic: every update
        // under these locks is a single write, so a poisoned guard still
        // holds valid data.
        let pending =
            self.cache.sampling.lock().unwrap_or_else(PoisonError::into_inner).remove(&self.key);
        if let Some(pending) = pending {
            let outcome = std::mem::replace(&mut self.outcome, SampleState::Abandoned);
            *pending.state.lock().unwrap_or_else(PoisonError::into_inner) = outcome;
            pending.ready.notify_all();
        }
    }
}

/// Bounded, thread-safe `DesignKey → Arc<AnyDesign>` memo with
/// single-flight sampling.
pub struct DesignCache {
    inner: Mutex<LruCache<DesignKey, Arc<AnyDesign>>>,
    /// Claimed keys (`key → rendezvous`). An entry exists exactly while
    /// one leader holds the key's claim; everyone else who misses on
    /// the key waits on it instead of sampling again.
    sampling: Mutex<HashMap<DesignKey, Arc<InFlight>>>,
    /// The durable tier's write-ahead log, if this cache is journaled:
    /// every admission and eviction is reported so the log can
    /// reconstruct the live set after a crash.
    journal: Mutex<Option<Arc<WalJournal>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    samples: AtomicU64,
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
            samples: AtomicU64::new(0),
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

    /// Claim `key` (steps and their order are `CLAIM_ORDER`): find it
    /// resident, join the sample in flight, or win the election.
    pub(crate) fn claim(&self, key: &DesignKey) -> Claim<'_> {
        let mut won: Option<Leader<'_>> = None;
        for step in CLAIM_ORDER {
            match step {
                ClaimStep::Probe => {
                    let resident =
                        self.inner.lock().expect("design cache poisoned").get(key).cloned();
                    if let Some(design) = resident {
                        if let Some(mut leader) = won.take() {
                            leader.outcome = SampleState::Ready(Arc::clone(&design));
                        }
                        return Claim::Resident(design);
                    }
                }
                ClaimStep::Elect => {
                    let mut sampling = self.sampling.lock().expect("sampler table poisoned");
                    if let Some(pending) = sampling.get(key) {
                        return Claim::Pending(Arc::clone(pending));
                    }
                    let state = Mutex::new(SampleState::Sampling);
                    sampling.insert(*key, Arc::new(InFlight { state, ready: Condvar::new() }));
                    won = Some(self.resume(*key));
                }
            }
        }
        Claim::Leader(won.expect("the claim steps include an election"))
    }

    /// Take back a claim passed on by [`Leader::hand_off`], once: two
    /// leaders of one claim would publish twice.
    pub(crate) fn resume(&self, key: DesignKey) -> Leader<'_> {
        Leader { cache: self, key, outcome: SampleState::Abandoned }
    }

    /// The design for `key`: cached on a hit, sampled (outside the lock)
    /// and inserted on a miss. A miss on a claimed key waits for that
    /// claim's one sample and counts as a hit — it was served from
    /// shared work, not its own sampling.
    pub fn get_or_sample(&self, key: &DesignKey) -> Arc<AnyDesign> {
        loop {
            let pending = match self.claim(key) {
                Claim::Resident(design) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return design;
                }
                Claim::Leader(leader) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return leader.sample();
                }
                Claim::Pending(pending) => pending,
            };
            let state = pending.state.lock().expect("in-flight sample poisoned");
            let state = pending
                .ready
                .wait_while(state, |s| matches!(s, SampleState::Sampling))
                .expect("in-flight sample poisoned");
            if let SampleState::Ready(design) = &*state {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(design);
            }
            // The leader abandoned its claim: re-run the election.
        }
    }

    /// `(hits, misses)` since construction. A hit is any access served
    /// without sampling (cached, or coalesced onto a claim's in-flight
    /// sample); a miss is an access that actually sampled.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Designs sampled since construction: traffic misses, startup and
    /// recovery warms and live prewarms alike. Each cold key costs one
    /// sample however many callers race on it, so this is the sampling
    /// work actually paid.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Snapshot-lite export: the keys of every resident design, in no
    /// particular order. Designs resample bit-identically from their
    /// keys, so this *is* the cache's serialized form.
    pub fn keys(&self) -> Vec<DesignKey> {
        self.inner.lock().expect("design cache poisoned").keys().copied().collect()
    }

    /// Snapshot-lite restore: claim every key and sample, on this
    /// thread, each one whose election this call wins. Resident and
    /// already-claimed keys cost nothing, and the hit/miss telemetry is
    /// untouched — warming is administrative, not traffic. Engines warm
    /// this way before their workers exist
    /// ([`crate::engine::Engine::start_prewarmed`]).
    pub fn prewarm(&self, keys: &[DesignKey]) {
        for key in keys {
            if let Claim::Leader(leader) = self.claim(key) {
                leader.sample();
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{self, Flow};
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
    fn prewarms_are_counted_samples_that_share_the_election() {
        // A prewarm of a cold key is one sample and no traffic.
        let cache = DesignCache::new(4);
        cache.prewarm(&[key(3)]);
        assert_eq!(cache.samples(), 1, "a prewarm pays one sample");
        assert_eq!(cache.stats(), (0, 0), "prewarming is not traffic");

        // Traffic misses racing prewarms on one cold key: one sample,
        // and every caller holds the same design.
        use std::sync::Barrier;
        let cache = Arc::new(DesignCache::new(4));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    if i % 2 == 0 {
                        cache.prewarm(&[key(42)]);
                    }
                    cache.get_or_sample(&key(42))
                })
            })
            .collect();
        let designs: Vec<Arc<AnyDesign>> =
            handles.into_iter().map(|h| h.join().expect("racing thread")).collect();
        assert_eq!(cache.samples(), 1, "prewarms and misses must share one sample");
        assert!(designs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
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

    /// One atomic step of the single-flight election in the
    /// interleaving model.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// One step of `claim`, in the order under test.
        Claim(ClaimStep),
        /// Leader: sample the key and admit it.
        Sample,
        /// The panicking leader: unwind mid-sample (its drop then
        /// publishes `Abandoned`).
        Unwind,
        /// Door: queue the won claim for the sampler.
        HandOff,
        /// Sampler: take the queued claim (parked until the door queued
        /// one, done if the door finished without).
        Take,
        /// Leader: its drop's first lock, removing the claim.
        Retire,
        /// Leader: its drop's second lock, waking the waiters.
        Signal,
        /// Waiter: park until the joined claim is published.
        Wait,
    }

    /// The door's thread. The model's threads are, in order, a traffic
    /// miss, a traffic miss whose sample panics, a live prewarm's door,
    /// and the engine's sampler.
    const DOOR: usize = 2;

    #[derive(Clone, Copy)]
    struct Model {
        resident: bool,
        samples: u32,
        /// The key's entry in the in-flight table: which election.
        claimed: Option<usize>,
        /// Elections opened so far.
        elections: usize,
        /// Per election: what its leader published (`Some(true)` ready,
        /// `Some(false)` abandoned), `None` while it works.
        published: [Option<bool>; 4],
        /// Per thread: the election it leads or waits on.
        election: [Option<usize>; 4],
        /// Per thread: whether it leads that election.
        leads: [bool; 4],
        /// Per thread: whether its publish will be `Ready`.
        ready: [bool; 4],
        /// The election the door queued for the sampler.
        queued: Option<usize>,
        door_done: bool,
        /// Whether the sampler's queue is full, so the hand-off fails.
        queue_full: bool,
    }

    /// Walk every interleaving of a traffic miss, a panicking traffic
    /// miss and a live prewarm (its door and the sampler) on one cold
    /// key, with claims in `order`, with room in the sampler's queue and
    /// without. Each final state must hold the key, sampled exactly
    /// once, with every election published and no claim left in the
    /// table; and no waiter may be left parked. Returns the number of
    /// interleavings walked, or the first one (as `(thread, step)`
    /// pairs) that broke the protocol.
    fn explore(order: &[ClaimStep]) -> Result<usize, String> {
        let claim: Vec<Step> = order.iter().map(|&s| Step::Claim(s)).collect();
        let with = |tail: &[Step]| [&claim[..], tail].concat();
        let traffic = with(&[Step::Sample, Step::Retire, Step::Signal, Step::Wait]);
        let panicker = with(&[Step::Unwind, Step::Retire, Step::Signal, Step::Wait]);
        let door = with(&[Step::HandOff, Step::Retire, Step::Signal]);
        let sampler = [Step::Take, Step::Sample, Step::Retire, Step::Signal];
        // Step indices past the claim, shared by the three claiming programs.
        let (retire, wait) = (claim.len() + 1, claim.len() + 3);
        let cold = Model {
            resident: false,
            samples: 0,
            claimed: None,
            elections: 0,
            published: [None; 4],
            election: [None; 4],
            leads: [false; 4],
            ready: [false; 4],
            queued: None,
            door_done: false,
            queue_full: false,
        };
        let full = Model { queue_full: true, ..cold };
        let step = |m: &mut Model, t: usize, step: Step| {
            let flow = match step {
                Step::Claim(ClaimStep::Probe) if m.resident => {
                    if m.leads[t] {
                        m.ready[t] = true;
                        Flow::Goto(retire)
                    } else {
                        Flow::Done
                    }
                }
                Step::Claim(ClaimStep::Probe) => Flow::Next,
                Step::Claim(ClaimStep::Elect) => match m.claimed {
                    // An already-claimed key costs a prewarm nothing.
                    Some(_) if t == DOOR => Flow::Done,
                    Some(e) => {
                        (m.election[t], m.leads[t]) = (Some(e), false);
                        Flow::Goto(wait)
                    }
                    None => {
                        let e = m.elections;
                        m.elections += 1;
                        m.claimed = Some(e);
                        (m.election[t], m.leads[t]) = (Some(e), true);
                        Flow::Next
                    }
                },
                Step::Sample => {
                    m.samples += 1;
                    m.resident = true;
                    m.ready[t] = true;
                    Flow::Next
                }
                Step::Unwind => {
                    m.ready[t] = false;
                    Flow::Next
                }
                Step::HandOff if m.queue_full => {
                    m.ready[t] = false;
                    Flow::Next
                }
                Step::HandOff => {
                    m.queued = m.election[t];
                    Flow::Done
                }
                Step::Take => match m.queued {
                    Some(e) => {
                        (m.election[t], m.leads[t]) = (Some(e), true);
                        Flow::Next
                    }
                    None if m.door_done => Flow::Done,
                    None => Flow::Parked,
                },
                Step::Retire => {
                    m.claimed = None;
                    Flow::Next
                }
                Step::Signal => {
                    let e = m.election[t].expect("a leader holds an election");
                    m.published[e] = Some(m.ready[t]);
                    Flow::Done
                }
                Step::Wait => {
                    match m.published[m.election[t].expect("a waiter joined an election")] {
                        None => Flow::Parked,
                        Some(true) => Flow::Done,
                        // Abandoned: re-run the election.
                        Some(false) => Flow::Goto(0),
                    }
                }
            };
            if t == DOOR && matches!(flow, Flow::Done) {
                m.door_done = true;
            }
            flow
        };
        let check = |m: &Model| {
            if !m.resident || m.samples != 1 {
                return Err("the key was not sampled exactly once");
            }
            if m.claimed.is_some() || m.published[..m.elections].iter().any(Option::is_none) {
                return Err("a claim was left unpublished, later misses would park on it");
            }
            Ok(())
        };
        let programs = [&traffic[..], &panicker[..], &door[..], &sampler[..]];
        interleave::explore(&[cold, full], programs, step, check)
    }

    #[test]
    fn election_samples_each_key_once() {
        let walked = explore(&CLAIM_ORDER).expect("the election samples each key once");
        // Parked waiters prune the walk, so there is no closed form;
        // pinning the count shows the walk stays exhaustive.
        assert_eq!(walked, 2_321_973);
        // The model is not vacuous: a claim that skips the leader's
        // residency re-check samples a key an earlier leader already
        // admitted.
        let err = explore(&CLAIM_ORDER[..2]).expect_err("skipping the re-check samples twice");
        assert!(err.starts_with("the key was not sampled exactly once"), "{err}");
    }
}
