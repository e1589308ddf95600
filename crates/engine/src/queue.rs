//! Bounded multi-producer/multi-consumer queue with blocking backpressure.
//!
//! The engine's submission and completion channels. A plain
//! `Mutex<VecDeque>` + two condvars is deliberately boring: the queue is
//! touched once per job (milliseconds of work), so lock cost is noise,
//! and the `VecDeque` is preallocated at construction — pushes within
//! capacity never allocate, which the engine's steady-state
//! zero-allocation contract depends on.
//!
//! Semantics:
//!
//! * [`BoundedQueue::push`] blocks while the queue is full (backpressure
//!   propagates to the submitter) and fails only once the queue is closed.
//! * [`BoundedQueue::pop`] blocks while the queue is empty and returns
//!   `None` only when the queue is closed **and** drained — consumers see
//!   every item accepted before the close (graceful shutdown).
//! * [`BoundedQueue::close`] is idempotent and wakes all waiters.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Error: the queue was closed; the rejected item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct Closed<T>(pub T);

/// Outcome of a non-blocking push.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// Queue at capacity; retry later (backpressure signal).
    Full(T),
    /// Queue closed; the item will never be accepted.
    Closed(T),
}

/// Outcome of a non-blocking pop.
///
/// `Empty` and `Closed` are distinct on purpose: a non-blocking consumer
/// (the transport's writer-drain loop, a poller) must tell "nothing *yet*
/// — come back" apart from "nothing *ever again* — terminate". Collapsing
/// both into `None` forced such callers to poll a dead queue forever.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPop<T> {
    /// One item, in FIFO order.
    Item(T),
    /// Momentarily empty; more items may still arrive.
    Empty,
    /// Closed **and** drained; no item will ever arrive again.
    Closed,
}

impl<T> TryPop<T> {
    /// The item, if any (`Empty` and `Closed` both map to `None`).
    pub fn item(self) -> Option<T> {
        match self {
            TryPop::Item(item) => Some(item),
            TryPop::Empty | TryPop::Closed => None,
        }
    }
}

struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue. See the module docs for semantics.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items, preallocated.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue needs capacity at least 1");
        Self {
            capacity,
            state: Mutex::new(State { buf: VecDeque::with_capacity(capacity), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Maximum number of buffered items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").buf.len()
    }

    /// Whether no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking push: waits while full, errs once closed.
    pub fn push(&self, item: T) -> Result<(), Closed<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return Err(Closed(item));
            }
            if state.buf.len() < self.capacity {
                state.buf.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue poisoned");
        }
    }

    /// Non-blocking push: `Full` when at capacity, `Closed` after close.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.buf.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.buf.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop: waits while empty; `None` once closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.buf.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Blocking pop of a *run*: wait for one item, then — under the same
    /// lock — keep taking items while the head is `compatible` with the
    /// run's first item, up to `max` total. Appends the run to `out` and
    /// returns its length (0 only once the queue is closed and drained).
    ///
    /// This is the design-affinity batcher's primitive: a worker drains a
    /// run of same-design jobs in one lock acquisition without ever
    /// waiting for more traffic (only items already queued can join a
    /// run, so batching never adds latency), and without reordering — the
    /// first incompatible item stays at the head for the next pop, which
    /// bounds how long mixed traffic can sit behind a batch.
    ///
    /// # Panics
    /// Panics if `max == 0`.
    pub fn pop_run<F>(&self, max: usize, out: &mut Vec<T>, compatible: F) -> usize
    where
        F: Fn(&T, &T) -> bool,
    {
        assert!(max > 0, "a run needs room for at least one item");
        let anchor = out.len();
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(first) = state.buf.pop_front() {
                out.push(first);
                let mut taken = 1;
                while taken < max {
                    match state.buf.front() {
                        Some(next) if compatible(&out[anchor], next) => {
                            let item = state.buf.pop_front().expect("front checked");
                            out.push(item);
                            taken += 1;
                        }
                        _ => break,
                    }
                }
                drop(state);
                // A multi-item run frees several slots at once, so wake
                // every blocked producer; a single pop (the batch_window=1
                // hot path) wakes one, exactly like `pop`.
                if taken > 1 {
                    self.not_full.notify_all();
                } else {
                    self.not_full.notify_one();
                }
                return taken;
            }
            if state.closed {
                return 0;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Non-blocking pop. Buffered items are returned even after close
    /// (graceful drain); `Closed` means closed **and** drained.
    pub fn try_pop(&self) -> TryPop<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        match state.buf.pop_front() {
            Some(item) => {
                drop(state);
                self.not_full.notify_one();
                TryPop::Item(item)
            }
            None if state.closed => TryPop::Closed,
            None => TryPop::Empty,
        }
    }

    /// Close the queue: no further pushes are accepted, buffered items
    /// remain poppable, all waiters wake. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// One consistent snapshot of two queue occupancies plus an arbitrary
/// companion read: both queue locks are held while `with` runs, so the
/// three values describe a single instant — an item mid-hand-off
/// between the queues can never be double-counted by one reading and
/// missed by the other, which is exactly what three independent point
/// reads allow. Locks are taken in argument order and `with` must not
/// touch either queue; callers must agree on one global order (the
/// engine's only call site passes `jobs` then `results`).
pub fn snapshot_lens<A, B, R>(
    a: &BoundedQueue<A>,
    b: &BoundedQueue<B>,
    with: impl FnOnce() -> R,
) -> (usize, usize, R) {
    let sa = a.state.lock().expect("queue poisoned");
    let sb = b.state.lock().expect("queue poisoned");
    let r = with();
    (sa.buf.len(), sb.buf.len(), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_push(9), Err(TryPushError::Full(9)));
        assert_eq!(
            (0..4).map(|_| q.try_pop().item().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(q.try_pop(), TryPop::Empty);
    }

    #[test]
    fn try_pop_distinguishes_empty_from_closed_and_drained() {
        // Regression: a non-blocking consumer must be able to terminate.
        // `try_pop` used to return `None` both when momentarily empty and
        // when closed-and-drained, so writer-drain loops could not tell
        // "retry later" from "shut down".
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_pop(), TryPop::Empty, "open and empty is retryable");
        q.try_push(7).unwrap();
        q.close();
        // Buffered items still drain after close…
        assert_eq!(q.try_pop(), TryPop::Item(7));
        // …and only then does the queue report terminal closure.
        assert_eq!(q.try_pop(), TryPop::Closed);
        assert_eq!(q.try_pop(), TryPop::Closed, "closure is sticky");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(TryPushError::Closed(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        // Give the producer time to block, then make room.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn many_producers_many_consumers_deliver_exactly_once() {
        let q = Arc::new(BoundedQueue::new(8));
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    q.push(p * 1000 + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let want: Vec<u64> = (0..4u64).flat_map(|p| (0..100).map(move |i| p * 1000 + i)).collect();
        assert_eq!(all, want);
    }

    #[test]
    #[should_panic(expected = "capacity at least 1")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn snapshot_lens_reads_both_queues_under_one_critical_section() {
        let a = BoundedQueue::new(4);
        let b = BoundedQueue::new(4);
        a.try_push(1u8).unwrap();
        a.try_push(2u8).unwrap();
        b.try_push(9u64).unwrap();
        let (la, lb, companion) = snapshot_lens(&a, &b, || 42);
        assert_eq!((la, lb, companion), (2, 1, 42));
        // The companion closure runs while both locks are held: another
        // thread's push cannot land between the two length reads.
        let a = Arc::new(a);
        let a2 = Arc::clone(&a);
        let (la, lb, pusher) = snapshot_lens(&a, &b, || {
            let pusher = std::thread::spawn(move || a2.push(3u8).unwrap());
            // The push above must block until the snapshot releases `a`.
            std::thread::sleep(std::time::Duration::from_millis(20));
            pusher
        });
        assert_eq!((la, lb), (2, 1), "a concurrent push cannot skew the snapshot");
        pusher.join().unwrap();
        assert_eq!(a.len(), 3, "the blocked push lands after the snapshot");
    }

    #[test]
    fn pop_run_drains_compatible_prefix_only() {
        // Head run [2,4,6] is even; 5 breaks the run and stays queued.
        let q = BoundedQueue::new(8);
        for v in [2, 4, 6, 5, 8] {
            q.try_push(v).unwrap();
        }
        let mut run = Vec::new();
        let taken = q.pop_run(8, &mut run, |a: &i32, b: &i32| a % 2 == b % 2);
        assert_eq!(taken, 3);
        assert_eq!(run, vec![2, 4, 6]);
        assert_eq!(q.len(), 2, "the incompatible head stays for the next pop");
        run.clear();
        assert_eq!(q.pop_run(8, &mut run, |a, b| a % 2 == b % 2), 1);
        assert_eq!(run, vec![5]);
    }

    #[test]
    fn pop_run_respects_the_window_bound() {
        let q = BoundedQueue::new(8);
        for v in 0..6 {
            q.try_push(v).unwrap();
        }
        let mut run = Vec::new();
        assert_eq!(q.pop_run(4, &mut run, |_, _| true), 4);
        assert_eq!(run, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pop_run_returns_zero_after_close_and_drain() {
        let q = BoundedQueue::<u8>::new(2);
        q.try_push(9).unwrap();
        q.close();
        let mut run = Vec::new();
        assert_eq!(q.pop_run(4, &mut run, |_, _| true), 1);
        assert_eq!(q.pop_run(4, &mut run, |_, _| true), 0);
        assert_eq!(run, vec![9]);
    }

    #[test]
    fn pop_run_compares_against_the_run_anchor() {
        // Monotone-step predicate: with last-item chaining [0,1,2,3] would
        // all join; anchored on the first item only 0 and 1 may.
        let q = BoundedQueue::new(8);
        for v in 0..4 {
            q.try_push(v).unwrap();
        }
        let mut run = Vec::new();
        q.pop_run(8, &mut run, |first: &i32, next: &i32| next - first <= 1);
        assert_eq!(run, vec![0, 1]);
    }
}
