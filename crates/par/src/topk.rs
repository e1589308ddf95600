//! Parallel top-k selection: the one ranking kernel of every decoder.
//!
//! Lines 7–9 of Algorithm 1 sort all `n` scores only to keep the largest
//! `k`. Since `k = n^θ ≪ n`, selection beats sorting asymptotically; this
//! module provides the selection every decoder ranks through — classic
//! MN and Threshold-MN on `i64` scores, Γ-general MN on its exact `i128`
//! scores — and the faithful full sort ([`top_k_indices_by_sort`]) the
//! tests hold it to. Scores are any `Ord + Copy` type.
//!
//! Strategy: one bounded heap of the k best items, its root the weakest
//! member. With one worker installed, or at most `PAR_GRAIN` (16 384)
//! scores, one heap scans everything; otherwise each worker scans a
//! contiguous chunk into a local heap and the locals are offered to the
//! final heap sequentially (k·workers items, negligible). Ties are broken
//! by ascending index, so the result is deterministic and matches a
//! stable descending sort.

use rayon::prelude::*;
use std::collections::BinaryHeap;

use crate::chunks::{chunk_count, even_ranges};

/// Minimum chunk size before parallel selection engages.
const PAR_GRAIN: usize = 1 << 14;

/// Entry in the selection heap, ordered by (score asc, index desc) so the
/// heap root is the *weakest* current member under the deterministic
/// (score desc, index asc) ranking — and ascending order is that ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Weakest<S> {
    score: S,
    index: usize,
}

impl<S: Ord> Ord for Weakest<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the root to be the entry that
        // loses first, i.e. smallest score, largest index on ties.
        other.score.cmp(&self.score).then_with(|| self.index.cmp(&other.index))
    }
}

impl<S: Ord> PartialOrd for Weakest<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Indices of the `k` largest scores, ranked by `(score desc, index asc)`.
///
/// Returns exactly `min(k, scores.len())` indices in ranking order. The
/// result is identical to sorting `(Reverse(score), index)` and truncating —
/// the decoder's property tests rely on that equivalence. Runs
/// [`top_k_into`] on a fresh scratch.
pub fn top_k_indices<S: Ord + Copy + Send + Sync>(scores: &[S], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    top_k_into(scores, k, &mut out, &mut TopKScratch::new());
    out
}

/// The one selection loop: offer `items` to `heap`, which keeps the `k`
/// best under the deterministic `(score desc, index asc)` ranking.
fn select<S: Ord + Copy>(
    heap: &mut BinaryHeap<Weakest<S>>,
    items: impl IntoIterator<Item = Weakest<S>>,
    k: usize,
) {
    for cand in items {
        if heap.len() < k {
            heap.push(cand);
        } else if let Some(mut root) = heap.peek_mut() {
            // Candidate beats the weakest member: replace the root (the
            // guard sifts it down on drop).
            if cand < *root {
                *root = cand;
            }
        }
    }
}

/// `scores[range]` as heap entries carrying their global indices.
fn entries<S: Copy>(
    scores: &[S],
    range: std::ops::Range<usize>,
) -> impl Iterator<Item = Weakest<S>> + '_ {
    let start = range.start;
    scores[range].iter().enumerate().map(move |(j, &score)| Weakest { score, index: start + j })
}

/// Reusable scratch for [`top_k_into`]: holds the selection heap's backing
/// storage across calls so repeated selections allocate nothing after
/// warm-up.
pub struct TopKScratch<S> {
    heap_buf: Vec<Weakest<S>>,
}

impl<S> TopKScratch<S> {
    /// Empty scratch; the buffer grows on first use.
    pub fn new() -> Self {
        Self { heap_buf: Vec::new() }
    }
}

impl<S> Default for TopKScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> std::fmt::Debug for TopKScratch<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKScratch").field("capacity", &self.heap_buf.capacity()).finish()
    }
}

/// Write the indices of the `k` largest scores into `out` (cleared
/// first), ranked by `(score desc, index asc)`, reusing `scratch` for the
/// selection heap.
///
/// Allocation-free once `out` and `scratch` have grown to the workload's
/// `k`, as long as the selection runs on one heap (one worker installed,
/// or at most 16 384 scores); the parallel arm allocates its per-chunk
/// heaps.
pub fn top_k_into<S: Ord + Copy + Send + Sync>(
    scores: &[S],
    k: usize,
    out: &mut Vec<usize>,
    scratch: &mut TopKScratch<S>,
) {
    out.clear();
    let n = scores.len();
    let k = k.min(n);
    if k == 0 {
        return;
    }
    // The buffer is stored empty, so the conversion heapifies nothing.
    let mut heap = BinaryHeap::from(std::mem::take(&mut scratch.heap_buf));
    // `reserve` takes an *additional* count (len is 0 here), so this
    // guarantees capacity ≥ k+1 outright — no mid-selection regrowth.
    heap.reserve(k + 1);
    let parts = chunk_count(n, PAR_GRAIN.max(k));
    if parts <= 1 {
        select(&mut heap, entries(scores, 0..n), k);
    } else {
        let locals: Vec<Vec<Weakest<S>>> = even_ranges(n, parts)
            .into_par_iter()
            .map(|range| {
                let mut local = BinaryHeap::with_capacity(k + 1);
                select(&mut local, entries(scores, range), k);
                local.into_vec()
            })
            .collect();
        select(&mut heap, locals.into_iter().flatten(), k);
    }
    // Ascending heap order is the ranking order.
    let mut ranked = heap.into_sorted_vec();
    out.extend(ranked.iter().map(|w| w.index));
    ranked.clear();
    scratch.heap_buf = ranked;
}

/// Reference sequential implementation (full sort): Algorithm 1's
/// Lines 7–9 as written, which the tests compare every selection with.
pub fn top_k_indices_by_sort<S: Ord>(scores: &[S], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
    order.truncate(k.min(scores.len()));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_rng::{Rng64, SplitMix64};

    #[test]
    fn matches_sort_reference_small() {
        let scores = vec![5i64, -2, 9, 9, 0, 3];
        assert_eq!(top_k_indices(&scores, 3), top_k_indices_by_sort(&scores, 3));
        assert_eq!(top_k_indices(&scores, 3), vec![2, 3, 0]);
    }

    #[test]
    fn matches_sort_reference_large() {
        let mut rng = SplitMix64::new(12);
        let scores: Vec<i64> = (0..300_000).map(|_| rng.below(1000) as i64 - 500).collect();
        for k in [1usize, 7, 64, 1000] {
            assert_eq!(top_k_indices(&scores, k), top_k_indices_by_sort(&scores, k), "k={k}");
        }
    }

    #[test]
    fn wide_scores_match_sort_reference_on_both_arms() {
        // Exact i128 scores as Γ-general MN ranks them: past i64's range,
        // with ties, on one heap and on per-worker chunks, with one
        // scratch reused throughout.
        let mut rng = SplitMix64::new(13);
        let scores: Vec<i128> = (0..40_000).map(|_| (rng.below(500) as i128 - 250) << 70).collect();
        let mut out = Vec::new();
        let mut scratch = TopKScratch::new();
        for threads in [1usize, 2] {
            for k in [1usize, 50, 4000] {
                crate::pool::install_with_threads(threads, || {
                    top_k_into(&scores, k, &mut out, &mut scratch)
                });
                assert_eq!(out, top_k_indices_by_sort(&scores, k), "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn ties_break_by_ascending_index() {
        let scores = vec![1i64; 100_000];
        let got = top_k_indices(&scores, 5);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn k_zero_and_k_ge_n() {
        let scores = vec![3i64, 1, 2];
        assert!(top_k_indices(&scores, 0).is_empty());
        assert_eq!(top_k_indices(&scores, 10), vec![0, 2, 1]);
    }

    #[test]
    fn empty_scores() {
        assert!(top_k_indices::<i64>(&[], 4).is_empty());
    }

    #[test]
    fn extreme_values_do_not_overflow_ordering() {
        let scores = vec![i64::MAX, i64::MIN, 0, i64::MAX - 1];
        assert_eq!(top_k_indices(&scores, 2), vec![0, 3]);
    }

    #[test]
    fn sparse_support_shape() {
        // Mimic decoder input: k large positive scores buried in noise.
        let mut rng = SplitMix64::new(77);
        let n = 200_000;
        let k = 450;
        let mut scores: Vec<i64> = (0..n).map(|_| rng.below(100) as i64).collect();
        let mut support: Vec<usize> = (0..k).map(|_| rng.index(n)).collect();
        support.sort_unstable();
        support.dedup();
        for &i in &support {
            scores[i] += 1_000_000;
        }
        let got = top_k_indices(&scores, support.len());
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        assert_eq!(got_sorted, support);
    }
}
