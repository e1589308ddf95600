//! Parallel top-k selection.
//!
//! Lines 7–9 of Algorithm 1 sort all `n` scores only to keep the largest
//! `k`. Since `k = n^θ ≪ n`, selection beats sorting asymptotically; this
//! module provides the parallel selection the decoders use, and the
//! faithful full sort ([`top_k_indices_by_sort`]) the tests hold it to.
//!
//! Strategy: each worker scans a contiguous chunk keeping a local min-heap
//! of its k best items; the heaps are then merged sequentially (k·workers
//! items, negligible). Ties are broken by ascending index so the result is
//! deterministic and matches a stable descending sort.

use rayon::prelude::*;
use std::collections::BinaryHeap;

use crate::chunks::{chunk_count, even_ranges};

/// Minimum chunk size before parallel selection engages.
const PAR_GRAIN: usize = 1 << 14;

/// Entry in the selection heap: ordered by (score asc, index desc) so the
/// heap root is the *weakest* current member under the deterministic
/// (score desc, index asc) ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Weakest {
    score: i64,
    index: usize,
}

impl Ord for Weakest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the root to be the entry that
        // loses first, i.e. smallest score, largest index on ties.
        other.score.cmp(&self.score).then_with(|| self.index.cmp(&other.index))
    }
}

impl PartialOrd for Weakest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Indices of the `k` largest scores, ranked by `(score desc, index asc)`.
///
/// Returns exactly `min(k, scores.len())` indices in ranking order. The
/// result is identical to sorting `(Reverse(score), index)` and truncating —
/// the decoder's property tests rely on that equivalence.
pub fn top_k_indices(scores: &[i64], k: usize) -> Vec<usize> {
    let n = scores.len();
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let parts = chunk_count(n, PAR_GRAIN.max(k));
    let merged: Vec<Weakest> = if parts <= 1 {
        chunk_top_k(scores, 0..n, k)
    } else {
        let ranges = even_ranges(n, parts);
        let locals: Vec<Vec<Weakest>> =
            ranges.into_par_iter().map(|r| chunk_top_k(scores, r, k)).collect();
        let mut all: Vec<Weakest> = locals.into_iter().flatten().collect();
        // Global cut: rank and keep the best k.
        all.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.index.cmp(&b.index)));
        all.truncate(k);
        all
    };
    let mut out: Vec<Weakest> = merged;
    out.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.index.cmp(&b.index)));
    out.into_iter().map(|w| w.index).collect()
}

fn chunk_top_k(scores: &[i64], range: std::ops::Range<usize>, k: usize) -> Vec<Weakest> {
    let mut heap: BinaryHeap<Weakest> = BinaryHeap::with_capacity(k + 1);
    select_into_heap(&mut heap, scores, range, k);
    heap.into_vec()
}

/// The one selection loop both paths share: keep the `k` best of `range`
/// in `heap` under the deterministic `(score desc, index asc)` ranking.
fn select_into_heap(
    heap: &mut BinaryHeap<Weakest>,
    scores: &[i64],
    range: std::ops::Range<usize>,
    k: usize,
) {
    for i in range {
        let cand = Weakest { score: scores[i], index: i };
        if heap.len() < k {
            heap.push(cand);
        } else if let Some(&root) = heap.peek() {
            // Candidate beats the weakest member under (score desc, idx asc)?
            let beats =
                cand.score > root.score || (cand.score == root.score && cand.index < root.index);
            if beats {
                heap.pop();
                heap.push(cand);
            }
        }
    }
}

/// Reusable scratch for [`top_k_into`]: holds the selection heap's backing
/// storage across calls so repeated selections allocate nothing after
/// warm-up.
#[derive(Default)]
pub struct TopKScratch {
    heap_buf: Vec<Weakest>,
    merge_buf: Vec<Weakest>,
}

impl TopKScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for TopKScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKScratch").field("capacity", &self.heap_buf.capacity()).finish()
    }
}

/// Workspace variant of [`top_k_indices`]: writes the result into `out`
/// (cleared first) and reuses `scratch` for the selection heap.
///
/// Identical output to [`top_k_indices`] — deterministic `(score desc,
/// index asc)` ranking. Allocation-free once `out` and `scratch` have grown
/// to the workload's `k` (single-worker sequential selection; with more
/// workers it currently delegates to the parallel path, which allocates its
/// per-chunk heaps).
pub fn top_k_into(scores: &[i64], k: usize, out: &mut Vec<usize>, scratch: &mut TopKScratch) {
    out.clear();
    let n = scores.len();
    let k = k.min(n);
    if k == 0 {
        return;
    }
    if chunk_count(n, PAR_GRAIN.max(k)) > 1 {
        // Parallel regime: reuse the multi-chunk kernel.
        out.extend(top_k_indices(scores, k));
        return;
    }
    // Sequential selection on the reusable heap buffer (cleared *before*
    // the conversion so no stale elements get heapified).
    let mut heap_vec = std::mem::take(&mut scratch.heap_buf);
    heap_vec.clear();
    let mut heap = BinaryHeap::from(heap_vec);
    // `reserve` takes an *additional* count (len is 0 here), so this
    // guarantees capacity ≥ k+1 outright — no mid-selection regrowth.
    heap.reserve(k + 1);
    select_into_heap(&mut heap, scores, 0..n, k);
    let mut merged = std::mem::take(&mut scratch.merge_buf);
    merged.clear();
    let mut heap_vec = heap.into_vec();
    merged.extend_from_slice(&heap_vec);
    heap_vec.clear();
    scratch.heap_buf = heap_vec;
    merged.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.index.cmp(&b.index)));
    out.extend(merged.iter().map(|w| w.index));
    scratch.merge_buf = merged;
}

/// Reference sequential implementation (full sort): Algorithm 1's
/// Lines 7–9 as written, which the tests compare every selection with.
pub fn top_k_indices_by_sort(scores: &[i64], k: usize) -> Vec<usize> {
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
        assert!(top_k_indices(&[], 4).is_empty());
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
