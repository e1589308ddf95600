//! Parallel sorting.
//!
//! Algorithm 1 sorts the `n` coordinate scores; the paper points at the GPU
//! sorting literature for this step. [`par_merge_sort`] is a recursive
//! merge sort with a parallel two-way merge (split at the median of the
//! longer run): stable, O(n log n) work, O(log² n) depth. The Γ-general MN
//! decoder ranks its `i128` scores through [`par_merge_sort_with`], its
//! allocation-free form; the benches compare it with the top-k shortcut.

/// Below this length the sequential bottom-up merge sort wins.
const SEQ_CUTOFF: usize = 1 << 13;
/// Runs shorter than this are merged sequentially.
const MERGE_CUTOFF: usize = 1 << 12;

/// Stable parallel merge sort by a key function.
pub fn par_merge_sort<T, K, F>(data: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: Ord + Send,
    F: Fn(&T) -> K + Sync,
{
    let mut buf: Vec<T> = data.to_vec();
    sort_into(data, &mut buf, &key);
}

/// [`par_merge_sort`] with a caller-owned scratch buffer (resized to
/// `data.len()`, capacity reused): repeated sorts at a stable shape touch
/// the heap only on the first call. The serving engine's Γ-general decode
/// path sorts per job through this entry point.
pub fn par_merge_sort_with<T, K, F>(data: &mut [T], scratch: &mut Vec<T>, key: F)
where
    T: Copy + Send + Sync + Default,
    K: Ord + Send,
    F: Fn(&T) -> K + Sync,
{
    // No clear(): sort_into fully overwrites the scratch during merging,
    // so shrinking truncates for free and growth default-fills only the
    // new tail — re-sorts at a stable shape write nothing here.
    scratch.resize(data.len(), T::default());
    sort_into(data, scratch, &key);
}

fn sort_into<T, K, F>(data: &mut [T], buf: &mut [T], key: &F)
where
    T: Copy + Send + Sync,
    K: Ord + Send,
    F: Fn(&T) -> K + Sync,
{
    debug_assert_eq!(data.len(), buf.len());
    if data.len() <= SEQ_CUTOFF {
        // Bottom-up stable merge sort into the provided scratch: unlike
        // the standard library's stable sort this never allocates, which
        // the engine's steady-state zero-allocation contract needs.
        seq_bottom_up_merge_sort(data, buf, key);
        return;
    }
    let mid = data.len() / 2;
    let (dl, dr) = data.split_at_mut(mid);
    let (bl, br) = buf.split_at_mut(mid);
    rayon::join(|| sort_into(dl, bl, key), || sort_into(dr, br, key));
    // Merge dl, dr into buf, then copy back.
    par_merge(dl, dr, buf, key);
    data.copy_from_slice(buf);
}

/// Leaf width below which runs are insertion-sorted in place before the
/// bottom-up merging starts (branch-friendly for nearly-sorted runs).
const RUN_WIDTH: usize = 32;

/// Stable, allocation-free bottom-up merge sort using `buf` as ping-pong
/// scratch.
fn seq_bottom_up_merge_sort<T, K, F>(data: &mut [T], buf: &mut [T], key: &F)
where
    T: Copy,
    K: Ord,
    F: Fn(&T) -> K,
{
    let n = data.len();
    for start in (0..n).step_by(RUN_WIDTH) {
        insertion_sort(&mut data[start..(start + RUN_WIDTH).min(n)], key);
    }
    let mut width = RUN_WIDTH;
    let mut in_data = true;
    while width < n {
        if in_data {
            merge_pass(data, buf, width, key);
        } else {
            merge_pass(buf, data, width, key);
        }
        in_data = !in_data;
        width *= 2;
    }
    if !in_data {
        data.copy_from_slice(buf);
    }
}

/// One bottom-up pass: merge adjacent `width`-runs of `src` into `dst`.
fn merge_pass<T, K, F>(src: &[T], dst: &mut [T], width: usize, key: &F)
where
    T: Copy,
    K: Ord,
    F: Fn(&T) -> K,
{
    let n = src.len();
    let mut i = 0;
    while i < n {
        let mid = (i + width).min(n);
        let end = (i + 2 * width).min(n);
        seq_merge(&src[i..mid], &src[mid..end], &mut dst[i..end], key);
        i = end;
    }
}

/// Stable in-place insertion sort (tiny runs only).
fn insertion_sort<T, K, F>(run: &mut [T], key: &F)
where
    T: Copy,
    K: Ord,
    F: Fn(&T) -> K,
{
    for i in 1..run.len() {
        let mut j = i;
        while j > 0 && key(&run[j - 1]) > key(&run[j]) {
            run.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Merge two sorted runs into `out` in parallel.
fn par_merge<T, K, F>(left: &[T], right: &[T], out: &mut [T], key: &F)
where
    T: Copy + Send + Sync,
    K: Ord + Send,
    F: Fn(&T) -> K + Sync,
{
    debug_assert_eq!(left.len() + right.len(), out.len());
    if out.len() <= MERGE_CUTOFF {
        seq_merge(left, right, out, key);
        return;
    }
    // Split at the median of the longer run; binary-search the partner.
    let (l_split, r_split) = if left.len() >= right.len() {
        let lm = left.len() / 2;
        let pivot = key(&left[lm]);
        let rm = right.partition_point(|x| key(x) < pivot);
        (lm, rm)
    } else {
        let rm = right.len() / 2;
        let pivot = key(&right[rm]);
        // For stability, equal keys from `left` must come first.
        let lm = left.partition_point(|x| key(x) <= pivot);
        (lm, rm)
    };
    let (out_lo, out_hi) = out.split_at_mut(l_split + r_split);
    rayon::join(
        || par_merge(&left[..l_split], &right[..r_split], out_lo, key),
        || par_merge(&left[l_split..], &right[r_split..], out_hi, key),
    );
}

fn seq_merge<T, K, F>(left: &[T], right: &[T], out: &mut [T], key: &F)
where
    T: Copy,
    K: Ord,
    F: Fn(&T) -> K,
{
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        // `<=` keeps stability: ties favour the left (earlier) run.
        let take_left = i < left.len() && (j >= right.len() || key(&left[i]) <= key(&right[j]));
        if take_left {
            *slot = left[i];
            i += 1;
        } else {
            *slot = right[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_rng::{Rng64, SplitMix64};

    fn random_vec(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64() as i64 % 10_000).collect()
    }

    #[test]
    fn merge_sort_matches_std_small() {
        let mut a = random_vec(100, 1);
        let mut b = a.clone();
        par_merge_sort(&mut a, |x| *x);
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn merge_sort_matches_std_large() {
        let mut a = random_vec(200_000, 2);
        let mut b = a.clone();
        par_merge_sort(&mut a, |x| *x);
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn merge_sort_is_stable() {
        // Key only on the first tuple element; payload must keep input order.
        let mut rng = SplitMix64::new(3);
        let mut v: Vec<(u8, u32)> = (0..100_000u32).map(|i| ((rng.below(4)) as u8, i)).collect();
        par_merge_sort(&mut v, |x| x.0);
        for w in v.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {w:?}");
            }
        }
    }

    #[test]
    fn scratch_variant_matches_and_reuses_capacity() {
        let mut scratch = Vec::new();
        for (n, seed) in [(100usize, 7u64), (5_000, 8), (60_000, 9)] {
            let mut a = random_vec(n, seed);
            let mut b = a.clone();
            par_merge_sort_with(&mut a, &mut scratch, |x| *x);
            b.sort();
            assert_eq!(a, b, "n={n}");
        }
        // At a fixed shape, repeated sorts never regrow the scratch.
        let cap = scratch.capacity();
        for seed in 20..25 {
            let mut a = random_vec(60_000, seed);
            par_merge_sort_with(&mut a, &mut scratch, |x| *x);
            assert_eq!(scratch.capacity(), cap);
        }
    }

    #[test]
    fn scratch_variant_is_stable() {
        let mut rng = SplitMix64::new(13);
        let mut v: Vec<(u8, u32)> = (0..50_000u32).map(|i| ((rng.below(4)) as u8, i)).collect();
        par_merge_sort_with(&mut v, &mut Vec::new(), |x| x.0);
        for w in v.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {w:?}");
            }
        }
    }

    #[test]
    fn merge_sort_descending_key() {
        let mut a = random_vec(50_000, 4);
        let mut b = a.clone();
        par_merge_sort(&mut a, |x| std::cmp::Reverse(*x));
        b.sort_by_key(|x| std::cmp::Reverse(*x));
        assert_eq!(a, b);
    }

    #[test]
    fn sorts_handle_empty_and_tiny() {
        let mut empty: Vec<i64> = vec![];
        par_merge_sort(&mut empty, |x| *x);
        let mut one = vec![5i64];
        par_merge_sort(&mut one, |x| *x);
        assert_eq!(one, vec![5]);
    }

    #[test]
    fn score_shape_input() {
        // (score, index) pairs as produced by the MN decoder: sort by
        // descending score, ascending index.
        let mut rng = SplitMix64::new(6);
        let mut v: Vec<(i64, u32)> =
            (0..80_000u32).map(|i| ((rng.below(500) as i64) - 250, i)).collect();
        let mut want = v.clone();
        par_merge_sort(&mut v, |&(s, i)| (std::cmp::Reverse(s), i));
        want.sort_by_key(|&(s, i)| (std::cmp::Reverse(s), i));
        assert_eq!(v, want);
    }
}
