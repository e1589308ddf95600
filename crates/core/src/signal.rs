//! The hidden signal `σ ∈ {0,1}^n` of Hamming weight `k`.
//!
//! Stored both densely (byte per entry, for O(1) membership in the hot
//! query-execution loop) and as a sorted support list (for O(k) overlap
//! computations). The two views are kept consistent by construction.

use pooled_rng::shuffle::sample_distinct_floyd;
use pooled_rng::Rng64;

/// A binary signal with explicit support.
#[derive(Clone, PartialEq, Eq)]
pub struct Signal {
    dense: Vec<u8>,
    support: Vec<usize>,
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal")
            .field("n", &self.dense.len())
            .field("support", &self.support)
            .finish()
    }
}

impl Signal {
    /// Draw uniformly from all `{0,1}^n` vectors with exactly `k` ones
    /// (the paper's ground-truth distribution).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn random<R: Rng64 + ?Sized>(n: usize, k: usize, rng: &mut R) -> Self {
        let support = sample_distinct_floyd(n, k, rng);
        Self::from_sorted_support(n, support)
    }

    /// Build from a support set (indices of one-entries, any order).
    ///
    /// # Panics
    /// Panics on out-of-range or duplicate indices.
    pub fn from_support(n: usize, mut support: Vec<usize>) -> Self {
        support.sort_unstable();
        for w in support.windows(2) {
            assert!(w[0] != w[1], "duplicate support index {}", w[0]);
        }
        Self::from_sorted_support(n, support)
    }

    fn from_sorted_support(n: usize, support: Vec<usize>) -> Self {
        let mut dense = vec![0u8; n];
        for &i in &support {
            assert!(i < n, "support index {i} out of range for n={n}");
            dense[i] = 1;
        }
        Self { dense, support }
    }

    /// Build from a dense 0/1 slice.
    ///
    /// # Panics
    /// Panics if any entry is neither 0 nor 1.
    pub fn from_dense(bits: &[u8]) -> Self {
        let support = bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| {
                assert!(b <= 1, "entry {i} has non-binary value {b}");
                (b == 1).then_some(i)
            })
            .collect();
        Self { dense: bits.to_vec(), support }
    }

    /// Signal length `n`.
    pub fn n(&self) -> usize {
        self.dense.len()
    }

    /// Hamming weight `k = ||σ||₁`.
    pub fn weight(&self) -> usize {
        self.support.len()
    }

    /// Value of entry `i` (0 or 1).
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        self.dense[i]
    }

    /// Whether entry `i` is a one-entry.
    #[inline]
    pub fn is_one(&self, i: usize) -> bool {
        self.dense[i] == 1
    }

    /// Sorted indices of the one-entries.
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// Dense byte view (`0`/`1` per entry).
    pub fn dense(&self) -> &[u8] {
        &self.dense
    }

    /// `⟨σ, τ⟩`: number of shared one-entries (the paper's overlap `ℓ`).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn overlap(&self, other: &Signal) -> usize {
        assert_eq!(self.n(), other.n(), "signals must have equal length");
        // Merge-walk over the two sorted supports.
        let (a, b) = (&self.support, &other.support);
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Hamming distance to another signal.
    pub fn hamming_distance(&self, other: &Signal) -> usize {
        self.weight() + other.weight() - 2 * self.overlap(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_rng::{Mt19937_64, SeedSequence};

    #[test]
    fn random_signal_has_exact_weight() {
        let mut rng = Mt19937_64::new(1);
        for (n, k) in [(100, 0), (100, 1), (100, 50), (100, 100), (1, 1)] {
            let s = Signal::random(n, k, &mut rng);
            assert_eq!(s.weight(), k);
            assert_eq!(s.n(), n);
            assert_eq!(s.dense().iter().map(|&b| b as usize).sum::<usize>(), k);
        }
    }

    #[test]
    fn support_and_dense_agree() {
        let mut rng = Mt19937_64::new(2);
        let s = Signal::random(500, 40, &mut rng);
        for i in 0..500 {
            assert_eq!(s.is_one(i), s.support().contains(&i));
        }
    }

    #[test]
    fn from_support_sorts_input() {
        let s = Signal::from_support(10, vec![7, 1, 4]);
        assert_eq!(s.support(), &[1, 4, 7]);
        assert_eq!(s.get(4), 1);
        assert_eq!(s.get(0), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn from_support_rejects_duplicates() {
        let _ = Signal::from_support(10, vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_support_rejects_out_of_range() {
        let _ = Signal::from_support(4, vec![4]);
    }

    #[test]
    fn from_dense_round_trips() {
        let bits = [0u8, 1, 1, 0, 1];
        let s = Signal::from_dense(&bits);
        assert_eq!(s.support(), &[1, 2, 4]);
        assert_eq!(s.dense(), &bits);
    }

    #[test]
    #[should_panic(expected = "non-binary")]
    fn from_dense_rejects_non_binary() {
        let _ = Signal::from_dense(&[0, 2]);
    }

    #[test]
    fn fig1_signal() {
        // σ = (1,1,0,0,1,0,0) from the paper's Fig. 1.
        let s = Signal::from_dense(&[1, 1, 0, 0, 1, 0, 0]);
        assert_eq!(s.weight(), 3);
        assert_eq!(s.support(), &[0, 1, 4]);
    }

    #[test]
    fn overlap_cases() {
        let a = Signal::from_support(10, vec![1, 3, 5]);
        let b = Signal::from_support(10, vec![3, 5, 7]);
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(a.overlap(&a), 3);
        let empty = Signal::from_support(10, vec![]);
        assert_eq!(a.overlap(&empty), 0);
    }

    #[test]
    fn hamming_distance_is_symmetric_metric() {
        let a = Signal::from_support(10, vec![1, 3, 5]);
        let b = Signal::from_support(10, vec![3, 5, 7]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(b.hamming_distance(&a), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn uniformity_over_positions() {
        // Each index appears in the support with probability k/n.
        let node = SeedSequence::new(3);
        let (n, k, trials) = (50usize, 10usize, 20_000usize);
        let mut hits = vec![0u32; n];
        let mut rng = node.rng();
        for _ in 0..trials {
            for &i in Signal::random(n, k, &mut rng).support() {
                hits[i] += 1;
            }
        }
        let want = trials as f64 * k as f64 / n as f64;
        for (i, &h) in hits.iter().enumerate() {
            let dev = (h as f64 - want).abs() / want;
            assert!(dev < 0.1, "index {i}: {h} vs {want}");
        }
    }
}
