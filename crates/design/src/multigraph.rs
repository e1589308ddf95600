//! The user-facing design constructor.
//!
//! [`RandomRegularDesign`] wraps the two physical representations behind one
//! type and picks between them from a memory estimate: the expected number
//! of stored incidences is `m · n · (1 − (1−1/n)^Γ)` (≈ `0.39·n·m` at the
//! paper's `Γ = n/2`), and beyond [`AUTO_MATERIALIZE_LIMIT`] pairs the
//! streaming representation wins. A caller that needs one storage builds
//! the variant directly.

use pooled_rng::SeedSequence;

use crate::csr::CsrDesign;
use crate::streaming::StreamingDesign;
use crate::PoolingDesign;

/// Above this expected number of (entry, query) incidences,
/// [`RandomRegularDesign::sample_with`] streams instead of materializing
/// (≈1.6 GiB of CSR at 16 B/pair).
pub const AUTO_MATERIALIZE_LIMIT: u64 = 100_000_000;

/// The paper's random regular pooling design `G(n, m, Γ)` with `Γ = ⌊n/2⌋`
/// by default.
#[derive(Clone, Debug)]
pub enum RandomRegularDesign {
    /// Materialized CSR representation.
    Csr(CsrDesign),
    /// Seed-only streaming representation.
    Streaming(StreamingDesign),
}

impl RandomRegularDesign {
    /// Sample `G(n, m, Γ = ⌊n/2⌋)`, storage chosen by
    /// [`Self::sample_with`].
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn sample(n: usize, m: usize, seeds: &SeedSequence) -> Self {
        Self::sample_with(n, m, n / 2, seeds)
    }

    /// Sample with an explicit pool size: materialized while the
    /// [`expected_incidences`] stay within [`AUTO_MATERIALIZE_LIMIT`],
    /// streaming beyond.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn sample_with(n: usize, m: usize, gamma: usize, seeds: &SeedSequence) -> Self {
        assert!(n > 0, "design needs at least one entry");
        if expected_incidences(n, m, gamma) <= AUTO_MATERIALIZE_LIMIT {
            Self::Csr(CsrDesign::sample(n, m, gamma, seeds))
        } else {
            Self::Streaming(StreamingDesign::new(n, m, gamma, seeds))
        }
    }
}

/// Expected number of distinct (entry, query) incidences in `G(n, m, Γ)`.
pub fn expected_incidences(n: usize, m: usize, gamma: usize) -> u64 {
    let n_f = n as f64;
    let p_distinct = 1.0 - (1.0 - 1.0 / n_f).powi(gamma.min(i32::MAX as usize) as i32);
    (m as f64 * n_f * p_distinct).ceil() as u64
}

impl PoolingDesign for RandomRegularDesign {
    fn n(&self) -> usize {
        match self {
            Self::Csr(d) => d.n(),
            Self::Streaming(d) => d.n(),
        }
    }

    fn m(&self) -> usize {
        match self {
            Self::Csr(d) => d.m(),
            Self::Streaming(d) => d.m(),
        }
    }

    fn gamma(&self) -> usize {
        match self {
            Self::Csr(d) => d.gamma(),
            Self::Streaming(d) => d.gamma(),
        }
    }

    fn for_each_draw(&self, q: usize, f: &mut dyn FnMut(usize)) {
        match self {
            Self::Csr(d) => d.for_each_draw(q, f),
            Self::Streaming(d) => d.for_each_draw(q, f),
        }
    }

    fn for_each_distinct(&self, q: usize, f: &mut dyn FnMut(usize, u32)) {
        match self {
            Self::Csr(d) => d.for_each_distinct(q, f),
            Self::Streaming(d) => d.for_each_distinct(q, f),
        }
    }

    fn distinct_len(&self, q: usize) -> usize {
        match self {
            Self::Csr(d) => d.distinct_len(q),
            Self::Streaming(d) => d.distinct_len(q),
        }
    }

    fn as_csr(&self) -> Option<&CsrDesign> {
        match self {
            Self::Csr(c) => Some(c),
            Self::Streaming(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_gamma_is_half_n() {
        let d = RandomRegularDesign::sample(100, 5, &SeedSequence::new(1));
        assert_eq!(d.gamma(), 50);
    }

    #[test]
    fn small_designs_materialize() {
        let d = RandomRegularDesign::sample(1000, 100, &SeedSequence::new(1));
        assert!(d.as_csr().is_some());
    }

    #[test]
    fn huge_designs_stream() {
        // n=10⁶, m=20_000 ⇒ ≈ 7.9e9 expected incidences > limit.
        let d = RandomRegularDesign::sample_with(1_000_000, 20_000, 500_000, &SeedSequence::new(1));
        assert!(matches!(d, RandomRegularDesign::Streaming(_)));
        assert!(d.as_csr().is_none());
    }

    #[test]
    fn expected_incidences_formula() {
        // Γ = n/2 ⇒ fraction ≈ 1 − e^{−1/2} ≈ 0.3935.
        let n = 100_000;
        let est = expected_incidences(n, 1000, n / 2);
        let want = (1000.0 * n as f64 * 0.3935) as u64;
        let rel = (est as f64 - want as f64).abs() / want as f64;
        assert!(rel < 0.01, "est={est} want≈{want}");
    }

    #[test]
    fn odd_n_floors_gamma() {
        let d = RandomRegularDesign::sample(7, 3, &SeedSequence::new(4));
        assert_eq!(d.gamma(), 3);
    }
}
