//! Uniform constructor over all pooling-design families.
//!
//! The design-ablation experiment sweeps the decoder over every family at
//! matched density (expected pool size `c·n`, expected entry degree `c·m`),
//! so it needs to treat designs interchangeably. [`DesignKind`] names the
//! family and samples it: each family is one sampling function that
//! returns a [`CsrDesign`], and [`AnyDesign`] is that CSR tagged with its
//! family and the family's `Γ`.

use pooled_rng::SeedSequence;

use crate::csr::CsrDesign;
use crate::{bernoulli, entry_regular, noreplace, PoolingDesign};

/// The pooling-design families the workspace implements.
///
/// `Hash` so the engine's design cache can key on the family directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// The paper's design: `Γ = c·n` draws per query, with replacement.
    RandomRegular,
    /// `Γ = c·n` distinct entries per query (no multi-edges).
    NoReplace,
    /// Independent membership with probability `c` (binomial pool sizes).
    Bernoulli,
    /// Exactly `Δ = c·m` draws per entry (configuration model).
    EntryRegular,
}

impl DesignKind {
    /// Every family, in presentation order.
    pub const ALL: [DesignKind; 4] = [
        DesignKind::RandomRegular,
        DesignKind::NoReplace,
        DesignKind::Bernoulli,
        DesignKind::EntryRegular,
    ];

    /// Stable identifier for CSV rows and manifests.
    pub fn name(&self) -> &'static str {
        match self {
            DesignKind::RandomRegular => "random_regular",
            DesignKind::NoReplace => "no_replace",
            DesignKind::Bernoulli => "bernoulli",
            DesignKind::EntryRegular => "entry_regular",
        }
    }

    /// Sample a design of this family with `m` queries over `n` entries at
    /// density `c` (the paper's choice is `c = 1/2`): expected pool size
    /// `c·n`, expected entry degree `c·m`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `m == 0`, or `c ∉ (0, 1]`.
    pub fn sample(&self, n: usize, m: usize, c: f64, seeds: &SeedSequence) -> AnyDesign {
        assert!(c > 0.0 && c <= 1.0, "density c={c} outside (0,1]");
        assert!(m > 0, "design needs at least one query");
        let gamma = self.gamma(n, m, c);
        let csr = match self {
            DesignKind::RandomRegular => CsrDesign::sample(n, m, gamma, seeds),
            DesignKind::NoReplace => noreplace::sample(n, m, gamma, seeds),
            DesignKind::Bernoulli => bernoulli::sample(n, m, c, seeds),
            DesignKind::EntryRegular => {
                entry_regular::sample(n, m, entry_regular::matching_delta(m, c), seeds)
            }
        };
        AnyDesign { csr, kind: *self, gamma }
    }

    /// The family's `Γ` at `(n, m, c)`, what [`AnyDesign`] reports: the
    /// pool size `⌊c·n⌉`, clamped to `1..=n`, of the random regular and
    /// without-replacement designs, which is also their CSR's `Γ`; the
    /// expected pool size `⌊c·n⌉` of the Bernoulli design; and the
    /// average pool size `⌊n·Δ/m⌋` of the entry-regular design, with
    /// `Δ` its [`entry_regular::matching_delta`].
    pub(crate) fn gamma(&self, n: usize, m: usize, c: f64) -> usize {
        match self {
            DesignKind::RandomRegular | DesignKind::NoReplace => {
                ((c * n as f64).round() as usize).max(1).min(n)
            }
            DesignKind::Bernoulli => (c * n as f64).round() as usize,
            DesignKind::EntryRegular => n * entry_regular::matching_delta(m, c) / m.max(1),
        }
    }
}

/// A design of any family: its [`CsrDesign`], tagged with the family and
/// the family's `Γ`. Every [`PoolingDesign`] method but `gamma` answers
/// from the CSR, whose recorded pool sizes are exact for every family.
#[derive(Clone, Debug)]
pub struct AnyDesign {
    csr: CsrDesign,
    kind: DesignKind,
    gamma: usize,
}

impl AnyDesign {
    /// Tag `csr`, a design of family `kind` sampled at density `c`, with
    /// the family's `Γ` (the durable tier's snapshot-reload path: the CSR
    /// was rebuilt from a sampled design's forward rows).
    pub fn new(kind: DesignKind, c: f64, csr: CsrDesign) -> Self {
        let gamma = kind.gamma(csr.n(), csr.m(), c);
        Self { csr, kind, gamma }
    }

    /// The family of this design.
    pub fn kind(&self) -> DesignKind {
        self.kind
    }

    /// The CSR storage behind this design.
    pub fn csr(&self) -> &CsrDesign {
        &self.csr
    }
}

impl PoolingDesign for AnyDesign {
    fn n(&self) -> usize {
        self.csr.n()
    }

    fn m(&self) -> usize {
        self.csr.m()
    }

    fn gamma(&self) -> usize {
        self.gamma
    }

    fn for_each_draw(&self, q: usize, f: &mut dyn FnMut(usize)) {
        self.csr.for_each_draw(q, f);
    }

    fn for_each_distinct(&self, q: usize, f: &mut dyn FnMut(usize, u32)) {
        self.csr.for_each_distinct(q, f);
    }

    fn distinct_len(&self, q: usize) -> usize {
        self.csr.distinct_len(q)
    }

    fn pool_len(&self, q: usize) -> usize {
        self.csr.pool_len(q)
    }

    fn as_csr(&self) -> Option<&CsrDesign> {
        Some(&self.csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_sample_at_matched_density() {
        let seeds = SeedSequence::new(11);
        for kind in DesignKind::ALL {
            let d = kind.sample(200, 50, 0.5, &seeds);
            assert_eq!(d.kind(), kind);
            assert_eq!(d.n(), 200);
            assert_eq!(d.m(), 50);
            // Total draws ≈ c·n·m within 10% for every family.
            let draws: usize = (0..d.m()).map(|q| d.pool_len(q)).sum();
            let want = 0.5 * 200.0 * 50.0;
            assert!(
                (draws as f64 - want).abs() / want < 0.1,
                "{}: {draws} draws vs {want}",
                kind.name()
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = DesignKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn csr_accessor_reaches_every_variant() {
        let seeds = SeedSequence::new(12);
        for kind in DesignKind::ALL {
            let d = kind.sample(50, 10, 0.5, &seeds);
            assert_eq!(d.csr().n(), 50);
        }
    }

    #[test]
    #[should_panic(expected = "outside (0,1]")]
    fn rejects_zero_density() {
        let _ = DesignKind::RandomRegular.sample(10, 5, 0.0, &SeedSequence::new(1));
    }

    fn assert_pool_lens_count_draws(d: &dyn PoolingDesign, what: &str) {
        for q in 0..d.m() {
            let mut draws = 0usize;
            d.for_each_draw(q, &mut |_| draws += 1);
            assert_eq!(draws, d.pool_len(q), "{what} query {q}");
        }
    }

    #[test]
    fn pool_len_totals_are_consistent_with_draw_iteration() {
        let seeds = SeedSequence::new(13);
        for kind in DesignKind::ALL {
            let d = kind.sample(80, 20, 0.4, &seeds);
            assert_pool_lens_count_draws(&d, kind.name());
        }
        // The CSR alone answers as its family does, also where pools vary
        // in size: at (700, 40, 0.01), n·Δ = 700 is no multiple of m.
        for kind in DesignKind::ALL {
            let d = kind.sample(700, 40, 0.01, &seeds);
            for q in 0..d.m() {
                assert_eq!(d.csr().pool_len(q), d.pool_len(q), "{} query {q}", kind.name());
            }
            assert_pool_lens_count_draws(d.csr(), kind.name());
        }
        // A bare CSR of unequal pools: Fig. 1's, and some with an empty one.
        let fig1 = [vec![0, 1, 3], vec![1, 1, 2], vec![0, 1, 4], vec![4, 5], vec![4, 6]];
        assert_pool_lens_count_draws(&CsrDesign::from_pools(7, &fig1), "Fig. 1");
        let unequal = [vec![2, 2, 2, 0], vec![], vec![1], vec![3, 1, 3, 3, 1]];
        assert_pool_lens_count_draws(&CsrDesign::from_pools(4, &unequal), "unequal");
    }
}
