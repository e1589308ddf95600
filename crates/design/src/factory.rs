//! Uniform constructor over all pooling-design families.
//!
//! The design-ablation experiment sweeps the decoder over every family at
//! matched density (expected pool size `c·n`, expected entry degree `c·m`),
//! so it needs to treat designs interchangeably. [`DesignKind`] names the
//! family and [`AnyDesign`] is the dispatching [`PoolingDesign`].

use pooled_rng::SeedSequence;

use crate::bernoulli::BernoulliDesign;
use crate::csr::CsrDesign;
use crate::entry_regular::EntryRegularDesign;
use crate::noreplace::NoReplaceDesign;
use crate::PoolingDesign;

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
        let gamma = ((c * n as f64).round() as usize).clamp(1, n);
        match self {
            DesignKind::RandomRegular => {
                AnyDesign::RandomRegular(CsrDesign::sample(n, m, gamma, seeds))
            }
            DesignKind::NoReplace => {
                AnyDesign::NoReplace(NoReplaceDesign::sample(n, m, gamma, seeds))
            }
            DesignKind::Bernoulli => AnyDesign::Bernoulli(BernoulliDesign::sample(n, m, c, seeds)),
            DesignKind::EntryRegular => {
                let delta = EntryRegularDesign::matching_delta(m, c);
                AnyDesign::EntryRegular(EntryRegularDesign::sample(n, m, delta, seeds))
            }
        }
    }
}

/// A design of any family, dispatching [`PoolingDesign`] to the variant.
#[derive(Clone, Debug)]
pub enum AnyDesign {
    /// The paper's with-replacement regular design.
    RandomRegular(CsrDesign),
    /// Fixed-size pools without replacement.
    NoReplace(NoReplaceDesign),
    /// Independent Bernoulli membership.
    Bernoulli(BernoulliDesign),
    /// Exact per-entry degrees.
    EntryRegular(EntryRegularDesign),
}

impl AnyDesign {
    /// The family of this design.
    pub fn kind(&self) -> DesignKind {
        match self {
            AnyDesign::RandomRegular(_) => DesignKind::RandomRegular,
            AnyDesign::NoReplace(_) => DesignKind::NoReplace,
            AnyDesign::Bernoulli(_) => DesignKind::Bernoulli,
            AnyDesign::EntryRegular(_) => DesignKind::EntryRegular,
        }
    }

    /// The underlying CSR storage of whichever variant.
    pub fn csr(&self) -> &CsrDesign {
        match self {
            AnyDesign::RandomRegular(c) => c,
            AnyDesign::NoReplace(d) => d.csr(),
            AnyDesign::Bernoulli(d) => d.csr(),
            AnyDesign::EntryRegular(d) => d.csr(),
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $d:ident => $body:expr) => {
        match $self {
            AnyDesign::RandomRegular($d) => $body,
            AnyDesign::NoReplace($d) => $body,
            AnyDesign::Bernoulli($d) => $body,
            AnyDesign::EntryRegular($d) => $body,
        }
    };
}

impl PoolingDesign for AnyDesign {
    fn n(&self) -> usize {
        dispatch!(self, d => d.n())
    }

    fn m(&self) -> usize {
        dispatch!(self, d => d.m())
    }

    fn gamma(&self) -> usize {
        dispatch!(self, d => d.gamma())
    }

    fn for_each_draw(&self, q: usize, f: &mut dyn FnMut(usize)) {
        dispatch!(self, d => d.for_each_draw(q, f))
    }

    fn for_each_distinct(&self, q: usize, f: &mut dyn FnMut(usize, u32)) {
        dispatch!(self, d => d.for_each_distinct(q, f))
    }

    fn distinct_len(&self, q: usize) -> usize {
        dispatch!(self, d => d.distinct_len(q))
    }

    fn pool_len(&self, q: usize) -> usize {
        dispatch!(self, d => d.pool_len(q))
    }

    fn as_csr(&self) -> Option<&CsrDesign> {
        Some(self.csr())
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

    #[test]
    fn pool_len_totals_are_consistent_with_draw_iteration() {
        let seeds = SeedSequence::new(13);
        for kind in DesignKind::ALL {
            let d = kind.sample(80, 20, 0.4, &seeds);
            for q in 0..d.m() {
                let mut draws = 0usize;
                d.for_each_draw(q, &mut |_| draws += 1);
                assert_eq!(draws, d.pool_len(q), "{} query {q}", kind.name());
            }
        }
    }
}
