//! Seeded input generators: instance shapes, per-workload job specs,
//! Zipf key popularity and Poisson arrival schedules. Every input is a
//! pure function of the benchmark seed and the job index.

use pooled_design::factory::DesignKind;
use pooled_engine::{DecoderKind, DesignKey, DesignSpec, JobSpec, Membership};
use pooled_rng::{Rng64, SeedSequence};
use pooled_theory::thresholds::{k_of, m_mn_finite};

/// Density of every design: the paper's `c = 1/2`.
const C_MILLI: u32 = 500;

/// One instance shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub n: usize,
    pub k: usize,
    pub m: usize,
}

impl Shape {
    /// The paper's regime: `k = n^θ` and `m = ⌈1.5·m_MN⌉`, with the
    /// finite-size correction of the §V remark.
    pub fn paper(n: usize, theta: f64) -> Self {
        Self { n, k: k_of(n, theta), m: (1.5 * m_mn_finite(n, theta)).ceil() as usize }
    }

    pub fn key(&self, kind: DesignKind, seed: u64) -> DesignKey {
        DesignKey { n: self.n, m: self.m, kind, c_milli: C_MILLI, seed }
    }

    fn spec(&self, id: u64, key: &DesignKey, decoder: DecoderKind, seed: u64) -> JobSpec {
        JobSpec {
            id,
            n: self.n,
            k: self.k,
            m: self.m,
            design: DesignSpec { kind: key.kind, c_milli: key.c_milli, seed: key.seed },
            decoder,
            seed,
            // CPU-bound: no simulated query sleep anywhere.
            query_cost_micros: 0,
        }
    }
}

/// `single_large`: one large instance, the paper's design, classic MN.
pub fn single_large_shape() -> Shape {
    Shape::paper(10_000, 0.3)
}

/// `cluster_tcp`: many small tenants.
pub const CLUSTER_SHAPE: Shape = Shape { n: 1000, k: 8, m: 334 };

/// `cold_churn`: mid-size instances over a churning design working set.
pub fn cold_churn_shape() -> Shape {
    Shape::paper(4000, 0.3)
}

/// Nodes behind `cluster_tcp`'s router (ids `0..CLUSTER_NODES`).
pub const CLUSTER_NODES: u64 = 2;
/// Designs in `cluster_tcp`'s working set.
pub const CLUSTER_DESIGNS: u64 = 8;
/// Designs in `cold_churn`'s working set (12 per family).
pub const CHURN_DESIGNS: usize = 48;
/// Length of `cold_churn`'s key order; job `i` uses slot `i mod` this.
pub const CHURN_CYCLE: usize = 1024;
/// `cold_churn`'s decoders, assigned round-robin by job index.
pub const CHURN_DECODERS: [DecoderKind; 3] =
    [DecoderKind::Mn, DecoderKind::GeneralMn, DecoderKind::ThresholdMn];

/// Job specs of one workload, derived from the benchmark seed.
pub struct SpecGen {
    root: SeedSequence,
    shape: Shape,
    keys: Vec<DesignKey>,
    pick: Pick,
}

enum Pick {
    /// Every job on the single design.
    Single,
    /// A uniform draw over the working set.
    Uniform,
    /// Keys in a seeded order with exact Zipf frequencies (rank 0 most
    /// popular), and round-robin decoders.
    Churn(Vec<usize>),
}

impl SpecGen {
    pub fn single_large(seed: u64) -> Self {
        let root = SeedSequence::new(seed).child("single_large", 0);
        let shape = single_large_shape();
        let keys = vec![shape.key(DesignKind::RandomRegular, root.child("design", 0).seed())];
        Self { root, shape, keys, pick: Pick::Single }
    }

    /// The working set holds the first designs, in seed order, that
    /// rendezvous hashing places evenly: half on each node. Otherwise the
    /// seed would decide how unevenly the nodes are loaded, and that
    /// would swamp the transport costs this workload exists to show.
    pub fn cluster_tcp(seed: u64) -> Self {
        let root = SeedSequence::new(seed).child("cluster_tcp", 0);
        let shape = CLUSTER_SHAPE;
        let placement = Membership::new((0..CLUSTER_NODES).collect());
        let per_node = CLUSTER_DESIGNS / CLUSTER_NODES;
        let mut placed = vec![0; CLUSTER_NODES as usize];
        let keys = (0..)
            .map(|d| shape.key(DesignKind::RandomRegular, root.child("design", d).seed()))
            .filter(|key| {
                let owner = placement.owner_index(key);
                placed[owner] += 1;
                placed[owner] <= per_node
            })
            .take(CLUSTER_DESIGNS as usize)
            .collect();
        Self { root, shape, keys, pick: Pick::Uniform }
    }

    /// Rank `r` of the working set belongs to family `r mod 4`, so every
    /// seed spreads popularity over the families the same way and only
    /// the design seeds change.
    pub fn cold_churn(seed: u64) -> Self {
        let root = SeedSequence::new(seed).child("cold_churn", 0);
        let shape = cold_churn_shape();
        let keys = (0..CHURN_DESIGNS)
            .map(|r| {
                let kind = DesignKind::ALL[r % DesignKind::ALL.len()];
                shape.key(kind, root.child("design", r as u64).seed())
            })
            .collect();
        let order = zipf_schedule(CHURN_DESIGNS, 1.0, CHURN_CYCLE, &root.child("zipf", 0));
        Self { root, shape, keys, pick: Pick::Churn(order) }
    }

    /// The working set, most popular first for `cold_churn`.
    pub fn keys(&self) -> &[DesignKey] {
        &self.keys
    }

    /// Job `i`.
    pub fn spec(&self, i: u64) -> JobSpec {
        let job_seed = self.root.child("job", i).seed();
        let (key, decoder) = match &self.pick {
            Pick::Single => (&self.keys[0], DecoderKind::Mn),
            Pick::Uniform => {
                let d = self.root.child("pick", i).rng().index(self.keys.len());
                (&self.keys[d], DecoderKind::Mn)
            }
            Pick::Churn(order) => {
                let r = order[(i % order.len() as u64) as usize];
                (&self.keys[r], CHURN_DECODERS[(i % CHURN_DECODERS.len() as u64) as usize])
            }
        };
        self.shape.spec(i, key, decoder, job_seed)
    }
}

/// A seeded order of `len` ranks over `0..n` in which rank `r` appears
/// in proportion to `(r + 1)^-s` (largest-remainder rounding). Exact
/// frequencies instead of independent draws keep the hit rate, and so
/// the cost of a run, from drifting from seed to seed; the seed still
/// decides the order, which decides what the LRU cache keeps.
pub fn zipf_schedule(n: usize, s: f64, len: usize, seeds: &SeedSequence) -> Vec<usize> {
    assert!(n > 0 && len > 0, "need at least one rank and one slot");
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let ideal: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (ideal[a] - ideal[a].floor(), ideal[b] - ideal[b].floor());
        rb.partial_cmp(&ra).expect("finite weights").then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    let mut order: Vec<usize> =
        counts.iter().enumerate().flat_map(|(r, &c)| std::iter::repeat_n(r, c)).collect();
    let mut rng = seeds.rng();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// Due times (seconds from the start) of a Poisson process at
/// `rate_per_sec`, every arrival before `horizon_secs`.
pub fn poisson_schedule(rate_per_sec: f64, horizon_secs: f64, seed: u64) -> Vec<f64> {
    let seeds = SeedSequence::new(seed).child("schedule", 0);
    let expected = (rate_per_sec * horizon_secs) as usize;
    // Ten standard deviations of headroom covers every arrival before
    // the horizon; the prefix is seed-stable, so over-drawing is harmless.
    let count = expected + 10 * ((expected as f64).sqrt() as usize) + 16;
    let mut due = pooled_engine::poisson_arrivals(rate_per_sec, count, &seeds);
    due.retain(|&t| t < horizon_secs);
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_paper_regime() {
        assert_eq!(single_large_shape(), Shape { n: 10_000, k: 16, m: 862 });
        let churn = cold_churn_shape();
        assert_eq!((churn.n, churn.k), (4000, 12));
    }

    #[test]
    fn spec_generators_are_seed_deterministic() {
        for make in [SpecGen::single_large, SpecGen::cluster_tcp, SpecGen::cold_churn] {
            let (a, b, other) = (make(7), make(7), make(8));
            let specs = |g: &SpecGen| (0..200).map(|i| g.spec(i)).collect::<Vec<_>>();
            assert_eq!(specs(&a), specs(&b));
            assert_eq!(a.keys(), b.keys());
            assert_ne!(specs(&a), specs(&other));
            assert!(specs(&a).iter().all(|s| s.query_cost_micros == 0 && s.is_feasible()));
        }
    }

    #[test]
    fn cluster_designs_split_evenly_over_the_nodes() {
        let placement = Membership::new((0..CLUSTER_NODES).collect());
        for seed in 0..20 {
            let g = SpecGen::cluster_tcp(seed);
            assert_eq!(g.keys().len(), CLUSTER_DESIGNS as usize);
            let on_first = g.keys().iter().filter(|k| placement.owner_index(k) == 0).count();
            assert_eq!(on_first as u64, CLUSTER_DESIGNS / CLUSTER_NODES, "seed {seed}");
        }
    }

    #[test]
    fn churn_mixes_families_and_decoders() {
        let g = SpecGen::cold_churn(3);
        let specs: Vec<JobSpec> = (0..600).map(|i| g.spec(i)).collect();
        for kind in DesignKind::ALL {
            assert!(specs.iter().any(|s| s.design.kind == kind));
        }
        assert_eq!(specs[4].decoder, CHURN_DECODERS[1]);
        let distinct: std::collections::HashSet<u64> =
            specs.iter().map(|s| s.design.seed).collect();
        assert!(distinct.len() > 16, "the working set must exceed the cache");
    }

    #[test]
    fn zipf_schedule_is_seed_deterministic_with_exact_frequencies() {
        let order = |seed| zipf_schedule(48, 1.0, 1024, &SeedSequence::new(seed));
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let o = order(1);
        assert_eq!(o.len(), 1024);
        let count = |r| o.iter().filter(|&&x| x == r).count();
        // Zipf(1) over 48 ranks: rank 0 takes 1/H_48 of the slots, about
        // 230 of 1024, and twice as many as rank 1.
        assert_eq!(count(0), 230);
        assert_eq!(count(1), 115);
        assert!(count(47) >= 4);
        let mut sorted_a = order(1);
        let mut sorted_b = order(2);
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(sorted_a, sorted_b, "every seed has the same frequencies");
    }

    #[test]
    fn poisson_schedule_is_seed_deterministic() {
        let a = poisson_schedule(2000.0, 2.0, 5);
        assert_eq!(a, poisson_schedule(2000.0, 2.0, 5));
        assert_ne!(a, poisson_schedule(2000.0, 2.0, 6));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t < 2.0));
        assert!((3600..4400).contains(&a.len()), "{} arrivals", a.len());
        // A longer horizon extends the same schedule.
        assert_eq!(&poisson_schedule(2000.0, 3.0, 5)[..a.len()], &a[..]);
    }
}
