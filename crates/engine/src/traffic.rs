//! Deterministic traffic generation for load tests and benchmarks.
//!
//! A [`LoadProfile`] is a compact description of a traffic mix: instance
//! shape, design family, how many distinct design keys circulate (the
//! design-cache working set), which decoders are requested, and the
//! simulated query-execution cost drawn from a [`LatencyModel`]. Job `i`
//! of a profile is a pure function of `(profile, i)` — the same profile
//! replayed against 1 worker and `L` workers must produce bit-identical
//! result fingerprints, which is exactly how the determinism suite and
//! `engine_load` validate the engine.
//!
//! [`poisson_arrivals`] turns a rate into cumulative arrival times for
//! open-loop replay (arrivals don't wait for completions — queue depth
//! and shed rate become the observables, per the serving literature).

use pooled_design::factory::DesignKind;
use pooled_lab::latency::LatencyModel;
use pooled_rng::SeedSequence;

use crate::job::{DecoderKind, DesignSpec, JobSpec};

/// A reproducible traffic mix.
#[derive(Clone, Debug)]
pub struct LoadProfile {
    /// Number of entries per instance.
    pub n: usize,
    /// Signal weight.
    pub k: usize,
    /// Queries per instance.
    pub m: usize,
    /// Design family for every job.
    pub design_kind: DesignKind,
    /// Design density in thousandths (`500` = the paper's `c = 1/2`).
    pub c_milli: u32,
    /// How many distinct design seeds circulate. `1` makes every job
    /// share one cached design (hot cache); a large value defeats the
    /// cache (cold traffic).
    pub distinct_designs: u64,
    /// Requested decoders, assigned round-robin over the job index.
    pub decoders: Vec<DecoderKind>,
    /// Simulated query-execution cost per job, sampled in **microseconds**
    /// from this model (`None` = zero cost, pure-CPU traffic).
    pub query_cost: Option<LatencyModel>,
    /// Master seed; every job substream derives from it.
    pub seed: u64,
}

impl LoadProfile {
    /// A sensible serving mix: the paper's design at `c = 1/2`, classic
    /// MN traffic, one hot design, 2 ms fixed query cost.
    pub fn default_mix(n: usize, k: usize, m: usize, seed: u64) -> Self {
        Self {
            n,
            k,
            m,
            design_kind: DesignKind::RandomRegular,
            c_milli: 500,
            distinct_designs: 1,
            decoders: vec![DecoderKind::Mn],
            query_cost: Some(LatencyModel::Fixed(2000.0)),
            seed,
        }
    }

    /// Job `i` of this profile (pure function; see module docs).
    ///
    /// # Panics
    /// Panics if the profile has no decoders or no distinct designs.
    pub fn spec(&self, i: u64) -> JobSpec {
        self.jobs()(i)
    }

    /// The first `count` jobs of the profile.
    pub fn specs(&self, count: usize) -> Vec<JobSpec> {
        (0..count as u64).map(self.jobs()).collect()
    }

    /// The distinct design keys this profile circulates, in first-use
    /// order (job `i` uses key `i % distinct_designs`). This is the
    /// profile's cache working set — exactly what a node prewarms from
    /// on restart ([`crate::cache::DesignCache::prewarm`]) and what the
    /// cluster membership shards across nodes.
    pub fn design_keys(&self) -> Vec<crate::cache::DesignKey> {
        let job = self.jobs();
        (0..self.distinct_designs).map(|i| job(i).design_key()).collect()
    }

    /// Validate the profile and build its seed-tree root once; the
    /// returned function derives job `i` from that root.
    fn jobs(&self) -> impl Fn(u64) -> JobSpec + '_ {
        assert!(!self.decoders.is_empty(), "profile needs at least one decoder");
        assert!(self.distinct_designs > 0, "profile needs at least one design");
        let root = SeedSequence::new(self.seed);
        move |i| {
            let design_seed = root.child("design", i % self.distinct_designs).seed();
            let query_cost_micros = match &self.query_cost {
                None => 0,
                Some(model) => {
                    let mut rng = root.child("cost", i).rng();
                    model.sample(&mut rng).round().clamp(0.0, u32::MAX as f64) as u32
                }
            };
            JobSpec {
                id: i,
                n: self.n,
                k: self.k,
                m: self.m,
                design: DesignSpec {
                    kind: self.design_kind,
                    c_milli: self.c_milli,
                    seed: design_seed,
                },
                decoder: self.decoders[(i % self.decoders.len() as u64) as usize],
                seed: root.child("job", i).seed(),
                query_cost_micros,
            }
        }
    }
}

/// Cumulative arrival times (seconds) of a Poisson process at
/// `rate_per_sec`, for open-loop replay.
///
/// The cumulative clock uses compensated (Kahan) summation: a naive
/// `t += dt` loses the low bits of every tiny inter-arrival gap once `t`
/// grows large, so multi-million-arrival replays drifted measurably ahead
/// of the configured rate (each drop rounds in whichever direction the
/// current magnitude dictates, and the error compounds). Compensation
/// keeps the running sum within one ulp of the exact sum of gaps at any
/// horizon; the drawn gaps themselves are unchanged.
///
/// # Panics
/// Panics if the rate is not positive and finite.
pub fn poisson_arrivals(rate_per_sec: f64, count: usize, seeds: &SeedSequence) -> Vec<f64> {
    assert!(rate_per_sec > 0.0 && rate_per_sec.is_finite(), "need a positive arrival rate");
    let mut rng = seeds.child("arrivals", 0).rng();
    let mut t = 0.0f64;
    let mut compensation = 0.0f64;
    (0..count)
        .map(|_| {
            use pooled_rng::Rng64;
            let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
            let dt = -u.ln() / rate_per_sec;
            let y = dt - compensation;
            let next = t + y;
            compensation = (next - t) - y;
            t = next;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> LoadProfile {
        LoadProfile {
            distinct_designs: 3,
            decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
            query_cost: Some(LatencyModel::Uniform { lo: 100.0, hi: 300.0 }),
            ..LoadProfile::default_mix(500, 6, 120, 99)
        }
    }

    #[test]
    fn specs_are_reproducible() {
        let p = profile();
        assert_eq!(p.specs(20), p.specs(20));
        // And prefix-stable: extending the batch never perturbs earlier jobs.
        assert_eq!(&p.specs(30)[..20], &p.specs(20)[..]);
    }

    #[test]
    fn design_seeds_cycle_over_the_working_set() {
        let p = profile();
        let specs = p.specs(9);
        assert_eq!(specs[0].design.seed, specs[3].design.seed);
        assert_ne!(specs[0].design.seed, specs[1].design.seed);
        let distinct: std::collections::HashSet<u64> =
            specs.iter().map(|s| s.design.seed).collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn design_keys_enumerate_the_working_set() {
        let p = profile();
        let keys = p.design_keys();
        assert_eq!(keys.len(), 3);
        // Job i resolves to key i % distinct_designs, so the export is
        // exactly the set every spec draws from.
        for (i, s) in p.specs(9).iter().enumerate() {
            assert_eq!(s.design_key(), keys[i % 3]);
        }
    }

    #[test]
    fn decoders_round_robin() {
        let p = profile();
        let specs = p.specs(4);
        assert_eq!(specs[0].decoder, DecoderKind::Mn);
        assert_eq!(specs[1].decoder, DecoderKind::GeneralMn);
        assert_eq!(specs[2].decoder, DecoderKind::Mn);
    }

    #[test]
    fn query_costs_follow_the_model() {
        let p = profile();
        for s in p.specs(50) {
            assert!((100..=300).contains(&s.query_cost_micros), "{}", s.query_cost_micros);
        }
        let none = LoadProfile { query_cost: None, ..profile() };
        assert!(none.specs(10).iter().all(|s| s.query_cost_micros == 0));
    }

    #[test]
    fn specs_match_per_job_derivation() {
        let p = profile();
        let specs = p.specs(50);
        assert_eq!(specs, (0..50u64).map(|i| p.spec(i)).collect::<Vec<_>>());
    }

    #[test]
    fn poisson_clock_does_not_drift_over_a_long_horizon() {
        // Regression: naive `t += dt` accumulation drifts once t is large
        // relative to the gaps. Over 2M arrivals at 1e6/s the compensated
        // clock must land at count/rate up to sampling noise (the std-dev
        // of the sum of 2M Exp(1) gaps is sqrt(2M)/1e6 ≈ 1.4 ms), and the
        // mean gap over the *tail* half must match the rate as tightly as
        // over the head — drift showed up as a horizon-dependent rate.
        let seeds = SeedSequence::new(77);
        let rate = 1e6;
        let count = 2_000_000usize;
        let arrivals = poisson_arrivals(rate, count, &seeds);
        let expect = count as f64 / rate;
        let last = *arrivals.last().unwrap();
        assert!((last - expect).abs() < 0.01, "horizon {last}s vs expected {expect}s");
        let half = arrivals[count / 2];
        let head_rate = (count / 2) as f64 / half;
        let tail_rate = (count - count / 2) as f64 / (last - half);
        assert!(
            (head_rate / tail_rate - 1.0).abs() < 0.01,
            "rate drifted across the horizon: head {head_rate}/s vs tail {tail_rate}/s"
        );
        // The clock never runs backwards (ties are tolerated: a gap can
        // round to zero ulps at any horizon).
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_arrivals_are_increasing_at_roughly_the_rate() {
        let seeds = SeedSequence::new(4);
        let arrivals = poisson_arrivals(1000.0, 5000, &seeds);
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        let mean_gap = arrivals.last().unwrap() / 5000.0;
        assert!((mean_gap - 0.001).abs() < 0.0001, "mean gap {mean_gap}");
        // Reproducible.
        assert_eq!(arrivals, poisson_arrivals(1000.0, 5000, &seeds));
    }
}
