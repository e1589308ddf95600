//! Output check: every result (or a seeded sample, when checking all of
//! them would cost more than the budget) must carry the fingerprint a
//! direct `worker::process_job` call gives on the same spec.

use std::collections::HashMap;
use std::sync::Arc;

use pooled_design::factory::AnyDesign;
use pooled_engine::worker::{process_job, WorkerScratch};
use pooled_engine::{DesignKey, JobResult, JobSpec};
use pooled_rng::{Rng64, SeedSequence};

use crate::phase::{Completion, Phase};
use crate::probes::one_thread;

/// Designs sampled on demand. Holds a few at a time, so walking a large
/// working set key by key does not keep it all resident.
#[derive(Default)]
pub struct DesignBank {
    designs: HashMap<DesignKey, Arc<AnyDesign>>,
}

impl DesignBank {
    const CAPACITY: usize = 4;

    pub fn get(&mut self, key: &DesignKey) -> Arc<AnyDesign> {
        if !self.designs.contains_key(key) && self.designs.len() >= Self::CAPACITY {
            self.designs.clear();
        }
        Arc::clone(self.designs.entry(*key).or_insert_with(|| Arc::new(key.sample())))
    }
}

/// What the check found.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckOutcome {
    pub checked: usize,
    pub mismatches: usize,
    /// Results whose decoder panicked and was contained.
    pub poisoned: usize,
}

/// Indices of the completions to check: all of them when their summed
/// service time fits `budget_s`, else a seeded sample that does.
pub fn select(completions: &[Completion], budget_s: f64, seed: u64) -> Vec<usize> {
    let n = completions.len();
    let cost_s: f64 = completions.iter().map(|c| c.service_us()).sum::<f64>() / 1e6;
    if cost_s <= budget_s {
        return (0..n).collect();
    }
    let per_job = cost_s / n as f64;
    let take = ((budget_s / per_job) as usize).clamp(1, n);
    // Partial Fisher-Yates: the first `take` slots are a uniform sample.
    let mut rng = SeedSequence::new(seed).child("check", 0).rng();
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..take {
        let j = i + rng.index(n - i);
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx.sort_unstable();
    idx
}

/// Check `phase`'s results against direct `process_job` calls.
pub fn verify(phase: &Phase, budget_s: f64, seed: u64, bank: &mut DesignBank) -> CheckOutcome {
    let mut picked: Vec<JobSpec> = select(&phase.completions, budget_s, seed)
        .into_iter()
        .map(|i| phase.gen.spec(phase.completions[i].result.id))
        .collect();
    // Key by key, so each design is sampled once.
    picked.sort_by_key(|s| (s.design.seed, s.id));
    let results: HashMap<u64, JobResult> =
        phase.completions.iter().map(|c| (c.result.id, c.result)).collect();
    let mut outcome = CheckOutcome { checked: picked.len(), ..CheckOutcome::default() };
    outcome.poisoned = phase.completions.iter().filter(|c| c.result.is_decode_poisoned()).count();
    one_thread(|| {
        let mut scratch = WorkerScratch::new(0);
        for spec in picked {
            let got = &results[&spec.id];
            let design = bank.get(&spec.design_key());
            let want = process_job(&spec, &design, &mut scratch);
            if want.fingerprint() != got.fingerprint() {
                outcome.mismatches += 1;
            }
        }
    });
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_engine::{DecoderKind, JobResult};
    use std::time::Instant;

    fn completions(n: usize, service_us: u64) -> Vec<Completion> {
        let now = Instant::now();
        (0..n as u64)
            .map(|id| Completion {
                start: now,
                sent: now,
                observed: now,
                result: JobResult {
                    id,
                    decoder: DecoderKind::Mn,
                    exact: true,
                    hits: 1,
                    weight: 1,
                    support_digest: 0,
                    score_digest: 0,
                    decode_micros: 0,
                    queue_micros: 0,
                    total_micros: service_us,
                    worker: 0,
                },
            })
            .collect()
    }

    #[test]
    fn checks_everything_within_budget_and_a_seeded_sample_beyond() {
        let c = completions(100, 10_000); // 1 s of service in total
        assert_eq!(select(&c, 2.0, 1), (0..100).collect::<Vec<_>>());
        let sample = select(&c, 0.25, 1);
        assert_eq!(sample.len(), 25);
        assert_eq!(sample, select(&c, 0.25, 1));
        assert_ne!(sample, select(&c, 0.25, 2));
        assert!(sample.windows(2).all(|w| w[0] < w[1]));
    }
}
