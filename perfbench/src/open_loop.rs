//! The open-loop load generator: every request is sent at its due time,
//! whether or not earlier ones have finished, and its latency counts from
//! when it was due. A generator that falls behind (a stall, a slow poll)
//! therefore shows in the latencies of the requests it delayed.

use std::time::{Duration, Instant};

use pooled_engine::{JobResult, JobSpec, Router};

use crate::phase::{secs, Completion};

/// Longest the generator sleeps before it looks for completions again.
const POLL_TICK: Duration = Duration::from_micros(100);
/// How long the generator waits for stragglers after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What the generator drives: non-blocking submit and poll.
pub trait Target {
    fn submit(&mut self, spec: JobSpec);
    fn poll(&mut self) -> Option<JobResult>;
    fn outstanding(&self) -> usize;
}

impl Target for Router {
    fn submit(&mut self, spec: JobSpec) {
        Router::submit(self, spec);
    }

    fn poll(&mut self) -> Option<JobResult> {
        Router::poll(self)
    }

    fn outstanding(&self) -> usize {
        Router::outstanding(self)
    }
}

/// What one open-loop run observed.
pub struct Driven {
    /// Job `i` is `specs[i]`, with id `i`.
    pub completions: Vec<Completion>,
    /// Per send: how late (µs) it left after its due time.
    pub late_us: Vec<f64>,
}

/// Send `specs[i]` at `t0 + schedule[i]` seconds, sleeping (never
/// spinning) in between and collecting completions at least every
/// [`POLL_TICK`]; then wait up to [`DRAIN_TIMEOUT`] for the rest.
/// `before_send(i)` runs once job `i` is due and before it is sent; the
/// benchmark passes a no-op, tests inject generator stalls with it.
pub fn drive(
    target: &mut impl Target,
    specs: &[JobSpec],
    schedule: &[f64],
    t0: Instant,
    mut before_send: impl FnMut(usize),
) -> Driven {
    let mut due = Vec::with_capacity(specs.len());
    let mut sent = Vec::with_capacity(specs.len());
    let mut late_us = Vec::with_capacity(specs.len());
    let mut completions = Vec::with_capacity(specs.len());
    let drain = |target: &mut dyn Target, due: &[Instant], sent: &[Instant], out: &mut Vec<_>| {
        let mut any = false;
        while let Some(result) = target.poll() {
            let i = result.id as usize;
            let observed = Instant::now();
            out.push(Completion { start: due[i], sent: sent[i], observed, result });
            any = true;
        }
        any
    };
    for (i, (spec, &at)) in specs.iter().zip(schedule).enumerate() {
        let due_at = t0 + secs(at);
        loop {
            drain(target, &due, &sent, &mut completions);
            let now = Instant::now();
            if now >= due_at {
                break;
            }
            std::thread::sleep((due_at - now).min(POLL_TICK));
        }
        before_send(i);
        let now = Instant::now();
        late_us.push(now.duration_since(due_at).as_secs_f64() * 1e6);
        due.push(due_at);
        sent.push(now);
        target.submit(*spec);
    }
    let give_up = Instant::now() + DRAIN_TIMEOUT;
    while target.outstanding() > 0 && Instant::now() < give_up {
        if !drain(target, &due, &sent, &mut completions) {
            std::thread::sleep(POLL_TICK);
        }
    }
    Driven { completions, late_us }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SpecGen;
    use std::collections::VecDeque;

    /// Answers every job the moment it is submitted.
    #[derive(Default)]
    struct Instant0 {
        done: VecDeque<JobResult>,
    }

    impl Target for Instant0 {
        fn submit(&mut self, spec: JobSpec) {
            self.done.push_back(JobResult {
                id: spec.id,
                decoder: spec.decoder,
                exact: true,
                hits: spec.k as u32,
                weight: spec.k as u32,
                support_digest: 0,
                score_digest: 0,
                decode_micros: 0,
                queue_micros: 0,
                total_micros: 0,
                worker: 0,
            });
        }

        fn poll(&mut self) -> Option<JobResult> {
            self.done.pop_front()
        }

        fn outstanding(&self) -> usize {
            self.done.len()
        }
    }

    #[test]
    fn an_injected_generator_stall_shows_in_later_latencies() {
        const STALL_MS: u64 = 40;
        let gen = SpecGen::cluster_tcp(1);
        let specs: Vec<JobSpec> = (0..20).map(|i| gen.spec(i)).collect();
        // One request due every millisecond; the generator stalls before
        // sending request 5.
        let schedule: Vec<f64> = (0..20).map(|i| i as f64 * 1e-3).collect();
        let mut target = Instant0::default();
        let stall = |i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(STALL_MS));
            }
        };
        let run = drive(&mut target, &specs, &schedule, Instant::now(), stall);
        assert_eq!(run.completions.len(), 20);
        let latency_ms = |id: u64| {
            let c = run.completions.iter().find(|c| c.result.id == id).expect("completed");
            c.latency_us() / 1e3
        };
        // Request 5 left the full stall late, and every request due during
        // the stall carries what was left of it when it came due.
        assert!(run.late_us[5] >= STALL_MS as f64 * 1e3);
        for id in 5..20u64 {
            let owed = (5 + STALL_MS - id) as f64;
            assert!(latency_ms(id) >= owed, "request {id}: {} ms < {owed} ms", latency_ms(id));
        }
        // Requests sent before the stall are untouched by it.
        assert!((0..5).all(|id| latency_ms(id) < STALL_MS as f64 / 2.0));
    }
}
