//! Exhaustive interleaving explorer for the engine's concurrency
//! protocols (test only).
//!
//! A protocol is modelled as a `Copy` state and one step program per
//! thread, each step one atomic action: a critical section under one
//! lock, or one atomic operation. [`explore`] walks every interleaving
//! of the programs depth first and judges each final state. Three
//! models use it: the wake pipe's drain (`transport/reactor.rs`), the
//! route waker's drain (`transport/server.rs`) and the design cache's
//! single-flight election (`cache.rs`). Each reads the code's step order
//! from the const the code itself runs, so a reordered step fails its
//! model.

use std::fmt::Debug;

/// Where a thread's program goes after one step.
pub(crate) enum Flow {
    /// On to the next step.
    Next,
    /// Run the same step again (a loop such as "receive until empty").
    Again,
    /// Continue at this step index (a branch or a retry).
    Goto(usize),
    /// The thread's program ends here.
    Done,
    /// The step cannot run in this state: the thread is parked. The
    /// explorer discards whatever the step wrote to the state.
    Parked,
}

/// Walk every interleaving of `programs` (thread `t` runs
/// `programs[t]`) from each state in `starts`. `step` applies one step
/// of thread `t` to the state and says where that thread goes next;
/// `check` judges each final state. A state in which every unfinished
/// thread is parked is a deadlock and fails as well. Returns the number
/// of complete interleavings, or the first failing one as `(thread,
/// step)` pairs.
pub(crate) fn explore<M: Copy, S: Copy + Debug, const N: usize>(
    starts: &[M],
    programs: [&[S]; N],
    step: impl Fn(&mut M, usize, S) -> Flow,
    check: impl Fn(&M) -> Result<(), &'static str>,
) -> Result<usize, String> {
    struct Walk<'a, S, F, C, const N: usize> {
        programs: [&'a [S]; N],
        step: F,
        check: C,
        trace: Vec<(usize, S)>,
    }

    impl<S: Copy + Debug, F, C, const N: usize> Walk<'_, S, F, C, N> {
        fn walk<M: Copy>(&mut self, m: M, pcs: [usize; N]) -> Result<usize, String>
        where
            F: Fn(&mut M, usize, S) -> Flow,
            C: Fn(&M) -> Result<(), &'static str>,
        {
            let mut walked = 0;
            let mut unfinished = false;
            for t in 0..N {
                let Some(&s) = self.programs[t].get(pcs[t]) else { continue };
                unfinished = true;
                let mut next = m;
                let mut next_pcs = pcs;
                match (self.step)(&mut next, t, s) {
                    Flow::Next => next_pcs[t] += 1,
                    Flow::Again => {}
                    Flow::Goto(pc) => next_pcs[t] = pc,
                    Flow::Done => next_pcs[t] = usize::MAX,
                    Flow::Parked => continue,
                }
                self.trace.push((t, s));
                walked += self.walk(next, next_pcs)?;
                self.trace.pop();
            }
            if walked > 0 {
                return Ok(walked);
            }
            let verdict = if unfinished {
                Err("every unfinished thread is parked")
            } else {
                (self.check)(&m)
            };
            verdict.map_err(|why| format!("{why}: {:?}", self.trace))?;
            Ok(1)
        }
    }

    let mut walk = Walk { programs, step, check, trace: Vec::new() };
    let mut walked = 0;
    for &start in starts {
        walked += walk.walk(start, [0; N])?;
    }
    Ok(walked)
}
