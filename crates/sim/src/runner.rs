//! Convenience runner: spawn processes, execute to quiescence, collect
//! results and statistics.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use exsel_shm::{Ctx, Pid, Step};

use crate::policy::{PendingOp, Policy};
use crate::sched::SimMemory;

/// Builder for one simulated execution.
///
/// ```
/// use exsel_shm::RegAlloc;
/// use exsel_sim::{policy::RandomPolicy, SimBuilder};
///
/// let mut alloc = RegAlloc::new();
/// let bank = alloc.reserve(1);
/// let outcome = SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(42)))
///     .run(4, |ctx| ctx.write(bank.get(0), ctx.pid().0 as u64));
/// assert!(outcome.results.iter().all(Result::is_ok));
/// ```
pub struct SimBuilder {
    num_registers: usize,
    policy: Box<dyn Policy>,
    max_total_ops: u64,
    record_trace: bool,
    stack_size: usize,
}

impl SimBuilder {
    /// A new builder over `num_registers` registers scheduled by `policy`.
    #[must_use]
    pub fn new(num_registers: usize, policy: Box<dyn Policy>) -> Self {
        SimBuilder {
            num_registers,
            policy,
            max_total_ops: 50_000_000,
            record_trace: false,
            stack_size: 512 * 1024,
        }
    }

    /// Overrides the total-operation safety valve (default 50 million).
    /// Exceeding it makes [`SimBuilder::run`] panic with a diagnostic
    /// instead of hanging.
    #[must_use]
    pub fn max_total_ops(mut self, ops: u64) -> Self {
        self.max_total_ops = ops;
        self
    }

    /// Records the granted schedule in [`SimOutcome::trace`].
    #[must_use]
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Per-process thread stack size in bytes (default 512 KiB). Large
    /// process counts (the lower-bound experiments run thousands) may want
    /// this smaller.
    #[must_use]
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Runs `num_processes` copies of `body` (distinguished by
    /// `ctx.pid()`) to quiescence and collects the per-process results.
    ///
    /// # Panics
    ///
    /// Panics if any process panics (the panic is propagated after the
    /// remaining processes have been released) or if the operation budget
    /// is exhausted — which indicates a livelocked algorithm, since every
    /// algorithm in this stack is supposed to be wait-free or non-blocking.
    pub fn run<T, F>(self, num_processes: usize, body: F) -> SimOutcome<T>
    where
        T: Send,
        F: Fn(Ctx<'_>) -> Step<T> + Sync,
    {
        let mem = Arc::new(SimMemory::new(
            self.num_registers,
            num_processes,
            self.policy,
            self.max_total_ops,
            self.record_trace,
        ));
        let mut results: Vec<Option<Step<T>>> = (0..num_processes).map(|_| None).collect();
        let mut panic_payload = None;

        std::thread::scope(|s| {
            let handles: Vec<_> = (0..num_processes)
                .map(|p| {
                    let mem = Arc::clone(&mem);
                    let body = &body;
                    std::thread::Builder::new()
                        .name(format!("sim-p{p}"))
                        .stack_size(self.stack_size)
                        .spawn_scoped(s, move || {
                            let ctx = Ctx::new(mem.as_ref(), Pid(p));
                            let out = catch_unwind(AssertUnwindSafe(|| body(ctx)));
                            // Unblock the scheduler whether we returned or
                            // panicked; a process that panicked while
                            // holding a grant has already released it (ops
                            // complete before user code resumes).
                            mem.finish(Pid(p));
                            out
                        })
                        .expect("spawn simulated process")
                })
                .collect();
            for (p, h) in handles.into_iter().enumerate() {
                match h.join().expect("sim thread never detaches") {
                    Ok(res) => results[p] = Some(res),
                    Err(payload) => panic_payload = Some(payload),
                }
            }
        });

        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        assert!(
            !mem.budget_exhausted(),
            "simulation exceeded its operation budget of {} ops — livelocked algorithm?",
            self.max_total_ops
        );

        let steps: Vec<u64> = (0..num_processes)
            .map(|p| exsel_shm::Memory::steps(mem.as_ref(), Pid(p)))
            .collect();
        SimOutcome {
            results: results
                .into_iter()
                .map(|r| r.expect("result recorded"))
                .collect(),
            steps,
            crashed: mem.crashed_set(),
            total_ops: mem.total_ops(),
            trace: mem.trace(),
        }
    }
}

/// The result of one thread-backed execution ([`SimBuilder::run`]).
#[derive(Debug)]
pub struct SimOutcome<T> {
    /// Per-process results, indexed by pid. `Err(Crash)` means the
    /// policy crashed the process ([`SimOutcome::crashed`]).
    pub results: Vec<Step<T>>,
    /// Local steps taken by each process.
    pub steps: Vec<u64>,
    /// Processes crashed by the policy's `Action::Crash` decisions.
    pub crashed: Vec<Pid>,
    /// Total operations granted.
    pub total_ops: u64,
    /// The granted schedule, if tracing was enabled.
    pub trace: Option<Vec<PendingOp>>,
}

impl<T> SimOutcome<T> {
    /// The maximum local steps over all processes — the paper's worst-case
    /// step complexity of the execution.
    #[must_use]
    pub fn max_steps(&self) -> u64 {
        self.steps.iter().copied().max().unwrap_or(0)
    }

    /// Results of the processes that completed (did not crash).
    pub fn completed(&self) -> impl Iterator<Item = &T> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CrashStorm, RandomPolicy, RoundRobin, Solo};
    use exsel_shm::{RegAlloc, Word};

    #[test]
    fn deterministic_round_robin() {
        let run = || {
            let mut alloc = RegAlloc::new();
            let bank = alloc.reserve(2);
            SimBuilder::new(alloc.total(), Box::new(RoundRobin::new()))
                .record_trace(true)
                .run(3, |ctx| {
                    ctx.write(bank.get(0), ctx.pid().0 as u64)?;
                    let w = ctx.read(bank.get(0))?;
                    ctx.write(bank.get(1), w.expect_int() + 1)?;
                    ctx.read(bank.get(1))
                })
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace, b.trace, "same policy must replay identically");
        assert_eq!(
            a.results
                .iter()
                .map(|r| r.clone().unwrap())
                .collect::<Vec<_>>(),
            b.results
                .iter()
                .map(|r| r.clone().unwrap())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn deterministic_random_seeds() {
        let run = |seed| {
            let mut alloc = RegAlloc::new();
            let bank = alloc.reserve(1);
            SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(seed)))
                .record_trace(true)
                .run(4, |ctx| {
                    for _ in 0..5 {
                        ctx.write(bank.get(0), ctx.pid().0 as u64)?;
                        ctx.read(bank.get(0))?;
                    }
                    Ok(())
                })
        };
        assert_eq!(run(3).trace, run(3).trace);
        assert_ne!(run(3).trace, run(4).trace);
    }

    #[test]
    fn crashed_processes_report_err() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let policy = CrashStorm::new(Box::new(RoundRobin::new()), 9, 0.5, 2);
        let outcome = SimBuilder::new(alloc.total(), Box::new(policy)).run(4, |ctx| {
            for i in 0..20u64 {
                ctx.write(bank.get(0), i)?;
            }
            Ok(())
        });
        assert_eq!(outcome.crashed.len(), 2);
        for pid in &outcome.crashed {
            assert!(outcome.results[pid.0].is_err());
        }
        assert_eq!(outcome.completed().count(), 2);
    }

    #[test]
    fn solo_runs_hero_first() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let outcome = SimBuilder::new(alloc.total(), Box::new(Solo::new(Pid(2))))
            .record_trace(true)
            .run(3, |ctx| {
                for _ in 0..4 {
                    ctx.read(bank.get(0))?;
                }
                Ok(())
            });
        let trace = outcome.trace.unwrap();
        // The first 4 granted ops all belong to the hero.
        assert!(trace[..4].iter().all(|op| op.pid == Pid(2)));
    }

    #[test]
    #[should_panic(expected = "operation budget")]
    fn budget_exhaustion_panics() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        SimBuilder::new(alloc.total(), Box::new(RoundRobin::new()))
            .max_total_ops(100)
            .run(2, |ctx| -> exsel_shm::Step<()> {
                loop {
                    ctx.read(bank.get(0))?; // spin forever
                }
            });
    }

    #[test]
    fn single_process_runs_to_completion() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let outcome = SimBuilder::new(alloc.total(), Box::new(RoundRobin::new())).run(1, |ctx| {
            ctx.write(bank.get(0), 5u64)?;
            ctx.read(bank.get(0))
        });
        assert_eq!(outcome.results[0], Ok(Word::Int(5)));
        assert_eq!(outcome.max_steps(), 2);
        assert_eq!(outcome.total_ops, 2);
    }

    #[test]
    fn replaying_a_trace_reproduces_the_execution() {
        use crate::policy::Scripted;
        let program = |bank: exsel_shm::RegRange| {
            move |ctx: Ctx<'_>| {
                ctx.write(bank.get(0), ctx.pid().0 as u64)?;
                ctx.read(bank.get(0))
            }
        };
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let original = SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(99)))
            .record_trace(true)
            .run(3, program(bank));
        let replay = SimBuilder::new(
            alloc.total(),
            Box::new(Scripted::from_trace(original.trace.as_ref().unwrap())),
        )
        .record_trace(true)
        .run(3, program(bank));
        assert_eq!(original.trace, replay.trace);
        assert_eq!(
            original
                .results
                .iter()
                .map(|r| r.clone().unwrap())
                .collect::<Vec<_>>(),
            replay
                .results
                .iter()
                .map(|r| r.clone().unwrap())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn interleaving_is_real() {
        // Two processes each write-then-read the same register; under some
        // random seed, someone must observe the other's write.
        let mut saw_cross = false;
        for seed in 0..20 {
            let mut alloc = RegAlloc::new();
            let bank = alloc.reserve(1);
            let outcome =
                SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(seed))).run(2, |ctx| {
                    ctx.write(bank.get(0), ctx.pid().0 as u64)?;
                    ctx.read(bank.get(0))
                });
            for (p, r) in outcome.results.iter().enumerate() {
                if r.as_ref().unwrap().expect_int() != p as u64 {
                    saw_cross = true;
                }
            }
        }
        assert!(saw_cross, "random schedules never interleaved");
    }
}
