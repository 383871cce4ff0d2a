//! Reusable machine storage for allocation-free trial loops.
//!
//! A [`MachinePool`] owns one [`StepMachine`] per simulated process plus
//! the result and step buffers a trial writes into; it is how every
//! trial reaches the [`StepEngine`](crate::StepEngine). The pool's
//! machines are built **once** and re-initialized in place via
//! [`StepMachine::reset`] at the start of every
//! [`StepEngine::run_pool`](crate::StepEngine::run_pool) trial, so seed
//! sweeps and exploration walks box no machine per execution. After the
//! first trial has stretched every buffer to capacity, steady-state trials
//! perform no heap allocation at all (verified by the
//! `tests/alloc_free.rs` counting-allocator test for machines whose
//! `reset` is in-place, e.g. the splitter/majority renamers and
//! `Compete-For-Register`). A reset pool on a reused engine replays a
//! fresh pool on a fresh engine exactly (tested).
//!
//! ```
//! use exsel_shm::{Poll, RegAlloc, ShmOp, StepMachine, Word};
//! use exsel_sim::{policy::RoundRobin, MachinePool, StepEngine};
//!
//! /// Write own id, then read the register back.
//! struct WriteThenRead {
//!     reg: exsel_shm::RegId,
//!     id: u64,
//!     wrote: bool,
//! }
//! impl StepMachine for WriteThenRead {
//!     type Output = Word;
//!     fn op(&self) -> ShmOp {
//!         if self.wrote { ShmOp::Read(self.reg) } else { ShmOp::Write(self.reg, Word::Int(self.id)) }
//!     }
//!     fn advance(&mut self, input: &Word) -> Poll<Word> {
//!         if self.wrote { Poll::Ready(input.clone()) } else { self.wrote = true; Poll::Pending }
//!     }
//!     fn reset(&mut self, _pid: exsel_shm::Pid) {
//!         self.wrote = false;
//!     }
//! }
//!
//! let mut alloc = RegAlloc::new();
//! let bank = alloc.reserve(1);
//! let mut pool: MachinePool<WriteThenRead> = (0..3)
//!     .map(|p| WriteThenRead { reg: bank.get(0), id: p, wrote: false })
//!     .collect();
//! let mut engine = StepEngine::reusable(alloc.total());
//! let mut policy = RoundRobin::new();
//! for _trial in 0..10 {
//!     engine.run_pool(&mut policy, &mut pool);
//!     // Round-robin: W0 W1 W2 R0 R1 R2 — everyone reads process 2's write.
//!     for r in pool.results() {
//!         assert_eq!(r.as_ref().unwrap().as_ref().unwrap(), &Word::Int(2));
//!     }
//! }
//! ```

use exsel_shm::{Crash, Pid, StepMachine};

/// The engine-facing view of a pool's trial buffers: machines, result
/// slots and step counters, all indexed by pid.
type TrialBuffers<'a, M> = (
    &'a mut [M],
    &'a mut [Option<Result<<M as StepMachine>::Output, Crash>>],
    &'a mut [u64],
);

/// Machine storage re-driven across trials; see the module docs.
///
/// [`StepEngine::run_pool`]: crate::StepEngine::run_pool
#[derive(Debug)]
pub struct MachinePool<M: StepMachine> {
    machines: Vec<M>,
    results: Vec<Option<Result<M::Output, Crash>>>,
    steps: Vec<u64>,
}

impl<M: StepMachine> Default for MachinePool<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: StepMachine> MachinePool<M> {
    /// An empty pool; add processes with [`MachinePool::push`].
    #[must_use]
    pub fn new() -> Self {
        MachinePool {
            machines: Vec::new(),
            results: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// A pool over `machines` (machine `i` is process `Pid(i)`).
    #[must_use]
    pub fn from_machines(machines: Vec<M>) -> Self {
        MachinePool {
            machines,
            results: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Appends the machine of the next process. The machine must be in
    /// its just-constructed state (the pool resets it before every
    /// trial, including the first).
    pub fn push(&mut self, machine: M) {
        self.machines.push(machine);
    }

    /// Drops all machines (e.g. before re-targeting the pool at a
    /// different algorithm instance); buffer capacity is retained.
    pub fn clear(&mut self) {
        self.machines.clear();
        self.results.clear();
        self.steps.clear();
    }

    /// Number of pooled processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the pool has no machines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The pooled machines, indexed by pid.
    #[must_use]
    pub fn machines(&self) -> &[M] {
        &self.machines
    }

    /// Per-process results of the last trial, indexed by pid: `Ok` with
    /// the machine's output, or `Err(Crash)` for processes crashed by the
    /// policy or the operation budget (the engine's crash-cause
    /// iterators tell those apart).
    #[must_use]
    pub fn results(&self) -> &[Option<Result<M::Output, Crash>>] {
        &self.results
    }

    /// Local steps each process took in the last trial, indexed by pid.
    #[must_use]
    pub fn steps(&self) -> &[u64] {
        &self.steps
    }

    /// Outputs of the processes that completed the last trial, with
    /// their pids.
    pub fn completed(&self) -> impl Iterator<Item = (Pid, &M::Output)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(pid, r)| match r {
                Some(Ok(out)) => Some((Pid(pid), out)),
                _ => None,
            })
    }

    /// Re-initializes every machine and clears the trial buffers in
    /// place — no allocation once capacities are established.
    ///
    /// # Panics
    ///
    /// Panics if a pooled machine does not implement
    /// [`StepMachine::reset`].
    pub(crate) fn begin_trial(&mut self) {
        let n = self.machines.len();
        for (pid, machine) in self.machines.iter_mut().enumerate() {
            machine.reset(Pid(pid));
        }
        self.results.clear();
        for _ in 0..n {
            self.results.push(None);
        }
        self.steps.clear();
        self.steps.resize(n, 0);
    }

    /// The mutable trial buffers for the engine's grant loop.
    pub(crate) fn trial_buffers(&mut self) -> TrialBuffers<'_, M> {
        (&mut self.machines, &mut self.results, &mut self.steps)
    }
}

impl<M: StepMachine> FromIterator<M> for MachinePool<M> {
    fn from_iter<I: IntoIterator<Item = M>>(iter: I) -> Self {
        Self::from_machines(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RandomPolicy, RoundRobin};
    use crate::StepEngine;
    use exsel_shm::{Poll, RegAlloc, RegId, ShmOp, Word};

    /// A machine performing `rounds` write/read pairs on one register.
    struct Hammer {
        reg: RegId,
        id: u64,
        rounds: u64,
        done_ops: u64,
        last_read: Word,
    }

    impl StepMachine for Hammer {
        type Output = Word;
        fn op(&self) -> ShmOp {
            if self.done_ops.is_multiple_of(2) {
                ShmOp::Write(self.reg, Word::Int(self.id))
            } else {
                ShmOp::Read(self.reg)
            }
        }
        fn advance(&mut self, input: &Word) -> Poll<Word> {
            if !self.done_ops.is_multiple_of(2) {
                self.last_read = input.clone();
            }
            self.done_ops += 1;
            if self.done_ops == 2 * self.rounds {
                Poll::Ready(self.last_read.clone())
            } else {
                Poll::Pending
            }
        }
        fn reset(&mut self, pid: Pid) {
            self.id = pid.0 as u64;
            self.done_ops = 0;
            self.last_read = Word::Null;
        }
    }

    fn pool(reg: RegId, n: usize, rounds: u64) -> MachinePool<Hammer> {
        (0..n)
            .map(|p| Hammer {
                reg,
                id: p as u64,
                rounds,
                done_ops: 0,
                last_read: Word::Null,
            })
            .collect()
    }

    #[test]
    fn reset_pool_replays_a_fresh_pool_on_a_fresh_engine() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut engine = StepEngine::reusable(alloc.total()).record_trace(true);
        let mut reused = pool(bank.get(0), 4, 3);
        for seed in 0..6u64 {
            engine.run_pool(&mut RandomPolicy::new(seed), &mut reused);

            let mut fresh_engine = StepEngine::reusable(alloc.total()).record_trace(true);
            let mut fresh = pool(bank.get(0), 4, 3);
            fresh_engine.run_pool(&mut RandomPolicy::new(seed), &mut fresh);
            assert_eq!(engine.trace(), fresh_engine.trace(), "seed {seed}");
            assert_eq!(reused.steps(), fresh.steps(), "seed {seed}");
            assert_eq!(reused.results(), fresh.results(), "seed {seed}");
        }
    }

    #[test]
    fn pool_buffers_are_rebuilt_every_trial() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut engine = StepEngine::reusable(alloc.total());
        let mut pool = pool(bank.get(0), 3, 2);
        let mut policy = RoundRobin::new();
        engine.run_pool(&mut policy, &mut pool);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.results().len(), 3);
        assert_eq!(pool.completed().count(), 3);
        assert!(pool.steps().iter().all(|&s| s == 4));
        // A second trial starts from reset machines, not finished ones.
        engine.run_pool(&mut policy, &mut pool);
        assert_eq!(pool.completed().count(), 3);
    }

    #[test]
    fn clear_retargets_the_pool() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut p = pool(bank.get(0), 2, 1);
        assert_eq!(p.len(), 2);
        p.clear();
        assert!(p.is_empty());
        p.push(Hammer {
            reg: bank.get(0),
            id: 0,
            rounds: 1,
            done_ops: 0,
            last_read: Word::Null,
        });
        assert_eq!(p.len(), 1);
        assert_eq!(p.machines().len(), 1);
    }
}
