//! The lock-step scheduler and its `Memory` implementation.

use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;

use exsel_shm::{Crash, Memory, OpKind, Pid, RegId, Step, Word};

use crate::policy::{Action, PendingOp, Policy};

/// Why [`SimMemory`] crashed a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashCause {
    /// The policy decided [`Action::Crash`].
    Adversary,
    /// The execution exceeded its operation budget and all live
    /// processes were crashed to terminate the run.
    Budget,
}

/// Shared memory whose every access is granted by a [`Policy`].
///
/// Each process runs on its own thread; an access parks the thread until
/// the policy grants it (or crashes the process). The policy is consulted
/// only when **all** live processes have an access pending ("lock-step"),
/// making executions deterministic given the policy.
///
/// Prefer driving this through [`crate::SimBuilder`], which handles thread
/// spawning, registration and result collection.
pub struct SimMemory {
    state: Mutex<SimState>,
    cv: Condvar,
}

struct SimState {
    regs: Vec<Word>,
    /// Live processes: registered, neither finished nor crashed.
    live: Vec<bool>,
    live_count: usize,
    /// Pending operations keyed by pid.
    pending: BTreeMap<usize, (OpKind, RegId)>,
    /// The pid currently allowed to perform its operation, if any.
    granted: Option<usize>,
    crashed: Vec<Option<CrashCause>>,
    steps: Vec<u64>,
    policy: Box<dyn Policy>,
    total_ops: u64,
    max_total_ops: u64,
    /// Set when the op budget is blown: everyone gets crashed so the run
    /// terminates and the runner can report the overflow.
    budget_exhausted: bool,
    trace: Option<Vec<PendingOp>>,
}

impl SimMemory {
    /// Creates a simulated memory with `num_registers` registers for
    /// `num_processes` processes, scheduled by `policy`.
    ///
    /// `max_total_ops` is a safety valve: if the execution exceeds it, all
    /// processes are crashed and [`SimMemory::budget_exhausted`] reports
    /// true (the [`crate::SimBuilder`] runner turns that into a panic).
    #[must_use]
    pub fn new(
        num_registers: usize,
        num_processes: usize,
        policy: Box<dyn Policy>,
        max_total_ops: u64,
        record_trace: bool,
    ) -> Self {
        SimMemory {
            state: Mutex::new(SimState {
                regs: vec![Word::Null; num_registers],
                live: vec![true; num_processes],
                live_count: num_processes,
                pending: BTreeMap::new(),
                granted: None,
                crashed: vec![None; num_processes],
                steps: vec![0; num_processes],
                policy,
                total_ops: 0,
                max_total_ops,
                budget_exhausted: false,
                trace: record_trace.then(Vec::new),
            }),
            cv: Condvar::new(),
        }
    }

    /// Marks a process finished (its closure returned). Called by the
    /// runner; unblocks the scheduler for the remaining processes.
    pub fn finish(&self, pid: Pid) {
        let mut st = self.state.lock();
        if st.live[pid.0] {
            st.live[pid.0] = false;
            st.live_count -= 1;
        }
        st.pending.remove(&pid.0);
        Self::dispatch(&mut st);
        drop(st);
        self.cv.notify_all();
    }

    /// Whether the run exceeded its operation budget.
    #[must_use]
    pub fn budget_exhausted(&self) -> bool {
        self.state.lock().budget_exhausted
    }

    /// Total operations granted so far.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.state.lock().total_ops
    }

    /// Which processes were crashed by the policy's `Action::Crash`
    /// decisions, not by an exhausted operation budget.
    #[must_use]
    pub fn crashed_set(&self) -> Vec<Pid> {
        let st = self.state.lock();
        st.crashed
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c == Some(CrashCause::Adversary)).then_some(Pid(i)))
            .collect()
    }

    /// The recorded schedule (granted operations in order), if tracing was
    /// enabled.
    #[must_use]
    pub fn trace(&self) -> Option<Vec<PendingOp>> {
        self.state.lock().trace.clone()
    }

    /// Consults the policy while the lock-step condition holds and no grant
    /// is outstanding.
    fn dispatch(st: &mut SimState) {
        while st.granted.is_none() && st.live_count > 0 && st.pending.len() == st.live_count {
            if st.total_ops >= st.max_total_ops {
                st.budget_exhausted = true;
                for pid in 0..st.live.len() {
                    if st.live[pid] {
                        st.crashed[pid] = Some(CrashCause::Budget);
                        st.live[pid] = false;
                    }
                }
                st.live_count = 0;
                st.pending.clear();
                return;
            }
            let ops: Vec<PendingOp> = st
                .pending
                .iter()
                .map(|(&pid, &(kind, reg))| PendingOp {
                    pid: Pid(pid),
                    kind,
                    reg,
                    step_index: st.steps[pid],
                })
                .collect();
            match st.policy.decide(&ops) {
                Action::Grant(pid) => {
                    assert!(
                        st.pending.contains_key(&pid.0),
                        "policy granted non-pending process {pid}"
                    );
                    st.granted = Some(pid.0);
                }
                Action::Crash(pid) => {
                    assert!(st.live[pid.0], "policy crashed non-live process {pid}");
                    st.crashed[pid.0] = Some(CrashCause::Adversary);
                    st.live[pid.0] = false;
                    st.live_count -= 1;
                    st.pending.remove(&pid.0);
                    // Loop: the lock-step condition may still hold.
                }
            }
        }
    }

    /// The grant protocol for one operation. Returns the read value for
    /// reads.
    fn operate(&self, pid: Pid, kind: OpKind, reg: RegId, word: Option<Word>) -> Step<Word> {
        let mut st = self.state.lock();
        assert!(
            reg.0 < st.regs.len(),
            "register {reg} out of range ({} registers)",
            st.regs.len()
        );
        if st.crashed[pid.0].is_some() {
            return Err(Crash);
        }
        assert!(st.live[pid.0], "operation from finished process {pid}");
        let prev = st.pending.insert(pid.0, (kind, reg));
        assert!(prev.is_none(), "process {pid} has two pending operations");
        Self::dispatch(&mut st);
        self.cv.notify_all();
        loop {
            if st.crashed[pid.0].is_some() {
                return Err(Crash);
            }
            if st.granted == Some(pid.0) {
                break;
            }
            self.cv.wait(&mut st);
        }
        // Perform the granted operation atomically (under the state lock).
        let result = match word {
            Some(w) => {
                st.regs[reg.0] = w;
                Word::Null
            }
            None => st.regs[reg.0].clone(),
        };
        st.steps[pid.0] += 1;
        st.total_ops += 1;
        let step_index = st.steps[pid.0] - 1;
        if let Some(trace) = &mut st.trace {
            trace.push(PendingOp {
                pid,
                kind,
                reg,
                step_index,
            });
        }
        st.granted = None;
        st.pending.remove(&pid.0);
        Self::dispatch(&mut st);
        drop(st);
        self.cv.notify_all();
        Ok(result)
    }
}

impl Memory for SimMemory {
    fn read(&self, pid: Pid, reg: RegId) -> Step<Word> {
        self.operate(pid, OpKind::Read, reg, None)
    }

    fn write(&self, pid: Pid, reg: RegId, word: Word) -> Step<()> {
        self.operate(pid, OpKind::Write, reg, Some(word))?;
        Ok(())
    }

    fn num_registers(&self) -> usize {
        self.state.lock().regs.len()
    }

    fn num_processes(&self) -> usize {
        self.state.lock().live.len()
    }

    fn steps(&self, pid: Pid) -> u64 {
        self.state.lock().steps[pid.0]
    }
}
