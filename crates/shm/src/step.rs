//! Non-blocking execution of shared-memory algorithms: **step machines**.
//!
//! A [`StepMachine`] is an algorithm suspended between shared-memory
//! operations. At every moment it exposes the single operation it wants to
//! perform next ([`StepMachine::op`], a pure inspection) and a transition
//! consuming that operation's result ([`StepMachine::advance`]). This
//! factoring is what lets a scheduler *see* every process's pending
//! operation — `(read/write, register)`, exactly the adversary's knowledge
//! in the paper's model — **before** deciding whom to advance, without
//! parking one OS thread per simulated process. The single-threaded
//! `exsel_sim::StepEngine` is built on it; so is the poll-based snapshot
//! machinery ([`crate::snapshot::ScanOp`], [`crate::snapshot::UpdateOp`])
//! and every renaming driver in `exsel-core`.
//!
//! Blocking callers are served by [`StepMachine::poll`] (perform exactly
//! one operation through a [`Ctx`]) and [`drive`] (run to completion);
//! the blocking `Rename` APIs are thin [`drive`] adapters over the same
//! machines, so both execution backends observe identical operation
//! sequences.
//!
//! # Contract
//!
//! * `op()` is pure and may be called any number of times between
//!   transitions; it describes the next operation exactly. `peek()` is
//!   the cheap form — just `(kind, register)` — that schedulers use to
//!   collect pending operations without materializing operand words.
//! * `advance(input)` consumes the result of the operation last returned
//!   by `op()` — a borrow of the register's value for a read,
//!   [`Word::Null`] for a write — and either completes with
//!   [`Poll::Ready`] or moves to the next operation. The borrow is what
//!   lets snapshot scanners skip cloning an `Arc`-carrying
//!   [`Word::Snap`] when its sequence number shows the register
//!   unchanged since their last collect.
//! * A machine performs **at least one** operation before completing, and
//!   neither `op` nor `advance` may be called after `Ready`.
//! * `reset(pid)` (optional — default panics) re-initializes the machine
//!   to its just-constructed state so pooled machines can be re-driven
//!   across trials without reallocation; see [`StepMachine::reset`].
//!
//! ```
//! use exsel_shm::{drive, Ctx, Pid, Poll, RegAlloc, ShmOp, StepMachine, ThreadedShm, Word};
//!
//! /// Reads a register, then writes the value plus one back.
//! struct Increment {
//!     reg: exsel_shm::RegId,
//!     seen: Option<u64>,
//! }
//!
//! impl StepMachine for Increment {
//!     type Output = u64;
//!     fn op(&self) -> ShmOp {
//!         match self.seen {
//!             None => ShmOp::Read(self.reg),
//!             Some(v) => ShmOp::Write(self.reg, Word::Int(v + 1)),
//!         }
//!     }
//!     fn advance(&mut self, input: &Word) -> Poll<u64> {
//!         match self.seen {
//!             None => {
//!                 self.seen = Some(input.as_int().unwrap_or(0));
//!                 Poll::Pending
//!             }
//!             Some(v) => Poll::Ready(v + 1),
//!         }
//!     }
//! }
//!
//! let mut alloc = RegAlloc::new();
//! let bank = alloc.reserve(1);
//! let mem = ThreadedShm::new(alloc.total(), 1);
//! let ctx = Ctx::new(&mem, Pid(0));
//! ctx.write(bank.get(0), 6u64)?;
//! let mut m = Increment { reg: bank.get(0), seen: None };
//! assert_eq!(drive(&mut m, ctx)?, 7);
//! assert_eq!(ctx.read(bank.get(0))?, Word::Int(7));
//! # Ok::<(), exsel_shm::Crash>(())
//! ```

use crate::{Ctx, OpKind, Pid, RegId, Step, Word};

/// Outcome of driving a poll-based operation one shared-memory step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Poll<T> {
    /// The operation completed with this result.
    Ready(T),
    /// More steps are needed.
    Pending,
}

impl<T> Poll<T> {
    /// Returns the result if ready.
    pub fn ready(self) -> Option<T> {
        match self {
            Poll::Ready(v) => Some(v),
            Poll::Pending => None,
        }
    }

    /// Maps a ready result through `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Poll<U> {
        match self {
            Poll::Ready(v) => Poll::Ready(f(v)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// One shared-memory operation, described before it is performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShmOp {
    /// Read this register.
    Read(RegId),
    /// Write this word to this register.
    Write(RegId, Word),
}

impl ShmOp {
    /// Whether the operation is a read or a write.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            ShmOp::Read(_) => OpKind::Read,
            ShmOp::Write(_, _) => OpKind::Write,
        }
    }

    /// The operation's target register.
    #[must_use]
    pub fn reg(&self) -> RegId {
        match self {
            ShmOp::Read(reg) | ShmOp::Write(reg, _) => *reg,
        }
    }
}

/// An algorithm suspended between shared-memory operations; see the
/// module docs for the contract.
pub trait StepMachine {
    /// The machine's final result.
    type Output;

    /// The next shared-memory operation. Pure; callable repeatedly.
    fn op(&self) -> ShmOp;

    /// The next operation's kind and target register, without
    /// materializing the operand word. Equivalent to (and defaulted
    /// from) `op()`, but overridable where building the full [`ShmOp`]
    /// costs something — e.g. a snapshot update whose pending write
    /// would clone an `Arc`-carrying [`Word::Snap`] on every scheduler
    /// inspection. Must agree with `op()` exactly.
    fn peek(&self) -> (OpKind, RegId) {
        let op = self.op();
        (op.kind(), op.reg())
    }

    /// Consumes the result of the operation last described by
    /// [`StepMachine::op`] (a borrow of the read value, or
    /// [`Word::Null`] for writes) and transitions. Machines that keep
    /// the value clone it; machines that can tell from the borrow that
    /// nothing changed (snapshot scanners comparing sequence numbers)
    /// skip the clone.
    fn advance(&mut self, input: &Word) -> Poll<Self::Output>;

    /// Re-initializes the machine to its just-constructed state so a
    /// pool can re-drive the same storage across trials. `pid` is the
    /// process identity of the next trial; machines built for a specific
    /// pid (slot-addressed algorithms) re-derive their slot from it,
    /// everyone else may ignore it. Machines whose construction captured
    /// a pid must be reset with that same pid.
    ///
    /// # The pooling contract
    ///
    /// `reset` is what turns a machine into *reusable storage*: a
    /// `MachinePool` calls it on every machine at the start of every
    /// trial (including the first), and a reset machine must be
    /// **observationally identical** to a freshly constructed one — the
    /// same operation sequence against the same schedule (the pooled
    /// determinism suite enforces this for every family). Resets happen
    /// **in place**: buffers keep their capacity, caches that would be
    /// invalid across trials (e.g. a snapshot scanner's generation-tag
    /// cache — register sequence numbers restart with the bank) are
    /// cleared, not reallocated. After the first trial has stretched
    /// every buffer, steady-state resets must not touch the allocator.
    ///
    /// Every production machine in this workspace opts in: the snapshot
    /// `ScanOp`/`UpdateOp` (exsel-shm); `CompeteOp`, `SplitWalkOp`,
    /// `MajorityOp`, `SnapshotRenameOp`, `EfficientOp` and the
    /// composite `Staged`/`Piped` renamers (exsel-core, where composite
    /// stages reset by rebuilding their current boxed stage);
    /// `FirstStoreOp` (exsel-storecollect); `NamingMachine` and
    /// `DepositOp` (exsel-unbounded); and the delegating wrappers
    /// `MachineSet`, `MapOutput`, `&mut M`, `Box<M>` (resettable iff
    /// their inner machine is).
    ///
    /// The **default implementation panics**: the ones still on that
    /// path are ad-hoc machines — doc examples, test fixtures, bespoke
    /// one-shot machines built in experiment closures — and any machine
    /// a future contributor has not yet audited for in-place reuse. A
    /// pool refuses nothing at compile time, so the first reset of an
    /// unsupported machine fails loudly instead of silently rerunning a
    /// finished machine.
    fn reset(&mut self, pid: Pid) {
        let _ = pid;
        panic!("this StepMachine does not support pooled reuse (reset)");
    }

    /// Performs exactly one shared-memory operation through `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Crash`] if the process has been crashed; the
    /// machine is then mid-operation and must not be driven further.
    fn poll(&mut self, ctx: Ctx<'_>) -> Step<Poll<Self::Output>> {
        match self.op() {
            ShmOp::Read(reg) => {
                let value = ctx.read(reg)?;
                Ok(self.advance(&value))
            }
            ShmOp::Write(reg, word) => {
                ctx.write(reg, word)?;
                Ok(self.advance(&Word::Null))
            }
        }
    }

    /// Post-processes the machine's output through `f`.
    fn map_output<O, F>(self, f: F) -> MapOutput<Self, F>
    where
        Self: Sized,
        F: FnMut(Self::Output) -> O,
    {
        MapOutput { inner: self, f }
    }
}

impl<M: StepMachine + ?Sized> StepMachine for &mut M {
    type Output = M::Output;
    fn op(&self) -> ShmOp {
        (**self).op()
    }
    fn peek(&self) -> (OpKind, RegId) {
        (**self).peek()
    }
    fn advance(&mut self, input: &Word) -> Poll<M::Output> {
        (**self).advance(input)
    }
    fn reset(&mut self, pid: Pid) {
        (**self).reset(pid);
    }
}

impl<M: StepMachine + ?Sized> StepMachine for Box<M> {
    type Output = M::Output;
    fn op(&self) -> ShmOp {
        (**self).op()
    }
    fn peek(&self) -> (OpKind, RegId) {
        (**self).peek()
    }
    fn advance(&mut self, input: &Word) -> Poll<M::Output> {
        (**self).advance(input)
    }
    fn reset(&mut self, pid: Pid) {
        (**self).reset(pid);
    }
}

/// See [`StepMachine::map_output`].
#[derive(Clone, Debug)]
pub struct MapOutput<M, F> {
    inner: M,
    f: F,
}

impl<M, O, F> StepMachine for MapOutput<M, F>
where
    M: StepMachine,
    F: FnMut(M::Output) -> O,
{
    type Output = O;
    fn op(&self) -> ShmOp {
        self.inner.op()
    }
    fn peek(&self) -> (OpKind, RegId) {
        self.inner.peek()
    }
    fn advance(&mut self, input: &Word) -> Poll<O> {
        self.inner.advance(input).map(&mut self.f)
    }
    fn reset(&mut self, pid: Pid) {
        self.inner.reset(pid);
    }
}

/// Runs `machine` to completion through `ctx`, one shared-memory
/// operation per poll — the blocking adapter over the step-machine form.
///
/// # Errors
///
/// Returns [`crate::Crash`] if the process crashes mid-run.
pub fn drive<M: StepMachine + ?Sized>(machine: &mut M, ctx: Ctx<'_>) -> Step<M::Output> {
    loop {
        if let Poll::Ready(out) = machine.poll(ctx)? {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pid, RegAlloc, ThreadedShm};

    /// Writes `token`, then reads it back.
    struct WriteRead {
        reg: RegId,
        token: u64,
        wrote: bool,
    }

    impl StepMachine for WriteRead {
        type Output = Word;
        fn op(&self) -> ShmOp {
            if self.wrote {
                ShmOp::Read(self.reg)
            } else {
                ShmOp::Write(self.reg, Word::Int(self.token))
            }
        }
        fn advance(&mut self, input: &Word) -> Poll<Word> {
            if self.wrote {
                Poll::Ready(input.clone())
            } else {
                self.wrote = true;
                Poll::Pending
            }
        }
        fn reset(&mut self, _pid: Pid) {
            self.wrote = false;
        }
    }

    fn setup() -> (RegId, ThreadedShm) {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        (bank.get(0), ThreadedShm::new(alloc.total(), 1))
    }

    #[test]
    fn poll_performs_exactly_one_op() {
        let (reg, mem) = setup();
        let ctx = Ctx::new(&mem, Pid(0));
        let mut m = WriteRead {
            reg,
            token: 9,
            wrote: false,
        };
        assert_eq!(m.poll(ctx).unwrap(), Poll::Pending);
        assert_eq!(ctx.steps(), 1);
        assert_eq!(m.poll(ctx).unwrap(), Poll::Ready(Word::Int(9)));
        assert_eq!(ctx.steps(), 2);
    }

    #[test]
    fn drive_runs_to_completion() {
        let (reg, mem) = setup();
        let ctx = Ctx::new(&mem, Pid(0));
        let mut m = WriteRead {
            reg,
            token: 4,
            wrote: false,
        };
        assert_eq!(drive(&mut m, ctx).unwrap(), Word::Int(4));
    }

    #[test]
    fn op_is_pure_and_repeatable() {
        let (reg, _mem) = setup();
        let m = WriteRead {
            reg,
            token: 1,
            wrote: false,
        };
        assert_eq!(m.op(), m.op());
        assert_eq!(m.op().kind(), OpKind::Write);
        assert_eq!(m.op().reg(), reg);
    }

    #[test]
    fn map_output_transforms_result() {
        let (reg, mem) = setup();
        let ctx = Ctx::new(&mem, Pid(0));
        let mut m = WriteRead {
            reg,
            token: 3,
            wrote: false,
        }
        .map_output(|w| w.expect_int() * 10);
        assert_eq!(drive(&mut m, ctx).unwrap(), 30);
    }

    #[test]
    fn crash_surfaces_through_poll() {
        let (reg, mem) = setup();
        let ctx = Ctx::new(&mem, Pid(0));
        mem.crash(Pid(0));
        let mut m = WriteRead {
            reg,
            token: 2,
            wrote: false,
        };
        assert!(m.poll(ctx).is_err());
    }

    #[test]
    fn peek_defaults_to_op() {
        let (reg, _mem) = setup();
        let m = WriteRead {
            reg,
            token: 1,
            wrote: false,
        };
        assert_eq!(m.peek(), (m.op().kind(), m.op().reg()));
    }

    #[test]
    fn reset_reinitializes_for_another_run() {
        let (reg, mem) = setup();
        let ctx = Ctx::new(&mem, Pid(0));
        let mut m = WriteRead {
            reg,
            token: 5,
            wrote: false,
        };
        assert_eq!(drive(&mut m, ctx).unwrap(), Word::Int(5));
        m.reset(Pid(0));
        assert_eq!(m.op().kind(), OpKind::Write);
        assert_eq!(drive(&mut m, ctx).unwrap(), Word::Int(5));
    }

    #[test]
    #[should_panic(expected = "does not support pooled reuse")]
    fn reset_defaults_to_a_loud_panic() {
        struct NoReset(RegId);
        impl StepMachine for NoReset {
            type Output = ();
            fn op(&self) -> ShmOp {
                ShmOp::Read(self.0)
            }
            fn advance(&mut self, _input: &Word) -> Poll<()> {
                Poll::Ready(())
            }
        }
        let (reg, _mem) = setup();
        NoReset(reg).reset(Pid(0));
    }

    #[test]
    fn boxed_and_borrowed_machines_delegate() {
        let (reg, mem) = setup();
        let ctx = Ctx::new(&mem, Pid(0));
        let mut boxed: Box<dyn StepMachine<Output = Word>> = Box::new(WriteRead {
            reg,
            token: 7,
            wrote: false,
        });
        assert_eq!(boxed.op().kind(), OpKind::Write);
        assert_eq!(drive(&mut boxed, ctx).unwrap(), Word::Int(7));
    }
}
