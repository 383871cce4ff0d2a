//! Step-machine drivers for the renaming algorithms.
//!
//! Every renamer in this crate exposes its algorithm in two equivalent
//! forms: the blocking [`Rename`] API (used on real threads over
//! `ThreadedShm`) and a [`StepMachine`] obtained from
//! [`StepRename::begin_rename`] (used by the single-threaded
//! `exsel_sim::StepEngine` and by anything else that needs to interleave
//! renaming with other activities at shared-memory-operation granularity).
//! The blocking form is a thin [`exsel_shm::drive`] adapter over the
//! machine, so **both forms perform identical operation sequences** — a
//! schedule recorded against one replays exactly against the other.

use exsel_shm::{FootprintSpec, Pid, Poll, ShmOp, StepMachine, Word};

use crate::{Outcome, Rename};

/// A boxed in-progress renaming, borrowing its algorithm.
pub type RenameMachine<'a> = Box<dyn StepMachine<Output = Outcome> + 'a>;

/// Renaming algorithms that expose their execution as a [`StepMachine`].
///
/// `pid` is the caller's system identity; most algorithms ignore it (they
/// break symmetry with `original` only), but slot-addressed baselines
/// (`SnapshotRename`) use it the way their blocking `rename` does.
pub trait StepRename: Rename {
    /// Starts a renaming of `original` for process `pid`.
    fn begin_rename<'a>(&'a self, pid: Pid, original: u64) -> RenameMachine<'a>;

    /// Appends the registers a machine begun for `pid` may touch (the
    /// [`exsel_shm::Footprint`] contract, as a provided method so
    /// `StepRename` stays object-safe alongside it). Every renamer in
    /// this crate overrides it; the default declares nothing, which the
    /// analysis pass rejects (missing footprint) rather than silently
    /// accepting an unchecked machine.
    fn footprint(&self, pid: Pid, spec: &mut FootprintSpec) {
        let _ = (pid, spec);
    }

    /// Registers that can hold a snapshot record ([`Word::Snap`]): the
    /// components of the renamer's snapshot objects. The default, 0, is
    /// right for every renamer without a snapshot stage.
    fn snapshot_registers(&self) -> usize {
        0
    }
}

impl<T: StepRename + ?Sized> StepRename for &T {
    fn begin_rename<'a>(&'a self, pid: Pid, original: u64) -> RenameMachine<'a> {
        (**self).begin_rename(pid, original)
    }

    fn footprint(&self, pid: Pid, spec: &mut FootprintSpec) {
        (**self).footprint(pid, spec);
    }

    fn snapshot_registers(&self) -> usize {
        (**self).snapshot_registers()
    }
}

impl<T: StepRename + ?Sized> StepRename for Box<T> {
    fn begin_rename<'a>(&'a self, pid: Pid, original: u64) -> RenameMachine<'a> {
        (**self).begin_rename(pid, original)
    }

    fn footprint(&self, pid: Pid, spec: &mut FootprintSpec) {
        (**self).footprint(pid, spec);
    }

    fn snapshot_registers(&self) -> usize {
        (**self).snapshot_registers()
    }
}

/// Runs a sequence of sub-renamings that all consume the *same* input,
/// mapping stage `i`'s `Named(w)` to `Named(offset_i + w)`; the first
/// stage to name wins, exhaustion fails. This is the shape of
/// `Basic-Rename` over `Majority` and of the doubling wrappers
/// (`Almost-Adaptive`, `Adaptive-Rename`) over their phases.
pub(crate) struct Staged<'a, F>
where
    F: FnMut(usize) -> Option<(RenameMachine<'a>, u64)>,
{
    next: F,
    idx: usize,
    cur: RenameMachine<'a>,
    offset: u64,
}

impl<'a, F> Staged<'a, F>
where
    F: FnMut(usize) -> Option<(RenameMachine<'a>, u64)>,
{
    /// Builds the chain; `next(i)` yields stage `i`'s machine and name
    /// offset.
    ///
    /// # Panics
    ///
    /// Panics if there is no stage 0.
    pub(crate) fn new(mut next: F) -> Self {
        let (cur, offset) = next(0).expect("at least one stage");
        Staged {
            next,
            idx: 0,
            cur,
            offset,
        }
    }
}

impl<'a, F> StepMachine for Staged<'a, F>
where
    F: FnMut(usize) -> Option<(RenameMachine<'a>, u64)>,
{
    type Output = Outcome;

    fn op(&self) -> ShmOp {
        self.cur.op()
    }

    fn peek(&self) -> (exsel_shm::OpKind, exsel_shm::RegId) {
        self.cur.peek()
    }

    fn advance(&mut self, input: &Word) -> Poll<Outcome> {
        match self.cur.advance(input) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Outcome::Named(w)) => Poll::Ready(Outcome::Named(self.offset + w)),
            Poll::Ready(Outcome::Failed) => {
                self.idx += 1;
                match (self.next)(self.idx) {
                    Some((machine, offset)) => {
                        self.cur = machine;
                        self.offset = offset;
                        Poll::Pending
                    }
                    None => Poll::Ready(Outcome::Failed),
                }
            }
        }
    }

    fn reset(&mut self, _pid: Pid) {
        // Re-enter stage 0; `next` closures capture only the algorithm
        // and the original input, so calling them again is valid (and
        // costs one boxed machine — composite renamers reset by
        // rebuilding their current stage, not the whole chain).
        let (cur, offset) = (self.next)(0).expect("at least one stage");
        self.idx = 0;
        self.cur = cur;
        self.offset = offset;
    }
}

/// Runs a pipeline of sub-renamings where each stage's `Named` output is
/// the next stage's input; the last stage's name is kept. Any stage
/// failing fails the pipeline. This is the shape of `PolyLog-Rename`'s
/// epoch chain.
pub(crate) struct Piped<'a, F>
where
    F: FnMut(usize, u64) -> Option<RenameMachine<'a>>,
{
    next: F,
    idx: usize,
    cur: RenameMachine<'a>,
    input: u64,
}

impl<'a, F> Piped<'a, F>
where
    F: FnMut(usize, u64) -> Option<RenameMachine<'a>>,
{
    /// Builds the pipeline on `input`; `next(i, name)` yields stage `i`'s
    /// machine consuming `name`.
    ///
    /// # Panics
    ///
    /// Panics if there is no stage 0.
    pub(crate) fn new(input: u64, mut next: F) -> Self {
        let cur = next(0, input).expect("at least one stage");
        Piped {
            next,
            idx: 0,
            cur,
            input,
        }
    }
}

impl<'a, F> StepMachine for Piped<'a, F>
where
    F: FnMut(usize, u64) -> Option<RenameMachine<'a>>,
{
    type Output = Outcome;

    fn op(&self) -> ShmOp {
        self.cur.op()
    }

    fn peek(&self) -> (exsel_shm::OpKind, exsel_shm::RegId) {
        self.cur.peek()
    }

    fn advance(&mut self, input: &Word) -> Poll<Outcome> {
        match self.cur.advance(input) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Outcome::Failed) => Poll::Ready(Outcome::Failed),
            Poll::Ready(Outcome::Named(w)) => {
                self.idx += 1;
                match (self.next)(self.idx, w) {
                    Some(machine) => {
                        self.cur = machine;
                        Poll::Pending
                    }
                    None => Poll::Ready(Outcome::Named(w)),
                }
            }
        }
    }

    fn reset(&mut self, _pid: Pid) {
        self.cur = (self.next)(0, self.input).expect("at least one stage");
        self.idx = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasicRename, MoirAnderson, RenameConfig};
    use exsel_shm::{drive, Ctx, OpKind, RegAlloc, ThreadedShm};

    #[test]
    fn machine_and_blocking_perform_identical_op_sequences() {
        // Drive the machine one op at a time against one memory and the
        // blocking form against another; step counts must agree exactly.
        let cfg = RenameConfig::default();
        let mut alloc = RegAlloc::new();
        let algo = BasicRename::new(&mut alloc, 64, 4, &cfg);

        let mem_a = ThreadedShm::new(alloc.total(), 1);
        let ctx_a = Ctx::new(&mem_a, Pid(0));
        let out_a = algo.rename(ctx_a, 17).unwrap();

        let mem_b = ThreadedShm::new(alloc.total(), 1);
        let ctx_b = Ctx::new(&mem_b, Pid(0));
        let mut machine = algo.begin_rename(Pid(0), 17);
        let out_b = drive(&mut machine, ctx_b).unwrap();

        assert_eq!(out_a, out_b);
        assert_eq!(ctx_a.steps(), ctx_b.steps());
    }

    #[test]
    fn ops_are_announced_before_execution() {
        let mut alloc = RegAlloc::new();
        let algo = MoirAnderson::new(&mut alloc, 2);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut machine = algo.begin_rename(Pid(0), 5);
        let mut announced = Vec::new();
        loop {
            announced.push((machine.op().kind(), machine.op().reg()));
            if let Poll::Ready(out) = machine.poll(ctx).unwrap() {
                assert!(out.is_named());
                break;
            }
        }
        // Solo walk: one splitter, write X / read Y / write Y / read X.
        assert_eq!(
            announced.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![OpKind::Write, OpKind::Read, OpKind::Write, OpKind::Read]
        );
    }

    #[test]
    fn dyn_renamers_begin_machines() {
        let mut alloc = RegAlloc::new();
        let algo = MoirAnderson::new(&mut alloc, 2);
        let by_ref: &dyn StepRename = &algo;
        let mem = ThreadedShm::new(alloc.total(), 1);
        let out = drive(&mut by_ref.begin_rename(Pid(0), 9), Ctx::new(&mem, Pid(0))).unwrap();
        assert_eq!(out, Outcome::Named(1));
    }
}
