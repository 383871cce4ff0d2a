//! The Store&Collect object.

use exsel_core::{
    AdaptiveRename, AlmostAdaptive, Outcome, PolyLogRename, Rename, RenameConfig, RenameMachine,
    StepRename,
};
use exsel_shm::{drive, Ctx, Pid, Poll, RegAlloc, RegId, ShmOp, StepMachine, Word};

use crate::layout::{ReadCursor, ValueLayout};
use crate::StoreCollectError;

/// Which of Theorem 5's knowledge settings an instance implements.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Setting {
    /// (i): both `k` and `N` known.
    KnownContention,
    /// (ii)/(iii): `N` known, `k` unknown.
    AlmostAdaptive,
    /// (iv): fully adaptive.
    Adaptive,
}

/// Per-process local state: the value register adopted by the first store.
///
/// A process keeps one handle per [`StoreCollect`] object for its entire
/// lifetime; the handle is intentionally not `Clone` (two copies would
/// race on the first store).
#[derive(Debug, Default)]
pub struct StoreHandle {
    reg: Option<RegId>,
}

impl StoreHandle {
    /// A fresh handle (no store performed yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the first store (which runs renaming) has completed.
    #[must_use]
    pub fn is_registered(&self) -> bool {
        self.reg.is_some()
    }

    /// The value register adopted by the first store, if any. Distinct
    /// processes always hold distinct registers (renaming
    /// exclusiveness); experiments use this to audit that invariant.
    #[must_use]
    pub fn register(&self) -> Option<RegId> {
        self.reg
    }

    /// Records the register adopted by a completed [`FirstStoreOp`].
    /// Callers driving the step-machine store path must invoke this with
    /// the machine's output before issuing further stores through the
    /// handle.
    pub fn adopt(&mut self, reg: RegId) {
        debug_assert!(self.reg.is_none(), "first store already completed");
        self.reg = Some(reg);
    }
}

/// A wait-free Store&Collect object (Theorem 5).
///
/// See the crate docs for the four settings and their complexity bounds.
/// Collect semantics: the returned view contains `(owner, value)` for
/// every process whose first store completed before the collect started,
/// with `value` a value the owner stored no earlier than its latest store
/// preceding the collect (regularity, as standard for collect objects).
pub struct StoreCollect {
    renamer: Box<dyn StepRename + Send>,
    layout: ValueLayout,
    setting: Setting,
}

impl StoreCollect {
    /// Setting (i): both the contention bound `k` and the original-name
    /// range `[1, n_names]` are known. Uses `PolyLog-Rename(k, N)` and a
    /// fixed `O(k)` value-register prefix.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `n_names == 0`.
    #[must_use]
    pub fn known(alloc: &mut RegAlloc, k: usize, n_names: usize, cfg: &RenameConfig) -> Self {
        let renamer = PolyLogRename::new(alloc, n_names, k, cfg);
        let layout = ValueLayout::fixed(alloc, renamer.name_bound());
        StoreCollect {
            renamer: Box::new(renamer),
            layout,
            setting: Setting::KnownContention,
        }
    }

    /// Settings (ii)/(iii): the original-name range `[1, n_names]` is
    /// known but contention is not. Uses `Almost-Adaptive(N)` and doubling
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics if `n_names == 0` or `n_processes == 0`.
    #[must_use]
    pub fn almost_adaptive(
        alloc: &mut RegAlloc,
        n_names: usize,
        n_processes: usize,
        cfg: &RenameConfig,
    ) -> Self {
        let renamer = AlmostAdaptive::new(alloc, n_names, n_processes, cfg);
        let layout = ValueLayout::intervals(alloc, renamer.name_bound());
        StoreCollect {
            renamer: Box::new(renamer),
            layout,
            setting: Setting::AlmostAdaptive,
        }
    }

    /// Setting (iv): fully adaptive — neither `k` nor `N` known. Uses
    /// `Adaptive-Rename` and doubling intervals.
    ///
    /// # Panics
    ///
    /// Panics if `n_processes == 0`.
    #[must_use]
    pub fn adaptive(alloc: &mut RegAlloc, n_processes: usize, cfg: &RenameConfig) -> Self {
        let renamer = AdaptiveRename::new(alloc, n_processes, cfg);
        let layout = ValueLayout::intervals(alloc, renamer.name_bound());
        StoreCollect {
            renamer: Box::new(renamer),
            layout,
            setting: Setting::Adaptive,
        }
    }

    /// The setting this instance implements.
    #[must_use]
    pub fn setting(&self) -> Setting {
        self.setting
    }

    /// Registers used by the renamer plus the value layout.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        // The renamer's registers were reserved on the same allocator;
        // layout knows only its own. Experiments read the allocator total,
        // this reports the layout part.
        self.layout.num_registers()
    }

    /// Registers that can hold a snapshot record: the renamer's snapshot
    /// components (value and control registers hold plain words).
    #[must_use]
    pub fn snapshot_registers(&self) -> usize {
        self.renamer.snapshot_registers()
    }

    /// Stores `value` for the calling process (unique original name
    /// `original`). The first store runs the renaming subroutine and
    /// raises interval controls; later stores through the same handle are
    /// a single write.
    ///
    /// # Errors
    ///
    /// [`StoreCollectError::Crash`] if the process crashes;
    /// [`StoreCollectError::CapacityExceeded`] if more processes contend
    /// than the instance was sized for.
    pub fn store(
        &self,
        ctx: Ctx<'_>,
        handle: &mut StoreHandle,
        original: u64,
        value: u64,
    ) -> Result<(), StoreCollectError> {
        match handle.reg {
            Some(reg) => ctx.write(reg, Word::Pair(original, value))?,
            None => {
                // Blocking adapter over the step-machine first-store path.
                let mut op = self.begin_first_store(ctx.pid(), original, value);
                let reg = drive(&mut op, ctx)??;
                handle.adopt(reg);
            }
        }
        Ok(())
    }

    /// Starts a process's *first* store — renaming, control raising and
    /// the value write — as a [`StepMachine`], one shared-memory operation
    /// per step. `Ready(Ok(reg))` yields the adopted value register, which
    /// the caller records with [`StoreHandle::adopt`]; later stores are a
    /// single write to it. `Ready(Err(_))` reports capacity exhaustion.
    #[must_use]
    pub fn begin_first_store<'a>(
        &'a self,
        pid: Pid,
        original: u64,
        value: u64,
    ) -> FirstStoreOp<'a> {
        FirstStoreOp {
            sc: self,
            original,
            value,
            state: FsState::Renaming(self.renamer.begin_rename(pid, original)),
        }
    }

    /// Collects the latest stored value of every registered process, as
    /// `(original name, value)` pairs sorted by original name.
    ///
    /// # Errors
    ///
    /// [`StoreCollectError::Crash`] if the process crashes.
    pub fn collect(&self, ctx: Ctx<'_>) -> Result<Vec<(u64, u64)>, StoreCollectError> {
        let mut out = Vec::new();
        self.layout.read_prefix(ctx, |w| {
            if let Some(pair) = w.as_pair() {
                out.push(pair);
            }
        })?;
        out.sort_unstable();
        Ok(out)
    }

    /// Starts a collect as a [`StepMachine`], one register read per step,
    /// performing exactly [`StoreCollect::collect`]'s read sequence:
    /// every value register for the fixed layout; interval values then
    /// the interval's control — stopping at the first lowered control —
    /// for the doubling layouts. `Ready(len)` reports the view size; the
    /// `(original, value)` pairs, sorted by original name, stay readable
    /// through [`CollectOp::view`] until the next re-arm.
    ///
    /// The machine is resettable and re-armable in place
    /// ([`CollectOp::rearm`]): one pooled collector performs any number
    /// of collects without touching the allocator once its view buffer
    /// has stretched to the high-water registered count.
    #[must_use]
    pub fn begin_collect(&self, pid: Pid) -> CollectOp<'_> {
        let _ = pid; // collects are anonymous: reads only
        CollectOp {
            sc: self,
            state: self.layout.first_read(),
            view: Vec::new(),
        }
    }
}

enum FsState<'a> {
    Renaming(RenameMachine<'a>),
    /// Raising interval controls `controls[idx..]`, then writing the value.
    Raising {
        controls: Vec<RegId>,
        idx: usize,
        reg: RegId,
    },
    WriteValue {
        reg: RegId,
    },
}

/// In-progress first store — a [`StepMachine`] over the rename +
/// raise-controls + value-write path of [`StoreCollect::store`].
pub struct FirstStoreOp<'a> {
    sc: &'a StoreCollect,
    original: u64,
    value: u64,
    state: FsState<'a>,
}

impl FirstStoreOp<'_> {
    /// Transition for a freshly acquired name: set up control raising (or
    /// go straight to the value write when there are none).
    fn enter_raising(&mut self, name: u64) {
        let controls = self.sc.layout.controls_to_raise(name);
        let reg = self.sc.layout.value_register(name);
        self.state = if controls.is_empty() {
            FsState::WriteValue { reg }
        } else {
            FsState::Raising {
                controls,
                idx: 0,
                reg,
            }
        };
    }
}

impl exsel_shm::Footprint for StoreCollect {
    /// The renamer's footprint (where the exclusive extents live, if the
    /// renamer has any) plus the value layout, which is shared for every
    /// pid: a registered store writes the value register of its acquired
    /// name — unique dynamically, unattributable statically.
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        self.renamer.footprint(pid, spec);
        self.layout.footprint(spec);
    }
}

impl StepMachine for FirstStoreOp<'_> {
    type Output = Result<RegId, StoreCollectError>;

    fn op(&self) -> ShmOp {
        match &self.state {
            FsState::Renaming(machine) => machine.op(),
            FsState::Raising { controls, idx, .. } => ShmOp::Write(controls[*idx], Word::Int(1)),
            FsState::WriteValue { reg } => {
                ShmOp::Write(*reg, Word::Pair(self.original, self.value))
            }
        }
    }

    fn advance(&mut self, input: &Word) -> Poll<Self::Output> {
        match &mut self.state {
            FsState::Renaming(machine) => match machine.advance(input) {
                Poll::Pending => Poll::Pending,
                Poll::Ready(Outcome::Failed) => {
                    Poll::Ready(Err(StoreCollectError::CapacityExceeded))
                }
                Poll::Ready(Outcome::Named(name)) => {
                    self.enter_raising(name);
                    Poll::Pending
                }
            },
            FsState::Raising { controls, idx, reg } => {
                *idx += 1;
                if *idx >= controls.len() {
                    self.state = FsState::WriteValue { reg: *reg };
                }
                Poll::Pending
            }
            FsState::WriteValue { reg } => Poll::Ready(Ok(*reg)),
        }
    }

    fn peek(&self) -> (exsel_shm::OpKind, exsel_shm::RegId) {
        match &self.state {
            FsState::Renaming(machine) => machine.peek(),
            FsState::Raising { controls, idx, .. } => (exsel_shm::OpKind::Write, controls[*idx]),
            FsState::WriteValue { reg } => (exsel_shm::OpKind::Write, *reg),
        }
    }

    fn reset(&mut self, pid: Pid) {
        self.state = FsState::Renaming(self.sc.renamer.begin_rename(pid, self.original));
    }
}

/// In-progress collect — a [`StepMachine`] over the prefix-read path of
/// [`StoreCollect::collect`], one register read per step. See
/// [`StoreCollect::begin_collect`].
#[derive(Debug)]
pub struct CollectOp<'a> {
    sc: &'a StoreCollect,
    state: ReadCursor,
    /// The pairs collected so far; sorted by original name at completion
    /// and kept (capacity and contents) until the next re-arm.
    view: Vec<(u64, u64)>,
}

impl CollectOp<'_> {
    /// The collected `(original name, value)` pairs of the last completed
    /// collect, sorted by original name — identical to what
    /// [`StoreCollect::collect`] would have returned against the same
    /// register contents. Mid-collect, the pairs gathered so far in read
    /// order.
    #[must_use]
    pub fn view(&self) -> &[(u64, u64)] {
        &self.view
    }

    /// Re-arms the machine in place as a fresh collect over the same
    /// object — the allocation-free counterpart of
    /// [`StoreCollect::begin_collect`] for repeated collects within one
    /// trial (the view buffer keeps its capacity).
    pub fn rearm(&mut self) {
        self.state = self.sc.layout.first_read();
        self.view.clear();
    }
}

impl StepMachine for CollectOp<'_> {
    /// The number of pairs in the completed view.
    type Output = usize;

    fn op(&self) -> ShmOp {
        ShmOp::Read(self.sc.layout.cursor_reg(self.state))
    }

    fn peek(&self) -> (exsel_shm::OpKind, exsel_shm::RegId) {
        (
            exsel_shm::OpKind::Read,
            self.sc.layout.cursor_reg(self.state),
        )
    }

    fn advance(&mut self, input: &Word) -> Poll<usize> {
        if let Some(pair) = input.as_pair() {
            // Control registers hold Int(1), never pairs, so only value
            // positions can land here — exactly read_prefix's sink.
            self.view.push(pair);
        }
        self.state = self.sc.layout.advance_cursor(self.state, input.is_null());
        if self.state == ReadCursor::Done {
            self.view.sort_unstable();
            Poll::Ready(self.view.len())
        } else {
            Poll::Pending
        }
    }

    fn reset(&mut self, pid: Pid) {
        let _ = pid; // collects are anonymous: reads only
        self.rearm();
    }
}

impl std::fmt::Debug for StoreCollect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreCollect")
            .field("setting", &self.setting)
            .field("name_bound", &self.renamer.name_bound())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{Pid, ThreadedShm};

    fn run_store_collect(sc: &StoreCollect, num_regs: usize, k: usize) -> Vec<Vec<(u64, u64)>> {
        let mem = ThreadedShm::new(num_regs, k);
        std::thread::scope(|s| {
            (0..k)
                .map(|p| {
                    let (sc, mem) = (sc, &mem);
                    s.spawn(move || {
                        let ctx = Ctx::new(mem, Pid(p));
                        let mut h = StoreHandle::new();
                        let orig = (p as u64 + 1) * 37;
                        for round in 0..3u64 {
                            sc.store(ctx, &mut h, orig, 100 * p as u64 + round).unwrap();
                        }
                        sc.collect(ctx).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        })
    }

    fn check_views(views: &[Vec<(u64, u64)>], k: usize) {
        for view in views {
            // Every view has at most one entry per owner; the final
            // sequential collect below checks completeness.
            let owners: std::collections::BTreeSet<u64> = view.iter().map(|&(o, _)| o).collect();
            assert_eq!(owners.len(), view.len(), "duplicate owner in view");
            assert!(view.len() <= k);
        }
    }

    #[test]
    fn known_setting_roundtrip() {
        let mut alloc = RegAlloc::new();
        let k = 4;
        let sc = StoreCollect::known(&mut alloc, k, 256, &RenameConfig::default());
        let views = run_store_collect(&sc, alloc.total(), k);
        check_views(&views, k);
        // A quiescent collect sees everyone's last value.
        let mem = ThreadedShm::new(alloc.total(), k);
        let ctx0 = Ctx::new(&mem, Pid(0));
        let mut h = StoreHandle::new();
        sc.store(ctx0, &mut h, 37, 7).unwrap();
        assert_eq!(sc.collect(ctx0).unwrap(), vec![(37, 7)]);
    }

    #[test]
    fn adaptive_setting_concurrent() {
        let mut alloc = RegAlloc::new();
        let k = 6;
        let sc = StoreCollect::adaptive(&mut alloc, 8, &RenameConfig::default());
        let views = run_store_collect(&sc, alloc.total(), k);
        check_views(&views, k);
    }

    #[test]
    fn almost_adaptive_quiescent_complete() {
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::almost_adaptive(&mut alloc, 64, 8, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 3);
        for p in 0..3 {
            let ctx = Ctx::new(&mem, Pid(p));
            let mut h = StoreHandle::new();
            sc.store(ctx, &mut h, p as u64 + 1, 10 + p as u64).unwrap();
        }
        let view = sc.collect(Ctx::new(&mem, Pid(0))).unwrap();
        assert_eq!(view, vec![(1, 10), (2, 11), (3, 12)]);
    }

    #[test]
    fn repeat_store_is_one_step_and_overwrites() {
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::adaptive(&mut alloc, 4, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut h = StoreHandle::new();
        sc.store(ctx, &mut h, 5, 1).unwrap();
        assert!(h.is_registered());
        let before = ctx.steps();
        sc.store(ctx, &mut h, 5, 2).unwrap();
        assert_eq!(ctx.steps() - before, 1, "repeat store must be one write");
        assert_eq!(sc.collect(ctx).unwrap(), vec![(5, 2)]);
    }

    #[test]
    fn collect_cost_scales_with_contention_not_capacity() {
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::adaptive(&mut alloc, 16, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 2);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut h = StoreHandle::new();
        sc.store(ctx, &mut h, 9, 1).unwrap();
        let before = ctx.steps();
        sc.collect(ctx).unwrap();
        let cost = ctx.steps() - before;
        // One registered process: collect reads only the first interval(s),
        // far below the full O(n²)-register layout.
        assert!(cost < 64, "collect cost {cost} too high for k=1");
    }

    #[test]
    fn debug_mentions_setting() {
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::adaptive(&mut alloc, 2, &RenameConfig::default());
        assert!(format!("{sc:?}").contains("Adaptive"));
        assert_eq!(sc.setting(), Setting::Adaptive);
    }

    /// Drives a CollectOp to completion, returning (view, steps).
    fn drive_collect(sc: &StoreCollect, ctx: Ctx<'_>) -> (Vec<(u64, u64)>, u64) {
        let mut op = sc.begin_collect(ctx.pid());
        let before = ctx.steps();
        let len = drive(&mut op, ctx).unwrap();
        assert_eq!(len, op.view().len());
        (op.view().to_vec(), ctx.steps() - before)
    }

    #[test]
    fn collect_machine_matches_blocking_collect_in_view_and_steps() {
        for setting in 0..3 {
            let mut alloc = RegAlloc::new();
            let sc = match setting {
                0 => StoreCollect::known(&mut alloc, 4, 64, &RenameConfig::default()),
                1 => StoreCollect::almost_adaptive(&mut alloc, 64, 8, &RenameConfig::default()),
                _ => StoreCollect::adaptive(&mut alloc, 8, &RenameConfig::default()),
            };
            let mem = ThreadedShm::new(alloc.total(), 4);
            for p in 0..3 {
                let ctx = Ctx::new(&mem, Pid(p));
                let mut h = StoreHandle::new();
                sc.store(ctx, &mut h, p as u64 + 1, 50 + p as u64).unwrap();
            }
            let ctx = Ctx::new(&mem, Pid(3));
            let before = ctx.steps();
            let blocking = sc.collect(ctx).unwrap();
            let blocking_steps = ctx.steps() - before;
            let (view, steps) = drive_collect(&sc, ctx);
            assert_eq!(view, blocking, "setting {setting}");
            assert_eq!(
                steps, blocking_steps,
                "setting {setting}: read sequences diverged"
            );
        }
    }

    #[test]
    fn collect_machine_rearms_in_place_and_sees_new_stores() {
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::adaptive(&mut alloc, 4, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 2);
        let ctx0 = Ctx::new(&mem, Pid(0));
        let mut h = StoreHandle::new();
        sc.store(ctx0, &mut h, 7, 1).unwrap();

        let ctx1 = Ctx::new(&mem, Pid(1));
        let mut op = sc.begin_collect(Pid(1));
        assert_eq!(drive(&mut op, ctx1).unwrap(), 1);
        assert_eq!(op.view(), &[(7, 1)]);

        sc.store(ctx0, &mut h, 7, 2).unwrap();
        op.rearm();
        assert_eq!(drive(&mut op, ctx1).unwrap(), 1);
        assert_eq!(op.view(), &[(7, 2)]);

        // reset (the pooling path) behaves like rearm.
        op.reset(Pid(1));
        assert_eq!(drive(&mut op, ctx1).unwrap(), 1);
        assert_eq!(op.view(), &[(7, 2)]);
    }

    #[test]
    fn collect_machine_stops_at_lowered_control() {
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::adaptive(&mut alloc, 16, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 2);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut h = StoreHandle::new();
        sc.store(ctx, &mut h, 9, 1).unwrap();
        let (view, steps) = drive_collect(&sc, ctx);
        assert_eq!(view, vec![(9, 1)]);
        assert!(steps < 64, "collect machine read {steps} registers for k=1");
    }
}
