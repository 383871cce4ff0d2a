//! Wait-free atomic snapshot object (Afek, Attiya, Dolev, Gafni, Merritt,
//! Shavit — "Atomic snapshots of shared memory", JACM 1993), unbounded
//! sequence-number variant.
//!
//! An `n`-component snapshot object supports `update(slot, value)` and
//! `scan() -> [values; n]` such that all operations are linearizable and
//! wait-free. The construction stores, in each component register, a
//! [`SnapRecord`]: the value, a per-writer sequence number, and an *embedded
//! view* — a scan taken by the writer during its update. A scanner collects
//! all components repeatedly; two identical consecutive collects yield a
//! *direct* scan, and a writer observed to move twice yields a *borrowed*
//! scan (its embedded view lies entirely within the scanner's interval).
//!
//! Blocking ([`Snapshot::scan`], [`Snapshot::update`]) and step-machine
//! ([`Snapshot::begin_scan`], [`Snapshot::begin_update`]) drivers are
//! provided. [`ScanOp`] and [`UpdateOp`] are [`StepMachine`]s — **exactly
//! one shared-memory operation per step** — which is what lets
//! `Altruistic-Deposit` interleave two activities at event granularity as
//! the paper prescribes, and what lets the `exsel-sim` step engine run
//! snapshot-based algorithms without blocking threads.
//!
//! Memory-wise the object is **compacted** by a per-object [`SnapArena`]:
//! displaced records and retired view buffers are reclaimed under `Arc`
//! uniqueness and refilled in place, so steady-state updates and scans
//! perform no heap allocation (see the arena's docs for the reclaim
//! invariants and `ARCHITECTURE.md` for the full lifecycle). A scanner
//! keeps only each component's sequence number and value, plus the one
//! embedded view it may borrow, so records are pinned by the registers
//! and by updates about to install them, never by scans.
//!
//! Each slot is single-writer: at most one process may call `update` on a
//! given slot (the usual SWMR snapshot discipline). Scans may be invoked by
//! anyone.

use std::sync::Arc;

use crate::step::{ShmOp, StepMachine};
use crate::{drive, Ctx, OpKind, Pid, RegAlloc, RegId, RegRange, SnapRecord, Step, Word};

pub use crate::snap_arena::{SnapArena, SnapArenaStats};
pub use crate::step::Poll;

/// An `n`-component wait-free atomic snapshot object laid out over `n`
/// shared registers.
///
/// The object carries a [`SnapArena`]: displaced records and retired
/// view buffers are reclaimed (under `Arc` uniqueness) and refilled in
/// place instead of reallocated, so steady-state snapshot traffic is
/// heap-silent. Recycling changes no operation sequence and no returned
/// value; [`Snapshot::recycling`] keeps the never-recycling baseline
/// available as a differential-test oracle.
///
/// ```
/// use exsel_shm::{Ctx, Pid, RegAlloc, Snapshot, ThreadedShm, Word};
/// let mut alloc = RegAlloc::new();
/// let snap = Snapshot::new(&mut alloc, 2);
/// let mem = ThreadedShm::new(alloc.total(), 2);
/// let ctx = Ctx::new(&mem, Pid(0));
/// snap.update(ctx, 0, Word::Int(5))?;
/// let view = snap.scan(ctx)?;
/// assert_eq!(view[0], Word::Int(5));
/// assert_eq!(view[1], Word::Null);
/// # Ok::<(), exsel_shm::Crash>(())
/// ```
#[derive(Clone, Debug)]
pub struct Snapshot {
    regs: RegRange,
    arena: Arc<SnapArena>,
}

/// The sequence number of a raw snapshot-register word — the
/// *generation tag* of the component. `Null` (never written) is
/// generation 0; each update strictly increases it (SWMR discipline), so
/// equal tags mean the very same record.
fn seq_of(word: &Word) -> u64 {
    match word {
        Word::Null => 0,
        Word::Snap(rec) => rec.seq,
        other => panic!("snapshot register holds non-snapshot word {other:?}"),
    }
}

impl Snapshot {
    /// Reserves registers for an `n`-component snapshot object.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(alloc: &mut RegAlloc, n: usize) -> Self {
        assert!(n > 0, "snapshot object needs at least one component");
        Snapshot {
            regs: alloc.reserve(n),
            arena: Arc::new(SnapArena::new(n)),
        }
    }

    /// Toggles record/view recycling (on by default). With recycling
    /// off, every update installs a freshly allocated [`SnapRecord`] and
    /// every direct scan collects a fresh view — the pre-arena baseline,
    /// kept as the oracle for differential tests: both modes perform
    /// identical operation sequences and return value-identical views.
    /// The flag lives on the shared arena, so it also governs clones of
    /// this object and operations already begun.
    #[must_use]
    pub fn recycling(self, on: bool) -> Self {
        self.arena.set_recycling(on);
        self
    }

    /// The object's record/view recycling arena (telemetry and capacity
    /// inspection).
    #[must_use]
    pub fn arena(&self) -> &SnapArena {
        &self.arena
    }

    /// Number of components.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.regs.len()
    }

    /// Registers used by this object (for register accounting).
    #[must_use]
    pub fn registers(&self) -> RegRange {
        self.regs
    }

    /// Starts a poll-based scan.
    #[must_use]
    pub fn begin_scan(&self) -> ScanOp {
        ScanOp::new(self.regs, Arc::clone(&self.arena))
    }

    /// Starts a poll-based update of `slot` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn begin_update(&self, slot: usize, value: Word) -> UpdateOp {
        assert!(slot < self.num_slots(), "slot {slot} out of range");
        UpdateOp {
            regs: self.regs,
            slot,
            value,
            scan: self.begin_scan(),
            view: None,
            rec: None,
            state: UpdateState::Scanning,
        }
    }

    /// Blocking wait-free scan: returns a linearizable view of all
    /// components.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Crash`] if the process crashes mid-operation.
    pub fn scan(&self, ctx: Ctx<'_>) -> Step<Arc<[Word]>> {
        drive(&mut self.begin_scan(), ctx)
    }

    /// Blocking wait-free update of `slot` to `value`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Crash`] if the process crashes mid-operation.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn update(&self, ctx: Ctx<'_>, slot: usize, value: Word) -> Step<()> {
        drive(&mut self.begin_update(slot, value), ctx)
    }
}

/// In-progress poll-based scan — a [`StepMachine`] performing exactly one
/// shared-memory read per step.
///
/// Steady-state scans are allocation-free end to end: the collect
/// buffers are reused across rounds (and across trials via
/// [`StepMachine::reset`]); the scanner keeps each component's sequence
/// number — its *generation tag* — and value, not its record, so a
/// re-read whose tag matches costs one compare, a moved tag copies the
/// value, and no read clones or drops a record's `Arc`; and the view a
/// successful direct double-collect returns comes from the object's
/// [`SnapArena`] — a retired buffer refilled in place, or, when no
/// register changed since this scanner's previous direct scan, the
/// generation-tagged cached view itself (no refill, no allocation). The
/// only record part a scan pins is the embedded view it may borrow.
#[derive(Clone, Debug)]
pub struct ScanOp {
    regs: RegRange,
    /// The object's recycling arena (shared; also holds the never-written
    /// all-null view, allocated once per *object*).
    arena: Arc<SnapArena>,
    /// Whether at least one complete collect has finished.
    have_prev: bool,
    /// Whether a tag of the collect in progress differs from the
    /// previous collect's. A collect reads each component once and in
    /// order, so before slot `j` is read, `cur_seq[j]` is the previous
    /// collect's tag.
    collect_moved: bool,
    /// Generation tags of the collect in progress (the previous one's
    /// beyond `idx`).
    cur_seq: Vec<u64>,
    /// Values of the collect in progress, copied when a tag moves.
    cur_val: Vec<Word>,
    /// Next slot to read in the current collect.
    idx: usize,
    /// How many times each writer has been observed to move.
    moved: Vec<u8>,
    /// The embedded view of the lowest writer seen to move twice in the
    /// collect in progress: the view this scan returns when the collect
    /// ends without a clean double collect.
    borrow: Option<Arc<[Word]>>,
    /// Generation tags of the last direct view this scan returned (all 0
    /// = the initial all-null view, which `last_direct` starts as).
    direct_seq: Vec<u64>,
    /// The last direct view returned: re-returned as-is while no
    /// register's tag moves past `direct_seq`.
    last_direct: Arc<[Word]>,
}

impl ScanOp {
    fn new(regs: RegRange, arena: Arc<SnapArena>) -> Self {
        let n = regs.len();
        ScanOp {
            regs,
            have_prev: false,
            collect_moved: false,
            cur_seq: vec![0; n],
            cur_val: vec![Word::Null; n],
            idx: 0,
            moved: vec![0; n],
            borrow: None,
            direct_seq: vec![0; n],
            last_direct: Arc::clone(arena.initial_view()),
            arena,
        }
    }

    /// The view of a completed direct double-collect: the values of
    /// `cur_val`, materialized without allocating whenever the arena can
    /// serve the request — the cached previous direct view if no
    /// register changed since it was taken (same generation tags ⇒ the
    /// very same records ⇒ identical values, by the SWMR discipline), or
    /// a retired buffer refilled in place. Falls back to a fresh collect
    /// (arena miss, or recycling disabled) with identical contents.
    fn direct_view(&mut self) -> Arc<[Word]> {
        if !self.arena.recycling_enabled() {
            let view: Arc<[Word]> = self.cur_val.iter().cloned().collect();
            self.arena.put_view(&view, true);
            return view;
        }
        if self.cur_seq == self.direct_seq {
            self.arena.note_view_cache_hit();
            return Arc::clone(&self.last_direct);
        }
        let view = match self.arena.take_view() {
            Some(mut view) => {
                let buf = Arc::get_mut(&mut view).expect("taken view is uniquely owned");
                buf.clone_from_slice(&self.cur_val);
                self.arena.put_view(&view, false);
                view
            }
            None => {
                let view: Arc<[Word]> = self.cur_val.iter().cloned().collect();
                self.arena.put_view(&view, true);
                view
            }
        };
        self.direct_seq.copy_from_slice(&self.cur_seq);
        self.last_direct = Arc::clone(&view);
        view
    }

    fn n(&self) -> usize {
        self.regs.len()
    }

    /// The fewest reads a scan of `n` registers can complete in: `2n`.
    /// A scan returns only after a collect that has a predecessor — a
    /// clean double collect — or, to borrow a writer's view, after a
    /// third collect, and every collect reads all `n` registers.
    #[must_use]
    pub const fn min_ops(n: usize) -> u64 {
        2 * n as u64
    }

    /// Restarts the scan from its first collect **within the same
    /// trial**, allocation-free: the collect buffers are reused as-is,
    /// and the generation-tag cache (`cur_seq`, `cur_val`) is kept —
    /// writer sequence numbers only grow within a trial, so retained
    /// tags stay valid and quiescent registers still skip their value
    /// copies. This is the in-place counterpart of
    /// [`Snapshot::begin_scan`] for machines that scan many times per
    /// trial (the unbounded-naming acquire loop). Between trials use
    /// [`StepMachine::reset`] instead, which must drop the cache because
    /// writers' sequence numbers restart.
    pub fn restart(&mut self) {
        self.have_prev = false;
        self.collect_moved = false;
        self.idx = 0;
        self.moved.fill(0);
        self.borrow = None;
    }

    /// Performs one shared-memory read; returns the view when the scan
    /// completes. Equivalent to [`StepMachine::poll`] with an object-identity
    /// check against `snap`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Crash`] if the process crashes.
    ///
    /// # Panics
    ///
    /// Panics if `snap` is not the object this operation was started on or
    /// if called again after `Ready`.
    pub fn step(&mut self, snap: &Snapshot, ctx: Ctx<'_>) -> Step<Poll<Arc<[Word]>>> {
        assert_eq!(snap.regs, self.regs, "scan driven on a different object");
        self.poll(ctx)
    }
}

impl StepMachine for ScanOp {
    type Output = Arc<[Word]>;

    fn op(&self) -> ShmOp {
        ShmOp::Read(self.regs.get(self.idx))
    }

    fn peek(&self) -> (OpKind, RegId) {
        (OpKind::Read, self.regs.get(self.idx))
    }

    fn advance(&mut self, input: &Word) -> Poll<Arc<[Word]>> {
        let j = self.idx;
        // Generation-tagged read: copy the value only when the register
        // changed since this slot was last read.
        let seq = seq_of(input);
        if seq != self.cur_seq[j] {
            self.cur_seq[j] = seq;
            let rec = input.as_snap();
            self.cur_val[j] = rec.map_or(Word::Null, |rec| rec.value.clone());
            if self.have_prev {
                self.collect_moved = true;
                if self.moved[j] >= 1 && self.borrow.is_none() {
                    // Writer j completed an entire update inside our
                    // interval: its embedded view is a valid return.
                    let view = rec.map_or(self.arena.initial_view(), |rec| &rec.view);
                    self.borrow = Some(Arc::clone(view));
                }
                self.moved[j] = self.moved[j].saturating_add(1);
            }
        }
        self.idx += 1;
        if self.idx < self.n() {
            return Poll::Pending;
        }

        // A collect just completed.
        if self.have_prev {
            if !self.collect_moved {
                // Two identical consecutive collects: direct scan.
                return Poll::Ready(self.direct_view());
            }
            if let Some(view) = self.borrow.take() {
                // The lowest writer seen to move twice lends its view.
                return Poll::Ready(view);
            }
        }
        self.have_prev = true;
        self.collect_moved = false;
        self.idx = 0;
        Poll::Pending
    }

    fn reset(&mut self, _pid: Pid) {
        // Stale tags must go: a fresh trial restarts every writer's
        // sequence numbers, so a leftover tag could falsely match. The
        // direct-view cache resets to the initial all-null view for the
        // same reason (all-zero tags describe it exactly), which also
        // keeps the previous trial's values from ever escaping a reused
        // machine.
        self.restart();
        self.cur_seq.fill(0);
        self.cur_val.fill(Word::Null);
        self.direct_seq.fill(0);
        self.last_direct = Arc::clone(self.arena.initial_view());
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UpdateState {
    Scanning,
    ReadOwn,
    Write,
    Done,
}

/// In-progress poll-based update — a [`StepMachine`] performing exactly
/// one shared-memory operation per step. The embedded [`ScanOp`] is a
/// permanent field (not a state payload) so [`StepMachine::reset`]
/// re-arms the update without reallocating the collect buffers; the
/// installed [`SnapRecord`] itself comes from the object's
/// [`SnapArena`] — a displaced record, reclaimed once its register and
/// its update have let go of it, mutated in place under `Arc`
/// uniqueness — so at steady state even the record install touches no
/// allocator.
#[derive(Clone, Debug)]
pub struct UpdateOp {
    regs: RegRange,
    slot: usize,
    value: Word,
    scan: ScanOp,
    /// The view captured when the embedded scan completed.
    view: Option<Arc<[Word]>>,
    /// The record to install, built after the own-register read.
    rec: Option<Arc<SnapRecord>>,
    state: UpdateState,
}

impl UpdateOp {
    /// The fewest operations an update of an `n`-register snapshot can
    /// complete in: `2n + 2` — the embedded scan ([`ScanOp::min_ops`]),
    /// then one read of the own register and the write.
    #[must_use]
    pub const fn min_ops(n: usize) -> u64 {
        ScanOp::min_ops(n) + 2
    }

    /// Re-arms this operation in place as a fresh update of `slot` to
    /// `value` **within the same trial** — the allocation-free
    /// counterpart of [`Snapshot::begin_update`] for machines that
    /// update many times per trial. The embedded scan keeps its collect
    /// buffers and generation-tag caches (see [`ScanOp::restart`]), and
    /// the installed record is reclaimed from the object's [`SnapArena`]
    /// whenever a displaced one has become uniquely owned — at steady
    /// state a re-armed update allocates nothing at all. Dropping the
    /// previous record handle here never frees it: the arena keeps
    /// every installed record reclaimable.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn rearm(&mut self, slot: usize, value: Word) {
        assert!(slot < self.regs.len(), "slot {slot} out of range");
        self.slot = slot;
        self.value = value;
        self.scan.restart();
        self.view = None;
        self.rec = None;
        self.state = UpdateState::Scanning;
    }

    /// Performs one shared-memory operation; returns `Ready` when the
    /// update has been installed. Equivalent to [`StepMachine::poll`] with
    /// an object-identity check against `snap`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Crash`] if the process crashes.
    ///
    /// # Panics
    ///
    /// Panics if `snap` is not the object this operation was started on or
    /// if called again after `Ready`.
    pub fn step(&mut self, snap: &Snapshot, ctx: Ctx<'_>) -> Step<Poll<()>> {
        assert_eq!(snap.regs, self.regs, "update driven on a different object");
        self.poll(ctx)
    }
}

impl StepMachine for UpdateOp {
    type Output = ();

    fn op(&self) -> ShmOp {
        match self.state {
            UpdateState::Scanning => self.scan.op(),
            UpdateState::ReadOwn => ShmOp::Read(self.regs.get(self.slot)),
            UpdateState::Write => ShmOp::Write(
                self.regs.get(self.slot),
                Word::Snap(Arc::clone(self.rec.as_ref().expect("record built"))),
            ),
            UpdateState::Done => panic!("update driven after completion"),
        }
    }

    fn peek(&self) -> (OpKind, RegId) {
        // The pending write is inspected by schedulers on every decision;
        // describing it without materializing the word skips the record's
        // Arc clone in `op()`.
        match self.state {
            UpdateState::Scanning => self.scan.peek(),
            UpdateState::ReadOwn => (OpKind::Read, self.regs.get(self.slot)),
            UpdateState::Write => (OpKind::Write, self.regs.get(self.slot)),
            UpdateState::Done => panic!("update driven after completion"),
        }
    }

    fn advance(&mut self, input: &Word) -> Poll<()> {
        match self.state {
            UpdateState::Scanning => {
                if let Poll::Ready(view) = self.scan.advance(input) {
                    self.view = Some(view);
                    self.state = UpdateState::ReadOwn;
                }
                Poll::Pending
            }
            UpdateState::ReadOwn => {
                // One read of our own register to learn our sequence number
                // (each slot is single-writer, so no one else bumps it).
                let seq = seq_of(input) + 1;
                let view = self.view.take().expect("scan completed");
                let arena = &self.scan.arena;
                let (rec, fresh) = match arena.take_record() {
                    Some(mut rec) => {
                        // Uniquely owned: mutating in place is invisible
                        // to every reader by construction. Replacing the
                        // record's old view drops one ref; the arena
                        // keeps the buffer for a future direct scan.
                        let slot = Arc::get_mut(&mut rec).expect("taken record is uniquely owned");
                        slot.seq = seq;
                        slot.value.clone_from(&self.value);
                        slot.view = view;
                        (rec, false)
                    }
                    None => (
                        Arc::new(SnapRecord {
                            seq,
                            value: self.value.clone(),
                            view,
                        }),
                        true,
                    ),
                };
                arena.put_record(&rec, fresh);
                self.rec = Some(rec);
                self.state = UpdateState::Write;
                Poll::Pending
            }
            UpdateState::Write => {
                self.state = UpdateState::Done;
                Poll::Ready(())
            }
            UpdateState::Done => panic!("update driven after completion"),
        }
    }

    fn reset(&mut self, pid: Pid) {
        self.scan.reset(pid);
        self.view = None;
        self.rec = None;
        self.state = UpdateState::Scanning;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pid, ThreadedShm};

    fn setup(n_slots: usize, n_procs: usize) -> (Snapshot, ThreadedShm) {
        let mut alloc = RegAlloc::new();
        let snap = Snapshot::new(&mut alloc, n_slots);
        let mem = ThreadedShm::new(alloc.total(), n_procs);
        (snap, mem)
    }

    #[test]
    fn empty_scan_is_all_null() {
        let (snap, mem) = setup(3, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let view = snap.scan(ctx).unwrap();
        assert_eq!(view.len(), 3);
        assert!(view.iter().all(Word::is_null));
    }

    #[test]
    fn update_then_scan_sees_value() {
        let (snap, mem) = setup(2, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        snap.update(ctx, 1, Word::Int(9)).unwrap();
        let view = snap.scan(ctx).unwrap();
        assert_eq!(view[0], Word::Null);
        assert_eq!(view[1], Word::Int(9));
    }

    /// A solo scan and a solo update meet their minima exactly, so the
    /// minima are tight.
    #[test]
    fn solo_scan_and_update_take_their_minimum_ops() {
        for n in 1..=6 {
            let (snap, mem) = setup(n, 1);
            let ctx = Ctx::new(&mem, Pid(0));
            drive(&mut snap.begin_update(0, Word::Int(1)), ctx).unwrap();
            assert_eq!(ctx.steps(), UpdateOp::min_ops(n), "update, n = {n}");
            drive(&mut snap.begin_scan(), ctx).unwrap();
            assert_eq!(
                ctx.steps(),
                UpdateOp::min_ops(n) + ScanOp::min_ops(n),
                "scan, n = {n}"
            );
        }
    }

    #[test]
    fn sequence_numbers_increase() {
        let (snap, mem) = setup(1, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        for i in 0..5 {
            snap.update(ctx, 0, Word::Int(i)).unwrap();
        }
        let rec = ctx.read(snap.registers().get(0)).unwrap();
        assert_eq!(rec.as_snap().unwrap().seq, 5);
    }

    #[test]
    fn scans_are_comparable_under_concurrency() {
        // The defining property of an atomic snapshot: all returned views
        // are totally ordered componentwise (each component's values are
        // monotone per writer).
        const PROCS: usize = 4;
        const OPS: u64 = 60;
        let (snap, mem) = setup(PROCS, PROCS);
        let views: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..PROCS)
                .map(|p| {
                    let snap = &snap;
                    let mem = &mem;
                    s.spawn(move || {
                        let ctx = Ctx::new(mem, Pid(p));
                        let mut out = Vec::new();
                        for i in 1..=OPS {
                            snap.update(ctx, p, Word::Int(i)).unwrap();
                            let view = snap.scan(ctx).unwrap();
                            out.push(
                                view.iter()
                                    .map(|w| w.as_int().unwrap_or(0))
                                    .collect::<Vec<u64>>(),
                            );
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<Vec<u64>> = views.into_iter().flatten().collect();
        all.sort();
        for pair in all.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.iter().zip(b).all(|(x, y)| x <= y),
                "views not comparable: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn scan_includes_own_completed_update() {
        let (snap, mem) = setup(2, 2);
        std::thread::scope(|s| {
            for p in 0..2 {
                let snap = &snap;
                let mem = &mem;
                s.spawn(move || {
                    let ctx = Ctx::new(mem, Pid(p));
                    for i in 1..=40u64 {
                        snap.update(ctx, p, Word::Int(i)).unwrap();
                        let view = snap.scan(ctx).unwrap();
                        let mine = view[p].as_int().unwrap();
                        assert!(mine >= i, "scan missed own update: {mine} < {i}");
                    }
                });
            }
        });
    }

    #[test]
    fn poll_scan_one_op_per_step() {
        let (snap, mem) = setup(3, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut op = snap.begin_scan();
        let mut steps = 0;
        loop {
            let before = ctx.steps();
            let poll = op.step(&snap, ctx).unwrap();
            assert_eq!(ctx.steps(), before + 1, "exactly one shm op per step call");
            steps += 1;
            if poll.ready().is_some() {
                break;
            }
        }
        // Quiescent scan: exactly two collects of 3 reads each.
        assert_eq!(steps, 6);
    }

    #[test]
    fn poll_update_one_op_per_step() {
        let (snap, mem) = setup(2, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut op = snap.begin_update(0, Word::Int(3));
        loop {
            let before = ctx.steps();
            let poll = op.step(&snap, ctx).unwrap();
            assert_eq!(ctx.steps(), before + 1);
            if poll.ready().is_some() {
                break;
            }
        }
        let view = snap.scan(ctx).unwrap();
        assert_eq!(view[0], Word::Int(3));
    }

    #[test]
    fn ops_describe_reads_then_the_final_write() {
        // The step-machine face: a quiescent update is 2 collect reads +
        // 1 own-read + 1 write, every one announced by `op()` beforehand.
        let (snap, mem) = setup(1, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut op = snap.begin_update(0, Word::Int(8));
        let mut kinds = Vec::new();
        loop {
            kinds.push(op.op().kind());
            if op.poll(ctx).unwrap().ready().is_some() {
                break;
            }
        }
        use crate::OpKind::{Read, Write};
        assert_eq!(kinds, vec![Read, Read, Read, Write]);
    }

    #[test]
    fn restarted_scan_performs_a_fresh_scans_op_sequence() {
        let (snap, mem) = setup(3, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut op = snap.begin_scan();
        assert_eq!(drive(&mut op, ctx).unwrap().len(), 3);
        let steps_fresh = ctx.steps();
        op.restart();
        // Same quiescent memory ⇒ same 2-collect scan, same view.
        let view = drive(&mut op, ctx).unwrap();
        assert_eq!(ctx.steps() - steps_fresh, steps_fresh);
        assert!(view.iter().all(Word::is_null));
    }

    #[test]
    fn rearmed_update_matches_fresh_update_op_sequence() {
        let (snap, mem) = setup(2, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut fresh = snap.begin_update(0, Word::Int(1));
        drive(&mut fresh, ctx).unwrap();
        let first = ctx.steps();
        // Re-arm the spent op for slot 1 and drive it like a new update.
        fresh.rearm(1, Word::Int(2));
        drive(&mut fresh, ctx).unwrap();
        assert_eq!(ctx.steps(), 2 * first);
        let view = snap.scan(ctx).unwrap();
        assert_eq!(&view[..], &[Word::Int(1), Word::Int(2)]);
    }

    #[test]
    #[should_panic(expected = "slot 7 out of range")]
    fn rearm_slot_out_of_range() {
        let (snap, _mem) = setup(2, 1);
        let mut op = snap.begin_update(0, Word::Null);
        op.rearm(7, Word::Null);
    }

    #[test]
    #[should_panic(expected = "slot 5 out of range")]
    fn update_slot_out_of_range() {
        let (snap, _mem) = setup(2, 1);
        let _ = snap.begin_update(5, Word::Null);
    }

    #[test]
    #[should_panic(expected = "different object")]
    fn step_checks_object_identity() {
        let mut alloc = RegAlloc::new();
        let a = Snapshot::new(&mut alloc, 2);
        let b = Snapshot::new(&mut alloc, 2);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let mut op = a.begin_scan();
        let _ = op.step(&b, Ctx::new(&mem, Pid(0)));
    }

    #[test]
    fn rearmed_updates_recycle_records_and_views() {
        let (snap, mem) = setup(2, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut op = snap.begin_update(0, Word::Int(1));
        drive(&mut op, ctx).unwrap();
        // Warm up: a few re-armed updates retire displaced records into
        // the arena and let the scanner caches move past them.
        for i in 2..6u64 {
            op.rearm(0, Word::Int(i));
            drive(&mut op, ctx).unwrap();
        }
        let before = snap.arena().stats();
        assert!(before.records_fresh > 0, "fresh installs counted");
        for i in 6..12u64 {
            op.rearm(0, Word::Int(i));
            drive(&mut op, ctx).unwrap();
        }
        let after = snap.arena().stats().since(&before);
        assert_eq!(
            after.fresh_allocations(),
            0,
            "steady-state re-armed updates must allocate nothing: {after:?}"
        );
        assert!(after.records_recycled >= 6);
        let view = snap.scan(ctx).unwrap();
        assert_eq!(&view[..], &[Word::Int(11), Word::Null]);
    }

    #[test]
    fn unchanged_registers_serve_the_cached_direct_view() {
        let (snap, mem) = setup(3, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        snap.update(ctx, 1, Word::Int(4)).unwrap();
        let mut op = snap.begin_scan();
        let first = drive(&mut op, ctx).unwrap();
        let hits = snap.arena().stats().view_cache_hits;
        op.restart();
        let second = drive(&mut op, ctx).unwrap();
        // No register moved: the very same view comes back, no refill.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(snap.arena().stats().view_cache_hits, hits + 1);
        // A write invalidates the cache; the next direct view differs.
        snap.update(ctx, 2, Word::Int(9)).unwrap();
        op.restart();
        let third = drive(&mut op, ctx).unwrap();
        assert!(!Arc::ptr_eq(&second, &third));
        assert_eq!(&third[..], &[Word::Null, Word::Int(4), Word::Int(9)]);
    }

    #[test]
    fn recycling_off_is_the_frozen_baseline() {
        let (snap, mem) = setup(2, 1);
        let snap = snap.recycling(false);
        assert!(!snap.arena().recycling_enabled());
        let ctx = Ctx::new(&mem, Pid(0));
        let mut op = snap.begin_update(0, Word::Int(1));
        drive(&mut op, ctx).unwrap();
        for i in 2..6u64 {
            op.rearm(0, Word::Int(i));
            drive(&mut op, ctx).unwrap();
        }
        let stats = snap.arena().stats();
        assert_eq!(stats.records_recycled + stats.views_recycled, 0);
        assert_eq!(stats.records_fresh, 5, "one fresh record per update");
        assert_eq!(snap.arena().cached_records(), 0, "baseline tracks nothing");
        // Both modes return the same values.
        let view = snap.scan(ctx).unwrap();
        assert_eq!(&view[..], &[Word::Int(5), Word::Null]);
    }

    #[test]
    fn recycled_views_are_value_identical_to_fresh_ones() {
        // Drive the same update/scan sequence against a recycling and a
        // non-recycling object over identical layouts: every returned
        // view must match by value.
        let run = |recycle: bool| -> Vec<Vec<Word>> {
            let mut alloc = RegAlloc::new();
            let snap = Snapshot::new(&mut alloc, 2).recycling(recycle);
            let mem = ThreadedShm::new(alloc.total(), 2);
            let ctx = Ctx::new(&mem, Pid(0));
            let mut views = Vec::new();
            let mut update = snap.begin_update(0, Word::Int(1));
            drive(&mut update, ctx).unwrap();
            let mut scan = snap.begin_scan();
            for i in 0..8u64 {
                update.rearm((i % 2) as usize, Word::Int(10 + i));
                drive(&mut update, ctx).unwrap();
                scan.restart();
                views.push(drive(&mut scan, ctx).unwrap().to_vec());
            }
            views
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn reset_scan_does_not_leak_the_previous_trials_view() {
        // Pool reuse: after reset(pid) the cached direct view must be
        // the initial all-null view again, not the old trial's values —
        // the registers of a new trial restart at Null with tag 0.
        let (snap, mem) = setup(2, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        snap.update(ctx, 0, Word::Int(7)).unwrap();
        let mut op = snap.begin_scan();
        assert_eq!(drive(&mut op, ctx).unwrap()[0], Word::Int(7));
        op.reset(Pid(0));
        // Fresh "trial" memory: all registers Null again.
        let mem2 = ThreadedShm::new(snap.registers().len(), 1);
        let ctx2 = Ctx::new(&mem2, Pid(0));
        let view = drive(&mut op, ctx2).unwrap();
        assert!(view.iter().all(Word::is_null), "leaked {view:?}");
    }

    #[test]
    fn crash_mid_scan_propagates() {
        let (snap, mem) = setup(2, 1);
        let ctx = Ctx::new(&mem, Pid(0));
        mem.crash(Pid(0));
        assert!(snap.scan(ctx).is_err());
        assert!(snap.update(ctx, 0, Word::Int(1)).is_err());
    }
}
