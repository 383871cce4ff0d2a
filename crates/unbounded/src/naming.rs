//! `Unbounded-Naming` — Theorem 10: processes repeatedly claim nonnegative
//! integers exclusively, leaving at most `n−1` integers forever
//! unassigned (non-blocking form).
//!
//! Unlike depositing, an abstract name leaves no record in a dedicated
//! register, so availability is tracked in *published* per-process suites
//! `B_p` of `2n` registers holding the list `L_p` and the pointer `A_p`:
//! integer `i` is **available according to `p`** iff `i` is on `L_p` or
//! `i ≥ A_p`. A process commits to a candidate `i` only while `i` sits
//! uniquely in its component of the snapshot `W` *and* every `B_q` says
//! `i` is available; committing removes `i` from the process's own
//! published list before `W` is released, which is what makes claims
//! mutually exclusive (any later claimant scans `W` after our release and
//! therefore reads our updated `B`).
//!
//! The acquire operation is exposed both blocking
//! ([`UnboundedNaming::acquire`]) and as a poll-based state machine
//! ([`AcquireOp`], exactly one shared-memory operation per
//! [`AcquireOp::step`]) so that `Altruistic-Deposit` can interleave it
//! with its column scan at event granularity, as §5 prescribes.

use exsel_shm::snapshot::{Poll, ScanOp, UpdateOp};
use exsel_shm::{
    Ctx, OpKind, Pid, RegAlloc, RegId, RegRange, ShmOp, Snapshot, Step, StepMachine, Word,
};

/// The non-blocking unbounded naming object.
#[derive(Clone, Debug)]
pub struct UnboundedNaming {
    n: usize,
    w: Snapshot,
    /// `b[p]` is process `p`'s suite: register 0 holds `A_p`, registers
    /// `1..2n` hold the list slots (`Int(v)` an entry, `Int(0)` an empty
    /// slot; `Null` means "never published", defaulting to the initial
    /// list `L_p = {1..2n−1}`, `A_p = 2n`).
    b: Vec<RegRange>,
}

/// Per-process local naming state.
#[derive(Clone, Debug)]
pub struct NamerState {
    /// Whether the initial `B_p` publication has happened.
    published: bool,
    /// `slots[j]` mirrors `B_p[j+1]`: a list entry, or 0 if empty.
    slots: Vec<u64>,
    /// `A_p`.
    next_fresh: u64,
}

impl NamerState {
    /// The current list `L_p`, sorted ascending.
    #[must_use]
    pub fn list(&self) -> Vec<u64> {
        let mut l = Vec::new();
        self.fill_list_sorted(&mut l);
        l
    }

    /// Fills `buf` with the current list `L_p`, sorted ascending —
    /// the allocation-free form of [`NamerState::list`] for hot retry
    /// paths (the buffer is cleared and reused; `sort_unstable` is
    /// in-place).
    pub fn fill_list_sorted(&self, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend(self.slots.iter().copied().filter(|&v| v != 0));
        buf.sort_unstable();
    }

    /// The fresh pointer `A_p`.
    #[must_use]
    pub fn next_fresh(&self) -> u64 {
        self.next_fresh
    }

    /// Smallest candidate on the list.
    fn smallest(&self) -> u64 {
        self.slots
            .iter()
            .copied()
            .filter(|&v| v != 0)
            .min()
            .expect("list never empties: every removal refills")
    }

    /// Re-initializes to the pre-publication state in place, keeping the
    /// list buffer's capacity (used by pooled [`NamingMachine`]s).
    pub fn reset(&mut self, n: usize) {
        self.published = false;
        self.slots.clear();
        self.slots.extend(1..=2 * n as u64 - 1);
        self.next_fresh = 2 * n as u64;
    }

    /// Marks the published suite `B_p` stale so the next acquire
    /// republishes it from the current local state — the crash-recovery
    /// hook: a process re-entering after a crash may have lost suite
    /// writes (a pruned or committed slot whose `A_p` advance never
    /// landed), and republication restores `published == local` before
    /// the fresh incarnation contends. The local state itself is kept:
    /// resetting it would put claimed integers back on the list and
    /// break exclusiveness.
    pub(crate) fn unpublish(&mut self) {
        self.published = false;
    }

    /// The slot index (0-based into `slots`) holding `value`.
    fn slot_of(&self, value: u64) -> usize {
        self.slots
            .iter()
            .position(|&v| v == value)
            .expect("value is on the list")
    }
}

impl UnboundedNaming {
    /// Builds a naming object for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(alloc: &mut RegAlloc, n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        UnboundedNaming {
            n,
            w: Snapshot::new(alloc, n),
            b: (0..n).map(|_| alloc.reserve(2 * n)).collect(),
        }
    }

    /// System size `n`.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Initial local state.
    #[must_use]
    pub fn namer_state(&self) -> NamerState {
        NamerState {
            published: false,
            slots: (1..=2 * self.n as u64 - 1).collect(),
            next_fresh: 2 * self.n as u64,
        }
    }

    /// The fewest shared-memory operations an acquire over a published
    /// suite can complete in: `5n + 3`. It announces the candidate with
    /// a snapshot update ([`UpdateOp::min_ops`], `2n + 2`), scans `W`
    /// ([`ScanOp::min_ops`], `2n`), reads at least `A_q` of each of the
    /// `n − 1` other suites (Theorem 10's availability check), then
    /// commits with two suite writes. An unpublished suite adds its `2n`
    /// publication writes, and every retry adds a further update and
    /// scan.
    #[must_use]
    pub fn min_acquire_ops(&self) -> u64 {
        let n = self.n;
        UpdateOp::min_ops(n) + ScanOp::min_ops(n) + (n as u64 - 1) + 2
    }

    /// Registers used: `n` snapshot components plus `2n` per process.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.w.registers().len() + self.b.iter().map(RegRange::len).sum::<usize>()
    }

    /// The snapshot object `W` (introspection — e.g. reading its
    /// record-recycling arena telemetry after a sweep).
    #[must_use]
    pub fn snapshot(&self) -> &Snapshot {
        &self.w
    }

    /// Pre-seeds `W`'s recycling arena with every buffer its holders
    /// can pin at once, so no update or scan ever misses the arena —
    /// not even a contention excursion deep into a run.
    ///
    /// The bound assumes each process drives one [`AcquireOp`] at a
    /// time, as a [`NamingMachine`] or an altruistic depositor state
    /// does. An `AcquireOp` owns one `UpdateOp` (with an embedded scan)
    /// and one `ScanOp`. A scan keeps tags and values, not records, so
    /// the holders are:
    ///
    /// - records: the `n` registers and one pending record per update —
    ///   `2n`;
    /// - views: one embedded in each of those records (`2n`), plus each
    ///   scan's last direct view (`2n`) and borrowed view (`2n`) and each
    ///   update's captured view (`n`) — `7n`.
    ///
    /// [`SnapArena::reserve`](exsel_shm::SnapArena::reserve) tracks each
    /// reserved record's embedded view itself, so only the `5n` views
    /// outside records are requested separately. `ARCHITECTURE.md`
    /// derives why no transient needs a spare buffer.
    pub fn reserve_snapshot_buffers(&self) {
        let n = self.n;
        self.w.arena().reserve(2 * n, 5 * n);
    }

    /// Starts a poll-based acquire for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is beyond the system size.
    #[must_use]
    pub fn begin_acquire(&self, pid: Pid, st: &NamerState) -> AcquireOp {
        let slot = pid.0;
        assert!(slot < self.n, "pid {pid} beyond system size {}", self.n);
        let candidate = st.smallest();
        AcquireOp {
            slot,
            candidate,
            update: self.w.begin_update(slot, Word::Int(candidate)),
            scan: self.w.begin_scan(),
            state: if st.published {
                AcqState::Update
            } else {
                AcqState::Publish { idx: 0 }
            },
            // Scratch at its structural bounds up front (the list holds
            // 2n−1 entries, the published set one per view slot), so the
            // contention path never grows them mid-run — a machine whose
            // first contended acquire lands hours in stays zero-alloc.
            list_scratch: Vec::with_capacity(2 * self.n),
            published_scratch: Vec::with_capacity(self.n),
        }
    }

    /// Starts the acquire loop of process `pid` as a self-contained
    /// [`StepMachine`] owning its [`NamerState`]: the machine claims
    /// `rounds` integers and completes with the last one (all of them are
    /// readable through [`NamingMachine::names`]). Resettable, so one
    /// pool of naming machines serves a whole seed sweep.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `pid` is beyond the system size.
    #[must_use]
    pub fn begin_machine(&self, pid: Pid, rounds: usize) -> NamingMachine<'_> {
        assert!(rounds > 0, "need at least one acquire round");
        let st = self.namer_state();
        let acquire = self.begin_acquire(pid, &st);
        NamingMachine {
            naming: self,
            pid,
            st,
            acquire,
            names: Vec::with_capacity(rounds),
            rounds,
        }
    }

    /// Blocking acquire: claims and returns the next integer, exclusively
    /// and forever.
    ///
    /// # Errors
    ///
    /// Returns [`exsel_shm::Crash`] if the process crashes mid-operation.
    pub fn acquire(&self, ctx: Ctx<'_>, st: &mut NamerState) -> Step<u64> {
        let mut op = self.begin_acquire(ctx.pid(), st);
        loop {
            if let Poll::Ready(name) = op.step(self, ctx, st)? {
                return Ok(name);
            }
        }
    }

    /// Interprets a `B_q` register read: `Null` defaults to the initial
    /// publication.
    fn b_default(reg_index: usize, w: &Word) -> u64 {
        match w.as_int() {
            Some(v) => v,
            None => {
                if reg_index == 0 {
                    u64::MAX // placeholder, resolved by caller knowing n
                } else {
                    reg_index as u64 // initial list entry j at slot j
                }
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum AcqState {
    /// First-time publication of `B_p` (one write per step).
    Publish {
        idx: usize,
    },
    /// Driving the owned snapshot update (announce the candidate in `W`).
    Update,
    /// Driving the owned snapshot scan of `W`.
    Scan,
    /// Availability check: read `B_q[0] = A_q`.
    CheckA {
        q: usize,
    },
    /// Availability check: scan `B_q`'s slots for the candidate.
    CheckSlots {
        q: usize,
        j: usize,
    },
    /// Prune an unavailable candidate: overwrite its published slot with a
    /// fresh value.
    PruneSlot,
    /// After pruning, publish the advanced `A_p`.
    PruneAdvanceA,
    /// Commit: overwrite the candidate's published slot with a fresh
    /// value (removing the candidate from the list makes it unavailable).
    CommitSlot,
    /// Publish the advanced `A_p`, then the acquire is complete.
    CommitAdvanceA {
        name: u64,
    },
    Done,
}

/// In-progress poll-based acquire; each [`AcquireOp::step`] performs
/// exactly one shared-memory operation. Internally in announce-first
/// form: a pure `describe` names the next operation, and the
/// transition consumes its result — which is what lets
/// [`NamingMachine`] (and the deposit machines built on top) expose the
/// same loop as a [`StepMachine`] with an identical operation sequence.
///
/// The snapshot update and scan are owned as permanent fields and
/// re-armed in place ([`UpdateOp::rearm`], [`ScanOp::restart`]) rather
/// than rebuilt per transition, so one pooled `AcquireOp` drives any
/// number of acquisitions without reallocating its collect buffers.
#[derive(Clone, Debug)]
pub struct AcquireOp {
    slot: usize,
    candidate: u64,
    update: UpdateOp,
    scan: ScanOp,
    state: AcqState,
    /// Scratch for the contention path (`choose_by_rank`): the sorted
    /// list, reused so retries allocate nothing at steady state.
    list_scratch: Vec<u64>,
    /// Scratch for the published-candidate set of `choose_by_rank`.
    published_scratch: Vec<u64>,
}

impl AcquireOp {
    /// The process slot this operation was constructed for.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// Re-arms the spent (or mid-flight) operation in place as a fresh
    /// acquire for the same process over the current local state —
    /// the allocation-free counterpart of
    /// [`UnboundedNaming::begin_acquire`] for pooled machines.
    pub(crate) fn rearm(&mut self, st: &NamerState) {
        self.candidate = st.smallest();
        if st.published {
            self.update.rearm(self.slot, Word::Int(self.candidate));
            self.state = AcqState::Update;
        } else {
            self.state = AcqState::Publish { idx: 0 };
        }
    }

    /// Cross-trial re-initialization for pooled machines: drops the
    /// snapshot generation-tag caches (register sequence numbers restart
    /// with the bank), then re-arms over the freshly reset `st`.
    pub(crate) fn reset_trial(&mut self, st: &NamerState) {
        self.update.reset(Pid(self.slot));
        self.scan.reset(Pid(self.slot));
        self.rearm(st);
    }

    /// The next shared-memory operation, derived purely from the local
    /// state `st`.
    ///
    /// # Panics
    ///
    /// Panics if the acquire already completed.
    pub(crate) fn describe(&self, naming: &UnboundedNaming, st: &NamerState) -> ShmOp {
        // Only the suite writes load the own suite `B_p`: scan and update
        // ops, the bulk of an acquire, skip that bounds-checked load.
        match &self.state {
            AcqState::Publish { idx } => {
                let value = if *idx == 0 {
                    st.next_fresh
                } else {
                    st.slots[*idx - 1]
                };
                ShmOp::Write(naming.b[self.slot].get(*idx), Word::Int(value))
            }
            AcqState::Update => self.update.op(),
            AcqState::Scan => self.scan.op(),
            AcqState::CheckA { q } => ShmOp::Read(naming.b[*q].get(0)),
            AcqState::CheckSlots { q, j } => ShmOp::Read(naming.b[*q].get(*j)),
            AcqState::PruneSlot | AcqState::CommitSlot => {
                let j = st.slot_of(self.candidate);
                ShmOp::Write(naming.b[self.slot].get(j + 1), Word::Int(st.next_fresh))
            }
            AcqState::PruneAdvanceA | AcqState::CommitAdvanceA { .. } => {
                ShmOp::Write(naming.b[self.slot].get(0), Word::Int(st.next_fresh))
            }
            AcqState::Done => panic!("acquire driven after completion"),
        }
    }

    /// [`AcquireOp::describe`] without materializing the operand word —
    /// delegates to the owned snapshot ops' `peek` in the update state,
    /// where `op()` would clone the pending record's `Arc`.
    pub(crate) fn peek_op(&self, naming: &UnboundedNaming, st: &NamerState) -> (OpKind, RegId) {
        match self.state {
            AcqState::Update => self.update.peek(),
            AcqState::Scan => self.scan.peek(),
            _ => {
                let op = self.describe(naming, st);
                (op.kind(), op.reg())
            }
        }
    }

    /// Consumes the result of the operation last described and
    /// transitions; `Ready(name)` when the claim committed.
    pub(crate) fn consume(
        &mut self,
        naming: &UnboundedNaming,
        st: &mut NamerState,
        input: &Word,
    ) -> Poll<u64> {
        match &mut self.state {
            AcqState::Publish { idx } => {
                let i = *idx;
                if i + 1 < naming.b[self.slot].len() {
                    self.state = AcqState::Publish { idx: i + 1 };
                } else {
                    st.published = true;
                    self.update.rearm(self.slot, Word::Int(self.candidate));
                    self.state = AcqState::Update;
                }
                Poll::Pending
            }
            AcqState::Update => {
                if let Poll::Ready(()) = self.update.advance(input) {
                    self.scan.restart();
                    self.state = AcqState::Scan;
                }
                Poll::Pending
            }
            AcqState::Scan => {
                if let Poll::Ready(view) = self.scan.advance(input) {
                    let unique = view
                        .iter()
                        .enumerate()
                        .all(|(q, w)| q == self.slot || w.as_int() != Some(self.candidate));
                    if unique {
                        // Availability check, skipping ourselves.
                        let q = usize::from(self.slot == 0);
                        self.state = if q >= naming.n {
                            // Single-process system: commit directly.
                            AcqState::CommitSlot
                        } else {
                            AcqState::CheckA { q }
                        };
                    } else {
                        st.fill_list_sorted(&mut self.list_scratch);
                        self.candidate = choose_by_rank(
                            &view,
                            self.slot,
                            &self.list_scratch,
                            &mut self.published_scratch,
                        );
                        self.update.rearm(self.slot, Word::Int(self.candidate));
                        self.state = AcqState::Update;
                    }
                }
                Poll::Pending
            }
            AcqState::CheckA { q } => {
                let q = *q;
                let a_q = match input.as_int() {
                    Some(v) => v,
                    None => 2 * naming.n as u64, // never published: initial A
                };
                if self.candidate >= a_q {
                    // Available according to q by the fresh-frontier rule.
                    self.advance_check(naming, q);
                } else {
                    self.state = AcqState::CheckSlots { q, j: 1 };
                }
                Poll::Pending
            }
            AcqState::CheckSlots { q, j } => {
                let (q, j) = (*q, *j);
                let entry = UnboundedNaming::b_default(j, input);
                if entry == self.candidate {
                    // On q's list: available according to q.
                    self.advance_check(naming, q);
                } else if j + 1 < naming.b[q].len() {
                    self.state = AcqState::CheckSlots { q, j: j + 1 };
                } else {
                    // Unavailable: someone claimed it. Prune and retry.
                    self.state = AcqState::PruneSlot;
                }
                Poll::Pending
            }
            AcqState::PruneSlot => {
                let fresh = st.next_fresh;
                let j = st.slot_of(self.candidate);
                st.slots[j] = fresh;
                st.next_fresh += 1;
                self.state = AcqState::PruneAdvanceA;
                Poll::Pending
            }
            AcqState::PruneAdvanceA => {
                self.candidate = st.smallest();
                self.update.rearm(self.slot, Word::Int(self.candidate));
                self.state = AcqState::Update;
                Poll::Pending
            }
            AcqState::CommitSlot => {
                // Replace the candidate's published slot with a fresh
                // value: one atomic write removes the candidate from our
                // list (making it globally unavailable) and refills.
                let fresh = st.next_fresh;
                let j = st.slot_of(self.candidate);
                st.slots[j] = fresh;
                st.next_fresh += 1;
                self.state = AcqState::CommitAdvanceA {
                    name: self.candidate,
                };
                Poll::Pending
            }
            AcqState::CommitAdvanceA { name } => {
                let name = *name;
                self.state = AcqState::Done;
                Poll::Ready(name)
            }
            AcqState::Done => panic!("acquire driven after completion"),
        }
    }

    /// Performs one shared-memory operation; `Ready(name)` when the claim
    /// committed.
    ///
    /// # Errors
    ///
    /// Returns [`exsel_shm::Crash`] if the process crashes.
    ///
    /// # Panics
    ///
    /// Panics if driven after completion.
    pub fn step(
        &mut self,
        naming: &UnboundedNaming,
        ctx: Ctx<'_>,
        st: &mut NamerState,
    ) -> Step<Poll<u64>> {
        debug_assert_eq!(
            ctx.pid().0,
            self.slot,
            "acquire driven by a different process"
        );
        match self.describe(naming, st) {
            ShmOp::Read(reg) => {
                let value = ctx.read(reg)?;
                Ok(self.consume(naming, st, &value))
            }
            ShmOp::Write(reg, word) => {
                ctx.write(reg, word)?;
                Ok(self.consume(naming, st, &Word::Null))
            }
        }
    }

    /// Moves the availability check to the next process, or to commit if
    /// everyone has been checked.
    fn advance_check(&mut self, naming: &UnboundedNaming, q: usize) {
        let mut next = q + 1;
        if next == self.slot {
            next += 1;
        }
        self.state = if next >= naming.n {
            AcqState::CommitSlot
        } else {
            AcqState::CheckA { q: next }
        };
    }
}

/// The acquire loop of one process as a self-contained, resettable
/// [`StepMachine`] — the pooled form `MachineSet` and the grid driver
/// run on the step engine. See [`UnboundedNaming::begin_machine`].
#[derive(Clone, Debug)]
pub struct NamingMachine<'a> {
    naming: &'a UnboundedNaming,
    pid: Pid,
    st: NamerState,
    acquire: AcquireOp,
    names: Vec<u64>,
    rounds: usize,
}

impl NamingMachine<'_> {
    /// The integers claimed so far in this trial, in acquisition order.
    #[must_use]
    pub fn names(&self) -> &[u64] {
        &self.names
    }

    /// Re-arms a completed (or mid-flight) machine in place for its next
    /// acquisition run **within the same trial**, keeping the process's
    /// naming state — claimed integers stay claimed, the published suite
    /// stays published. This is the open-loop session path: one pooled
    /// machine serves any number of client sessions without touching the
    /// allocator. (Contrast [`StepMachine::reset`], which starts a fresh
    /// *trial* over a reset register bank.)
    pub fn begin_session(&mut self) {
        self.names.clear();
        self.acquire.rearm(&self.st);
    }

    /// Re-enters after a mid-operation crash as a **fresh contender**:
    /// like [`NamingMachine::begin_session`], but the suite `B_p` is
    /// republished from local state before the new incarnation contends.
    /// A crash may have eaten suite writes (a committed slot whose `A_p`
    /// advance never landed leaves the published fresh frontier stale,
    /// and a stale frontier can make an already-claimed integer look
    /// available); republication restores the invariant. Claims the dead
    /// incarnation half-completed are wasted, never reassigned to the
    /// new one.
    pub fn reenter(&mut self) {
        self.names.clear();
        self.st.unpublish();
        self.acquire.rearm(&self.st);
    }
}

impl exsel_shm::Footprint for UnboundedNaming {
    /// The §4 single-writer discipline: process `p` updates only its own
    /// component `W[p]` of the snapshot and publishes only into its own
    /// suite `B[p]`, while scanning `W` and reading every suite during
    /// the availability checks. Both write extents are exclusively
    /// owned — a write there from any other process is a violation.
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        let w = self.w.registers();
        let b = spec.phase("naming.scan").reads(w);
        if pid.0 < self.n {
            b.writes_excl(w.slice(pid.0, 1));
        }
        for (q, suite) in self.b.iter().enumerate() {
            let b = spec.phase("naming.suite").reads(*suite);
            if q == pid.0 {
                b.writes_excl(*suite);
            }
        }
    }
}

impl StepMachine for NamingMachine<'_> {
    type Output = u64;

    fn op(&self) -> ShmOp {
        self.acquire.describe(self.naming, &self.st)
    }

    fn peek(&self) -> (OpKind, RegId) {
        self.acquire.peek_op(self.naming, &self.st)
    }

    fn advance(&mut self, input: &Word) -> Poll<u64> {
        if let Poll::Ready(name) = self.acquire.consume(self.naming, &mut self.st, input) {
            self.names.push(name);
            if self.names.len() == self.rounds {
                return Poll::Ready(name);
            }
            self.acquire.rearm(&self.st);
        }
        Poll::Pending
    }

    fn reset(&mut self, pid: Pid) {
        assert_eq!(pid, self.pid, "naming machine reset for a different pid");
        self.st.reset(self.naming.n);
        self.acquire.reset_trial(&self.st);
        self.names.clear();
    }
}

/// The paper's *choosing by rank* over the (sorted) naming list.
/// `published` is caller-held scratch, refilled per call — acquire
/// retries are a steady-state path of pooled naming machines and must
/// not touch the allocator.
fn choose_by_rank(view: &[Word], slot: usize, list: &[u64], published: &mut Vec<u64>) -> u64 {
    let on_list = |v: u64| list.binary_search(&v).is_ok();
    let rank = view
        .iter()
        .enumerate()
        .take(slot + 1)
        .filter(|(_, w)| w.as_int().is_some_and(on_list))
        .count()
        .max(1);
    published.clear();
    published.extend(view.iter().filter_map(Word::as_int));
    list.iter()
        .copied()
        .filter(|v| !published.contains(v))
        .nth(rank - 1)
        .expect("list of 2n−1 entries always covers rank + published")
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{Pid, ThreadedShm};
    use std::collections::BTreeSet;

    #[test]
    fn sequential_names_are_fresh_and_exclusive() {
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, 2);
        let mem = ThreadedShm::new(alloc.total(), 2);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut st = naming.namer_state();
        let names: Vec<u64> = (0..6)
            .map(|_| naming.acquire(ctx, &mut st).unwrap())
            .collect();
        let set: BTreeSet<u64> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len());
        // A solo process claims the smallest available integers in order.
        assert_eq!(names, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn concurrent_names_never_collide() {
        const N: usize = 4;
        const PER: usize = 12;
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, N);
        let mem = ThreadedShm::new(alloc.total(), N);
        let all: Vec<Vec<u64>> = std::thread::scope(|s| {
            (0..N)
                .map(|p| {
                    let (naming, mem) = (&naming, &mem);
                    s.spawn(move || {
                        let ctx = Ctx::new(mem, Pid(p));
                        let mut st = naming.namer_state();
                        (0..PER)
                            .map(|_| naming.acquire(ctx, &mut st).unwrap())
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let flat: Vec<u64> = all.into_iter().flatten().collect();
        let set: BTreeSet<u64> = flat.iter().copied().collect();
        assert_eq!(set.len(), N * PER, "duplicate names assigned");
    }

    #[test]
    fn quiescent_waste_is_below_n_minus_one() {
        const N: usize = 3;
        const PER: usize = 10;
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, N);
        let mem = ThreadedShm::new(alloc.total(), N);
        let flat: Vec<u64> = std::thread::scope(|s| {
            (0..N)
                .map(|p| {
                    let (naming, mem) = (&naming, &mem);
                    s.spawn(move || {
                        let ctx = Ctx::new(mem, Pid(p));
                        let mut st = naming.namer_state();
                        (0..PER)
                            .map(|_| naming.acquire(ctx, &mut st).unwrap())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let assigned: BTreeSet<u64> = flat.iter().copied().collect();
        let frontier = *assigned.iter().max().unwrap();
        let skipped = (1..=frontier).filter(|i| !assigned.contains(i)).count();
        // In a crash-free quiescent run, the permanently skipped integers
        // are only those pruned while contended — at most n−1 overall.
        assert!(
            skipped < N,
            "skipped {skipped} integers, above n−1 = {}",
            N - 1
        );
    }

    #[test]
    fn poll_acquire_is_one_op_per_step() {
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, 2);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut st = naming.namer_state();
        let mut op = naming.begin_acquire(Pid(0), &st);
        loop {
            let before = ctx.steps();
            let poll = op.step(&naming, ctx, &mut st).unwrap();
            assert_eq!(ctx.steps(), before + 1, "exactly one op per step");
            if let Poll::Ready(name) = poll {
                assert_eq!(name, 1);
                break;
            }
        }
    }

    /// A lone process's acquire over its published suite meets the
    /// minimum exactly: nothing moves between its collects, and with
    /// `n = 1` no other suite needs checking.
    #[test]
    fn solo_published_acquire_takes_the_minimum_ops() {
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, 1);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut st = naming.namer_state();
        naming.acquire(ctx, &mut st).unwrap();
        let published = ctx.steps();
        naming.acquire(ctx, &mut st).unwrap();
        assert_eq!(ctx.steps() - published, naming.min_acquire_ops());
        assert_eq!(naming.min_acquire_ops(), 5 + 3);
        // The machine form takes the same: its publication, then two
        // acquires at the minimum.
        let mut machine = naming.begin_machine(Pid(0), 2);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        exsel_shm::drive(&mut machine, ctx).unwrap();
        assert_eq!(ctx.steps(), 2 + 2 * naming.min_acquire_ops());
    }

    #[test]
    fn naming_machines_on_the_engine_never_collide_and_reset_cleanly() {
        use exsel_sim::{policy::RandomPolicy, MachinePool, StepEngine};
        const N: usize = 3;
        const ROUNDS: usize = 4;
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, N);
        let mut engine = StepEngine::reusable(alloc.total()).record_trace(true);
        let mut pool: MachinePool<NamingMachine<'_>> = (0..N)
            .map(|p| naming.begin_machine(Pid(p), ROUNDS))
            .collect();
        let mut first_trace = Vec::new();
        for round in 0..3 {
            let mut policy = RandomPolicy::new(7);
            engine.run_pool(&mut policy, &mut pool);
            let all: Vec<u64> = pool
                .machines()
                .iter()
                .flat_map(|m| m.names().iter().copied())
                .collect();
            let set: BTreeSet<u64> = all.iter().copied().collect();
            assert_eq!(set.len(), N * ROUNDS, "duplicate names: {all:?}");
            // Same seed after reset ⇒ identical execution.
            if round == 0 {
                first_trace = engine.trace().unwrap().to_vec();
            } else {
                assert_eq!(engine.trace().unwrap(), &first_trace[..], "round {round}");
            }
        }
    }

    #[test]
    fn machine_and_blocking_acquire_perform_identical_op_sequences() {
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, 2);
        let mem_a = ThreadedShm::new(alloc.total(), 1);
        let ctx_a = Ctx::new(&mem_a, Pid(0));
        let mut st = naming.namer_state();
        let name_a = naming.acquire(ctx_a, &mut st).unwrap();

        let mem_b = ThreadedShm::new(alloc.total(), 1);
        let ctx_b = Ctx::new(&mem_b, Pid(0));
        let mut machine = naming.begin_machine(Pid(0), 1);
        let name_b = exsel_shm::drive(&mut machine, ctx_b).unwrap();
        assert_eq!(name_a, name_b);
        assert_eq!(ctx_a.steps(), ctx_b.steps());
    }

    #[test]
    fn committed_names_become_unavailable_to_late_readers() {
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, 2);
        let mem = ThreadedShm::new(alloc.total(), 2);
        let ctx0 = Ctx::new(&mem, Pid(0));
        let mut st0 = naming.namer_state();
        let name = naming.acquire(ctx0, &mut st0).unwrap();
        // The other process must not claim the same integer.
        let ctx1 = Ctx::new(&mem, Pid(1));
        let mut st1 = naming.namer_state();
        for _ in 0..5 {
            assert_ne!(naming.acquire(ctx1, &mut st1).unwrap(), name);
        }
    }
}
