//! Classic snapshot-based `(2k−1)`-renaming (Attiya, Bar-Noy, Dolev,
//! Peleg, Reischuk — JACM 1990, adapted to shared memory as in Attiya &
//! Welch). This is the substitute for the Attiya–Fouren `AF(k, N)` stage
//! of `Efficient-Rename`: identical interface and identical name bound
//! `M = 2k−1` (see ARCHITECTURE.md, "Substitutions").
//!
//! Each participant repeatedly publishes `(token, proposal)` in an atomic
//! snapshot and scans: if its proposal is unique among the published
//! proposals it decides; otherwise it re-proposes the `r`-th smallest
//! integer not proposed by anyone else, where `r` is the rank of its token
//! among all published tokens. With `k` participants ranks are at most `k`
//! and at most `k−1` foreign proposals are skipped, so decided names never
//! exceed `2k−1`.

use std::sync::Arc;

use exsel_shm::snapshot::{ScanOp, UpdateOp};
use exsel_shm::{drive, Ctx, Pid, Poll, RegAlloc, ShmOp, Snapshot, Step, StepMachine, Word};

use crate::step::{RenameMachine, StepRename};
use crate::{Outcome, Rename};

/// Snapshot-based wait-free renaming with the optimal bound `M = 2k−1`
/// for `k` participants.
#[derive(Clone, Debug)]
pub struct SnapshotRename {
    snap: Snapshot,
    /// Names above this bound are never decided; a process whose proposal
    /// would exceed it returns [`Outcome::Failed`] instead (used by
    /// `Adaptive-Rename` to cap each phase's name range under overflow).
    bound: Option<u64>,
    /// Bail-out on pathological schedules in *overloaded* instances; within
    /// capacity the algorithm terminates long before this.
    max_iterations: u64,
}

impl SnapshotRename {
    /// Builds an instance with one snapshot component per participant
    /// slot. Callers assign each participant a distinct `slot` in
    /// `[0, slots)` (e.g. its process index, or a name from a previous
    /// renaming stage).
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn new(alloc: &mut RegAlloc, slots: usize) -> Self {
        SnapshotRename {
            snap: Snapshot::new(alloc, slots),
            bound: None,
            max_iterations: 64 * (slots as u64 + 2),
        }
    }

    /// Caps emitted names at `bound`; proposals beyond it yield
    /// [`Outcome::Failed`].
    #[must_use]
    pub fn with_bound(mut self, bound: u64) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Number of participant slots.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.snap.num_slots()
    }

    /// Registers used: one per slot (plus none beyond the snapshot).
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.snap.registers().len()
    }

    /// The backing snapshot object (introspection — e.g. reading its
    /// record-recycling arena telemetry after a sweep).
    #[must_use]
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// Renames with an explicit participant slot. `token` must be unique
    /// among participants (original names qualify); `slot` must be unique
    /// too and is this participant's snapshot component.
    ///
    /// # Errors
    ///
    /// Returns [`exsel_shm::Crash`] if the process crashes.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= num_slots()`.
    pub fn rename_slot(&self, ctx: Ctx<'_>, slot: usize, token: u64) -> Step<Outcome> {
        drive(&mut self.begin_rename_slot(slot, token), ctx)
    }

    /// Starts [`SnapshotRename::rename_slot`] as a [`StepMachine`]: an
    /// update/scan round trip per proposal, one shared-memory operation
    /// per step.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= num_slots()`.
    #[must_use]
    pub fn begin_rename_slot(&self, slot: usize, token: u64) -> SnapshotRenameOp<'_> {
        assert!(slot < self.num_slots(), "slot {slot} out of range");
        SnapshotRenameOp {
            algo: self,
            slot,
            token,
            proposal: 1,
            iterations: 0,
            update: self.snap.begin_update(slot, Word::Pair(token, 1)),
            scan: self.snap.begin_scan(),
            phase: SrPhase::Update,
            tokens: Vec::new(),
            foreign_proposals: Vec::new(),
        }
    }
}

/// Which of the two owned sub-machines is running.
#[derive(Clone, Copy, Debug)]
enum SrPhase {
    Update,
    Scan,
}

/// In-progress snapshot-based renaming — a [`StepMachine`] running the
/// propose/scan/re-propose loop one shared-memory operation per step.
///
/// The update and scan sub-machines are **owned and re-armed in place**
/// (like the unbounded-naming `AcquireOp`): a re-proposal round calls
/// [`UpdateOp::rearm`]/[`ScanOp::restart`] instead of constructing fresh
/// ops, and the decide scratch (token/proposal sort buffers) keeps its
/// capacity across rounds — so a pooled steady-state trial allocates
/// nothing (`tests/alloc_free.rs`).
#[derive(Clone, Debug)]
pub struct SnapshotRenameOp<'a> {
    algo: &'a SnapshotRename,
    slot: usize,
    token: u64,
    proposal: u64,
    /// Completed propose/scan rounds.
    iterations: u64,
    update: UpdateOp,
    scan: ScanOp,
    phase: SrPhase,
    /// Decide scratch: published tokens of the last view, sorted.
    tokens: Vec<u64>,
    /// Decide scratch: other participants' proposals, sorted.
    foreign_proposals: Vec<u64>,
}

impl SnapshotRenameOp<'_> {
    /// Digests a completed scan: decide, or compute the next proposal.
    fn decide(&mut self, view: &Arc<[Word]>) -> Poll<Outcome> {
        self.tokens.clear();
        self.foreign_proposals.clear();
        let mut duplicate = false;
        for (i, w) in view.iter().enumerate() {
            if let Some((t, p)) = w.as_pair() {
                self.tokens.push(t);
                if i != self.slot {
                    self.foreign_proposals.push(p);
                    if p == self.proposal {
                        duplicate = true;
                    }
                }
            }
        }
        if !duplicate {
            // Names above the cap are never decided (a degenerate bound
            // below the initial proposal fails here, after one round).
            if self.algo.bound.is_some_and(|bound| self.proposal > bound) {
                return Poll::Ready(Outcome::Failed);
            }
            return Poll::Ready(Outcome::Named(self.proposal));
        }
        // Re-propose: the r-th smallest positive integer free of foreign
        // proposals, r = rank of our token.
        self.tokens.sort_unstable();
        let rank = self
            .tokens
            .iter()
            .position(|&t| t == self.token)
            .expect("own token in view")
            + 1;
        self.foreign_proposals.sort_unstable();
        self.proposal = nth_free(&self.foreign_proposals, rank);

        self.iterations += 1;
        if self.iterations >= self.algo.max_iterations {
            // Unreachable within capacity; in overloaded instances we bail
            // out like a crashed process (safe: wait-free algorithms
            // tolerate it).
            return Poll::Ready(Outcome::Failed);
        }
        if let Some(bound) = self.algo.bound {
            if self.proposal > bound {
                return Poll::Ready(Outcome::Failed);
            }
        }
        self.update
            .rearm(self.slot, Word::Pair(self.token, self.proposal));
        self.phase = SrPhase::Update;
        Poll::Pending
    }
}

impl StepMachine for SnapshotRenameOp<'_> {
    type Output = Outcome;

    fn op(&self) -> ShmOp {
        match self.phase {
            SrPhase::Update => self.update.op(),
            SrPhase::Scan => self.scan.op(),
        }
    }

    fn advance(&mut self, input: &Word) -> Poll<Outcome> {
        match self.phase {
            SrPhase::Update => {
                if let Poll::Ready(()) = self.update.advance(input) {
                    // In-trial restart keeps the scanner's generation
                    // caches (valid while writer sequence numbers grow).
                    self.scan.restart();
                    self.phase = SrPhase::Scan;
                }
                Poll::Pending
            }
            SrPhase::Scan => match self.scan.advance(input) {
                Poll::Pending => Poll::Pending,
                Poll::Ready(view) => self.decide(&view),
            },
        }
    }

    fn peek(&self) -> (exsel_shm::OpKind, exsel_shm::RegId) {
        match self.phase {
            SrPhase::Update => self.update.peek(),
            SrPhase::Scan => self.scan.peek(),
        }
    }

    fn reset(&mut self, pid: Pid) {
        // The slot is part of the machine's construction (`pid.0` when
        // started through `StepRename::begin_rename`, the caller's slot
        // otherwise) and stays; only the execution state re-arms. The
        // sub-machines reset fully (cross-trial: writer sequence numbers
        // restart, so scan generation caches must drop), then the update
        // is re-armed to the first proposal.
        self.proposal = 1;
        self.iterations = 0;
        self.update.reset(pid);
        self.update.rearm(self.slot, Word::Pair(self.token, 1));
        self.scan.reset(pid);
        self.phase = SrPhase::Update;
    }
}

/// The `rank`-th smallest positive integer not contained in `taken`
/// (`taken` sorted ascending, may contain duplicates).
fn nth_free(taken: &[u64], rank: usize) -> u64 {
    let mut remaining = rank as u64;
    let mut candidate = 1u64;
    let mut i = 0;
    loop {
        while i < taken.len() && taken[i] < candidate {
            i += 1;
        }
        let is_taken = i < taken.len() && taken[i] == candidate;
        if !is_taken {
            remaining -= 1;
            if remaining == 0 {
                return candidate;
            }
        }
        candidate += 1;
    }
}

impl Rename for SnapshotRename {
    /// Without an explicit bound this is `2·slots − 1` (the worst case
    /// with every slot occupied).
    fn name_bound(&self) -> u64 {
        self.bound.unwrap_or(2 * self.num_slots() as u64 - 1)
    }

    /// Renames using the caller's process id as its slot; requires
    /// `num_slots() >= num_processes`.
    fn rename(&self, ctx: Ctx<'_>, original: u64) -> Step<Outcome> {
        self.rename_slot(ctx, ctx.pid().0, original)
    }
}

impl StepRename for SnapshotRename {
    /// Uses `pid` as the participant slot, exactly like the blocking
    /// [`Rename::rename`].
    fn begin_rename<'a>(&'a self, pid: Pid, original: u64) -> RenameMachine<'a> {
        Box::new(self.begin_rename_slot(pid.0, original))
    }

    /// The single-writer discipline of the snapshot literature, made
    /// checkable: scans read every component, but updates land only in
    /// the caller's own slot — which under [`StepRename::begin_rename`]
    /// is `pid`, so that slot is declared exclusively owned. (Pids
    /// beyond the slot count cannot begin a machine and declare reads
    /// only.)
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        let regs = self.snap.registers();
        let b = spec.phase("snapshot.slots").reads(regs);
        if pid.0 < self.num_slots() {
            b.writes_excl(regs.slice(pid.0, 1));
        }
    }

    fn snapshot_registers(&self) -> usize {
        self.num_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{Pid, ThreadedShm};
    use std::collections::BTreeSet;

    #[test]
    fn nth_free_basics() {
        assert_eq!(nth_free(&[], 1), 1);
        assert_eq!(nth_free(&[], 3), 3);
        assert_eq!(nth_free(&[1, 2, 3], 1), 4);
        assert_eq!(nth_free(&[2], 1), 1);
        assert_eq!(nth_free(&[2], 2), 3);
        assert_eq!(nth_free(&[1, 1, 3], 2), 4); // duplicates collapse
        assert_eq!(nth_free(&[5], 5), 6);
    }

    #[test]
    fn solo_participant_gets_name_one() {
        let mut alloc = RegAlloc::new();
        let algo = SnapshotRename::new(&mut alloc, 4);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let out = algo.rename_slot(Ctx::new(&mem, Pid(0)), 2, 77).unwrap();
        assert_eq!(out, Outcome::Named(1));
    }

    #[test]
    fn k_participants_within_2k_minus_1() {
        for k in [2usize, 3, 5, 8] {
            let mut alloc = RegAlloc::new();
            let algo = SnapshotRename::new(&mut alloc, k);
            let mem = ThreadedShm::new(alloc.total(), k);
            let names: Vec<u64> = std::thread::scope(|s| {
                (0..k)
                    .map(|p| {
                        let (algo, mem) = (&algo, &mem);
                        s.spawn(move || {
                            algo.rename_slot(Ctx::new(mem, Pid(p)), p, 500 + p as u64)
                                .unwrap()
                                .expect_named()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let set: BTreeSet<u64> = names.iter().copied().collect();
            assert_eq!(set.len(), k, "k={k}: duplicates in {names:?}");
            assert!(
                names.iter().all(|&m| m >= 1 && m < 2 * k as u64),
                "k={k}: name beyond 2k-1 in {names:?}"
            );
        }
    }

    #[test]
    fn degenerate_zero_bound_fails_cleanly() {
        // A bound below the initial proposal can never name anyone; it
        // must fail (never decide a name above the cap), not panic.
        let mut alloc = RegAlloc::new();
        let algo = SnapshotRename::new(&mut alloc, 2).with_bound(0);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let out = algo.rename_slot(Ctx::new(&mem, Pid(0)), 0, 5).unwrap();
        assert_eq!(out, Outcome::Failed);
    }

    #[test]
    fn bound_turns_overflow_into_failed() {
        let mut alloc = RegAlloc::new();
        let algo = SnapshotRename::new(&mut alloc, 4).with_bound(1);
        let mem = ThreadedShm::new(alloc.total(), 2);
        // Occupy name 1 via slot 0…
        let first = algo.rename_slot(Ctx::new(&mem, Pid(0)), 0, 10).unwrap();
        assert_eq!(first, Outcome::Named(1));
        // …then a second participant must fail rather than exceed bound 1.
        let second = algo.rename_slot(Ctx::new(&mem, Pid(1)), 1, 20).unwrap();
        assert_eq!(second, Outcome::Failed);
    }

    #[test]
    fn rename_trait_uses_pid_slot() {
        let mut alloc = RegAlloc::new();
        let algo = SnapshotRename::new(&mut alloc, 3);
        let mem = ThreadedShm::new(alloc.total(), 3);
        let names: Vec<u64> = std::thread::scope(|s| {
            (0..3)
                .map(|p| {
                    let (algo, mem) = (&algo, &mem);
                    s.spawn(move || {
                        algo.rename(Ctx::new(mem, Pid(p)), 900 + p as u64)
                            .unwrap()
                            .expect_named()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), 3);
        assert!(names.iter().all(|&m| m <= algo.name_bound()));
    }

    #[test]
    fn abandoned_participant_does_not_block_others() {
        // Slot 0 publishes a proposal and then "crashes" (never proceeds).
        // Others must still decide, treating the stale proposal as taken.
        let mut alloc = RegAlloc::new();
        let algo = SnapshotRename::new(&mut alloc, 3);
        let mem = ThreadedShm::new(alloc.total(), 3);
        // Simulate the stale participant: a raw update of (token=1, prop=1).
        algo.snap
            .update(Ctx::new(&mem, Pid(0)), 0, Word::Pair(1, 1))
            .unwrap();
        let names: Vec<u64> = std::thread::scope(|s| {
            (1..3)
                .map(|p| {
                    let (algo, mem) = (&algo, &mem);
                    s.spawn(move || {
                        algo.rename_slot(Ctx::new(mem, Pid(p)), p, 100 + p as u64)
                            .unwrap()
                            .expect_named()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let set: BTreeSet<u64> = names.iter().copied().collect();
        assert_eq!(set.len(), 2);
        assert!(!names.contains(&1), "stale proposal 1 must be avoided");
    }
}
