//! Exhaustive schedule-space verification (stateless model checking) of
//! the fine-grained primitives at small sizes — every interleaving, not a
//! sample. This is the strongest evidence this stack offers for the
//! safety lemmas: Lemma 1 (compete-for-register), the splitter property,
//! and snapshot self-inclusion are checked over the *complete* schedule
//! tree of 2–3 process programs, walked by the unreduced
//! (`ReduceConfig::off`) replay enumerator over pooled machines.

use std::collections::BTreeSet;
use std::sync::Arc;

use exclusive_selection::renaming::{CompeteOp, MoirAnderson, SlotBank};
use exclusive_selection::shm::snapshot::{ScanOp, UpdateOp};
use exclusive_selection::shm::{Pid, Snapshot};
use exclusive_selection::sim::{
    explore_pool_reduced, explore_pool_sleep, replay_pool, ExploreReport, MachinePool,
    ReduceConfig, StepEngine,
};
use exclusive_selection::storecollect::{FirstStoreOp, StoreCollect};
use exclusive_selection::unbounded::AltruisticDeposit;
use exclusive_selection::{Poll, RegAlloc, ShmOp, StepMachine, Word};

/// Walks every interleaving of `pool` and asserts the walk was complete
/// and `check` held on every execution.
fn walk_all<M: StepMachine>(
    engine: &mut StepEngine,
    pool: &mut MachinePool<M>,
    check: impl FnMut(&MachinePool<M>) -> bool,
) -> ExploreReport {
    let report = explore_pool_sleep(engine, pool, &ReduceConfig::off(u64::MAX), check);
    assert!(report.complete, "schedule tree not fully covered");
    assert!(
        report.minimized.is_none(),
        "violating schedule: {:?}",
        report.minimized
    );
    report
}

/// At most one contender wins the slot.
fn compete_ok(pool: &MachinePool<CompeteOp>) -> bool {
    pool.completed().filter(|(_, won)| **won).count() <= 1
}

/// A `k`-contender compete pool on one slot, plus its engine.
fn compete(k: u64) -> (StepEngine, MachinePool<CompeteOp>) {
    let mut alloc = RegAlloc::new();
    let bank = SlotBank::new(&mut alloc, 1);
    let pool: MachinePool<CompeteOp> = (1..=k).map(|t| bank.begin_compete(0, t)).collect();
    (StepEngine::reusable(alloc.total()), pool)
}

#[test]
fn lemma1_exclusive_wins_every_interleaving_two_contenders() {
    let (mut engine, mut pool) = compete(2);
    let report = walk_all(&mut engine, &mut pool, compete_ok);
    assert_eq!(report.executions, 116);
}

#[test]
fn lemma1_exclusive_wins_every_interleaving_three_contenders() {
    let (mut engine, mut pool) = compete(3);
    let report = walk_all(&mut engine, &mut pool, compete_ok);
    assert_eq!(report.executions, 73_608);
}

/// A bank walk: compete for slot 0, then slot 1 if lost, and so on. The
/// machine form of the first-win loop every renaming algorithm runs.
struct SlotWalk {
    bank: SlotBank,
    token: u64,
    slot: usize,
    inner: CompeteOp,
}

impl SlotWalk {
    fn new(bank: &SlotBank, token: u64) -> Self {
        SlotWalk {
            bank: bank.clone(),
            token,
            slot: 0,
            inner: bank.begin_compete(0, token),
        }
    }
}

impl StepMachine for SlotWalk {
    type Output = Option<usize>;
    fn op(&self) -> ShmOp {
        self.inner.op()
    }
    fn advance(&mut self, input: &Word) -> Poll<Option<usize>> {
        match self.inner.advance(input) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(true) => Poll::Ready(Some(self.slot)),
            Poll::Ready(false) => {
                self.slot += 1;
                if self.slot < self.bank.len() {
                    self.inner = self.bank.begin_compete(self.slot, self.token);
                    Poll::Pending
                } else {
                    Poll::Ready(None)
                }
            }
        }
    }
    fn reset(&mut self, _pid: Pid) {
        self.slot = 0;
        self.inner = self.bank.begin_compete(0, self.token);
    }
}

#[test]
fn lemma1_walks_exclusive_every_interleaving_two_contenders_three_slots() {
    // Up to 15 ops per process, schedule-tree depth 26: every
    // interleaving must keep slot wins exclusive.
    let mut alloc = RegAlloc::new();
    let bank = SlotBank::new(&mut alloc, 3);
    let mut pool: MachinePool<SlotWalk> = (1..=2).map(|t| SlotWalk::new(&bank, t)).collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let report = walk_all(&mut engine, &mut pool, |pool| {
        let wins: Vec<usize> = pool.completed().filter_map(|(_, w)| *w).collect();
        let set: BTreeSet<usize> = wins.iter().copied().collect();
        set.len() == wins.len()
    });
    assert_eq!(report.executions, 185_240);
}

#[test]
fn splitter_grid_exclusive_every_interleaving_k2() {
    let mut alloc = RegAlloc::new();
    let algo = MoirAnderson::new(&mut alloc, 2);
    let mut pool: MachinePool<_> = (1..=2).map(|t| algo.begin_walk(t)).collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let report = walk_all(&mut engine, &mut pool, |pool| {
        // Within capacity both must stop, on distinct grid names.
        let names: Vec<Option<u64>> = pool.completed().map(|(_, o)| o.name()).collect();
        names.len() == 2 && names[0] != names[1] && names.iter().all(|m| matches!(m, Some(1..=3)))
    });
    // The grid program is 4–8 ops per process: a real tree, not a toy.
    assert_eq!(report.executions, 1_694);
}

/// One snapshot process: its updates in order, then an optional scan,
/// whose view is the output.
struct SnapProc {
    updates: Vec<UpdateOp>,
    scan: Option<ScanOp>,
    next: usize,
}

impl SnapProc {
    fn new(snap: &Snapshot, updates: &[(usize, u64)], scan: bool) -> Self {
        SnapProc {
            updates: updates
                .iter()
                .map(|&(slot, v)| snap.begin_update(slot, Word::Int(v)))
                .collect(),
            scan: scan.then(|| snap.begin_scan()),
            next: 0,
        }
    }
}

impl StepMachine for SnapProc {
    type Output = Option<Arc<[Word]>>;
    fn op(&self) -> ShmOp {
        match self.updates.get(self.next) {
            Some(update) => update.op(),
            None => self.scan.as_ref().expect("scan pending").op(),
        }
    }
    fn advance(&mut self, input: &Word) -> Poll<Self::Output> {
        if let Some(update) = self.updates.get_mut(self.next) {
            if update.advance(input).ready().is_some() {
                self.next += 1;
                if self.next == self.updates.len() && self.scan.is_none() {
                    return Poll::Ready(None);
                }
            }
            return Poll::Pending;
        }
        match self.scan.as_mut().expect("scan pending").advance(input) {
            Poll::Ready(view) => Poll::Ready(Some(view)),
            Poll::Pending => Poll::Pending,
        }
    }
    fn reset(&mut self, pid: Pid) {
        for update in &mut self.updates {
            update.reset(pid);
        }
        if let Some(scan) = &mut self.scan {
            scan.reset(pid);
        }
        self.next = 0;
    }
}

/// Component `slot` of process `pid`'s scanned view.
fn scanned(pool: &MachinePool<SnapProc>, pid: usize, slot: usize) -> Option<u64> {
    match &pool.results()[pid] {
        Some(Ok(Some(view))) => view[slot].as_int(),
        other => panic!("process {pid} did not scan: {other:?}"),
    }
}

#[test]
fn snapshot_self_inclusion_every_interleaving() {
    // p0 updates its component; p1 updates its component then scans: the
    // scan must include p1's own value, under every interleaving of the
    // two operations' register accesses.
    let mut alloc = RegAlloc::new();
    let snap = Snapshot::new(&mut alloc, 2);
    let mut pool: MachinePool<SnapProc> = [
        SnapProc::new(&snap, &[(0, 10)], false),
        SnapProc::new(&snap, &[(1, 11)], true),
    ]
    .into_iter()
    .collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let report = walk_all(&mut engine, &mut pool, |pool| {
        scanned(pool, 1, 1) == Some(11)
    });
    assert_eq!(report.executions, 16_044);
}

#[test]
fn snapshot_validity_every_interleaving() {
    // p0 scans while p1 performs two updates: the scanned component is
    // one of ⊥ → 10 → 20 (never a torn or resurrected value), under
    // every interleaving.
    let mut alloc = RegAlloc::new();
    let snap = Snapshot::new(&mut alloc, 2);
    let mut pool: MachinePool<SnapProc> = [
        SnapProc::new(&snap, &[], true),
        SnapProc::new(&snap, &[(1, 10), (1, 20)], false),
    ]
    .into_iter()
    .collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let report = walk_all(&mut engine, &mut pool, |pool| {
        matches!(scanned(pool, 0, 1), None | Some(10) | Some(20))
    });
    assert_eq!(report.executions, 9_954);
}

// ---------------------------------------------------------------------
// Reduced exploration differentials: the `exsel_sim::reduce` enumerator
// against the unreduced oracle, across three machine families. The
// oracle flag (`ReduceConfig::off`) must replay the exact unreduced
// tree; sleep sets may drop interleavings but never terminal states or
// verdicts; the full symmetry stack must preserve pass/fail.
// ---------------------------------------------------------------------

/// The per-process results vector — the terminal-state signature the
/// sleep-set differential compares as a set.
fn result_signature<M: StepMachine>(pool: &MachinePool<M>) -> Vec<String>
where
    M::Output: std::fmt::Debug,
{
    pool.results().iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn oracle_flag_replays_the_unreduced_tree_across_families() {
    // Compete, 3 contenders: the committed 73,608-execution tree.
    let (mut engine, mut pool) = compete(3);
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        compete_ok,
    );
    assert_eq!(oracle.executions, 73_608);
    assert_eq!(oracle.execs_pruned, 0);
    assert!(oracle.complete && oracle.minimized.is_none());

    // Store&collect setting (i), 2 contenders: two straight-line programs
    // of 6 operations each, so C(12, 6) = 12!/(6!·6!) = 924 interleavings
    // (the 3-proc oracle tree holds 17.15M executions — release-mode
    // bench territory, see the explore-reduced scenario).
    let mut alloc = RegAlloc::new();
    let sc = StoreCollect::known(
        &mut alloc,
        2,
        2,
        &exclusive_selection::RenameConfig::default(),
    );
    let mut pool: MachinePool<FirstStoreOp<'_>> = (0..2)
        .map(|p| sc.begin_first_store(Pid(p), p as u64 + 1, 7))
        .collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let oracle = explore_pool_sleep(&mut engine, &mut pool, &ReduceConfig::off(u64::MAX), |_| {
        true
    });
    assert_eq!(oracle.executions, 924);
    assert!(oracle.complete);

    // Deposit, 3 serve-only machines of 2 events each (fixed event
    // counts — depositor machines have schedule-dependent depth and an
    // astronomically large unreduced tree even at 2 processes):
    // 6!/(2!)³ = 90 interleavings.
    let mut alloc = RegAlloc::new();
    let repo = AltruisticDeposit::new(&mut alloc, 3, 6);
    let mut pool: MachinePool<_> = (0..3).map(|p| repo.begin_server(Pid(p), 2)).collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        |pool| pool.results().iter().all(|r| matches!(r, Some(Ok(None)))),
    );
    assert_eq!(oracle.executions, 90);
    assert!(oracle.complete && oracle.minimized.is_none());
}

#[test]
fn sleep_sets_preserve_terminal_states_and_verdicts_across_families() {
    // Compete, 3 contenders: strictly fewer executions, identical
    // terminal-state set, identical verdict.
    let (mut engine, mut pool) = compete(3);
    let mut oracle_sigs = BTreeSet::new();
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        |pool| {
            oracle_sigs.insert(result_signature(pool));
            compete_ok(pool)
        },
    );
    let mut sleep_sigs = BTreeSet::new();
    let sleep = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        |pool| {
            sleep_sigs.insert(result_signature(pool));
            compete_ok(pool)
        },
    );
    assert!(sleep.complete);
    assert!(
        sleep.executions * 5 <= oracle.executions,
        "sleep sets below the 5x floor: {} vs {}",
        sleep.executions,
        oracle.executions
    );
    assert_eq!(oracle_sigs, sleep_sigs, "sleep sets lost a terminal state");
    assert_eq!(oracle.minimized.is_some(), sleep.minimized.is_some());

    // Store&collect setting (i), 2 contenders.
    let mut alloc = RegAlloc::new();
    let sc = StoreCollect::known(
        &mut alloc,
        2,
        2,
        &exclusive_selection::RenameConfig::default(),
    );
    let mut pool: MachinePool<FirstStoreOp<'_>> = (0..2)
        .map(|p| sc.begin_first_store(Pid(p), p as u64 + 1, 7))
        .collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let mut oracle_sigs = BTreeSet::new();
    explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        |pool| {
            oracle_sigs.insert(result_signature(pool));
            true
        },
    );
    let mut sleep_sigs = BTreeSet::new();
    let sleep = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        |pool| {
            sleep_sigs.insert(result_signature(pool));
            true
        },
    );
    assert!(sleep.complete);
    assert_eq!(oracle_sigs, sleep_sigs, "sleep sets lost a terminal state");

    // Deposit serve-only machines, 3 processes.
    let mut alloc = RegAlloc::new();
    let repo = AltruisticDeposit::new(&mut alloc, 3, 6);
    let mut pool: MachinePool<_> = (0..3).map(|p| repo.begin_server(Pid(p), 2)).collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        |pool| pool.results().iter().all(|r| matches!(r, Some(Ok(None)))),
    );
    let sleep = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        |pool| pool.results().iter().all(|r| matches!(r, Some(Ok(None)))),
    );
    assert!(sleep.complete);
    assert!(sleep.executions <= oracle.executions);
    assert_eq!(oracle.minimized.is_some(), sleep.minimized.is_some());
}

#[test]
fn symmetry_stack_agrees_with_the_oracle_on_compete_verdicts() {
    // Passing checker: oracle and full stack both report no failure.
    let (mut engine, mut pool) = compete(3);
    let tokens = vec![1u64, 2, 3];
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        compete_ok,
    );
    let full = explore_pool_reduced(
        &mut engine,
        &mut pool,
        &ReduceConfig::full(&tokens, u64::MAX),
        compete_ok,
    );
    assert!(oracle.complete && full.complete);
    assert!(oracle.minimized.is_none() && full.minimized.is_none());
    assert!(full.states_canonical > 0);
    assert!(
        full.executions * 5 <= oracle.executions,
        "full stack below the 5x floor"
    );

    // Failing pid-symmetric checker ("nobody ever wins" — false): both
    // arms find a counterexample, and the minimized schedule replays to
    // the same failure.
    let nobody_wins =
        |pool: &MachinePool<CompeteOp>| pool.completed().filter(|(_, won)| **won).count() == 0;
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        nobody_wins,
    );
    let full = explore_pool_reduced(
        &mut engine,
        &mut pool,
        &ReduceConfig::full(&tokens, u64::MAX),
        nobody_wins,
    );
    let schedule = full
        .minimized
        .clone()
        .expect("full stack found the failure");
    assert!(oracle.minimized.is_some(), "oracle missed the failure");
    replay_pool(&mut engine, &mut pool, &schedule);
    assert!(
        !nobody_wins(&pool),
        "minimized schedule no longer fails on replay"
    );
}

#[test]
fn shrinker_minimizes_a_seeded_known_bad_interleaving() {
    // Seeded known-bad checker: "contender 1's token never wins slot 0"
    // — false on schedules that let pid 0 through first. The minimized
    // schedule must (a) still fail on replay, (b) be a subsequence of
    // the raw failing schedule, (c) be deterministic across runs.
    let pid0_never_wins =
        |pool: &MachinePool<CompeteOp>| !matches!(pool.results()[0], Some(Ok(true)));
    let (mut engine, mut pool) = compete(3);
    let raw = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig {
            shrink: false,
            ..ReduceConfig::sleep_only(u64::MAX)
        },
        pid0_never_wins,
    );
    let raw_schedule = raw.minimized.expect("raw failing schedule recorded");
    let first = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        pid0_never_wins,
    );
    let second = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        pid0_never_wins,
    );
    let minimized = first.minimized.expect("shrinker produced a schedule");
    assert_eq!(
        Some(&minimized),
        second.minimized.as_ref(),
        "shrinker is nondeterministic"
    );
    assert!(minimized.len() <= raw_schedule.len());
    // Subsequence check: every minimized grant appears in the raw
    // schedule, in order.
    let mut rest = raw_schedule.as_slice();
    for pid in &minimized {
        let at = rest
            .iter()
            .position(|p| p == pid)
            .expect("minimized schedule is not a subsequence of the raw one");
        rest = &rest[at + 1..];
    }
    replay_pool(&mut engine, &mut pool, &minimized);
    assert!(
        !pid0_never_wins(&pool),
        "minimized schedule no longer fails on replay"
    );
}
