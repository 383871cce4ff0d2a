//! `MachineSet` — the concrete, enum-dispatched machine families of this
//! repository, and `AlgoSet`, the matching algorithm-instance enum that
//! builds them.
//!
//! The boxed `begin_rename` API is convenient but costs a heap
//! allocation per machine and a virtual call per step. A
//! [`MachineSet`] is one concrete enum over every algorithm family —
//! splitter walks, expander majority walks, snapshot renaming, composite
//! (staged/piped) renamers, store&collect first stores, unbounded-naming
//! acquires, and wait-free altruistic deposits (with their serve-only
//! helpers) — so a pool of them is plain `Vec` storage,
//! dispatch is a jump table instead of a vtable load, and
//! [`StepMachine::reset`] re-arms the same storage for the next trial.
//! Families whose machines are closure-built (the composite renamers)
//! keep one box *inside* their variant; the box survives across trials,
//! so the per-trial allocation is still gone.
//!
//! [`AlgoSet`] is the uniform entry point the grid driver uses to run
//! non-renaming workloads: it owns the algorithm instance and hands out
//! `MachineSet`s per process, with [`SetOutput::claim`] as the common
//! "what exclusive resource did this process end up holding" view that
//! safety checks compare (a new name, a value register, a claimed
//! integer).
//!
//! ```
//! use exsel_core::MoirAnderson;
//! use exsel_shm::RegAlloc;
//! use exsel_sim::{policy::RandomPolicy, AlgoSet, StepEngine};
//!
//! let mut alloc = RegAlloc::new();
//! let algo = AlgoSet::MoirAnderson(MoirAnderson::new(&mut alloc, 4));
//! let mut pool = algo.pool(&[10, 20, 30, 40]);
//! let mut engine = StepEngine::reusable(alloc.total());
//! for seed in 0..8 {
//!     let mut policy = RandomPolicy::new(seed);
//!     engine.run_pool(&mut policy, &mut pool);
//!     let mut claims: Vec<u64> = pool
//!         .completed()
//!         .filter_map(|(_, out)| out.claim())
//!         .collect();
//!     claims.sort_unstable();
//!     claims.dedup();
//!     assert_eq!(claims.len(), 4, "names must be exclusive");
//! }
//! ```

use exsel_core::{
    Majority, MajorityOp, MoirAnderson, Outcome, RenameMachine, SnapshotRename, SnapshotRenameOp,
    SplitWalkOp, StepRename,
};
use exsel_shm::{OpKind, Pid, Poll, RegId, ShmOp, StepMachine, Word};
use exsel_storecollect::{CollectOp, FirstStoreOp, StoreCollect, StoreCollectError};
use exsel_unbounded::{AltruisticDeposit, DepositOp, NamingMachine, UnboundedNaming};

use crate::pool::MachinePool;
use crate::service::ServiceWorld;

/// The uniform output of a [`MachineSet`] trial: what the process ended
/// up holding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetOutput {
    /// A renaming outcome (all four renaming variants).
    Rename(Outcome),
    /// A first-store result: the adopted value register, or capacity
    /// exhaustion.
    Store(Result<RegId, StoreCollectError>),
    /// The last integer claimed by an unbounded-naming machine.
    Name(u64),
    /// The last arena register claimed by a wait-free deposit machine
    /// (`None` for serve-only machines, which consume nothing).
    Deposit(Option<u64>),
    /// A collect result: how many `(owner, value)` pairs the view holds.
    /// Collects acquire nothing exclusive; the view itself stays readable
    /// on the machine ([`exsel_storecollect::CollectOp::view`]).
    Collect(usize),
}

impl SetOutput {
    /// The exclusive resource this process acquired, as one comparable
    /// integer — a new name, a value-register id, or a claimed integer.
    /// `None` when the machine completed without acquiring (instance
    /// failure, capacity exhaustion). Safety checks assert claims are
    /// pairwise distinct; the numbers are only comparable *within* one
    /// family.
    #[must_use]
    pub fn claim(&self) -> Option<u64> {
        match self {
            SetOutput::Rename(outcome) => outcome.name(),
            SetOutput::Store(Ok(reg)) => Some(reg.0 as u64),
            SetOutput::Store(Err(_)) => None,
            SetOutput::Name(name) => Some(*name),
            SetOutput::Deposit(reg) => *reg,
            SetOutput::Collect(_) => None,
        }
    }

    /// The renaming outcome, for rename-family machines.
    #[must_use]
    pub fn outcome(&self) -> Option<&Outcome> {
        match self {
            SetOutput::Rename(outcome) => Some(outcome),
            _ => None,
        }
    }
}

/// One machine from any of the repository's algorithm families; see the
/// module docs.
pub enum MachineSet<'a> {
    /// Moir–Anderson splitter-grid walk.
    Walk(SplitWalkOp<'a>),
    /// Expander majority walk.
    Majority(MajorityOp<'a>),
    /// Snapshot-based `(2k−1)`-renaming.
    SnapshotRename(SnapshotRenameOp<'a>),
    /// A composite (staged/piped) renamer — Basic, PolyLog,
    /// Almost-Adaptive, Adaptive, Efficient. The box is built once and
    /// pooled; `reset` re-arms it in place.
    Rename(RenameMachine<'a>),
    /// Store&collect first store (rename + raise controls + value write).
    FirstStore(FirstStoreOp<'a>),
    /// Unbounded-naming acquire loop.
    Naming(NamingMachine<'a>),
    /// Wait-free altruistic deposit (or serve-only) loop.
    Deposit(DepositOp<'a>),
    /// Store&collect prefix-read collect.
    Collect(CollectOp<'a>),
}

impl StepMachine for MachineSet<'_> {
    type Output = SetOutput;

    fn op(&self) -> ShmOp {
        match self {
            MachineSet::Walk(m) => m.op(),
            MachineSet::Majority(m) => m.op(),
            MachineSet::SnapshotRename(m) => m.op(),
            MachineSet::Rename(m) => m.op(),
            MachineSet::FirstStore(m) => m.op(),
            MachineSet::Naming(m) => m.op(),
            MachineSet::Deposit(m) => m.op(),
            MachineSet::Collect(m) => m.op(),
        }
    }

    fn peek(&self) -> (OpKind, RegId) {
        match self {
            MachineSet::Walk(m) => m.peek(),
            MachineSet::Majority(m) => m.peek(),
            MachineSet::SnapshotRename(m) => m.peek(),
            MachineSet::Rename(m) => m.peek(),
            MachineSet::FirstStore(m) => m.peek(),
            MachineSet::Naming(m) => m.peek(),
            MachineSet::Deposit(m) => m.peek(),
            MachineSet::Collect(m) => m.peek(),
        }
    }

    fn advance(&mut self, input: &Word) -> Poll<SetOutput> {
        match self {
            MachineSet::Walk(m) => m.advance(input).map(SetOutput::Rename),
            MachineSet::Majority(m) => m.advance(input).map(SetOutput::Rename),
            MachineSet::SnapshotRename(m) => m.advance(input).map(SetOutput::Rename),
            MachineSet::Rename(m) => m.advance(input).map(SetOutput::Rename),
            MachineSet::FirstStore(m) => m.advance(input).map(SetOutput::Store),
            MachineSet::Naming(m) => m.advance(input).map(SetOutput::Name),
            MachineSet::Deposit(m) => m.advance(input).map(SetOutput::Deposit),
            MachineSet::Collect(m) => m.advance(input).map(SetOutput::Collect),
        }
    }

    fn reset(&mut self, pid: Pid) {
        match self {
            MachineSet::Walk(m) => m.reset(pid),
            MachineSet::Majority(m) => m.reset(pid),
            MachineSet::SnapshotRename(m) => m.reset(pid),
            MachineSet::Rename(m) => m.reset(pid),
            MachineSet::FirstStore(m) => m.reset(pid),
            MachineSet::Naming(m) => m.reset(pid),
            MachineSet::Deposit(m) => m.reset(pid),
            MachineSet::Collect(m) => m.reset(pid),
        }
    }
}

/// An owned algorithm instance of any family, handing out [`MachineSet`]
/// machines — the grid driver's uniform, non-`StepRename` entry point.
pub enum AlgoSet {
    /// Moir–Anderson splitter grid.
    MoirAnderson(MoirAnderson),
    /// `Majority(ℓ, N)` expander renaming.
    Majority(Majority),
    /// Snapshot-based `(2k−1)`-renaming baseline.
    SnapshotRename(SnapshotRename),
    /// Any composite renamer behind the boxed [`StepRename`] face.
    Rename(Box<dyn StepRename + Send>),
    /// A store&collect object; machines run the first-store path (the
    /// stored value is the process's original name).
    StoreCollect(StoreCollect),
    /// A store&collect object with mixed roles: the last `collectors` of
    /// the contenders run the step-machine collect path
    /// ([`exsel_storecollect::CollectOp`]) while everyone else first-
    /// stores — the end-to-end store → collect shape, with collects off
    /// the blocking code path.
    StoreCollectRoundtrip {
        /// The shared store&collect object.
        sc: StoreCollect,
        /// Total contenders (the pool size the roles are split over).
        contenders: usize,
        /// How many of the highest pids collect instead of storing.
        collectors: usize,
    },
    /// The unbounded-naming object; each machine claims `rounds`
    /// integers per trial.
    Naming {
        /// The shared naming object.
        naming: UnboundedNaming,
        /// Integers each process claims per trial.
        rounds: usize,
    },
    /// The wait-free altruistic repository (Theorem 9). The last
    /// `servers` of the repository's `n` processes run serve-only
    /// machines (the paper's fairness assumption); everyone else
    /// performs `rounds` deposits per trial, depositing
    /// `original + round` values.
    Deposit {
        /// The shared repository.
        repo: AltruisticDeposit,
        /// Deposits each depositor performs per trial.
        rounds: usize,
        /// How many of the highest pids serve instead of depositing.
        servers: usize,
    },
}

impl AlgoSet {
    /// Starts process `pid`'s machine on input `original` (renaming
    /// input, store token+value, ignored by naming).
    #[must_use]
    pub fn begin(&self, pid: Pid, original: u64) -> MachineSet<'_> {
        match self {
            AlgoSet::MoirAnderson(algo) => MachineSet::Walk(algo.begin_walk(original)),
            AlgoSet::Majority(algo) => MachineSet::Majority(algo.begin_walk(original)),
            AlgoSet::SnapshotRename(algo) => {
                MachineSet::SnapshotRename(algo.begin_rename_slot(pid.0, original))
            }
            AlgoSet::Rename(algo) => MachineSet::Rename(algo.begin_rename(pid, original)),
            AlgoSet::StoreCollect(sc) => {
                MachineSet::FirstStore(sc.begin_first_store(pid, original, original))
            }
            AlgoSet::StoreCollectRoundtrip {
                sc,
                contenders,
                collectors,
            } => {
                assert!(
                    *collectors < *contenders,
                    "{collectors} collectors leave no storer among {contenders}"
                );
                if pid.0 >= contenders - collectors {
                    MachineSet::Collect(sc.begin_collect(pid))
                } else {
                    MachineSet::FirstStore(sc.begin_first_store(pid, original, original))
                }
            }
            AlgoSet::Naming { naming, rounds } => {
                MachineSet::Naming(naming.begin_machine(pid, *rounds))
            }
            AlgoSet::Deposit {
                repo,
                rounds,
                servers,
            } => {
                let n = repo.num_processes();
                assert!(
                    *servers <= n,
                    "{servers} serve-only processes exceed the repository's {n}"
                );
                MachineSet::Deposit(if pid.0 >= n - servers {
                    // Serve long enough to keep every depositor's column
                    // supplied for the whole trial.
                    repo.begin_server(pid, (2 * n * *rounds) as u64)
                } else {
                    repo.begin_deposit(pid, original, *rounds)
                })
            }
        }
    }

    /// A pool of one machine per contender: machine `p` runs
    /// `originals[p]` as process `Pid(p)`.
    #[must_use]
    pub fn pool(&self, originals: &[u64]) -> MachinePool<MachineSet<'_>> {
        originals
            .iter()
            .enumerate()
            .map(|(p, &orig)| self.begin(Pid(p), orig))
            .collect()
    }

    /// The [`SnapArena`](exsel_shm::SnapArena) backing this family's
    /// shared snapshot object, for families built on one — the hook
    /// sweep drivers use to fold record/view recycling telemetry into
    /// their [`Metrics`](crate::Metrics) (composite renamers box their
    /// stages behind `StepRename` and expose no arena).
    #[must_use]
    pub fn snapshot_arena(&self) -> Option<&exsel_shm::SnapArena> {
        match self {
            AlgoSet::SnapshotRename(algo) => Some(algo.snapshot().arena()),
            AlgoSet::Naming { naming, .. } => Some(naming.snapshot().arena()),
            AlgoSet::Deposit { repo, .. } => Some(repo.naming().snapshot().arena()),
            _ => None,
        }
    }

    /// Appends the registers a machine begun for `pid` may touch — the
    /// [`exsel_shm::Footprint`] contract, dispatched per family exactly
    /// like [`AlgoSet::begin`]. Renamers declare through
    /// [`StepRename::footprint`]; the session families implement
    /// [`exsel_shm::Footprint`] directly.
    pub fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        use exsel_shm::Footprint as _;
        match self {
            AlgoSet::MoirAnderson(algo) => StepRename::footprint(algo, pid, spec),
            AlgoSet::Majority(algo) => StepRename::footprint(algo, pid, spec),
            AlgoSet::SnapshotRename(algo) => StepRename::footprint(algo, pid, spec),
            AlgoSet::Rename(algo) => algo.footprint(pid, spec),
            AlgoSet::StoreCollect(sc) | AlgoSet::StoreCollectRoundtrip { sc, .. } => {
                sc.footprint(pid, spec);
            }
            AlgoSet::Naming { naming, .. } => naming.footprint(pid, spec),
            AlgoSet::Deposit { repo, .. } => repo.footprint(pid, spec),
        }
    }

    /// Compiles a dynamic [`AccessChecker`](exsel_analysis::AccessChecker)
    /// for an `n`-contender instance over a bank of `num_registers`,
    /// running the static non-interference pass in the process. Install
    /// the result with [`StepEngine::install_checker`](crate::StepEngine::install_checker).
    ///
    /// # Errors
    ///
    /// Returns the static pass's error if the declarations interfere.
    #[cfg(feature = "check")]
    pub fn checker(
        &self,
        n: usize,
        num_registers: usize,
    ) -> Result<exsel_analysis::AccessChecker, exsel_analysis::StaticError> {
        struct ByBegin<'a>(&'a AlgoSet);
        impl exsel_shm::Footprint for ByBegin<'_> {
            fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
                self.0.footprint(pid, spec);
            }
        }
        exsel_analysis::AccessChecker::for_instance(&ByBegin(self), n, num_registers)
    }

    /// Whether this family guarantees a claim for every surviving
    /// process (the `Majority` renamer only promises half; serve-only
    /// deposit machines legitimately claim nothing; everyone else names,
    /// stores or claims for all survivors within capacity).
    #[must_use]
    pub fn claims_all_survivors(&self) -> bool {
        !matches!(
            self,
            AlgoSet::Majority(_)
                | AlgoSet::Deposit { servers: 1.., .. }
                | AlgoSet::StoreCollectRoundtrip {
                    collectors: 1..,
                    ..
                }
        )
    }
}

impl std::fmt::Debug for AlgoSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoSet::MoirAnderson(_) => write!(f, "AlgoSet::MoirAnderson"),
            AlgoSet::Majority(_) => write!(f, "AlgoSet::Majority"),
            AlgoSet::SnapshotRename(_) => write!(f, "AlgoSet::SnapshotRename"),
            AlgoSet::Rename(_) => write!(f, "AlgoSet::Rename"),
            AlgoSet::StoreCollect(_) => write!(f, "AlgoSet::StoreCollect"),
            AlgoSet::StoreCollectRoundtrip {
                contenders,
                collectors,
                ..
            } => write!(
                f,
                "AlgoSet::StoreCollectRoundtrip(contenders={contenders}, collectors={collectors})"
            ),
            AlgoSet::Naming { rounds, .. } => write!(f, "AlgoSet::Naming(rounds={rounds})"),
            AlgoSet::Deposit {
                rounds, servers, ..
            } => write!(f, "AlgoSet::Deposit(rounds={rounds}, servers={servers})"),
        }
    }
}

/// Where a [`SessionOp`] is: one phase per shared object, then idle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionPhase {
    /// The unbounded-naming acquire, which claims the session ticket.
    Acquire,
    /// The slot's first store (rename + raise controls + value write)
    /// until the slot is registered, then the session's one value write.
    Store,
    /// The prefix-read collect.
    Collect,
    /// One wait-free altruistic deposit round.
    Deposit,
    /// No session runs: the last one completed or crashed.
    Idle,
}

/// One open-loop service session as a step machine over a
/// [`ServiceWorld`]: an unbounded-naming acquire claims the session
/// ticket (Theorem 10), a store and a collect follow (Theorem 5), and
/// a wait-free altruistic deposit round ends it (Theorem 9). The output
/// is the ticket. One machine serves one service slot for a whole run,
/// re-armed in place: a new (or reset) machine runs a session for
/// client 0, and [`SessionOp::begin`] starts the next.
///
/// A crash ([`SessionOp::crash`]) kills the session, not the machine
/// state: a session that dies mid-acquire (or mid-deposit) leaves that
/// machine mid-protocol, and the next session re-enters it as a fresh
/// contender with its suite republished ([`NamingMachine::reenter`]) —
/// the paper's wasted-claim crash budget. A first store interrupted
/// mid-rename resumes (slot registration is infrastructure, not client
/// state); collects restart.
pub struct SessionOp<'w> {
    naming: NamingMachine<'w>,
    /// The slot's first store and its adopted value register, and the
    /// collect: the service primes a slot by driving them directly.
    pub(crate) first_store: FirstStoreOp<'w>,
    pub(crate) registered: Option<RegId>,
    pub(crate) collect: CollectOp<'w>,
    deposit: DepositOp<'w>,
    phase: SessionPhase,
    /// The last session crashed mid-acquire (mid-deposit): the next
    /// re-enters the naming (deposit) machine.
    naming_dirty: bool,
    deposit_dirty: bool,
    /// The slot's store&collect token, and the running session's client,
    /// the value it stores and deposits.
    original: u64,
    client: u64,
    ticket: u64,
}

impl<'w> SessionOp<'w> {
    /// Builds the session machine of slot `pid` over `world`; the slot's
    /// store&collect token is `pid + 1`.
    #[must_use]
    pub fn new(world: &'w ServiceWorld, pid: Pid) -> Self {
        let original = pid.0 as u64 + 1;
        SessionOp {
            naming: world.naming.begin_machine(pid, 1),
            first_store: world.sc.begin_first_store(pid, original, 0),
            registered: None,
            collect: world.sc.begin_collect(pid),
            deposit: world.repo.begin_deposit(pid, 0, 1),
            phase: SessionPhase::Acquire,
            naming_dirty: false,
            deposit_dirty: false,
            original,
            client: 0,
            ticket: 0,
        }
    }

    /// Starts the session of `client`, re-entering the naming machine if
    /// the last session died mid-acquire.
    pub fn begin(&mut self, client: u64) {
        if std::mem::take(&mut self.naming_dirty) {
            self.naming.reenter();
        } else {
            self.naming.begin_session();
        }
        self.client = client;
        self.phase = SessionPhase::Acquire;
    }

    /// Kills the running session mid-operation.
    ///
    /// # Panics
    ///
    /// Panics if no session runs.
    pub fn crash(&mut self) {
        match self.phase {
            SessionPhase::Acquire => self.naming_dirty = true,
            SessionPhase::Deposit => self.deposit_dirty = true,
            SessionPhase::Store | SessionPhase::Collect => {}
            SessionPhase::Idle => panic!("crashed an idle session"),
        }
        self.phase = SessionPhase::Idle;
    }

    /// The running phase. It changes exactly when a phase's last
    /// operation is granted.
    #[must_use]
    #[inline]
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }
}

impl StepMachine for SessionOp<'_> {
    /// The session ticket.
    type Output = u64;

    // Forced, like `advance`: the service's grant loop is generic over
    // its bank and compiles in the caller's crate, where a plain
    // `#[inline]` left these out-of-line, at about 6% of a steady
    // service's operations per second.
    #[inline(always)]
    fn op(&self) -> ShmOp {
        match self.phase {
            SessionPhase::Acquire => self.naming.op(),
            SessionPhase::Store => match self.registered {
                Some(reg) => ShmOp::Write(reg, Word::Pair(self.original, self.client)),
                None => self.first_store.op(),
            },
            SessionPhase::Collect => self.collect.op(),
            SessionPhase::Deposit => self.deposit.op(),
            SessionPhase::Idle => panic!("idle session driven"),
        }
    }

    fn peek(&self) -> (OpKind, RegId) {
        match self.phase {
            SessionPhase::Acquire => self.naming.peek(),
            SessionPhase::Store => match self.registered {
                Some(reg) => (OpKind::Write, reg),
                None => self.first_store.peek(),
            },
            SessionPhase::Collect => self.collect.peek(),
            SessionPhase::Deposit => self.deposit.peek(),
            SessionPhase::Idle => panic!("idle session driven"),
        }
    }

    #[inline(always)]
    fn advance(&mut self, input: &Word) -> Poll<u64> {
        match self.phase {
            SessionPhase::Acquire => {
                if let Poll::Ready(name) = self.naming.advance(input) {
                    self.ticket = name;
                    self.phase = SessionPhase::Store;
                }
            }
            SessionPhase::Store if self.registered.is_some() => {
                self.collect.rearm();
                self.phase = SessionPhase::Collect;
            }
            SessionPhase::Store => {
                if let Poll::Ready(reg) = self.first_store.advance(input) {
                    // Still storing: the next grant is the value write.
                    self.registered = Some(reg.expect("store&collect sized for every slot"));
                }
            }
            SessionPhase::Collect => {
                if self.collect.advance(input).ready().is_some() {
                    if std::mem::take(&mut self.deposit_dirty) {
                        self.deposit.reenter(self.client);
                    } else {
                        self.deposit.begin_round(self.client);
                    }
                    self.phase = SessionPhase::Deposit;
                }
            }
            SessionPhase::Deposit => {
                if let Poll::Ready(reg) = self.deposit.advance(input) {
                    debug_assert!(reg.is_some(), "depositors always claim");
                    self.phase = SessionPhase::Idle;
                    return Poll::Ready(self.ticket);
                }
            }
            SessionPhase::Idle => panic!("idle session driven"),
        }
        Poll::Pending
    }

    fn reset(&mut self, pid: Pid) {
        self.naming.reset(pid);
        self.first_store.reset(pid);
        self.registered = None;
        self.collect.reset(pid);
        self.deposit.reset(pid);
        self.phase = SessionPhase::Acquire;
        self.naming_dirty = false;
        self.deposit_dirty = false;
        self.client = 0;
        self.ticket = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StepEngine;
    use crate::policy::{CrashStorm, RandomPolicy};
    use crate::service::ServiceConfig;
    use exsel_core::RenameConfig;
    use exsel_shm::RegAlloc;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn distinct_claims(algo: &AlgoSet, regs: usize, originals: &[u64], seeds: u64) {
        let mut pool = algo.pool(originals);
        let mut engine = StepEngine::reusable(regs);
        for seed in 0..seeds {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, &mut pool);
            let claims: Vec<u64> = pool
                .completed()
                .filter_map(|(_, out)| out.claim())
                .collect();
            let set: BTreeSet<u64> = claims.iter().copied().collect();
            assert_eq!(set.len(), claims.len(), "{algo:?} seed {seed}: {claims:?}");
            if algo.claims_all_survivors() {
                assert_eq!(claims.len(), originals.len(), "{algo:?} seed {seed}");
            } else {
                assert!(2 * claims.len() >= originals.len(), "{algo:?} seed {seed}");
            }
        }
    }

    #[test]
    fn every_family_claims_exclusively_across_pooled_trials() {
        let cfg = RenameConfig::default();
        let originals: Vec<u64> = (0..4u64).map(|i| i * 13 + 1).collect();

        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::MoirAnderson(MoirAnderson::new(&mut alloc, 4));
        distinct_claims(&algo, alloc.total(), &originals, 5);

        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::Majority(Majority::new(&mut alloc, 64, 4, &cfg));
        distinct_claims(&algo, alloc.total(), &originals, 5);

        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::SnapshotRename(SnapshotRename::new(&mut alloc, 4));
        distinct_claims(&algo, alloc.total(), &originals, 5);

        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::Rename(Box::new(exsel_core::BasicRename::new(
            &mut alloc, 64, 4, &cfg,
        )));
        distinct_claims(&algo, alloc.total(), &originals, 5);

        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::StoreCollect(StoreCollect::known(&mut alloc, 4, 64, &cfg));
        distinct_claims(&algo, alloc.total(), &originals, 5);

        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::Naming {
            naming: UnboundedNaming::new(&mut alloc, 4),
            rounds: 2,
        };
        distinct_claims(&algo, alloc.total(), &originals, 5);

        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::Deposit {
            repo: AltruisticDeposit::new(&mut alloc, 4, 512),
            rounds: 2,
            servers: 0,
        };
        distinct_claims(&algo, alloc.total(), &originals, 5);
    }

    #[test]
    fn deposit_family_mixes_depositors_and_servers() {
        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::Deposit {
            repo: AltruisticDeposit::new(&mut alloc, 4, 512),
            rounds: 2,
            servers: 2,
        };
        assert!(!algo.claims_all_survivors());
        let originals: Vec<u64> = (0..4u64).map(|i| i * 100 + 1).collect();
        let mut pool = algo.pool(&originals);
        let mut engine = StepEngine::reusable(alloc.total());
        for seed in 0..4u64 {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, &mut pool);
            // Everyone completes: depositors with their last register,
            // servers with None.
            assert_eq!(pool.completed().count(), 4, "seed {seed}");
            let claims: Vec<u64> = pool
                .completed()
                .filter_map(|(_, out)| out.claim())
                .collect();
            assert_eq!(claims.len(), 2, "seed {seed}: {claims:?}");
            let servers = pool
                .machines()
                .iter()
                .filter(|m| matches!(m, MachineSet::Deposit(d) if d.is_server()))
                .count();
            assert_eq!(servers, 2);
        }
    }

    #[test]
    fn storecollect_roundtrip_mixes_storers_and_collectors() {
        let cfg = RenameConfig::default();
        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::StoreCollectRoundtrip {
            sc: StoreCollect::adaptive(&mut alloc, 4, &cfg),
            contenders: 4,
            collectors: 2,
        };
        assert!(!algo.claims_all_survivors());
        let originals: Vec<u64> = (0..4u64).map(|i| i * 7 + 1).collect();
        let mut pool = algo.pool(&originals);
        let mut engine = StepEngine::reusable(alloc.total());
        for seed in 0..4u64 {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, &mut pool);
            assert_eq!(pool.completed().count(), 4, "seed {seed}");
            // Storers claim distinct value registers; collectors claim
            // nothing but their views only hold registered owners.
            let claims: Vec<u64> = pool
                .completed()
                .filter_map(|(_, out)| out.claim())
                .collect();
            let set: BTreeSet<u64> = claims.iter().copied().collect();
            assert_eq!(claims.len(), 2, "seed {seed}: {claims:?}");
            assert_eq!(set.len(), claims.len(), "seed {seed}");
            for m in pool.machines() {
                if let MachineSet::Collect(c) = m {
                    let owners: BTreeSet<u64> = c.view().iter().map(|&(o, _)| o).collect();
                    assert_eq!(owners.len(), c.view().len(), "duplicate owner in view");
                    assert!(c.view().len() <= 2);
                }
            }
        }
    }

    /// A session that crashes and begins again after a grant with
    /// probability 0.005, so that later sessions re-enter the naming and
    /// deposit machines mid-protocol.
    struct Probe<'w> {
        session: SessionOp<'w>,
        rng: SmallRng,
    }

    impl StepMachine for Probe<'_> {
        type Output = u64;

        fn op(&self) -> ShmOp {
            self.session.op()
        }

        fn peek(&self) -> (OpKind, RegId) {
            self.session.peek()
        }

        fn advance(&mut self, input: &Word) -> Poll<u64> {
            let poll = self.session.advance(input);
            if matches!(poll, Poll::Pending) && self.rng.gen_bool(0.005) {
                self.session.crash();
                self.session.begin(1);
            }
            poll
        }

        fn reset(&mut self, pid: Pid) {
            self.session.reset(pid);
        }
    }

    /// 2–4 sessions on the engine under crash storms (seeds 0..60), with
    /// and without crash re-entries: completed sessions hold distinct
    /// tickets, and a reset pool replays a fresh pool's trace.
    #[test]
    fn session_pools_are_exclusive_and_replayable() {
        for n in 2..=4 {
            let world = ServiceWorld::new(&ServiceConfig {
                slots: n,
                ..ServiceConfig::default()
            });
            let mut engine = StepEngine::reusable(world.num_registers()).record_trace(true);
            let sessions = || -> MachinePool<SessionOp<'_>> {
                (0..n).map(|p| SessionOp::new(&world, Pid(p))).collect()
            };
            let mut reused = sessions();
            for seed in 0..60u64 {
                let storm =
                    || CrashStorm::new(Box::new(RandomPolicy::new(seed)), !seed, 0.005, n - 1);
                let mut probes: MachinePool<Probe<'_>> = (0..n)
                    .map(|p| Probe {
                        session: SessionOp::new(&world, Pid(p)),
                        rng: SmallRng::seed_from_u64(seed << 8 | p as u64),
                    })
                    .collect();
                engine.run_pool(&mut storm(), &mut probes);
                let tickets: Vec<u64> = probes.completed().map(|(_, &t)| t).collect();
                let distinct: BTreeSet<u64> = tickets.iter().copied().collect();
                assert!(!tickets.is_empty(), "n = {n}, seed {seed}");
                assert_eq!(distinct.len(), tickets.len(), "n = {n}, seed {seed}");
                let mut fresh = sessions();
                engine.run_pool(&mut storm(), &mut fresh);
                let trace = engine.trace().expect("recorded").to_vec();
                engine.run_pool(&mut storm(), &mut reused);
                assert_eq!(engine.trace(), Some(&trace[..]), "n = {n}, seed {seed}");
                assert_eq!(reused.results(), fresh.results(), "n = {n}, seed {seed}");
            }
        }
    }

    #[test]
    fn set_output_claims() {
        assert_eq!(SetOutput::Rename(Outcome::Named(7)).claim(), Some(7));
        assert_eq!(SetOutput::Rename(Outcome::Failed).claim(), None);
        assert_eq!(SetOutput::Store(Ok(RegId(3))).claim(), Some(3));
        assert_eq!(
            SetOutput::Store(Err(StoreCollectError::CapacityExceeded)).claim(),
            None
        );
        assert_eq!(SetOutput::Name(9).claim(), Some(9));
        assert!(SetOutput::Name(9).outcome().is_none());
        assert_eq!(SetOutput::Deposit(Some(4)).claim(), Some(4));
        assert_eq!(SetOutput::Deposit(None).claim(), None);
        assert_eq!(
            SetOutput::Rename(Outcome::Named(7)).outcome(),
            Some(&Outcome::Named(7))
        );
    }
}
