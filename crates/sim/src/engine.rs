//! The single-threaded step-machine execution engine.
//!
//! [`StepEngine`] runs a set of [`StepMachine`]s under a [`Policy`] with
//! the exact lock-step semantics of the thread-backed scheduler
//! ([`crate::SimMemory`]/[`crate::SimBuilder`]) but **zero OS threads,
//! zero locks and zero parked stacks**: every live machine always exposes
//! its pending operation (`op()` is pure), so the policy can be consulted
//! directly and the chosen operation applied in place. Because the
//! blocking algorithm APIs are `drive` adapters over the same machines,
//! the two backends observe identical operation sequences — the same
//! policy (and seed) produces the same trace, steps and results on both.
//!
//! Use the thread-backed [`crate::SimBuilder`] for closure-style process
//! bodies; use `StepEngine` whenever the algorithms expose step machines
//! and you care about speed or scale — exhaustive exploration, adversary
//! searches, crash storms over thousands of processes.
//!
//! # Reuse and the machine pool
//!
//! An engine is **reusable**: [`StepEngine::run_trial`] runs one
//! execution under a caller-supplied policy and keeps the register bank,
//! pending-op scratch, crash vector and metric histograms allocated for
//! the next trial ([`StepEngine::reset`] re-initializes them in place).
//! [`StepEngine::run_pool`] goes further: driving a
//! [`crate::MachinePool`] re-initializes the *machines* in place too
//! ([`StepMachine::reset`]) and lands results in the pool's own buffers,
//! so steady-state trials perform **zero heap allocations**
//! (`tests/alloc_free.rs` proves it with a counting allocator). The
//! pending set the policy consults is maintained incrementally — one
//! [`StepMachine::peek`] per *grant*, not one per live machine per
//! decision; the thread-backed [`crate::SimBuilder`], which rebuilds
//! its pending set at every decision, is the differential reference
//! (this is tested under crash storms). With [`StepEngine::record_trace`] on, `run_trial` moves
//! each trial's trace buffer into its outcome (no copy) while pooled
//! trials leave it readable via [`StepEngine::trace`]. A reused engine —
//! pooled or not — is observationally identical to a fresh one: same
//! policy + seed ⇒ same trace (this is tested).
//!
//! Per-trial [`Metrics`] (operation mix, ops per register, crash causes,
//! contention) are collected during the grant loop and read back with
//! [`StepEngine::metrics`].
//!
//! ```
//! use exsel_shm::{Poll, RegAlloc, ShmOp, StepMachine, Word};
//! use exsel_sim::{policy::RoundRobin, StepEngine};
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
//! }
//!
//! let mut alloc = RegAlloc::new();
//! let bank = alloc.reserve(1);
//! let outcome = StepEngine::new(alloc.total(), Box::new(RoundRobin::new()))
//!     .run((0..3).map(|p| -> Box<dyn StepMachine<Output = Word>> {
//!         Box::new(WriteThenRead { reg: bank.get(0), id: p, wrote: false })
//!     }).collect());
//! // Round-robin: W0 W1 W2 R0 R1 R2 — everyone reads process 2's write.
//! for r in &outcome.results {
//!     assert_eq!(*r.as_ref().unwrap(), Word::Int(2));
//! }
//! assert_eq!(outcome.steps, vec![2, 2, 2]);
//! ```

use exsel_shm::{
    ArcBank, Crash, OpKind, Pid, Poll, RegisterBank, ShmOp, SnapArenaStats, StepMachine, Word,
};

use crate::policy::{Action, PendingOp, Policy};
use crate::pool::MachinePool;
use crate::runner::SimOutcome;

/// The input handed to a machine consuming a granted write.
const NULL_WORD: Word = Word::Null;

/// Counters collected by [`StepEngine`] during one trial's grant loop,
/// read back with [`StepEngine::metrics`] after the trial. Reset by
/// [`StepEngine::reset`] (and therefore at the start of every trial);
/// fold trials together with [`Metrics::merge`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Trials folded into these metrics (1 after a single trial).
    pub trials: u64,
    /// Operations granted.
    pub total_ops: u64,
    /// Read operations granted.
    pub reads: u64,
    /// Write operations granted.
    pub writes: u64,
    /// Maximum local steps over all processes.
    pub max_steps: u64,
    /// Processes crashed by the policy ([`Action::Crash`]).
    pub adversary_crashes: usize,
    /// Processes crashed because the trial exhausted its operation
    /// budget (distinguished from adversary crashes — see
    /// [`StepEngine::panic_on_budget`]).
    pub budget_crashes: usize,
    /// The largest number of processes pending on a granted operation's
    /// register at any decision point, the grantee included. Only
    /// collected when [`StepEngine::measure_contention`] is on (the scan
    /// costs one extra pass over the pending set per decision).
    pub max_contention: usize,
    /// Operations granted per register, indexed by register id.
    pub ops_per_register: Vec<u64>,
    /// Operations granted per shard of the last **sharded** trial
    /// ([`StepEngine::run_pool_sharded`]), indexed by shard. Empty for
    /// unsharded trials.
    pub shard_ops: Vec<u64>,
    /// Largest same-register pending count observed *within* each shard
    /// at a grant, indexed by shard. Only collected when
    /// [`StepEngine::measure_contention`] is on; empty for unsharded
    /// trials.
    pub shard_contention: Vec<usize>,
    /// Snapshot record/view allocation and peak-view telemetry, folded
    /// in by the sweep driver via [`Metrics::record_snapshot`] (the
    /// engine itself does not know which registers back a snapshot
    /// object — the arena does). Zero for non-snapshot workloads.
    pub snapshot: SnapArenaStats,
    /// Operations validated by the installed footprint checker. Always
    /// present so the struct's shape (and `PartialEq`) is independent of
    /// the `check` feature; stays zero when the feature is off or no
    /// checker is installed.
    pub checker_ops: u64,
    /// Footprint violations the installed checker counted (recorded or
    /// past its recording cap). Zero on a disciplined run.
    pub checker_violations: u64,
}

impl Metrics {
    fn reset(&mut self, num_registers: usize) {
        self.trials = 0;
        self.total_ops = 0;
        self.reads = 0;
        self.writes = 0;
        self.max_steps = 0;
        self.adversary_crashes = 0;
        self.budget_crashes = 0;
        self.max_contention = 0;
        self.ops_per_register.clear();
        self.ops_per_register.resize(num_registers, 0);
        self.shard_ops.clear();
        self.shard_contention.clear();
        self.snapshot = SnapArenaStats::default();
        self.checker_ops = 0;
        self.checker_violations = 0;
    }

    /// Folds a snapshot object's arena telemetry window into these
    /// metrics — allocation counts add, peak record/view footprints take
    /// the max. Sweeps call this once per sweep with
    /// [`SnapArenaStats::since`] over the sweep's window.
    pub fn record_snapshot(&mut self, stats: &SnapArenaStats) {
        self.snapshot.merge(stats);
    }

    /// The register granted the most operations, with its count.
    #[must_use]
    pub fn hottest_register(&self) -> Option<(usize, u64)> {
        self.ops_per_register
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(reg, ops)| (ops, usize::MAX - reg))
            .filter(|&(_, ops)| ops > 0)
    }

    /// Folds another trial's metrics into this aggregate: counters add,
    /// maxima take the max, per-register histograms add element-wise.
    pub fn merge(&mut self, other: &Metrics) {
        self.trials += other.trials;
        self.total_ops += other.total_ops;
        self.reads += other.reads;
        self.writes += other.writes;
        self.max_steps = self.max_steps.max(other.max_steps);
        self.adversary_crashes += other.adversary_crashes;
        self.budget_crashes += other.budget_crashes;
        self.max_contention = self.max_contention.max(other.max_contention);
        if self.ops_per_register.len() < other.ops_per_register.len() {
            self.ops_per_register
                .resize(other.ops_per_register.len(), 0);
        }
        for (acc, &ops) in self
            .ops_per_register
            .iter_mut()
            .zip(&other.ops_per_register)
        {
            *acc += ops;
        }
        if self.shard_ops.len() < other.shard_ops.len() {
            self.shard_ops.resize(other.shard_ops.len(), 0);
        }
        for (acc, &ops) in self.shard_ops.iter_mut().zip(&other.shard_ops) {
            *acc += ops;
        }
        if self.shard_contention.len() < other.shard_contention.len() {
            self.shard_contention
                .resize(other.shard_contention.len(), 0);
        }
        for (acc, &c) in self
            .shard_contention
            .iter_mut()
            .zip(&other.shard_contention)
        {
            *acc = (*acc).max(c);
        }
        self.snapshot.merge(&other.snapshot);
        self.checker_ops += other.checker_ops;
        self.checker_violations += other.checker_violations;
    }
}

/// How a trial crashed a process, in the engine's scratch crash vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashKind {
    None,
    Adversary,
    Budget,
}

/// Builder/driver for engine executions; see the module docs.
///
/// Generic over the register-bank storage `B` — [`ArcBank`] (the
/// default, one `Word` enum per register) or [`exsel_shm::SlabBank`]
/// (inline small payloads + generation-tagged slab handles for snapshot
/// records, the mega-scale backend). The two are bit-identical per trial
/// (`tests/pooled_determinism.rs` proves it differentially); slab
/// engines are built with [`StepEngine::reusable_with`].
pub struct StepEngine<B: RegisterBank = ArcBank> {
    num_registers: usize,
    policy: Option<Box<dyn Policy>>,
    max_total_ops: u64,
    record_trace: bool,
    measure_contention: bool,
    panic_on_budget: bool,
    // Scratch reused across trials — the point of `reset`/`run_trial`:
    // the register bank, the pending-op buffer, the per-pid crash
    // vector, the trace storage and the metric histograms keep their
    // capacity from one trial to the next.
    regs: B,
    /// Whether `run_trial` moved the last trial's trace into its outcome
    /// (pooled trials leave it in place; see [`StepEngine::trace`]).
    trace_moved: bool,
    pending: Vec<PendingOp>,
    /// `pending_pos[pid]` is pid's index into `pending`, or
    /// [`NOT_PENDING`]: the pending set is maintained *incrementally* —
    /// only the granted machine's entry changes per decision — instead
    /// of being rebuilt with one `peek` per live machine per decision.
    /// Sharded trials reuse it for the pid's index into its *shard's*
    /// pending vector.
    pending_pos: Vec<usize>,
    /// Per-shard pending sets of sharded trials (empty otherwise);
    /// reused across trials like `pending`.
    shard_pending: Vec<Vec<PendingOp>>,
    crashed: Vec<CrashKind>,
    trace: Vec<PendingOp>,
    metrics: Metrics,
    /// The installed dynamic footprint checker, if any; validated
    /// against every granted operation in the grant loops. Behind the
    /// `check` feature so unchecked builds carry neither the field nor
    /// the per-grant branch.
    #[cfg(feature = "check")]
    checker: Option<exsel_analysis::AccessChecker>,
}

/// Sentinel in `pending_pos` for completed/crashed processes.
const NOT_PENDING: usize = usize::MAX;

/// Policy decisions taken per shard visit before the sharded grant loop
/// rotates to the next non-empty shard — the batching that keeps
/// decisions cache-local on one shard's pending set at a time.
const SHARD_BATCH: usize = 32;

// Constructors that pin the default `ArcBank` storage live on a
// non-generic impl block: default type parameters do not participate in
// function-call inference, so `StepEngine::reusable(n)` must resolve `B`
// through the impl's self type.
impl StepEngine {
    /// A new engine over `num_registers` registers scheduled by `policy`
    /// (the policy is consumed by [`StepEngine::run`]; trials via
    /// [`StepEngine::run_trial`] take their policy per call).
    #[must_use]
    pub fn new(num_registers: usize, policy: Box<dyn Policy>) -> Self {
        Self::with_parts(num_registers, Some(policy), ArcBank::new())
    }

    /// A reusable engine with no built-in policy: run trials with
    /// [`StepEngine::run_trial`], which reuses the engine's scratch
    /// buffers across trials instead of reallocating per run.
    #[must_use]
    pub fn reusable(num_registers: usize) -> Self {
        Self::with_parts(num_registers, None, ArcBank::new())
    }

    /// The register bank as the last trial left it, indexed by
    /// [`exsel_shm::RegId`] — the post-trial inspection path for
    /// occupancy audits (e.g. repository waste counting), which on the
    /// thread-backed runner would read through a `Memory` handle. The
    /// next trial's [`StepEngine::reset`] re-nulls it. For bank-generic
    /// inspection use [`StepEngine::load_register`] instead.
    #[must_use]
    pub fn registers(&self) -> &[Word] {
        self.regs.words()
    }
}

impl<B: RegisterBank> StepEngine<B> {
    fn with_parts(num_registers: usize, policy: Option<Box<dyn Policy>>, bank: B) -> Self {
        StepEngine {
            num_registers,
            policy,
            max_total_ops: 50_000_000,
            record_trace: false,
            measure_contention: false,
            panic_on_budget: true,
            regs: bank,
            trace_moved: false,
            pending: Vec::new(),
            pending_pos: Vec::new(),
            shard_pending: Vec::new(),
            crashed: Vec::new(),
            trace: Vec::new(),
            metrics: Metrics::default(),
            #[cfg(feature = "check")]
            checker: None,
        }
    }

    /// A reusable engine over an explicit register-bank backend, e.g.
    /// `StepEngine::reusable_with(regs, SlabBank::new())`. Behaves
    /// exactly like [`StepEngine::reusable`] otherwise.
    #[must_use]
    pub fn reusable_with(num_registers: usize, bank: B) -> Self {
        Self::with_parts(num_registers, None, bank)
    }

    /// The register-bank backend (e.g. for slab occupancy telemetry
    /// after a trial).
    #[must_use]
    pub fn bank(&self) -> &B {
        &self.regs
    }

    /// Materializes the current word of `reg` — bank-generic post-trial
    /// inspection (the slab backend has no contiguous `&[Word]` to
    /// borrow).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    #[must_use]
    pub fn load_register(&self, reg: exsel_shm::RegId) -> Word {
        self.regs.load(reg)
    }

    /// Overrides the total-operation safety valve (default 50 million).
    /// Exceeding it makes a run panic with a diagnostic instead of
    /// looping forever — unless [`StepEngine::panic_on_budget`] is off.
    #[must_use]
    pub fn max_total_ops(mut self, ops: u64) -> Self {
        self.max_total_ops = ops;
        self
    }

    /// Records the granted schedule in [`SimOutcome::trace`].
    #[must_use]
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Collects [`Metrics::max_contention`] (one extra pass over the
    /// pending set per decision; off by default to keep the grant loop
    /// lean).
    #[must_use]
    pub fn measure_contention(mut self, on: bool) -> Self {
        self.measure_contention = on;
        self
    }

    /// Whether exhausting the operation budget panics (the default —
    /// every algorithm in this stack is supposed to be wait-free, so a
    /// blown budget means a livelock bug). With `false`, the survivors
    /// are crashed with a **budget** cause instead: the trial returns an
    /// outcome whose [`SimOutcome::budget_crashed`] lists them,
    /// distinguishable from adversary [`Action::Crash`] victims in
    /// [`SimOutcome::crashed`].
    #[must_use]
    pub fn panic_on_budget(mut self, panic: bool) -> Self {
        self.panic_on_budget = panic;
        self
    }

    /// Points the engine at a memory of `num_registers` registers from
    /// the next reset on (size sweeps reuse one engine across grid
    /// cells).
    pub fn set_registers(&mut self, num_registers: usize) {
        self.num_registers = num_registers;
    }

    /// Metrics of the last trial (or of the trial in progress).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Installs a compiled footprint checker: from the next trial on,
    /// every granted operation is validated against the declared
    /// footprints and the engine's [`Metrics`] accumulate
    /// `checker_ops`/`checker_violations`. Compile one with
    /// [`AlgoSet::checker`](crate::AlgoSet::checker) or
    /// [`exsel_analysis::AccessChecker::compile`].
    #[cfg(feature = "check")]
    pub fn install_checker(&mut self, checker: exsel_analysis::AccessChecker) {
        self.checker = Some(checker);
    }

    /// The installed checker, if any — e.g. to inspect
    /// [`violations`](exsel_analysis::AccessChecker::violations) after a
    /// trial.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn checker(&self) -> Option<&exsel_analysis::AccessChecker> {
        self.checker.as_ref()
    }

    /// Uninstalls and returns the checker (subsequent trials run
    /// unchecked).
    #[cfg(feature = "check")]
    pub fn take_checker(&mut self) -> Option<exsel_analysis::AccessChecker> {
        self.checker.take()
    }

    /// Re-initializes the engine's state in place for the next trial:
    /// registers to [`Word::Null`], trace and metrics cleared — **keeping
    /// every buffer's capacity**. Called automatically at the start of
    /// [`StepEngine::run_trial`]; public for callers that want to drop
    /// trial state eagerly.
    pub fn reset(&mut self) {
        self.regs.reset(self.num_registers);
        self.trace.clear();
        self.trace_moved = false;
        self.metrics.reset(self.num_registers);
        #[cfg(feature = "check")]
        if let Some(c) = &mut self.checker {
            c.begin_trial();
        }
    }

    /// Runs `machines` (machine `i` is process `Pid(i)`) to quiescence
    /// under the policy the engine was constructed with, consuming the
    /// engine. Completed machines yield `Ok(output)`; machines crashed by
    /// the policy yield `Err(Crash)`.
    ///
    /// # Panics
    ///
    /// Panics if the engine was built with [`StepEngine::reusable`]
    /// (use [`StepEngine::run_trial`]), if the operation budget is
    /// exhausted while [`StepEngine::panic_on_budget`] is on, if a
    /// machine targets a register out of range, or if the policy grants a
    /// non-pending process / crashes a non-live one.
    pub fn run<T>(mut self, machines: Vec<Box<dyn StepMachine<Output = T> + '_>>) -> SimOutcome<T> {
        let mut policy = self
            .policy
            .take()
            .expect("engine built with StepEngine::reusable — use run_trial");
        self.run_trial(policy.as_mut(), machines)
    }

    /// Runs one trial of `machines` under `policy`, reusing the engine's
    /// scratch buffers (see [`StepEngine::reset`], which this calls
    /// first). The policy is borrowed per trial so seeded policies can be
    /// rebuilt — or deliberately continued — across trials by the caller.
    ///
    /// This is the boxed compatibility path: it allocates result and
    /// step vectors (they are moved into the outcome) and the machines
    /// themselves were boxed by the caller. Hot trial loops use
    /// [`StepEngine::run_pool`] instead, which re-drives pooled machine
    /// storage with zero steady-state allocations.
    ///
    /// # Panics
    ///
    /// As [`StepEngine::run`], except for the missing-policy case.
    pub fn run_trial<T>(
        &mut self,
        policy: &mut dyn Policy,
        mut machines: Vec<Box<dyn StepMachine<Output = T> + '_>>,
    ) -> SimOutcome<T> {
        self.reset();
        let n = machines.len();
        let mut results: Vec<Option<Result<T, Crash>>> = (0..n).map(|_| None).collect();
        let mut steps = vec![0u64; n];
        self.drive(policy, &mut machines, &mut results, &mut steps);

        SimOutcome {
            results: results
                .into_iter()
                .map(|r| r.expect("result recorded"))
                .collect(),
            steps,
            crashed: self.adversary_crashed().collect(),
            budget_crashed: self.budget_crashed().collect(),
            total_ops: self.metrics.total_ops,
            // Hand the outcome the buffer itself — no O(total_ops)
            // copy; `reset` regrows it for the next trial.
            trace: self.record_trace.then(|| {
                self.trace_moved = true;
                std::mem::take(&mut self.trace)
            }),
        }
    }

    /// Runs one trial over a [`MachinePool`]: every machine is reset in
    /// place ([`StepMachine::reset`]) and re-driven, results and step
    /// counts land in the pool's own buffers, and nothing is allocated
    /// once the pool and engine have reached their steady-state
    /// capacities — the allocation-free trial loop that grid sweeps and
    /// exploration walks sit on. Read the trial back through the pool's
    /// accessors, [`StepEngine::metrics`], [`StepEngine::trace`] and the
    /// crash-cause iterators.
    ///
    /// # Panics
    ///
    /// As [`StepEngine::run_trial`]; additionally panics if a pooled
    /// machine does not implement [`StepMachine::reset`].
    pub fn run_pool<M: StepMachine>(&mut self, policy: &mut dyn Policy, pool: &mut MachinePool<M>) {
        self.reset();
        pool.begin_trial();
        let (machines, results, steps) = pool.trial_buffers();
        self.drive(policy, machines, results, steps);
    }

    /// Runs one pooled trial with the **sharded** grant loop: pids are
    /// partitioned into `shards` contiguous ranges, each with its own
    /// incrementally maintained pending set, and the policy is consulted
    /// with one shard's pending operations at a time — up to
    /// 32 (`SHARD_BATCH`) decisions per visit, rotating round-robin over
    /// non-empty shards. This keeps both the policy's decision scan and
    /// the pending-set maintenance cache-local at mega scale (removals
    /// are O(1) swap-removes within a shard instead of O(live) ordered
    /// removes).
    ///
    /// Sharded scheduling is its **own deterministic adversary**: with
    /// `shards == 1` this is exactly [`StepEngine::run_pool`] (same
    /// trace), while `shards > 1` produces a different — equally legal —
    /// interleaving, presented shard by shard in swap-remove order.
    /// Per-shard grant counts land in [`Metrics::shard_ops`] (and
    /// contention in [`Metrics::shard_contention`] when measured).
    ///
    /// # Panics
    ///
    /// As [`StepEngine::run_pool`]; additionally panics if `shards == 0`
    /// or the policy grants a process outside the offered shard.
    pub fn run_pool_sharded<M: StepMachine>(
        &mut self,
        policy: &mut dyn Policy,
        pool: &mut MachinePool<M>,
        shards: usize,
    ) {
        assert!(shards > 0, "need at least one shard");
        if shards == 1 {
            return self.run_pool(policy, pool);
        }
        self.reset();
        pool.begin_trial();
        let (machines, results, steps) = pool.trial_buffers();
        self.drive_sharded(policy, machines, results, steps, shards);
    }

    /// The last trial's granted schedule, when
    /// [`StepEngine::record_trace`] is on and the trace has not been
    /// moved into a [`SimOutcome`] — pooled trials leave it in place;
    /// after a boxed [`StepEngine::run_trial`] (which moves the buffer
    /// into its outcome) this is `None` until the next trial.
    #[must_use]
    pub fn trace(&self) -> Option<&[PendingOp]> {
        (self.record_trace && !self.trace_moved).then_some(self.trace.as_slice())
    }

    /// Processes the policy crashed in the last trial, in pid order.
    pub fn adversary_crashed(&self) -> impl Iterator<Item = Pid> + '_ {
        self.crashed_of(CrashKind::Adversary)
    }

    /// Processes the operation budget crashed in the last trial, in pid
    /// order (only reachable with [`StepEngine::panic_on_budget`] off).
    pub fn budget_crashed(&self) -> impl Iterator<Item = Pid> + '_ {
        self.crashed_of(CrashKind::Budget)
    }

    fn crashed_of(&self, kind: CrashKind) -> impl Iterator<Item = Pid> + '_ {
        self.crashed
            .iter()
            .enumerate()
            .filter_map(move |(pid, &c)| (c == kind).then_some(Pid(pid)))
    }

    /// Drops the granted-or-crashed process at `pending[idx]` from the
    /// maintained pending set, keeping it sorted by pid.
    fn remove_pending(&mut self, idx: usize) {
        let pid = self.pending.remove(idx).pid;
        self.pending_pos[pid.0] = NOT_PENDING;
        for entry in &self.pending[idx..] {
            self.pending_pos[entry.pid.0] -= 1;
        }
    }

    /// Performs the granted operation `op` of `machine` — the per-grant
    /// step both grant loops share: metrics, trace, the grantee's step
    /// count and the checker hook, then the operation itself. Reads hand
    /// the machine a borrow of the register word (no clone — snapshot
    /// scanners exploit this); the operand word of a write is
    /// materialized exactly once, here.
    // Forced: a machine type driven by both loops otherwise gets one
    // out-of-line copy, which cost ~10% per granted op.
    #[inline(always)]
    fn perform<M: StepMachine>(
        &mut self,
        machine: &mut M,
        op: PendingOp,
        steps: &mut u64,
    ) -> Poll<M::Output> {
        let PendingOp { pid, kind, reg, .. } = op;
        assert!(
            reg.0 < self.regs.len(),
            "register {reg} out of range ({} registers)",
            self.regs.len()
        );
        self.metrics.ops_per_register[reg.0] += 1;
        if self.record_trace {
            self.trace.push(PendingOp {
                pid,
                kind,
                reg,
                step_index: *steps,
            });
        }
        *steps += 1;
        self.metrics.total_ops += 1;
        #[cfg(feature = "check")]
        if let Some(c) = &mut self.checker {
            c.observe(pid, kind, reg, self.metrics.total_ops);
        }
        match kind {
            OpKind::Read => {
                self.metrics.reads += 1;
                machine.advance(self.regs.read(reg))
            }
            OpKind::Write => {
                self.metrics.writes += 1;
                let ShmOp::Write(_, word) = machine.op() else {
                    panic!("machine peek/op disagree on pending operation")
                };
                self.regs.write(reg, word);
                machine.advance(&NULL_WORD)
            }
        }
    }

    /// The pending-set entry of live machine `pid`, as `machine.peek()`
    /// describes it right now.
    fn pending_op<M: StepMachine>(machine: &M, pid: usize, steps: &[u64]) -> PendingOp {
        let (kind, reg) = machine.peek();
        PendingOp {
            pid: Pid(pid),
            kind,
            reg,
            step_index: steps[pid],
        }
    }

    /// Ends a trial whose operation budget is spent: panics while
    /// [`StepEngine::panic_on_budget`] is on; otherwise crashes every
    /// survivor, attributing the crash to the budget so outcomes and
    /// metrics can tell it apart from an adversary [`Action::Crash`].
    fn exhaust_budget<T>(&mut self, results: &mut [Option<Result<T, Crash>>]) {
        assert!(
            !self.panic_on_budget,
            "simulation exceeded its operation budget of {} ops — livelocked algorithm?",
            self.max_total_ops
        );
        for (pid, result) in results.iter_mut().enumerate() {
            if result.is_none() {
                self.crashed[pid] = CrashKind::Budget;
                self.metrics.budget_crashes += 1;
                *result = Some(Err(Crash));
            }
        }
    }

    /// Delivers the policy's [`Action::Crash`] to `pid`.
    fn crash<T>(&mut self, pid: Pid, results: &mut [Option<Result<T, Crash>>]) {
        self.crashed[pid.0] = CrashKind::Adversary;
        self.metrics.adversary_crashes += 1;
        results[pid.0] = Some(Err(Crash));
    }

    /// Closes the trial's metrics once every machine is done.
    fn finish_trial(&mut self, steps: &[u64]) {
        self.metrics.trials = 1;
        self.metrics.max_steps = steps.iter().copied().max().unwrap_or(0);
        #[cfg(feature = "check")]
        if let Some(c) = &self.checker {
            self.metrics.checker_ops = c.trial_ops();
            self.metrics.checker_violations = c.trial_violations();
        }
    }

    /// The grant loop shared by every unsharded trial entry point:
    /// `machines[i]` is process `Pid(i)`; a process is live while
    /// `results[i]` is `None`.
    ///
    /// The pending set the policy consults is maintained
    /// **incrementally**: it is built once at trial start, and each
    /// decision only touches the granted machine's entry (one
    /// [`StepMachine::peek`]) or removes a finished one — not one peek
    /// per live machine per decision.
    fn drive<M: StepMachine>(
        &mut self,
        policy: &mut dyn Policy,
        machines: &mut [M],
        results: &mut [Option<Result<M::Output, Crash>>],
        steps: &mut [u64],
    ) {
        let n = machines.len();
        debug_assert!(results.iter().all(Option::is_none));
        self.crashed.clear();
        self.crashed.resize(n, CrashKind::None);
        self.pending.clear();
        self.pending_pos.clear();
        for (pid, machine) in machines.iter().enumerate() {
            self.pending_pos.push(pid);
            self.pending.push(Self::pending_op(machine, pid, steps));
        }

        while !self.pending.is_empty() {
            if self.metrics.total_ops >= self.max_total_ops {
                self.exhaust_budget(results);
                break;
            }
            match policy.decide(&self.pending) {
                Action::Grant(pid) => {
                    let idx = self.pending_pos[pid.0];
                    assert!(
                        idx != NOT_PENDING,
                        "policy granted non-pending process {pid}"
                    );
                    let op = self.pending[idx];
                    if self.measure_contention {
                        let contention = self.pending.iter().filter(|p| p.reg == op.reg).count();
                        self.metrics.max_contention = self.metrics.max_contention.max(contention);
                    }
                    let machine = &mut machines[pid.0];
                    match self.perform(machine, op, &mut steps[pid.0]) {
                        Poll::Ready(out) => {
                            results[pid.0] = Some(Ok(out));
                            self.remove_pending(idx);
                        }
                        Poll::Pending => {
                            self.pending[idx] = Self::pending_op(machine, pid.0, steps);
                        }
                    }
                }
                Action::Crash(pid) => {
                    let idx = self.pending_pos[pid.0];
                    assert!(idx != NOT_PENDING, "policy crashed non-live process {pid}");
                    self.crash(pid, results);
                    self.remove_pending(idx);
                }
            }
        }
        self.finish_trial(steps);
    }

    /// The sharded grant loop (see [`StepEngine::run_pool_sharded`]).
    /// Pids are split into `shards` contiguous ranges of `⌈n/shards⌉`;
    /// each shard owns its pending vector exclusively (`pending_pos`
    /// holds intra-shard indices). Completed or crashed entries are
    /// swap-removed — O(1), deterministic, and the reason a mega-scale
    /// trial's removals don't degrade to O(live) memmoves.
    fn drive_sharded<M: StepMachine>(
        &mut self,
        policy: &mut dyn Policy,
        machines: &mut [M],
        results: &mut [Option<Result<M::Output, Crash>>],
        steps: &mut [u64],
        shards: usize,
    ) {
        let n = machines.len();
        debug_assert!(results.iter().all(Option::is_none));
        debug_assert!(shards > 1);
        self.crashed.clear();
        self.crashed.resize(n, CrashKind::None);
        self.metrics.shard_ops.resize(shards, 0);
        if self.measure_contention {
            self.metrics.shard_contention.resize(shards, 0);
        }
        let chunk = n.div_ceil(shards).max(1);
        let mut live_count = n;

        // Take the shard storage out of `self` so the decision loop can
        // borrow a shard immutably while metrics/registers mutate.
        let mut shard_pending = std::mem::take(&mut self.shard_pending);
        shard_pending.resize_with(shards, Vec::new);
        for shard in &mut shard_pending {
            shard.clear();
        }
        self.pending_pos.clear();
        for (pid, machine) in machines.iter().enumerate() {
            let shard = &mut shard_pending[pid / chunk];
            self.pending_pos.push(shard.len());
            shard.push(Self::pending_op(machine, pid, steps));
        }

        let mut cursor = 0usize;
        'trial: while live_count > 0 {
            for _ in 0..SHARD_BATCH {
                let shard = &shard_pending[cursor];
                if shard.is_empty() {
                    break;
                }
                if self.metrics.total_ops >= self.max_total_ops {
                    self.exhaust_budget(results);
                    break 'trial;
                }

                // One decision over this shard's pending set only —
                // the batched, cache-local policy consultation.
                let (pid, granted) = match policy.decide(shard) {
                    Action::Grant(pid) => (pid, true),
                    Action::Crash(pid) => (pid, false),
                };
                let idx = self.pending_pos[pid.0];
                assert!(
                    idx != NOT_PENDING && pid.0 / chunk == cursor,
                    "policy chose process {pid} outside the offered shard"
                );
                let done = if granted {
                    let op = shard[idx];
                    if self.measure_contention {
                        let contention = shard.iter().filter(|p| p.reg == op.reg).count();
                        self.metrics.max_contention = self.metrics.max_contention.max(contention);
                        self.metrics.shard_contention[cursor] =
                            self.metrics.shard_contention[cursor].max(contention);
                    }
                    self.metrics.shard_ops[cursor] += 1;
                    let machine = &mut machines[pid.0];
                    match self.perform(machine, op, &mut steps[pid.0]) {
                        Poll::Ready(out) => {
                            results[pid.0] = Some(Ok(out));
                            true
                        }
                        Poll::Pending => {
                            shard_pending[cursor][idx] = Self::pending_op(machine, pid.0, steps);
                            false
                        }
                    }
                } else {
                    self.crash(pid, results);
                    true
                };
                if done {
                    live_count -= 1;
                    let shard = &mut shard_pending[cursor];
                    shard.swap_remove(idx);
                    self.pending_pos[pid.0] = NOT_PENDING;
                    if idx < shard.len() {
                        self.pending_pos[shard[idx].pid.0] = idx;
                    }
                }
            }
            cursor = (cursor + 1) % shards;
        }
        self.shard_pending = shard_pending;
        self.finish_trial(steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CrashStorm, RandomPolicy, RoundRobin, Scripted, Solo};
    use crate::runner::SimBuilder;
    use exsel_shm::{Ctx, RegAlloc, RegId, RegRange, Step};

    /// A machine performing `rounds` write/read pairs on one register.
    struct Hammer {
        reg: RegId,
        id: u64,
        rounds: u64,
        done_ops: u64,
        last_read: Word,
    }

    impl Hammer {
        fn new(reg: RegId, id: u64, rounds: u64) -> Self {
            Hammer {
                reg,
                id,
                rounds,
                done_ops: 0,
                last_read: Word::Null,
            }
        }
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
    }

    /// The same program as a blocking closure, for backend comparison.
    fn hammer_blocking(bank: RegRange, rounds: u64) -> impl Fn(Ctx<'_>) -> Step<Word> + Sync {
        move |ctx| {
            let mut last = Word::Null;
            for _ in 0..rounds {
                ctx.write(bank.get(0), ctx.pid().0 as u64)?;
                last = ctx.read(bank.get(0))?;
            }
            Ok(last)
        }
    }

    fn hammer_machines(
        bank: RegRange,
        n: usize,
        rounds: u64,
    ) -> Vec<Box<dyn StepMachine<Output = Word>>> {
        (0..n)
            .map(|p| -> Box<dyn StepMachine<Output = Word>> {
                Box::new(Hammer::new(bank.get(0), p as u64, rounds))
            })
            .collect()
    }

    #[test]
    fn round_robin_matches_thread_backed_runner() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let threaded = SimBuilder::new(alloc.total(), Box::new(RoundRobin::new()))
            .record_trace(true)
            .run(3, hammer_blocking(bank, 4));
        let engine = StepEngine::new(alloc.total(), Box::new(RoundRobin::new()))
            .record_trace(true)
            .run(hammer_machines(bank, 3, 4));
        assert_eq!(threaded.trace, engine.trace);
        assert_eq!(threaded.steps, engine.steps);
        assert_eq!(
            threaded
                .results
                .iter()
                .map(|r| r.as_ref().unwrap())
                .collect::<Vec<_>>(),
            engine
                .results
                .iter()
                .map(|r| r.as_ref().unwrap())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn random_policy_matches_thread_backed_runner_across_seeds() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        for seed in 0..10 {
            let threaded = SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(seed)))
                .record_trace(true)
                .run(4, hammer_blocking(bank, 3));
            let engine = StepEngine::new(alloc.total(), Box::new(RandomPolicy::new(seed)))
                .record_trace(true)
                .run(hammer_machines(bank, 4, 3));
            assert_eq!(threaded.trace, engine.trace, "seed {seed}");
            assert_eq!(threaded.steps, engine.steps, "seed {seed}");
        }
    }

    #[test]
    fn crashes_are_delivered_and_reported() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let policy = CrashStorm::new(Box::new(RoundRobin::new()), 9, 0.5, 2);
        let outcome =
            StepEngine::new(alloc.total(), Box::new(policy)).run(hammer_machines(bank, 4, 10));
        assert_eq!(outcome.crashed.len(), 2);
        assert!(outcome.budget_crashed.is_empty());
        assert!(!outcome.budget_exhausted());
        for pid in &outcome.crashed {
            assert!(outcome.results[pid.0].is_err());
        }
        assert_eq!(outcome.completed().count(), 2);
    }

    #[test]
    fn solo_runs_hero_first() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let outcome = StepEngine::new(alloc.total(), Box::new(Solo::new(Pid(2))))
            .record_trace(true)
            .run(hammer_machines(bank, 3, 2));
        let trace = outcome.trace.unwrap();
        assert!(trace[..4].iter().all(|op| op.pid == Pid(2)));
    }

    #[test]
    fn scripted_replay_reproduces_engine_runs() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let original = StepEngine::new(alloc.total(), Box::new(RandomPolicy::new(99)))
            .record_trace(true)
            .run(hammer_machines(bank, 3, 2));
        let replay = StepEngine::new(
            alloc.total(),
            Box::new(Scripted::from_trace(original.trace.as_ref().unwrap())),
        )
        .record_trace(true)
        .run(hammer_machines(bank, 3, 2));
        assert_eq!(original.trace, replay.trace);
    }

    #[test]
    #[should_panic(expected = "operation budget")]
    fn budget_exhaustion_panics() {
        /// Spins forever.
        struct Spin(RegId);
        impl StepMachine for Spin {
            type Output = ();
            fn op(&self) -> ShmOp {
                ShmOp::Read(self.0)
            }
            fn advance(&mut self, _input: &Word) -> Poll<()> {
                Poll::Pending
            }
        }
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        StepEngine::new(alloc.total(), Box::new(RoundRobin::new()))
            .max_total_ops(100)
            .run(vec![
                Box::new(Spin(bank.get(0))) as Box<dyn StepMachine<Output = ()>>,
                Box::new(Spin(bank.get(0))),
            ]);
    }

    #[test]
    fn budget_crashes_are_distinguished_from_adversary_crashes() {
        /// Spins forever.
        struct Spin(RegId);
        impl StepMachine for Spin {
            type Output = ();
            fn op(&self) -> ShmOp {
                ShmOp::Read(self.0)
            }
            fn advance(&mut self, _input: &Word) -> Poll<()> {
                Poll::Pending
            }
        }
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        // The storm crashes exactly one spinner; the budget then kills
        // the remaining two. The outcome tells the causes apart.
        let policy = CrashStorm::new(Box::new(RoundRobin::new()), 5, 1.0, 1);
        let mut engine = StepEngine::reusable(alloc.total())
            .max_total_ops(50)
            .panic_on_budget(false);
        let mut policy: Box<dyn Policy> = Box::new(policy);
        let outcome = engine.run_trial(
            policy.as_mut(),
            (0..3)
                .map(|_| Box::new(Spin(bank.get(0))) as Box<dyn StepMachine<Output = ()>>)
                .collect(),
        );
        assert!(outcome.budget_exhausted());
        assert_eq!(outcome.crashed.len(), 1);
        assert_eq!(outcome.budget_crashed.len(), 2);
        assert!(outcome
            .crashed
            .iter()
            .all(|pid| !outcome.budget_crashed.contains(pid)));
        assert_eq!(engine.metrics().adversary_crashes, 1);
        assert_eq!(engine.metrics().budget_crashes, 2);
        assert!(outcome.results.iter().all(Result::is_err));
    }

    #[test]
    fn reused_engine_is_trace_identical_to_fresh() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let fresh = StepEngine::new(alloc.total(), Box::new(RandomPolicy::new(31)))
            .record_trace(true)
            .run(hammer_machines(bank, 4, 3));
        let mut reused = StepEngine::reusable(alloc.total()).record_trace(true);
        // Dirty the scratch with unrelated trials first.
        for seed in 0..3 {
            let mut warm: Box<dyn Policy> = Box::new(RandomPolicy::new(seed));
            reused.run_trial(warm.as_mut(), hammer_machines(bank, 4, 3));
        }
        let mut policy: Box<dyn Policy> = Box::new(RandomPolicy::new(31));
        let again = reused.run_trial(policy.as_mut(), hammer_machines(bank, 4, 3));
        assert_eq!(fresh.trace, again.trace);
        assert_eq!(fresh.steps, again.steps);
        assert_eq!(fresh.total_ops, again.total_ops);
    }

    #[test]
    fn incremental_pending_is_trace_identical_to_rebuild() {
        // The maintained pending set must present policies with exactly
        // the view the thread-backed scheduler rebuilds at every
        // decision — including under crashes and completions.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let storm = |seed: u64| -> Box<dyn Policy> {
            Box::new(CrashStorm::new(
                Box::new(RandomPolicy::new(seed)),
                !seed,
                0.1,
                2,
            ))
        };
        for seed in 0..12u64 {
            let reference = SimBuilder::new(alloc.total(), storm(seed))
                .record_trace(true)
                .run(5, hammer_blocking(bank, 4));
            let incremental = StepEngine::new(alloc.total(), storm(seed))
                .record_trace(true)
                .run(hammer_machines(bank, 5, 4));
            assert_eq!(reference.trace, incremental.trace, "seed {seed}");
            assert_eq!(reference.steps, incremental.steps, "seed {seed}");
            assert_eq!(reference.crashed, incremental.crashed, "seed {seed}");
        }
    }

    #[test]
    fn sharded_names_are_exclusive_on_both_banks() {
        // Sharding is a different (legal) adversary, so only the
        // algorithm's guarantees are asserted — exclusive names, at
        // least half named — plus slab/Arc agreement on the outcome.
        use exsel_core::{Majority, MajorityOp, RenameConfig};
        use exsel_shm::SlabBank;
        use std::collections::BTreeSet;

        let mut alloc = RegAlloc::new();
        let algo = Majority::new(&mut alloc, 128, 8, &RenameConfig::default());
        let mut arc_engine = StepEngine::reusable(alloc.total());
        let mut slab_engine = StepEngine::reusable_with(alloc.total(), SlabBank::new());
        let mut pool: MachinePool<MajorityOp> =
            (0..8u64).map(|i| algo.begin_walk(i * 13 + 2)).collect();
        for shards in [2usize, 3, 8] {
            arc_engine.run_pool_sharded(&mut RoundRobin::new(), &mut pool, shards);
            let arc_results = pool.results().to_vec();
            let names: Vec<u64> = arc_results
                .iter()
                .filter_map(|r| r.as_ref().unwrap().as_ref().ok().and_then(|o| o.name()))
                .collect();
            let set: BTreeSet<u64> = names.iter().copied().collect();
            assert_eq!(set.len(), names.len(), "shards={shards}: duplicate names");
            assert!(
                names.len() * 2 >= pool.len(),
                "shards={shards}: fewer than half named"
            );

            slab_engine.run_pool_sharded(&mut RoundRobin::new(), &mut pool, shards);
            assert_eq!(
                arc_results,
                pool.results(),
                "shards={shards}: slab bank diverged from Arc bank"
            );
            let shard_ops = &slab_engine.metrics().shard_ops;
            assert_eq!(shard_ops.len(), shards, "shards={shards}: shard_ops width");
            assert_eq!(
                shard_ops.iter().sum::<u64>(),
                slab_engine.metrics().total_ops,
                "shards={shards}: shard_ops must partition total_ops"
            );
        }
    }

    #[test]
    fn metrics_count_the_grant_loop() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut engine = StepEngine::reusable(alloc.total()).measure_contention(true);
        let mut policy: Box<dyn Policy> = Box::new(RoundRobin::new());
        let outcome = engine.run_trial(policy.as_mut(), hammer_machines(bank, 3, 2));
        let m = engine.metrics();
        // 3 machines × 2 rounds × (1 write + 1 read).
        assert_eq!(m.total_ops, 12);
        assert_eq!(m.reads, 6);
        assert_eq!(m.writes, 6);
        assert_eq!(m.max_steps, 4);
        assert_eq!(m.ops_per_register, vec![12]);
        assert_eq!(m.hottest_register(), Some((0, 12)));
        // Everyone always contends on the single register.
        assert_eq!(m.max_contention, 3);
        assert_eq!(m.adversary_crashes, 0);
        assert_eq!(outcome.total_ops, 12);

        // Merging two trials' metrics adds counters and maxes maxima.
        let mut agg = Metrics::default();
        agg.merge(m);
        let mut policy: Box<dyn Policy> = Box::new(RoundRobin::new());
        engine.run_trial(policy.as_mut(), hammer_machines(bank, 2, 1));
        agg.merge(engine.metrics());
        assert_eq!(agg.trials, 2);
        assert_eq!(agg.total_ops, 12 + 4);
        assert_eq!(agg.max_contention, 3);
        assert_eq!(agg.ops_per_register, vec![16]);
    }

    #[test]
    fn set_registers_resizes_the_bank_between_trials() {
        let mut engine = StepEngine::reusable(1);
        struct Touch(RegId);
        impl StepMachine for Touch {
            type Output = ();
            fn op(&self) -> ShmOp {
                ShmOp::Read(self.0)
            }
            fn advance(&mut self, _input: &Word) -> Poll<()> {
                Poll::Ready(())
            }
        }
        let mut policy: Box<dyn Policy> = Box::new(RoundRobin::new());
        engine.run_trial(
            policy.as_mut(),
            vec![Box::new(Touch(RegId(0))) as Box<dyn StepMachine<Output = ()>>],
        );
        engine.set_registers(8);
        let outcome = engine.run_trial(
            policy.as_mut(),
            vec![Box::new(Touch(RegId(7))) as Box<dyn StepMachine<Output = ()>>],
        );
        assert!(outcome.results[0].is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_is_rejected() {
        struct Bad;
        impl StepMachine for Bad {
            type Output = ();
            fn op(&self) -> ShmOp {
                ShmOp::Read(RegId(5))
            }
            fn advance(&mut self, _input: &Word) -> Poll<()> {
                Poll::Ready(())
            }
        }
        StepEngine::new(1, Box::new(RoundRobin::new()))
            .run(vec![Box::new(Bad) as Box<dyn StepMachine<Output = ()>>]);
    }

    #[test]
    fn empty_machine_set_returns_immediately() {
        let outcome = StepEngine::new(4, Box::new(RoundRobin::new()))
            .run(Vec::<Box<dyn StepMachine<Output = ()>>>::new());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.total_ops, 0);
    }

    #[test]
    fn spawns_no_threads_for_thousands_of_processes() {
        // 2000 simulated processes, one shared register: on the threaded
        // backend this would need 2000 stacks; here it is a vector walk.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let outcome = StepEngine::new(alloc.total(), Box::new(RoundRobin::new()))
            .run(hammer_machines(bank, 2000, 2));
        assert_eq!(outcome.results.len(), 2000);
        assert_eq!(outcome.total_ops, 2000 * 4);
        assert!(outcome.results.iter().all(Result::is_ok));
    }
}
