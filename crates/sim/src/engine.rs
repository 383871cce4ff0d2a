//! The single-threaded step-machine execution engine.
//!
//! [`StepEngine`] runs a [`MachinePool`] of [`StepMachine`]s under a
//! [`Policy`] with the exact lock-step semantics of the thread-backed
//! scheduler ([`crate::SimMemory`]/[`crate::SimBuilder`]) but **zero OS
//! threads, zero locks and zero parked stacks**: every live machine always
//! exposes its pending operation (`op()` is pure), so the policy can be
//! consulted directly and the chosen operation applied in place. Because
//! the blocking algorithm APIs are `drive` adapters over the same
//! machines, the two backends observe identical operation sequences — the
//! same policy (and seed) produces the same trace, steps and results on
//! both.
//!
//! Use the thread-backed [`crate::SimBuilder`] for closure-style process
//! bodies; use `StepEngine` whenever the algorithms expose step machines
//! and you care about speed or scale — exhaustive exploration, adversary
//! searches, crash storms over thousands of processes.
//!
//! # Trials, reuse and the register bank
//!
//! An engine is **reusable**: [`StepEngine::run_pool`] (or its sharded
//! form, [`StepEngine::run_pool_sharded`]) runs one execution under a
//! caller-supplied policy, re-initializes the register bank, pending-op
//! scratch, crash vector and metric histograms in place, and resets the
//! pool's machines ([`StepMachine::reset`]); results land in the pool's
//! own buffers, so steady-state trials perform **zero heap allocations**
//! (`tests/alloc_free.rs` proves it with a counting allocator). The
//! pending set the policy consults is maintained incrementally — one
//! [`StepMachine::peek`] per *grant*, not one per live machine per
//! decision; the thread-backed [`crate::SimBuilder`], which rebuilds its
//! pending set at every decision, is the differential reference (this is
//! tested under crash storms). With [`StepEngine::record_trace`] on, the
//! trace buffer is reserved once and the last trial's schedule stays
//! readable via [`StepEngine::trace`]. A reused engine and pool are
//! observationally identical to fresh ones: same policy + seed ⇒ same
//! trace (this is tested).
//!
//! The register bank defaults to [`SlabBank`] (inline small payloads,
//! generation-tagged slab handles for snapshot records). Any other
//! [`RegisterBank`] plugs in through [`StepEngine::reusable_with`]; the
//! differential tests run [`exsel_shm::ArcBank`], one `Word` per
//! register, as the slab bank's oracle.
//!
//! Per-trial [`Metrics`] (operation mix, ops per register, crash causes,
//! contention) are collected during the grant loop and read back with
//! [`StepEngine::metrics`].

use exsel_shm::{
    Crash, OpKind, Pid, Poll, RegisterBank, ShmOp, SlabBank, SnapArenaStats, StepMachine, Word,
};

use crate::policy::{Action, PendingOp, Policy};
use crate::pool::MachinePool;

/// The input handed to a machine consuming a granted write.
const NULL_WORD: Word = Word::Null;

/// The `--features check` state of a grant loop: the footprint checker,
/// if installed. Empty without the feature.
#[derive(Default)]
pub(crate) struct GrantChecks {
    #[cfg(feature = "check")]
    pub(crate) checker: Option<exsel_analysis::AccessChecker>,
}

/// One grant, shared by every grant loop: performs `op`, the pending
/// operation of `machine`, against `bank` and advances the machine. The
/// machine is process `pid`; `index` numbers the grant in its loop, the
/// footprint checker's clock. With `--features check` it feeds the
/// checker, if one is installed.
// Forced: see `StepEngine::perform`.
#[inline(always)]
#[cfg_attr(not(feature = "check"), allow(unused_variables))]
pub(crate) fn grant<B: RegisterBank, M: StepMachine>(
    bank: &mut B,
    checks: &mut GrantChecks,
    machine: &mut M,
    op: ShmOp,
    pid: Pid,
    index: u64,
) -> Poll<M::Output> {
    #[cfg(feature = "check")]
    if let Some(c) = &mut checks.checker {
        c.observe(pid, op.kind(), op.reg(), index);
    }
    match op {
        ShmOp::Read(reg) => machine.advance(bank.read(reg)),
        ShmOp::Write(reg, word) => {
            bank.write(reg, word);
            machine.advance(&NULL_WORD)
        }
    }
}

/// Counters collected by [`StepEngine`] during one trial's grant loop,
/// read back with [`StepEngine::metrics`] after the trial. Cleared at
/// the start of every trial; fold trials together with
/// [`Metrics::merge`].
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
/// Generic over the register-bank storage `B` — [`SlabBank`] by default
/// (inline small payloads + generation-tagged slab handles for snapshot
/// records), or any other [`RegisterBank`] through
/// [`StepEngine::reusable_with`], such as the [`exsel_shm::ArcBank`]
/// oracle (one `Word` enum per register). The two are bit-identical per
/// trial (`tests/pooled_determinism.rs` proves it differentially).
pub struct StepEngine<B: RegisterBank = SlabBank> {
    num_registers: usize,
    max_total_ops: u64,
    record_trace: bool,
    measure_contention: bool,
    panic_on_budget: bool,
    // Scratch reused across trials — the point of `reset`: the register
    // bank, the pending-op buffer, the per-pid crash vector, the trace
    // storage and the metric histograms keep their capacity from one
    // trial to the next.
    regs: B,
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
    /// The footprint checker ([`grant`]).
    checks: GrantChecks,
}

/// Sentinel in `pending_pos` for completed/crashed processes.
const NOT_PENDING: usize = usize::MAX;

/// Bytes a pooled trial reserves its trace for, at most (see
/// [`StepEngine::reserve_trace`]): 32 MiB, the size from which glibc's
/// `malloc` always maps a request on its own (its heap threshold tops
/// out there).
const TRACE_RESERVE_BYTES: usize = 32 << 20;

/// Policy decisions taken per shard visit before the sharded grant loop
/// rotates to the next non-empty shard — the batching that keeps
/// decisions cache-local on one shard's pending set at a time.
const SHARD_BATCH: usize = 32;

// The constructor that pins the default `SlabBank` storage lives on a
// non-generic impl block: default type parameters do not participate in
// function-call inference, so `StepEngine::reusable(n)` must resolve `B`
// through the impl's self type.
impl StepEngine {
    /// A reusable engine over `num_registers` registers of the default
    /// [`SlabBank`]: run trials with [`StepEngine::run_pool`], which
    /// reuses the engine's scratch buffers across trials instead of
    /// reallocating per run.
    #[must_use]
    pub fn reusable(num_registers: usize) -> Self {
        Self::reusable_with(num_registers, SlabBank::new())
    }
}

impl<B: RegisterBank> StepEngine<B> {
    /// A reusable engine over an explicit register-bank backend, e.g.
    /// `StepEngine::reusable_with(regs, ArcBank::new())`. Behaves
    /// exactly like [`StepEngine::reusable`] otherwise.
    #[must_use]
    pub fn reusable_with(num_registers: usize, bank: B) -> Self {
        StepEngine {
            num_registers,
            max_total_ops: 50_000_000,
            record_trace: false,
            measure_contention: false,
            panic_on_budget: true,
            regs: bank,
            pending: Vec::new(),
            pending_pos: Vec::new(),
            shard_pending: Vec::new(),
            crashed: Vec::new(),
            trace: Vec::new(),
            metrics: Metrics::default(),
            checks: GrantChecks::default(),
        }
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

    /// Records each trial's granted schedule, read back with
    /// [`StepEngine::trace`].
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
    /// are crashed with a **budget** cause instead:
    /// [`StepEngine::budget_crashed`] lists them, distinguishable from
    /// the adversary [`Action::Crash`] victims that
    /// [`StepEngine::adversary_crashed`] lists.
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
        self.checks.checker = Some(checker);
    }

    /// The installed checker, if any — e.g. to inspect
    /// [`violations`](exsel_analysis::AccessChecker::violations) after a
    /// trial.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn checker(&self) -> Option<&exsel_analysis::AccessChecker> {
        self.checks.checker.as_ref()
    }

    /// Uninstalls and returns the checker (subsequent trials run
    /// unchecked).
    #[cfg(feature = "check")]
    pub fn take_checker(&mut self) -> Option<exsel_analysis::AccessChecker> {
        self.checks.checker.take()
    }

    /// Re-initializes the engine's state in place for the next trial:
    /// registers to [`Word::Null`], trace and metrics cleared — **keeping
    /// every buffer's capacity**. Called at the start of every trial.
    fn reset(&mut self) {
        self.regs.reset(self.num_registers);
        self.trace.clear();
        self.metrics.reset(self.num_registers);
        #[cfg(feature = "check")]
        if let Some(c) = &mut self.checks.checker {
            c.begin_trial();
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
    /// Panics if the operation budget is exhausted while
    /// [`StepEngine::panic_on_budget`] is on, if a machine targets a
    /// register out of range, if the policy grants a non-pending process
    /// or crashes a non-live one, or if a pooled machine does not
    /// implement [`StepMachine::reset`].
    pub fn run_pool<M: StepMachine>(&mut self, policy: &mut dyn Policy, pool: &mut MachinePool<M>) {
        self.reset();
        self.reserve_trace();
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
        self.reserve_trace();
        pool.begin_trial();
        let (machines, results, steps) = pool.trial_buffers();
        self.drive_sharded(policy, machines, results, steps, shards);
    }

    /// Gives a pooled recording engine its trace buffer in one
    /// allocation of [`TRACE_RESERVE_BYTES`], or of the op budget if
    /// that is fewer ops; a no-op once the buffer is that large.
    ///
    /// The trace is the engine's largest buffer (one [`PendingOp`] per
    /// granted op). Grown by doubling from empty, it would move up the
    /// heap past the machines' per-trial allocations and leave a hole at
    /// every size it outgrew; how much of that stays resident depends on
    /// where a schedule's allocations land, so peak RSS would differ by
    /// MiBs from seed to seed. A request this large gets a mapping of
    /// its own, so the trace stays put and only the pages it writes
    /// become resident.
    fn reserve_trace(&mut self) {
        if self.record_trace {
            let ops = TRACE_RESERVE_BYTES / std::mem::size_of::<PendingOp>();
            let ops = usize::try_from(self.max_total_ops).map_or(ops, |budget| budget.min(ops));
            self.trace.reserve(ops);
        }
    }

    /// The last trial's granted schedule, when
    /// [`StepEngine::record_trace`] is on.
    #[must_use]
    pub fn trace(&self) -> Option<&[PendingOp]> {
        self.record_trace.then_some(self.trace.as_slice())
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
    /// step both grant loops share: metrics, trace and the grantee's step
    /// count, then the shared [`grant`]. Reads hand the machine a borrow
    /// of the register word (no clone — snapshot scanners exploit this);
    /// the operand word of a write is materialized exactly once, here.
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
        let op = match kind {
            OpKind::Read => {
                self.metrics.reads += 1;
                ShmOp::Read(reg)
            }
            OpKind::Write => {
                self.metrics.writes += 1;
                let ShmOp::Write(_, word) = machine.op() else {
                    panic!("machine peek/op disagree on pending operation")
                };
                ShmOp::Write(reg, word)
            }
        };
        let index = self.metrics.total_ops;
        grant(&mut self.regs, &mut self.checks, machine, op, pid, index)
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
    /// survivor, attributing the crash to the budget so the crash-cause
    /// iterators and metrics can tell it apart from an adversary
    /// [`Action::Crash`].
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
        if let Some(c) = &self.checks.checker {
            self.metrics.checker_ops = c.trial_ops();
            self.metrics.checker_violations = c.trial_violations();
        }
    }

    /// The unsharded grant loop ([`StepEngine::run_pool`]):
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
        fn reset(&mut self, pid: Pid) {
            self.id = pid.0 as u64;
            self.done_ops = 0;
            self.last_read = Word::Null;
        }
    }

    /// A machine reading one register `reads` times (forever at
    /// `u64::MAX`).
    struct Spin {
        reg: RegId,
        reads: u64,
        done: u64,
    }

    impl Spin {
        fn new(reg: RegId, reads: u64) -> Self {
            Spin {
                reg,
                reads,
                done: 0,
            }
        }
    }

    impl StepMachine for Spin {
        type Output = ();
        fn op(&self) -> ShmOp {
            ShmOp::Read(self.reg)
        }
        fn advance(&mut self, _input: &Word) -> Poll<()> {
            self.done += 1;
            if self.done == self.reads {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        }
        fn reset(&mut self, _pid: Pid) {
            self.done = 0;
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

    fn hammers(bank: RegRange, n: usize, rounds: u64) -> MachinePool<Hammer> {
        (0..n)
            .map(|p| Hammer::new(bank.get(0), p as u64, rounds))
            .collect()
    }

    fn spins(reg: RegId, n: usize, reads: u64) -> MachinePool<Spin> {
        (0..n).map(|_| Spin::new(reg, reads)).collect()
    }

    /// One trial of `pool` under `policy` on a fresh recording engine
    /// over `regs` registers, returned for inspection.
    fn traced<M: StepMachine>(
        regs: usize,
        policy: &mut dyn Policy,
        pool: &mut MachinePool<M>,
    ) -> StepEngine {
        let mut engine = StepEngine::reusable(regs).record_trace(true);
        engine.run_pool(policy, pool);
        engine
    }

    #[test]
    fn round_robin_matches_thread_backed_runner() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let threaded = SimBuilder::new(alloc.total(), Box::new(RoundRobin::new()))
            .record_trace(true)
            .run(3, hammer_blocking(bank, 4));
        let mut pool = hammers(bank, 3, 4);
        let engine = traced(alloc.total(), &mut RoundRobin::new(), &mut pool);
        assert_eq!(threaded.trace.as_deref(), engine.trace());
        assert_eq!(threaded.steps, pool.steps());
        let pooled: Vec<Step<Word>> = pool.results().iter().map(|r| r.clone().unwrap()).collect();
        assert_eq!(threaded.results, pooled);
    }

    #[test]
    fn random_policy_matches_thread_backed_runner_across_seeds() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut pool = hammers(bank, 4, 3);
        for seed in 0..10 {
            let threaded = SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(seed)))
                .record_trace(true)
                .run(4, hammer_blocking(bank, 3));
            let engine = traced(alloc.total(), &mut RandomPolicy::new(seed), &mut pool);
            assert_eq!(threaded.trace.as_deref(), engine.trace(), "seed {seed}");
            assert_eq!(threaded.steps, pool.steps(), "seed {seed}");
        }
    }

    #[test]
    fn crashes_are_delivered_and_reported() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut policy = CrashStorm::new(Box::new(RoundRobin::new()), 9, 0.5, 2);
        let mut pool = hammers(bank, 4, 10);
        let mut engine = StepEngine::reusable(alloc.total());
        engine.run_pool(&mut policy, &mut pool);
        let crashed: Vec<Pid> = engine.adversary_crashed().collect();
        assert_eq!(crashed.len(), 2);
        assert_eq!(engine.budget_crashed().count(), 0);
        for pid in &crashed {
            assert_eq!(pool.results()[pid.0], Some(Err(Crash)));
        }
        assert_eq!(pool.completed().count(), 2);
    }

    #[test]
    fn solo_runs_hero_first() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let engine = traced(
            alloc.total(),
            &mut Solo::new(Pid(2)),
            &mut hammers(bank, 3, 2),
        );
        let trace = engine.trace().unwrap();
        assert!(trace[..4].iter().all(|op| op.pid == Pid(2)));
    }

    #[test]
    fn scripted_replay_reproduces_engine_runs() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut pool = hammers(bank, 3, 2);
        let original = traced(alloc.total(), &mut RandomPolicy::new(99), &mut pool);
        let trace = original.trace().unwrap();
        let replay = traced(alloc.total(), &mut Scripted::from_trace(trace), &mut pool);
        assert_eq!(Some(trace), replay.trace());
    }

    #[test]
    #[should_panic(expected = "operation budget")]
    fn budget_exhaustion_panics() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        StepEngine::reusable(alloc.total())
            .max_total_ops(100)
            .run_pool(&mut RoundRobin::new(), &mut spins(bank.get(0), 2, u64::MAX));
    }

    #[test]
    fn budget_crashes_are_distinguished_from_adversary_crashes() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        // The storm crashes exactly one spinner; the budget then kills
        // the remaining two. The engine tells the causes apart.
        let mut policy = CrashStorm::new(Box::new(RoundRobin::new()), 5, 1.0, 1);
        let mut engine = StepEngine::reusable(alloc.total())
            .max_total_ops(50)
            .panic_on_budget(false);
        let mut pool = spins(bank.get(0), 3, u64::MAX);
        engine.run_pool(&mut policy, &mut pool);
        let crashed: Vec<Pid> = engine.adversary_crashed().collect();
        let budget_crashed: Vec<Pid> = engine.budget_crashed().collect();
        assert_eq!(crashed.len(), 1);
        assert_eq!(budget_crashed.len(), 2);
        assert!(crashed.iter().all(|pid| !budget_crashed.contains(pid)));
        assert_eq!(engine.metrics().adversary_crashes, 1);
        assert_eq!(engine.metrics().budget_crashes, 2);
        assert!(pool.results().iter().all(|r| *r == Some(Err(Crash))));
    }

    #[test]
    fn reused_engine_is_trace_identical_to_fresh() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut fresh_pool = hammers(bank, 4, 3);
        let fresh = traced(alloc.total(), &mut RandomPolicy::new(31), &mut fresh_pool);
        let mut reused = StepEngine::reusable(alloc.total()).record_trace(true);
        let mut pool = hammers(bank, 4, 3);
        // Dirty the scratch with unrelated trials first.
        for seed in 0..3 {
            reused.run_pool(&mut RandomPolicy::new(seed), &mut pool);
        }
        reused.run_pool(&mut RandomPolicy::new(31), &mut pool);
        assert_eq!(fresh.trace(), reused.trace());
        assert_eq!(fresh_pool.steps(), pool.steps());
        assert_eq!(fresh.metrics().total_ops, reused.metrics().total_ops);
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
        let mut pool = hammers(bank, 5, 4);
        for seed in 0..12u64 {
            let reference = SimBuilder::new(alloc.total(), storm(seed))
                .record_trace(true)
                .run(5, hammer_blocking(bank, 4));
            let incremental = traced(alloc.total(), storm(seed).as_mut(), &mut pool);
            assert_eq!(
                reference.trace.as_deref(),
                incremental.trace(),
                "seed {seed}"
            );
            assert_eq!(reference.steps, pool.steps(), "seed {seed}");
            assert_eq!(
                reference.crashed,
                incremental.adversary_crashed().collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sharded_names_are_exclusive_on_both_banks() {
        // Sharding is a different (legal) adversary, so only the
        // algorithm's guarantees are asserted — exclusive names, at
        // least half named — plus slab/Arc agreement on the outcome.
        use exsel_core::{Majority, MajorityOp, RenameConfig};
        use exsel_shm::ArcBank;
        use std::collections::BTreeSet;

        let mut alloc = RegAlloc::new();
        let algo = Majority::new(&mut alloc, 128, 8, &RenameConfig::default());
        let mut arc_engine = StepEngine::reusable_with(alloc.total(), ArcBank::new());
        let mut slab_engine = StepEngine::reusable(alloc.total());
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
        engine.run_pool(&mut RoundRobin::new(), &mut hammers(bank, 3, 2));
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

        // Merging two trials' metrics adds counters and maxes maxima.
        let mut agg = Metrics::default();
        agg.merge(m);
        engine.run_pool(&mut RoundRobin::new(), &mut hammers(bank, 2, 1));
        agg.merge(engine.metrics());
        assert_eq!(agg.trials, 2);
        assert_eq!(agg.total_ops, 12 + 4);
        assert_eq!(agg.max_contention, 3);
        assert_eq!(agg.ops_per_register, vec![16]);
    }

    #[test]
    fn set_registers_resizes_the_bank_between_trials() {
        let mut engine = StepEngine::reusable(1);
        let mut policy = RoundRobin::new();
        engine.run_pool(&mut policy, &mut spins(RegId(0), 1, 1));
        engine.set_registers(8);
        let mut pool = spins(RegId(7), 1, 1);
        engine.run_pool(&mut policy, &mut pool);
        assert_eq!(pool.completed().count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_is_rejected() {
        StepEngine::reusable(1).run_pool(&mut RoundRobin::new(), &mut spins(RegId(5), 1, 1));
    }

    #[test]
    fn empty_machine_set_returns_immediately() {
        let mut engine = StepEngine::reusable(4);
        let mut pool = spins(RegId(0), 0, 1);
        engine.run_pool(&mut RoundRobin::new(), &mut pool);
        assert!(pool.results().is_empty());
        assert_eq!(engine.metrics().total_ops, 0);
    }

    #[test]
    fn spawns_no_threads_for_thousands_of_processes() {
        // 2000 simulated processes, one shared register: on the threaded
        // backend this would need 2000 stacks; here it is a vector walk.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut engine = StepEngine::reusable(alloc.total());
        let mut pool = hammers(bank, 2000, 2);
        engine.run_pool(&mut RoundRobin::new(), &mut pool);
        assert_eq!(pool.results().len(), 2000);
        assert_eq!(engine.metrics().total_ops, 2000 * 4);
        assert_eq!(pool.completed().count(), 2000);
    }
}
