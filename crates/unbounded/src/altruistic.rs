//! `Altruistic-Deposit` — Theorem 9: a wait-free repository wasting at
//! most `n(n−1)` dedicated registers.
//!
//! Names are shared instead of used selfishly: process `p` continuously
//! services its *row* of an `n × n` `Help` matrix — whenever `Help[p][q]`
//! is empty, `p` acquires a fresh name through the (non-blocking)
//! unbounded-naming machinery and parks it there for `q` — while
//! simultaneously scanning its *column* `Help[*][p]` for a name to
//! consume. The two activities are interleaved one shared-memory event at
//! a time, exactly as §5 prescribes; that is why the acquire is driven
//! through the poll-based [`AcquireOp`](crate::AcquireOp). Wait-freedom of
//! `deposit`: global progress of the naming machinery means *somebody*
//! keeps filling rows — including column `p` — so `p`'s column scan
//! eventually finds a name even if `p`'s own acquisitions starve.
//!
//! Both activities are written in **announce-first form** (`row_op` /
//! `row_consume`, `column_op` / `column_consume`): the next shared-memory
//! operation is described purely, and a transition consumes its result.
//! The blocking [`AltruisticDeposit::deposit`] and the pooled
//! [`DepositOp`] step machine drive the *same* transition functions, so
//! the two forms perform identical operation sequences — a schedule
//! recorded against one replays exactly against the other (tested below
//! and in `tests/pooled_determinism.rs`).

use exsel_shm::snapshot::Poll;
use exsel_shm::{Ctx, OpKind, Pid, RegAlloc, RegId, RegRange, ShmOp, Step, StepMachine, Word};

use crate::{AcquireOp, DepositArena, NamerState, UnboundedNaming};

/// The wait-free repository.
#[derive(Clone, Debug)]
pub struct AltruisticDeposit {
    naming: UnboundedNaming,
    /// Row-major `n × n` matrix; `Help[i][j]` holds a name `i` acquired
    /// for `j` to consume.
    help: RegRange,
    arena: DepositArena,
    n: usize,
}

/// What the row-service activity is currently doing.
#[derive(Clone, Copy, Debug)]
enum RowPhase {
    /// Reading `Help[p][q]` looking for an empty cell.
    Scanning,
    /// Driving the embedded name acquisition destined for
    /// `Help[p][target]`.
    Acquiring { target: usize },
    /// Writing the acquired name into `Help[p][target]`.
    Parking { target: usize, name: u64 },
}

/// Per-process local state for [`AltruisticDeposit`]. Bound to the pid it
/// was created for ([`AltruisticDeposit::depositor_state`]): the embedded
/// [`AcquireOp`] owns that process's naming suite and is re-armed in
/// place per acquisition, so long-lived states (pooled machines, blocking
/// loops) allocate nothing per name.
#[derive(Clone, Debug)]
pub struct AltruisticState {
    namer: NamerState,
    acquire: AcquireOp,
    row_phase: RowPhase,
    /// Next column of the own row to examine.
    row_q: usize,
    /// Next row of the own column to examine.
    col_r: usize,
}

impl AltruisticState {
    /// The pid this state was created for (the embedded acquire owns
    /// that process's naming slot).
    fn pid(&self) -> Pid {
        Pid(self.acquire.slot())
    }

    /// Cross-trial re-initialization in place (pooled machines).
    fn reset_trial(&mut self, n: usize) {
        self.namer.reset(n);
        self.acquire.reset_trial(&self.namer);
        self.row_phase = RowPhase::Scanning;
        self.row_q = 0;
        self.col_r = 0;
    }

    /// Same-trial crash re-entry in place: the naming state is kept
    /// (claims stay claimed) but its suite is republished before the new
    /// incarnation contends, and both activities restart from their
    /// initial cursors. See [`NamerState::unpublish`].
    fn reenter(&mut self) {
        self.namer.unpublish();
        self.acquire.rearm(&self.namer);
        self.row_phase = RowPhase::Scanning;
        self.row_q = 0;
        self.col_r = 0;
    }
}

impl AltruisticDeposit {
    /// Builds a repository for `n` processes with `arena_capacity`
    /// dedicated registers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `arena_capacity < 2n`.
    #[must_use]
    pub fn new(alloc: &mut RegAlloc, n: usize, arena_capacity: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(
            arena_capacity >= 2 * n,
            "arena must hold at least the initial candidate lists (2n)"
        );
        AltruisticDeposit {
            naming: UnboundedNaming::new(alloc, n),
            help: alloc.reserve(n * n),
            arena: DepositArena::new(alloc, arena_capacity),
            n,
        }
    }

    /// Initial local state for the depositor running as process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is beyond the system size.
    #[must_use]
    pub fn depositor_state(&self, pid: Pid) -> AltruisticState {
        let namer = self.naming.namer_state();
        let acquire = self.naming.begin_acquire(pid, &namer);
        AltruisticState {
            namer,
            acquire,
            row_phase: RowPhase::Scanning,
            row_q: 0,
            col_r: 0,
        }
    }

    /// The dedicated registers.
    #[must_use]
    pub fn arena(&self) -> &DepositArena {
        &self.arena
    }

    /// The naming machinery (experiment introspection).
    #[must_use]
    pub fn naming(&self) -> &UnboundedNaming {
        &self.naming
    }

    /// System size `n`.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.n
    }

    fn help_cell(&self, row: usize, col: usize) -> RegId {
        self.help.get(row * self.n + col)
    }

    /// Post-run inspection (host side): the name parked in each `Help`
    /// cell, row-major, `None` for empty cells. Names parked at crash
    /// time are exactly the registers Theorem 9's `n(n−1)` budget
    /// accounts for.
    #[must_use]
    pub fn help_occupancy(
        &self,
        mem: &dyn exsel_shm::Memory,
        observer: exsel_shm::Pid,
    ) -> Vec<Option<u64>> {
        self.help
            .iter()
            .map(|reg| mem.read(observer, reg).ok().and_then(|w| w.as_int()))
            .collect()
    }

    /// [`AltruisticDeposit::help_occupancy`] over a
    /// [`RegisterBank`](exsel_shm::RegisterBank), through its
    /// non-mutating `load` — the inspection path for `StepEngine` banks
    /// (`StepEngine::bank`) and open-loop service banks, which have no
    /// `Memory` handle.
    #[must_use]
    pub fn help_occupancy_in_bank<B: exsel_shm::RegisterBank>(&self, bank: &B) -> Vec<Option<u64>> {
        self.help
            .iter()
            .map(|reg| bank.load(reg).as_int())
            .collect()
    }

    /// The next operation of the row-service activity (pure).
    fn row_op(&self, pid: usize, st: &AltruisticState) -> ShmOp {
        match st.row_phase {
            RowPhase::Scanning => ShmOp::Read(self.help_cell(pid, st.row_q)),
            RowPhase::Acquiring { .. } => st.acquire.describe(&self.naming, &st.namer),
            RowPhase::Parking { target, name } => {
                ShmOp::Write(self.help_cell(pid, target), Word::Int(name))
            }
        }
    }

    /// [`AltruisticDeposit::row_op`] without materializing the operand
    /// word (the acquire's pending snapshot write would clone an `Arc`).
    fn row_peek(&self, pid: usize, st: &AltruisticState) -> (OpKind, RegId) {
        match st.row_phase {
            RowPhase::Scanning => (OpKind::Read, self.help_cell(pid, st.row_q)),
            RowPhase::Acquiring { .. } => st.acquire.peek_op(&self.naming, &st.namer),
            RowPhase::Parking { target, .. } => (OpKind::Write, self.help_cell(pid, target)),
        }
    }

    /// Consumes the result of the operation last described by
    /// [`AltruisticDeposit::row_op`] and transitions the row activity.
    fn row_consume(&self, st: &mut AltruisticState, input: &Word) {
        match st.row_phase {
            RowPhase::Scanning => {
                let q = st.row_q;
                st.row_q = (st.row_q + 1) % self.n;
                if input.is_null() {
                    st.acquire.rearm(&st.namer);
                    st.row_phase = RowPhase::Acquiring { target: q };
                }
            }
            RowPhase::Acquiring { target } => {
                if let Poll::Ready(name) = st.acquire.consume(&self.naming, &mut st.namer, input) {
                    st.row_phase = RowPhase::Parking { target, name };
                }
            }
            RowPhase::Parking { .. } => st.row_phase = RowPhase::Scanning,
        }
    }

    /// The next operation of the column-scan activity (pure).
    fn column_op(&self, pid: usize, st: &AltruisticState) -> ShmOp {
        ShmOp::Read(self.help_cell(st.col_r, pid))
    }

    /// Consumes a column read: `Some((row, name))` when a parked name was
    /// found.
    fn column_consume(&self, st: &mut AltruisticState, input: &Word) -> Option<(usize, u64)> {
        let r = st.col_r;
        st.col_r = (st.col_r + 1) % self.n;
        input.as_int().map(|name| (r, name))
    }

    /// One shared-memory event of the row-service activity (blocking
    /// driver over [`AltruisticDeposit::row_op`]/`row_consume`).
    fn step_row(&self, ctx: Ctx<'_>, st: &mut AltruisticState) -> Step<()> {
        match self.row_op(ctx.pid().0, st) {
            ShmOp::Read(reg) => {
                let value = ctx.read(reg)?;
                self.row_consume(st, &value);
            }
            ShmOp::Write(reg, word) => {
                ctx.write(reg, word)?;
                self.row_consume(st, &Word::Null);
            }
        }
        Ok(())
    }

    /// One shared-memory event of the column-scan activity: returns
    /// `Some((row, name))` when a parked name is found.
    fn step_column(&self, ctx: Ctx<'_>, st: &mut AltruisticState) -> Step<Option<(usize, u64)>> {
        let ShmOp::Read(reg) = self.column_op(ctx.pid().0, st) else {
            unreachable!("column scan only reads")
        };
        let value = ctx.read(reg)?;
        Ok(self.column_consume(st, &value))
    }

    /// Deposits `value`, returning the register index it permanently
    /// occupies. Wait-free: completes in a bounded number of this
    /// process's own steps whenever names keep flowing (guaranteed by the
    /// non-blocking naming machinery — in the worst case by this process's
    /// own row service filling `Help[p][p]`).
    ///
    /// # Errors
    ///
    /// Returns [`exsel_shm::Crash`] if the process crashes mid-operation.
    ///
    /// # Panics
    ///
    /// Panics if the arena runs out of capacity, or if `st` was created
    /// for a different pid (the state owns that process's naming slot —
    /// driving it from another process would break claim exclusiveness).
    pub fn deposit(&self, ctx: Ctx<'_>, st: &mut AltruisticState, value: u64) -> Step<u64> {
        assert!(ctx.pid().0 < self.n, "pid beyond system size");
        assert_eq!(ctx.pid(), st.pid(), "state driven by a different process");
        let p = ctx.pid().0;
        loop {
            // Fair event-level interleaving of the two activities.
            self.step_row(ctx, st)?;
            if let Some((row, name)) = self.step_column(ctx, st)? {
                self.arena.write(ctx, name, value)?;
                ctx.write(self.help_cell(row, p), Word::Null)?;
                return Ok(name);
            }
        }
    }

    /// Services the helper row without depositing — lets a process that
    /// has nothing to deposit keep the system live (the paper's fairness
    /// assumption). Performs `events` shared-memory events.
    ///
    /// # Errors
    ///
    /// Returns [`exsel_shm::Crash`] if the process crashes.
    ///
    /// # Panics
    ///
    /// Panics if `st` was created for a different pid.
    pub fn serve(&self, ctx: Ctx<'_>, st: &mut AltruisticState, events: usize) -> Step<()> {
        assert_eq!(ctx.pid(), st.pid(), "state driven by a different process");
        for _ in 0..events {
            self.step_row(ctx, st)?;
        }
        Ok(())
    }

    /// The **wait-free Unbounded-Naming** operation of Theorem 10:
    /// exclusively claims and returns the next integer, without using it
    /// as a deposit address. Identical to [`AltruisticDeposit::deposit`]
    /// except the consumed name is handed to the caller instead of
    /// addressing a register — at most `n(n−1)` integers (those parked in
    /// `Help` at crash time) are never assigned.
    ///
    /// Acquired integers and deposit addresses come from the same
    /// exclusive pool, so `acquire` and `deposit` may be mixed freely.
    ///
    /// # Errors
    ///
    /// Returns [`exsel_shm::Crash`] if the process crashes mid-operation.
    ///
    /// # Panics
    ///
    /// Panics if `st` was created for a different pid.
    pub fn acquire(&self, ctx: Ctx<'_>, st: &mut AltruisticState) -> Step<u64> {
        assert!(ctx.pid().0 < self.n, "pid beyond system size");
        assert_eq!(ctx.pid(), st.pid(), "state driven by a different process");
        let p = ctx.pid().0;
        loop {
            self.step_row(ctx, st)?;
            if let Some((row, name)) = self.step_column(ctx, st)? {
                ctx.write(self.help_cell(row, p), Word::Null)?;
                return Ok(name);
            }
        }
    }

    /// Starts the deposit loop of process `pid` as a self-contained,
    /// resettable [`StepMachine`]: the machine performs `rounds` deposits
    /// (round `i` deposits `value_base + i`) and completes with the last
    /// claimed register index; every claimed index is readable through
    /// [`DepositOp::deposits`] — including the deposits a crashed machine
    /// completed, which are permanent. Drive it with [`exsel_shm::drive`]
    /// for the blocking form or pool it on the `exsel-sim` engine.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `pid` is beyond the system size.
    #[must_use]
    pub fn begin_deposit(&self, pid: Pid, value_base: u64, rounds: usize) -> DepositOp<'_> {
        assert!(rounds > 0, "need at least one deposit round");
        assert!(pid.0 < self.n, "pid beyond system size");
        DepositOp {
            repo: self,
            pid,
            st: self.depositor_state(pid),
            phase: DepositPhase::Row,
            goal: DepositGoal::Deposit { rounds },
            deposits: Vec::with_capacity(rounds),
            value_base,
            events_done: 0,
        }
    }

    /// Starts a serve-only machine for process `pid`: it performs
    /// `events` row-service events (parking names for its row's
    /// consumers) and completes with `None`, never consuming a name —
    /// the machine form of [`AltruisticDeposit::serve`], used to model
    /// the paper's fairness assumption in mixed deposit/serve workloads.
    ///
    /// # Panics
    ///
    /// Panics if `events == 0` or `pid` is beyond the system size.
    #[must_use]
    pub fn begin_server(&self, pid: Pid, events: u64) -> DepositOp<'_> {
        assert!(events > 0, "need at least one serve event");
        assert!(pid.0 < self.n, "pid beyond system size");
        DepositOp {
            repo: self,
            pid,
            st: self.depositor_state(pid),
            phase: DepositPhase::Row,
            goal: DepositGoal::Serve { events },
            deposits: Vec::new(),
            value_base: 0,
            events_done: 0,
        }
    }
}

/// What a [`DepositOp`] is driving toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DepositGoal {
    /// Consume `rounds` names, depositing a value at each.
    Deposit { rounds: usize },
    /// Row service only: perform `events` shared-memory events.
    Serve { events: u64 },
}

/// The machine's current phase — the explicit form of the blocking
/// deposit loop's control flow.
#[derive(Clone, Copy, Debug)]
enum DepositPhase {
    /// One row-service event (deposit-or-help activity).
    Row,
    /// One column-scan read (consume activity).
    Column,
    /// A name was found: write the deposit value into its register.
    ArenaWrite { row: usize, name: u64 },
    /// Release the consumed `Help` cell, completing the round.
    HelpClear { row: usize, name: u64 },
}

/// The wait-free altruistic deposit (or serve) loop of one process as a
/// self-contained, resettable [`StepMachine`] — the pooled form the
/// `MachineSet` family and the grid driver run on the step engine. The
/// deposit-or-help and consume activities of §5 are explicit phases
/// (strictly alternating `Row`/`Column` events, exactly like the blocking
/// loop), so the machine's operation sequence is identical to
/// [`AltruisticDeposit::deposit`]'s. See
/// [`AltruisticDeposit::begin_deposit`] and
/// [`AltruisticDeposit::begin_server`].
#[derive(Clone, Debug)]
pub struct DepositOp<'a> {
    repo: &'a AltruisticDeposit,
    pid: Pid,
    st: AltruisticState,
    phase: DepositPhase,
    goal: DepositGoal,
    deposits: Vec<u64>,
    value_base: u64,
    events_done: u64,
}

impl DepositOp<'_> {
    /// The fewest operations a deposit round can complete in: one
    /// `Row` event, a `Column` read that finds a parked name, the
    /// `ArenaWrite` and the `HelpClear`. A round that has begun has at
    /// least 3 operations left until it [holds a name](Self::holds_name),
    /// and at least 1 after.
    pub const MIN_OPS: u64 = 4;

    /// Whether the current round has found its name: only the arena
    /// write and the `Help` clear remain (2 operations, then 1).
    #[must_use]
    pub fn holds_name(&self) -> bool {
        matches!(
            self.phase,
            DepositPhase::ArenaWrite { .. } | DepositPhase::HelpClear { .. }
        )
    }

    /// The row service's pending park, read from its local state: the
    /// column `t` whose cell `Help[p][t]` receives the next name, and
    /// the row events left up to and including that park write — the
    /// embedded acquire's fewest operations left (counted as a
    /// [`NamingMachine`](crate::NamingMachine)'s
    /// [`min_ops_left`](StepMachine::min_ops_left) counts them) plus the write while acquiring, 1 at the write
    /// itself. `None`
    /// while the row is being scanned: a park then needs a scan read
    /// that finds an empty cell and a whole acquire first.
    ///
    /// The row state outlives a round: [`DepositOp::begin_round`] keeps
    /// it, and only [`DepositOp::reenter`] (and a trial reset) clear it.
    /// Row and `Column` events strictly alternate within a round.
    #[must_use]
    pub fn pending_park(&self) -> Option<(usize, u64)> {
        match self.st.row_phase {
            RowPhase::Scanning => None,
            RowPhase::Acquiring { target } => {
                Some((target, self.st.acquire.min_ops_left(&self.repo.naming) + 1))
            }
            RowPhase::Parking { target, .. } => Some((target, 1)),
        }
    }

    /// The column the next operation parks a name in — `Some(t)` when it
    /// is the write into `Help[p][t]` — read before the operation is
    /// granted. A park is the only write that puts a name into `Help`.
    #[must_use]
    pub fn next_park(&self) -> Option<usize> {
        match (self.phase, self.st.row_phase) {
            (DepositPhase::Row, RowPhase::Parking { target, .. }) => Some(target),
            _ => None,
        }
    }

    /// Whether the next operation is a `Column` read, so the next row
    /// event is one operation further away.
    #[must_use]
    pub fn reads_column_next(&self) -> bool {
        matches!(self.phase, DepositPhase::Column)
    }

    /// The arena register indices claimed so far in this trial, in
    /// deposit order (empty for serve machines). Deposits recorded here
    /// are permanent even if the machine is crashed later in the trial.
    #[must_use]
    pub fn deposits(&self) -> &[u64] {
        &self.deposits
    }

    /// Whether this machine only serves (never consumes a name).
    #[must_use]
    pub fn is_server(&self) -> bool {
        matches!(self.goal, DepositGoal::Serve { .. })
    }

    /// Re-arms a completed deposit machine in place for its next round
    /// run **within the same trial**, keeping the process's naming and
    /// help state (the open-loop session path; contrast
    /// [`StepMachine::reset`], which starts a fresh trial). `value_base`
    /// becomes the new round's deposit value.
    ///
    /// # Panics
    ///
    /// Panics on serve-only machines.
    pub fn begin_round(&mut self, value_base: u64) {
        assert!(!self.is_server(), "serve-only machines do not deposit");
        self.deposits.clear();
        self.value_base = value_base;
        self.phase = DepositPhase::Row;
        self.events_done = 0;
    }

    /// Re-enters after a mid-operation crash as a fresh contender: like
    /// [`DepositOp::begin_round`], but the embedded naming suite is
    /// republished from local state first (a crash may have eaten suite
    /// writes, leaving a stale published fresh frontier — see
    /// [`NamingMachine::reenter`](crate::NamingMachine::reenter)).
    /// Names the dead incarnation parked in `Help` stay parked and
    /// consumable; a name it consumed without completing the deposit is
    /// wasted, exactly the paper's crash budget.
    ///
    /// # Panics
    ///
    /// Panics on serve-only machines.
    pub fn reenter(&mut self, value_base: u64) {
        assert!(!self.is_server(), "serve-only machines do not deposit");
        self.st.reenter();
        self.deposits.clear();
        self.value_base = value_base;
        self.phase = DepositPhase::Row;
        self.events_done = 0;
    }
}

impl exsel_shm::Footprint for AltruisticDeposit {
    /// The §5 help-matrix discipline, cell-precise: process `p` parks
    /// names in its own row `help[p][·]` and clears claims in its own
    /// column `help[·][p]`, so cell `(r, c)` has exactly two legitimate
    /// writers — `r` and `c`. Two writers means no cell is statically
    /// exclusive: row and column are declared shared, and the naming
    /// component underneath carries the exclusive extents. The arena is
    /// shared like every name-addressed bank. Servers run the same row
    /// service, so one declaration covers depositors and servers alike.
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        exsel_shm::Footprint::footprint(&self.naming, pid, spec);
        spec.phase("deposit.help").reads(self.help);
        if pid.0 < self.n {
            let n = self.n;
            spec.phase("deposit.help_row")
                .writes_shared(self.help.slice(pid.0 * n, n));
            for r in 0..n {
                spec.phase("deposit.help_col")
                    .writes_shared(self.help.slice(r * n + pid.0, 1));
            }
        }
        exsel_shm::Footprint::footprint(&self.arena, pid, spec);
    }
}

impl StepMachine for DepositOp<'_> {
    /// The last claimed register index; `None` for serve machines.
    type Output = Option<u64>;

    fn op(&self) -> ShmOp {
        let p = self.pid.0;
        match self.phase {
            DepositPhase::Row => self.repo.row_op(p, &self.st),
            DepositPhase::Column => self.repo.column_op(p, &self.st),
            DepositPhase::ArenaWrite { name, .. } => ShmOp::Write(
                self.repo.arena.reg(name),
                Word::Int(self.value_base + self.deposits.len() as u64),
            ),
            DepositPhase::HelpClear { row, .. } => {
                ShmOp::Write(self.repo.help_cell(row, p), Word::Null)
            }
        }
    }

    fn peek(&self) -> (OpKind, RegId) {
        let p = self.pid.0;
        match self.phase {
            DepositPhase::Row => self.repo.row_peek(p, &self.st),
            DepositPhase::Column => (OpKind::Read, self.repo.help_cell(self.st.col_r, p)),
            DepositPhase::ArenaWrite { name, .. } => (OpKind::Write, self.repo.arena.reg(name)),
            DepositPhase::HelpClear { row, .. } => (OpKind::Write, self.repo.help_cell(row, p)),
        }
    }

    fn advance(&mut self, input: &Word) -> Poll<Option<u64>> {
        match self.phase {
            DepositPhase::Row => {
                self.repo.row_consume(&mut self.st, input);
                match self.goal {
                    DepositGoal::Deposit { .. } => self.phase = DepositPhase::Column,
                    DepositGoal::Serve { events } => {
                        self.events_done += 1;
                        if self.events_done == events {
                            return Poll::Ready(None);
                        }
                    }
                }
            }
            DepositPhase::Column => {
                self.phase = match self.repo.column_consume(&mut self.st, input) {
                    Some((row, name)) => DepositPhase::ArenaWrite { row, name },
                    None => DepositPhase::Row,
                };
            }
            DepositPhase::ArenaWrite { row, name } => {
                self.phase = DepositPhase::HelpClear { row, name };
            }
            DepositPhase::HelpClear { name, .. } => {
                self.deposits.push(name);
                let DepositGoal::Deposit { rounds } = self.goal else {
                    unreachable!("serve machines never reach the consume phases")
                };
                if self.deposits.len() == rounds {
                    return Poll::Ready(Some(name));
                }
                self.phase = DepositPhase::Row;
            }
        }
        Poll::Pending
    }

    /// 4 at a `Row` event, 3 at a `Column` read (which may find a
    /// name), 2 at the arena write, 1 at the `Help` clear, plus
    /// [`DepositOp::MIN_OPS`] for each round still to begin. A serve
    /// machine reports the events it has left, and a completed machine 0.
    fn min_ops_left(&self) -> u64 {
        let rounds = match self.goal {
            DepositGoal::Deposit { rounds } => rounds,
            DepositGoal::Serve { events } => return events - self.events_done,
        };
        let Some(later) = (rounds - self.deposits.len()).checked_sub(1) else {
            return 0;
        };
        let round = match self.phase {
            DepositPhase::Row => Self::MIN_OPS,
            DepositPhase::Column => Self::MIN_OPS - 1,
            DepositPhase::ArenaWrite { .. } => 2,
            DepositPhase::HelpClear { .. } => 1,
        };
        round + later as u64 * Self::MIN_OPS
    }

    fn reset(&mut self, pid: Pid) {
        assert_eq!(pid, self.pid, "deposit machine reset for a different pid");
        self.st.reset_trial(self.repo.n);
        self.phase = DepositPhase::Row;
        self.deposits.clear();
        self.events_done = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{drive, Pid, ThreadedShm};
    use std::collections::BTreeSet;

    #[test]
    fn solo_deposit_completes() {
        // Wait-freedom in the extreme: all other processes silent.
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, 3, 64);
        let mem = ThreadedShm::new(alloc.total(), 3);
        let ctx = Ctx::new(&mem, Pid(1));
        let mut st = repo.depositor_state(Pid(1));
        let r1 = repo.deposit(ctx, &mut st, 10).unwrap();
        let r2 = repo.deposit(ctx, &mut st, 20).unwrap();
        assert_ne!(r1, r2);
        assert_eq!(repo.arena().read(ctx, r1).unwrap(), Word::Int(10));
        assert_eq!(repo.arena().read(ctx, r2).unwrap(), Word::Int(20));
    }

    #[test]
    fn concurrent_deposits_are_exclusive_and_persistent() {
        const N: usize = 3;
        const PER: usize = 6;
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, N, 512);
        let mem = ThreadedShm::new(alloc.total(), N);
        let all: Vec<(u64, u64)> = std::thread::scope(|s| {
            (0..N)
                .map(|p| {
                    let (repo, mem) = (&repo, &mem);
                    s.spawn(move || {
                        let ctx = Ctx::new(mem, Pid(p));
                        let mut st = repo.depositor_state(Pid(p));
                        (0..PER)
                            .map(|i| {
                                let v = (p * PER + i) as u64 + 1000;
                                (repo.deposit(ctx, &mut st, v).unwrap(), v)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let regs: BTreeSet<u64> = all.iter().map(|&(r, _)| r).collect();
        assert_eq!(regs.len(), N * PER, "register reused for two deposits");
        let ctx = Ctx::new(&mem, Pid(0));
        for (r, v) in all {
            assert_eq!(
                repo.arena().read(ctx, r).unwrap(),
                Word::Int(v),
                "R_{r} overwritten"
            );
        }
    }

    #[test]
    fn helper_parks_names_for_others() {
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, 2, 64);
        let mem = ThreadedShm::new(alloc.total(), 2);
        // Process 0 only serves; it should fill Help[0][1] eventually.
        let ctx0 = Ctx::new(&mem, Pid(0));
        let mut st0 = repo.depositor_state(Pid(0));
        repo.serve(ctx0, &mut st0, 400).unwrap();
        // Now process 1 deposits; a name is already waiting in its column.
        let ctx1 = Ctx::new(&mem, Pid(1));
        let mut st1 = repo.depositor_state(Pid(1));
        let before = ctx1.steps();
        let r = repo.deposit(ctx1, &mut st1, 5).unwrap();
        assert!(r >= 1);
        // Found within a couple of column sweeps (much less than a full
        // acquire would cost).
        assert!(ctx1.steps() - before < 50);
    }

    /// A round whose first column read finds a parked name takes exactly
    /// `DepositOp::MIN_OPS` operations, holds its name from that read
    /// on, and reports exactly the operations left before each one.
    #[test]
    fn deposit_with_a_parked_name_takes_the_minimum_ops() {
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, 2, 64);
        let mem = ThreadedShm::new(alloc.total(), 2);
        repo.serve(
            Ctx::new(&mem, Pid(0)),
            &mut repo.depositor_state(Pid(0)),
            400,
        )
        .unwrap();
        let ctx = Ctx::new(&mem, Pid(1));
        let mut machine = repo.begin_deposit(Pid(1), 5, 1);
        let mut named = Vec::new();
        let mut left = vec![machine.min_ops_left()];
        while machine.poll(ctx).unwrap().ready().is_none() {
            named.push(machine.holds_name());
            left.push(machine.min_ops_left());
        }
        assert_eq!(ctx.steps(), DepositOp::MIN_OPS);
        assert_eq!(named, [false, true, true]);
        assert_eq!(left, [4, 3, 2, 1]);
        assert_eq!(machine.min_ops_left(), 0);
    }

    /// The row service's pending park, the park write itself and the
    /// alternation of row events with column reads, on a solo round
    /// that must park its own name first: the park lands exactly when
    /// `pending_park` says, because a lone process never retries.
    #[test]
    fn solo_round_parks_when_pending_park_says() {
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, 1, 64);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut machine = repo.begin_deposit(Pid(0), 5, 1);
        let (mut row_events, mut parked) = (0, None);
        let mut pending = Vec::new();
        loop {
            pending.push((row_events, machine.pending_park()));
            if machine.next_park().is_some() {
                parked = Some(row_events);
            }
            row_events += u64::from(!machine.holds_name() && !machine.reads_column_next());
            if machine.poll(ctx).unwrap().ready().is_some() {
                break;
            }
        }
        let parked = parked.expect("a lone process parks its own name");
        for (before, park) in pending {
            if let Some((column, rows)) = park.filter(|_| before <= parked) {
                assert_eq!(column, 0);
                assert_eq!(rows, parked + 1 - before);
            }
        }
    }

    #[test]
    fn acquire_and_deposit_share_one_exclusive_pool() {
        const N: usize = 3;
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, N, 512);
        let mem = ThreadedShm::new(alloc.total(), N);
        let all: Vec<u64> = std::thread::scope(|s| {
            (0..N)
                .map(|p| {
                    let (repo, mem) = (&repo, &mem);
                    s.spawn(move || {
                        let ctx = Ctx::new(mem, Pid(p));
                        let mut st = repo.depositor_state(Pid(p));
                        let mut got = Vec::new();
                        for i in 0..4u64 {
                            if i % 2 == 0 {
                                got.push(repo.acquire(ctx, &mut st).unwrap());
                            } else {
                                got.push(repo.deposit(ctx, &mut st, i).unwrap());
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let set: BTreeSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "acquire/deposit pool not exclusive");
    }

    #[test]
    fn solo_acquire_is_wait_free() {
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, 4, 128);
        let mem = ThreadedShm::new(alloc.total(), 4);
        let ctx = Ctx::new(&mem, Pid(3));
        let mut st = repo.depositor_state(Pid(3));
        let a = repo.acquire(ctx, &mut st).unwrap();
        let b = repo.acquire(ctx, &mut st).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn waste_bounded_by_parked_names_in_quiescent_run() {
        const N: usize = 3;
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, N, 256);
        let mem = ThreadedShm::new(alloc.total(), N);
        std::thread::scope(|s| {
            for p in 0..N {
                let (repo, mem) = (&repo, &mem);
                s.spawn(move || {
                    let ctx = Ctx::new(mem, Pid(p));
                    let mut st = repo.depositor_state(Pid(p));
                    for i in 0..5u64 {
                        repo.deposit(ctx, &mut st, i).unwrap();
                    }
                });
            }
        });
        let occ = repo.arena().occupancy(&mem, Pid(0));
        let frontier = occ.iter().rposition(Option::is_some).map_or(0, |i| i + 1);
        let holes = occ[..frontier].iter().filter(|v| v.is_none()).count();
        // Theorem 9: at most n(n−1) registers are never used — here the
        // holes are names parked in Help plus claims pruned mid-flight.
        assert!(
            holes < N * (N - 1) + N,
            "waste {holes} above the Theorem 9 budget"
        );
    }

    #[test]
    fn machine_and_blocking_deposit_perform_identical_op_sequences() {
        const ROUNDS: usize = 3;
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, 2, 64);

        let mem_a = ThreadedShm::new(alloc.total(), 2);
        let ctx_a = Ctx::new(&mem_a, Pid(0));
        let mut st = repo.depositor_state(Pid(0));
        let blocking: Vec<u64> = (0..ROUNDS as u64)
            .map(|i| repo.deposit(ctx_a, &mut st, 100 + i).unwrap())
            .collect();

        let mem_b = ThreadedShm::new(alloc.total(), 2);
        let ctx_b = Ctx::new(&mem_b, Pid(0));
        let mut machine = repo.begin_deposit(Pid(0), 100, ROUNDS);
        let last = drive(&mut machine, ctx_b).unwrap();
        assert_eq!(machine.deposits(), &blocking[..]);
        assert_eq!(last, Some(*blocking.last().unwrap()));
        assert_eq!(ctx_a.steps(), ctx_b.steps(), "op sequences diverged");
        // Identical memory contents too: the machine deposited the same
        // values at the same registers.
        for (i, &r) in blocking.iter().enumerate() {
            assert_eq!(
                repo.arena().read(ctx_b, r).unwrap(),
                Word::Int(100 + i as u64)
            );
        }
    }

    #[test]
    #[should_panic(expected = "different process")]
    fn state_of_another_pid_is_rejected() {
        // The state owns its pid's naming slot; driving it from another
        // process would break claim exclusiveness silently.
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, 2, 64);
        let mem = ThreadedShm::new(alloc.total(), 2);
        let mut st = repo.depositor_state(Pid(0));
        let _ = repo.deposit(Ctx::new(&mem, Pid(1)), &mut st, 1);
    }

    #[test]
    fn server_machine_parks_names_and_completes() {
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, 2, 64);
        let mem = ThreadedShm::new(alloc.total(), 2);
        let ctx = Ctx::new(&mem, Pid(0));
        let mut server = repo.begin_server(Pid(0), 400);
        assert!(server.is_server());
        assert_eq!(drive(&mut server, ctx).unwrap(), None);
        assert_eq!(ctx.steps(), 400);
        assert!(server.deposits().is_empty());
        // The server filled its whole Help row.
        let occ = repo.help_occupancy(&mem, Pid(0));
        assert!(
            occ[..2].iter().all(Option::is_some),
            "row not filled: {occ:?}"
        );
    }

    #[test]
    fn pooled_deposit_machines_on_the_engine_stay_exclusive_and_reset_cleanly() {
        use exsel_sim::{policy::RandomPolicy, MachinePool, StepEngine};
        const N: usize = 3;
        const ROUNDS: usize = 2;
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, N, 512);
        let mut engine = StepEngine::reusable(alloc.total()).record_trace(true);
        let mut pool: MachinePool<DepositOp<'_>> = (0..N)
            .map(|p| repo.begin_deposit(Pid(p), (p as u64 + 1) * 100, ROUNDS))
            .collect();
        let mut first_trace = Vec::new();
        for round in 0..3 {
            let mut policy = RandomPolicy::new(11);
            engine.run_pool(&mut policy, &mut pool);
            let all: Vec<u64> = pool
                .machines()
                .iter()
                .flat_map(|m| m.deposits().iter().copied())
                .collect();
            let set: BTreeSet<u64> = all.iter().copied().collect();
            assert_eq!(
                set.len(),
                N * ROUNDS,
                "duplicate deposit registers: {all:?}"
            );
            // Same seed after reset ⇒ identical execution.
            if round == 0 {
                first_trace = engine.trace().unwrap().to_vec();
            } else {
                assert_eq!(engine.trace().unwrap(), &first_trace[..], "round {round}");
            }
        }
    }
}
