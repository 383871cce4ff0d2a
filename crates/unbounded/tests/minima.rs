//! The naming and deposit machines' operation minima under arbitrary
//! interleavings, crashes and crash re-entries. Before every granted
//! operation:
//!
//! - `min_ops_left` is at most the operations the machine still
//!   performs before it returns;
//! - the rows a deposit machine's `pending_park` reports are at most
//!   the row events it performs up to and including that park write.
//!
//! The sharded service fleet sizes its epochs from these minima, so an
//! overstatement would let a session complete earlier than an epoch
//! allows.

use exsel_shm::snapshot::Poll;
use exsel_shm::{Ctx, Pid, RegAlloc, ShmOp, StepMachine, ThreadedShm, Word};
use exsel_sim::policy::{CrashStorm, RandomPolicy};
use exsel_sim::{MachinePool, StepEngine};
use exsel_unbounded::{AltruisticDeposit, DepositOp, NamingMachine, UnboundedNaming};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// What the probe reads from a machine before each grant, besides its
/// [`StepMachine::min_ops_left`].
trait Minima: StepMachine {
    /// A crash of the incarnation and its re-entry as a fresh
    /// contender, as the open-loop service does it.
    fn crash_and_reenter(&mut self);
    /// The pending park's column and rows (deposit machines only).
    fn pending_park(&self) -> Option<(usize, u64)> {
        None
    }
    /// The column the next operation parks a name in.
    fn next_park(&self) -> Option<usize> {
        None
    }
    /// Whether the next operation is a row-service event.
    fn row_event_next(&self) -> bool {
        false
    }
}

impl Minima for NamingMachine<'_> {
    fn crash_and_reenter(&mut self) {
        self.reenter();
    }
}

impl Minima for DepositOp<'_> {
    fn crash_and_reenter(&mut self) {
        self.reenter(0);
    }

    fn pending_park(&self) -> Option<(usize, u64)> {
        DepositOp::pending_park(self)
    }

    fn next_park(&self) -> Option<usize> {
        DepositOp::next_park(self)
    }

    fn row_event_next(&self) -> bool {
        !self.holds_name() && !self.reads_column_next()
    }
}

/// One grant as the probe saw it before the operation.
struct Record {
    left: u64,
    park: Option<(usize, u64)>,
    parks_into: Option<usize>,
    row: bool,
}

/// Wraps a machine: records each grant, re-enters the machine after a
/// grant with probability `reentry`, and checks an incarnation's
/// records when it returns (minima and parks) or is cut short (parks
/// that landed before the cut).
struct Probe<M> {
    inner: M,
    rng: SmallRng,
    reentry: f64,
    records: Vec<Record>,
    /// Incarnations checked to completion, and parks checked.
    checked: (u64, u64),
}

impl<M: Minima> Probe<M> {
    fn check_parks(&mut self) {
        for (i, record) in self.records.iter().enumerate() {
            let Some((column, rows)) = record.park else {
                continue;
            };
            let Some(at) = self.records[i..]
                .iter()
                .position(|r| r.parks_into.is_some())
            else {
                continue;
            };
            let events = &self.records[i..=i + at];
            assert_eq!(events[at].parks_into, Some(column), "parked elsewhere");
            let row_events = events.iter().filter(|r| r.row).count() as u64;
            assert!(
                rows <= row_events,
                "{rows} rows reported, the park came after {row_events} row events"
            );
            self.checked.1 += 1;
        }
    }

    fn check_minima(&mut self) {
        let ops = self.records.len() as u64;
        for (i, record) in self.records.iter().enumerate() {
            assert!(
                record.left <= ops - i as u64,
                "op {i} of {ops} reported {} left",
                record.left
            );
        }
        self.checked.0 += 1;
    }
}

impl<M: Minima> StepMachine for Probe<M> {
    type Output = (u64, u64);

    fn op(&self) -> ShmOp {
        self.inner.op()
    }

    fn advance(&mut self, input: &Word) -> Poll<(u64, u64)> {
        self.records.push(Record {
            left: self.inner.min_ops_left(),
            park: self.inner.pending_park(),
            parks_into: self.inner.next_park(),
            row: self.inner.row_event_next(),
        });
        if self.inner.advance(input).ready().is_some() {
            assert_eq!(self.inner.min_ops_left(), 0);
            self.check_minima();
            self.check_parks();
            return Poll::Ready(self.checked);
        }
        if self.rng.gen_bool(self.reentry) {
            self.check_parks();
            self.records.clear();
            self.inner.crash_and_reenter();
        }
        Poll::Pending
    }

    fn reset(&mut self, pid: Pid) {
        self.inner.reset(pid);
        self.records.clear();
        self.checked = (0, 0);
    }
}

/// Runs the machines `build` makes, wrapped in probes re-entering with
/// probability `reentry`, under random schedules with up to `n − 1`
/// crashes for seeds 0..60. Returns the incarnations and parks checked.
fn run_probes<M: Minima>(
    n: usize,
    registers: usize,
    reentry: f64,
    build: impl Fn(usize) -> M,
) -> (u64, u64) {
    let mut engine = StepEngine::reusable(registers);
    let mut checked = (0, 0);
    for seed in 0..60u64 {
        let mut pool: MachinePool<Probe<M>> = (0..n)
            .map(|p| Probe {
                inner: build(p),
                rng: SmallRng::seed_from_u64(seed << 8 | p as u64),
                reentry,
                records: Vec::new(),
                checked: (0, 0),
            })
            .collect();
        let mut policy = CrashStorm::new(Box::new(RandomPolicy::new(seed)), !seed, 0.005, n - 1);
        engine.run_pool(&mut policy, &mut pool);
        for (completed, parks) in pool.results().iter().flatten().flatten() {
            checked.0 += completed;
            checked.1 += parks;
        }
    }
    checked
}

#[test]
fn naming_minima_never_overstate_the_ops_left() {
    for n in 1..=4 {
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, n);
        let (completed, _) =
            run_probes(n, alloc.total(), 0.01, |p| naming.begin_machine(Pid(p), 3));
        assert!(completed >= 60, "n = {n}: {completed} incarnations checked");
    }
}

#[test]
fn deposit_minima_and_pending_parks_never_overstate_the_ops_left() {
    for n in 1..=4 {
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, n, 4096);
        let (completed, parks) = run_probes(n, alloc.total(), 0.005, |p| {
            repo.begin_deposit(Pid(p), 0, 2)
        });
        assert!(completed >= 60, "n = {n}: {completed} incarnations checked");
        assert!(parks > 0, "n = {n}: no pending park was checked");
    }
}

/// Fresh machines report the published-suite minima: an acquire over
/// an unpublished suite adds its `2n` publication writes, and a
/// deposit round begins at its row event.
#[test]
fn fresh_machines_report_the_structural_minima() {
    for n in 1..=4 {
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, n);
        let repo = AltruisticDeposit::new(&mut alloc, n, 64);
        let mut machine = naming.begin_machine(Pid(0), 1);
        assert_eq!(
            machine.min_ops_left(),
            2 * n as u64 + naming.min_acquire_ops()
        );
        let mem = ThreadedShm::new(alloc.total(), n);
        exsel_shm::drive(&mut machine, Ctx::new(&mem, Pid(0))).unwrap();
        assert_eq!(machine.min_ops_left(), 0);
        machine.begin_session();
        assert_eq!(machine.min_ops_left(), naming.min_acquire_ops());
        let deposit = repo.begin_deposit(Pid(0), 0, 3);
        assert_eq!(deposit.min_ops_left(), 3 * DepositOp::MIN_OPS);
        assert_eq!(deposit.pending_park(), None);
    }
}
