//! The snapshot machines' operation minima under arbitrary
//! interleavings: before every granted operation, a scan's or update's
//! `min_ops_left` is at most the operations it still performs before it
//! returns. The sharded service fleet sizes its epochs from these
//! minima, so an overstatement would let a session complete earlier
//! than an epoch allows.

use exsel_shm::snapshot::{Poll, ScanOp, UpdateOp};
use exsel_shm::{Pid, RegAlloc, ShmOp, Snapshot, StepMachine, Word};
use exsel_sim::policy::RandomPolicy;
use exsel_sim::{MachinePool, StepEngine};

const ROUNDS: u64 = 4;

/// One process alternating update → scan for [`ROUNDS`] rounds. Before
/// each grant it records the running operation's `min_ops_left`; when
/// that operation returns, every record must be at most the operations
/// that followed it, that one included.
struct Probe {
    update: UpdateOp,
    scan: ScanOp,
    slot: usize,
    n: usize,
    scanning: bool,
    round: u64,
    left: Vec<u64>,
    checked: u64,
}

impl Probe {
    fn check(&mut self) {
        let ops = self.left.len() as u64;
        for (i, &left) in self.left.iter().enumerate() {
            assert!(
                left <= ops - i as u64,
                "n = {}: op {i} of {ops} reported {left} left ({:?})",
                self.n,
                self.left
            );
        }
        self.left.clear();
        self.checked += 1;
    }
}

impl StepMachine for Probe {
    type Output = u64;

    fn op(&self) -> ShmOp {
        if self.scanning {
            self.scan.op()
        } else {
            self.update.op()
        }
    }

    fn advance(&mut self, input: &Word) -> Poll<u64> {
        let done = if self.scanning {
            self.left.push(self.scan.min_ops_left());
            self.scan.advance(input).ready().is_some()
        } else {
            self.left.push(self.update.min_ops_left());
            self.update.advance(input).ready().is_some()
        };
        if !done {
            return Poll::Pending;
        }
        self.check();
        assert_eq!(
            if self.scanning {
                self.scan.min_ops_left()
            } else {
                self.update.min_ops_left()
            },
            0,
            "a returned operation has nothing left"
        );
        if self.scanning {
            self.round += 1;
            if self.round == ROUNDS {
                return Poll::Ready(self.checked);
            }
            self.update.rearm(self.slot, Word::Int(self.round + 1));
            assert_eq!(self.update.min_ops_left(), UpdateOp::min_ops(self.n));
        } else {
            self.scan.restart();
            assert_eq!(self.scan.min_ops_left(), ScanOp::min_ops(self.n));
        }
        self.scanning = !self.scanning;
        Poll::Pending
    }

    fn reset(&mut self, pid: Pid) {
        self.update.reset(pid);
        self.update.rearm(self.slot, Word::Int(1));
        self.scan.reset(pid);
        self.scanning = false;
        self.round = 0;
        self.left.clear();
        self.checked = 0;
    }
}

#[test]
fn scan_and_update_minima_never_overstate_the_ops_left() {
    for n in 1..=4 {
        let mut alloc = RegAlloc::new();
        let snap = Snapshot::new(&mut alloc, n);
        assert_eq!(snap.begin_scan().min_ops_left(), ScanOp::min_ops(n));
        assert_eq!(
            snap.begin_update(0, Word::Int(1)).min_ops_left(),
            UpdateOp::min_ops(n)
        );
        let mut pool: MachinePool<Probe> = (0..n)
            .map(|slot| Probe {
                update: snap.begin_update(slot, Word::Int(1)),
                scan: snap.begin_scan(),
                slot,
                n,
                scanning: false,
                round: 0,
                left: Vec::new(),
                checked: 0,
            })
            .collect();
        let mut engine = StepEngine::reusable(alloc.total());
        for seed in 0..60 {
            engine.run_pool(&mut RandomPolicy::new(seed), &mut pool);
            for (pid, result) in pool.results().iter().enumerate() {
                let checked = *result
                    .as_ref()
                    .and_then(|r| r.as_ref().ok())
                    .unwrap_or_else(|| panic!("n = {n}, seed {seed}: pid {pid} did not finish"));
                assert_eq!(checked, 2 * ROUNDS);
            }
        }
    }
}
