//! `Majority(ℓ, N)` — Lemma 4: at least half of at most `ℓ` contenders
//! acquire unique names in `O(log N)` local steps.

use std::sync::Arc;

use exsel_expander::BipartiteGraph;
use exsel_shm::{drive, Ctx, Pid, Poll, RegAlloc, ShmOp, Step, StepMachine, Word};

use crate::compete::CompeteOp;
use crate::step::{RenameMachine, StepRename};
use crate::{Outcome, Rename, RenameConfig, SlotBank};

/// The expander-walk majority-renaming algorithm.
///
/// The bipartite graph `G = ([N], [M], E)` is part of the code: the
/// process whose original name is `v` tries to win the name slot of each
/// neighbour of `v` in order, adopting the first slot it wins as its new
/// name. By Lemma 2, when at most `capacity` processes contend, more than
/// half of them have a *unique neighbour* — a slot no other contender is
/// adjacent to — which they win by Lemma 1 (if they did not win earlier).
///
/// Local steps: at most `5·Δ = O(log N)`. Registers: `2·M`.
#[derive(Clone, Debug)]
pub struct Majority {
    graph: Arc<BipartiteGraph>,
    slots: SlotBank,
    capacity: usize,
}

impl Majority {
    /// Builds an instance for original names in `[1, n_names]` and up to
    /// `capacity` contenders.
    ///
    /// # Panics
    ///
    /// Panics if `n_names == 0` or `capacity == 0`.
    #[must_use]
    pub fn new(alloc: &mut RegAlloc, n_names: usize, capacity: usize, cfg: &RenameConfig) -> Self {
        assert!(n_names > 0, "need at least one possible original name");
        assert!(capacity > 0, "capacity must be positive");
        let graph = BipartiteGraph::random(n_names, capacity, &cfg.expander, cfg.seed);
        let slots = SlotBank::new(alloc, graph.num_outputs());
        Majority {
            graph: Arc::new(graph),
            slots,
            capacity,
        }
    }

    /// The contender capacity `ℓ` this instance was sized for.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of original names `N` this instance accepts.
    #[must_use]
    pub fn num_names(&self) -> usize {
        self.graph.num_inputs()
    }

    /// The underlying expander.
    #[must_use]
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Registers used (for accounting): two per output node.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.slots.registers().len()
    }

    /// Starts the expander walk of `original` as a [`StepMachine`]: the
    /// adjacency list is competed for slot by slot, at most `5·Δ`
    /// operations in total.
    ///
    /// # Panics
    ///
    /// Panics if `original` is not in `[1, num_names()]`.
    #[must_use]
    pub fn begin_walk(&self, original: u64) -> MajorityOp<'_> {
        let v = usize::try_from(original.checked_sub(1).expect("names are 1-based"))
            .expect("original name fits usize");
        assert!(
            v < self.graph.num_inputs(),
            "original name {original} outside [1, {}]",
            self.graph.num_inputs()
        );
        let first = self.graph.neighbors(v)[0] as usize;
        MajorityOp {
            algo: self,
            original,
            v,
            idx: 0,
            inner: self.slots.begin_compete(first, original),
        }
    }
}

/// In-progress `Majority` renaming — a [`StepMachine`] walking the
/// adjacency list of the original name, one compete operation per step.
#[derive(Clone, Debug)]
pub struct MajorityOp<'a> {
    algo: &'a Majority,
    original: u64,
    /// Input node of the walk (`original − 1`).
    v: usize,
    /// Position in the adjacency list.
    idx: usize,
    inner: CompeteOp,
}

impl StepMachine for MajorityOp<'_> {
    type Output = Outcome;

    fn op(&self) -> ShmOp {
        self.inner.op()
    }

    fn peek(&self) -> (exsel_shm::OpKind, exsel_shm::RegId) {
        self.inner.peek()
    }

    fn advance(&mut self, input: &Word) -> Poll<Outcome> {
        match self.inner.advance(input) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(true) => {
                let w = self.algo.graph.neighbors(self.v)[self.idx];
                Poll::Ready(Outcome::Named(u64::from(w) + 1))
            }
            Poll::Ready(false) => {
                self.idx += 1;
                let neighbors = self.algo.graph.neighbors(self.v);
                match neighbors.get(self.idx) {
                    Some(&w) => {
                        self.inner = self.algo.slots.begin_compete(w as usize, self.original);
                        Poll::Pending
                    }
                    None => Poll::Ready(Outcome::Failed),
                }
            }
        }
    }

    fn reset(&mut self, _pid: Pid) {
        self.idx = 0;
        let first = self.algo.graph.neighbors(self.v)[0] as usize;
        self.inner = self.algo.slots.begin_compete(first, self.original);
    }
}

impl StepRename for Majority {
    fn begin_rename<'a>(&'a self, _pid: Pid, original: u64) -> RenameMachine<'a> {
        Box::new(self.begin_walk(original))
    }

    /// Every contender competes on every slot register it walks past:
    /// the whole slot bank is multi-writer by design (majority voting),
    /// so the footprint is shared writes over the bank for every pid.
    fn footprint(&self, _pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        let regs = self.slots.registers();
        spec.phase("majority.slots").reads(regs).writes_shared(regs);
    }
}

impl Rename for Majority {
    fn name_bound(&self) -> u64 {
        self.graph.num_outputs() as u64
    }

    /// Walks the adjacency list of `original`, competing for each
    /// neighbour's slot. Blocking adapter over [`Majority::begin_walk`].
    ///
    /// # Panics
    ///
    /// Panics if `original` is not in `[1, num_names()]`.
    fn rename(&self, ctx: Ctx<'_>, original: u64) -> Step<Outcome> {
        drive(&mut self.begin_walk(original), ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{Pid, ThreadedShm};
    use std::collections::BTreeSet;

    fn run_contenders(m: &Majority, num_regs: usize, originals: &[u64]) -> Vec<Outcome> {
        let mem = ThreadedShm::new(num_regs, originals.len());
        std::thread::scope(|s| {
            originals
                .iter()
                .enumerate()
                .map(|(p, &orig)| {
                    let (m, mem) = (m, &mem);
                    s.spawn(move || m.rename(Ctx::new(mem, Pid(p)), orig).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn solo_contender_always_named() {
        let mut alloc = RegAlloc::new();
        let m = Majority::new(&mut alloc, 64, 4, &RenameConfig::default());
        for orig in [1u64, 17, 64] {
            let mem = ThreadedShm::new(alloc.total(), 1);
            let out = m.rename(Ctx::new(&mem, Pid(0)), orig).unwrap();
            assert!(out.is_named(), "solo contender {orig} failed");
            assert!(out.expect_named() <= m.name_bound());
        }
    }

    #[test]
    fn majority_renamed_and_exclusive() {
        let mut alloc = RegAlloc::new();
        let cap = 8;
        let m = Majority::new(&mut alloc, 256, cap, &RenameConfig::default());
        let originals: Vec<u64> = (0..cap as u64).map(|i| i * 31 + 1).collect();
        let outs = run_contenders(&m, alloc.total(), &originals);
        let names: Vec<u64> = outs.iter().filter_map(|o| o.name()).collect();
        let set: BTreeSet<u64> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len(), "duplicate names handed out");
        assert!(
            names.len() * 2 >= cap,
            "fewer than half renamed: {} of {cap}",
            names.len()
        );
        assert!(names.iter().all(|&w| w >= 1 && w <= m.name_bound()));
    }

    #[test]
    fn steps_bounded_by_walk_length() {
        let mut alloc = RegAlloc::new();
        let m = Majority::new(&mut alloc, 1 << 12, 4, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        m.rename(ctx, 55).unwrap();
        assert!(ctx.steps() <= 5 * m.graph().degree() as u64);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_original() {
        let mut alloc = RegAlloc::new();
        let m = Majority::new(&mut alloc, 8, 2, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 1);
        let _ = m.rename(Ctx::new(&mem, Pid(0)), 9);
    }

    #[test]
    fn distinct_seeds_distinct_graphs() {
        let mut a1 = RegAlloc::new();
        let mut a2 = RegAlloc::new();
        let m1 = Majority::new(&mut a1, 128, 4, &RenameConfig::with_seed(1));
        let m2 = Majority::new(&mut a2, 128, 4, &RenameConfig::with_seed(2));
        assert_ne!(m1.graph(), m2.graph());
    }
}
