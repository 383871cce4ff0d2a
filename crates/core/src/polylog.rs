//! `PolyLog-Rename(k, N)` — Theorem 1: `(k,N)`-renaming with `M = O(k)`
//! in `O(log k (log N + log k · log log N))` local steps.

use exsel_expander::ExpanderParams;
use exsel_shm::{drive, Ctx, Pid, RegAlloc, Step};

use crate::step::{Piped, RenameMachine, StepRename};
use crate::{BasicRename, Outcome, Rename, RenameConfig};

/// Epoch-iterated basic renaming.
///
/// Epoch `j` runs [`BasicRename`]`(k, N_j)` where `N_1 = N` and `N_{j+1}`
/// is the name bound of epoch `j`; every process acquires a new name in
/// *every* epoch, feeding it to the next, and keeps the name of the final
/// epoch. The bound chain contracts geometrically (`N_{j+1}/N_j ≤ 27/32`
/// in the paper's constants) until it stalls at the fixpoint
/// `M = Θ(k·log(M/k)) = O(k)`; construction stops at the first epoch whose
/// bound would not shrink any further.
#[derive(Clone, Debug)]
pub struct PolyLogRename {
    epochs: Vec<BasicRename>,
    capacity: usize,
    n_names: usize,
}

impl PolyLogRename {
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
        let mut epochs = Vec::new();
        Self::chain(n_names, capacity, &cfg.expander, |nj| {
            let j = epochs.len() as u64;
            epochs.push(BasicRename::new(
                alloc,
                nj,
                capacity,
                &cfg.child(0x10_0000 + j),
            ));
        });
        PolyLogRename {
            epochs,
            capacity,
            n_names,
        }
    }

    /// The name bound [`PolyLogRename::new`] produces for these sizes
    /// under `params`, without drawing any graph: the bound of the last
    /// epoch of the chain of [`BasicRename::name_bound_for`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or a bound overflows.
    #[must_use]
    pub fn name_bound_for(n_names: usize, capacity: usize, params: &ExpanderParams) -> u64 {
        Self::chain(n_names, capacity, params, |_| {})
    }

    /// Walks the epoch chain: calls `epoch(N_j)` for every epoch and
    /// returns the final epoch's name bound. The one walk both sizes and
    /// builds an instance, so the two cannot differ.
    fn chain(
        n_names: usize,
        capacity: usize,
        params: &ExpanderParams,
        mut epoch: impl FnMut(usize),
    ) -> u64 {
        let mut nj = n_names;
        loop {
            epoch(nj);
            let bound = BasicRename::name_bound_for(nj, capacity, params);
            let next = usize::try_from(bound).expect("bound fits usize");
            if next >= nj {
                // The chain stalled: `nj` is (within a factor) the fixpoint
                // M = Θ(k log(M/k)); a further epoch could not shrink it.
                return bound;
            }
            nj = next;
        }
    }

    /// The contender capacity `k`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of original names `N`.
    #[must_use]
    pub fn num_names(&self) -> usize {
        self.n_names
    }

    /// Number of epochs (paper: `O(log log N)`).
    #[must_use]
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Registers used across all epochs.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.epochs.iter().map(BasicRename::num_registers).sum()
    }
}

impl Rename for PolyLogRename {
    /// The bound of the final epoch (the names a process keeps).
    fn name_bound(&self) -> u64 {
        self.epochs.last().expect("at least one epoch").name_bound()
    }

    /// Blocking adapter over [`StepRename::begin_rename`].
    fn rename(&self, ctx: Ctx<'_>, original: u64) -> Step<Outcome> {
        drive(&mut self.begin_rename(ctx.pid(), original), ctx)
    }
}

impl StepRename for PolyLogRename {
    /// The epoch chain as a [`exsel_shm::StepMachine`]: every epoch's name
    /// feeds the next epoch; the final epoch's name is kept.
    fn begin_rename<'a>(&'a self, pid: Pid, original: u64) -> RenameMachine<'a> {
        Box::new(Piped::new(original, move |j, name| {
            self.epochs
                .get(j)
                .map(|epoch| epoch.begin_rename(pid, name))
        }))
    }

    /// Union of the epochs' footprints: a contender pipelines through a
    /// prefix of the epoch chain.
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        for epoch in &self.epochs {
            epoch.footprint(pid, spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{Pid, ThreadedShm};
    use std::collections::BTreeSet;

    fn rename_all(algo: &PolyLogRename, num_regs: usize, originals: &[u64]) -> Vec<Outcome> {
        let mem = ThreadedShm::new(num_regs, originals.len());
        std::thread::scope(|s| {
            originals
                .iter()
                .enumerate()
                .map(|(p, &orig)| {
                    let (algo, mem) = (algo, &mem);
                    s.spawn(move || algo.rename(Ctx::new(mem, Pid(p)), orig).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn names_exclusive_and_all_named() {
        let mut alloc = RegAlloc::new();
        let k = 8;
        let algo = PolyLogRename::new(&mut alloc, 1 << 14, k, &RenameConfig::default());
        let originals: Vec<u64> = (0..k as u64).map(|i| (i + 1) * 1009).collect();
        let outs = rename_all(&algo, alloc.total(), &originals);
        let names: Vec<u64> = outs
            .iter()
            .map(|o| o.name().expect("within capacity: everyone named"))
            .collect();
        let set: BTreeSet<u64> = names.iter().copied().collect();
        assert_eq!(set.len(), k);
        assert!(names.iter().all(|&m| m >= 1 && m <= algo.name_bound()));
    }

    #[test]
    fn final_bound_is_linear_in_k_not_n() {
        // M = O(k): growing N by 64x should not move the final bound much
        // (it is the fixpoint of k·log), while growing k moves it
        // proportionally.
        let cfg = RenameConfig::default();
        let bound = |n: usize, k: usize| {
            let mut alloc = RegAlloc::new();
            PolyLogRename::new(&mut alloc, n, k, &cfg).name_bound()
        };
        let b_small_n = bound(1 << 10, 8);
        let b_large_n = bound(1 << 16, 8);
        assert!(
            b_large_n <= b_small_n * 2,
            "bound grew with N: {b_small_n} -> {b_large_n}"
        );
        let b_double_k = bound(1 << 16, 16);
        assert!(b_double_k > b_large_n, "bound must grow with k");
        assert!(b_double_k <= b_large_n * 3, "bound superlinear in k");
    }

    #[test]
    fn epoch_chain_contracts() {
        let mut alloc = RegAlloc::new();
        let algo = PolyLogRename::new(&mut alloc, 1 << 16, 8, &RenameConfig::default());
        assert!(algo.num_epochs() >= 2, "large N should need several epochs");
        for pair in algo.epochs.windows(2) {
            assert!(pair[1].num_names() < pair[0].num_names());
        }
    }

    #[test]
    fn tiny_instance_single_epoch() {
        let mut alloc = RegAlloc::new();
        let algo = PolyLogRename::new(&mut alloc, 4, 2, &RenameConfig::default());
        assert_eq!(algo.num_epochs(), 1);
        let mem = ThreadedShm::new(alloc.total(), 1);
        assert!(algo.rename(Ctx::new(&mem, Pid(0)), 3).unwrap().is_named());
    }

    #[test]
    fn register_count_matches_allocator() {
        let mut alloc = RegAlloc::new();
        let algo = PolyLogRename::new(&mut alloc, 1 << 12, 4, &RenameConfig::default());
        assert_eq!(algo.num_registers(), alloc.total());
    }
}
