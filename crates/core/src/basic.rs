//! `Basic-Rename(k, N)` — Lemma 5: `(k,N)`-renaming in `O(log k · log N)`
//! local steps with `M = O(k · log(N/k))` new names.

use exsel_expander::ExpanderParams;
use exsel_shm::{drive, Ctx, Pid, RegAlloc, Step};

use crate::step::{RenameMachine, Staged, StepRename};
use crate::{Majority, Outcome, Rename, RenameConfig};

/// Staged majority renaming.
///
/// The algorithm runs `⌊lg k⌋ + 1` stages; stage `i` is a
/// [`Majority`]`(⌈k/2ⁱ⌉, N)` instance on its own disjoint register bank
/// and name range. A process executes stages in order, keeping its
/// original name as input each time, until some stage names it. Each
/// stage renames at least half of its active contenders (Lemma 4), so at
/// most `⌊k/2^{i}⌋` processes reach stage `i` — the last stage sees at
/// most one, which always wins.
#[derive(Clone, Debug)]
pub struct BasicRename {
    stages: Vec<Majority>,
    /// Cumulative name offset of each stage within `[1, name_bound]`.
    offsets: Vec<u64>,
    capacity: usize,
    n_names: usize,
}

impl BasicRename {
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
        let (mut stages, mut offsets) = (Vec::new(), Vec::new());
        Self::layout(n_names, capacity, &cfg.expander, |i, stage_cap, offset| {
            stages.push(Majority::new(
                alloc,
                n_names,
                stage_cap,
                &cfg.child(i as u64),
            ));
            offsets.push(offset);
        });
        BasicRename {
            stages,
            offsets,
            capacity,
            n_names,
        }
    }

    /// The name bound [`BasicRename::new`] produces for these sizes
    /// under `params`, without drawing any graph: the sum of the stages'
    /// [`Majority::name_bound_for`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the bound overflows `u64`.
    #[must_use]
    pub fn name_bound_for(n_names: usize, capacity: usize, params: &ExpanderParams) -> u64 {
        Self::layout(n_names, capacity, params, |_, _, _| {})
    }

    /// Walks the stage layout: calls `stage(i, capacity_i, offset_i)` for
    /// every stage `i`, where `offset_i` is the sum of the earlier
    /// stages' name bounds, and returns the total name bound. The one
    /// walk both sizes and builds an instance, so the two cannot differ.
    fn layout(
        n_names: usize,
        capacity: usize,
        params: &ExpanderParams,
        mut stage: impl FnMut(usize, usize, u64),
    ) -> u64 {
        (0..=capacity.ilog2() as usize).fold(0u64, |offset, i| {
            let stage_cap = (capacity >> i).max(1);
            stage(i, stage_cap, offset);
            offset
                .checked_add(Majority::name_bound_for(n_names, stage_cap, params))
                .expect("name bound overflows u64")
        })
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

    /// Number of stages (`⌊lg k⌋ + 1`).
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Registers used across all stages.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.stages.iter().map(Majority::num_registers).sum()
    }
}

impl Rename for BasicRename {
    fn name_bound(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0) + self.stages.last().map_or(0, |s| s.name_bound())
    }

    /// Blocking adapter over [`StepRename::begin_rename`].
    fn rename(&self, ctx: Ctx<'_>, original: u64) -> Step<Outcome> {
        drive(&mut self.begin_rename(ctx.pid(), original), ctx)
    }
}

impl StepRename for BasicRename {
    /// The staged walk as a [`exsel_shm::StepMachine`]: stage `i`'s
    /// `Majority` machine runs on the shared `original` until one names
    /// the caller, offset into stage `i`'s name interval.
    fn begin_rename<'a>(&'a self, _pid: Pid, original: u64) -> RenameMachine<'a> {
        Box::new(Staged::new(move |i| {
            self.stages.get(i).map(|stage| -> (RenameMachine<'a>, u64) {
                (Box::new(stage.begin_walk(original)), self.offsets[i])
            })
        }))
    }

    /// Union of the stages' footprints: a contender may walk any prefix
    /// of the stage chain.
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        for stage in &self.stages {
            stage.footprint(pid, spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{Pid, ThreadedShm};
    use std::collections::BTreeSet;

    fn rename_all(algo: &BasicRename, num_regs: usize, originals: &[u64]) -> Vec<Outcome> {
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
    fn all_contenders_named_exclusively() {
        let mut alloc = RegAlloc::new();
        let k = 8;
        let algo = BasicRename::new(&mut alloc, 512, k, &RenameConfig::default());
        let originals: Vec<u64> = (0..k as u64).map(|i| i * 61 + 3).collect();
        let outs = rename_all(&algo, alloc.total(), &originals);
        let names: Vec<u64> = outs
            .iter()
            .map(|o| {
                o.name()
                    .expect("full contention within capacity must name everyone")
            })
            .collect();
        let set: BTreeSet<u64> = names.iter().copied().collect();
        assert_eq!(set.len(), k, "names not exclusive: {names:?}");
        assert!(names.iter().all(|&m| m >= 1 && m <= algo.name_bound()));
    }

    #[test]
    fn stage_count_formula() {
        for (k, want) in [(1usize, 1usize), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)] {
            let mut alloc = RegAlloc::new();
            let algo = BasicRename::new(&mut alloc, 64, k, &RenameConfig::default());
            assert_eq!(algo.num_stages(), want, "k={k}");
        }
    }

    #[test]
    fn stage_name_ranges_are_disjoint() {
        let mut alloc = RegAlloc::new();
        let algo = BasicRename::new(&mut alloc, 256, 4, &RenameConfig::default());
        let mut prev_end = 0;
        for (stage, &offset) in algo.stages.iter().zip(&algo.offsets) {
            assert_eq!(offset, prev_end);
            prev_end = offset + stage.name_bound();
        }
        assert_eq!(prev_end, algo.name_bound());
    }

    #[test]
    fn capacity_one_is_single_stage() {
        let mut alloc = RegAlloc::new();
        let algo = BasicRename::new(&mut alloc, 128, 1, &RenameConfig::default());
        assert_eq!(algo.num_stages(), 1);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let out = algo.rename(Ctx::new(&mem, Pid(0)), 100).unwrap();
        assert!(out.is_named());
    }

    #[test]
    fn register_count_matches_allocator() {
        let mut alloc = RegAlloc::new();
        let algo = BasicRename::new(&mut alloc, 512, 8, &RenameConfig::default());
        assert_eq!(algo.num_registers(), alloc.total());
    }

    #[test]
    fn repeated_runs_with_crashes_never_duplicate() {
        // Crash half the contenders (by just not running them); survivors
        // must still get exclusive names.
        let mut alloc = RegAlloc::new();
        let k = 8;
        let algo = BasicRename::new(&mut alloc, 512, k, &RenameConfig::default());
        let originals: Vec<u64> = (0..4u64).map(|i| i * 100 + 7).collect();
        let outs = rename_all(&algo, alloc.total(), &originals);
        let names: BTreeSet<u64> = outs.iter().filter_map(|o| o.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
