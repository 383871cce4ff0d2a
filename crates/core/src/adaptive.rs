//! `Adaptive-Rename` — Theorem 4: fully adaptive renaming (neither `k` nor
//! `N` known) with `M = 8k − lg k − 1`, `O(k)` local steps and `O(n²)`
//! registers.

use exsel_shm::{drive, Ctx, Pid, RegAlloc, Step};

use crate::step::{RenameMachine, Staged, StepRename};
use crate::{EfficientRename, Outcome, Rename, RenameConfig};

/// Doubling over [`EfficientRename`]: phase `i` runs
/// `Efficient-Rename(2ⁱ)` on its own registers and its own name interval
/// of length `2^{i+1} − 1`. A process walks phases `0, 1, …` with its
/// original name until one names it. With true contention `k`, at most
/// `k ≤ 2^{⌈lg k⌉}` processes reach phase `⌈lg k⌉`, which then names all
/// of them; the names consumed total
/// `Σ_{i ≤ ⌈lg k⌉} (2^{i+1} − 1) ≤ 8k − lg k − 1`.
#[derive(Clone, Debug)]
pub struct AdaptiveRename {
    phases: Vec<EfficientRename>,
    offsets: Vec<u64>,
    n_processes: usize,
}

impl AdaptiveRename {
    /// Builds an instance for a system of up to `n_processes` processes
    /// (phases go up to capacity `2^⌈lg n⌉ ≥ n`).
    ///
    /// # Panics
    ///
    /// Panics if `n_processes == 0`.
    #[must_use]
    pub fn new(alloc: &mut RegAlloc, n_processes: usize, cfg: &RenameConfig) -> Self {
        assert!(n_processes > 0, "need at least one process");
        let top = n_processes.next_power_of_two().ilog2() as usize;
        let mut phases = Vec::with_capacity(top + 1);
        let mut offsets = Vec::with_capacity(top + 1);
        let mut offset = 0u64;
        for i in 0..=top {
            let phase = EfficientRename::new(alloc, 1 << i, &cfg.child(0x40_0000 + i as u64));
            offsets.push(offset);
            offset += phase.name_bound(); // 2^{i+1} − 1
            phases.push(phase);
        }
        AdaptiveRename {
            phases,
            offsets,
            n_processes,
        }
    }

    /// The system size `n`.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.n_processes
    }

    /// Theorem 4's bound on names under true contention `k`:
    /// `8k − lg k − 1` (names through phase `⌈lg k⌉`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or exceeds the system size (rounded up to a
    /// power of two).
    #[must_use]
    pub fn name_bound_for_contention(&self, k: usize) -> u64 {
        assert!(k > 0, "contention must be positive");
        let phase = k.next_power_of_two().ilog2() as usize;
        assert!(
            phase < self.phases.len(),
            "contention {k} beyond system size"
        );
        self.offsets[phase] + self.phases[phase].name_bound()
    }

    /// Registers used across all phases (paper: `O(n²)`).
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.phases.iter().map(EfficientRename::num_registers).sum()
    }
}

impl Rename for AdaptiveRename {
    fn name_bound(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0) + self.phases.last().map_or(0, |p| p.name_bound())
    }

    /// Blocking adapter over [`StepRename::begin_rename`].
    fn rename(&self, ctx: Ctx<'_>, original: u64) -> Step<Outcome> {
        drive(&mut self.begin_rename(ctx.pid(), original), ctx)
    }
}

impl StepRename for AdaptiveRename {
    /// The doubling walk as a [`exsel_shm::StepMachine`]: phase `i` runs
    /// `Efficient-Rename(2^i)` on the shared `original`, offset into its
    /// own name interval.
    fn begin_rename<'a>(&'a self, pid: Pid, original: u64) -> RenameMachine<'a> {
        Box::new(Staged::new(move |i| {
            self.phases
                .get(i)
                .map(|phase| (phase.begin_rename(pid, original), self.offsets[i]))
        }))
    }

    /// Union of the phases' footprints: the doubling walk may reach any
    /// phase.
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        for phase in &self.phases {
            phase.footprint(pid, spec);
        }
    }

    fn snapshot_registers(&self) -> usize {
        self.phases.iter().map(StepRename::snapshot_registers).sum()
    }
}

/// Checks Theorem 4's closed form: the cumulative ranges indeed satisfy
/// `Σ_{i=0}^{⌈lg k⌉} (2^{i+1} − 1) = 2^{⌈lg k⌉+2} − ⌈lg k⌉ − 3 ≤ 8k − lg k − 1`.
#[cfg(test)]
fn closed_form_bound(k: usize) -> u64 {
    let i_star = k.next_power_of_two().ilog2() as u64;
    (1u64 << (i_star + 2)) - i_star - 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{Pid, ThreadedShm};
    use std::collections::BTreeSet;

    fn rename_all(algo: &AdaptiveRename, num_regs: usize, originals: &[u64]) -> Vec<u64> {
        let mem = ThreadedShm::new(num_regs, originals.len());
        std::thread::scope(|s| {
            originals
                .iter()
                .enumerate()
                .map(|(p, &orig)| {
                    let (algo, mem) = (algo, &mem);
                    s.spawn(move || {
                        algo.rename(Ctx::new(mem, Pid(p)), orig)
                            .unwrap()
                            .expect_named()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn names_within_8k_bound_for_all_contentions() {
        let mut alloc = RegAlloc::new();
        let algo = AdaptiveRename::new(&mut alloc, 8, &RenameConfig::default());
        for k in [1usize, 2, 3, 5, 8] {
            // Fresh memory per contention level (one-shot algorithm).
            let originals: Vec<u64> = (0..k as u64).map(|i| (i + 1) * 7919).collect();
            let names = rename_all(&algo, alloc.total(), &originals);
            let set: BTreeSet<u64> = names.iter().copied().collect();
            assert_eq!(set.len(), k, "k={k}");
            let bound = algo.name_bound_for_contention(k);
            assert!(
                names.iter().all(|&m| m <= bound),
                "k={k}: names {names:?} beyond {bound}"
            );
            assert!(
                bound <= 8 * k as u64,
                "k={k}: structural bound {bound} above 8k"
            );
        }
    }

    #[test]
    fn structural_bound_matches_closed_form() {
        let mut alloc = RegAlloc::new();
        let algo = AdaptiveRename::new(&mut alloc, 32, &RenameConfig::default());
        for k in 1..=32usize {
            assert_eq!(
                algo.name_bound_for_contention(k),
                closed_form_bound(k),
                "k={k}"
            );
        }
    }

    #[test]
    fn closed_form_is_at_most_8k_minus_lgk_minus_1() {
        for k in 1..=1024usize {
            let lg_k = (k as f64).log2().floor() as u64;
            assert!(
                closed_form_bound(k) < 8 * k as u64 - lg_k,
                "k={k}: {} > 8k − lg k − 1",
                closed_form_bound(k)
            );
        }
    }

    #[test]
    fn original_names_can_be_arbitrary_u64() {
        let mut alloc = RegAlloc::new();
        let algo = AdaptiveRename::new(&mut alloc, 4, &RenameConfig::default());
        let originals = [u64::MAX, 1, u64::MAX / 3];
        let names = rename_all(&algo, alloc.total(), &originals);
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), 3);
    }

    #[test]
    fn single_process_system() {
        let mut alloc = RegAlloc::new();
        let algo = AdaptiveRename::new(&mut alloc, 1, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 1);
        let out = algo.rename(Ctx::new(&mem, Pid(0)), 42).unwrap();
        assert_eq!(out, Outcome::Named(1));
    }
}
