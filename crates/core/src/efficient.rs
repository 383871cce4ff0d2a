//! `Efficient-Rename(k)` — Theorem 2: `k`-renaming for arbitrary `N` in
//! `O(k)` local steps with the optimal bound `M = 2k−1`, using `O(k²)`
//! registers.
//!
//! The pipeline composes three stages on disjoint register banks, each
//! consuming the previous stage's names:
//!
//! 1. [`MoirAnderson`]`(k)` — compresses arbitrary original names to
//!    `[k(k+1)/2]` in `O(k)` steps;
//! 2. [`PolyLogRename`]`(k, k(k+1)/2)` — compresses to `O(k)` (Theorem 1);
//! 3. the `AF(k, M′)` stage, here the snapshot-based `(2k−1)`-renaming
//!    ([`SnapshotRename`], see ARCHITECTURE.md, "Substitutions") — yields the
//!    final names in `[2k−1]`.
//!
//! Stage 2 only pays off asymptotically: its `O(k)` bound carries a large
//! constant (the fixpoint of `k·c·log`), so for practical `k` it would
//! *expand* `k(k+1)/2`. With [`ExpanderParams::compact`] it shrinks the
//! range only from `k = 585`, so [`crate::AdaptiveRename`]'s power-of-two
//! phases first build it at `k = 1024`. The constructor decides by
//! arithmetic: it computes the stage's bound with
//! [`PolyLogRename::name_bound_for`] from the expander sizes alone, and
//! builds the stage only when that bound is below `k(k+1)/2`; otherwise
//! it skips the stage (an identity pass keeps the theorem's guarantees).
//! The [`Pipeline::Direct`] ablation forces the skip so benches can
//! measure the stage's contribution at any scale.
//!
//! [`ExpanderParams::compact`]: exsel_expander::ExpanderParams::compact

use exsel_shm::{drive, Ctx, Pid, Poll, RegAlloc, ShmOp, Step, StepMachine, Word};

use crate::step::{RenameMachine, StepRename};
use crate::{MoirAnderson, Outcome, PolyLogRename, Rename, RenameConfig, SnapshotRename};

/// Which stages the pipeline includes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// The paper's pipeline; the polylog stage is included whenever its
    /// name bound, computed by [`PolyLogRename::name_bound_for`] without
    /// building anything, is below Moir–Anderson's `k(k+1)/2` (always,
    /// asymptotically).
    Paper,
    /// Ablation: Moir–Anderson feeding the snapshot stage directly.
    Direct,
}

/// The Theorem 2 renaming pipeline.
#[derive(Clone, Debug)]
pub struct EfficientRename {
    ma: MoirAnderson,
    polylog: Option<PolyLogRename>,
    final_stage: SnapshotRename,
    k: usize,
}

impl EfficientRename {
    /// Builds the paper pipeline for up to `k` contenders.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(alloc: &mut RegAlloc, k: usize, cfg: &RenameConfig) -> Self {
        Self::with_pipeline(alloc, k, cfg, Pipeline::Paper)
    }

    /// Builds the pipeline with an explicit stage selection.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn with_pipeline(
        alloc: &mut RegAlloc,
        k: usize,
        cfg: &RenameConfig,
        pipeline: Pipeline,
    ) -> Self {
        assert!(k > 0, "capacity must be positive");
        let ma = MoirAnderson::new(alloc, k);
        let ma_bound = usize::try_from(ma.name_bound()).expect("bound fits usize");

        let polylog = (pipeline == Pipeline::Paper
            && PolyLogRename::name_bound_for(ma_bound, k, &cfg.expander) < ma.name_bound())
        .then(|| PolyLogRename::new(alloc, ma_bound, k, &cfg.child(0x20_0000)));

        let slots = polylog
            .as_ref()
            .map_or(ma_bound, |pl| pl.name_bound() as usize);
        let final_stage = SnapshotRename::new(alloc, slots).with_bound(2 * k as u64 - 1);
        EfficientRename {
            ma,
            polylog,
            final_stage,
            k,
        }
    }

    /// The contender capacity `k`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Whether the polylog stage is active.
    #[must_use]
    pub fn has_polylog_stage(&self) -> bool {
        self.polylog.is_some()
    }

    /// Participant slots of the final snapshot stage — the name range the
    /// preceding stages feed it, and the width of its scans (the dominant
    /// step-cost constant). Exposed for the pipeline ablation (A1).
    #[must_use]
    pub fn final_stage_slots(&self) -> usize {
        self.final_stage.num_slots()
    }

    /// Registers used across all stages.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.ma.num_registers()
            + self
                .polylog
                .as_ref()
                .map_or(0, PolyLogRename::num_registers)
            + self.final_stage.num_registers()
    }
}

impl Rename for EfficientRename {
    fn name_bound(&self) -> u64 {
        2 * self.k as u64 - 1
    }

    /// Blocking adapter over [`StepRename::begin_rename`].
    fn rename(&self, ctx: Ctx<'_>, original: u64) -> Step<Outcome> {
        drive(&mut self.begin_rename(ctx.pid(), original), ctx)
    }
}

impl StepRename for EfficientRename {
    /// The three-stage pipeline as a [`StepMachine`]: Moir-Anderson, the
    /// optional polylog compressor, then the snapshot stage on the private
    /// slot `b - 1` with unique token `b`.
    fn begin_rename<'a>(&'a self, pid: Pid, original: u64) -> RenameMachine<'a> {
        Box::new(EfficientOp {
            algo: self,
            pid,
            original,
            stage: EffStage::Ma(Box::new(self.ma.begin_walk(original))),
        })
    }

    /// Union of the stage footprints. The final snapshot stage's slots
    /// are addressed by the *name* the earlier stages produced, not by
    /// pid, so no process can claim one statically: the whole final
    /// bank is declared shared (uniqueness of intermediate names is
    /// what makes it single-writer dynamically — exactly the property
    /// the renaming proof, not the layout, provides).
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        self.ma.footprint(pid, spec);
        if let Some(pl) = &self.polylog {
            pl.footprint(pid, spec);
        }
        let final_regs = self.final_stage.snapshot().registers();
        spec.phase("efficient.final")
            .reads(final_regs)
            .writes_shared(final_regs);
    }

    fn snapshot_registers(&self) -> usize {
        self.final_stage.num_slots()
    }
}

enum EffStage<'a> {
    Ma(RenameMachine<'a>),
    Poly(RenameMachine<'a>),
    Final(RenameMachine<'a>),
}

/// In-progress `Efficient-Rename` — a [`StepMachine`] over the pipeline's
/// stages.
pub struct EfficientOp<'a> {
    algo: &'a EfficientRename,
    pid: Pid,
    original: u64,
    stage: EffStage<'a>,
}

impl<'a> EfficientOp<'a> {
    /// Enters the final snapshot stage with the compressed name `b`.
    /// Stage names are exclusive, so `b - 1` is a private slot and `b` a
    /// unique token.
    fn final_stage(&self, b: u64) -> EffStage<'a> {
        EffStage::Final(Box::new(
            self.algo.final_stage.begin_rename_slot((b - 1) as usize, b),
        ))
    }
}

impl StepMachine for EfficientOp<'_> {
    type Output = Outcome;

    fn op(&self) -> ShmOp {
        match &self.stage {
            EffStage::Ma(m) | EffStage::Poly(m) | EffStage::Final(m) => m.op(),
        }
    }

    fn peek(&self) -> (exsel_shm::OpKind, exsel_shm::RegId) {
        match &self.stage {
            EffStage::Ma(m) | EffStage::Poly(m) | EffStage::Final(m) => m.peek(),
        }
    }

    fn advance(&mut self, input: &Word) -> Poll<Outcome> {
        match &mut self.stage {
            EffStage::Ma(m) => match m.advance(input) {
                Poll::Pending => Poll::Pending,
                Poll::Ready(Outcome::Failed) => Poll::Ready(Outcome::Failed),
                Poll::Ready(Outcome::Named(a)) => {
                    self.stage = match &self.algo.polylog {
                        Some(pl) => EffStage::Poly(pl.begin_rename(self.pid, a)),
                        None => self.final_stage(a),
                    };
                    Poll::Pending
                }
            },
            EffStage::Poly(m) => match m.advance(input) {
                Poll::Pending => Poll::Pending,
                Poll::Ready(Outcome::Failed) => Poll::Ready(Outcome::Failed),
                Poll::Ready(Outcome::Named(b)) => {
                    self.stage = self.final_stage(b);
                    Poll::Pending
                }
            },
            EffStage::Final(m) => m.advance(input),
        }
    }

    fn reset(&mut self, pid: Pid) {
        // Composite pipelines rebuild their first stage (one box); the
        // stage machines themselves are built lazily as before.
        self.pid = pid;
        self.stage = EffStage::Ma(Box::new(self.algo.ma.begin_walk(self.original)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{Pid, ThreadedShm};
    use std::collections::BTreeSet;

    fn rename_all(algo: &EfficientRename, num_regs: usize, originals: &[u64]) -> Vec<Outcome> {
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
    fn full_contention_exclusive_within_2k_minus_1() {
        for k in [1usize, 2, 4, 8] {
            let mut alloc = RegAlloc::new();
            let algo = EfficientRename::new(&mut alloc, k, &RenameConfig::default());
            // Arbitrary (huge) original names: k-renaming must not care.
            let originals: Vec<u64> = (0..k as u64).map(|i| (i + 1) * 1_000_003).collect();
            let outs = rename_all(&algo, alloc.total(), &originals);
            let names: Vec<u64> = outs
                .iter()
                .map(|o| o.name().expect("within capacity"))
                .collect();
            let set: BTreeSet<u64> = names.iter().copied().collect();
            assert_eq!(set.len(), k, "k={k}: duplicates in {names:?}");
            assert!(
                names.iter().all(|&m| m >= 1 && m < 2 * k as u64),
                "k={k}: beyond 2k-1: {names:?}"
            );
        }
    }

    #[test]
    fn solo_process_gets_a_name() {
        let mut alloc = RegAlloc::new();
        let algo = EfficientRename::new(&mut alloc, 4, &RenameConfig::default());
        let mem = ThreadedShm::new(alloc.total(), 1);
        let out = algo.rename(Ctx::new(&mem, Pid(0)), u64::MAX / 2).unwrap();
        assert!(out.is_named());
        assert!(out.expect_named() <= 7);
    }

    #[test]
    fn overflow_yields_failed_without_duplicates() {
        let k = 4;
        let mut alloc = RegAlloc::new();
        let algo = EfficientRename::new(&mut alloc, k, &RenameConfig::default());
        let originals: Vec<u64> = (0..3 * k as u64).map(|i| i + 1).collect();
        let outs = rename_all(&algo, alloc.total(), &originals);
        let names: Vec<u64> = outs.iter().filter_map(|o| o.name()).collect();
        let set: BTreeSet<u64> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len(), "duplicates under overflow");
        assert!(names.iter().all(|&m| m < 2 * k as u64));
    }

    #[test]
    fn small_k_skips_polylog_stage() {
        // At laptop scale the polylog fixpoint exceeds k(k+1)/2, so the
        // stage must be skipped (it would expand the range).
        let mut alloc = RegAlloc::new();
        let algo = EfficientRename::new(&mut alloc, 8, &RenameConfig::default());
        assert!(!algo.has_polylog_stage());
    }

    #[test]
    fn direct_pipeline_matches_paper_at_small_k() {
        let cfg = RenameConfig::default();
        let mut a1 = RegAlloc::new();
        let p1 = EfficientRename::with_pipeline(&mut a1, 4, &cfg, Pipeline::Paper);
        let mut a2 = RegAlloc::new();
        let p2 = EfficientRename::with_pipeline(&mut a2, 4, &cfg, Pipeline::Direct);
        assert_eq!(p1.num_registers(), p2.num_registers());
        assert_eq!(p1.name_bound(), p2.name_bound());
    }

    #[test]
    fn register_count_matches_allocator() {
        let mut alloc = RegAlloc::new();
        let algo = EfficientRename::new(&mut alloc, 8, &RenameConfig::default());
        assert_eq!(algo.num_registers(), alloc.total());
    }
}
