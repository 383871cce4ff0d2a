//! The dedicated deposit registers `R_1, R_2, …`.

use exsel_shm::{Ctx, Memory, Pid, RegAlloc, RegRange, Step, Word};

/// The paper's infinite array of registers dedicated to deposits, modeled
/// as a pre-sized bank (see ARCHITECTURE.md, "Substitutions"): index `i ≥ 1`
/// addresses register `R_i`, registers beyond the experiment's frontier
/// are simply never touched.
///
/// Only deposit values are ever written here (besides the `Null`
/// initialization), matching the paper's separation of dedicated and
/// auxiliary registers.
#[derive(Clone, Debug)]
pub struct DepositArena {
    regs: RegRange,
}

impl DepositArena {
    /// Reserves `capacity` dedicated registers. Size it beyond the total
    /// deposits of the run plus `2n` (the naming machinery's look-ahead).
    #[must_use]
    pub fn new(alloc: &mut RegAlloc, capacity: usize) -> Self {
        DepositArena {
            regs: alloc.reserve(capacity),
        }
    }

    /// Number of dedicated registers.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.regs.len()
    }

    /// Reads `R_index` (1-based). One local step.
    ///
    /// # Errors
    ///
    /// Returns [`exsel_shm::Crash`] if the process crashed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 0 or beyond capacity — the arena was sized too
    /// small for the run.
    pub fn read(&self, ctx: Ctx<'_>, index: u64) -> Step<Word> {
        ctx.read(self.reg_of(index))
    }

    /// Writes a deposit value into `R_index` (1-based). One local step.
    ///
    /// # Errors
    ///
    /// Returns [`exsel_shm::Crash`] if the process crashed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 0 or beyond capacity.
    pub fn write(&self, ctx: Ctx<'_>, index: u64, value: u64) -> Step<()> {
        ctx.write(self.reg_of(index), Word::Int(value))
    }

    /// The register backing `R_index` (1-based) — the machine form's
    /// announce-first path describes arena writes with it.
    pub(crate) fn reg(&self, index: u64) -> exsel_shm::RegId {
        self.reg_of(index)
    }

    fn reg_of(&self, index: u64) -> exsel_shm::RegId {
        assert!(index >= 1, "deposit registers are 1-based");
        let i = usize::try_from(index - 1).expect("index fits usize");
        assert!(
            i < self.regs.len(),
            "deposit register R_{index} beyond arena capacity {} — size the arena larger",
            self.regs.len()
        );
        self.regs.get(i)
    }

    /// Post-run occupancy inspection (host side, not part of the model):
    /// the value deposited in each register, `None` if never used.
    #[must_use]
    pub fn occupancy(&self, mem: &dyn Memory, observer: Pid) -> Vec<Option<u64>> {
        self.regs
            .iter()
            .map(|reg| mem.read(observer, reg).ok().and_then(|w| w.as_int()))
            .collect()
    }

    /// [`DepositArena::occupancy`] over a
    /// [`RegisterBank`](exsel_shm::RegisterBank), through its
    /// non-mutating `load` — the post-trial inspection path for
    /// `StepEngine` executions (`StepEngine::bank`) and open-loop service
    /// banks, which have no [`Memory`] handle.
    #[must_use]
    pub fn occupancy_in_bank<B: exsel_shm::RegisterBank>(&self, bank: &B) -> Vec<Option<u64>> {
        self.regs
            .iter()
            .map(|reg| bank.load(reg).as_int())
            .collect()
    }
}

impl exsel_shm::Footprint for DepositArena {
    /// Arena registers are addressed by dynamically acquired names, so
    /// no process can claim one statically: the whole arena is shared
    /// for every pid (name uniqueness is what makes each register
    /// single-writer dynamically).
    fn footprint(&self, _pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        spec.phase("deposit.arena")
            .reads(self.regs)
            .writes_shared(self.regs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::ThreadedShm;

    #[test]
    fn read_write_one_based() {
        let mut alloc = RegAlloc::new();
        let arena = DepositArena::new(&mut alloc, 4);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        assert!(arena.read(ctx, 1).unwrap().is_null());
        arena.write(ctx, 1, 10).unwrap();
        arena.write(ctx, 4, 40).unwrap();
        assert_eq!(arena.read(ctx, 1).unwrap(), Word::Int(10));
        assert_eq!(arena.read(ctx, 4).unwrap(), Word::Int(40));
    }

    #[test]
    fn occupancy_reports_gaps() {
        let mut alloc = RegAlloc::new();
        let arena = DepositArena::new(&mut alloc, 3);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let ctx = Ctx::new(&mem, Pid(0));
        arena.write(ctx, 2, 7).unwrap();
        assert_eq!(arena.occupancy(&mem, Pid(0)), vec![None, Some(7), None]);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_index_panics() {
        let mut alloc = RegAlloc::new();
        let arena = DepositArena::new(&mut alloc, 2);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let _ = arena.read(Ctx::new(&mem, Pid(0)), 0);
    }

    #[test]
    #[should_panic(expected = "beyond arena capacity")]
    fn overflow_panics_with_guidance() {
        let mut alloc = RegAlloc::new();
        let arena = DepositArena::new(&mut alloc, 2);
        let mem = ThreadedShm::new(alloc.total(), 1);
        let _ = arena.read(Ctx::new(&mem, Pid(0)), 3);
    }
}
