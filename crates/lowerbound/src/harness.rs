//! Running the adversary against a concrete renaming algorithm.
//!
//! Two forms of entry point:
//!
//! * [`run_machines_against_pooled`] / [`run_store_against_pooled`] —
//!   the adversarial trial over a caller-held [`MachinePool`] and
//!   reusable engine: machines are reset in place per trial, so
//!   adversary sweeps allocate nothing per trial beyond what the
//!   algorithm itself installs in registers.
//! * [`run_against`] / [`run_store_against`] — the thread-backed
//!   scheduler for closure-style process bodies; kept as the
//!   differential oracle (the pigeonhole adversary is deterministic, so
//!   both must force the identical staged execution).

use std::collections::BTreeSet;
use std::sync::Mutex;

use exsel_shm::{Crash, Ctx, StepMachine};
use exsel_sim::{
    explore_pool_sleep, ExploreReport, MachinePool, ReduceConfig, SimBuilder, StepEngine,
};

use crate::{theorem6_bound, AdversaryStats, PigeonholeAdversary};

/// The outcome of one adversarial execution, ready for the T7 table.
#[derive(Clone, Debug)]
pub struct LowerBoundReport {
    /// Contenders `N` the adversary started from (every process is a
    /// potential contender, as in the proof's conceptual-process pool).
    pub n_processes: usize,
    /// Stages the adversary completed.
    pub stages: usize,
    /// Pool sizes per stage (index 0 = initial).
    pub pool_sizes: Vec<usize>,
    /// Theorem 6's closed-form step bound for these parameters.
    pub bound: u64,
    /// Maximum local steps over processes that decided a name.
    pub max_steps_named: u64,
    /// Whether all decided names were exclusive (must always hold).
    pub exclusive: bool,
    /// How many processes decided a name.
    pub named: usize,
}

/// Runs `n_processes` contenders (original name = pid + 1) of a renaming
/// procedure under the pigeonhole adversary and reports the forced
/// complexity. `rename` is the per-process body returning the acquired
/// name, or `None` if the instance failed it; `m` and `r` are the
/// algorithm's name bound and register count, `k` the contention
/// parameter for the `k − 2` staging budget, and `num_registers` the
/// memory size.
///
/// # Panics
///
/// Panics if two processes decide the same name (exclusiveness violation
/// — a bug in the algorithm under test).
pub fn run_against<F>(
    n_processes: usize,
    num_registers: usize,
    k: usize,
    m: u64,
    r: u64,
    rename: F,
) -> LowerBoundReport
where
    F: Fn(Ctx<'_>) -> exsel_shm::Step<Option<u64>> + Sync,
{
    let (adversary, stats) =
        PigeonholeAdversary::new(n_processes, k.saturating_sub(2), 2 * m as usize);
    let outcome = SimBuilder::new(num_registers, Box::new(adversary))
        .stack_size(128 * 1024)
        .run(n_processes, rename);
    assemble_report(
        outcome
            .results
            .iter()
            .map(|r| r.as_ref().ok().copied().flatten()),
        &outcome.steps,
        stats.as_ref(),
        n_processes,
        theorem6_bound(k as u64, n_processes as u64, m, r),
    )
}

/// The fully pooled adversarial trial: runs the machines of `pool`
/// (process `i` is `Pid(i)`; output `Some(name)` is the exclusiveness
/// witness, `None` an instance failure) under the Theorem 6 pigeonhole
/// adversary on the caller's reusable engine via
/// [`StepEngine::run_pool`] — machines are reset in place, results land
/// in the pool's own buffers, and consecutive sweep trials reallocate
/// neither machines nor scratch. `m` and `r` are the algorithm's name
/// bound and register count, `k` the contention parameter for the
/// `k − 2` staging budget.
///
/// The adversary is deterministic: the forced execution is identical to
/// the thread-backed [`run_against`]'s, on a fresh or a reused engine
/// and pool (tested).
///
/// # Panics
///
/// Panics if two processes decide the same name (exclusiveness violation
/// — a bug in the algorithm under test), or if a pooled machine does not
/// implement [`StepMachine::reset`].
pub fn run_machines_against_pooled<M>(
    engine: &mut StepEngine,
    pool: &mut MachinePool<M>,
    num_registers: usize,
    k: usize,
    m: u64,
    r: u64,
) -> LowerBoundReport
where
    M: StepMachine<Output = Option<u64>>,
{
    let bound = theorem6_bound(k as u64, pool.len() as u64, m, r);
    run_pooled_with(
        engine,
        pool,
        num_registers,
        k.saturating_sub(2),
        2 * m as usize,
        bound,
    )
}

/// The storing analogue of [`run_machines_against_pooled`] (Theorem 7):
/// pooled first-store machines (output = the adopted value register)
/// staged `k − 1` times down to a pool of `k`, reported against
/// [`crate::theorem7_bound`].
///
/// # Panics
///
/// As [`run_machines_against_pooled`] (two stores landing on the same
/// value register violate exclusiveness).
pub fn run_store_against_pooled<M>(
    engine: &mut StepEngine,
    pool: &mut MachinePool<M>,
    num_registers: usize,
    k: usize,
    r: u64,
) -> LowerBoundReport
where
    M: StepMachine<Output = Option<u64>>,
{
    let bound = crate::theorem7_bound(k as u64, pool.len() as u64, r);
    run_pooled_with(engine, pool, num_registers, k.saturating_sub(1), k, bound)
}

/// Exhaustive exclusiveness audit over the same pooled surface as
/// [`run_machines_against_pooled`]: instead of one forced pigeonhole
/// schedule, the sleep-set-reduced enumerator
/// ([`exsel_sim::explore_pool_sleep`]) walks **every** inequivalent
/// interleaving of the pooled machines (one per Mazurkiewicz trace
/// class) and checks that decided names stay pairwise distinct in each.
/// Only practical at small pool sizes — the adversarial single-trial
/// paths remain the tool at scale — but where it completes it upgrades
/// the harness's per-schedule witness to a for-all-schedules proof. A
/// violated execution is reported (with a minimized replayable schedule
/// in [`ExploreReport::minimized`]) rather than panicking.
pub fn exhaust_exclusiveness_pooled<M>(
    engine: &mut StepEngine,
    pool: &mut MachinePool<M>,
    num_registers: usize,
    max_executions: u64,
) -> ExploreReport
where
    M: StepMachine<Output = Option<u64>>,
{
    engine.set_registers(num_registers);
    explore_pool_sleep(
        engine,
        pool,
        &ReduceConfig::sleep_only(max_executions),
        |pool| {
            let names: Vec<u64> = pool
                .results()
                .iter()
                .filter_map(|r| match r {
                    Some(Ok(Some(name))) => Some(*name),
                    _ => None,
                })
                .collect();
            let set: BTreeSet<u64> = names.iter().copied().collect();
            set.len() == names.len()
        },
    )
}

/// Shared pooled driver: one adversarial [`StepEngine::run_pool`] trial
/// with the given staging limits, digested into a report carrying
/// `bound`.
fn run_pooled_with<M>(
    engine: &mut StepEngine,
    pool: &mut MachinePool<M>,
    num_registers: usize,
    max_stages: usize,
    min_pool: usize,
    bound: u64,
) -> LowerBoundReport
where
    M: StepMachine<Output = Option<u64>>,
{
    engine.set_registers(num_registers);
    let n_processes = pool.len();
    let (mut adversary, stats) = PigeonholeAdversary::new(n_processes, max_stages, min_pool);
    engine.run_pool(&mut adversary, pool);
    let named: Vec<Option<u64>> = pool
        .results()
        .iter()
        .map(|r| match r {
            Some(Ok(name)) => *name,
            Some(Err(Crash)) => None,
            None => unreachable!("trial ran to quiescence"),
        })
        .collect();
    assemble_report(
        named.into_iter(),
        pool.steps(),
        stats.as_ref(),
        n_processes,
        bound,
    )
}

/// The one folding point of every harness path: collects decided names
/// (asserting exclusiveness), the worst step count among deciders, and
/// the adversary's staging statistics.
fn assemble_report(
    results: impl Iterator<Item = Option<u64>>,
    steps: &[u64],
    stats: &Mutex<AdversaryStats>,
    n_processes: usize,
    bound: u64,
) -> LowerBoundReport {
    let mut names = Vec::new();
    let mut max_steps_named = 0;
    for (pid, result) in results.enumerate() {
        if let Some(name) = result {
            names.push(name);
            max_steps_named = max_steps_named.max(steps[pid]);
        }
    }
    let set: BTreeSet<u64> = names.iter().copied().collect();
    let exclusive = set.len() == names.len();
    assert!(
        exclusive,
        "exclusiveness violated under adversary: {names:?}"
    );

    let st = stats.lock().expect("stats lock");
    LowerBoundReport {
        n_processes,
        stages: st.stages,
        pool_sizes: st.pool_sizes.clone(),
        bound,
        max_steps_named,
        exclusive,
        named: names.len(),
    }
}

/// The storing analogue (Theorem 7): runs `n_processes` first-store
/// operations under the pigeonhole adversary staged
/// `min{k−2, ⌈log_{2r}(N/k)⌉}`-ish times (we reuse the renaming staging
/// with `min_pool = k`, per the proof's "continue until fewer than `k`
/// registers have been written"), and reports forced stages and observed
/// store steps against [`crate::theorem7_bound`].
///
/// # Panics
///
/// Panics if the store operations are not exclusive in their outputs
/// (two stores landing on the same value register).
pub fn run_store_against<F>(
    n_processes: usize,
    num_registers: usize,
    k: usize,
    r: u64,
    store: F,
) -> LowerBoundReport
where
    F: Fn(Ctx<'_>) -> exsel_shm::Step<Option<u64>> + Sync,
{
    let (adversary, stats) = PigeonholeAdversary::new(n_processes, k.saturating_sub(1), k);
    let outcome = SimBuilder::new(num_registers, Box::new(adversary))
        .stack_size(128 * 1024)
        .run(n_processes, store);
    assemble_report(
        outcome
            .results
            .iter()
            .map(|r| r.as_ref().ok().copied().flatten()),
        &outcome.steps,
        stats.as_ref(),
        n_processes,
        crate::theorem7_bound(k as u64, n_processes as u64, r),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_core::{MoirAnderson, Rename, RenameConfig, SnapshotRename};
    use exsel_shm::{Pid, RegAlloc};

    #[test]
    fn adversary_vs_moir_anderson() {
        // k = 8 grid, N = 256 potential contenders. The adversary stages,
        // culls, and the survivors must still rename exclusively.
        let k = 8;
        let n = 256;
        let mut alloc = RegAlloc::new();
        let algo = MoirAnderson::new(&mut alloc, k);
        let m = algo.name_bound();
        let r = alloc.total() as u64;
        let report = run_against(n, alloc.total(), k, m, r, |ctx| {
            Ok(algo.rename(ctx, ctx.pid().0 as u64 + 1)?.name())
        });
        assert!(report.exclusive);
        assert!(
            report.max_steps_named >= report.bound,
            "observed {} below Theorem 6 bound {}",
            report.max_steps_named,
            report.bound
        );
        // The pool shrinks by at most 2r per stage (pigeonhole).
        for w in report.pool_sizes.windows(2) {
            assert!(w[1] as u64 * 2 * r >= w[0] as u64, "pool shrank too fast");
        }
    }

    #[test]
    fn adversary_vs_snapshot_rename() {
        let n = 64;
        let mut alloc = RegAlloc::new();
        let algo = SnapshotRename::new(&mut alloc, n);
        let m = algo.name_bound();
        let r = alloc.total() as u64;
        let report = run_against(n, alloc.total(), n, m, r, |ctx| {
            Ok(algo
                .rename_slot(ctx, ctx.pid().0, ctx.pid().0 as u64 + 1)?
                .name())
        });
        assert!(report.exclusive);
        assert!(report.named > 0);
        assert!(report.max_steps_named >= report.bound);
    }

    #[test]
    fn storing_adversary_vs_storecollect() {
        use exsel_storecollect::{StoreCollect, StoreHandle};
        let k = 4;
        let n = 32;
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::adaptive(&mut alloc, n, &RenameConfig::default());
        let r = alloc.total() as u64;
        let report = run_store_against(n, alloc.total(), k, r, |ctx| {
            let mut h = StoreHandle::new();
            match sc.store(ctx, &mut h, ctx.pid().0 as u64 + 1, 7) {
                // The adopted value register is the exclusiveness witness.
                Ok(()) => Ok(h.register().map(|r| r.0 as u64)),
                Err(_) => Ok(None),
            }
        });
        assert!(report.named > 0);
        assert!(
            report.max_steps_named >= report.bound,
            "Theorem 7 violated: {} < {}",
            report.max_steps_named,
            report.bound
        );
    }

    #[test]
    fn engine_adversary_matches_thread_backed_adversary() {
        // The pigeonhole adversary is deterministic: the pooled engine
        // path must force the identical staged execution on
        // Moir-Anderson as the thread-backed one — including on a
        // dirtied, reused engine and pool (trial 2 replays trial 1).
        use exsel_core::StepRename;
        use exsel_shm::StepMachine as _;
        let k = 8;
        let n = 128;
        let mut alloc = RegAlloc::new();
        let algo = MoirAnderson::new(&mut alloc, k);
        let m = algo.name_bound();
        let r = alloc.total() as u64;
        let threaded = run_against(n, alloc.total(), k, m, r, |ctx| {
            Ok(algo.rename(ctx, ctx.pid().0 as u64 + 1)?.name())
        });
        let mut engine = StepEngine::reusable(alloc.total());
        let mut pool: exsel_sim::MachinePool<_> = (0..n)
            .map(|p| {
                algo.begin_rename(Pid(p), p as u64 + 1)
                    .map_output(exsel_core::Outcome::name as fn(exsel_core::Outcome) -> Option<u64>)
            })
            .collect();
        for trial in 0..2 {
            let pooled =
                run_machines_against_pooled(&mut engine, &mut pool, alloc.total(), k, m, r);
            assert_eq!(threaded.stages, pooled.stages, "trial {trial}");
            assert_eq!(threaded.pool_sizes, pooled.pool_sizes, "trial {trial}");
            assert_eq!(
                threaded.max_steps_named, pooled.max_steps_named,
                "trial {trial}"
            );
            assert_eq!(threaded.named, pooled.named, "trial {trial}");
            assert_eq!(threaded.bound, pooled.bound, "trial {trial}");
            assert!(pooled.exclusive);
            assert!(pooled.max_steps_named >= pooled.bound);
        }
    }

    #[test]
    fn pooled_store_adversary_matches_threaded_store_adversary() {
        use exsel_shm::StepMachine as _;
        use exsel_storecollect::{StoreCollect, StoreHandle};
        let k = 4;
        let n = 32;
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::adaptive(&mut alloc, n, &RenameConfig::default());
        let r = alloc.total() as u64;
        let threaded = run_store_against(n, alloc.total(), k, r, |ctx| {
            let mut h = StoreHandle::new();
            match sc.store(ctx, &mut h, ctx.pid().0 as u64 + 1, 7) {
                Ok(()) => Ok(h.register().map(|reg| reg.0 as u64)),
                Err(_) => Ok(None),
            }
        });
        let mut engine = StepEngine::reusable(alloc.total());
        let mut pool: exsel_sim::MachinePool<_> = (0..n)
            .map(|p| {
                sc.begin_first_store(Pid(p), p as u64 + 1, 7).map_output(
                    (|res| res.ok().map(|reg: exsel_shm::RegId| reg.0 as u64))
                        as fn(
                            Result<exsel_shm::RegId, exsel_storecollect::StoreCollectError>,
                        ) -> Option<u64>,
                )
            })
            .collect();
        let pooled = run_store_against_pooled(&mut engine, &mut pool, alloc.total(), k, r);
        assert_eq!(threaded.stages, pooled.stages);
        assert_eq!(threaded.pool_sizes, pooled.pool_sizes);
        assert_eq!(threaded.max_steps_named, pooled.max_steps_named);
        assert_eq!(threaded.named, pooled.named);
        assert_eq!(threaded.bound, pooled.bound);
    }

    #[test]
    fn snapshot_recycling_is_invisible_to_pooled_adversarial_audits() {
        // The pigeonhole adversary forces one deterministic staged
        // execution on snapshot renaming; the snapshot's record/view
        // recycling arena must change neither the report nor the final
        // register bank the post-trial audits read. The bank comparison
        // walks `Word::Snap` registers whose embedded views are length
        // `n` — the `Arc::ptr_eq`-fast-path `PartialEq` keeps that audit
        // O(1) per shared view instead of O(n).
        use exsel_shm::StepMachine as _;
        let n = 24;
        let k = n;
        let run = |recycle: bool| {
            let mut alloc = RegAlloc::new();
            let algo = SnapshotRename::new(&mut alloc, n);
            // The recycling flag lives on the object's shared arena;
            // flipping it on a clone governs the whole object.
            let _ = algo.snapshot().clone().recycling(recycle);
            let m = algo.name_bound();
            let r = alloc.total() as u64;
            let mut engine = StepEngine::reusable(alloc.total());
            let mut pool: exsel_sim::MachinePool<_> = (0..n)
                .map(|p| {
                    algo.begin_rename_slot(p, p as u64 + 1).map_output(
                        exsel_core::Outcome::name as fn(exsel_core::Outcome) -> Option<u64>,
                    )
                })
                .collect();
            let report =
                run_machines_against_pooled(&mut engine, &mut pool, alloc.total(), k, m, r);
            let bank: Vec<exsel_shm::Word> = (0..alloc.total())
                .map(|reg| engine.load_register(exsel_shm::RegId(reg)))
                .collect();
            (report, bank)
        };
        let (on, bank_on) = run(true);
        let (off, bank_off) = run(false);
        assert_eq!(on.stages, off.stages);
        assert_eq!(on.pool_sizes, off.pool_sizes);
        assert_eq!(on.max_steps_named, off.max_steps_named);
        assert_eq!(on.named, off.named);
        assert!(on.exclusive && off.exclusive);
        assert_eq!(
            bank_on, bank_off,
            "post-trial register audits diverged under recycling"
        );
    }

    #[test]
    fn exhaustive_audit_proves_moir_anderson_exclusive_at_small_scale() {
        // Every inequivalent interleaving of 3 contenders on the k = 3
        // splitter grid, not just the pigeonhole schedule: names stay
        // exclusive in all of them, so no counterexample is minimized.
        use exsel_core::StepRename;
        use exsel_shm::StepMachine as _;
        let k = 3;
        let mut alloc = RegAlloc::new();
        let algo = MoirAnderson::new(&mut alloc, k);
        let mut engine = StepEngine::reusable(alloc.total());
        let mut pool: exsel_sim::MachinePool<_> = (0..k)
            .map(|p| {
                algo.begin_rename(Pid(p), p as u64 + 1)
                    .map_output(exsel_core::Outcome::name as fn(exsel_core::Outcome) -> Option<u64>)
            })
            .collect();
        let report =
            exhaust_exclusiveness_pooled(&mut engine, &mut pool, alloc.total(), 10_000_000);
        assert!(report.complete, "walk truncated");
        assert!(report.executions > 0);
        assert!(
            report.minimized.is_none(),
            "exclusiveness violated on some interleaving"
        );
        // The pooled surface is reusable: a second audit replays the
        // identical reduced walk.
        let again = exhaust_exclusiveness_pooled(&mut engine, &mut pool, alloc.total(), 10_000_000);
        assert_eq!(report.executions, again.executions);
        assert_eq!(report.execs_pruned, again.execs_pruned);
    }

    #[test]
    fn small_instance_trivial_bound() {
        // N ≤ 2M: the bound degenerates to 1 step, and the run is benign.
        let k = 4;
        let mut alloc = RegAlloc::new();
        let cfg = RenameConfig::default();
        let algo = exsel_core::BasicRename::new(&mut alloc, 8, k, &cfg);
        let m = algo.name_bound();
        let r = alloc.total() as u64;
        let report = run_against(8, alloc.total(), k, m, r, |ctx| {
            Ok(algo.rename(ctx, ctx.pid().0 as u64 + 1)?.name())
        });
        assert_eq!(report.bound, 1);
        assert!(report.max_steps_named >= 1);
    }
}
