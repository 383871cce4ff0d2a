//! Shared execution helpers: run a renaming algorithm under the
//! deterministic simulator or on real threads, collecting names and step
//! counts — plus the **one generic trial loop** ([`sweep_pool`]) that
//! tables T1–T6 and every grid scenario share: build the algorithm once,
//! pool its machines, re-drive the pool per seed on a reusable
//! [`StepEngine`], audit every trial's claims and fold worst-case
//! statistics.

use std::collections::BTreeSet;
use std::ops::Range;

use exsel_core::Rename;
use exsel_shm::{Ctx, Pid, RegAlloc, RegisterBank, ThreadedShm};
use exsel_sim::{
    policy::RandomPolicy, AlgoSet, MachinePool, MachineSet, Metrics, Policy, SetOutput, SimBuilder,
    StepEngine,
};

/// The outcome of one renaming execution.
#[derive(Clone, Debug)]
pub struct RenamingRun {
    /// Acquired names per contender (None = instance reported `Failed` or
    /// the process crashed).
    pub names: Vec<Option<u64>>,
    /// Local steps per contender.
    pub steps: Vec<u64>,
    /// Contenders crashed by the adversary.
    pub crashed: usize,
    /// Contenders crashed by op-budget exhaustion (kept distinct from
    /// adversary crashes).
    pub budget_crashed: usize,
}

impl RenamingRun {
    /// Maximum local steps over contenders — the worst-case step
    /// complexity of the execution.
    #[must_use]
    pub fn max_steps(&self) -> u64 {
        self.steps.iter().copied().max().unwrap_or(0)
    }

    /// Mean local steps.
    #[must_use]
    pub fn mean_steps(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().sum::<u64>() as f64 / self.steps.len() as f64
    }

    /// Largest name handed out.
    #[must_use]
    pub fn max_name(&self) -> u64 {
        self.names.iter().flatten().copied().max().unwrap_or(0)
    }

    /// How many contenders were named.
    #[must_use]
    pub fn named(&self) -> usize {
        self.names.iter().flatten().count()
    }

    /// Exclusiveness check: no two contenders share a name.
    ///
    /// # Panics
    ///
    /// Panics on violation — a bug in the algorithm under test.
    pub fn assert_exclusive(&self) {
        let names: Vec<u64> = self.names.iter().flatten().copied().collect();
        let set: BTreeSet<u64> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len(), "duplicate names: {names:?}");
    }
}

/// Runs `originals.len()` contenders through `algo` on the deterministic
/// simulator under a seeded random schedule; step counts are exactly
/// reproducible.
pub fn run_sim<R>(algo: &R, num_registers: usize, originals: &[u64], seed: u64) -> RenamingRun
where
    R: Rename + ?Sized,
{
    let outcome = SimBuilder::new(num_registers, Box::new(RandomPolicy::new(seed)))
        .stack_size(256 * 1024)
        .run(originals.len(), |ctx| {
            algo.rename(ctx, originals[ctx.pid().0]).map(|o| o.name())
        });
    let run = RenamingRun {
        crashed: outcome.crashed.len(),
        budget_crashed: 0,
        names: outcome
            .results
            .into_iter()
            .map(|r| r.ok().flatten())
            .collect(),
        steps: outcome.steps,
    };
    run.assert_exclusive();
    run
}

/// Digests the last trial of `pool`, renaming machines from
/// [`AlgoSet::pool`], on `engine` into a [`RenamingRun`] and checks
/// exclusiveness. The same seed on [`run_sim`] produces the same
/// execution (the blocking renaming APIs are `drive` adapters over the
/// same step machines).
pub fn pooled_run<Bank: RegisterBank>(
    engine: &StepEngine<Bank>,
    pool: &MachinePool<MachineSet<'_>>,
) -> RenamingRun {
    let run = RenamingRun {
        names: pool
            .results()
            .iter()
            .map(|r| {
                r.as_ref()
                    .and_then(|r| r.as_ref().ok())
                    .and_then(SetOutput::claim)
            })
            .collect(),
        steps: pool.steps().to_vec(),
        crashed: engine.adversary_crashed().count(),
        budget_crashed: engine.budget_crashed().count(),
    };
    run.assert_exclusive();
    run
}

/// [`run_sim`] on the engine: one trial of `algo`'s renaming machines
/// under the same seeded random schedule, on a fresh engine and pool
/// (built per trial, as `run_sim` spawns its threads per trial) and
/// digested by [`pooled_run`].
pub fn fresh_pooled_run(
    algo: &AlgoSet,
    num_registers: usize,
    originals: &[u64],
    seed: u64,
) -> RenamingRun {
    let mut engine = StepEngine::reusable(num_registers);
    let mut pool = algo.pool(originals);
    engine.run_pool(&mut RandomPolicy::new(seed), &mut pool);
    pooled_run(&engine, &pool)
}

/// Runs contenders on real OS threads over [`ThreadedShm`]. Step counts
/// are schedule-dependent but indicative; use for larger instances than
/// the simulator can handle comfortably.
pub fn run_threaded<R>(algo: &R, num_registers: usize, originals: &[u64]) -> RenamingRun
where
    R: Rename + ?Sized,
{
    let mem = ThreadedShm::new(num_registers, originals.len());
    let names: Vec<Option<u64>> = std::thread::scope(|s| {
        originals
            .iter()
            .enumerate()
            .map(|(p, &orig)| {
                let mem = &mem;
                s.spawn(move || algo.rename(Ctx::new(mem, Pid(p)), orig).unwrap().name())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let steps: Vec<u64> = (0..originals.len())
        .map(|p| exsel_shm::Memory::steps(&mem, Pid(p)))
        .collect();
    let run = RenamingRun {
        names,
        steps,
        crashed: 0,
        budget_crashed: 0,
    };
    run.assert_exclusive();
    run
}

/// Worst-case statistics folded over a seed sweep by [`sweep_pool`].
#[derive(Clone, Debug)]
pub struct TrialStats {
    /// Registers the algorithm instance reserved.
    pub registers: usize,
    /// Largest name handed out in any trial.
    pub max_name: u64,
    /// Fewest contenders named in any trial.
    pub min_named: usize,
    /// Worst per-trial count of contenders that neither crashed nor got
    /// a name — 0 for every algorithm that names all survivors.
    pub max_unnamed_survivors: usize,
    /// Engine metrics merged over trials (op mix, per-register
    /// histogram, contention, crash causes, worst steps).
    pub metrics: Metrics,
}

impl TrialStats {
    /// Trials run.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.metrics.trials
    }

    /// Worst max-steps over trials.
    #[must_use]
    pub fn max_steps(&self) -> u64 {
        self.metrics.max_steps
    }

    /// Adversary crashes, totalled over trials.
    #[must_use]
    pub fn crashed(&self) -> usize {
        self.metrics.adversary_crashes
    }

    /// Budget-exhaustion crashes, totalled over trials.
    #[must_use]
    pub fn budget_crashed(&self) -> usize {
        self.metrics.budget_crashes
    }
}

/// The one generic trial loop behind tables T1–T6 and every grid
/// scenario. The algorithm instance is built **once** per call, a
/// [`MachinePool`] of [`MachineSet`] machines is built once from it, and
/// every seed's trial re-drives that pool via [`StepEngine::run_pool`]
/// under `policy(seed)` — no per-trial machine boxes, no per-trial
/// result vectors. Each trial is trace-identical to a fresh pool on a
/// fresh engine, because the engine resets all shared state and the
/// pool resets every machine between trials (tested in
/// `tests/pooled_determinism.rs`).
///
/// Works for every algorithm family ([`AlgoSet`]), not just renamers:
/// per-trial safety asserts that completed processes' *claims* (names /
/// value registers / claimed integers) are pairwise distinct. Generic
/// over the engine's register-bank backend, so the same sweep runs on
/// the default slab bank and on the `ArcBank` oracle.
///
/// # Panics
///
/// Panics if two processes ever hold the same claim.
pub fn sweep_pool<Bank, B, P>(
    engine: &mut StepEngine<Bank>,
    seeds: Range<u64>,
    originals: &[u64],
    build: B,
    policy: P,
) -> TrialStats
where
    Bank: RegisterBank,
    B: FnOnce(&mut RegAlloc) -> AlgoSet,
    P: Fn(u64) -> Box<dyn Policy>,
{
    sweep_pool_sharded(engine, seeds, originals, build, policy, 1)
}

/// [`sweep_pool`] over the sharded grant loop
/// ([`StepEngine::run_pool_sharded`]): the pending set is split into
/// `shards` contiguous pid ranges and the policy decides in cache-local
/// batches per shard. `shards == 1` is exactly [`sweep_pool`] (the
/// engine delegates to the unsharded loop); `shards > 1` is its own
/// deterministic adversary — same safety guarantees, different traces.
///
/// # Panics
///
/// Panics if two processes ever hold the same claim, or if
/// `shards == 0`.
pub fn sweep_pool_sharded<Bank, B, P>(
    engine: &mut StepEngine<Bank>,
    seeds: Range<u64>,
    originals: &[u64],
    build: B,
    policy: P,
    shards: usize,
) -> TrialStats
where
    Bank: RegisterBank,
    B: FnOnce(&mut RegAlloc) -> AlgoSet,
    P: Fn(u64) -> Box<dyn Policy>,
{
    let mut alloc = RegAlloc::new();
    let algo = build(&mut alloc);
    engine.set_registers(alloc.total());
    let mut pool: MachinePool<MachineSet<'_>> = algo.pool(originals);
    // Naming machines claim several integers per trial, so the fewest-
    // claims fold must not be capped at the contender count.
    let mut stats = TrialStats {
        registers: alloc.total(),
        max_name: 0,
        min_named: usize::MAX,
        max_unnamed_survivors: 0,
        metrics: Metrics::default(),
    };
    // Snapshot-arena telemetry is cumulative per object: window the
    // sweep so the folded metrics report only this sweep's allocation
    // and recycling traffic.
    let arena_before = algo.snapshot_arena().map(|a| a.stats());
    let mut claims: Vec<u64> = Vec::with_capacity(originals.len());
    for seed in seeds {
        let mut policy = policy(seed);
        engine.run_pool_sharded(policy.as_mut(), &mut pool, shards);
        // Audit every exclusive claim of the trial. Naming and deposit
        // machines may commit several claims per trial (and claims
        // committed before a crash are permanent), so read the machines'
        // full claim lists — not just each completed process's final
        // output. `claimants` counts *processes* holding at least one
        // claim, which is what the unnamed-survivors gate compares
        // against (total claims can exceed the process count); serve-only
        // deposit machines legitimately claim nothing and are counted as
        // claimants so the gate does not flag them.
        claims.clear();
        let mut claimants = 0usize;
        for (machine, result) in pool.machines().iter().zip(pool.results()) {
            let had = claims.len();
            match machine {
                MachineSet::Naming(m) => claims.extend_from_slice(m.names()),
                MachineSet::Deposit(m) => {
                    claims.extend_from_slice(m.deposits());
                    claimants += usize::from(m.is_server());
                }
                _ => {
                    if let Some(Ok(out)) = result {
                        claims.extend(out.claim());
                    }
                }
            }
            claimants += usize::from(claims.len() > had);
        }
        claims.sort_unstable();
        assert!(
            claims.windows(2).all(|w| w[0] != w[1]),
            "duplicate claims: {claims:?}"
        );
        let trial = engine.metrics();
        stats.max_name = stats.max_name.max(claims.last().copied().unwrap_or(0));
        stats.min_named = stats.min_named.min(claims.len());
        stats.max_unnamed_survivors = stats.max_unnamed_survivors.max(
            originals
                .len()
                .saturating_sub(trial.adversary_crashes + trial.budget_crashes + claimants),
        );
        stats.metrics.merge(trial);
    }
    if stats.metrics.trials == 0 {
        stats.min_named = 0;
    }
    if let (Some(arena), Some(before)) = (algo.snapshot_arena(), arena_before) {
        stats.metrics.record_snapshot(&arena.stats().since(&before));
    }
    stats
}

/// [`sweep_pool`] under the plain seeded-random schedule — the default
/// adversary of the experiment tables.
pub fn sweep_random<B>(
    engine: &mut StepEngine,
    seeds: Range<u64>,
    originals: &[u64],
    build: B,
) -> TrialStats
where
    B: FnOnce(&mut RegAlloc) -> AlgoSet,
{
    sweep_pool(engine, seeds, originals, build, |seed| {
        Box::new(RandomPolicy::new(seed))
    })
}

/// Evenly spread distinct original names in `[1, n_names]`.
#[must_use]
pub fn spread_originals(k: usize, n_names: usize) -> Vec<u64> {
    assert!(k <= n_names, "more contenders than names");
    (0..k).map(|i| (i * n_names / k) as u64 + 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_core::{MoirAnderson, RenameConfig};
    use exsel_sim::policy::CrashStorm;

    #[test]
    fn sim_run_is_reproducible() {
        let mut alloc = RegAlloc::new();
        let algo = MoirAnderson::new(&mut alloc, 4);
        let originals = spread_originals(4, 64);
        let a = run_sim(&algo, alloc.total(), &originals, 11);
        // Fresh memory per run: rebuild.
        let mut alloc2 = RegAlloc::new();
        let algo2 = MoirAnderson::new(&mut alloc2, 4);
        let b = run_sim(&algo2, alloc2.total(), &originals, 11);
        assert_eq!(a.names, b.names);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn engine_run_matches_thread_backed_run() {
        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::MoirAnderson(MoirAnderson::new(&mut alloc, 5));
        let AlgoSet::MoirAnderson(renamer) = &algo else {
            unreachable!()
        };
        let originals = spread_originals(5, 100);
        for seed in [0u64, 7, 23] {
            let threaded = run_sim(renamer, alloc.total(), &originals, seed);
            let pooled = fresh_pooled_run(&algo, alloc.total(), &originals, seed);
            assert_eq!(threaded.names, pooled.names, "seed {seed}");
            assert_eq!(threaded.steps, pooled.steps, "seed {seed}");
        }
    }

    #[test]
    fn sweep_folds_worst_cases_and_reuses_the_engine() {
        let originals = spread_originals(4, 64);
        let mut engine = StepEngine::reusable(0).measure_contention(true);
        let stats = sweep_random(&mut engine, 0..5, &originals, |alloc| {
            AlgoSet::MoirAnderson(MoirAnderson::new(alloc, 4))
        });
        assert_eq!(stats.trials(), 5);
        assert_eq!(stats.min_named, 4);
        assert!(stats.max_steps() > 0);
        assert_eq!(stats.crashed(), 0);
        assert_eq!(stats.max_unnamed_survivors, 0);

        // The folded statistics, metrics included, match a hand-rolled
        // loop of pooled trials on one reused engine.
        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::MoirAnderson(MoirAnderson::new(&mut alloc, 4));
        let mut engine = StepEngine::reusable(alloc.total()).measure_contention(true);
        let mut pool = algo.pool(&originals);
        let mut metrics = Metrics::default();
        let (mut max_name, mut min_named) = (0, originals.len());
        for seed in 0..5 {
            engine.run_pool(&mut RandomPolicy::new(seed), &mut pool);
            let run = pooled_run(&engine, &pool);
            max_name = max_name.max(run.max_name());
            min_named = min_named.min(run.named());
            metrics.merge(engine.metrics());
        }
        assert_eq!(stats.metrics, metrics);
        assert_eq!(stats.max_name, max_name);
        assert_eq!(stats.min_named, min_named);
        assert_eq!(stats.registers, alloc.total());
    }

    #[test]
    fn sharded_sweep_is_safe_and_one_shard_matches_unsharded() {
        let originals = spread_originals(8, 64);
        let build = |alloc: &mut RegAlloc| AlgoSet::MoirAnderson(MoirAnderson::new(alloc, 8));
        let policy = |seed: u64| -> Box<dyn Policy> { Box::new(RandomPolicy::new(seed)) };
        let mut engine = StepEngine::reusable(0);
        let unsharded = sweep_pool(&mut engine, 0..4, &originals, build, policy);
        // One shard delegates to the unsharded grant loop: identical
        // trials, identical folded metrics.
        let mut engine = StepEngine::reusable(0);
        let one = sweep_pool_sharded(&mut engine, 0..4, &originals, build, policy, 1);
        assert_eq!(unsharded.metrics, one.metrics);
        assert_eq!(unsharded.max_name, one.max_name);
        // Four shards is a different (still deterministic) adversary:
        // safety holds and every granted op lands in some shard.
        let mut engine = StepEngine::reusable(0);
        let four = sweep_pool_sharded(&mut engine, 0..4, &originals, build, policy, 4);
        assert_eq!(four.max_unnamed_survivors, 0);
        assert_eq!(four.min_named, 8);
        assert_eq!(four.metrics.shard_ops.len(), 4);
        assert_eq!(
            four.metrics.shard_ops.iter().sum::<u64>(),
            four.metrics.total_ops
        );
    }

    #[test]
    fn sweep_reports_adversary_crashes() {
        let originals = spread_originals(6, 64);
        let mut engine = StepEngine::reusable(0);
        let stats = sweep_pool(
            &mut engine,
            0..4,
            &originals,
            |alloc| AlgoSet::MoirAnderson(MoirAnderson::new(alloc, 6)),
            |seed| {
                Box::new(CrashStorm::new(
                    Box::new(RandomPolicy::new(seed)),
                    !seed,
                    0.2,
                    2,
                ))
            },
        );
        assert!(stats.crashed() > 0, "storm never crashed anyone");
        assert_eq!(stats.budget_crashed(), 0);
        assert!(stats.min_named < originals.len());
    }

    #[test]
    fn threaded_run_names_everyone() {
        let mut alloc = RegAlloc::new();
        let algo = MoirAnderson::new(&mut alloc, 6);
        let run = run_threaded(&algo, alloc.total(), &spread_originals(6, 100));
        assert_eq!(run.named(), 6);
        assert!(run.max_steps() <= 4 * 6);
        assert!(run.mean_steps() > 0.0);
    }

    #[test]
    fn spread_originals_distinct_in_range() {
        let o = spread_originals(8, 64);
        let set: BTreeSet<u64> = o.iter().copied().collect();
        assert_eq!(set.len(), 8);
        assert!(o.iter().all(|&v| (1..=64).contains(&v)));
    }

    #[test]
    fn cfg_smoke() {
        // Keep the shared config constructible from this crate.
        let _ = RenameConfig::default();
    }
}
