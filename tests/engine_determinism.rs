//! Determinism regression across execution backends: identical policy +
//! seed must produce identical traces, step counts and results on the
//! thread-backed runner (`SimBuilder`) and the single-threaded
//! `StepEngine` — including renamers that write snapshot records, which
//! the engine's default slab bank parks in slab slots. This is the
//! contract that makes the engine a drop-in replacement — schedules
//! recorded on one backend replay on the other, and seeds found by fast
//! engine sweeps reproduce under threads.

use exclusive_selection::renaming::RenameMachine;
use exclusive_selection::sim::policy::{CrashStorm, Policy, RandomPolicy, RoundRobin};
use exclusive_selection::sim::{MachinePool, SimBuilder, SimOutcome, StepEngine};
use exclusive_selection::{
    AdaptiveRename, BasicRename, Majority, Outcome, Pid, RegAlloc, Rename, RenameConfig,
    SnapshotRename, StepRename,
};

/// A pool of `algo`'s renaming machines: contender `p` holds
/// `originals[p]`.
fn rename_pool<'a, R: StepRename>(
    algo: &'a R,
    originals: &[u64],
) -> MachinePool<RenameMachine<'a>> {
    originals
        .iter()
        .enumerate()
        .map(|(p, &orig)| algo.begin_rename(Pid(p), orig))
        .collect()
}

/// The last trial of `pool` on `engine`, in the thread-backed runner's
/// terms.
fn outcome(engine: &StepEngine, pool: &MachinePool<RenameMachine<'_>>) -> SimOutcome<Option<u64>> {
    SimOutcome {
        results: pool
            .results()
            .iter()
            .map(|r| r.expect("result recorded").map(Outcome::name))
            .collect(),
        steps: pool.steps().to_vec(),
        crashed: engine.adversary_crashed().collect(),
        budget_crashed: engine.budget_crashed().collect(),
        total_ops: engine.metrics().total_ops,
        trace: engine.trace().map(<[_]>::to_vec),
    }
}

/// Runs `k` contenders of `algo` on both backends under policies built by
/// `policy()` and returns the two outcomes (traces recorded) and the
/// engine's peak count of snapshot records in slab slots.
fn both_backends<R: Rename + StepRename + Sync>(
    algo: &R,
    num_registers: usize,
    originals: &[u64],
    policy: impl Fn() -> Box<dyn Policy>,
) -> (SimOutcome<Option<u64>>, SimOutcome<Option<u64>>, usize) {
    let threaded = SimBuilder::new(num_registers, policy())
        .record_trace(true)
        .run(originals.len(), |ctx| {
            algo.rename(ctx, originals[ctx.pid().0]).map(Outcome::name)
        });
    let mut engine = StepEngine::reusable(num_registers).record_trace(true);
    let mut pool = rename_pool(algo, originals);
    engine.run_pool(policy().as_mut(), &mut pool);
    (
        threaded,
        outcome(&engine, &pool),
        engine.bank().peak_slots(),
    )
}

fn assert_identical(
    threaded: &SimOutcome<Option<u64>>,
    engine: &SimOutcome<Option<u64>>,
    label: &str,
) {
    assert_eq!(threaded.trace, engine.trace, "{label}: traces diverged");
    assert_eq!(
        threaded.steps, engine.steps,
        "{label}: step counts diverged"
    );
    assert_eq!(
        threaded.total_ops, engine.total_ops,
        "{label}: op totals diverged"
    );
    assert_eq!(
        threaded.crashed, engine.crashed,
        "{label}: crash sets diverged"
    );
    let names = |o: &SimOutcome<Option<u64>>| -> Vec<Option<u64>> {
        o.results.iter().map(|r| r.ok().flatten()).collect()
    };
    assert_eq!(names(threaded), names(engine), "{label}: names diverged");
}

#[test]
fn round_robin_identical_on_both_backends() {
    let cfg = RenameConfig::default();
    let mut alloc = RegAlloc::new();
    let algo = Majority::new(&mut alloc, 128, 4, &cfg);
    let originals = [1u64, 40, 77, 128];
    let (threaded, engine, _) = both_backends(&algo, alloc.total(), &originals, || {
        Box::new(RoundRobin::new())
    });
    assert_identical(&threaded, &engine, "round_robin");
}

#[test]
fn random_seeds_identical_on_both_backends() {
    let cfg = RenameConfig::default();
    let mut alloc = RegAlloc::new();
    let algo = BasicRename::new(&mut alloc, 256, 6, &cfg);
    let originals: Vec<u64> = (0..6u64).map(|i| i * 41 + 3).collect();
    for seed in 0..8 {
        let (threaded, engine, _) = both_backends(&algo, alloc.total(), &originals, || {
            Box::new(RandomPolicy::new(seed))
        });
        assert_identical(&threaded, &engine, &format!("random seed {seed}"));
    }
}

/// Five contenders of `algo` under six crash-storm seeds on both
/// backends; `parks` says whether the renamer writes snapshot records,
/// which the engine must then have parked in slab slots.
fn storms_identical<R: Rename + StepRename + Sync>(
    label: &str,
    algo: &R,
    num_registers: usize,
    parks: bool,
) {
    let originals: Vec<u64> = (0..5u64).map(|i| i * 23 + 7).collect();
    for seed in 0..6 {
        let (threaded, engine, slab_peak) = both_backends(algo, num_registers, &originals, || {
            Box::new(CrashStorm::new(
                Box::new(RandomPolicy::new(seed)),
                !seed,
                0.05,
                3,
            ))
        });
        assert!(
            !threaded.crashed.is_empty() || threaded.trace == engine.trace,
            "{label} seed {seed} produced no interesting run"
        );
        assert_identical(&threaded, &engine, &format!("{label} storm seed {seed}"));
        assert_eq!(
            slab_peak > 0,
            parks,
            "{label} seed {seed}: slab peak {slab_peak}"
        );
    }
}

#[test]
fn crash_storms_identical_on_both_backends() {
    // Basic-Rename writes no snapshot record. Snapshot renaming does, and
    // so does Adaptive-Rename, whose phases end in the snapshot stage.
    let cfg = RenameConfig::default();
    let mut alloc = RegAlloc::new();
    let basic = BasicRename::new(&mut alloc, 128, 5, &cfg);
    storms_identical("basic", &basic, alloc.total(), false);
    let mut alloc = RegAlloc::new();
    let snapshot = SnapshotRename::new(&mut alloc, 5);
    storms_identical("snapshot", &snapshot, alloc.total(), true);
    let mut alloc = RegAlloc::new();
    let adaptive = AdaptiveRename::new(&mut alloc, 5, &cfg);
    storms_identical("adaptive", &adaptive, alloc.total(), true);
}

#[test]
fn reused_engine_is_trace_identical_to_fresh_engine() {
    // The engine-reuse contract: the same policy + seed yields the
    // identical trace whether the engine and pool are fresh or reused —
    // even with different register counts and unrelated algorithms run
    // in between.
    let cfg = RenameConfig::default();
    let mut alloc = RegAlloc::new();
    let algo = BasicRename::new(&mut alloc, 256, 6, &cfg);
    let originals: Vec<u64> = (0..6u64).map(|i| i * 41 + 3).collect();

    let mut reused = StepEngine::reusable(alloc.total()).record_trace(true);
    // Dirty the engine's scratch with unrelated trials first: another
    // algorithm, another register count, other seeds.
    {
        let mut other_alloc = RegAlloc::new();
        let other = Majority::new(&mut other_alloc, 128, 4, &cfg);
        reused.set_registers(other_alloc.total());
        let mut warm = rename_pool(&other, &[1, 2, 3, 4]);
        for seed in 0..3 {
            reused.run_pool(&mut RandomPolicy::new(seed), &mut warm);
        }
    }
    reused.set_registers(alloc.total());

    let mut pool = rename_pool(&algo, &originals);
    for seed in [0u64, 7, 1234] {
        let mut fresh = StepEngine::reusable(alloc.total()).record_trace(true);
        let mut fresh_pool = rename_pool(&algo, &originals);
        fresh.run_pool(&mut RandomPolicy::new(seed), &mut fresh_pool);
        reused.run_pool(&mut RandomPolicy::new(seed), &mut pool);
        assert_identical(
            &outcome(&fresh, &fresh_pool),
            &outcome(&reused, &pool),
            &format!("seed {seed}: fresh vs reused engine"),
        );
    }
}

#[test]
fn engine_seed_sweep_replays_on_threads() {
    // The intended workflow: sweep many seeds cheaply on the engine, then
    // reproduce a chosen one on the thread-backed runner. Pick the seed
    // with the worst step complexity and confirm the replay agrees.
    let cfg = RenameConfig::default();
    let mut alloc = RegAlloc::new();
    let algo = Majority::new(&mut alloc, 256, 6, &cfg);
    let originals: Vec<u64> = (0..6u64).map(|i| i * 31 + 1).collect();

    let mut engine = StepEngine::reusable(alloc.total());
    let mut pool = rename_pool(&algo, &originals);
    let mut worst = (0u64, 0u64); // (seed, max_steps)
    for seed in 0..50 {
        engine.run_pool(&mut RandomPolicy::new(seed), &mut pool);
        let max = engine.metrics().max_steps;
        if max > worst.1 {
            worst = (seed, max);
        }
    }
    let (threaded, engine, _) = both_backends(&algo, alloc.total(), &originals, || {
        Box::new(RandomPolicy::new(worst.0))
    });
    assert_identical(&threaded, &engine, "worst-seed replay");
    assert_eq!(threaded.max_steps(), worst.1);
}
