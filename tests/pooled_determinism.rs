//! The machine-pool contract: pooled `MachineSet` trials on a reused
//! engine (machines built once, `reset` in place, enum dispatch,
//! incremental pending set) are **trace-identical** to a fresh pool on a
//! fresh engine, for every algorithm family × adversary policy × seed —
//! including the wait-free deposit family's two interleaved activities,
//! with and without serve-only helpers — per-trial [`Metrics`] under
//! engine+pool reuse match fresh runs bit for bit, and the default slab
//! register bank is bit-identical to the `ArcBank` oracle.

use exclusive_selection::sim::policy::{
    Bursty, CrashAfter, CrashStorm, Policy, RandomPolicy, RoundRobin,
};
use exclusive_selection::sim::{AlgoSet, MachinePool, MachineSet, Metrics, StepEngine};
use exclusive_selection::{
    AdaptiveRename, AlmostAdaptive, BasicRename, EfficientRename, Majority, MoirAnderson, Pid,
    PolyLogRename, RegAlloc, RegId, RenameConfig, SnapshotRename, StoreCollect,
};
use exsel_shm::ArcBank;
use exsel_unbounded::{AltruisticDeposit, UnboundedNaming};
use proptest::prelude::*;

/// Every algorithm family as an [`AlgoSet`], with its register count and
/// contender inputs.
fn families(cfg: &RenameConfig) -> Vec<(&'static str, usize, Vec<u64>, AlgoSet)> {
    let k = 4usize;
    let n_names = 64usize;
    let originals: Vec<u64> = (0..k as u64).map(|i| i * 13 + 2).collect();
    let mut out = Vec::new();
    let mut with = |label: &'static str, build: &dyn Fn(&mut RegAlloc) -> AlgoSet| {
        let mut alloc = RegAlloc::new();
        let algo = build(&mut alloc);
        out.push((label, alloc.total(), originals.clone(), algo));
    };
    with("moir-anderson", &|a| {
        AlgoSet::MoirAnderson(MoirAnderson::new(a, k))
    });
    with("majority", &|a| {
        AlgoSet::Majority(Majority::new(a, n_names, k, cfg))
    });
    with("snapshot", &|a| {
        AlgoSet::SnapshotRename(SnapshotRename::new(a, k))
    });
    with("basic", &|a| {
        AlgoSet::Rename(Box::new(BasicRename::new(a, n_names, k, cfg)))
    });
    with("polylog", &|a| {
        AlgoSet::Rename(Box::new(PolyLogRename::new(a, n_names, k, cfg)))
    });
    with("almost-adaptive", &|a| {
        AlgoSet::Rename(Box::new(AlmostAdaptive::new(a, n_names, 4 * k, cfg)))
    });
    with("adaptive", &|a| {
        AlgoSet::Rename(Box::new(AdaptiveRename::new(a, 4 * k, cfg)))
    });
    with("efficient", &|a| {
        AlgoSet::Rename(Box::new(EfficientRename::new(a, k, cfg)))
    });
    with("store-known", &|a| {
        AlgoSet::StoreCollect(StoreCollect::known(a, k, n_names, cfg))
    });
    with("store-adaptive", &|a| {
        AlgoSet::StoreCollect(StoreCollect::adaptive(a, k, cfg))
    });
    with("naming", &|a| AlgoSet::Naming {
        naming: UnboundedNaming::new(a, k),
        rounds: 2,
    });
    with("deposit", &|a| AlgoSet::Deposit {
        repo: AltruisticDeposit::new(a, 4, 512),
        rounds: 2,
        servers: 0,
    });
    with("deposit-serve", &|a| AlgoSet::Deposit {
        repo: AltruisticDeposit::new(a, 4, 512),
        rounds: 2,
        servers: 1,
    });
    out
}

/// The adversary policies of the suite, rebuilt per (policy, seed).
fn policies(seed: u64, k: usize) -> Vec<(&'static str, Box<dyn Policy>)> {
    let budget = k - 1;
    vec![
        ("round-robin", Box::new(RoundRobin::new())),
        ("random", Box::new(RandomPolicy::new(seed))),
        (
            "crash-storm",
            Box::new(CrashStorm::new(
                Box::new(RandomPolicy::new(seed)),
                !seed,
                0.03,
                budget,
            )),
        ),
        (
            "crash-after",
            Box::new(CrashAfter::new(
                Box::new(RandomPolicy::new(seed)),
                25,
                budget,
            )),
        ),
        ("bursty", Box::new(Bursty::new(seed, 5))),
    ]
}

#[test]
fn pooled_trials_are_trace_identical_to_fresh_pools() {
    let cfg = RenameConfig::default();
    let engine = |regs: usize| {
        StepEngine::reusable(regs)
            .record_trace(true)
            .panic_on_budget(false)
    };
    for (label, regs, originals, algo) in families(&cfg) {
        let k = originals.len();
        let mut pooled_engine = engine(regs);
        let mut pool: MachinePool<MachineSet<'_>> = algo.pool(&originals);
        for seed in 0..3u64 {
            for (policy_label, mut policy) in policies(seed, k) {
                let tag = format!("{label} × {policy_label} × seed {seed}");
                let mut fresh_engine = engine(regs);
                let mut fresh = algo.pool(&originals);
                fresh_engine.run_pool(policy.as_mut(), &mut fresh);

                let (_, mut policy) = policies(seed, k)
                    .into_iter()
                    .find(|(l, _)| *l == policy_label)
                    .unwrap();
                pooled_engine.run_pool(policy.as_mut(), &mut pool);

                assert_eq!(
                    fresh_engine.trace(),
                    pooled_engine.trace(),
                    "{tag}: traces diverged"
                );
                assert_eq!(fresh.steps(), pool.steps(), "{tag}: steps diverged");
                assert_eq!(fresh.results(), pool.results(), "{tag}: results diverged");
                assert_eq!(
                    fresh_engine.adversary_crashed().collect::<Vec<_>>(),
                    pooled_engine.adversary_crashed().collect::<Vec<_>>(),
                    "{tag}: crash sets diverged"
                );
                assert_eq!(
                    fresh_engine.budget_crashed().collect::<Vec<_>>(),
                    pooled_engine.budget_crashed().collect::<Vec<_>>(),
                    "{tag}: budget-crash sets diverged"
                );
            }
        }
    }
}

#[test]
fn metrics_under_engine_and_pool_reuse_match_fresh_runs_bit_for_bit() {
    // `ops_per_register`, `max_contention` and the crash-cause counters
    // of a reused engine + pool must equal a fresh engine + fresh pool on
    // every trial.
    let cfg = RenameConfig::default();
    let mut alloc = RegAlloc::new();
    let algo = AlgoSet::Majority(Majority::new(&mut alloc, 128, 6, &cfg));
    let originals: Vec<u64> = (0..6u64).map(|i| i * 19 + 1).collect();
    let regs = alloc.total();

    let mut reused = StepEngine::reusable(regs)
        .measure_contention(true)
        .panic_on_budget(false);
    let mut pool = algo.pool(&originals);

    for seed in 0..8u64 {
        let mut policy = CrashStorm::new(Box::new(RandomPolicy::new(seed)), !seed, 0.04, 3);
        reused.run_pool(&mut policy, &mut pool);
        let reused_metrics: Metrics = reused.metrics().clone();

        let mut fresh = StepEngine::reusable(regs)
            .measure_contention(true)
            .panic_on_budget(false);
        let mut policy = CrashStorm::new(Box::new(RandomPolicy::new(seed)), !seed, 0.04, 3);
        fresh.run_pool(&mut policy, &mut algo.pool(&originals));

        assert_eq!(
            &reused_metrics,
            fresh.metrics(),
            "seed {seed}: metrics diverged under reuse"
        );
        assert_eq!(
            reused_metrics.ops_per_register.len(),
            regs,
            "seed {seed}: histogram width"
        );
    }
}

#[test]
fn slab_bank_is_bit_identical_to_arc_bank_for_every_family_and_policy() {
    // The slab register bank (inline small payloads + generation-tagged
    // slab handles for snapshot records) must be observationally
    // indistinguishable from the Arc-per-`Word` oracle: same traces,
    // same results and steps, same crash sets, and the same final
    // register bank word for word — for all 13 pooled families under
    // all 5 adversary policies.
    let cfg = RenameConfig::default();
    for (label, regs, originals, algo) in families(&cfg) {
        let k = originals.len();
        let mut arc_engine = StepEngine::reusable_with(regs, ArcBank::new())
            .record_trace(true)
            .panic_on_budget(false);
        let mut slab_engine = StepEngine::reusable(regs)
            .record_trace(true)
            .panic_on_budget(false);
        let mut pool: MachinePool<MachineSet<'_>> = algo.pool(&originals);
        for seed in 0..2u64 {
            for (policy_label, mut policy) in policies(seed, k) {
                let tag = format!("{label} × {policy_label} × seed {seed}");
                arc_engine.run_pool(policy.as_mut(), &mut pool);
                let arc_trace = arc_engine.trace().expect("trace recorded").to_vec();
                let arc_steps = pool.steps().to_vec();
                let arc_results = pool.results().to_vec();
                let arc_crashed: Vec<Pid> = arc_engine.adversary_crashed().collect();
                let arc_budget: Vec<Pid> = arc_engine.budget_crashed().collect();
                let arc_bank: Vec<_> = (0..regs)
                    .map(|r| arc_engine.load_register(RegId(r)))
                    .collect();

                let (_, mut policy) = policies(seed, k)
                    .into_iter()
                    .find(|(l, _)| *l == policy_label)
                    .unwrap();
                slab_engine.run_pool(policy.as_mut(), &mut pool);

                assert_eq!(
                    arc_trace.as_slice(),
                    slab_engine.trace().expect("trace recorded"),
                    "{tag}: traces diverged"
                );
                assert_eq!(arc_steps, pool.steps(), "{tag}: steps diverged");
                assert_eq!(arc_results, pool.results(), "{tag}: results diverged");
                assert_eq!(
                    arc_crashed,
                    slab_engine.adversary_crashed().collect::<Vec<_>>(),
                    "{tag}: crash sets diverged"
                );
                assert_eq!(
                    arc_budget,
                    slab_engine.budget_crashed().collect::<Vec<_>>(),
                    "{tag}: budget-crash sets diverged"
                );
                for (r, arc_word) in arc_bank.iter().enumerate() {
                    assert_eq!(
                        *arc_word,
                        slab_engine.load_register(RegId(r)),
                        "{tag}: final banks diverged at register {r}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crashes crossed with slab slot reuse: consecutive pooled trials
    /// on one slab engine free and re-allocate snapshot slots (each
    /// reset bumps the freed slots' generations), while the adversary
    /// crashes machines mid-update so displaced records die at random
    /// program points. Every trial must still be bit-identical to the
    /// Arc oracle — a stale slab handle surviving reuse would surface
    /// as a diverged trace, result or final bank.
    #[test]
    fn crashes_cross_slab_generation_reuse(
        seed in any::<u64>(),
        crash_p in 0.0f64..0.25,
        family in 0usize..3,
    ) {
        let k = 4usize;
        let mut alloc = RegAlloc::new();
        // The three snapshot-heaviest families — the only ones that
        // park `Word::Snap` records in slab slots at all.
        let algo = match family {
            0 => AlgoSet::SnapshotRename(SnapshotRename::new(&mut alloc, k)),
            1 => AlgoSet::Naming {
                naming: UnboundedNaming::new(&mut alloc, k),
                rounds: 2,
            },
            _ => AlgoSet::Deposit {
                repo: AltruisticDeposit::new(&mut alloc, k, 512),
                rounds: 2,
                servers: 0,
            },
        };
        let regs = alloc.total();
        let originals: Vec<u64> = (0..k as u64).map(|i| i * 13 + 2).collect();
        let mut pool: MachinePool<MachineSet<'_>> = algo.pool(&originals);
        let mut arc_engine = StepEngine::reusable_with(regs, ArcBank::new())
            .record_trace(true)
            .panic_on_budget(false);
        let mut slab_engine = StepEngine::reusable(regs)
            .record_trace(true)
            .panic_on_budget(false);

        for trial in 0..3u64 {
            let trial_seed = seed.wrapping_add(trial);
            let mut policy = CrashStorm::new(
                Box::new(RandomPolicy::new(trial_seed)),
                !trial_seed,
                crash_p,
                k - 1,
            );
            arc_engine.run_pool(&mut policy, &mut pool);
            let arc_trace = arc_engine.trace().expect("trace recorded").to_vec();
            let arc_results = pool.results().to_vec();
            let arc_bank: Vec<_> = (0..regs)
                .map(|r| arc_engine.load_register(RegId(r)))
                .collect();

            let mut policy = CrashStorm::new(
                Box::new(RandomPolicy::new(trial_seed)),
                !trial_seed,
                crash_p,
                k - 1,
            );
            slab_engine.run_pool(&mut policy, &mut pool);

            prop_assert_eq!(
                arc_trace.as_slice(),
                slab_engine.trace().expect("trace recorded"),
                "trial {}: traces diverged", trial
            );
            prop_assert_eq!(
                arc_results.as_slice(),
                pool.results(),
                "trial {}: results diverged", trial
            );
            for (r, arc_word) in arc_bank.iter().enumerate() {
                prop_assert_eq!(
                    arc_word,
                    &slab_engine.load_register(RegId(r)),
                    "trial {}: final banks diverged at register {}", trial, r
                );
            }
        }
        // Snapshot-backed families must actually have parked records in
        // slab slots — otherwise this property exercised nothing.
        prop_assert!(slab_engine.bank().peak_slots() > 0);
    }
}
