//! Crash-semantics property coverage: crashing any single process
//! mid-rename — in any of the 8 renamers, at any point of its execution,
//! under any seeded schedule — must leave the survivors deciding unique
//! names, and (for every algorithm whose guarantee is total) leave no
//! survivor unnamed. Runs on the step-machine engine via `StepRename`,
//! with the crash placed by `CrashAtStep` at an exact local step of the
//! victim.

use exclusive_selection::sim::policy::{CrashAtStep, RandomPolicy};
use exclusive_selection::sim::{MachinePool, StepEngine};
use exclusive_selection::{
    AdaptiveRename, AlmostAdaptive, BasicRename, EfficientRename, Majority, MoirAnderson, Outcome,
    Pid, PolyLogRename, RegAlloc, RenameConfig, SnapshotRename, StepRename,
};
use proptest::prelude::*;

const K: usize = 6;
const N_NAMES: usize = 256;

/// Builds renamer number `idx` (all 8 of the stack's `StepRename`
/// implementations) and reports whether it guarantees a name for every
/// surviving contender (`Majority` only promises half). Mirrors
/// `AlgoSpec` in `crates/bench/src/scenario.rs` (this root test crate
/// cannot depend on exsel-bench): when a renamer is added there, extend
/// this table and the `0..8` strategy range below.
fn build(idx: usize, alloc: &mut RegAlloc, cfg: &RenameConfig) -> (Box<dyn StepRename>, bool) {
    match idx {
        0 => (Box::new(MoirAnderson::new(alloc, K)), true),
        1 => (Box::new(EfficientRename::new(alloc, K, cfg)), true),
        2 => (Box::new(SnapshotRename::new(alloc, K)), true),
        3 => (Box::new(BasicRename::new(alloc, N_NAMES, K, cfg)), true),
        4 => (Box::new(PolyLogRename::new(alloc, N_NAMES, K, cfg)), true),
        5 => (
            Box::new(AlmostAdaptive::new(alloc, N_NAMES, 2 * K, cfg)),
            true,
        ),
        6 => (Box::new(AdaptiveRename::new(alloc, 2 * K, cfg)), true),
        7 => (Box::new(Majority::new(alloc, N_NAMES, K, cfg)), false),
        _ => unreachable!("8 renamers"),
    }
}

/// One adversarial execution: `victim` is crashed the moment it reaches
/// local step `crash_step`; everyone else runs under the seeded random
/// schedule. Returns `(names, crashed_pids)`.
fn run_with_crash(
    algo: &dyn StepRename,
    num_registers: usize,
    victim: usize,
    crash_step: u64,
    seed: u64,
) -> (Vec<Option<u64>>, Vec<Pid>) {
    let mut engine = StepEngine::reusable(num_registers);
    let mut policy = CrashAtStep::new(Box::new(RandomPolicy::new(seed)), Pid(victim), crash_step);
    let mut pool: MachinePool<_> = (0..K)
        .map(|p| algo.begin_rename(Pid(p), (p * N_NAMES / K) as u64 + 1))
        .collect();
    engine.run_pool(&mut policy, &mut pool);
    (
        pool.results()
            .iter()
            .map(|r| r.expect("result recorded").ok().and_then(Outcome::name))
            .collect(),
        engine.adversary_crashed().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn single_crash_mid_rename_leaves_survivors_exclusive(
        algo_idx in 0..8usize,
        victim in 0..K,
        crash_step in 0u64..48,
        seed in 0u64..10_000,
    ) {
        let cfg = RenameConfig::default();
        let mut alloc = RegAlloc::new();
        let (algo, names_all) = build(algo_idx, &mut alloc, &cfg);
        let (names, crashed) =
            run_with_crash(algo.as_ref(), alloc.total(), victim, crash_step, seed);

        // Exclusiveness among everyone who decided.
        let decided: Vec<u64> = names.iter().flatten().copied().collect();
        let unique: std::collections::BTreeSet<u64> = decided.iter().copied().collect();
        prop_assert_eq!(
            unique.len(),
            decided.len(),
            "duplicate names from renamer {} under crash of {} at step {}: {:?}",
            algo_idx,
            victim,
            crash_step,
            names
        );

        // At most the one victim crashed, and it decided nothing.
        prop_assert!(crashed.len() <= 1);
        if let Some(pid) = crashed.first() {
            prop_assert_eq!(pid.0, victim);
            prop_assert!(names[victim].is_none());
        }

        // Wait-freedom under the crash: every survivor decided a name
        // (for the renamers whose guarantee is total).
        if names_all {
            for (pid, name) in names.iter().enumerate() {
                if !crashed.iter().any(|c| c.0 == pid) {
                    prop_assert!(
                        name.is_some(),
                        "renamer {} left survivor {} unnamed (victim {}, step {}, seed {})",
                        algo_idx,
                        pid,
                        victim,
                        crash_step,
                        seed
                    );
                }
            }
        }
    }
}

/// Deterministic exhaustive sweep at one tight spot: every renamer ×
/// every victim, crash placed inside the victim's first few operations —
/// the window where reservations and announcements are half-done.
#[test]
fn every_renamer_survives_every_single_victim() {
    let cfg = RenameConfig::default();
    for algo_idx in 0..8 {
        for victim in 0..K {
            for crash_step in [1u64, 3, 7] {
                let mut alloc = RegAlloc::new();
                let (algo, names_all) = build(algo_idx, &mut alloc, &cfg);
                let (names, crashed) =
                    run_with_crash(algo.as_ref(), alloc.total(), victim, crash_step, 42);
                let decided: Vec<u64> = names.iter().flatten().copied().collect();
                let unique: std::collections::BTreeSet<u64> = decided.iter().copied().collect();
                assert_eq!(unique.len(), decided.len(), "renamer {algo_idx}");
                // The victim may legitimately outrun the crash point; if
                // the crash fired, it hit exactly the victim.
                if crashed.is_empty() {
                    assert!(names[victim].is_some(), "renamer {algo_idx}");
                } else {
                    assert_eq!(crashed, vec![Pid(victim)], "renamer {algo_idx}");
                }
                if names_all {
                    assert_eq!(
                        decided.len(),
                        K - crashed.len(),
                        "renamer {algo_idx}: survivors unnamed after crashing {victim} at {crash_step}"
                    );
                }
            }
        }
    }
}

/// Service-harness semantics under injected crash storms: the open-loop
/// session layer (`sim::service`) must preserve the paper's exclusivity
/// guarantee end to end — every *completed* session holds a distinct
/// ticket no matter how clients crash, re-enter, back off or get shed —
/// and admission control must account for every client that ever
/// arrived: once bounded arrivals drain, each one either completed or
/// was cleanly rejected, with nobody left in the system.
mod service_semantics {
    use exclusive_selection::sim::service::mega::{
        MegaServiceConfig, MegaServiceHarness, MegaServiceWorld,
    };
    use exclusive_selection::sim::service::{
        Admission, Arrivals, ServiceConfig, ServiceHarness, ServiceWorld,
    };
    use proptest::prelude::*;

    /// A randomized but always-drainable configuration: bounded
    /// arrivals, a horizon far past any plausible drain point, and a
    /// cap on backoff so rejection verdicts arrive quickly.
    #[allow(clippy::too_many_arguments)]
    fn storm_cfg(
        seed: u64,
        slots: usize,
        clients: u64,
        mean_gap: f64,
        hazard: f64,
        max_inflight: usize,
        queue_capacity: usize,
        waiting_capacity: usize,
    ) -> ServiceConfig {
        ServiceConfig {
            seed,
            slots,
            target_sessions: 0,
            max_clients: clients,
            window: 1 << 12,
            arrivals: Arrivals::Poisson { mean_gap },
            crash_hazard: hazard,
            admission: Admission {
                max_inflight: max_inflight.min(slots),
                queue_capacity,
                backoff_base: 32,
                backoff_cap: 1 << 10,
                max_retries: 4,
                waiting_capacity,
            },
            ..ServiceConfig::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Crash-storm exclusivity plus full accounting, across random
        /// service shapes: slot counts, arrival pressure (down to
        /// overload), hazards up to 1% per granted step, and tight
        /// admission bounds.
        #[test]
        fn crashy_sessions_stay_exclusive_and_accounted(
            seed in 0u64..10_000,
            slots in 2usize..6,
            clients in 40u64..160,
            mean_gap in 2.0f64..400.0,
            hazard in 0.0f64..0.01,
            max_inflight in 1usize..6,
            queue_capacity in 0usize..6,
            waiting_capacity in 1usize..32,
        ) {
            let cfg = storm_cfg(
                seed, slots, clients, mean_gap, hazard,
                max_inflight, queue_capacity, waiting_capacity,
            );
            let world = ServiceWorld::new(&cfg);
            let report = ServiceHarness::new(&world, &cfg).run();

            // Every client is accounted for, and the drain is total:
            // nobody is left in flight, queued, or waiting in backoff.
            prop_assert_eq!(report.totals.arrivals, clients);
            prop_assert!(report.accounted(), "accounting broke: {:?}", report.totals);
            prop_assert_eq!(
                report.in_system, 0,
                "clients stranded after drain: {:?}", report.totals
            );
            prop_assert_eq!(
                report.totals.completed + report.totals.rejected,
                clients,
                "shed/retried clients neither completed nor rejected: {:?}",
                report.totals
            );

            // Ticket exclusivity over completed sessions, crash storms
            // and re-entries notwithstanding.
            let mut names = report.names.clone();
            names.sort_unstable();
            let before = names.len() as u64;
            names.dedup();
            prop_assert_eq!(before, report.totals.completed);
            prop_assert_eq!(
                names.len() as u64,
                report.totals.completed,
                "duplicate session tickets under seed {}", seed
            );

            // Crashes force re-entries (or rejections), never losses:
            // with a nonzero hazard and any completions at all, the
            // re-entry path must have been exercised or every crashed
            // client rejected.
            if report.totals.crashes > 0 {
                prop_assert!(
                    report.totals.reentries > 0 || report.totals.rejected > 0,
                    "crashes with neither re-entries nor rejections: {:?}",
                    report.totals
                );
            }
        }

        /// Determinism of the full service pipeline: bit-identical
        /// reports per (config, seed) — totals, every window row, every
        /// recorded ticket — across independently built worlds.
        #[test]
        fn service_reports_are_bit_identical_per_seed(
            seed in 0u64..10_000,
            hazard in 0.0f64..0.008,
        ) {
            let cfg = storm_cfg(seed, 3, 80, 30.0, hazard, 2, 2, 8);
            let world_a = ServiceWorld::new(&cfg);
            let a = ServiceHarness::new(&world_a, &cfg).run();
            let world_b = ServiceWorld::new(&cfg);
            let b = ServiceHarness::new(&world_b, &cfg).run();
            prop_assert_eq!(a.totals, b.totals);
            prop_assert_eq!(a.windows, b.windows);
            prop_assert_eq!(a.names, b.names);
        }

        /// Checker-on crash storms (`--features check`): the dynamic
        /// footprint checker rides along the full service battery —
        /// naming, store&collect and deposit machines under crashes,
        /// re-entries and load shedding — and must observe every
        /// granted operation without reporting a single violation.
        #[cfg(feature = "check")]
        #[test]
        fn crashy_sessions_stay_inside_declared_footprints(
            seed in 0u64..10_000,
            slots in 2usize..6,
            clients in 40u64..120,
            hazard in 0.0f64..0.01,
        ) {
            use exclusive_selection::sim::AccessChecker;
            let cfg = storm_cfg(seed, slots, clients, 8.0, hazard, slots, 2, 8);
            let world = ServiceWorld::new(&cfg);
            let checker =
                AccessChecker::for_instance(&world, cfg.slots, world.num_registers())
                    .expect("static pass accepts the service world");
            let mut harness = ServiceHarness::new(&world, &cfg);
            harness.install_checker(checker);
            harness.prime();
            let drained = harness.run_until(u64::MAX);
            prop_assert!(!drained, "bounded arrivals must drain");
            let c = harness.checker().unwrap();
            prop_assert!(c.trial_ops() > 0, "checker observed nothing");
            prop_assert_eq!(
                harness.checker_violations(), 0,
                "service run violated its footprints: {:?}",
                c.violations()
            );
        }

        /// Determinism of multi-shard runs: any `shards > 1` fleet is
        /// bit-identical to itself across independently built worlds
        /// with the same seed — global roll-up, windows, namespaced
        /// tickets and per-shard totals alike — and its accounting
        /// closes after the drain.
        #[test]
        fn mega_reports_are_bit_identical_per_seed(
            seed in 0u64..10_000,
            shards in 2usize..6,
            hazard in 0.0f64..0.008,
        ) {
            let mcfg = MegaServiceConfig {
                base: storm_cfg(seed, 3, 120, 12.0, hazard, 2, 2, 8),
                shards,
            };
            let world_a = MegaServiceWorld::new(&mcfg);
            let a = MegaServiceHarness::new(&world_a, &mcfg).run();
            let world_b = MegaServiceWorld::new(&mcfg);
            let b = MegaServiceHarness::new(&world_b, &mcfg).run();
            prop_assert_eq!(&a.report.totals, &b.report.totals);
            prop_assert_eq!(&a.report.windows, &b.report.windows);
            prop_assert_eq!(&a.report.names, &b.report.names);
            prop_assert_eq!(&a.shard_totals, &b.shard_totals);
            prop_assert!(a.report.accounted());
            prop_assert!(a.rolled_up());
        }
    }
}
