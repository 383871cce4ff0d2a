//! The service scenarios: the open-loop client harness
//! ([`exsel_sim::service`]) run at benchmark scale on the slab register
//! bank — clients arrive, acquire a naming ticket, store, collect and
//! deposit, and depart, under admission control and (for the storm
//! variant) a crash-hazard fault injector.
//!
//! Four registry entries share this body:
//!
//! - `service-smoke` — seconds-scale CI check (also run `--quick`).
//! - `service-steady` — ≥ 10⁶ sessions at high utilization, crashless;
//!   merges a throughput row into `BENCH_engine.json`.
//! - `service-storm` — the same service under a per-step crash hazard
//!   and a tighter waiting room: the run must degrade *gracefully*
//!   (bounded windowed p999, nonzero shed count, zero ticket
//!   collisions); merges its row into `BENCH_engine.json`.
//! - `service-mega` — the sharded fleet
//!   ([`exsel_sim::service::mega`]): 1250 admission shards × 8 slots =
//!   10⁴ concurrent slots driving ≥ 10⁶ sessions per run, each shard on
//!   its own slab register file; merges its row into
//!   `BENCH_engine.json`, and the bench gate re-probes the whole
//!   committed shard axis for allocation flatness
//!   ([`measure_mega`]).
//!
//! `--json-out` persists the windowed telemetry as **JSON Lines** —
//! one object per window per seed (plus one `summary` line per seed),
//! every value a plain integer, so two runs with the same seed produce
//! bit-identical files. Every line carries `scenario`, `seed`, `shards`
//! and `policy`, like the grid artifact rows.

use std::time::Instant;

use exsel_sim::service::mega::{
    MegaServiceConfig, MegaServiceHarness, MegaServiceReport, MegaServiceWorld,
};
use exsel_sim::service::{Admission, Arrivals, ServiceConfig, ServiceReport, WindowRow};

use crate::alloc_probe;
use crate::gate::Measurement as Row;
use crate::scenario::RunOverrides;
use crate::Table;

/// A registry entry's service configuration plus its acceptance
/// assertions and artifact wiring.
pub struct ServiceSpec {
    /// The full-scale configuration: per shard for slots and admission,
    /// fleet-wide for arrivals and budgets (see [`MegaServiceConfig`]).
    pub cfg: ServiceConfig,
    /// Admission shards; `--shards` resizes a sharded fleet.
    pub shards: usize,
    /// Human label for the workload mix (arrivals + admission), carried
    /// into every JSON row as `policy`.
    pub policy: &'static str,
    /// Session target under `--quick`.
    pub quick_sessions: u64,
    /// Upper bound asserted on every window's session p999 (graceful
    /// degradation); 0 disables the assertion.
    pub p999_bound: u64,
    /// Assert that admission shed at least one client.
    pub expect_shed: bool,
    /// Assert that the fault injector crashed and re-entered clients.
    pub expect_crashes: bool,
    /// Merge a summary row under this workload key into
    /// `BENCH_engine.json` after a full-scale run.
    pub bench_workload: Option<&'static str>,
}

/// `service-steady`: ≥ 10⁶ crashless sessions at ~85% utilization.
///
/// Measured: a session over 8 slots costs ≈ 2360 granted steps end to
/// end (the acquire and deposit scans are Θ(n²) reads, interleaved
/// across the in-flight set), so a Poisson mean gap of 2800 steps runs
/// the grant loop at ρ ≈ 0.84 — busy, with admission rarely shedding.
#[must_use]
pub fn steady_spec() -> ServiceSpec {
    ServiceSpec {
        cfg: ServiceConfig {
            seed: 1,
            slots: 8,
            target_sessions: 1_000_000,
            window: 1 << 24,
            arrivals: Arrivals::Poisson { mean_gap: 2800.0 },
            crash_hazard: 0.0,
            admission: Admission {
                max_inflight: 8,
                queue_capacity: 16,
                backoff_base: 256,
                backoff_cap: 1 << 15,
                max_retries: 10,
                waiting_capacity: 512,
            },
            ..ServiceConfig::default()
        },
        shards: 1,
        policy: "poisson(2800)/inflight<=8/backoff(256..32768)x10",
        quick_sessions: 20_000,
        p999_bound: 0,
        expect_shed: false,
        expect_crashes: false,
        bench_workload: Some("service/steady/open_loop"),
    }
}

/// `service-storm`: the steady workload under a 0.2% per-step crash
/// hazard, a hotter arrival rate and a tight waiting room — the
/// graceful-degradation variant.
#[must_use]
pub fn storm_spec() -> ServiceSpec {
    ServiceSpec {
        cfg: ServiceConfig {
            seed: 2,
            slots: 8,
            target_sessions: 200_000,
            window: 1 << 20,
            arrivals: Arrivals::Bursty {
                mean_gap: 700.0,
                burst: 1 << 15,
                lull: 1 << 14,
            },
            crash_hazard: 0.002,
            admission: Admission {
                max_inflight: 8,
                queue_capacity: 8,
                backoff_base: 256,
                backoff_cap: 1 << 14,
                max_retries: 6,
                waiting_capacity: 64,
            },
            ..ServiceConfig::default()
        },
        shards: 1,
        policy: "bursty(700,on32k/off16k)+hazard(2e-3)/inflight<=8",
        quick_sessions: 10_000,
        // Graceful degradation: no window's session p999 may blow past
        // this many steps even mid-storm (sessions that keep crashing
        // re-enter as new admissions, so the per-incarnation tail stays
        // bounded by the backoff envelope).
        p999_bound: 1 << 15,
        expect_shed: true,
        expect_crashes: true,
        bench_workload: Some("service/storm/open_loop"),
    }
}

/// `service-smoke`: a seconds-scale diurnal run with a mild hazard for
/// CI (`--quick` shrinks it further).
#[must_use]
pub fn smoke_spec() -> ServiceSpec {
    ServiceSpec {
        cfg: ServiceConfig {
            seed: 3,
            slots: 4,
            target_sessions: 5_000,
            window: 1 << 14,
            arrivals: Arrivals::Diurnal {
                peak_gap: 150.0,
                trough_gap: 900.0,
                period: 1 << 16,
            },
            crash_hazard: 0.001,
            admission: Admission {
                max_inflight: 4,
                queue_capacity: 8,
                backoff_base: 128,
                backoff_cap: 1 << 13,
                max_retries: 8,
                waiting_capacity: 128,
            },
            ..ServiceConfig::default()
        },
        shards: 1,
        policy: "diurnal(150..900,64k)+hazard(1e-3)/inflight<=4",
        quick_sessions: 1_000,
        p999_bound: 0,
        expect_shed: false,
        expect_crashes: true,
        bench_workload: None,
    }
}

/// The per-shard Poisson mean gap every `service-mega` axis point runs
/// at — the `service-steady` operating point (ρ ≈ 0.84 on 8 slots), so
/// mega throughput divides cleanly into a per-shard rate comparable to
/// the unsharded row.
pub const MEGA_PER_SHARD_GAP: f64 = 2800.0;

/// The shard counts the bench gate re-probes ([`measure_mega`]): the
/// unsharded degenerate point, a small fleet, and the committed
/// full-scale fleet (1250 shards × 8 slots = 10⁴ concurrent slots).
pub const MEGA_SHARD_AXIS: [usize; 3] = [1, 16, 1250];

/// `service-mega`: 1250 admission shards × 8 slots, ≥ 10⁶ crashless
/// sessions per run, every shard at the steady operating point (the
/// fleet-wide gap is the per-shard gap thinned by the shard count).
#[must_use]
pub fn mega_spec() -> ServiceSpec {
    let shards = 1250;
    #[allow(clippy::cast_precision_loss)]
    let fleet_gap = MEGA_PER_SHARD_GAP / shards as f64;
    ServiceSpec {
        cfg: ServiceConfig {
            seed: 4,
            slots: 8,
            target_sessions: 1_000_000,
            window: 1 << 16,
            arrivals: Arrivals::Poisson {
                mean_gap: fleet_gap,
            },
            crash_hazard: 0.0,
            admission: Admission {
                max_inflight: 8,
                queue_capacity: 16,
                backoff_base: 256,
                backoff_cap: 1 << 15,
                max_retries: 10,
                waiting_capacity: 512,
            },
            ..ServiceConfig::default()
        },
        shards,
        policy: "poisson(2800/shard)x1250shards/inflight<=8",
        quick_sessions: 20_000,
        p999_bound: 0,
        expect_shed: false,
        expect_crashes: false,
        bench_workload: Some("service/mega/open_loop"),
    }
}

/// Asserts a service scenario's expectations for `name`: the spec's
/// shed, crash and tail expectations (the fleet invariants are
/// `assert_mega_report`'s).
fn assert_expectations(name: &str, spec: &ServiceSpec, report: &ServiceReport) {
    if spec.expect_shed {
        assert!(report.totals.shed > 0, "{name}: storm never shed load");
    }
    if spec.expect_crashes {
        assert!(
            report.totals.crashes > 0 && report.totals.reentries > 0,
            "{name}: hazard produced no crash re-entry ({:?})",
            report.totals
        );
    }
    if spec.p999_bound > 0 {
        for w in &report.windows {
            assert!(
                w.session_p999 <= spec.p999_bound,
                "{name}: window {} session p999 {} blew the {} bound",
                w.window,
                w.session_p999,
                spec.p999_bound
            );
        }
    }
}

/// One window of the time series as a JSON Lines object.
fn window_json(
    name: &str,
    seed: u64,
    shards: u64,
    policy: &str,
    w: &WindowRow,
) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    obj.insert("kind".into(), serde_json::Value::String("window".into()));
    obj.insert("scenario".into(), serde_json::Value::String(name.into()));
    obj.insert("policy".into(), serde_json::Value::String(policy.into()));
    for (key, value) in [
        ("seed", seed),
        ("shards", shards),
        ("window", w.window),
        ("start", w.start),
        ("end", w.end),
        ("arrivals", w.arrivals),
        ("admitted", w.admitted),
        ("completed", w.completed),
        ("crashes", w.crashes),
        ("reentries", w.reentries),
        ("retries", w.retries),
        ("shed", w.shed),
        ("rejected", w.rejected),
        ("inflight", w.inflight),
        ("queued", w.queued),
        ("waiting", w.waiting),
        ("session_p50", w.session_p50),
        ("session_p99", w.session_p99),
        ("session_p999", w.session_p999),
        ("sojourn_p99", w.sojourn_p99),
        ("acquire_p50", w.acquire_p50),
        ("acquire_p99", w.acquire_p99),
        ("acquire_p999", w.acquire_p999),
        ("store_p50", w.store_p50),
        ("store_p99", w.store_p99),
        ("store_p999", w.store_p999),
        ("collect_p50", w.collect_p50),
        ("collect_p99", w.collect_p99),
        ("collect_p999", w.collect_p999),
        ("deposit_p50", w.deposit_p50),
        ("deposit_p99", w.deposit_p99),
        ("deposit_p999", w.deposit_p999),
    ] {
        obj.insert(key.into(), serde_json::Value::from(value));
    }
    serde_json::Value::Object(obj)
}

/// A fleet's epochs by length ([`MegaServiceHarness::epoch_lengths`])
/// as a JSON object `{"<len>": [epochs, ticks], ...}`, lengths run only.
fn epochs_json(epochs: &[(u64, u64)]) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    for (len, &(count, ticks)) in epochs.iter().enumerate().filter(|(_, e)| e.0 > 0) {
        obj.insert(
            len.to_string(),
            serde_json::Value::Array(vec![count.into(), ticks.into()]),
        );
    }
    serde_json::Value::Object(obj)
}

/// A fleet's epochs and the ticks they covered as bench-row extras, in
/// four length buckets: one tick; 2–7 ticks; 8 ticks up to one short of
/// `S_min`; and full-length epochs of `S_min` ticks (the last entry of
/// [`MegaServiceHarness::epoch_lengths`]). Only a window end or the
/// horizon cuts an epoch short.
fn epoch_extras(epochs: &[(u64, u64)]) -> [(&'static str, u64); 8] {
    let full = epochs.len() - 1;
    let bucket = |lens: std::ops::RangeInclusive<usize>| {
        epochs
            .iter()
            .enumerate()
            .filter(|(len, _)| lens.contains(len))
            .fold((0, 0), |(n, t), (_, &(count, ticks))| {
                (n + count, t + ticks)
            })
    };
    let (one, one_ticks) = bucket(1..=1);
    let (short, short_ticks) = bucket(2..=7);
    let (long, long_ticks) = bucket(8..=full - 1);
    let (whole, whole_ticks) = bucket(full..=full);
    [
        ("epochs_1", one),
        ("epoch_ticks_1", one_ticks),
        ("epochs_2_7", short),
        ("epoch_ticks_2_7", short_ticks),
        ("epochs_8_up", long),
        ("epoch_ticks_8_up", long_ticks),
        ("epochs_full", whole),
        ("epoch_ticks_full", whole_ticks),
    ]
}

/// The ticks a fleet ran in full-length epochs, with their share of
/// all its epoch ticks, for the summary table.
fn full_epoch_ticks(epochs: &[(u64, u64)]) -> String {
    let all: u64 = epochs.iter().map(|&(_, ticks)| ticks).sum();
    let full = epochs[epochs.len() - 1].1;
    #[allow(clippy::cast_precision_loss)]
    let share = 100.0 * full as f64 / all.max(1) as f64;
    format!("{full} ({share:.1}%)")
}

/// The per-seed summary line closing a seed's window series, with the
/// run's epochs by length.
fn summary_json(
    name: &str,
    seed: u64,
    shards: u64,
    policy: &str,
    report: &ServiceReport,
    epochs: &[(u64, u64)],
) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    obj.insert("kind".into(), serde_json::Value::String("summary".into()));
    obj.insert("scenario".into(), serde_json::Value::String(name.into()));
    obj.insert("policy".into(), serde_json::Value::String(policy.into()));
    let t = &report.totals;
    let cum = &report.cumulative;
    for (key, value) in [
        ("seed", seed),
        ("shards", shards),
        ("arrivals", t.arrivals),
        ("admitted", t.admitted),
        ("completed", t.completed),
        ("crashes", t.crashes),
        ("reentries", t.reentries),
        ("retries", t.retries),
        ("shed", t.shed),
        ("rejected", t.rejected),
        ("ops", t.ops),
        ("steps", t.steps),
        ("in_system", report.in_system),
        ("session_p50", cum[4].quantile(1, 2)),
        ("session_p99", cum[4].quantile(99, 100)),
        ("session_p999", cum[4].quantile(999, 1000)),
        ("sojourn_p999", cum[5].quantile(999, 1000)),
    ] {
        obj.insert(key.into(), serde_json::Value::from(value));
    }
    obj.insert("epochs".into(), epochs_json(epochs));
    for (key, value) in epoch_extras(epochs) {
        obj.insert(key.into(), serde_json::Value::from(value));
    }
    serde_json::Value::Object(obj)
}

/// Drives a scenario fleet to completion — equivalent to
/// [`MegaServiceHarness::run`]; a service scenario runs a fleet of one
/// shard, which is what [`exsel_sim::ServiceHarness`] is. Compiled with
/// `--features check`, one footprint checker per shard is installed
/// first and the run must end with zero violations, so every service
/// scenario doubles as a checked battery. Returns the report and the
/// run's epochs by length.
fn run_fleet(
    world: &MegaServiceWorld,
    cfg: &MegaServiceConfig,
    mut harness: MegaServiceHarness,
) -> (MegaServiceReport, Vec<(u64, u64)>) {
    #[cfg(feature = "check")]
    harness.install_checkers(
        world
            .shard_worlds()
            .iter()
            .map(|w| {
                exsel_sim::AccessChecker::for_instance(w, cfg.base.slots, w.num_registers())
                    .expect("shard world failed the static non-interference pass")
            })
            .collect(),
    );
    #[cfg(not(feature = "check"))]
    let _ = world;
    let target = match cfg.base.target_sessions {
        0 => u64::MAX,
        t => t,
    };
    let _ = harness.run_until(target);
    #[cfg(feature = "check")]
    assert_eq!(
        harness.checker_violations(),
        0,
        "service scenario stepped outside its declared footprints"
    );
    let epochs = harness.epoch_lengths().to_vec();
    (harness.finish(), epochs)
}

/// Runs a service scenario: one fleet run per seed (the registry seed,
/// or `0..N` under `--seeds N`; `--quick` shrinks the session target,
/// and `--shards` resizes a sharded fleet while keeping each shard at
/// the spec's per-shard arrival rate), asserting the fleet invariants
/// and the spec's expectations, printing a per-seed summary table, and
/// returning the JSON Lines rows. Full-scale runs with a
/// `bench_workload` also merge their throughput row into
/// `BENCH_engine.json`.
///
/// # Panics
///
/// Panics when any report invariant fails — see `assert_mega_report`
/// and `assert_expectations`.
pub fn run(name: &str, spec: &ServiceSpec, overrides: &RunOverrides) -> Vec<serde_json::Value> {
    let mut cfg = MegaServiceConfig {
        base: spec.cfg,
        shards: spec.shards,
    };
    if let Some(shards) = overrides.shards {
        // Resize the fleet, holding per-shard load: the fleet-wide gap
        // scales inversely with the shard count.
        #[allow(clippy::cast_precision_loss)]
        let factor = cfg.shards as f64 / shards as f64;
        cfg.base.arrivals = cfg.base.arrivals.scale_gaps(factor);
        cfg.shards = shards;
    }
    if overrides.quick {
        // Auto-sized arenas follow the shrunk target automatically.
        cfg.base.target_sessions = spec.quick_sessions;
    }
    let policy = spec.policy;
    let seeds: Vec<u64> = match overrides.seeds {
        Some(n) => (0..n).collect(),
        None => vec![cfg.base.seed],
    };
    let mut table = Table::new(
        format!(
            "scenario {name} — open-loop service, {} shards x {} slots ({policy})",
            cfg.shards, cfg.base.slots
        ),
        &[
            "seed",
            "completed",
            "steps/session",
            "sessions/sec",
            "crashes",
            "reentries",
            "shed",
            "rejected",
            "p50",
            "p99",
            "p999",
            "full epochs",
            "ticks in full epochs",
        ],
    );
    let mut rows = Vec::new();
    let shards = cfg.shards as u64;
    for seed in seeds {
        cfg.base.seed = seed;
        let world = MegaServiceWorld::new(&cfg);
        let harness = MegaServiceHarness::new(&world, &cfg);
        let start = Instant::now();
        let (mega, epochs) = run_fleet(&world, &cfg, harness);
        let secs = start.elapsed().as_secs_f64();
        assert_mega_report(name, &cfg, &mega);
        let report = &mega.report;
        assert_expectations(name, spec, report);
        let t = &report.totals;
        let sessions_per_sec = per_sec(t.completed, secs);
        let session = |num, den| report.cumulative[4].quantile(num, den);
        let mut cells: Vec<String> = [
            seed,
            t.completed,
            t.ops.checked_div(t.completed).unwrap_or(0),
            sessions_per_sec,
            t.crashes,
            t.reentries,
            t.shed,
            t.rejected,
            session(1, 2),
            session(99, 100),
            session(999, 1000),
            epochs[epochs.len() - 1].0,
        ]
        .iter()
        .map(u64::to_string)
        .collect();
        cells.push(full_epoch_ticks(&epochs));
        table.row(&cells);
        for w in &report.windows {
            rows.push(window_json(name, seed, shards, policy, w));
        }
        rows.push(summary_json(name, seed, shards, policy, report, &epochs));
        if let (Some(workload), false) = (spec.bench_workload, overrides.quick) {
            let mut extras = vec![
                ("sessions", t.completed),
                ("sessions_per_sec", sessions_per_sec),
                ("total_ops", t.ops),
                ("shards", shards),
                ("slots", cfg.total_slots() as u64),
                ("crashes", t.crashes),
                ("shed", t.shed),
                ("rejected", t.rejected),
                ("session_p999", session(999, 1000)),
                ("arena_fresh", fleet_arena_fresh(&world)),
            ];
            extras.extend(epoch_extras(&epochs));
            let bench = Row {
                workload: workload.into(),
                baseline: "sessions_floor",
                contender: "open_loop",
                baseline_s: secs,
                contender_s: secs,
                extras,
            };
            if let Err(e) =
                crate::gate::merge_into_artifact("BENCH_engine.json", std::slice::from_ref(&bench))
            {
                eprintln!("(could not write BENCH_engine.json: {e})");
            } else {
                println!("merged {workload} into BENCH_engine.json");
            }
        }
    }
    table.emit();
    rows
}

/// A count per second of wall-clock time.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn per_sec(count: u64, secs: f64) -> u64 {
    (count as f64 / secs.max(1e-9)) as u64
}

/// Snapshot-arena misses summed over every shard's world since it was
/// built — warm-up included, so a short reservation shows even when the
/// miss falls before the measured window.
fn fleet_arena_fresh(world: &MegaServiceWorld) -> u64 {
    world
        .shard_worlds()
        .iter()
        .map(|w| w.arena_stats().fresh_allocations())
        .sum()
}

/// Asserts a mega report's fleet-level invariants for `name`: the
/// global accounting identity, ticket exclusivity over the namespaced
/// audit, and the per-shard roll-up identity.
fn assert_mega_report(name: &str, cfg: &MegaServiceConfig, mega: &MegaServiceReport) {
    assert!(
        mega.report.accounted(),
        "{name}: accounting identity broken: {:?} in_system={}",
        mega.report.totals,
        mega.report.in_system
    );
    assert!(
        mega.rolled_up(),
        "{name}: shard totals diverge from the global roll-up"
    );
    if cfg.base.record_names {
        let mut names = mega.report.names.clone();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(
            names.len(),
            before,
            "{name}: completed sessions share a naming ticket across the fleet"
        );
    }
}

/// A bench-gate measurement of the fleet `cfg`: built (and primed if
/// `prime`), warmed for a tenth of its session target, then timed to
/// the target under the allocation probe. The gate holds the row to its
/// sessions/sec floor and, when the counting allocator is installed, to
/// **zero** steady-state allocations.
///
/// # Panics
///
/// Panics if the fleet drains before its target or a fleet invariant
/// breaks.
fn measure_fleet(cfg: &MegaServiceConfig, prime: bool, workload: String) -> Row {
    let target = cfg.base.target_sessions;
    // The audit vector is pre-sized off the target, so recording names
    // stays in the measured window's zero-allocation budget.
    let warm = target / 10;
    let world = MegaServiceWorld::new(cfg);
    let mut harness = MegaServiceHarness::new(&world, cfg);
    if prime {
        harness.prime();
    }
    assert!(harness.run_until(warm), "fleet drained during warm-up");
    let (ops_before, done_before) = (harness.ops(), harness.completed());
    let before = alloc_probe::counts();
    let start = Instant::now();
    assert!(harness.run_until(target), "fleet drained mid-measurement");
    let secs = start.elapsed().as_secs_f64();
    let window = alloc_probe::counts().since(&before);
    let steady_ops = harness.ops() - ops_before;
    // Both stops land at epoch ends, past their targets.
    let measured = harness.completed() - done_before;
    let epochs = epoch_extras(harness.epoch_lengths());
    let mega = harness.finish();
    assert_mega_report(&workload, cfg, &mega);
    let t = &mega.report.totals;
    let mut extras = vec![
        ("sessions", measured),
        ("sessions_per_sec", per_sec(measured, secs)),
        ("total_ops", steady_ops),
        ("shards", cfg.shards as u64),
        ("slots", cfg.total_slots() as u64),
        ("crashes", t.crashes),
        ("shed", t.shed),
        ("rejected", t.rejected),
        (
            "session_p999",
            mega.report.cumulative[4].quantile(999, 1000),
        ),
        ("arena_fresh", fleet_arena_fresh(&world)),
        ("steady_allocs", window.allocs),
        ("steady_frees", window.deallocs),
        ("alloc_probe", u64::from(alloc_probe::active())),
    ];
    extras.extend(epochs);
    Row {
        workload,
        baseline: "sessions_floor",
        contender: "open_loop",
        baseline_s: secs,
        contender_s: secs,
        extras,
    }
}

/// The steady bench-gate measurement: the steady workload (quick: 20k
/// sessions), unprimed, warmed for a tenth of its target, then timed
/// under the allocation probe.
///
/// # Panics
///
/// Panics if the run ends before reaching its session target.
#[must_use]
pub fn measure(quick: bool) -> Row {
    let mut base = steady_spec().cfg;
    if quick {
        base.target_sessions = 20_000;
    }
    let cfg = MegaServiceConfig { base, shards: 1 };
    measure_fleet(&cfg, false, "service/steady/open_loop".into())
}

/// One shard-axis point of the mega bench-gate measurement
/// ([`measure_fleet`]): a primed fleet of `shards` admission shards,
/// each at the steady per-shard arrival rate. The full-scale axis point
/// (`MEGA_SHARD_AXIS` last) keys the committed `service/mega/open_loop`
/// row; the others gate on the hard floors alone.
///
/// # Panics
///
/// Panics if the fleet drains before its session target or a fleet
/// invariant breaks.
#[must_use]
fn measure_mega_at(shards: usize, target: u64) -> Row {
    let mut cfg = MegaServiceConfig {
        base: mega_spec().cfg,
        shards,
    };
    #[allow(clippy::cast_precision_loss)]
    let fleet_gap = MEGA_PER_SHARD_GAP / shards as f64;
    cfg.base.arrivals = Arrivals::Poisson {
        mean_gap: fleet_gap,
    };
    cfg.base.target_sessions = target;
    let workload = if shards == MEGA_SHARD_AXIS[MEGA_SHARD_AXIS.len() - 1] {
        "service/mega/open_loop".into()
    } else {
        format!("service/mega/open_loop/shards={shards}")
    };
    // At 10^4 slots a slot can be first-touched arbitrarily deep into
    // the run, so its one-time registration buffers would land inside
    // the measured window; priming pays them all up front.
    measure_fleet(&cfg, true, workload)
}

/// The mega bench-gate measurements: one row per committed shard-axis
/// point ([`MEGA_SHARD_AXIS`]), each primed, warmed and alloc-probed —
/// so a zero-alloc or throughput regression at *any* shard count fails
/// the gate, not just the full-scale fleet.
#[must_use]
pub fn measure_mega(quick: bool) -> Vec<Row> {
    let target = if quick {
        20_000
    } else {
        mega_spec().cfg.target_sessions
    };
    MEGA_SHARD_AXIS
        .iter()
        .map(|&shards| measure_mega_at(shards, target))
        .collect()
}

/// Every service row the bench gate re-measures: the unsharded steady
/// row plus the whole mega shard axis.
#[must_use]
pub fn measure_rows(quick: bool) -> Vec<Row> {
    let mut rows = vec![measure(quick)];
    rows.extend(measure_mega(quick));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_smoke_scenario_runs_and_emits_jsonl_rows() {
        let overrides = RunOverrides {
            quick: true,
            ..RunOverrides::default()
        };
        let rows = run("service-smoke", &smoke_spec(), &overrides);
        assert!(rows.len() >= 2, "expected windows plus a summary");
        let serde_json::Value::Object(last) = rows.last().unwrap() else {
            panic!("summary row is not an object");
        };
        assert_eq!(
            last.get("kind"),
            Some(&serde_json::Value::String("summary".into()))
        );
        for key in ["seed", "shards", "policy", "completed"] {
            assert!(last.get(key).is_some(), "summary row lacks `{key}`");
        }
        let serde_json::Value::Object(first) = &rows[0] else {
            panic!("window row is not an object");
        };
        assert_eq!(
            first.get("kind"),
            Some(&serde_json::Value::String("window".into()))
        );
        for key in ["seed", "shards", "policy", "session_p999", "shed"] {
            assert!(first.get(key).is_some(), "window row lacks `{key}`");
        }
    }

    #[test]
    fn jsonl_rows_are_bit_identical_per_seed() {
        let overrides = RunOverrides {
            quick: true,
            ..RunOverrides::default()
        };
        let a = run("service-smoke", &smoke_spec(), &overrides);
        let b = run("service-smoke", &smoke_spec(), &overrides);
        let render =
            |rows: &[serde_json::Value]| rows.iter().map(|r| format!("{r}\n")).collect::<String>();
        assert_eq!(render(&a), render(&b), "same seed, different JSONL");
    }

    #[test]
    fn quick_measure_row_reports_throughput_and_probe_state() {
        let row = measure(true);
        assert_eq!(row.baseline, "sessions_floor");
        assert!(row.extra("sessions_per_sec").unwrap_or(0) > 0);
        assert_eq!(row.extra("sessions"), Some(18_000));
        // The test harness has no counting allocator; the row must say
        // so rather than claim flatness it never observed.
        assert_eq!(row.extra("alloc_probe"), Some(0));
        assert!(row.extra("session_p999").unwrap_or(0) > 0);
    }

    #[test]
    fn mega_axis_point_measures_and_keys_the_committed_row() {
        // A tiny off-axis fleet keeps this debug-mode test in seconds;
        // the real axis runs inside the release-mode gate binary.
        let row = measure_mega_at(4, 2_000);
        assert_eq!(row.workload, "service/mega/open_loop/shards=4");
        assert_eq!(row.baseline, "sessions_floor");
        assert_eq!(row.extra("sessions"), Some(1_800));
        assert_eq!(row.extra("shards"), Some(4));
        assert_eq!(row.extra("slots"), Some(32));
        assert!(row.extra("sessions_per_sec").unwrap_or(0) > 0);
        // No counting allocator in the test harness; the row must say
        // so rather than claim flatness it never observed.
        assert_eq!(row.extra("alloc_probe"), Some(0));
        // Most of the run's ticks fall in full-length epochs.
        let ticks = [
            "epoch_ticks_1",
            "epoch_ticks_2_7",
            "epoch_ticks_8_up",
            "epoch_ticks_full",
        ]
        .map(|key| row.extra(key).expect("epoch extras recorded"));
        assert!(2 * ticks[3] > ticks.iter().sum::<u64>(), "{ticks:?}");
        // The axis ends at the committed full-scale fleet, so that
        // point's row keys the committed BENCH_engine.json entry.
        assert_eq!(MEGA_SHARD_AXIS.last(), Some(&mega_spec().shards));
    }

    #[test]
    fn mega_scenario_emits_sharded_jsonl_rows() {
        let spec = ServiceSpec {
            cfg: ServiceConfig {
                seed: 9,
                slots: 4,
                target_sessions: 600,
                window: 1 << 12,
                arrivals: Arrivals::Poisson { mean_gap: 2.0 },
                crash_hazard: 0.002,
                admission: Admission {
                    max_inflight: 4,
                    queue_capacity: 8,
                    backoff_base: 32,
                    backoff_cap: 1 << 10,
                    max_retries: 4,
                    waiting_capacity: 32,
                },
                ..ServiceConfig::default()
            },
            shards: 4,
            policy: "test",
            quick_sessions: 400,
            p999_bound: 0,
            expect_shed: false,
            expect_crashes: false,
            bench_workload: None,
        };
        let overrides = RunOverrides {
            quick: true,
            ..RunOverrides::default()
        };
        let rows = run("service-mega", &spec, &overrides);
        assert!(!rows.is_empty());
        let serde_json::Value::Object(last) = rows.last().unwrap() else {
            panic!("summary row is not an object");
        };
        assert_eq!(
            last.get("kind"),
            Some(&serde_json::Value::String("summary".into()))
        );
        assert_eq!(last.get("shards"), Some(&serde_json::Value::from(4u64)));
        let Some(serde_json::Value::Object(epochs)) = last.get("epochs") else {
            panic!("summary row lacks its `epochs` by length");
        };
        assert!(!epochs.is_empty());
        for key in ["epochs_full", "epoch_ticks_full"] {
            assert!(last.get(key).is_some(), "summary row lacks `{key}`");
        }
        // The fleet stops at the end of an epoch, past the target.
        let Some(&serde_json::Value::Int(completed)) = last.get("completed") else {
            panic!("summary row lacks an integer `completed`");
        };
        assert!(completed >= 400, "short run: {completed}");
    }

    #[test]
    fn storm_spec_quick_degrades_gracefully() {
        let overrides = RunOverrides {
            quick: true,
            ..RunOverrides::default()
        };
        // assert_report inside run() checks shed > 0, crashes > 0,
        // ticket exclusivity and the windowed p999 bound.
        let rows = run("service-storm", &storm_spec(), &overrides);
        assert!(!rows.is_empty());
    }
}
