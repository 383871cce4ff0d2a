//! The scenario registry: every experiment in the repository as a named,
//! data-driven entry behind one multiplexer binary.
//!
//! A scenario is either a **table** (one of the EXPERIMENTS.md
//! reproduction tables, T1–T11/S1/A1-3, living in [`crate::expts`]) or a
//! **grid** — a declarative `algorithm × adversary × size-grid × seeds`
//! specification executed by the shared [`run_grid`] driver over one
//! reusable `StepEngine`, with per-trial engine metrics (op mix,
//! contention, crash causes) folded into the emitted table. Adding an
//! experiment is a ~10-line [`GridSpec`] entry in [`registry`], not a new
//! binary.
//!
//! ```text
//! cargo run --release -p exsel-bench --bin expt -- list
//! cargo run --release -p exsel-bench --bin expt -- run smoke
//! cargo run --release -p exsel-bench --bin expt -- run storm-efficient --json
//! ```

use std::ops::Range;

use exsel_core::{
    AdaptiveRename, AlmostAdaptive, BasicRename, EfficientRename, Majority, MoirAnderson,
    PolyLogRename, RenameConfig, SnapshotRename,
};
use exsel_shm::{RegAlloc, SlabBank};
use exsel_sim::policy::{Bursty, CrashAfter, CrashStorm, Pigeonhole, RandomPolicy, RoundRobin};
use exsel_sim::{AlgoSet, Policy, StepEngine};
use exsel_storecollect::StoreCollect;
use exsel_unbounded::{AltruisticDeposit, UnboundedNaming};

use crate::runner::{spread_originals, sweep_pool_sharded, TrialStats};
use crate::{expts, Table};

/// A named experiment in the registry.
pub struct Scenario {
    /// Registry name (`expt -- run <name>`).
    pub name: &'static str,
    /// One-line summary shown by `expt -- list`.
    pub summary: &'static str,
    /// How the scenario executes.
    pub kind: Kind,
}

/// How a scenario executes.
pub enum Kind {
    /// A reproduction-table experiment.
    Table(fn()),
    /// A table experiment that honors per-run CLI overrides (today:
    /// `--reduce on|off|both` and `--quick` for `explore-reduced`).
    TableWith(fn(&RunOverrides)),
    /// A declarative grid run by [`run_grid`].
    Grid(GridSpec),
    /// An open-loop service run ([`crate::expts::service`]): sessions
    /// with fault injection, admission control and retry/backoff.
    /// Honors `--seeds`/`--quick`; `--json-out` writes the windowed
    /// telemetry as JSON Lines instead of a JSON array.
    Service(expts::service::ServiceSpec),
    /// A sharded mega-fleet service run
    /// ([`crate::expts::service::run_mega`]): per-shard admission
    /// controllers over per-shard slab banks on one global clock. On
    /// top of the service flags it honors `--shards`, which resizes the
    /// fleet while holding each shard's arrival rate fixed.
    Mega(expts::service::MegaServiceSpec),
}

/// A data-driven scenario: which algorithm family, under which
/// adversary, over which `(N, k)` grid, for how many seeds. The grid and
/// seeds are owned so the `expt` CLI can override them per run
/// (`--sizes`, `--seeds`).
pub struct GridSpec {
    /// The algorithm family under test (any [`AlgoSet`] family, not just
    /// renamers).
    pub algo: AlgoSpec,
    /// The adversary scheduling (and possibly crashing) the contenders.
    pub adversary: AdversarySpec,
    /// `(n_names, k)` cells to sweep.
    pub grid: Vec<(usize, usize)>,
    /// Seeds per cell (each seed is one pooled trial).
    pub seeds: Range<u64>,
    /// Shards for the engine's grant loop: `1` (the registry default)
    /// runs the classic unsharded loop; `> 1` splits the pending set
    /// into that many contiguous pid ranges and batches policy
    /// decisions per shard (`StepEngine::run_pool_sharded`). The `expt`
    /// CLI overrides this per run with `--shards`.
    pub shards: usize,
}

/// The algorithm families a grid can instantiate. Each is built **once
/// per cell** from `(n_names, k)` and the shared [`RenameConfig`]; the
/// per-seed trials re-drive one pooled machine set over it
/// ([`crate::runner::sweep_pool`]).
#[derive(Clone, Copy, Debug)]
pub enum AlgoSpec {
    /// Moir–Anderson splitter grid (baseline, `M = k(k+1)/2`).
    MoirAnderson,
    /// `Efficient-Rename(k)` — Theorem 2.
    Efficient,
    /// Classic snapshot renaming (baseline, `M = 2k−1`).
    Snapshot,
    /// `Basic-Rename(k, N)` — Lemma 5.
    Basic,
    /// `PolyLog-Rename(k, N)` — Theorem 1.
    PolyLog,
    /// `Almost-Adaptive(N)` over a system of `4k` processes — Theorem 3.
    AlmostAdaptive,
    /// `Adaptive-Rename` over a system of `4k` processes — Theorem 4.
    Adaptive,
    /// `Majority(ℓ, N)` — Lemma 4 (may legitimately rename only half).
    Majority,
    /// Store&collect, setting (i): `k` and `N` known — Theorem 5. The
    /// trial is each process's first store; the claim is its adopted
    /// value register.
    StoreKnown,
    /// Store&collect, setting (iv): fully adaptive — Theorem 5.
    StoreAdaptive,
    /// The unbounded-naming repository — Theorem 10: `k` processes each
    /// claim this many integers per trial.
    Naming {
        /// Integers each process claims per trial.
        rounds: usize,
    },
    /// The wait-free altruistic deposit repository — Theorem 9: `k`
    /// processes share an `n_names`-register dedicated arena (the grid's
    /// `N` axis sizes the arena); the last `servers` of them only
    /// service their `Help` row (the paper's fairness assumption) while
    /// the rest each perform `rounds` deposits per trial.
    Deposit {
        /// Deposits each depositor performs per trial.
        rounds: usize,
        /// Trailing pids that serve instead of depositing (< `k`).
        servers: usize,
    },
}

impl AlgoSpec {
    /// Builds the cell's algorithm instance as a pooled-machine entry
    /// point.
    #[must_use]
    pub fn build_set(
        self,
        alloc: &mut RegAlloc,
        n_names: usize,
        k: usize,
        cfg: &RenameConfig,
    ) -> AlgoSet {
        match self {
            AlgoSpec::MoirAnderson => AlgoSet::MoirAnderson(MoirAnderson::new(alloc, k)),
            AlgoSpec::Efficient => AlgoSet::Rename(Box::new(EfficientRename::new(alloc, k, cfg))),
            AlgoSpec::Snapshot => AlgoSet::SnapshotRename(SnapshotRename::new(alloc, k)),
            AlgoSpec::Basic => AlgoSet::Rename(Box::new(BasicRename::new(alloc, n_names, k, cfg))),
            AlgoSpec::PolyLog => {
                AlgoSet::Rename(Box::new(PolyLogRename::new(alloc, n_names, k, cfg)))
            }
            AlgoSpec::AlmostAdaptive => {
                AlgoSet::Rename(Box::new(AlmostAdaptive::new(alloc, n_names, 4 * k, cfg)))
            }
            AlgoSpec::Adaptive => AlgoSet::Rename(Box::new(AdaptiveRename::new(alloc, 4 * k, cfg))),
            AlgoSpec::Majority => AlgoSet::Majority(Majority::new(alloc, n_names, k, cfg)),
            AlgoSpec::StoreKnown => {
                AlgoSet::StoreCollect(StoreCollect::known(alloc, k, n_names, cfg))
            }
            AlgoSpec::StoreAdaptive => AlgoSet::StoreCollect(StoreCollect::adaptive(alloc, k, cfg)),
            AlgoSpec::Naming { rounds } => AlgoSet::Naming {
                naming: UnboundedNaming::new(alloc, k),
                rounds,
            },
            AlgoSpec::Deposit { rounds, servers } => {
                assert!(servers < k, "need at least one depositor");
                AlgoSet::Deposit {
                    repo: AltruisticDeposit::new(alloc, k, n_names.max(2 * k)),
                    rounds,
                    servers,
                }
            }
        }
    }

    /// Whether the family guarantees that every *surviving* contender
    /// acquires its claim (Majority only promises half; serve-only
    /// deposit helpers claim nothing by design).
    #[must_use]
    pub fn names_all_survivors(self) -> bool {
        !matches!(
            self,
            AlgoSpec::Majority | AlgoSpec::Deposit { servers: 1.., .. }
        )
    }
}

/// The adversary family a grid can schedule under. Every variant is
/// seedable and trace-deterministic; `k` scales crash budgets.
#[derive(Clone, Copy, Debug)]
pub enum AdversarySpec {
    /// Fair cyclic schedule.
    RoundRobin,
    /// Seeded uniformly random schedule.
    Random,
    /// Random schedule + random crashes, at most `k − 1` of them.
    CrashStorm {
        /// Per-decision crash probability.
        probability: f64,
    },
    /// Crashes every process reaching local step `after` (≤ `k − 1`).
    CrashAfter {
        /// The fatal local step index.
        after: u64,
    },
    /// The pigeonhole schedule, crashing up to `k − 1` leaders that
    /// pull more than `lead` steps ahead.
    Pigeonhole {
        /// Tolerated lead before the front-runner is crashed.
        lead: u64,
    },
    /// Bursts of `burst` consecutive steps per randomly chosen process.
    Bursty {
        /// Steps granted per burst.
        burst: u64,
    },
}

impl AdversarySpec {
    /// Builds the policy for one trial.
    #[must_use]
    pub fn build(self, seed: u64, k: usize) -> Box<dyn Policy> {
        let budget = k.saturating_sub(1);
        match self {
            AdversarySpec::RoundRobin => Box::new(RoundRobin::new()),
            AdversarySpec::Random => Box::new(RandomPolicy::new(seed)),
            AdversarySpec::CrashStorm { probability } => Box::new(CrashStorm::new(
                Box::new(RandomPolicy::new(seed)),
                !seed,
                probability,
                budget,
            )),
            AdversarySpec::CrashAfter { after } => Box::new(CrashAfter::new(
                Box::new(RandomPolicy::new(seed)),
                after,
                budget,
            )),
            AdversarySpec::Pigeonhole { lead } => {
                Box::new(Pigeonhole::new(seed).crash_leaders(lead, budget))
            }
            AdversarySpec::Bursty { burst } => Box::new(Bursty::new(seed, burst)),
        }
    }

    /// A short label for table rows.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            AdversarySpec::RoundRobin => "round-robin".into(),
            AdversarySpec::Random => "random".into(),
            AdversarySpec::CrashStorm { probability } => format!("storm(p={probability})"),
            AdversarySpec::CrashAfter { after } => format!("crash-after({after})"),
            AdversarySpec::Pigeonhole { lead } => format!("pigeonhole(lead={lead})"),
            AdversarySpec::Bursty { burst } => format!("bursty({burst})"),
        }
    }
}

/// Runs one grid scenario: for every `(N, k)` cell, builds the
/// algorithm instance and its machine pool **once**, then sweeps the
/// seeds through the allocation-free pooled trial loop
/// ([`crate::runner::sweep_pool_sharded`]) on one reusable,
/// contention-measuring slab-backed `StepEngine`, and emits a table with
/// the folded worst cases and engine metrics. Safety (claim
/// exclusiveness among survivors) is asserted inside the sweep on every
/// trial. Returns the rows as JSON objects for `--json-out` artifact
/// persistence; on top of the table columns the JSON rows carry the
/// shard axis (`shards`, `shard_ops`, `shard_contention`) and the slab
/// bank's occupancy telemetry (`slab_live`, `slab_peak`).
///
/// The grids run on the [`exsel_shm::SlabBank`] backend — trials are
/// bit-identical to the `Arc` bank (`tests/pooled_determinism.rs`
/// proves it for every family × policy), so the emitted statistics are
/// unchanged and the scenario doubles as a large-surface exercise of
/// the slab path.
///
/// # Panics
///
/// Panics if exclusiveness is violated, or — for families that
/// guarantee it — if a surviving contender ends up without a claim.
pub fn run_grid(name: &str, spec: &GridSpec) -> Vec<serde_json::Value> {
    let cfg = RenameConfig::default();
    let mut table = Table::new(
        format!(
            "scenario {name} — {:?} under {}",
            spec.algo,
            spec.adversary.label()
        ),
        &[
            "N",
            "k",
            "trials",
            "named_min",
            "crashed",
            "budget_crashed",
            "max_name",
            "max_steps",
            "total_ops",
            "max_contention",
            "hot_reg_ops",
            "registers",
            "snap_allocs",
            "snap_recycled",
        ],
    );
    // Budget exhaustion is reported (budget_crashed column), not a
    // panic: a livelocking grid cell records its trials instead of
    // killing the whole scenario run.
    let mut engine = StepEngine::reusable_with(0, SlabBank::new())
        .measure_contention(true)
        .panic_on_budget(false);
    let mut artifact = Vec::new();
    for &(n_names, k) in &spec.grid {
        let originals = spread_originals(k, n_names);
        let stats: TrialStats = sweep_pool_sharded(
            &mut engine,
            spec.seeds.clone(),
            &originals,
            |alloc| spec.algo.build_set(alloc, n_names, k, &cfg),
            |seed| spec.adversary.build(seed, k),
            spec.shards,
        );
        if spec.algo.names_all_survivors() {
            assert_eq!(
                stats.max_unnamed_survivors, 0,
                "scenario {name}: survivors left unnamed at N={n_names}, k={k}"
            );
        }
        let mut row = serde_json::Map::new();
        row.insert("scenario".into(), serde_json::Value::String(name.into()));
        row.insert(
            "algo".into(),
            serde_json::Value::String(format!("{:?}", spec.algo)),
        );
        row.insert(
            "adversary".into(),
            serde_json::Value::String(spec.adversary.label()),
        );
        // `policy` mirrors `adversary` under the key the service rows
        // use, so every --json-out row (grid or service) carries the
        // same seed/shards/policy triple.
        row.insert(
            "policy".into(),
            serde_json::Value::String(spec.adversary.label()),
        );
        for (key, value) in [
            ("seed", spec.seeds.start),
            ("N", n_names as u64),
            ("k", k as u64),
            ("trials", stats.trials()),
            ("named_min", stats.min_named as u64),
            ("crashed", stats.crashed() as u64),
            ("budget_crashed", stats.budget_crashed() as u64),
            ("max_name", stats.max_name),
            ("max_steps", stats.max_steps()),
            ("total_ops", stats.metrics.total_ops),
            ("max_contention", stats.metrics.max_contention as u64),
            (
                "hot_reg_ops",
                stats.metrics.hottest_register().map_or(0, |(_, ops)| ops),
            ),
            ("registers", stats.registers as u64),
            ("snap_allocs", stats.metrics.snapshot.fresh_allocations()),
            ("snap_recycled", stats.metrics.snapshot.recycled()),
            // The shard axis: grant counts per shard sum to total_ops
            // (all zero width when unsharded), contention is the worst
            // same-register pending count seen within any one shard.
            ("shards", spec.shards as u64),
            ("shard_ops", stats.metrics.shard_ops.iter().sum::<u64>()),
            (
                "shard_contention",
                stats
                    .metrics
                    .shard_contention
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0) as u64,
            ),
            // Slab occupancy: Snap-payload slots still live after the
            // cell's last trial, and the engine-lifetime peak (the slab
            // is reused across cells, so the peak is cumulative).
            ("slab_live", engine.bank().live_slots() as u64),
            ("slab_peak", engine.bank().peak_slots() as u64),
        ] {
            row.insert(key.into(), serde_json::Value::from(value));
        }
        artifact.push(serde_json::Value::Object(row));
        table.row(&[
            n_names.to_string(),
            k.to_string(),
            stats.trials().to_string(),
            stats.min_named.to_string(),
            stats.crashed().to_string(),
            stats.budget_crashed().to_string(),
            stats.max_name.to_string(),
            stats.max_steps().to_string(),
            stats.metrics.total_ops.to_string(),
            stats.metrics.max_contention.to_string(),
            stats
                .metrics
                .hottest_register()
                .map_or(0, |(_, ops)| ops)
                .to_string(),
            stats.registers.to_string(),
            stats.metrics.snapshot.fresh_allocations().to_string(),
            stats.metrics.snapshot.recycled().to_string(),
        ]);
    }
    table.emit();
    artifact
}

/// A table scenario entry.
fn table(name: &'static str, summary: &'static str, run: fn()) -> Scenario {
    Scenario {
        name,
        summary,
        kind: Kind::Table(run),
    }
}

/// A grid scenario entry.
fn grid(name: &'static str, summary: &'static str, spec: GridSpec) -> Scenario {
    Scenario {
        name,
        summary,
        kind: Kind::Grid(spec),
    }
}

/// Every named scenario, tables first, grids after.
#[must_use]
pub fn registry() -> Vec<Scenario> {
    vec![
        table(
            "majority",
            "T1 Lemma 4: Majority renames ≥ half in O(log N) steps",
            expts::majority::run,
        ),
        table(
            "basic",
            "T2 Lemma 5: Basic-Rename in O(log k · log N) steps",
            expts::basic::run,
        ),
        table(
            "polylog",
            "T3 Theorem 1: PolyLog-Rename with M = O(k)",
            expts::polylog::run,
        ),
        table(
            "compare",
            "T4 Theorem 2 vs prior k-renaming work",
            expts::compare::run,
        ),
        table(
            "almost-adaptive",
            "T5 Theorem 3: names O(k) at unknown contention",
            expts::almost_adaptive::run,
        ),
        table(
            "adaptive",
            "T6 Theorem 4: fully adaptive, M ≤ 8k − lg k − 1",
            expts::adaptive::run,
        ),
        table(
            "lowerbound",
            "T7 Theorems 6-7: pigeonhole adversary vs real algorithms",
            expts::lowerbound::run,
        ),
        table(
            "storecollect",
            "T8 Theorem 5: Store&Collect step costs per setting",
            expts::storecollect::run,
        ),
        table(
            "repository",
            "T9 Theorems 8-9: repository waste under crash storms",
            expts::repository::run,
        ),
        table(
            "scaling",
            "S1 large-k scaling on real threads",
            expts::scaling::run,
        ),
        table(
            "ablation",
            "A1-A3 design-choice ablations (pipeline, expander profile, width)",
            expts::ablation::run,
        ),
        table(
            "engine",
            "T11 backend + engine-reuse wall-clock (writes BENCH_engine.json)",
            expts::engine::run,
        ),
        table(
            "mega",
            "n=10^6 majority sweep: slab vs Arc register bank, sharded (updates BENCH_engine.json)",
            expts::mega::run,
        ),
        Scenario {
            name: "explore-reduced",
            summary:
                "reduced exhaustive exploration: sleep-set DPOR + symmetry (updates BENCH_engine.json)",
            kind: Kind::TableWith(|ov| {
                expts::reduced::run(ov.reduce.unwrap_or_default(), ov.quick);
            }),
        },
        grid(
            "smoke",
            "tiny fair-schedule grid for CI (seconds, asserts safety)",
            GridSpec {
                algo: AlgoSpec::MoirAnderson,
                adversary: AdversarySpec::Random,
                grid: vec![(16, 4), (32, 8)],
                seeds: 0..3,
                shards: 1,
            },
        ),
        grid(
            "storm-efficient",
            "Efficient-Rename under k−1 random crashes: survivors still exclusive",
            GridSpec {
                algo: AlgoSpec::Efficient,
                adversary: AdversarySpec::CrashStorm { probability: 0.05 },
                grid: vec![(32, 8), (64, 16), (128, 32)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "crash-after-moir",
            "Moir-Anderson with every process culled at step 6",
            GridSpec {
                algo: AlgoSpec::MoirAnderson,
                adversary: AdversarySpec::CrashAfter { after: 6 },
                grid: vec![(32, 8), (64, 16), (128, 32)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "pigeonhole-adaptive",
            "Adaptive-Rename vs the Theorem 6 pigeonhole schedule (leader-crashing)",
            GridSpec {
                algo: AlgoSpec::Adaptive,
                adversary: AdversarySpec::Pigeonhole { lead: 8 },
                grid: vec![(64, 4), (64, 8), (256, 16)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "bursty-basic",
            "Basic-Rename under burst schedules (worst splitter contention)",
            GridSpec {
                algo: AlgoSpec::Basic,
                adversary: AdversarySpec::Bursty { burst: 3 },
                grid: vec![(256, 8), (1024, 16)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "bursty-snapshot",
            "snapshot renaming under burst schedules (scan-heavy baseline)",
            GridSpec {
                algo: AlgoSpec::Snapshot,
                adversary: AdversarySpec::Bursty { burst: 24 },
                grid: vec![(32, 8), (64, 16)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "storm-storecollect",
            "adaptive Store&Collect first stores under k−1 random crashes: value registers stay exclusive",
            GridSpec {
                algo: AlgoSpec::StoreAdaptive,
                adversary: AdversarySpec::CrashStorm { probability: 0.05 },
                grid: vec![(64, 4), (128, 8), (256, 16)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "storecollect-known",
            "Store&Collect setting (i) first stores over the (N, k) grid",
            GridSpec {
                algo: AlgoSpec::StoreKnown,
                adversary: AdversarySpec::Random,
                grid: vec![(64, 4), (256, 8)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "naming-repository",
            "Unbounded-Naming: k processes each claim 3 integers, claims stay exclusive",
            GridSpec {
                algo: AlgoSpec::Naming { rounds: 3 },
                adversary: AdversarySpec::Random,
                grid: vec![(16, 2), (16, 4), (16, 8)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "bursty-naming",
            "Unbounded-Naming under burst schedules + crashless contention",
            GridSpec {
                algo: AlgoSpec::Naming { rounds: 2 },
                adversary: AdversarySpec::Bursty { burst: 8 },
                grid: vec![(16, 2), (16, 4)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "snapshot-compact",
            "large-n snapshot renaming over the view-recycling record arena (memory-compaction axis)",
            GridSpec {
                algo: AlgoSpec::Snapshot,
                adversary: AdversarySpec::Random,
                grid: vec![(63, 32), (127, 64), (255, 128)],
                seeds: 0..3,
                shards: 1,
            },
        ),
        Scenario {
            name: "service-smoke",
            summary: "seconds-scale open-loop service run for CI (diurnal arrivals, mild hazard)",
            kind: Kind::Service(expts::service::smoke_spec()),
        },
        Scenario {
            name: "service-steady",
            summary:
                "10^6 open-loop client sessions at steady state, 0-alloc (updates BENCH_engine.json)",
            kind: Kind::Service(expts::service::steady_spec()),
        },
        Scenario {
            name: "service-storm",
            summary:
                "service under crash storms: shed load, bounded p999, exclusive tickets (updates BENCH_engine.json)",
            kind: Kind::Service(expts::service::storm_spec()),
        },
        Scenario {
            name: "service-mega",
            summary:
                "10^4-slot sharded fleet: per-shard admission + slab banks, 10^6 sessions (updates BENCH_engine.json)",
            kind: Kind::Mega(expts::service::mega_spec()),
        },
        grid(
            "deposit-serve",
            "Altruistic deposit with one serve-only helper: deposits stay exclusive under crashes",
            GridSpec {
                algo: AlgoSpec::Deposit {
                    rounds: 2,
                    servers: 1,
                },
                adversary: AdversarySpec::CrashStorm { probability: 0.02 },
                grid: vec![(512, 2), (512, 3), (768, 4)],
                seeds: 0..10,
                shards: 1,
            },
        ),
        grid(
            "bursty-deposit",
            "all-depositor altruistic repository under burst schedules (Theorem 9 wait-freedom)",
            GridSpec {
                algo: AlgoSpec::Deposit {
                    rounds: 2,
                    servers: 0,
                },
                adversary: AdversarySpec::Bursty { burst: 8 },
                grid: vec![(512, 2), (768, 3)],
                seeds: 0..10,
                shards: 1,
            },
        ),
    ]
}

/// The registry as a plain-text catalog, one `name  kind  summary` line
/// per scenario — the exact block README.md embeds between its
/// `expt-list` markers (`crates/bench/tests/readme_catalog.rs` asserts
/// they match, so the README cannot drift from the registry).
#[must_use]
pub fn catalog() -> String {
    let mut out = String::new();
    for s in registry() {
        let kind = match s.kind {
            Kind::Table(_) | Kind::TableWith(_) => "table",
            Kind::Grid(_) => "grid",
            Kind::Service(_) | Kind::Mega(_) => "service",
        };
        out.push_str(&format!("{:<19} {:<7} {}\n", s.name, kind, s.summary));
    }
    out
}

/// Looks a scenario up by name.
#[must_use]
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// Executes one scenario; grid scenarios return their rows as JSON
/// objects (tables return `None` — their bodies print and persist their
/// own artifacts).
pub fn run_scenario(scenario: &Scenario) -> Option<Vec<serde_json::Value>> {
    run_scenario_with(scenario, &RunOverrides::default())
}

/// Executes one scenario with CLI overrides ([`RunOverrides`] reach
/// [`Kind::TableWith`] bodies; grid overrides are applied by [`cli`]
/// before this is called).
pub fn run_scenario_with(
    scenario: &Scenario,
    overrides: &RunOverrides,
) -> Option<Vec<serde_json::Value>> {
    match &scenario.kind {
        Kind::Table(run) => {
            run();
            None
        }
        Kind::TableWith(run) => {
            run(overrides);
            None
        }
        Kind::Grid(spec) => Some(run_grid(scenario.name, spec)),
        Kind::Service(spec) => Some(expts::service::run(scenario.name, spec, overrides)),
        Kind::Mega(spec) => Some(expts::service::run_mega(scenario.name, spec, overrides)),
    }
}

/// CLI overrides parsed from `expt -- run <name> ...` flags.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RunOverrides {
    /// `--seeds N`: run seeds `0..N` per cell instead of the registry
    /// default.
    pub seeds: Option<u64>,
    /// `--sizes a,b,c`: replace the grid with these cells. Each entry is
    /// `k` (the cell keeps `N = 8k`) or an explicit `N:k` pair.
    pub sizes: Option<Vec<(usize, usize)>>,
    /// `--json-out <path>`: persist grid rows as a JSON artifact (e.g.
    /// `BENCH_grid.json`).
    pub json_out: Option<String>,
    /// `--shards k`: run the grid's trials on the sharded grant loop
    /// with `k` pending-set shards instead of the registry default.
    pub shards: Option<usize>,
    /// `--reduce on|off|both`: which arms the `explore-reduced` table
    /// runs (tables and grids other than `explore-reduced` reject it).
    pub reduce: Option<crate::expts::reduced::ReduceMode>,
    /// `--quick`: run `explore-reduced` at bench-gate scale (smaller
    /// store&collect differential, fewer timing iterations) without
    /// touching `BENCH_engine.json`.
    pub quick: bool,
}

impl RunOverrides {
    /// Applies the overrides to a grid spec (tables ignore them).
    fn apply(&self, spec: &mut GridSpec) {
        if let Some(seeds) = self.seeds {
            spec.seeds = 0..seeds;
        }
        if let Some(sizes) = &self.sizes {
            spec.grid = sizes.clone();
        }
        if let Some(shards) = self.shards {
            spec.shards = shards;
        }
    }
}

/// Parses one `--sizes` entry: `k` or `N:k`.
fn parse_size(entry: &str) -> Result<(usize, usize), String> {
    let bad = |what: &str| format!("bad --sizes entry `{entry}`: {what}");
    match entry.split_once(':') {
        Some((n, k)) => {
            let n: usize = n.parse().map_err(|_| bad("N is not a number"))?;
            let k: usize = k.parse().map_err(|_| bad("k is not a number"))?;
            if k == 0 || n < k {
                return Err(bad("need N ≥ k ≥ 1"));
            }
            Ok((n, k))
        }
        None => {
            let k: usize = entry.parse().map_err(|_| bad("k is not a number"))?;
            if k == 0 {
                return Err(bad("need k ≥ 1"));
            }
            Ok((8 * k, k))
        }
    }
}

/// The `expt` multiplexer CLI behind the single `expt` binary:
///
/// ```text
/// expt -- list [--filter <substr>]
/// expt -- run <name> [--seeds N] [--sizes a,b,c | N:k,...] [--shards k]
///                    [--json-out <path>] [--reduce on|off|both] [--quick]
///                    [--json]
/// ```
///
/// `--seeds`/`--sizes` override a grid scenario's registry defaults;
/// `--json-out` writes the grid rows to a JSON artifact (the repository
/// keeps `BENCH_grid.json` next to `BENCH_engine.json`);
/// `--reduce`/`--quick` select the arms and scale of the
/// `explore-reduced` table.
///
/// Note that JSON *table* output is switched by `Table::emit`, which
/// reads the **process argv** — a `--json` in `args` only has effect
/// when the process was launched with it (as the `expt` binary always
/// is); the filter below merely tolerates its presence while parsing.
///
/// # Errors
///
/// Returns a human-readable message when the command, scenario name or
/// a flag does not resolve; the caller decides the exit code.
pub fn cli(args: &[String]) -> Result<(), String> {
    let args: Vec<&String> = args.iter().filter(|a| *a != "--json").collect();
    match args.first().map(|s| s.as_str()) {
        None | Some("list") => {
            let mut filter = None;
            let mut rest = args.iter().skip(1);
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--filter" => {
                        filter = Some(
                            rest.next()
                                .ok_or_else(|| "--filter needs a substring".to_string())?
                                .to_lowercase(),
                        );
                    }
                    other => return Err(format!("unknown list flag `{other}`")),
                }
            }
            let mut t = Table::new("scenario registry", &["name", "kind", "summary"]);
            for s in registry() {
                if let Some(f) = &filter {
                    if !s.name.to_lowercase().contains(f)
                        && !s.summary.to_lowercase().contains(f)
                    {
                        continue;
                    }
                }
                t.row(&[
                    s.name.to_string(),
                    match s.kind {
                        Kind::Table(_) | Kind::TableWith(_) => "table".into(),
                        Kind::Grid(_) => "grid".into(),
                        Kind::Service(_) | Kind::Mega(_) => "service".into(),
                    },
                    s.summary.to_string(),
                ]);
            }
            t.emit();
            if t.is_empty() {
                println!("(no scenario matches the filter)");
            }
            println!("
run one with: expt -- run <name> [--seeds N] [--sizes a,b,c] [--shards k] [--json-out <path>] [--json]");
            Ok(())
        }
        Some("run") => {
            let name = args
                .get(1)
                .ok_or_else(|| "usage: expt -- run <name> [--seeds N] [--sizes a,b,c] [--shards k] [--json-out <path>]".to_string())?;
            let mut overrides = RunOverrides::default();
            let mut rest = args.iter().skip(2);
            while let Some(flag) = rest.next() {
                let value = |rest: &mut dyn Iterator<Item = &&String>| -> Result<String, String> {
                    rest.next()
                        .map(|s| (*s).clone())
                        .ok_or_else(|| format!("{flag} needs a value"))
                };
                match flag.as_str() {
                    "--seeds" => {
                        let v = value(&mut rest)?;
                        overrides.seeds =
                            Some(v.parse().map_err(|_| format!("bad --seeds `{v}`"))?);
                    }
                    "--sizes" => {
                        let v = value(&mut rest)?;
                        overrides.sizes = Some(
                            v.split(',')
                                .map(parse_size)
                                .collect::<Result<Vec<_>, _>>()?,
                        );
                    }
                    "--json-out" => overrides.json_out = Some(value(&mut rest)?),
                    "--reduce" => {
                        let v = value(&mut rest)?;
                        overrides.reduce = Some(crate::expts::reduced::ReduceMode::parse(&v)?);
                    }
                    "--quick" => overrides.quick = true,
                    "--shards" => {
                        let v = value(&mut rest)?;
                        let shards: usize =
                            v.parse().map_err(|_| format!("bad --shards `{v}`"))?;
                        if shards == 0 {
                            return Err("--shards needs at least one shard".into());
                        }
                        overrides.shards = Some(shards);
                    }
                    other => return Err(format!("unknown run flag `{other}`")),
                }
            }
            let mut scenario = find(name).ok_or_else(|| {
                format!(
                    "unknown scenario `{name}` — try `expt -- list`; known: {}",
                    registry()
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
            match &mut scenario.kind {
                Kind::Grid(spec) => {
                    if overrides.reduce.is_some() || overrides.quick {
                        return Err(format!(
                            "scenario `{name}` is a grid — --reduce/--quick only apply to the explore-reduced table"
                        ));
                    }
                    overrides.apply(spec);
                }
                Kind::Service(_) => {
                    if overrides.sizes.is_some()
                        || overrides.shards.is_some()
                        || overrides.reduce.is_some()
                    {
                        return Err(format!(
                            "scenario `{name}` is a service run — only --seeds/--quick/--json-out apply"
                        ));
                    }
                }
                Kind::Mega(_) => {
                    if overrides.sizes.is_some() || overrides.reduce.is_some() {
                        return Err(format!(
                            "scenario `{name}` is a sharded service run — only --seeds/--shards/--quick/--json-out apply"
                        ));
                    }
                }
                Kind::TableWith(_) => {
                    if overrides.seeds.is_some()
                        || overrides.sizes.is_some()
                        || overrides.shards.is_some()
                        || overrides.json_out.is_some()
                    {
                        return Err(format!(
                            "scenario `{name}` only takes --reduce/--quick — --seeds/--sizes/--shards/--json-out apply to grids"
                        ));
                    }
                }
                Kind::Table(_) => {
                    if overrides != RunOverrides::default() {
                        return Err(format!(
                            "scenario `{name}` is a table — --seeds/--sizes/--shards/--json-out only apply to grids, --reduce/--quick to explore-reduced"
                        ));
                    }
                }
            }
            let jsonl = matches!(scenario.kind, Kind::Service(_) | Kind::Mega(_));
            let rows = run_scenario_with(&scenario, &overrides);
            if let Some(path) = &overrides.json_out {
                let rows = rows.expect("json-out rejected for tables above");
                // Service telemetry is a JSON Lines time series (one
                // window object per line); grids stay a JSON array.
                let text = if jsonl {
                    rows.iter().map(|row| format!("{row}\n")).collect()
                } else {
                    format!("{}\n", serde_json::Value::Array(rows))
                };
                std::fs::write(path, text)
                    .map_err(|e| format!("could not write {path}: {e}"))?;
                println!("wrote {path}");
            }
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown command `{other}` — usage: expt -- (list [--filter <substr>] | run <name> [--seeds N] [--sizes a,b,c] [--shards k] [--json-out <path>]) [--json]"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_all_tables() {
        let reg = registry();
        let names: std::collections::BTreeSet<&str> = reg.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), reg.len(), "duplicate scenario names");
        // Every reproduction table is reachable through the registry
        // under its table name.
        for legacy in [
            "majority",
            "basic",
            "polylog",
            "compare",
            "almost-adaptive",
            "adaptive",
            "lowerbound",
            "storecollect",
            "repository",
            "scaling",
            "ablation",
            "engine",
        ] {
            assert!(names.contains(legacy), "missing table scenario {legacy}");
        }
    }

    #[test]
    fn smoke_grid_runs_clean() {
        let scenario = find("smoke").expect("smoke scenario registered");
        run_scenario(&scenario);
    }

    #[test]
    fn grid_with_crashes_keeps_survivors_exclusive() {
        // A small storm grid: sweep asserts exclusiveness per trial.
        run_grid(
            "test-storm",
            &GridSpec {
                algo: AlgoSpec::MoirAnderson,
                adversary: AdversarySpec::CrashStorm { probability: 0.2 },
                grid: vec![(16, 4)],
                seeds: 0..5,
                shards: 1,
            },
        );
    }

    #[test]
    fn every_adversary_spec_builds_and_schedules() {
        for adv in [
            AdversarySpec::RoundRobin,
            AdversarySpec::Random,
            AdversarySpec::CrashStorm { probability: 0.1 },
            AdversarySpec::CrashAfter { after: 3 },
            AdversarySpec::Pigeonhole { lead: 4 },
            AdversarySpec::Bursty { burst: 5 },
        ] {
            run_grid(
                "test-adversaries",
                &GridSpec {
                    algo: AlgoSpec::Efficient,
                    adversary: adv,
                    grid: vec![(16, 4)],
                    seeds: 0..2,
                    shards: 1,
                },
            );
        }
    }

    #[test]
    fn cli_rejects_unknown_scenarios() {
        assert!(cli(&["run".into(), "no-such".into()]).is_err());
        assert!(cli(&["frobnicate".into()]).is_err());
    }

    #[test]
    fn cli_rejects_bad_flags() {
        assert!(cli(&["run".into(), "smoke".into(), "--seeds".into()]).is_err());
        assert!(cli(&["run".into(), "smoke".into(), "--seeds".into(), "x".into()]).is_err());
        assert!(cli(&["run".into(), "smoke".into(), "--sizes".into(), "0".into()]).is_err());
        assert!(cli(&["run".into(), "smoke".into(), "--sizes".into(), "4:8".into()]).is_err());
        assert!(cli(&["run".into(), "smoke".into(), "--shards".into()]).is_err());
        assert!(cli(&["run".into(), "smoke".into(), "--shards".into(), "x".into()]).is_err());
        assert!(cli(&["run".into(), "smoke".into(), "--shards".into(), "0".into()]).is_err());
        assert!(cli(&["run".into(), "smoke".into(), "--frob".into()]).is_err());
        assert!(cli(&["list".into(), "--frob".into()]).is_err());
        // Table scenarios reject grid-only overrides without running.
        assert!(cli(&[
            "run".into(),
            "majority".into(),
            "--seeds".into(),
            "1".into()
        ])
        .is_err());
    }

    #[test]
    fn cli_overrides_and_json_artifact() {
        let dir = std::env::temp_dir().join(format!("exsel_grid_{}", std::process::id()));
        let path = dir.to_string_lossy().to_string();
        cli(&[
            "run".into(),
            "smoke".into(),
            "--seeds".into(),
            "2".into(),
            "--sizes".into(),
            "4,32:8".into(),
            "--json-out".into(),
            path.clone(),
        ])
        .expect("overridden smoke run succeeds");
        let artifact = std::fs::read_to_string(&path).expect("artifact written");
        let _ = std::fs::remove_file(&path);
        // Two cells: bare `4` (N = 32) and explicit `32:8`; two seeds.
        assert!(artifact.contains("\"scenario\":\"smoke\""));
        assert!(artifact.contains("\"trials\":2"));
        assert!(artifact.contains("\"k\":4"));
        assert!(artifact.contains("\"k\":8"));
        assert!(artifact.contains("\"shards\":1"));
    }

    #[test]
    fn sharded_grid_rows_carry_the_shard_axis() {
        let rows = run_grid(
            "test-sharded",
            &GridSpec {
                algo: AlgoSpec::MoirAnderson,
                adversary: AdversarySpec::Random,
                grid: vec![(32, 8)],
                seeds: 0..3,
                shards: 4,
            },
        );
        assert_eq!(rows.len(), 1);
        let serde_json::Value::Object(row) = &rows[0] else {
            panic!("grid row is not an object");
        };
        assert_eq!(row.get("shards"), Some(&serde_json::Value::from(4u64)));
        // Every granted op lands in some shard.
        assert_eq!(row.get("shard_ops"), row.get("total_ops"));
        assert!(row.get("slab_live").is_some() && row.get("slab_peak").is_some());
    }

    #[test]
    fn shards_override_reaches_the_artifact() {
        let dir = std::env::temp_dir().join(format!("exsel_shards_{}", std::process::id()));
        let path = dir.to_string_lossy().to_string();
        cli(&[
            "run".into(),
            "smoke".into(),
            "--seeds".into(),
            "2".into(),
            "--shards".into(),
            "3".into(),
            "--json-out".into(),
            path.clone(),
        ])
        .expect("sharded smoke run succeeds");
        let artifact = std::fs::read_to_string(&path).expect("artifact written");
        let _ = std::fs::remove_file(&path);
        assert!(artifact.contains("\"shards\":3"));
    }

    #[test]
    fn parse_size_forms() {
        assert_eq!(parse_size("4"), Ok((32, 4)));
        assert_eq!(parse_size("64:16"), Ok((64, 16)));
        assert!(parse_size("").is_err());
        assert!(parse_size("x:4").is_err());
        assert!(parse_size("4:x").is_err());
    }

    #[test]
    fn store_and_naming_grids_run_clean() {
        let rows = run_grid(
            "test-store",
            &GridSpec {
                algo: AlgoSpec::StoreAdaptive,
                adversary: AdversarySpec::CrashStorm { probability: 0.1 },
                grid: vec![(32, 4)],
                seeds: 0..3,
                shards: 1,
            },
        );
        assert_eq!(rows.len(), 1);
        run_grid(
            "test-store-known",
            &GridSpec {
                algo: AlgoSpec::StoreKnown,
                adversary: AdversarySpec::Random,
                grid: vec![(32, 4)],
                seeds: 0..3,
                shards: 1,
            },
        );
        run_grid(
            "test-naming",
            &GridSpec {
                algo: AlgoSpec::Naming { rounds: 2 },
                adversary: AdversarySpec::Random,
                grid: vec![(16, 3)],
                seeds: 0..3,
                shards: 1,
            },
        );
    }

    #[test]
    fn deposit_grids_run_clean() {
        let rows = run_grid(
            "test-deposit",
            &GridSpec {
                algo: AlgoSpec::Deposit {
                    rounds: 2,
                    servers: 0,
                },
                adversary: AdversarySpec::Bursty { burst: 4 },
                grid: vec![(512, 3)],
                seeds: 0..3,
                shards: 1,
            },
        );
        assert_eq!(rows.len(), 1);
        run_grid(
            "test-deposit-serve",
            &GridSpec {
                algo: AlgoSpec::Deposit {
                    rounds: 2,
                    servers: 1,
                },
                adversary: AdversarySpec::CrashStorm { probability: 0.05 },
                grid: vec![(512, 3)],
                seeds: 0..3,
                shards: 1,
            },
        );
    }
}
