//! Proof that the pooled trial loop is allocation-free at steady state:
//! a counting global allocator wraps the system allocator, and after a
//! warm-up phase (which stretches every engine/pool/arena buffer to
//! capacity) repeated `run_pool` trials must perform **zero** heap
//! allocations and zero frees.
//!
//! Three tiers of workload prove the claim end to end:
//!
//! * `Majority` renaming machines (no snapshot) — fully in-place resets,
//!   zero-alloc since PR 3.
//! * Snapshot-backed families (unbounded naming, the wait-free deposit)
//!   — historically only "allocation-stable": every snapshot update
//!   installed a fresh copy-on-write `SnapRecord` and every direct scan
//!   collected a fresh view. The per-object `SnapArena` now recycles
//!   displaced records and retired view buffers in place (reclaimed
//!   under `Arc` uniqueness), so these sweeps are **literally zero**
//!   alloc *and* zero free at steady state too.
//! * A `snapshot-compaction` smoke at n = 128 — one large snapshot
//!   object under pooled updates, the memory shape the arena exists
//!   for (O(n²) embedded-view words per object).
//!
//! Warm-up note: with identical seeds, sweeps are deterministic, but the
//! arena's free-lists converge over the first couple of sweeps (which
//! buffer gets reclaimed at a given take can differ while the lists are
//! still growing, transiently shifting peak demand by a buffer or two).
//! Warm-ups below run the measured sweep a few times first; after that,
//! steady state is exact and permanent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exclusive_selection::sim::policy::{RandomPolicy, RoundRobin};
use exclusive_selection::sim::service::mega::{
    MegaServiceConfig, MegaServiceHarness, MegaServiceWorld,
};
use exclusive_selection::sim::service::{
    Admission, Arrivals, ServiceConfig, ServiceHarness, ServiceWorld,
};
use exclusive_selection::sim::{AlgoSet, MachinePool, StepEngine};
use exclusive_selection::{
    Majority, Pid, RegAlloc, RegId, RenameConfig, Snapshot, SnapshotRename, Word,
};
use exsel_core::SnapshotRenameOp;
use exsel_shm::snapshot::UpdateOp;
use exsel_shm::SlabBank;
use exsel_unbounded::{AltruisticDeposit, DepositOp, NamingMachine, UnboundedNaming};

thread_local! {
    /// Only the test thread arms this, strictly around the measured
    /// loop — allocations from harness/runtime threads (or from test
    /// scaffolding outside the window) must not trip the assertion.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counts. Per thread, because tests run in parallel
    /// and one of them measures a window that must allocate (the deposit
    /// baseline with a fresh pool per trial): shared counters would
    /// charge its allocations to any zero-alloc window that overlaps it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one event on this thread if its measuring window is armed.
fn note(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    if MEASURING.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

struct CountingAlloc;

// SAFETY: delegates verbatim to the system allocator; the counters are
// const-initialized thread-locals without destructors (no allocation on
// the TLS path).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(&FREES);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&ALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

/// Allocations and frees on this thread while running `f` with the
/// measuring window armed.
fn measured(f: impl FnOnce()) -> (u64, u64) {
    let before = counts();
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    let after = counts();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn steady_state_pooled_trials_allocate_nothing() {
    let cfg = RenameConfig::default();
    let k = 32usize;
    let mut alloc = RegAlloc::new();
    let algo = AlgoSet::Majority(Majority::new(&mut alloc, 1024, k, &cfg));
    let originals: Vec<u64> = (0..k).map(|i| (i * 1024 / k) as u64 + 1).collect();

    let mut engine = StepEngine::reusable(alloc.total());
    let mut pool = algo.pool(&originals);

    // Warm up: buffers grow to steady-state capacity here.
    for seed in 0..3u64 {
        let mut policy = RandomPolicy::new(seed);
        engine.run_pool(&mut policy, &mut pool);
    }

    // Steady state: machines reset in place, engine scratch and pool
    // buffers reused — the allocator must not be touched at all on this
    // thread while the window is armed.
    let (allocs, frees) = measured(|| {
        for seed in 3..23u64 {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, &mut pool);
            let mut fair = RoundRobin::new();
            engine.run_pool(&mut fair, &mut pool);
        }
    });

    assert_eq!(
        allocs, 0,
        "steady-state pooled trials performed heap allocations"
    );
    assert_eq!(
        frees, 0,
        "steady-state pooled trials freed heap memory (hidden churn)"
    );

    // Sanity: the trials actually ran and named everyone.
    assert_eq!(pool.completed().count(), k);
}

#[test]
fn steady_state_pooled_deposit_trials_are_zero_alloc() {
    const N: usize = 4;
    const ROUNDS: usize = 2;
    let mut alloc = RegAlloc::new();
    let repo = AltruisticDeposit::new(&mut alloc, N, 1024);
    let regs = alloc.total();

    let mut engine = StepEngine::reusable(regs);
    let mut pool: MachinePool<DepositOp<'_>> = (0..N)
        .map(|p| repo.begin_deposit(Pid(p), p as u64 * 1000, ROUNDS))
        .collect();

    let sweep = |engine: &mut StepEngine, pool: &mut MachinePool<DepositOp<'_>>| {
        for seed in 0..6u64 {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, pool);
        }
    };

    // Warm up until the snapshot arena's free-lists cover the sweep's
    // peak record/view demand (see the module docs).
    for _ in 0..3 {
        sweep(&mut engine, &mut pool);
    }

    // Steady state: the historical bound here was "allocation-stable,
    // snapshot-record installs only". With the recycling arena the
    // snapshot-backed deposit sweep is now *literally* allocation-free
    // — and free-free: displaced records are reclaimed, never dropped.
    let arena_before = repo.naming().snapshot().arena().stats();
    let (allocs, frees) = measured(|| {
        for _ in 0..2 {
            sweep(&mut engine, &mut pool);
        }
    });
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "steady-state pooled deposit sweeps must not touch the allocator"
    );
    let arena = repo
        .naming()
        .snapshot()
        .arena()
        .stats()
        .since(&arena_before);
    assert_eq!(arena.fresh_allocations(), 0, "arena missed: {arena:?}");
    assert!(
        arena.recycled() > 0,
        "the sweep exercised no snapshot traffic at all"
    );

    // And the reused pool must beat a fresh pool per trial on the very
    // same trials: the delta is the per-trial machines plus every
    // AcquireOp/ScanOp/UpdateOp buffer the pool re-arms in place.
    let mut alloc = RegAlloc::new();
    let algo = AlgoSet::Deposit {
        repo: AltruisticDeposit::new(&mut alloc, N, 1024),
        rounds: ROUNDS,
        servers: 0,
    };
    let originals: Vec<u64> = (0..N as u64).map(|p| p * 1000).collect();
    let mut fresh_engine = StepEngine::reusable(alloc.total());
    // Warm the engine scratch so only per-trial costs differ.
    fresh_engine.run_pool(&mut RoundRobin::new(), &mut algo.pool(&originals));
    let (fresh_allocs, _) = measured(|| {
        for seed in 0..6u64 {
            let mut policy = RandomPolicy::new(seed);
            fresh_engine.run_pool(&mut policy, &mut algo.pool(&originals));
        }
    });
    assert!(
        fresh_allocs > 0,
        "deposit trials on a fresh pool per trial must allocate (the reused pool wins by {fresh_allocs})"
    );

    // Sanity: deposits happened and stayed exclusive on the last trial.
    let mut all: Vec<u64> = pool
        .machines()
        .iter()
        .flat_map(|m| m.deposits().iter().copied())
        .collect();
    all.sort_unstable();
    assert_eq!(all.len(), N * ROUNDS);
    all.dedup();
    assert_eq!(all.len(), N * ROUNDS, "duplicate deposit registers");
}

#[test]
fn steady_state_pooled_naming_sweeps_are_zero_alloc() {
    // The unbounded-naming acquire loop is the snapshot-heaviest pooled
    // machine: every acquire drives an update + scan of `W`, and every
    // contention retry re-ranks over the published lists. All of it —
    // record installs, direct-scan views, the choose-by-rank scratch —
    // must be allocation-free once warmed.
    const N: usize = 4;
    const ROUNDS: usize = 3;
    let mut alloc = RegAlloc::new();
    let naming = UnboundedNaming::new(&mut alloc, N);
    let mut engine = StepEngine::reusable(alloc.total());
    let mut pool: MachinePool<NamingMachine<'_>> = (0..N)
        .map(|p| naming.begin_machine(Pid(p), ROUNDS))
        .collect();

    let sweep = |engine: &mut StepEngine, pool: &mut MachinePool<NamingMachine<'_>>| {
        for seed in 0..6u64 {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, pool);
        }
    };
    for _ in 0..3 {
        sweep(&mut engine, &mut pool);
    }

    let (allocs, frees) = measured(|| {
        for _ in 0..2 {
            sweep(&mut engine, &mut pool);
        }
    });
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "steady-state pooled naming sweeps must not touch the allocator"
    );

    // Sanity: the last trial claimed N × ROUNDS distinct integers.
    let mut all: Vec<u64> = pool
        .machines()
        .iter()
        .flat_map(|m| m.names().iter().copied())
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), N * ROUNDS, "duplicate names");
}

#[test]
fn steady_state_pooled_snapshot_rename_sweeps_are_zero_alloc() {
    // `SnapshotRenameOp` was the last known steady-state allocation
    // site: every re-proposal round used to construct a fresh `UpdateOp`
    // (with its embedded scanner) and the decide step built fresh sort
    // scratch per scan. With owned, re-armed sub-machines and pooled
    // scratch, the propose/scan/re-propose loop must be exactly
    // (0 allocs, 0 frees) once warmed.
    const K: usize = 8;
    let mut alloc = RegAlloc::new();
    let algo = SnapshotRename::new(&mut alloc, K);
    let mut engine = StepEngine::reusable(alloc.total());
    let mut pool: MachinePool<SnapshotRenameOp<'_>> = (0..K)
        .map(|p| algo.begin_rename_slot(p, 700 + p as u64))
        .collect();

    let sweep = |engine: &mut StepEngine, pool: &mut MachinePool<SnapshotRenameOp<'_>>| {
        for seed in 0..6u64 {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, pool);
        }
    };
    for _ in 0..3 {
        sweep(&mut engine, &mut pool);
    }

    let arena_before = algo.snapshot().arena().stats();
    let (allocs, frees) = measured(|| {
        for _ in 0..2 {
            sweep(&mut engine, &mut pool);
        }
    });
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "steady-state pooled snapshot-rename sweeps must not touch the allocator"
    );
    let arena = algo.snapshot().arena().stats().since(&arena_before);
    assert_eq!(arena.fresh_allocations(), 0, "arena missed: {arena:?}");

    // Sanity: the last trial named every participant, exclusively,
    // within the optimal bound 2K−1.
    let mut names: Vec<u64> = pool
        .results()
        .iter()
        .map(|r| {
            (*r).expect("result recorded")
                .expect("no crashes scheduled")
                .expect_named()
        })
        .collect();
    names.sort_unstable();
    let k = names.len();
    names.dedup();
    assert_eq!(names.len(), k, "duplicate names");
    assert!(names.iter().all(|&m| m >= 1 && m < 2 * K as u64));
}

#[test]
fn repeat_scan_over_unchanged_registers_allocates_nothing() {
    // Regression for the direct double-collect path: a pooled scan
    // re-run over registers that have not moved since its last direct
    // scan must return the generation-tagged cached view — zero
    // allocations, same values, very same buffer.
    let mut alloc = RegAlloc::new();
    let snap = Snapshot::new(&mut alloc, 8);
    let mem = exclusive_selection::ThreadedShm::new(alloc.total(), 1);
    let ctx = exclusive_selection::Ctx::new(&mem, Pid(0));
    for slot in 0..4 {
        snap.update(ctx, slot, Word::Int(slot as u64 + 10)).unwrap();
    }
    let mut op = snap.begin_scan();
    let warm = exclusive_selection::drive(&mut op, ctx).unwrap();

    let mut views = Vec::with_capacity(4);
    let (allocs, frees) = measured(|| {
        for _ in 0..4 {
            op.restart();
            views.push(exclusive_selection::drive(&mut op, ctx).unwrap());
        }
    });
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "repeat scans over unchanged registers must be allocation-free"
    );
    for view in &views {
        assert_eq!(&view[..], &warm[..], "cached view diverged");
    }
}

#[test]
fn snapshot_compaction_smoke_n128() {
    // The compaction smoke: one n = 128 snapshot object — the shape
    // whose embedded views dominate memory (O(n²) words) — under pooled
    // single-writer updates (each embedding a full scan). After warm-up
    // the arena must serve every record and view in place.
    const N: usize = 128;
    let mut alloc = RegAlloc::new();
    let snap = Snapshot::new(&mut alloc, N);
    let mut engine = StepEngine::reusable(alloc.total());
    let mut pool: MachinePool<UpdateOp> = (0..N)
        .map(|p| snap.begin_update(p, Word::Int(p as u64 + 1)))
        .collect();

    let sweep = |engine: &mut StepEngine, pool: &mut MachinePool<UpdateOp>| {
        for seed in 0..3u64 {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, pool);
        }
    };
    for _ in 0..3 {
        sweep(&mut engine, &mut pool);
    }

    let arena_before = snap.arena().stats();
    let (allocs, frees) = measured(|| {
        for _ in 0..2 {
            sweep(&mut engine, &mut pool);
        }
    });
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "n=128 pooled snapshot updates must be allocation-free at steady state"
    );
    let arena = snap.arena().stats().since(&arena_before);
    assert_eq!(arena.fresh_allocations(), 0, "arena missed: {arena:?}");
    assert!(arena.records_recycled >= 2 * 3 * N as u64);

    // Sanity: every writer's component carries its value and a full
    // embedded view.
    assert_eq!(pool.completed().count(), N);
    for slot in 0..N {
        let word = engine.load_register(RegId(slot));
        let rec = word.as_snap().expect("component installed");
        assert_eq!(rec.value, Word::Int(slot as u64 + 1));
        assert_eq!(rec.view.len(), N);
    }
}

/// The dynamic footprint checker (`--features check`) must not cost the
/// zero-alloc property: its clock tables are pre-sized at compile time
/// and `observe` is two interval lookups plus a dense-array clock
/// update, so checker-on steady-state trials — engine sweeps and full
/// service sessions alike — stay at literally (0 allocs, 0 frees).
#[cfg(feature = "check")]
#[test]
fn steady_state_checked_trials_are_zero_alloc() {
    let cfg = RenameConfig::default();
    let k = 32usize;
    let mut alloc = RegAlloc::new();
    let algo = AlgoSet::Majority(Majority::new(&mut alloc, 1024, k, &cfg));
    let originals: Vec<u64> = (0..k).map(|i| (i * 1024 / k) as u64 + 1).collect();

    let mut engine = StepEngine::reusable(alloc.total());
    engine.install_checker(algo.checker(k, alloc.total()).unwrap());
    let mut pool = algo.pool(&originals);
    for seed in 0..3u64 {
        let mut policy = RandomPolicy::new(seed);
        engine.run_pool(&mut policy, &mut pool);
    }

    let (allocs, frees) = measured(|| {
        for seed in 3..23u64 {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool(&mut policy, &mut pool);
        }
    });
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "checker-on steady-state trials must not touch the allocator"
    );
    assert!(engine.metrics().checker_ops > 0);
    assert_eq!(engine.metrics().checker_violations, 0);

    // And end to end: a checker-on service run is zero-alloc at steady
    // state too (the checker is installed before warm-up, so its only
    // allocations — the compiled tables — predate the window).
    let scfg = ServiceConfig {
        seed: 11,
        target_sessions: 3_000,
        ..ServiceConfig::default()
    };
    let world = ServiceWorld::new(&scfg);
    let checker = exclusive_selection::sim::AccessChecker::for_instance(
        &world,
        scfg.slots,
        world.num_registers(),
    )
    .unwrap();
    let mut harness = ServiceHarness::with_bank(&world, &scfg, SlabBank::new());
    harness.install_checker(checker);
    harness.prime();
    assert!(
        harness.run_until(scfg.target_sessions / 10),
        "service drained during warm-up"
    );
    let (allocs, frees) = measured(|| {
        assert!(
            harness.run_until(scfg.target_sessions),
            "service drained before reaching its session target"
        );
    });
    assert_eq!(harness.checker_violations(), 0);
    assert!(harness.checker().unwrap().trial_ops() > 0);
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "checker-on service steady state must be allocation-free"
    );
}

/// The open-loop service harness end to end: Poisson arrivals, pooled
/// acquire→store→collect→deposit sessions, admission control, and the
/// windowed report, all running out of recycled buffers. `ServiceWorld`
/// pre-seeds the naming objects' snapshot arenas with every buffer their
/// holders can pin at once, so after a short warm-up (free-list cursors
/// settle, the report vectors are pre-reserved) the remaining ninety
/// percent of the run must be literally zero-alloc and zero-free.
#[test]
fn steady_state_service_sessions_are_zero_alloc() {
    let cfg = ServiceConfig {
        seed: 11,
        target_sessions: 6_000,
        ..ServiceConfig::default()
    };
    let world = ServiceWorld::new(&cfg);
    let mut harness = ServiceHarness::with_bank(&world, &cfg, SlabBank::new());
    assert!(
        harness.run_until(cfg.target_sessions / 10),
        "service drained during warm-up"
    );
    let (allocs, frees) = measured(|| {
        assert!(
            harness.run_until(cfg.target_sessions),
            "service drained before reaching its session target"
        );
    });
    let report = harness.finish();
    assert_eq!(report.totals.completed, cfg.target_sessions);
    assert!(report.accounted(), "accounting broke: {:?}", report.totals);
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "service steady state must be allocation-free"
    );
}

/// The sharded mega harness at 10⁴ concurrent slots (1250 shards × 8
/// slots, per-shard `SlabBank`s with pre-seeded snapshot slots, one
/// global telemetry sink): after warm-up settles every shard's
/// free-list cursors, the remaining ninety percent of the fleet-wide
/// run must be literally (0 allocs, 0 frees) — the PR 6 slab machinery
/// carrying the PR 8 serving layer without a single steady-state heap
/// touch.
#[test]
fn mega_service_steady_state_is_zero_alloc() {
    let cfg = MegaServiceConfig {
        base: ServiceConfig {
            seed: 23,
            slots: 8,
            target_sessions: 12_000,
            window: 1 << 12,
            // Fleet-wide rate: two arrivals per step (each shard's
            // thinned stream draws gaps with mean 625 steps).
            arrivals: Arrivals::Poisson { mean_gap: 0.5 },
            crash_hazard: 1e-3,
            admission: Admission {
                max_inflight: 8,
                queue_capacity: 16,
                backoff_base: 32,
                backoff_cap: 1 << 10,
                max_retries: 4,
                waiting_capacity: 64,
            },
            ..ServiceConfig::default()
        },
        shards: 1250,
    };
    assert_eq!(cfg.total_slots(), 10_000);
    let world = MegaServiceWorld::new(&cfg);
    let mut harness = MegaServiceHarness::new(&world, &cfg);
    // Priming registers every slot's store&collect infrastructure up
    // front: at 10⁴ slots, lazily warmed slots keep being first-touched
    // deep into the run, which session-count warm-up cannot cover.
    harness.prime();
    assert!(
        harness.run_until(cfg.base.target_sessions / 10),
        "fleet drained during warm-up"
    );
    let (allocs, frees) = measured(|| {
        assert!(
            harness.run_until(cfg.base.target_sessions),
            "fleet drained before reaching its session target"
        );
    });
    let mega = harness.finish();
    assert!(mega.report.totals.completed >= cfg.base.target_sessions);
    assert!(mega.report.accounted(), "{:?}", mega.report.totals);
    assert!(mega.rolled_up(), "shard totals diverge from roll-up");
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "mega service steady state must be allocation-free"
    );
}
