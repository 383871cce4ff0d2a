//! T11 — execution backends: the thread-backed lock-step scheduler vs
//! the single-threaded step-machine engine on identical workloads, plus
//! the engine-reuse comparison (a fresh engine and machine pool per
//! trial vs one pair reused through `run_pool`), the snapshot-compaction
//! row, the construction-cost row and, with the `check` feature, the
//! footprint checker's overhead.
//!
//! Both backends replay the *same* executions (same policy ⇒ same trace;
//! the blocking renaming APIs are `drive` adapters over the same step
//! machines), so the comparison isolates the machinery: thread parking +
//! condvar round trips per operation vs a vector walk. Reports wall-clock
//! per workload and the speedup, asserts the engine's executions match
//! the thread-backed ones, and — when run from the repository root —
//! records the numbers in `BENCH_engine.json`.
//!
//! `cargo run --release -p exsel-bench --bin expt -- run engine`

use std::hint::black_box;
use std::time::Instant;

use exsel_core::{AdaptiveRename, Majority, PolyLogRename, RenameConfig};
use exsel_shm::{RegAlloc, RegId};
use exsel_sim::policy::RandomPolicy;
use exsel_sim::{AlgoSet, MachinePool, StepEngine};

use crate::gate::Measurement as Row;
use crate::runner::{fresh_pooled_run, pooled_run, run_sim, spread_originals};
use crate::Table;

/// Wall-clock of `iters` runs of `f`, in seconds.
pub(crate) fn time(iters: u32, mut f: impl FnMut()) -> f64 {
    // One warmup.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// Wall-clock of the fastest of `runs` runs of `f`, in seconds — for
/// one-shot work such as construction, where a single run can hit a
/// one-off allocator stall that an average would carry into the row.
fn fastest(runs: u32, mut f: impl FnMut()) -> f64 {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures every T11 workload and returns the rows. `quick` is the
/// bench-gate mode: fewer trials and iterations and the largest-k
/// majority round skipped — rows keep the same
/// [`crate::gate::workload_key`]s, so the gate compares them against the
/// committed full-scale artifact.
///
/// # Panics
///
/// Panics if any backend pair diverges on the equivalence seeds — a
/// correctness bug, gated here so a wrong-but-fast engine can never pass.
#[must_use]
pub fn measure(quick: bool) -> Vec<Row> {
    let cfg = RenameConfig::default();
    let mut rows = Vec::new();

    // Majority-renaming rounds under a seeded random schedule.
    let majority_ks: &[usize] = if quick { &[8, 32] } else { &[8, 32, 128] };
    for &k in majority_ks {
        let mut alloc = RegAlloc::new();
        let set = AlgoSet::Majority(Majority::new(&mut alloc, 1024, k, &cfg));
        let AlgoSet::Majority(algo) = &set else {
            unreachable!()
        };
        let regs = alloc.total();
        let originals = spread_originals(k, 1024);
        // Equivalence first: identical names and step counts.
        let a = run_sim(algo, regs, &originals, 7);
        let b = fresh_pooled_run(&set, regs, &originals, 7);
        assert_eq!(a.names, b.names, "backends diverged at k={k}");
        assert_eq!(a.steps, b.steps, "backends diverged at k={k}");
        let iters = if k >= 128 {
            3
        } else if quick {
            5
        } else {
            10
        };
        let threads_s = time(iters, || {
            run_sim(algo, regs, &originals, 7);
        });
        let engine_s = time(iters, || {
            fresh_pooled_run(&set, regs, &originals, 7);
        });
        rows.push(Row {
            workload: format!("majority_round/k={k}"),
            baseline: "threads",
            contender: "engine",
            baseline_s: threads_s,
            contender_s: engine_s,
            extras: Vec::new(),
        });
    }

    // Engine reuse: the same seed sweep with a fresh engine and pool per
    // trial vs one pair reused through `run_pool`. Isolates the
    // per-trial construction cost (register bank, scratch, metric
    // buffers, machines) that the reusable API amortizes.
    {
        let trials = if quick { 16u64 } else { 64u64 };
        let k = 32usize;
        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::Majority(Majority::new(&mut alloc, 1024, k, &cfg));
        let regs = alloc.total();
        let originals = spread_originals(k, 1024);
        // Equivalence: the reused pair replays the fresh pairs' runs.
        {
            let mut reused = StepEngine::reusable(regs);
            let mut pool = algo.pool(&originals);
            for seed in 0..8 {
                let fresh = fresh_pooled_run(&algo, regs, &originals, seed);
                reused.run_pool(&mut RandomPolicy::new(seed), &mut pool);
                let again = pooled_run(&reused, &pool);
                assert_eq!(fresh.names, again.names, "reuse diverged at seed {seed}");
                assert_eq!(fresh.steps, again.steps, "reuse diverged at seed {seed}");
            }
        }
        let iters = if quick { 3 } else { 5 };
        let fresh_s = time(iters, || {
            for seed in 0..trials {
                fresh_pooled_run(&algo, regs, &originals, seed);
            }
        });
        let reused_s = time(iters, || {
            let mut engine = StepEngine::reusable(regs);
            let mut pool = algo.pool(&originals);
            for seed in 0..trials {
                engine.run_pool(&mut RandomPolicy::new(seed), &mut pool);
                pooled_run(&engine, &pool);
            }
        });
        rows.push(Row {
            workload: format!("engine_reuse/majority k={k} x{trials}"),
            baseline: "fresh",
            contender: "reused",
            baseline_s: fresh_s,
            contender_s: reused_s,
            extras: Vec::new(),
        });
    }

    // Construction cost: `EfficientRename` sizes its PolyLog stage by
    // arithmetic and builds it only where it shrinks the name range, which
    // no phase of an n = 256 `AdaptiveRename` reaches (the first is
    // k = 1024). The `speculative` arm adds back the selection by trial
    // build: every phase's PolyLog stage built on a scratch allocator
    // and dropped.
    {
        const N: usize = 256;
        let builds = if quick { 5 } else { 10 };
        let adaptive = || {
            let mut alloc = RegAlloc::new();
            black_box(AdaptiveRename::new(&mut alloc, N, &cfg));
        };
        let speculative_s = fastest(builds, || {
            adaptive();
            for i in 0..=N.ilog2() {
                let k = 1usize << i;
                let phase = cfg.child(0x40_0000 + u64::from(i));
                let mut scratch = RegAlloc::new();
                black_box(PolyLogRename::new(
                    &mut scratch,
                    k * (k + 1) / 2,
                    k,
                    &phase.child(0x20_0000),
                ));
            }
        });
        let arithmetic_s = fastest(builds, adaptive);
        rows.push(Row {
            workload: format!("construct/adaptive_rename/n={N}"),
            baseline: "speculative",
            contender: "arithmetic",
            baseline_s: speculative_s,
            contender_s: arithmetic_s,
            extras: Vec::new(),
        });
    }

    // Checker overhead on a pooled majority sweep: the dynamic
    // footprint checker observes every granted operation (two interval
    // lookups plus a dense last-writer clock update). Its budget is ≤10%
    // over checker-off — the `check_off` category floor of 0.9 in the
    // gate. Only measured when the `check` feature is compiled in; the
    // committed row is regenerated with `--features check`.
    #[cfg(feature = "check")]
    {
        // Not as small as the other quick blocks: sub-millisecond
        // windows make the ratio noisy enough to trip the gate on an
        // otherwise healthy run.
        let trials = if quick { 32u64 } else { 64u64 };
        let k = 32usize;
        let mut alloc = RegAlloc::new();
        let algo_set = AlgoSet::Majority(Majority::new(&mut alloc, 1024, k, &cfg));
        let regs = alloc.total();
        let originals = spread_originals(k, 1024);
        let iters = 5;
        let off_s = time(iters, || {
            let mut engine = StepEngine::reusable(regs);
            let mut pool = algo_set.pool(&originals);
            for seed in 0..trials {
                let mut policy = RandomPolicy::new(seed);
                engine.run_pool(&mut policy, &mut pool);
            }
        });
        let on_s = time(iters, || {
            let mut engine = StepEngine::reusable(regs);
            engine.install_checker(
                algo_set
                    .checker(k, regs)
                    .expect("static pass accepts the majority renamer"),
            );
            let mut pool = algo_set.pool(&originals);
            for seed in 0..trials {
                let mut policy = RandomPolicy::new(seed);
                engine.run_pool(&mut policy, &mut pool);
                assert_eq!(
                    engine.metrics().checker_violations,
                    0,
                    "checked bench sweep violated its footprints"
                );
            }
        });
        rows.push(Row {
            workload: format!("machine_pool/checked_majority/k={k} x{trials}"),
            baseline: "check_off",
            contender: "check_on",
            baseline_s: off_s,
            contender_s: on_s,
            extras: Vec::new(),
        });
    }

    // Snapshot compaction: one n = 128 snapshot object (the memory
    // shape whose embedded views dominate at large n) under pooled
    // single-writer updates, recycling arena off vs on. The "allocs"
    // extras are the arena's own fresh-allocation counters over the
    // measured sweeps — with recycling on they collapse to the warm-up
    // residue; with it off every update installs a fresh record and
    // every direct scan collects a fresh view.
    {
        use exsel_shm::snapshot::UpdateOp;
        use exsel_shm::{Snapshot, Word};
        const N: usize = 128;
        let trials = if quick { 2u64 } else { 8u64 };
        let build = |recycle: bool| {
            let mut alloc = RegAlloc::new();
            (
                Snapshot::new(&mut alloc, N).recycling(recycle),
                alloc.total(),
            )
        };
        let sweep = |engine: &mut StepEngine, pool: &mut MachinePool<UpdateOp>| {
            for seed in 0..trials {
                let mut policy = RandomPolicy::new(seed);
                engine.run_pool(&mut policy, pool);
            }
        };
        let pool_of = |snap: &Snapshot| -> MachinePool<UpdateOp> {
            (0..N)
                .map(|p| snap.begin_update(p, Word::Int(p as u64 + 1)))
                .collect()
        };
        // Equivalence: recycling must not change a single granted op.
        let (snap_off, regs) = build(false);
        let (snap_on, _) = build(true);
        {
            let mut engine_off = StepEngine::reusable(regs).record_trace(true);
            let mut engine_on = StepEngine::reusable(regs).record_trace(true);
            let mut pool_off = pool_of(&snap_off);
            let mut pool_on = pool_of(&snap_on);
            for seed in 0..3 {
                let mut policy = RandomPolicy::new(seed);
                engine_off.run_pool(&mut policy, &mut pool_off);
                let mut policy = RandomPolicy::new(seed);
                engine_on.run_pool(&mut policy, &mut pool_on);
                assert_eq!(
                    engine_off.trace(),
                    engine_on.trace(),
                    "recycling changed the schedule at seed {seed}"
                );
                for r in 0..regs {
                    assert_eq!(
                        engine_off.load_register(RegId(r)),
                        engine_on.load_register(RegId(r)),
                        "recycling changed register {r} at seed {seed}"
                    );
                }
            }
        }
        let timed = if quick { 1u64 } else { 3u64 };
        let measure = |snap: &Snapshot| -> (f64, u64) {
            let mut engine = StepEngine::reusable(regs);
            let mut pool = pool_of(snap);
            // One warm sweep (inside `time`) stretches the arena.
            let before_stats = snap.arena().stats();
            let secs = time(timed as u32, || sweep(&mut engine, &mut pool));
            // `timed + 1` sweeps ran (1 warm + `timed` timed): report the
            // per-sweep average allocation count across them. The gate
            // owns the recycle-on-vs-off floor (`gate::check`).
            let window = snap.arena().stats().since(&before_stats);
            (secs, window.fresh_allocations() / (timed + 1))
        };
        let (off_s, off_allocs) = measure(&snap_off);
        let (on_s, on_allocs) = measure(&snap_on);
        rows.push(Row {
            workload: format!("machine_pool/snapshot_compact/n={N} x{trials}"),
            baseline: "recycle_off",
            contender: "recycle_on",
            baseline_s: off_s,
            contender_s: on_s,
            extras: vec![
                ("recycle_off_allocs", off_allocs),
                ("recycle_on_allocs", on_allocs),
            ],
        });
    }

    rows
}

/// Runs every T11 workload at full scale, emits the table and merges
/// the rows into `BENCH_engine.json` (at the cwd, i.e. the repo root
/// under `cargo run`). Regression floors live in the bench gate
/// ([`crate::gate::check`], run by the `bench_gate` binary in CI), not
/// here — one noisy run must not destroy the regenerated artifact.
///
/// # Panics
///
/// Panics only if a backend pair diverges (see [`measure`]).
pub fn run() {
    let rows = measure(false);

    let mut table = Table::new(
        "T11 execution machinery — backend and engine-reuse comparisons",
        &[
            "workload",
            "baseline",
            "contender",
            "baseline_ms",
            "contender_ms",
            "speedup",
        ],
    );
    for row in &rows {
        table.row(&[
            row.workload.clone(),
            row.baseline.into(),
            row.contender.into(),
            format!("{:.3}", row.baseline_s * 1e3),
            format!("{:.3}", row.contender_s * 1e3),
            format!("{:.2}", row.speedup()),
        ]);
    }
    table.emit();

    if let Err(e) = crate::gate::merge_into_artifact("BENCH_engine.json", &rows) {
        eprintln!("(could not write BENCH_engine.json: {e})");
    } else {
        println!("wrote BENCH_engine.json");
    }

    let backend_speedups: Vec<f64> = rows
        .iter()
        .filter(|r| r.baseline == "threads")
        .map(Row::speedup)
        .collect();
    if !backend_speedups.is_empty() {
        println!(
            "\nstep engine is {:.0}x-{:.0}x faster than threads; executions verified identical per backend.",
            backend_speedups.iter().copied().fold(f64::INFINITY, f64::min),
            backend_speedups.iter().copied().fold(0.0, f64::max)
        );
    }

    if let Some(reuse) = rows.iter().find(|r| r.baseline == "fresh") {
        println!(
            "engine reuse: {:.3} ms fresh vs {:.3} ms reused per sweep ({:.2}x).",
            reuse.baseline_s * 1e3,
            reuse.contender_s * 1e3,
            reuse.speedup()
        );
    }
}
