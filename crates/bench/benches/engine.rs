//! Execution-backend comparison: the thread-backed lock-step scheduler
//! (`SimBuilder`) vs the single-threaded step-machine engine
//! (`StepEngine`) on identical workloads — a full Majority-renaming round
//! under a seeded random schedule and a pigeonhole-adversary run — plus
//! the engine-reuse sweep (a fresh engine and machine pool per trial vs
//! one reused pair). The executions themselves are identical (same
//! policy ⇒ same trace); only the machinery differs.
//!
//! `cargo bench -p exsel-bench --bench engine`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exsel_bench::runner::{fresh_pooled_run, pooled_run, run_sim, spread_originals};
use exsel_core::{Majority, MoirAnderson, Outcome, Rename, RenameConfig, StepRename};
use exsel_lowerbound::{run_against, run_machines_against_pooled};
use exsel_shm::{Pid, RegAlloc, StepMachine};
use exsel_sim::policy::RandomPolicy;
use exsel_sim::{AlgoSet, MachinePool, StepEngine};

fn bench_majority_round(c: &mut Criterion) {
    let cfg = RenameConfig::default();
    let mut group = c.benchmark_group("backend_majority");
    group.sample_size(10);
    for k in [4usize, 8, 16] {
        let mut alloc = RegAlloc::new();
        let set = AlgoSet::Majority(Majority::new(&mut alloc, 256, k, &cfg));
        let AlgoSet::Majority(algo) = &set else {
            unreachable!()
        };
        let regs = alloc.total();
        let originals = spread_originals(k, 256);
        group.bench_with_input(BenchmarkId::new("threads", k), &k, |b, _| {
            b.iter(|| run_sim(algo, regs, &originals, 42));
        });
        group.bench_with_input(BenchmarkId::new("step_engine", k), &k, |b, _| {
            b.iter(|| fresh_pooled_run(&set, regs, &originals, 42));
        });
    }
    group.finish();
}

fn bench_adversary(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_adversary");
    group.sample_size(10);
    let (k, n) = (8usize, 256usize);
    let mut alloc = RegAlloc::new();
    let algo = MoirAnderson::new(&mut alloc, k);
    let regs = alloc.total();
    let m = algo.name_bound();
    group.bench_with_input(BenchmarkId::new("threads", n), &n, |b, _| {
        b.iter(|| {
            run_against(n, regs, k, m, regs as u64, |ctx| {
                Ok(algo.rename(ctx, ctx.pid().0 as u64 + 1)?.name())
            })
        });
    });
    let mut engine = StepEngine::reusable(regs);
    let mut pool: MachinePool<_> = (0..n)
        .map(|p| {
            algo.begin_rename(Pid(p), p as u64 + 1)
                .map_output(Outcome::name as fn(Outcome) -> Option<u64>)
        })
        .collect();
    group.bench_with_input(BenchmarkId::new("step_engine", n), &n, |b, _| {
        b.iter(|| run_machines_against_pooled(&mut engine, &mut pool, regs, k, m, regs as u64));
    });
    group.finish();
}

fn bench_engine_reuse(c: &mut Criterion) {
    // A fresh engine and pool per trial vs one reused pair across a seed
    // sweep: the reused pair must be no slower (target: faster), since
    // it keeps its register bank, scratch buffers and machines across
    // trials.
    let cfg = RenameConfig::default();
    let mut group = c.benchmark_group("engine_reuse");
    group.sample_size(10);
    let trials = 32u64;
    for k in [8usize, 32] {
        let mut alloc = RegAlloc::new();
        let algo = AlgoSet::Majority(Majority::new(&mut alloc, 1024, k, &cfg));
        let regs = alloc.total();
        let originals = spread_originals(k, 1024);
        group.bench_with_input(BenchmarkId::new("fresh", k), &k, |b, _| {
            b.iter(|| {
                for seed in 0..trials {
                    fresh_pooled_run(&algo, regs, &originals, seed);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("reused", k), &k, |b, _| {
            b.iter(|| {
                let mut engine = StepEngine::reusable(regs);
                let mut pool = algo.pool(&originals);
                for seed in 0..trials {
                    engine.run_pool(&mut RandomPolicy::new(seed), &mut pool);
                    pooled_run(&engine, &pool);
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_majority_round,
    bench_adversary,
    bench_engine_reuse
);
criterion_main!(benches);
