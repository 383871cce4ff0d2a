//! Execution-backend comparison: the thread-backed lock-step scheduler
//! (`SimBuilder`) vs the single-threaded step-machine engine
//! (`StepEngine`) on identical workloads — a full Majority-renaming round
//! under a seeded random schedule and a pigeonhole-adversary run — plus
//! the engine-reuse sweep. The executions themselves are identical (same
//! policy ⇒ same trace); only the machinery differs.
//!
//! `cargo bench -p exsel-bench --bench engine`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exsel_bench::runner::{run_sim, run_sim_engine, run_sim_engine_with, spread_originals};
use exsel_core::{Majority, MoirAnderson, Outcome, Rename, RenameConfig, StepRename};
use exsel_lowerbound::{run_against, run_machines_against};
use exsel_shm::{RegAlloc, StepMachine};
use exsel_sim::policy::RandomPolicy;
use exsel_sim::StepEngine;

fn bench_majority_round(c: &mut Criterion) {
    let cfg = RenameConfig::default();
    let mut group = c.benchmark_group("backend_majority");
    group.sample_size(10);
    for k in [4usize, 8, 16] {
        let mut alloc = RegAlloc::new();
        let algo = Majority::new(&mut alloc, 256, k, &cfg);
        let regs = alloc.total();
        let originals = spread_originals(k, 256);
        group.bench_with_input(BenchmarkId::new("threads", k), &k, |b, _| {
            b.iter(|| run_sim(&algo, regs, &originals, 42));
        });
        group.bench_with_input(BenchmarkId::new("step_engine", k), &k, |b, _| {
            b.iter(|| run_sim_engine(&algo, regs, &originals, 42));
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
    group.bench_with_input(BenchmarkId::new("step_engine", n), &n, |b, _| {
        b.iter(|| {
            run_machines_against(n, regs, k, m, regs as u64, |pid| {
                Box::new(
                    algo.begin_rename(pid, pid.0 as u64 + 1)
                        .map_output(Outcome::name),
                )
            })
        });
    });
    group.finish();
}

fn bench_engine_reuse(c: &mut Criterion) {
    // Fresh engine per trial vs one reusable engine across a seed sweep:
    // the reused engine must be no slower (target: faster), since it
    // keeps its register bank and scratch buffers across trials.
    let cfg = RenameConfig::default();
    let mut group = c.benchmark_group("engine_reuse");
    group.sample_size(10);
    let trials = 32u64;
    for k in [8usize, 32] {
        let mut alloc = RegAlloc::new();
        let algo = Majority::new(&mut alloc, 1024, k, &cfg);
        let regs = alloc.total();
        let originals = spread_originals(k, 1024);
        group.bench_with_input(BenchmarkId::new("fresh", k), &k, |b, _| {
            b.iter(|| {
                for seed in 0..trials {
                    run_sim_engine(&algo, regs, &originals, seed);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("reused", k), &k, |b, _| {
            b.iter(|| {
                let mut engine = StepEngine::reusable(regs);
                for seed in 0..trials {
                    let mut policy = RandomPolicy::new(seed);
                    run_sim_engine_with(&mut engine, &algo, &originals, &mut policy);
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
