//! The mega scenario: one majority-renaming sweep at n ≈ 10⁶ contenders
//! over ~2²¹ names, exercising the mega-scale stack end to end —
//! [`exsel_shm::SlabBank`] register storage under a
//! [`exsel_sim::MachinePool`] of `MajorityOp` walkers and the sharded
//! grant loop — against the Arc-backed register bank on the *same*
//! machine pool and sharded schedule.
//!
//! Both arms replay identical trials (same policy seed, same shard
//! count ⇒ same trace — the slab bank is bit-identical to the Arc
//! bank), so the delta is the register storage alone: inline slab
//! words vs one `Arc` per write. The slab arm is timed
//! under the counting allocator ([`crate::alloc_probe`]) and must stay
//! **allocation-free** in steady state; the row lands in
//! `BENCH_engine.json` with a steps/sec headline and is re-checked (at
//! reduced scale) by the bench gate in CI.
//!
//! `cargo run --release -p exsel-bench --bin expt -- run mega`

use std::time::Instant;

use exsel_core::{Majority, MajorityOp, RenameConfig};
use exsel_shm::{RegAlloc, SlabBank};
use exsel_sim::policy::RandomPolicy;
use exsel_sim::{MachinePool, StepEngine};

use crate::alloc_probe;
use crate::gate::Measurement as Row;
use crate::runner::spread_originals;
use crate::Table;

/// Measures the mega sweep and returns its row. Full scale is
/// n = 10⁶ contenders over 2²¹ names on 64 shards; `quick` (the
/// bench-gate mode) drops to n = 10⁴ over 2¹⁵ names on 8 shards — the
/// workload key stays the same, so the gate compares the quick rerun
/// against the committed full-scale row (clamped by the `arc_pool`
/// category floor).
///
/// # Panics
///
/// Panics if the two arms diverge on the shared seeds, or if fewer than
/// half the contenders acquire a name — both correctness bugs a fast
/// engine must not be allowed to buy.
#[must_use]
pub fn measure(quick: bool) -> Row {
    let (n, n_names, shards) = if quick {
        (10_000usize, 1usize << 15, 8usize)
    } else {
        (1_000_000usize, 1usize << 21, 64usize)
    };
    // Warm with the first seed, time the rest; both arms replay the
    // same sequence so the final trials are comparable bit for bit.
    let seeds: Vec<u64> = if quick {
        (0..9).collect()
    } else {
        vec![7, 8, 9]
    };
    let timed = (seeds.len() - 1) as u64;

    let cfg = RenameConfig::default();
    let mut reg_alloc = RegAlloc::new();
    let algo = Majority::new(&mut reg_alloc, n_names, n, &cfg);
    let regs = reg_alloc.total();
    let originals = spread_originals(n, n_names);
    let pool_of = || -> MachinePool<MajorityOp> {
        originals
            .iter()
            .map(|&orig| algo.begin_walk(orig))
            .collect()
    };

    // Baseline arm: Arc-backed register bank, driven by the same sharded
    // grant loop. Scoped so its ~regs-sized bank and pool are gone
    // before the slab arm builds its own.
    let (arc_s, arc_results, arc_steps) = {
        let mut engine = StepEngine::reusable(regs);
        let mut pool = pool_of();
        let mut run = |seed: u64| {
            let mut policy = RandomPolicy::new(seed);
            engine.run_pool_sharded(&mut policy, &mut pool, shards);
        };
        run(seeds[0]);
        let start = Instant::now();
        for &seed in &seeds[1..] {
            run(seed);
        }
        let per_trial = start.elapsed().as_secs_f64() / timed as f64;
        (per_trial, pool.results().to_vec(), pool.steps().to_vec())
    };

    // Contender arm: slab bank. The timed trials sit inside an
    // allocation window — after the warm trial has stretched every
    // buffer (slab slots, pending sets, result vectors), the steady
    // state must not touch the heap at all.
    let mut engine = StepEngine::reusable_with(regs, SlabBank::new());
    let mut pool = pool_of();
    {
        let mut policy = RandomPolicy::new(seeds[0]);
        engine.run_pool_sharded(&mut policy, &mut pool, shards);
    }
    let mut policies: Vec<RandomPolicy> = seeds[1..]
        .iter()
        .map(|&seed| RandomPolicy::new(seed))
        .collect();
    let before = alloc_probe::counts();
    let start = Instant::now();
    for policy in &mut policies {
        engine.run_pool_sharded(policy, &mut pool, shards);
    }
    let slab_s = start.elapsed().as_secs_f64() / timed as f64;
    let window = alloc_probe::counts().since(&before);

    // The at-scale differential: the final trials of both arms ran the
    // same seed on the same sharded schedule, so they must agree on
    // every outcome and every local step count.
    assert_eq!(
        arc_results.as_slice(),
        pool.results(),
        "slab arm diverged from the Arc arm"
    );
    assert_eq!(
        arc_steps.as_slice(),
        pool.steps(),
        "slab arm step counts diverged from the Arc arm"
    );
    let named = pool
        .results()
        .iter()
        .filter(|r| {
            matches!(
                r.as_ref()
                    .map(|res| res.as_ref().ok().and_then(|o| o.name())),
                Some(Some(_))
            )
        })
        .count();
    assert!(
        named * 2 >= n,
        "majority guarantee violated at scale: {named} of {n} named"
    );

    let total_ops = engine.metrics().total_ops;
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let steps_per_sec = (total_ops as f64 / slab_s) as u64;
    Row {
        workload: "machine_pool/mega/majority_sweep".into(),
        baseline: "arc_pool",
        contender: "slab_pool",
        baseline_s: arc_s,
        contender_s: slab_s,
        extras: vec![
            ("n", n as u64),
            ("shards", shards as u64),
            ("named", named as u64),
            ("total_ops", total_ops),
            ("steps_per_sec", steps_per_sec),
            ("steady_allocs", window.allocs),
            ("steady_frees", window.deallocs),
            ("alloc_probe", u64::from(alloc_probe::active())),
            // Entry occupancy, not Snap-slot occupancy: the majority
            // sweep's registers hold inline words, so `live_slots()`
            // (heap-slot payloads only) reads 0 forever — the committed
            // rows carried that blind spot as `slab_live: 0, slab_peak:
            // 0` at n = 10^6.
            ("slab_live", engine.bank().live_entries() as u64),
            ("slab_peak", engine.bank().peak_entries() as u64),
        ],
    }
}

/// Runs the full-scale mega sweep, prints the table and the steps/sec
/// headline, and merges the row into `BENCH_engine.json` (preserving
/// every other scenario's rows). Regression floors live in the bench
/// gate, not here.
///
/// # Panics
///
/// As [`measure`].
pub fn run() {
    let row = measure(false);

    let mut table = Table::new(
        "mega — n=10^6 majority sweep: slab bank + machine pool, sharded",
        &[
            "workload",
            "baseline",
            "contender",
            "baseline_s",
            "contender_s",
            "speedup",
        ],
    );
    table.row(&[
        row.workload.clone(),
        row.baseline.into(),
        row.contender.into(),
        format!("{:.3}", row.baseline_s),
        format!("{:.3}", row.contender_s),
        format!("{:.2}", row.speedup()),
    ]);
    table.emit();

    println!(
        "\nmega sweep: n={} on {} shards — {} steps/sec on the slab engine \
         ({:.2}x over the Arc bank), {} steady-state allocs / {} frees{}.",
        row.extra("n").unwrap_or(0),
        row.extra("shards").unwrap_or(0),
        row.extra("steps_per_sec").unwrap_or(0),
        row.speedup(),
        row.extra("steady_allocs").unwrap_or(0),
        row.extra("steady_frees").unwrap_or(0),
        if row.extra("alloc_probe") == Some(1) {
            " (counting allocator installed)"
        } else {
            " (no counting allocator — flatness unobserved)"
        },
    );

    if let Err(e) =
        crate::gate::merge_into_artifact("BENCH_engine.json", std::slice::from_ref(&row))
    {
        eprintln!("(could not write BENCH_engine.json: {e})");
    } else {
        println!("wrote BENCH_engine.json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mega_row_is_flat_and_bit_identical() {
        // The measure body asserts the two arms agree; here the row's
        // own invariants are pinned. Without the counting allocator
        // (test harness) the probe must report itself absent rather
        // than claim flatness it never observed.
        let row = measure(true);
        assert_eq!(crate::gate::workload_key(&row.workload), row.workload);
        assert_eq!(row.extra("n"), Some(10_000));
        assert_eq!(row.extra("shards"), Some(8));
        assert_eq!(row.extra("alloc_probe"), Some(0));
        assert!(row.extra("steps_per_sec").unwrap_or(0) > 0);
        assert!(row.extra("slab_peak").unwrap_or(0) >= row.extra("slab_live").unwrap_or(0));
        // The sweep writes thousands of registers: entry occupancy must
        // actually register, unlike the Snap-slot counters it replaced.
        assert!(row.extra("slab_peak").unwrap_or(0) > 0);
        assert!(row.extra("named").unwrap_or(0) * 2 >= 10_000);
    }
}
