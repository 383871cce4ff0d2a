//! Crash and budget semantics of the pooled wait-free deposit machines:
//! crashing any single depositor mid-deposit — at any point of its
//! execution, under any seeded schedule — must leave every claimed
//! arena register exclusive and every *surviving* depositor complete
//! (Theorem 9's wait-freedom), and exhausting the engine's operation
//! budget must crash the stragglers with a **budget** cause
//! (`StepEngine::budget_crashed`), distinguishable from adversary
//! crashes. Mirrors `tests/crash_semantics.rs` for the renamers.

use exclusive_selection::sim::policy::{CrashAtStep, RandomPolicy, RoundRobin};
use exclusive_selection::sim::{MachinePool, StepEngine};
use exclusive_selection::{Pid, RegAlloc};
use exsel_unbounded::{AltruisticDeposit, DepositOp};
use proptest::prelude::*;

const N: usize = 3;
const ROUNDS: usize = 2;

/// One adversarial pooled execution: `victim` is crashed the moment it
/// reaches local step `crash_step`; everyone else runs under the seeded
/// random schedule. Returns the per-machine claimed registers and the
/// crashed pids.
fn run_with_crash(
    repo: &AltruisticDeposit,
    num_registers: usize,
    victim: usize,
    crash_step: u64,
    seed: u64,
) -> (Vec<Vec<u64>>, Vec<Pid>) {
    let mut engine = StepEngine::reusable(num_registers);
    let mut pool: MachinePool<DepositOp<'_>> = (0..N)
        .map(|p| repo.begin_deposit(Pid(p), p as u64 * 1000, ROUNDS))
        .collect();
    let mut policy = CrashAtStep::new(Box::new(RandomPolicy::new(seed)), Pid(victim), crash_step);
    engine.run_pool(&mut policy, &mut pool);
    (
        pool.machines()
            .iter()
            .map(|m| m.deposits().to_vec())
            .collect(),
        engine.adversary_crashed().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn single_crash_mid_deposit_keeps_claims_exclusive_and_survivors_complete(
        victim in 0..N,
        crash_step in 0u64..60,
        seed in 0u64..10_000,
    ) {
        let mut alloc = RegAlloc::new();
        let repo = AltruisticDeposit::new(&mut alloc, N, 512);
        let (deposits, crashed) =
            run_with_crash(&repo, alloc.total(), victim, crash_step, seed);

        // Exclusiveness over every claim — the crashed machine's
        // completed deposits are permanent and still count.
        let mut all: Vec<u64> = deposits.iter().flatten().copied().collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(
            all.len(),
            total,
            "duplicate deposit registers under crash of {} at step {} (seed {}): {:?}",
            victim,
            crash_step,
            seed,
            deposits
        );

        // At most the one victim crashed; survivors are wait-free and
        // must have completed all their rounds.
        prop_assert!(crashed.len() <= 1);
        if let Some(pid) = crashed.first() {
            prop_assert_eq!(pid.0, victim);
            prop_assert!(deposits[victim].len() < ROUNDS);
        }
        for (pid, claimed) in deposits.iter().enumerate() {
            if !crashed.iter().any(|c| c.0 == pid) {
                prop_assert_eq!(
                    claimed.len(),
                    ROUNDS,
                    "survivor {} incomplete (victim {}, step {}, seed {})",
                    pid,
                    victim,
                    crash_step,
                    seed
                );
            }
        }
    }
}

#[test]
fn budget_exhaustion_crashes_pooled_deposit_machines_with_budget_cause() {
    let mut alloc = RegAlloc::new();
    let repo = AltruisticDeposit::new(&mut alloc, N, 512);
    // Far too few operations for any deposit to complete (a solo first
    // deposit alone costs dozens of publication and snapshot steps).
    let mut engine = StepEngine::reusable(alloc.total())
        .max_total_ops(30)
        .panic_on_budget(false);
    let mut pool: MachinePool<DepositOp<'_>> = (0..N)
        .map(|p| repo.begin_deposit(Pid(p), p as u64 * 1000, ROUNDS))
        .collect();
    let mut policy = RoundRobin::new();
    engine.run_pool(&mut policy, &mut pool);

    assert_eq!(engine.adversary_crashed().count(), 0);
    assert_eq!(
        engine.budget_crashed().count(),
        N,
        "all stragglers budget-crashed"
    );
    assert_eq!(engine.metrics().budget_crashes, N);
    assert!(pool.results().iter().all(|r| matches!(r, Some(Err(_)))));
    assert_eq!(pool.completed().count(), 0);
}

#[test]
fn generous_budget_lets_every_depositor_finish() {
    // The complement: with the default budget the same pool completes,
    // proving the budget crashes above were the budget's doing.
    let mut alloc = RegAlloc::new();
    let repo = AltruisticDeposit::new(&mut alloc, N, 512);
    let mut engine = StepEngine::reusable(alloc.total()).panic_on_budget(false);
    let mut pool: MachinePool<DepositOp<'_>> = (0..N)
        .map(|p| repo.begin_deposit(Pid(p), p as u64 * 1000, ROUNDS))
        .collect();
    let mut policy = RoundRobin::new();
    engine.run_pool(&mut policy, &mut pool);
    assert_eq!(pool.completed().count(), N);
    assert_eq!(engine.budget_crashed().count(), 0);
}
