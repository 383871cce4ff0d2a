//! The `adversary` workload: closed-loop engine trials and reducer walks,
//! one at a time.
//!
//! Part 1 runs pooled Adaptive-Rename trials (Theorem 4) at k = 32 and
//! k = 64 contenders drawn from N = 1024 original names, each under a
//! seeded `RandomPolicy` and under the Theorem 6 pigeonhole adversary
//! with leader crashes (`lead = 8`). Part 2 walks the reducer: the
//! complete sleep-set exploration of 4-process Compete-For-Register and
//! the unreduced walk over 3-process store&collect setting (i) first
//! stores, cut at a fixed execution budget.
//!
//! A rep builds every instance afresh, warms each trial configuration
//! once, then times a fixed batch of trials and both walks. As for the
//! service workloads, the number of reps follows from `--seconds` alone.
//!
//! Each rep draws its own trials from `--seed` and the rep index, and
//! times them in short chunks that rotate over the (k, adversary) pairs.
//! A pair's chunks are like work: ten trials average out most of a
//! single trial's cost per op, which varies by a third from seed to
//! seed. So the rates take a low quantile of each pair's chunks, and
//! every rep adds new trials to the step-domain metrics.

use std::collections::BTreeSet;
use std::time::Instant;

use exsel_core::{
    AdaptiveRename, CompeteOp, Outcome as Naming, RenameConfig, SlotBank, StepRename,
};
use exsel_shm::{Pid, RegAlloc};
use exsel_sim::policy::{Pigeonhole, RandomPolicy};
use exsel_sim::{explore_pool_sleep, MachinePool, Policy, ReduceConfig, StepEngine};
use exsel_storecollect::StoreCollect;

use crate::report::Outcome;
use crate::stats::{median, mix, peak_rss_mb, quantile_exact, robust_rate};
use crate::trace::{self, Family, Layer, Plain, Snapshot, Traced, Wrap};

/// Contention levels of the renaming trials.
pub const KS: [usize; 2] = [32, 64];
/// Original-name space the contenders are spread over.
const N_NAMES: usize = 1024;
/// How much work one rep does.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Timed trials per (k, adversary) pair.
    pub trials: u64,
    /// Execution budget of the unreduced store&collect walk.
    pub store_budget: u64,
    /// Measured seconds of one rep on the reference host (2 vCPUs).
    pub nominal_s: f64,
}

/// The benchmark's rep size.
pub const SIZE: Size = Size {
    trials: 100,
    store_budget: 60_000,
    nominal_s: 2.25,
};
/// Reps whose trials the sojourn replay covers, at most.
const SOJOURN_REPS: usize = 4;
/// Trials of one timed chunk.
const CHUNK_TRIALS: u64 = 10;
/// Pigeonhole leader lead before the front-runner is crashed.
const LEAD: u64 = 8;
/// Executions of the complete 4-process Compete sleep-set walk.
pub const COMPETE4_EXECUTIONS: u64 = 9_412;

/// The two adversaries of part 1.
#[derive(Clone, Copy, Debug)]
enum Adversary {
    Random,
    Pigeonhole,
}

const ADVERSARIES: [Adversary; 2] = [Adversary::Random, Adversary::Pigeonhole];
/// The (k, adversary) pairs of part 1; pair `2c + a` runs `KS[c]` under
/// `ADVERSARIES[a]`.
const PAIRS: usize = 2 * KS.len();

fn policy(adversary: Adversary, seed: u64, k: usize) -> Box<dyn Policy> {
    match adversary {
        Adversary::Random => Box::new(RandomPolicy::new(seed)),
        Adversary::Pigeonhole => Box::new(Pigeonhole::new(seed).crash_leaders(LEAD, k - 1)),
    }
}

/// The seed of trial `trial` of pair `pair` in rep `rep`.
fn trial_seed(seed: u64, rep: usize, pair: usize, trial: u64) -> u64 {
    mix(mix(seed, rep as u64 + 1), ((pair as u64) << 32) | trial)
}

/// Theorem 4's name bound under contention `k`: `8k − ⌊lg k⌋ − 1`.
pub fn name_bound(k: usize) -> u64 {
    8 * k as u64 - u64::from(k.ilog2()) - 1
}

/// `k` distinct original names spread over `1..=N`.
fn spread_originals(k: usize) -> Vec<u64> {
    (0..k).map(|i| (i * N_NAMES / k) as u64 + 1).collect()
}

/// The verdict of one renaming trial: named survivors, the largest name,
/// and whether the trial failed (an unnamed survivor, a budget crash, a
/// repeated name or a name above the bound).
#[derive(Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Survivors that acquired a name.
    pub named: u64,
    /// The largest name acquired.
    pub max_name: u64,
    /// Why the trial failed, if it did.
    pub failure: Option<String>,
}

/// Judges a finished renaming trial at contention `k`.
pub fn judge<E>(results: &[Option<Result<Naming, E>>], budget_crashes: usize, k: usize) -> Verdict {
    let mut names = Vec::new();
    let mut failure = None;
    for (pid, r) in results.iter().enumerate() {
        match r {
            Some(Ok(outcome)) => match outcome.name() {
                Some(name) => names.push(name),
                None => failure = Some(format!("survivor {pid} left unnamed")),
            },
            Some(Err(_)) => {}
            None => failure = Some(format!("process {pid} never finished")),
        }
    }
    if budget_crashes > 0 {
        failure = Some(format!(
            "{budget_crashes} processes crashed on the op budget"
        ));
    }
    let max_name = names.iter().copied().max().unwrap_or(0);
    if max_name > name_bound(k) {
        failure = Some(format!("name {max_name} above the bound {}", name_bound(k)));
    }
    let distinct: BTreeSet<u64> = names.iter().copied().collect();
    if distinct.len() != names.len() {
        failure = Some("two survivors hold the same name".into());
    }
    Verdict {
        named: names.len() as u64,
        max_name,
        failure,
    }
}

/// A timed chunk of trials of one (k, adversary) pair.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    /// The chunk's (k, adversary) pair.
    pair: usize,
    trials: u64,
    ops: u64,
    ns: f64,
}

/// What one rep measured.
#[derive(Debug, Default)]
struct Rep {
    world_s: f64,
    warm_s: f64,
    setup_s: f64,
    trial_ns: f64,
    trials: u64,
    named: u64,
    trial_ops: u64,
    failed_trials: u64,
    chunks: Vec<Chunk>,
    walks: Walks,
    trial_trace: Snapshot,
    failures: Vec<String>,
}

impl Rep {
    fn measured_ns(&self) -> f64 {
        self.trial_ns + self.walks.ns.iter().sum::<f64>()
    }
    /// The walks' executions and prunings, alike in every rep.
    fn walked(&self) -> ([u64; 2], u64) {
        (self.walks.executions, self.walks.pruned)
    }
    /// What a rep simulates; alike in an untraced and a traced rep of
    /// one seed and index.
    fn simulated(&self) -> (u64, u64, u64, u64) {
        (
            self.trial_ops,
            self.named,
            self.walks.executions.iter().sum(),
            self.walks.pruned,
        )
    }
}

/// One contention level of part 1: its instance, pool and engine.
struct Cell<'a, W: Wrap> {
    k: usize,
    pool: MachinePool<W::Machine<exsel_core::RenameMachine<'a>>>,
    engine: StepEngine<W::Bank>,
}

/// Runs rep `rep` of the workload under build `W`.
fn run_rep<W: Wrap>(size: &Size, seed: u64, rep: usize) -> Rep {
    let mut out = Rep::default();
    let cfg = RenameConfig::default();
    let started = Instant::now();
    let algos: Vec<(usize, AdaptiveRename, usize)> = KS
        .iter()
        .map(|&k| {
            let mut alloc = RegAlloc::new();
            let algo = AdaptiveRename::new(&mut alloc, 4 * k, &cfg);
            (k, algo, alloc.total())
        })
        .collect();
    let mut cells: Vec<Cell<'_, W>> = algos
        .iter()
        .map(|(k, algo, regs)| Cell {
            k: *k,
            pool: spread_originals(*k)
                .into_iter()
                .enumerate()
                .map(|(p, orig)| W::machine(algo.begin_rename(Pid(p), orig), Family::Adaptive))
                .collect(),
            engine: StepEngine::reusable_with(*regs, W::bank()).panic_on_budget(false),
        })
        .collect();
    out.world_s = started.elapsed().as_secs_f64();

    // Warm-up: one trial of every (k, adversary) pair.
    let t = Instant::now();
    for (c, cell) in cells.iter_mut().enumerate() {
        for (a, &adv) in ADVERSARIES.iter().enumerate() {
            let mut p = policy(adv, trial_seed(seed, rep, 2 * c + a, u64::MAX), cell.k);
            W::trial(&mut cell.engine, p.as_mut(), &mut cell.pool);
        }
    }
    out.warm_s = t.elapsed().as_secs_f64();
    out.setup_s = started.elapsed().as_secs_f64();
    let _ = trace::take();

    // Part 1: renaming trials, a chunk of each pair in turn.
    let t = Instant::now();
    for first in (0..size.trials).step_by(CHUNK_TRIALS as usize) {
        let last = size.trials.min(first + CHUNK_TRIALS);
        for (c, cell) in cells.iter_mut().enumerate() {
            for (a, &adv) in ADVERSARIES.iter().enumerate() {
                let pair = 2 * c + a;
                let chunk = Instant::now();
                let ops = out.trial_ops;
                for trial in first..last {
                    let mut p = policy(adv, trial_seed(seed, rep, pair, trial), cell.k);
                    W::trial(&mut cell.engine, p.as_mut(), &mut cell.pool);
                    let verdict = judge(
                        cell.pool.results(),
                        cell.engine.metrics().budget_crashes,
                        cell.k,
                    );
                    out.trials += 1;
                    out.named += verdict.named;
                    out.trial_ops += cell.engine.metrics().total_ops;
                    if let Some(why) = verdict.failure {
                        out.failed_trials += 1;
                        out.failures
                            .push(format!("k={} {adv:?} trial {trial}: {why}", cell.k));
                    }
                }
                out.chunks.push(Chunk {
                    pair,
                    trials: last - first,
                    ops: out.trial_ops - ops,
                    ns: chunk.elapsed().as_nanos() as f64,
                });
            }
        }
    }
    out.trial_ns = t.elapsed().as_nanos() as f64;
    out.trial_trace = trace::take();

    // Part 2: reducer walks.
    out.walks = walk::<W>(size.store_budget);
    out.failures.extend(std::mem::take(&mut out.walks.failures));
    out
}

/// The two reducer walks of part 2, Compete then store&collect: their
/// times, executions, traces and verdicts.
#[derive(Debug, Default)]
struct Walks {
    ns: [f64; 2],
    executions: [u64; 2],
    pruned: u64,
    traces: [Snapshot; 2],
    failures: Vec<String>,
}

impl Walks {
    fn trace(&self) -> Snapshot {
        let mut s = self.traces[0];
        s.add(&self.traces[1]);
        s
    }
}

/// Walks the complete 4-process Compete tree under sleep sets, then the
/// unreduced 3-process store&collect tree up to its budget.
fn walk<W: Wrap>(store_budget: u64) -> Walks {
    let mut alloc = RegAlloc::new();
    let slot = SlotBank::new(&mut alloc, 1);
    let mut pool: MachinePool<W::Machine<CompeteOp>> = (1..=4u64)
        .map(|t| W::machine(slot.begin_compete(0, t), Family::Compete))
        .collect();
    let mut engine = StepEngine::reusable_with(alloc.total(), W::bank());
    let _ = trace::take();
    let t = Instant::now();
    let compete = trace::segment(Layer::Explore, || {
        explore_pool_sleep(
            &mut engine,
            &mut pool,
            &ReduceConfig::sleep_only(u64::MAX),
            |pool| pool.completed().filter(|(_, won)| **won).count() <= 1,
        )
    });
    let compete_ns = t.elapsed().as_nanos() as f64;
    let compete_trace = trace::take();
    let mut alloc = RegAlloc::new();
    let sc = StoreCollect::known(&mut alloc, 3, 3, &RenameConfig::default());
    let mut pool: MachinePool<W::Machine<_>> = (0..3)
        .map(|p| {
            W::machine(
                sc.begin_first_store(Pid(p), p as u64 + 1, 7),
                Family::FirstStore,
            )
        })
        .collect();
    let mut engine = StepEngine::reusable_with(alloc.total(), W::bank());
    let _ = trace::take();
    let t = Instant::now();
    let store = trace::segment(Layer::Explore, || {
        explore_pool_sleep(
            &mut engine,
            &mut pool,
            &ReduceConfig::off(store_budget),
            |pool| {
                let regs: Vec<_> = pool
                    .completed()
                    .filter_map(|(_, r)| r.as_ref().ok().copied())
                    .collect();
                regs.iter().collect::<BTreeSet<_>>().len() == regs.len()
            },
        )
    });
    let store_ns = t.elapsed().as_nanos() as f64;
    let store_trace = trace::take();
    let mut failures = Vec::new();
    if !(compete.complete
        && compete.executions == COMPETE4_EXECUTIONS
        && compete.minimized.is_none())
    {
        failures.push(format!(
            "4-process Compete walk: {} executions (complete: {}, counterexample: {})",
            compete.executions,
            compete.complete,
            compete.minimized.is_some()
        ));
    }
    if store.executions != store_budget || store.minimized.is_some() {
        failures.push(format!(
            "store&collect walk: {} executions of a {store_budget} budget (counterexample: {})",
            store.executions,
            store.minimized.is_some()
        ));
    }
    Walks {
        ns: [compete_ns, store_ns],
        executions: [compete.executions, store.executions],
        pruned: compete.execs_pruned + store.execs_pruned,
        traces: [compete_trace, store_trace],
        failures,
    }
}

/// Sojourn samples of the trials of reps `0..reps`, replayed untimed with
/// the engine's trace on: a contender's sojourn is the number of granted
/// steps from trial start until it holds its name. The engine is
/// deterministic, so the replay is the timed run's execution. Returns the
/// samples and the replay's total granted ops.
fn sojourns(size: &Size, seed: u64, reps: usize) -> (Vec<u64>, u64) {
    let cfg = RenameConfig::default();
    let mut samples = Vec::new();
    let mut ops = 0;
    for (c, &k) in KS.iter().enumerate() {
        let mut alloc = RegAlloc::new();
        let algo = AdaptiveRename::new(&mut alloc, 4 * k, &cfg);
        let mut pool: MachinePool<_> = spread_originals(k)
            .into_iter()
            .enumerate()
            .map(|(p, orig)| algo.begin_rename(Pid(p), orig))
            .collect();
        let mut engine = StepEngine::reusable_with(alloc.total(), Plain::bank())
            .panic_on_budget(false)
            .record_trace(true);
        let mut done = vec![0u64; k];
        let runs = (0..reps).flat_map(|r| (0..ADVERSARIES.len()).map(move |a| (r, a)));
        for (rep, a) in runs {
            for trial in 0..size.trials {
                let mut p = policy(ADVERSARIES[a], trial_seed(seed, rep, 2 * c + a, trial), k);
                engine.run_pool(p.as_mut(), &mut pool);
                ops += engine.metrics().total_ops;
                let trace = engine.trace().expect("trace recording is on");
                for (step, op) in trace.iter().enumerate() {
                    done[op.pid.0] = step as u64 + 1;
                }
                samples.extend(
                    pool.completed()
                        .filter(|(_, o)| o.is_named())
                        .map(|(pid, _)| done[pid.0]),
                );
            }
        }
    }
    (samples, ops)
}

/// Granted ops of one rep's two walks, counted once through the traced
/// machines (every granted op is exactly one machine advance).
fn walk_ops(store_budget: u64) -> [u64; 2] {
    walk::<Traced>(store_budget).traces.map(|t| t.advances())
}

/// Runs the workload untraced and reports the end-to-end metrics.
pub fn run(size: &Size, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let count = ((seconds / size.nominal_s).ceil() as usize).max(crate::MIN_REPS);
    let reps: Vec<Rep> = (0..count)
        .map(|i| run_rep::<Plain>(size, seed, i))
        .collect();
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate() {
        out.attempted += rep.trials + rep.walks.executions.iter().sum::<u64>();
        out.failures.extend(rep.failures.iter().cloned());
        out.check(rep.walked() == first.walked(), || {
            format!("rep {i} walked a different tree than rep 0")
        });
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    out.set("setup_s", median(&setups));
    // Chunks of like work: the trial chunks of one pair, or the same walk
    // of every rep.
    let trial_chunks = |work: fn(&Chunk) -> u64| {
        reps.iter()
            .flat_map(|r| &r.chunks)
            .map(|c| (c.pair, work(c) as f64, c.ns))
            .collect::<Vec<_>>()
    };
    let walk_chunks = |work: [u64; 2]| {
        reps.iter()
            .flat_map(|r| (0..2).map(move |w| (PAIRS + w, work[w] as f64, r.walks.ns[w])))
            .collect::<Vec<_>>()
    };
    let trial_ops: u64 = reps.iter().map(|r| r.trial_ops).sum();
    let named: u64 = reps.iter().map(|r| r.named).sum();
    let steps_per_session = trial_ops as f64 / named as f64;
    let trial_op_rate = robust_rate(&trial_chunks(|c| c.ops));
    out.set("sessions_per_s", trial_op_rate / steps_per_session);
    let mut op_chunks = trial_chunks(|c| c.ops);
    op_chunks.extend(walk_chunks(walk_ops(size.store_budget)));
    out.set("ops_per_s", robust_rate(&op_chunks));
    out.set("steps_per_session", steps_per_session);
    let replayed = &reps[..count.min(SOJOURN_REPS)];
    let (mut samples, replay_ops) = sojourns(size, seed, replayed.len());
    let (timed_ops, timed_named) = replayed
        .iter()
        .fold((0, 0), |(o, n), r| (o + r.trial_ops, n + r.named));
    out.check(
        replay_ops == timed_ops && samples.len() as u64 == timed_named,
        || {
            format!(
                "the sojourn replay granted {replay_ops} ops for {} names, the timed trials \
                 {timed_ops} ops for {timed_named} names",
                samples.len(),
            )
        },
    );
    samples.sort_unstable();
    out.set("sojourn_p50_steps", quantile_exact(&samples, 0.5));
    out.set("sojourn_p999_steps", quantile_exact(&samples, 0.999));
    out.note("sojourn_samples", samples.len() as f64, "count");
    out.note("reps", reps.len() as f64, "count");
    out.note(
        "measured_s",
        reps.iter().map(Rep::measured_ns).sum::<f64>() / 1e9,
        "s",
    );
    out.note(
        "trials_per_s",
        robust_rate(&trial_chunks(|c| c.trials)),
        "1/s",
    );
    out.note(
        "executions_per_s",
        robust_rate(&walk_chunks(first.walks.executions)),
        "1/s",
    );
    let failed: u64 = reps.iter().map(|r| r.failed_trials).sum();
    let trials: u64 = reps.iter().map(|r| r.trials).sum();
    out.note("failed_share", failed as f64 / trials as f64, "share");
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Runs the fixed reps untraced and then traced, and reports the
/// per-layer metrics with the attribution cross-checks.
pub fn run_traced(size: &Size, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    // Untraced and traced reps alternate, so host drift hits both alike.
    let (plain, traced): (Vec<Rep>, Vec<Rep>) = (0..crate::MIN_REPS)
        .map(|i| {
            (
                run_rep::<Plain>(size, seed, i),
                run_rep::<Traced>(size, seed, i),
            )
        })
        .unzip();
    let mut trials = Snapshot::default();
    let mut walks = Snapshot::default();
    for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
        out.failures.extend(p.failures.iter().cloned());
        out.failures.extend(t.failures.iter().cloned());
        out.check(p.simulated() == t.simulated(), || {
            format!("traced rep {i} simulated a different run than the untraced one")
        });
        out.attempted += t.trials + t.walks.executions.iter().sum::<u64>();
        trials.add(&t.trial_trace);
        walks.add(&t.walks.trace());
    }
    let trial_ops: u64 = traced.iter().map(|r| r.trial_ops).sum();
    let executions: u64 = traced.iter().map(|r| r.simulated().2).sum();

    // Bank calls against granted ops: the engine's own count for
    // trials, one machine advance per granted op for the walks.
    let calls_minus_ops = (trials.bank.calls as i64 - trial_ops as i64)
        + (walks.bank.calls as i64 - walks.advances() as i64);
    out.check(
        calls_minus_ops == 0 && trials.advances() == trial_ops,
        || {
            format!(
                "bank calls {} + {} against {trial_ops} trial ops and {} walk advances",
                trials.bank.calls,
                walks.bank.calls,
                walks.advances()
            )
        },
    );
    out.set("trace.bank_calls_minus_ops", calls_minus_ops as f64);
    let trial_children = trials.policy.total_ns() + trials.machine_ns() + trials.bank.total_ns();
    let walk_children = walks.machine_ns() + walks.bank.total_ns();
    let ratio = (trial_children / trials.trial.timed_ns as f64)
        .max(walk_children / walks.explore.timed_ns as f64);
    out.check(ratio <= crate::CHILD_TOLERANCE, || {
        format!("child time exceeds its parent ({ratio:.3}x)")
    });
    out.set("trace.child_over_parent_max", ratio);

    let mut all = trials;
    all.add(&walks);
    out.set("shm.bank.reads", all.reads as f64);
    out.set("shm.bank.writes", all.writes as f64);
    out.set("shm.bank.snap_writes", all.snap_writes as f64);
    out.set("shm.bank.ns_per_call", all.bank.ns_per_call());
    out.set(
        "sim.engine.self_ns_per_op",
        (trials.trial.timed_ns as f64 - trial_children) / trial_ops as f64,
    );
    let med =
        |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    out.set(
        "sim.engine.trials_per_s",
        med(&plain, &|r| r.trials as f64 / r.trial_ns * 1e9),
    );
    out.set("sim.policy.decisions", trials.policy.calls as f64);
    out.set("sim.policy.ns_per_decision", trials.policy.ns_per_call());
    out.set(
        "sim.policy.pending_mean",
        trials.pending_sum as f64 / trials.policy.calls.max(1) as f64,
    );
    for (f, [advances, peeks, ns]) in Family::ALL.into_iter().zip([
        [
            "core.adaptive.advances",
            "core.adaptive.peeks",
            "core.adaptive.ns_per_advance",
        ],
        [
            "core.compete.advances",
            "core.compete.peeks",
            "core.compete.ns_per_advance",
        ],
        [
            "storecollect.first_store.advances",
            "storecollect.first_store.peeks",
            "storecollect.first_store.ns_per_advance",
        ],
    ]) {
        let a = all.advance[f as usize];
        out.set(advances, a.calls as f64);
        out.set(peeks, all.peek[f as usize].calls as f64);
        out.set(ns, a.ns_per_call());
    }
    let pruned: u64 = traced.iter().map(|r| r.walks.pruned).sum();
    out.set("sim.reduce.explored", executions as f64);
    out.set("sim.reduce.pruned", pruned as f64);
    out.set(
        "sim.reduce.useful_ratio",
        executions as f64 / (executions + pruned) as f64,
    );
    out.set(
        "sim.reduce.self_ns_per_exec",
        (walks.explore.timed_ns as f64 - walk_children) / executions as f64,
    );
    out.set(
        "sim.reduce.executions_per_s",
        med(&plain, &|r| {
            r.simulated().2 as f64 / r.walks.ns.iter().sum::<f64>() * 1e9
        }),
    );
    out.set("setup.world_s", med(&plain, &|r| r.world_s));
    out.set("setup.prime_s", 0.0);
    out.set("setup.warmup_s", med(&plain, &|r| r.warm_s));
    let walk_ops = walks.advances() / crate::MIN_REPS as u64;
    let rate = |r: &Rep| (r.trial_ops + walk_ops) as f64 / r.measured_ns() * 1e9;
    let untraced = med(&plain, &rate);
    let traced_rate = med(&traced, &rate);
    out.set("trace.untraced_ops_per_s", untraced);
    out.set("trace.traced_ops_per_s", traced_rate);
    out.set("trace.overhead", untraced / traced_rate);
    crate::zero_service_layers(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::Crash;

    #[test]
    fn the_name_bound_is_theorem_4s() {
        assert_eq!(name_bound(32), 250);
        assert_eq!(name_bound(64), 505);
    }

    #[test]
    fn judge_accepts_exclusive_bounded_names_and_crashes() {
        let results = vec![
            Some(Ok(Naming::Named(3))),
            Some(Err(Crash)),
            Some(Ok(Naming::Named(250))),
        ];
        let v = judge(&results, 0, 32);
        assert_eq!((v.named, v.max_name, v.failure), (2, 250, None));
    }

    #[test]
    fn judge_rejects_corrupted_outputs() {
        let dup = vec![
            Some(Ok::<_, Crash>(Naming::Named(3))),
            Some(Ok(Naming::Named(3))),
        ];
        assert!(judge(&dup, 0, 32).failure.is_some(), "duplicate name");
        let high = vec![Some(Ok::<_, Crash>(Naming::Named(251)))];
        assert!(
            judge(&high, 0, 32).failure.is_some(),
            "name above 8k - lg k - 1"
        );
        let unnamed = vec![Some(Ok::<_, Crash>(Naming::Failed))];
        assert!(judge(&unnamed, 0, 32).failure.is_some(), "unnamed survivor");
        let ok = vec![Some(Ok::<_, Crash>(Naming::Named(1)))];
        assert!(judge(&ok, 1, 32).failure.is_some(), "budget crash");
    }
}

#[cfg(test)]
mod run_tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    const TINY: Size = Size {
        trials: 2,
        store_budget: 300,
        nominal_s: 1.0,
    };

    #[test]
    fn every_metric_is_measured_and_checked_clean() {
        let mut out = run(&TINY, 4, 0.0);
        let _ = out.render(&END_TO_END);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        for (name, _) in END_TO_END {
            assert!(out.metrics[name] > 0.0, "{name} reads 0");
        }
        let mut traced = run_traced(&TINY, 4);
        let _ = traced.render(PER_LAYER);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(traced.metrics["trace.bank_calls_minus_ops"], 0.0);
        assert_eq!(
            traced.metrics["sim.reduce.explored"],
            (2 * (COMPETE4_EXECUTIONS + TINY.store_budget)) as f64
        );
    }

    #[test]
    fn the_same_seed_gives_identical_step_metrics() {
        let a = run(&TINY, 6, 0.0);
        let b = run(&TINY, 6, 0.0);
        for name in [
            "steps_per_session",
            "sojourn_p50_steps",
            "sojourn_p999_steps",
        ] {
            assert_eq!(a.metrics[name], b.metrics[name], "{name}");
        }
    }
}
