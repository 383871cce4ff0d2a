//! Reduced exhaustive exploration: sleep-set partial-order reduction,
//! pid-symmetry canonicalization and visited-state pruning over the
//! pooled [`StepEngine`], with counterexample minimization.
//!
//! The unreduced walk ([`ReduceConfig::off`]) enumerates **every** grant
//! sequence — exponential in the total operation count, which caps
//! exhaustive verification at 3 processes for the compete family
//! (73,608 executions). This module cuts the *number* of executions
//! along three independent axes, each behind a [`ReduceConfig`] flag so
//! the unreduced walk remains available as a differential oracle (the
//! `recycling(false)` pattern):
//!
//! * **Sleep sets** ([`ReduceConfig::sleep_sets`]) — two pending
//!   operations are *independent* when they commute: they target
//!   disjoint registers, or both only read the same register
//!   ([`independent`]). Executions differing only in the order of
//!   adjacent independent grants reach identical states (one
//!   Mazurkiewicz trace class), so exploring one representative per
//!   class suffices. After a branch `c` of a node is fully explored,
//!   `c` is put to sleep for the node's remaining branches; a child
//!   inherits the sleeping processes whose pending operations are
//!   independent of the granted one. Because the lock-step model keeps
//!   every live process enabled at every node, sleep sets alone are
//!   sound here — no persistent-set computation is needed — and they
//!   preserve the exact set of reachable terminal states.
//! * **Visited states** ([`ReduceConfig::visited`]) — the engine is
//!   deterministic, so two nodes in identical global states (machine
//!   control states + results + register bank, digested through
//!   [`exsel_shm::Fingerprint`]) root identical subtrees. A node whose
//!   state was already expanded under a sleep set **no larger** than the
//!   current one is cut: the earlier expansion explored a superset of
//!   its branches (the covering-mask rule; masks are compared per
//!   canonical digest).
//! * **Pid symmetry** ([`ReduceConfig::symmetry`]) — the paper's
//!   algorithms are symmetric under relabeling process ids together with
//!   the tokens they carry. The canonical digest is the minimum over all
//!   `n!` pid permutations, with token payloads relabeled through
//!   [`exsel_shm::TokenMap`], so symmetric states collide in the visited
//!   set. With symmetry on, terminal states are preserved only *up to
//!   relabeling*: checkers must themselves be pid-symmetric (the
//!   compete checks — "at most one winner" — are).
//!
//! On the first failing `check`, the failing grant sequence is
//! replay-shrunk ([`ReduceConfig::shrink`]): greedy chunk removal over
//! the deterministic engine (`ddmin`-style halving), replaying each
//! candidate through [`crate::policy::Scripted`] with round-robin
//! fallback. The result — a subsequence of the original failing
//! schedule that still fails — lands in
//! [`ExploreReport::minimized`]; [`replay_pool`] re-executes it.
//!
//! Every node of the walk is one engine run: the prefix of grants is
//! replayed, the pending set past it observed once, and the run aborted
//! by crashing the remaining machines — [`crate::Action::Crash`] never
//! advances a machine, so the post-abort pool and bank are *exactly*
//! the node's state, which is what makes the fingerprint probe free of
//! any state-cloning machinery.

use std::collections::HashMap;

use exsel_shm::{Fingerprint, OpKind, Pid, RegisterBank, StateHasher, StepMachine, TokenMap};

use crate::engine::StepEngine;
use crate::policy::{Action, PendingOp, Policy, Scripted};
use crate::pool::MachinePool;

/// Outcome of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Complete executions checked (`execs_explored` in bench output).
    pub executions: u64,
    /// Whether the whole schedule tree was covered (false if
    /// `max_executions` truncated the walk).
    pub complete: bool,
    /// The deepest decision point seen (total operations of the longest
    /// execution).
    pub max_depth: usize,
    /// Branches the reductions suppressed: sleep-set–blocked grants plus
    /// visited-state subtree cuts. Always 0 for the unreduced walk
    /// ([`ReduceConfig::off`]).
    pub execs_pruned: u64,
    /// Distinct canonical state fingerprints recorded by the visited
    /// set. 0 when visited-state hashing is off.
    pub states_canonical: u64,
    /// The minimized failing schedule, when a `check` failed and the
    /// shrinker ran: a grant sequence (pids in grant order) that still
    /// fails on replay. `None` when every execution passed or shrinking
    /// was disabled.
    pub minimized: Option<Vec<Pid>>,
}

impl ExploreReport {
    /// Length of the minimized failing schedule, if one was produced.
    #[must_use]
    pub fn minimized_len(&self) -> Option<usize> {
        self.minimized.as_ref().map(Vec::len)
    }
}

/// Which reductions the reduced explorer applies.
///
/// All-off ([`ReduceConfig::off`]) is the oracle configuration: the same
/// depth-first enumerator with every reduction disabled, which walks
/// every interleaving — for straight-line programs, exactly the
/// multinomial number of them (tested).
#[derive(Clone, Debug)]
pub struct ReduceConfig {
    /// Sleep-set partial-order reduction (one execution per Mazurkiewicz
    /// trace class).
    pub sleep_sets: bool,
    /// Visited-state subtree cutting by state fingerprint. Requires the
    /// machine family to implement [`Fingerprint`] soundly (use
    /// [`explore_pool_reduced`]).
    pub visited: bool,
    /// Canonicalize fingerprints under pid permutation (implies
    /// `visited`). Checkers must be pid-symmetric.
    pub symmetry: bool,
    /// Token carried by each process (`tokens[i]` = pid `i`'s token),
    /// relabeled alongside pids when `symmetry` is on. Must be pairwise
    /// distinct and one per pooled machine.
    pub tokens: Vec<u64>,
    /// Truncate the walk after this many complete executions.
    pub max_executions: u64,
    /// Minimize the first failing schedule by replay-shrinking. When
    /// off, the failing schedule is reported unminimized.
    pub shrink: bool,
}

impl ReduceConfig {
    /// Every reduction off — the differential-oracle walk.
    #[must_use]
    pub fn off(max_executions: u64) -> Self {
        ReduceConfig {
            sleep_sets: false,
            visited: false,
            symmetry: false,
            tokens: Vec::new(),
            max_executions,
            shrink: true,
        }
    }

    /// Sleep sets only — sound for *every* machine family, no
    /// fingerprinting involved (the mode for composite machines like the
    /// store&collect renamers whose state cannot be hashed cheaply).
    #[must_use]
    pub fn sleep_only(max_executions: u64) -> Self {
        ReduceConfig {
            sleep_sets: true,
            ..ReduceConfig::off(max_executions)
        }
    }

    /// The full stack: sleep sets + visited states + pid-symmetry
    /// canonicalization over the given per-process tokens.
    #[must_use]
    pub fn full(tokens: &[u64], max_executions: u64) -> Self {
        ReduceConfig {
            sleep_sets: true,
            visited: true,
            symmetry: true,
            tokens: tokens.to_vec(),
            ..ReduceConfig::off(max_executions)
        }
    }
}

/// Whether two pending operations commute: they target different
/// registers, or both only read the shared one. Granting two independent
/// operations in either order yields the same global state.
#[must_use]
pub fn independent(a: &PendingOp, b: &PendingOp) -> bool {
    a.reg != b.reg || (a.kind == OpKind::Read && b.kind == OpKind::Read)
}

/// Replays `prefix` grants, observes the pending set at its frontier
/// once, then aborts the run by crashing every remaining machine.
/// `Action::Crash` never advances a machine, so the post-run pool and
/// bank are exactly the state at depth `prefix.len()`; `recorded` stays
/// `false` iff the prefix ran to quiescence (a leaf).
struct ProbePolicy<'a> {
    prefix: &'a [Pid],
    depth: usize,
    observed: Vec<PendingOp>,
    recorded: bool,
}

impl Policy for ProbePolicy<'_> {
    fn decide(&mut self, pending: &[PendingOp]) -> Action {
        if self.depth < self.prefix.len() {
            let pid = self.prefix[self.depth];
            self.depth += 1;
            debug_assert!(
                pending.iter().any(|op| op.pid == pid),
                "replayed prefix diverged: {pid} not pending"
            );
            return Action::Grant(pid);
        }
        if !self.recorded {
            self.recorded = true;
            self.observed.extend_from_slice(pending);
        }
        Action::Crash(pending[0].pid)
    }
}

/// Canonical-state digest of the current pool + bank, plus the node's
/// sleep mask mapped into canonical pid positions.
type KeyFn<'k, M, B> = Box<dyn FnMut(&MachinePool<M>, &B, u64) -> (u128, u64) + 'k>;

/// The depth-first walk. One instance per exploration; borrows the
/// engine and pool for its whole lifetime and accumulates the report
/// counters.
struct Dfs<'e, 'k, M: StepMachine, B: RegisterBank, C> {
    engine: &'e mut StepEngine<B>,
    pool: &'e mut MachinePool<M>,
    check: C,
    key: Option<KeyFn<'k, M, B>>,
    sleep_sets: bool,
    max_executions: u64,
    executions: u64,
    pruned: u64,
    max_depth: usize,
    truncated: bool,
    /// Canonical digest → sleep masks (canonical positions) this state
    /// was already expanded under.
    visited: HashMap<u128, Vec<u64>>,
    failing: Option<Vec<Pid>>,
}

impl<M, B, C> Dfs<'_, '_, M, B, C>
where
    M: StepMachine,
    B: RegisterBank,
    C: FnMut(&MachinePool<M>) -> bool,
{
    fn walk(&mut self, prefix: &mut Vec<Pid>, sleep: u64) {
        if self.truncated {
            return;
        }
        if self.executions >= self.max_executions {
            self.truncated = true;
            return;
        }
        let mut probe = ProbePolicy {
            prefix: prefix.as_slice(),
            depth: 0,
            observed: Vec::new(),
            recorded: false,
        };
        self.engine.run_pool(&mut probe, self.pool);
        let (pending, is_leaf) = (probe.observed, !probe.recorded);

        if is_leaf {
            self.executions += 1;
            self.max_depth = self.max_depth.max(prefix.len());
            if !(self.check)(self.pool) && self.failing.is_none() {
                self.failing = Some(prefix.clone());
            }
            return;
        }

        if self.key.is_some() {
            let (digest, cmask) = {
                let Dfs {
                    key, pool, engine, ..
                } = self;
                (key.as_mut().expect("checked"))(&**pool, engine.bank(), sleep)
            };
            let masks = self.visited.entry(digest).or_default();
            // Covering-mask rule: an earlier expansion of this state
            // under a subset sleep mask explored a superset of branches.
            if masks.iter().any(|&m| m & !cmask == 0) {
                self.pruned += 1;
                return;
            }
            masks.push(cmask);
        }

        let mut sleep = sleep;
        for idx in 0..pending.len() {
            if self.truncated {
                return;
            }
            let c = pending[idx];
            let bit = 1u64 << c.pid.0;
            if self.sleep_sets && sleep & bit != 0 {
                // The class of every execution starting with `c` here is
                // represented elsewhere in the tree.
                self.pruned += 1;
                continue;
            }
            // A sleeping process stays asleep in the child iff its (still
            // pending) operation commutes with the granted one.
            let child_sleep = if self.sleep_sets {
                pending
                    .iter()
                    .filter(|q| sleep & (1u64 << q.pid.0) != 0 && independent(q, &c))
                    .fold(0u64, |m, q| m | (1u64 << q.pid.0))
            } else {
                0
            };
            prefix.push(c.pid);
            self.walk(prefix, child_sleep);
            prefix.pop();
            if self.sleep_sets {
                sleep |= bit;
            }
        }
    }
}

/// Replays `schedule` on the pooled engine: scripted grants in order,
/// round-robin for anything past the script, until quiescence. The
/// replay vehicle for minimized counterexamples.
pub fn replay_pool<M, B>(engine: &mut StepEngine<B>, pool: &mut MachinePool<M>, schedule: &[Pid])
where
    M: StepMachine,
    B: RegisterBank,
{
    let mut policy = Scripted::new(schedule.iter().copied());
    engine.run_pool(&mut policy, pool);
}

/// Greedy chunk-removal minimization (`ddmin`-lite): repeatedly tries
/// dropping chunks of halving sizes, down to single grants, keeping any
/// removal for which `still_fails` holds. The result is a subsequence of
/// `failing` by construction (possibly empty), and the procedure is
/// deterministic.
fn shrink(failing: &[Pid], mut still_fails: impl FnMut(&[Pid]) -> bool) -> Vec<Pid> {
    let mut cur = failing.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < cur.len() {
            let mut candidate = cur[..i].to_vec();
            candidate.extend_from_slice(&cur[(i + chunk).min(cur.len())..]);
            if still_fails(&candidate) {
                cur = candidate; // removal kept the failure: stay at `i`
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            return cur;
        }
        chunk /= 2;
    }
}

/// Minimizes a schedule that provokes a footprint violation from the
/// engine's installed checker: the exploration shrinker's greedy
/// chunk-removal, with "still fails" meaning the replay still
/// counts at least one violation ([`Metrics::checker_violations`]).
/// The result is a subsequence of `failing`; replaying it on the same
/// engine/pool deterministically reproduces a violation, and the
/// surviving checker state ([`StepEngine::checker`]) reports it with
/// its offending pid/register/op index.
///
/// # Panics
///
/// Panics if the engine has no checker installed, or if `failing` does
/// not actually provoke a violation under replay.
///
/// [`Metrics::checker_violations`]: crate::Metrics
#[cfg(feature = "check")]
pub fn shrink_violation<M, B>(
    engine: &mut StepEngine<B>,
    pool: &mut MachinePool<M>,
    failing: &[Pid],
) -> Vec<Pid>
where
    M: StepMachine,
    B: RegisterBank,
{
    assert!(
        engine.checker().is_some(),
        "shrink_violation needs a checker installed on the engine"
    );
    let mut violates = |s: &[Pid]| {
        replay_pool(engine, pool, s);
        engine.metrics().checker_violations > 0
    };
    assert!(
        violates(failing),
        "schedule handed to shrink_violation does not violate under replay"
    );
    let cur = shrink(failing, violates);
    // Leave the engine/pool state at the minimized replay so callers can
    // read the violation report directly.
    replay_pool(engine, pool, &cur);
    cur
}

/// All permutations of `0..n` in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(remaining: &mut Vec<usize>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..remaining.len() {
            let v = remaining.remove(i);
            cur.push(v);
            rec(remaining, cur, out);
            cur.pop();
            remaining.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut (0..n).collect(), &mut Vec::new(), &mut out);
    out
}

/// The shared driver: walks the reduced tree, then shrinks the first
/// failing schedule (if any).
fn run_dfs<M, B, C>(
    engine: &mut StepEngine<B>,
    pool: &mut MachinePool<M>,
    config: &ReduceConfig,
    check: C,
    key: Option<KeyFn<'_, M, B>>,
) -> ExploreReport
where
    M: StepMachine,
    B: RegisterBank,
    C: FnMut(&MachinePool<M>) -> bool,
{
    assert!(pool.len() <= 64, "sleep sets use a 64-bit pid mask");
    let mut dfs = Dfs {
        engine: &mut *engine,
        pool: &mut *pool,
        check,
        key,
        sleep_sets: config.sleep_sets,
        max_executions: config.max_executions,
        executions: 0,
        pruned: 0,
        max_depth: 0,
        truncated: false,
        visited: HashMap::new(),
        failing: None,
    };
    dfs.walk(&mut Vec::new(), 0);
    let Dfs {
        mut check,
        executions,
        pruned,
        max_depth,
        truncated,
        visited,
        failing,
        ..
    } = dfs;
    let minimized = failing.map(|schedule| {
        if config.shrink {
            shrink(&schedule, |s| {
                replay_pool(engine, pool, s);
                !check(pool)
            })
        } else {
            schedule
        }
    });
    ExploreReport {
        executions,
        complete: !truncated,
        max_depth,
        execs_pruned: pruned,
        states_canonical: visited.len() as u64,
        minimized,
    }
}

/// Reduced exhaustive exploration of a pooled machine family whose state
/// can be fingerprinted: all of [`ReduceConfig`] is honored, including
/// visited-state pruning and pid-symmetry canonicalization. `check`
/// returns whether the completed execution satisfies the property; the
/// first failure is recorded (and minimized) rather than panicking, so
/// differential harnesses can compare verdicts.
///
/// With `symmetry` on, `config.tokens` must hold one distinct token per
/// pooled machine and the checker must be pid-symmetric (terminal states
/// are reached up to pid/token relabeling only).
///
/// # Panics
///
/// Panics if `symmetry` is requested for more than 6 processes (the
/// canonicalizer enumerates all `n!` relabelings), if `tokens` does not
/// match the pool, or if the pool exceeds the 64-process sleep mask.
pub fn explore_pool_reduced<M, B, C>(
    engine: &mut StepEngine<B>,
    pool: &mut MachinePool<M>,
    config: &ReduceConfig,
    check: C,
) -> ExploreReport
where
    M: StepMachine + Fingerprint,
    M::Output: Fingerprint,
    B: RegisterBank + Fingerprint,
    C: FnMut(&MachinePool<M>) -> bool,
{
    let n = pool.len();
    let key: Option<KeyFn<'_, M, B>> = if config.visited || config.symmetry {
        // (perm, inverse, token relabeling) per candidate permutation;
        // identity only when symmetry is off.
        let tables: Vec<(Vec<usize>, Vec<usize>, TokenMap)> = if config.symmetry {
            assert!(
                n <= 6,
                "pid-symmetry canonicalization enumerates n! relabelings; n = {n} is too large"
            );
            assert_eq!(config.tokens.len(), n, "one token per pooled machine");
            permutations(n)
                .into_iter()
                .map(|perm| {
                    let mut inv = vec![0; n];
                    for (i, &p) in perm.iter().enumerate() {
                        inv[p] = i;
                    }
                    let map = TokenMap::new(&config.tokens, &perm);
                    (perm, inv, map)
                })
                .collect()
        } else {
            vec![((0..n).collect(), (0..n).collect(), TokenMap::identity())]
        };
        Some(Box::new(
            move |pool: &MachinePool<M>, bank: &B, sleep: u64| {
                let mut best: Option<(u128, usize)> = None;
                for (pi, (_, inv, map)) in tables.iter().enumerate() {
                    let mut h = StateHasher::new();
                    for &i in inv.iter() {
                        match &pool.results()[i] {
                            Some(Ok(out)) => {
                                h.write_u8(1);
                                out.fingerprint(&mut h, map);
                            }
                            // Mid-flight (probe-aborted) machine: its
                            // control state is the behavioral state.
                            _ => {
                                h.write_u8(0);
                                pool.machines()[i].fingerprint(&mut h, map);
                            }
                        }
                    }
                    bank.fingerprint(&mut h, map);
                    let d = h.finish();
                    // First strict minimum in fixed enumeration order:
                    // deterministic across runs.
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, pi));
                    }
                }
                let (digest, pi) = best.expect("at least the identity permutation");
                let perm = &tables[pi].0;
                let mut cmask = 0u64;
                for (p, &target) in perm.iter().enumerate() {
                    if sleep & (1u64 << p) != 0 {
                        cmask |= 1u64 << target;
                    }
                }
                (digest, cmask)
            },
        ))
    } else {
        None
    };
    run_dfs(engine, pool, config, check, key)
}

/// Reduced exploration without any fingerprinting bound: sleep-set
/// reduction (and the all-off oracle walk) for machine families whose
/// state cannot be hashed soundly — the composite store&collect
/// renamers, the pid-asymmetric deposit layout. Exactly
/// [`explore_pool_reduced`] restricted to `visited = symmetry = false`.
///
/// # Panics
///
/// Panics if `config` requests `visited` or `symmetry`, or if the pool
/// exceeds the 64-process sleep mask.
pub fn explore_pool_sleep<M, B, C>(
    engine: &mut StepEngine<B>,
    pool: &mut MachinePool<M>,
    config: &ReduceConfig,
    check: C,
) -> ExploreReport
where
    M: StepMachine,
    B: RegisterBank,
    C: FnMut(&MachinePool<M>) -> bool,
{
    assert!(
        !config.visited && !config.symmetry,
        "explore_pool_sleep cannot hash state; use explore_pool_reduced"
    );
    run_dfs(engine, pool, config, check, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::{ArcBank, Poll, RegAlloc, RegId, ShmOp, Word};
    use std::collections::BTreeSet;

    /// Write own token into `reg`, then read `reg` back.
    #[derive(Clone)]
    struct WriteRead {
        reg: RegId,
        token: u64,
        wrote: bool,
    }

    impl StepMachine for WriteRead {
        type Output = u64;
        fn op(&self) -> ShmOp {
            if self.wrote {
                ShmOp::Read(self.reg)
            } else {
                ShmOp::Write(self.reg, Word::Int(self.token))
            }
        }
        fn advance(&mut self, input: &Word) -> Poll<u64> {
            if self.wrote {
                Poll::Ready(input.expect_int())
            } else {
                self.wrote = true;
                Poll::Pending
            }
        }
        fn reset(&mut self, _pid: Pid) {
            self.wrote = false;
        }
    }

    impl Fingerprint for WriteRead {
        fn fingerprint(&self, h: &mut StateHasher, map: &TokenMap) {
            h.write_u8(u8::from(self.wrote));
            h.write_u64(self.reg.0 as u64);
            h.write_u64(map.relabel(self.token));
        }
    }

    fn wr_pool(reg: RegId, tokens: &[u64]) -> MachinePool<WriteRead> {
        tokens
            .iter()
            .map(|&token| WriteRead {
                reg,
                token,
                wrote: false,
            })
            .collect()
    }

    /// Distinct-register writers: every interleaving commutes.
    #[derive(Clone)]
    struct SoloWrite {
        reg: RegId,
    }

    impl StepMachine for SoloWrite {
        type Output = u64;
        fn op(&self) -> ShmOp {
            ShmOp::Write(self.reg, Word::Int(1))
        }
        fn advance(&mut self, _input: &Word) -> Poll<u64> {
            Poll::Ready(1)
        }
        fn reset(&mut self, _pid: Pid) {}
    }

    #[test]
    fn disjoint_writers_collapse_to_one_execution() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(3);
        let mut pool: MachinePool<SoloWrite> =
            (0..3).map(|i| SoloWrite { reg: bank.get(i) }).collect();
        let mut engine = StepEngine::reusable(alloc.total());
        let report = explore_pool_sleep(
            &mut engine,
            &mut pool,
            &ReduceConfig::sleep_only(1_000),
            |_| true,
        );
        assert!(report.complete);
        assert_eq!(report.executions, 1, "3! schedules are one trace class");
        assert!(report.execs_pruned > 0);
    }

    /// `ops` writes to one shared register, then done.
    struct StraightLine {
        reg: RegId,
        ops: u64,
        done: u64,
    }

    impl StepMachine for StraightLine {
        type Output = u64;
        fn op(&self) -> ShmOp {
            ShmOp::Write(self.reg, Word::Int(self.done))
        }
        fn advance(&mut self, _input: &Word) -> Poll<u64> {
            self.done += 1;
            if self.done == self.ops {
                Poll::Ready(self.done)
            } else {
                Poll::Pending
            }
        }
        fn reset(&mut self, _pid: Pid) {
            self.done = 0;
        }
    }

    fn straight_pool(reg: RegId, ops: &[u64]) -> MachinePool<StraightLine> {
        ops.iter()
            .map(|&ops| StraightLine { reg, ops, done: 0 })
            .collect()
    }

    #[test]
    fn off_config_walks_every_interleaving_of_straight_line_programs() {
        // Processes with k₁, …, kₙ operations interleave in exactly
        // (Σkᵢ)! / Πkᵢ! ways, and the deepest execution grants all Σkᵢ.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut engine = StepEngine::reusable(alloc.total());
        for (ops, multinomial) in [
            (&[1, 1][..], 2),
            (&[2, 2], 6),
            (&[2, 2, 2], 90),
            (&[1, 2, 3], 60),
            (&[2, 2, 2, 1], 630),
        ] {
            let mut pool = straight_pool(bank.get(0), ops);
            let report =
                explore_pool_sleep(&mut engine, &mut pool, &ReduceConfig::off(10_000), |_| true);
            assert_eq!(report.executions, multinomial, "shape {ops:?}");
            assert_eq!(
                report.max_depth as u64,
                ops.iter().sum::<u64>(),
                "shape {ops:?}"
            );
            assert!(report.complete && report.minimized.is_none());
            assert_eq!(report.execs_pruned, 0);
            assert_eq!(report.states_canonical, 0);
        }
    }

    #[test]
    fn truncation_reports_incomplete() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut pool = straight_pool(bank.get(0), &[2, 2, 2]);
        let mut engine = StepEngine::reusable(alloc.total());
        let report = explore_pool_sleep(&mut engine, &mut pool, &ReduceConfig::off(4), |_| true);
        assert_eq!(report.executions, 4);
        assert!(!report.complete);
    }

    /// Read-modify-write without atomicity: read `reg`, write back the
    /// value plus one, return what was read.
    struct Incr {
        reg: RegId,
        seen: Option<u64>,
    }

    impl StepMachine for Incr {
        type Output = u64;
        fn op(&self) -> ShmOp {
            match self.seen {
                None => ShmOp::Read(self.reg),
                Some(v) => ShmOp::Write(self.reg, Word::Int(v + 1)),
            }
        }
        fn advance(&mut self, input: &Word) -> Poll<u64> {
            match self.seen {
                None => {
                    self.seen = Some(input.as_int().unwrap_or(0));
                    Poll::Pending
                }
                Some(v) => Poll::Ready(v),
            }
        }
        fn reset(&mut self, _pid: Pid) {
            self.seen = None;
        }
    }

    #[test]
    fn both_walks_witness_the_lost_update() {
        // The classic race: both processes read 0 before either writes.
        // Coverage, not luck, must find it — with and without sleep sets.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut pool: MachinePool<Incr> = (0..2)
            .map(|_| Incr {
                reg: bank.get(0),
                seen: None,
            })
            .collect();
        let mut engine = StepEngine::reusable(alloc.total());
        for config in [ReduceConfig::off(1_000), ReduceConfig::sleep_only(1_000)] {
            let mut saw_race = false;
            let report = explore_pool_sleep(&mut engine, &mut pool, &config, |pool| {
                saw_race |= pool.results() == [Some(Ok(0)), Some(Ok(0))];
                true
            });
            assert!(report.complete);
            assert!(saw_race, "{config:?} missed the lost update");
        }
    }

    /// Terminal signature of a completed WriteRead execution: the sorted
    /// (pid, read-back) pairs.
    fn signature(pool: &MachinePool<WriteRead>) -> Vec<(usize, u64)> {
        let mut sig: Vec<(usize, u64)> = pool.completed().map(|(p, out)| (p.0, *out)).collect();
        sig.sort_unstable();
        sig
    }

    #[test]
    fn sleep_sets_preserve_the_terminal_state_set() {
        // 2 procs on one register: 6 schedules, 4 trace classes. The
        // reduced walk must see exactly the unreduced set of terminal
        // states, once per class.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut pool = wr_pool(bank.get(0), &[1, 2]);
        let mut engine = StepEngine::reusable(alloc.total());
        let mut oracle_sigs = BTreeSet::new();
        let oracle =
            explore_pool_sleep(&mut engine, &mut pool, &ReduceConfig::off(10_000), |pool| {
                oracle_sigs.insert(signature(pool));
                true
            });
        let mut reduced_sigs = BTreeSet::new();
        let reduced = explore_pool_sleep(
            &mut engine,
            &mut pool,
            &ReduceConfig::sleep_only(10_000),
            |pool| {
                reduced_sigs.insert(signature(pool));
                true
            },
        );
        assert_eq!(oracle.executions, 6);
        assert_eq!(reduced.executions, 4, "4 Mazurkiewicz classes");
        assert_eq!(oracle_sigs, reduced_sigs);
        assert!(reduced.complete);
    }

    #[test]
    fn symmetry_canonicalization_prunes_below_sleep_only() {
        // 3 symmetric contenders on one register: pid-permuted branches
        // collapse. Verdict (every process read *some* token) must hold
        // throughout, and the symmetric walk must explore strictly fewer
        // executions than sleep-only.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let tokens = [1u64, 2, 3];
        let mut pool = wr_pool(bank.get(0), &tokens);
        let mut engine = StepEngine::reusable(alloc.total());
        let sleep_only = explore_pool_sleep(
            &mut engine,
            &mut pool,
            &ReduceConfig::sleep_only(100_000),
            |pool| pool.completed().count() == 3,
        );
        let full = explore_pool_reduced(
            &mut engine,
            &mut pool,
            &ReduceConfig::full(&tokens, 100_000),
            |pool| pool.completed().count() == 3,
        );
        assert!(sleep_only.complete && full.complete);
        assert!(full.minimized.is_none(), "checker passes everywhere");
        assert!(sleep_only.executions > full.executions);
        assert!(full.states_canonical > 0);
    }

    #[test]
    fn visited_only_matches_symmetry_verdicts() {
        // visited without symmetry: still sound, just less pruning.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let tokens = [1u64, 2, 3];
        let mut pool = wr_pool(bank.get(0), &tokens);
        let mut engine = StepEngine::reusable(alloc.total());
        let cfg = ReduceConfig {
            visited: true,
            ..ReduceConfig::sleep_only(100_000)
        };
        let visited = explore_pool_reduced(&mut engine, &mut pool, &cfg, |pool| {
            pool.completed().count() == 3
        });
        let full = explore_pool_reduced(
            &mut engine,
            &mut pool,
            &ReduceConfig::full(&tokens, 100_000),
            |pool| pool.completed().count() == 3,
        );
        assert!(visited.complete && full.complete);
        assert!(visited.minimized.is_none() && full.minimized.is_none());
        assert!(visited.executions >= full.executions);
    }

    #[test]
    fn shrinker_minimizes_a_failing_schedule() {
        // Known-bad checker: "process 0 never reads its own token" fails
        // exactly on executions where p0's read-back is 1. The shrunk
        // schedule must still fail on replay and be a subsequence of a
        // failing schedule.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut pool = wr_pool(bank.get(0), &[1, 2]);
        let mut engine = StepEngine::reusable(alloc.total());
        let bad_check = |pool: &MachinePool<WriteRead>| !matches!(pool.results()[0], Some(Ok(1)));
        let report = explore_pool_sleep(
            &mut engine,
            &mut pool,
            &ReduceConfig::sleep_only(10_000),
            bad_check,
        );
        let minimized = report
            .minimized
            .clone()
            .expect("the bad interleaving exists");
        // (a) still fails on replay.
        replay_pool(&mut engine, &mut pool, &minimized);
        assert!(!bad_check(&pool), "minimized schedule must still fail");
        // (c) deterministic across runs.
        let report2 = explore_pool_sleep(
            &mut engine,
            &mut pool,
            &ReduceConfig::sleep_only(10_000),
            bad_check,
        );
        assert_eq!(report2.minimized.as_deref(), Some(&minimized[..]));
        assert_eq!(report.minimized_len(), Some(minimized.len()));
    }

    #[test]
    fn shrinker_tries_the_empty_schedule() {
        // A check that fails everywhere fails on the empty replay too, so
        // even a one-grant failing schedule shrinks to nothing.
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(2);
        let mut engine = StepEngine::reusable(alloc.total());
        for n in [1, 2] {
            let mut pool: MachinePool<SoloWrite> =
                (0..n).map(|i| SoloWrite { reg: bank.get(i) }).collect();
            let report =
                explore_pool_sleep(&mut engine, &mut pool, &ReduceConfig::off(10), |_| false);
            assert_eq!(report.minimized, Some(Vec::new()), "{n} machines");
        }
    }

    #[test]
    fn shrink_off_reports_the_raw_failing_schedule() {
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let mut pool = wr_pool(bank.get(0), &[1, 2]);
        let mut engine = StepEngine::reusable(alloc.total());
        let cfg = ReduceConfig {
            shrink: false,
            ..ReduceConfig::off(10_000)
        };
        let report = explore_pool_sleep(&mut engine, &mut pool, &cfg, |pool| {
            !matches!(pool.results()[0], Some(Ok(1)))
        });
        let raw = report.minimized.expect("failure found");
        assert_eq!(raw.len(), report.max_depth, "unshrunk = full schedule");
    }

    #[test]
    fn independence_relation() {
        let op = |pid: usize, kind, reg: usize| PendingOp {
            pid: Pid(pid),
            kind,
            reg: RegId(reg),
            step_index: 0,
        };
        let r0 = op(0, OpKind::Read, 0);
        let r1 = op(1, OpKind::Read, 0);
        let w1 = op(1, OpKind::Write, 0);
        let w2 = op(2, OpKind::Write, 1);
        assert!(independent(&r0, &r1), "two reads commute");
        assert!(!independent(&r0, &w1), "read/write on one register");
        assert!(!independent(&w1, &w1), "write/write on one register");
        assert!(independent(&w1, &w2), "disjoint registers");
    }

    #[test]
    fn permutations_enumerate_n_factorial() {
        assert_eq!(permutations(0), vec![Vec::<usize>::new()]);
        assert_eq!(permutations(3).len(), 6);
        let unique: BTreeSet<Vec<usize>> = permutations(4).into_iter().collect();
        assert_eq!(unique.len(), 24);
    }

    #[test]
    fn explicit_bank_type_compiles_with_slab() {
        // The reduced walk is generic over the register bank: SlabBank
        // fingerprints too.
        use exsel_shm::SlabBank;
        let mut alloc = RegAlloc::new();
        let bank = alloc.reserve(1);
        let tokens = [1u64, 2];
        let mut pool = wr_pool(bank.get(0), &tokens);
        let mut engine: StepEngine<SlabBank> =
            StepEngine::reusable_with(alloc.total(), SlabBank::new());
        let slab = explore_pool_reduced(
            &mut engine,
            &mut pool,
            &ReduceConfig::full(&tokens, 10_000),
            |_| true,
        );
        let mut arc_engine: StepEngine<ArcBank> = StepEngine::reusable(alloc.total());
        let arc = explore_pool_reduced(
            &mut arc_engine,
            &mut pool,
            &ReduceConfig::full(&tokens, 10_000),
            |_| true,
        );
        assert_eq!(slab.executions, arc.executions);
        assert_eq!(slab.states_canonical, arc.states_canonical);
    }
}
