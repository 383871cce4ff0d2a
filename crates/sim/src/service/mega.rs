//! Mega-scale sharded service: per-shard admission controllers with a
//! global telemetry roll-up, slab-backed for 10⁴+ concurrent slots.
//!
//! A `ShardState` is one world, one admission controller, one arrival
//! stream; [`ServiceHarness`](super::ServiceHarness) is a fleet of one
//! of them. This module scales the serving layer the way a real fleet
//! does: `shards` independent admission controllers, each with
//! its own shared-memory world ([`ServiceWorld`] per shard), its own
//! [`SlabBank`] register file, its own bounded queue, backoff heap and
//! fault injector, all driven in lock-step on **one global clock**. An
//! arriving client belongs to exactly one shard (each shard draws its
//! own seeded arrival stream — see below), contends only against that
//! shard's slots, and every counter lands twice: in the shard's own
//! [`Totals`] and in the shared telemetry sink — so per-shard
//! accounting provably sums to the global roll-up, and windows and
//! quantiles are fleet-wide, not per-shard fragments.
//!
//! # Clock and scheduling
//!
//! One global tick = one parallel grant round: every shard with an
//! active session grants (or crashes) exactly one shared-memory
//! operation. Shards never touch each other's registers, so
//! `totals.ops / totals.steps` approaches the shard count under load.
//! When **no** shard has an active session the clock fast-forwards to
//! the earliest next event across the fleet.
//!
//! The harness runs those ticks **shard-major**, in epochs of `E`
//! ticks: each visited shard runs through all `E` ticks — at each tick
//! its due events, then one grant, idle stretches skipped — before the
//! next shard starts, so a shard's registers and machines stay in cache
//! for its whole visit. `E = 1` is one tick-major round. At every clock
//! an epoch ends on, the fleet's report is bit-identical to the
//! tick-by-tick reference's at that clock:
//!
//! - **Stops at epoch ends.** `E` is `min(S_min, ticks to the window
//!   end, ticks to the horizon)`, where `S_min(n) = 5n + 9`
//!   ([`ServiceWorld::min_session_ops`]) is the fewest operations any
//!   session completes in. `run_until(target)` runs whole epochs until
//!   the fleet-wide completion count reaches `target`. A shard grants
//!   one operation per tick, so a session bound after an epoch's first
//!   tick gets fewer than `S_min` grants in it and cannot complete
//!   there. Only the sessions in flight after the first tick's events,
//!   at most `max_inflight` per shard, can. A stop therefore lands at
//!   `target ≤ completed < target + shards · max_inflight`. Each
//!   completion asserts that its session took at least `S_min`
//!   operations.
//! - **Audit order.** The reference interleaves the shards' completions
//!   by tick, and an epoch runs shard by shard. So `finish` sorts a
//!   fleet's tickets in place, and both drivers report them in
//!   ascending order; one shard's stay in completion order. Everything
//!   else the shards share only adds to counters and histograms, and
//!   epochs never cross a window end.
//! - **Drained clock.** When the fleet drains inside an epoch, the clock
//!   stops one tick past the last grant, as the reference's does.
//!
//! An epoch visits only the shards that have work, so it costs
//! O(busy shards + shards with a due event + shards / 64) rather than
//! O(shards):
//!
//! - A **busy bitset** holds one bit per shard, set exactly while the
//!   shard has an active session. An epoch walks the set bits in
//!   ascending shard order.
//! - An **event calendar**, a fixed-capacity indexed min-heap with one
//!   entry per shard keyed `(next_event, shard)`, yields the shards
//!   whose arrival or backoff timer falls due inside the epoch; the
//!   epoch visits them too, and re-keys each visited shard once. The
//!   idle fast-forward reads the heap minimum.
//! - **Lazy gauges.** The fleet's `(inflight, queued, waiting)` gauges
//!   are summed over the shards only when a window closes, and in
//!   `finish`, because only window rows and the report read them.
//!
//! An idle fleet ends the run when the calendar is empty. That relies
//! on `Admission::max_inflight ≥ 1`, asserted at construction: a shard
//! with a queued client then always has a session in flight, so a fleet
//! with no busy shard has no queue either, and an empty calendar means
//! every shard is drained.
//!
//! # Arrival sharding
//!
//! Rather than hashing a single arrival stream (which would serialize
//! every shard on one RNG), each shard superposes its own thinned
//! stream: shard `s` draws inter-arrival gaps with mean
//! `shards × mean_gap` from its own salted seed, so the fleet-wide rate
//! matches the base configuration exactly while gap flooring (gaps are
//! ≥ 1 step) distorts *less* than the unsharded stream — and the fleet
//! can absorb up to `shards` arrivals per tick where one stream is
//! capped at one. With `shards = 1` the thinning factor is ×1.0 and the
//! seed salt is 0, so the shard runs the base configuration bit for bit:
//! that fleet is [`ServiceHarness`](super::ServiceHarness), which
//! `service_harness_matches_the_reference_tick` compares with the
//! reference tick over crash-storm shapes.
//!
//! # Ticket namespacing
//!
//! Each shard's naming object hands out tickets from its own unbounded
//! space, so raw tickets collide across shards. Completed tickets are
//! published to the audit as `ticket * shards + shard`, which is a
//! bijection per shard onto disjoint residue classes: fleet-wide
//! exclusivity follows from per-shard exclusivity, and `shards = 1` is
//! the identity map.
//!
//! # Example
//!
//! ```
//! use exsel_sim::service::mega::{MegaServiceConfig, MegaServiceHarness, MegaServiceWorld};
//! use exsel_sim::service::{Admission, Arrivals, ServiceConfig};
//!
//! let cfg = MegaServiceConfig {
//!     base: ServiceConfig {
//!         seed: 7,
//!         slots: 4, // per shard: 16 concurrent slots fleet-wide
//!         max_clients: 400,
//!         arrivals: Arrivals::Poisson { mean_gap: 3.0 },
//!         crash_hazard: 0.002,
//!         // The per-shard in-flight bound may not exceed its slots.
//!         admission: Admission {
//!             max_inflight: 4,
//!             ..ServiceConfig::default().admission
//!         },
//!         ..ServiceConfig::default()
//!     },
//!     shards: 4,
//! };
//! let world = MegaServiceWorld::new(&cfg);
//! let mega = MegaServiceHarness::new(&world, &cfg).run();
//! assert_eq!(mega.report.totals.arrivals, 400);
//! assert!(mega.report.accounted());
//! assert!(mega.rolled_up());
//! ```

use exsel_shm::{RegisterBank, SlabBank};

use super::{ServiceConfig, ServiceReport, ServiceWorld, ShardState, Telemetry, Totals};

/// Salt multiplier deriving per-shard RNG seeds (the 64-bit golden
/// ratio, as in the engine's pid-mixing); shard 0's salt is 0 so the
/// single-shard configuration keeps the base seed exactly.
const SHARD_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of a sharded service run: the per-shard base
/// configuration plus the shard count.
///
/// `base.slots` and `base.admission` are **per shard** (the fleet holds
/// `slots × shards` concurrent slots); `base.target_sessions`,
/// `base.max_clients` and the arrival rate are **fleet-wide** (arrivals
/// are thinned and client budgets split across shards — see the module
/// docs).
#[derive(Clone, Copy, Debug)]
pub struct MegaServiceConfig {
    /// Per-shard base configuration (fleet-wide arrival rate and client
    /// budgets).
    pub base: ServiceConfig,
    /// Number of independent admission shards (≥ 1).
    pub shards: usize,
}

impl MegaServiceConfig {
    /// Concurrent slots fleet-wide.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.base.slots * self.shards
    }

    /// Shard `s`'s slice of a fleet-wide client budget: an even split
    /// with the remainder spread over the lowest shards, so the slices
    /// sum exactly to `total` and shard 0 of a single-shard fleet gets
    /// everything.
    fn share(total: u64, s: usize, shards: usize) -> u64 {
        total / shards as u64 + u64::from((s as u64) < total % shards as u64)
    }

    /// The [`ServiceConfig`] shard `s` runs: salted seed, thinned
    /// arrivals, split client budgets, everything else inherited.
    ///
    /// Every shard's deposit arena follows the fleet's largest share,
    /// shard 0's ([`ServiceConfig::arena`] of its split budgets), set
    /// as `arena_capacity`, so all shards keep one register layout. A
    /// fleet driven past its session target with `run_until` needs an
    /// explicit `base.arena_capacity`. With `shards = 1` this is the
    /// base configuration with its arena made explicit, so the shard
    /// runs the base configuration bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard_cfg(&self, s: usize) -> ServiceConfig {
        assert!(s < self.shards, "shard {s} out of {} shards", self.shards);
        let split = |s| ServiceConfig {
            target_sessions: Self::share(self.base.target_sessions, s, self.shards),
            max_clients: Self::share(self.base.max_clients, s, self.shards),
            ..self.base
        };
        ServiceConfig {
            seed: self.base.seed ^ (s as u64).wrapping_mul(SHARD_SALT),
            arrivals: self.base.arrivals.scale_gaps(self.shards as f64),
            arena_capacity: split(0).arena(),
            ..split(s)
        }
    }
}

/// The shared-memory worlds of a sharded run: one independent
/// [`ServiceWorld`] per shard (shards never share registers), each
/// sized for the fleet's largest slice of the client budget.
#[derive(Debug)]
pub struct MegaServiceWorld {
    worlds: Vec<ServiceWorld>,
}

impl MegaServiceWorld {
    /// Builds every shard's world.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards == 0` or `cfg.base.slots == 0`.
    #[must_use]
    pub fn new(cfg: &MegaServiceConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        MegaServiceWorld {
            worlds: (0..cfg.shards)
                .map(|s| ServiceWorld::new(&cfg.shard_cfg(s)))
                .collect(),
        }
    }

    /// Total registers across every shard's world.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.worlds.iter().map(ServiceWorld::num_registers).sum()
    }

    /// The per-shard worlds, in shard order. Each shard's world owns a
    /// disjoint register space starting at 0, so a per-shard footprint
    /// checker built from `shard_worlds()[s]` is exact for shard `s`.
    #[must_use]
    pub fn shard_worlds(&self) -> &[ServiceWorld] {
        &self.worlds
    }
}

/// The result of a sharded run: the global roll-up (identical in shape
/// to an unsharded report) plus every shard's own totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MegaServiceReport {
    /// The fleet-wide roll-up: global totals, global windows (gauges
    /// summed across shards, quantiles over the merged samples), the
    /// namespaced ticket audit.
    pub report: ServiceReport,
    /// Each shard's own counter totals (`steps` is the shared global
    /// clock).
    pub shard_totals: Vec<Totals>,
}

impl MegaServiceReport {
    /// The roll-up identity every sharded run satisfies: each counter
    /// summed over `shard_totals` equals the global total, and every
    /// shard stamps the same clock.
    #[must_use]
    pub fn rolled_up(&self) -> bool {
        let g = self.report.totals;
        let sum = |f: fn(&Totals) -> u64| self.shard_totals.iter().map(f).sum::<u64>();
        sum(|t| t.arrivals) == g.arrivals
            && sum(|t| t.admitted) == g.admitted
            && sum(|t| t.completed) == g.completed
            && sum(|t| t.crashes) == g.crashes
            && sum(|t| t.reentries) == g.reentries
            && sum(|t| t.retries) == g.retries
            && sum(|t| t.shed) == g.shed
            && sum(|t| t.rejected) == g.rejected
            && sum(|t| t.ops) == g.ops
            && self.shard_totals.iter().all(|t| t.steps == g.steps)
    }
}

/// The fleet's event calendar: a fixed-capacity indexed binary min-heap
/// holding exactly one entry per shard, keyed `(due, shard)` where `due`
/// is the shard's [`ShardState::next_event`] (`u64::MAX` for none).
/// Re-keying moves an entry in place, so the heap never grows or holds
/// stale entries, and the steady state stays allocation-free.
struct EventHeap {
    /// Shard ids in heap order.
    heap: Vec<usize>,
    /// `pos[s]` is shard `s`'s index in `heap`.
    pos: Vec<usize>,
    /// `due[s]` is shard `s`'s key.
    due: Vec<u64>,
}

impl EventHeap {
    fn new(due: Vec<u64>) -> Self {
        let n = due.len();
        let mut events = EventHeap {
            heap: (0..n).collect(),
            pos: (0..n).collect(),
            due,
        };
        for i in (0..n / 2).rev() {
            events.sift_down(i);
        }
        events
    }

    /// The earliest `(due, shard)` entry.
    fn min(&self) -> (u64, usize) {
        let s = self.heap[0];
        (self.due[s], s)
    }

    /// Re-keys shard `s` to `due`.
    fn set(&mut self, s: usize, due: u64) {
        let earlier = due < self.due[s];
        self.due[s] = due;
        if earlier {
            self.sift_up(self.pos[s]);
        } else {
            self.sift_down(self.pos[s]);
        }
    }

    fn less(&self, i: usize, j: usize) -> bool {
        let (a, b) = (self.heap[i], self.heap[j]);
        (self.due[a], a) < (self.due[b], b)
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = i;
        self.pos[self.heap[j]] = j;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.less(i, parent) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.less(right, left) {
                right
            } else {
                left
            };
            if !self.less(child, i) {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }
}

/// The sharded open-loop harness; see the module docs. Defaults to the
/// [`SlabBank`] backend — the mega scale is exactly what the slab
/// register file exists for.
pub struct MegaServiceHarness<'w, B: RegisterBank = SlabBank> {
    cfg: MegaServiceConfig,
    pub(super) shards: Vec<ShardState<'w, B>>,
    tel: Telemetry,
    now: u64,
    /// One bit per shard, set exactly when the shard has an active
    /// session (between epochs; during one, also for the shards with an
    /// event due inside it).
    busy: Vec<u64>,
    /// Every shard's next arrival or timer.
    events: EventHeap,
    /// `S_min(n)` ([`ServiceWorld::min_session_ops`]), the longest epoch.
    min_session_ops: u64,
    /// `epochs[len]` counts the epochs of `len` ticks and the ticks they
    /// covered.
    epochs: Vec<(u64, u64)>,
}

impl<'w> MegaServiceHarness<'w, SlabBank> {
    /// Builds a harness over per-shard [`SlabBank`]s, pre-seeding each
    /// slab with every snapshot slot its shard can hold live at once
    /// ([`ServiceWorld::snapshot_registers`] + 1), so steady state stays
    /// allocation-free from the first session.
    #[must_use]
    pub fn new(world: &'w MegaServiceWorld, cfg: &MegaServiceConfig) -> Self {
        let banks = world.worlds.iter().map(reserved_slab).collect();
        MegaServiceHarness::with_banks(world, cfg, banks)
    }
}

/// A [`SlabBank`] reserving the slab slots a shard over `world` can hold
/// live at once: one per register that can hold a snapshot record
/// ([`ServiceWorld::snapshot_registers`]; 66 at 8 slots), plus one
/// because the slab's write parks the new record before it frees the
/// one it displaces.
pub(super) fn reserved_slab(world: &ServiceWorld) -> SlabBank {
    let mut bank = SlabBank::new();
    bank.reserve_slots(world.snapshot_registers() + 1);
    bank
}

impl<'w, B: RegisterBank> MegaServiceHarness<'w, B> {
    /// Builds a harness over caller-chosen register banks, one per
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards == 0`, the world or bank count disagrees
    /// with the shard count, or any shard configuration is inconsistent
    /// (see [`super::ServiceHarness::with_bank`]).
    #[must_use]
    pub fn with_banks(world: &'w MegaServiceWorld, cfg: &MegaServiceConfig, banks: Vec<B>) -> Self {
        Self::over(&world.worlds, cfg, banks)
    }

    /// [`MegaServiceHarness::with_banks`] over the shards' worlds, one
    /// per shard; [`ServiceHarness`](super::ServiceHarness) is a fleet of
    /// one over its world.
    pub(super) fn over(worlds: &'w [ServiceWorld], cfg: &MegaServiceConfig, banks: Vec<B>) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert_eq!(
            worlds.len(),
            cfg.shards,
            "world built for a different shard count"
        );
        assert_eq!(banks.len(), cfg.shards, "need one register bank per shard");
        let step = cfg.shards as u64;
        let shards: Vec<ShardState<'w, B>> = worlds
            .iter()
            .zip(banks)
            .enumerate()
            .map(|(s, (w, bank))| ShardState::new(w, &cfg.shard_cfg(s), bank, s as u64, step))
            .collect();
        let events = EventHeap::new(shards.iter().map(ShardState::next_event).collect());
        let min_session_ops = worlds[0].min_session_ops();
        MegaServiceHarness {
            cfg: *cfg,
            shards,
            tel: Telemetry::new(cfg),
            now: 0,
            busy: vec![0; cfg.shards.div_ceil(64)],
            events,
            min_session_ops,
            epochs: vec![(0, 0); min_session_ops as usize + 1],
        }
    }

    /// Pre-registers every slot of every shard (see
    /// [`super::ServiceHarness::prime`]): at mega scale slots keep
    /// being first-touched deep into a run — a concurrency excursion
    /// binding shard 900's third slot an hour in would otherwise pay
    /// that slot's one-time registration buffers mid-measurement — so
    /// zero-alloc gates prime the fleet before warm-up.
    pub fn prime(&mut self) {
        for shard in &mut self.shards {
            shard.prime();
        }
    }

    /// Installs one dynamic footprint checker per shard (shards never
    /// share registers, so per-shard checkers are exact). Build each
    /// checker from the matching [`MegaServiceWorld`] shard world.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one checker per shard is supplied.
    #[cfg(feature = "check")]
    pub fn install_checkers(&mut self, checkers: Vec<exsel_analysis::AccessChecker>) {
        assert_eq!(
            checkers.len(),
            self.shards.len(),
            "need one checker per shard"
        );
        for (shard, mut checker) in self.shards.iter_mut().zip(checkers) {
            checker.begin_trial();
            shard.checks.checker = Some(checker);
        }
    }

    /// Total footprint violations observed across all shards since
    /// their checkers were installed; 0 when none are installed.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn checker_violations(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.checks.checker.as_ref())
            .map(exsel_analysis::AccessChecker::trial_violations)
            .sum()
    }

    /// Runs the fleet to its stopping condition (fleet-wide session
    /// target reached, every shard drained, or horizon) and returns the
    /// report.
    pub fn run(mut self) -> MegaServiceReport {
        let target = match self.cfg.base.target_sessions {
            0 => u64::MAX,
            t => t,
        };
        let _ = self.run_until(target);
        self.finish()
    }

    /// Drives the fleet in whole epochs until at least `sessions`
    /// sessions have completed fleet-wide (an absolute count). Returns
    /// `false` when the run ended first. Benchmarks use this to separate
    /// warm-up from the measured steady state before calling
    /// [`MegaServiceHarness::finish`]. The fleet stops at the end of
    /// the epoch in which the count reaches `sessions`, with fewer than
    /// `sessions + shards · max_inflight` completed (see the module
    /// docs); a count already reached returns `true` at once.
    pub fn run_until(&mut self, sessions: u64) -> bool {
        while self.tel.totals.completed < sessions {
            if !self.epoch() {
                return false;
            }
        }
        true
    }

    /// The epochs run so far: entry `len` holds the number of epochs of
    /// `len` ticks and the ticks they covered (fewer than `len` only in
    /// the epoch in which the fleet drained). Entry 0 is unused; the
    /// last entry is `S_min(n)`, the longest epoch.
    #[must_use]
    pub fn epoch_lengths(&self) -> &[(u64, u64)] {
        &self.epochs
    }

    /// Sessions completed fleet-wide so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.tel.totals.completed
    }

    /// Granted shared-memory operations fleet-wide so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.tel.totals.ops
    }

    /// Fleet-wide `(inflight, queued, waiting)` gauges.
    fn gauges(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |acc, s| {
            let (i, q, w) = s.gauges();
            (acc.0 + i, acc.1 + q, acc.2 + w)
        })
    }

    /// Whether no session is in flight anywhere in the fleet.
    fn idle(&self) -> bool {
        self.tel.inflight == 0
    }

    /// Runs one epoch shard by shard, or fast-forwards an idle fleet to
    /// its next event, window boundary or horizon. Returns `false` when
    /// the run cannot continue. The module docs give the epoch's length.
    fn epoch(&mut self) -> bool {
        let now = self.now;
        let horizon = self.cfg.base.horizon;
        if now >= horizon {
            return false;
        }
        if now >= self.tel.window_end {
            let gauges = self.gauges();
            self.tel.roll(now, gauges);
        }
        let next = self.events.min().0;
        if next > now && self.idle() {
            // No shard is busy, so (with `max_inflight ≥ 1`) none holds
            // a queue: the fleet is drained once no event remains.
            if next == u64::MAX {
                return false;
            }
            self.now = next.min(self.tel.window_end).min(horizon);
            return true;
        }
        let len = self
            .min_session_ops
            .min(self.tel.window_end - now)
            .min(horizon - now);
        let end = now + len;
        // Visit the shards with an event due inside the epoch too.
        loop {
            let (due, s) = self.events.min();
            if due >= end {
                break;
            }
            self.events.set(s, u64::MAX);
            self.busy[s / 64] |= 1 << (s % 64);
        }
        let mut last_grant = now;
        for w in 0..self.busy.len() {
            let mut bits = self.busy[w];
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let s = w * 64 + bit.trailing_zeros() as usize;
                let shard = &mut self.shards[s];
                let mut t = now;
                let mut next = shard.next_event();
                loop {
                    if next <= t {
                        shard.fire_due_timers(t, &mut self.tel);
                        shard.generate_arrivals(t, &mut self.tel);
                        next = shard.next_event();
                    }
                    if shard.active.is_empty() {
                        if next >= end {
                            break;
                        }
                        t = next;
                        continue;
                    }
                    if shard.step(t, &mut self.tel) {
                        // A crash's backoff timer can only pull the next
                        // event earlier.
                        next = shard.next_event();
                    }
                    last_grant = last_grant.max(t);
                    t += 1;
                    if t == end {
                        break;
                    }
                }
                if shard.active.is_empty() {
                    self.busy[w] &= !bit;
                }
                if next != self.events.due[s] {
                    self.events.set(s, next);
                }
            }
        }
        // A drained fleet's clock stops one tick past its last grant.
        self.now = if self.idle() && self.events.min().0 == u64::MAX {
            last_grant + 1
        } else {
            end
        };
        let (epochs, ticks) = &mut self.epochs[len as usize];
        *epochs += 1;
        *ticks += self.now - now;
        true
    }

    /// Emits the final partial window and assembles the report, with
    /// the tickets in ascending order unless the fleet has one shard.
    pub fn finish(mut self) -> MegaServiceReport {
        if self.cfg.shards > 1 {
            self.tel.names.sort_unstable();
        }
        let gauges = self.gauges();
        let now = self.now;
        let shard_totals = self
            .shards
            .iter()
            .map(|s| {
                let mut t = s.totals;
                t.steps = now;
                t
            })
            .collect();
        MegaServiceReport {
            report: self.tel.finish(now, gauges),
            shard_totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Admission, Arrivals, ServiceHarness};
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One reference tick: it rolls the gauges and fires, generates and
    /// steps every shard in ascending order, and an idle tick checks
    /// whether every shard is drained (arrivals exhausted, nothing queued
    /// or backing off) and folds every shard's `next_event`. It drives
    /// the harness's own shards and sink, and ignores the busy set, the
    /// event calendar and the epochs. Returns `false` when the run
    /// cannot continue.
    fn reference_tick<B: RegisterBank>(h: &mut MegaServiceHarness<'_, B>) -> bool {
        let base = h.cfg.base;
        if h.now >= base.horizon {
            return false;
        }
        let gauges = h.gauges();
        h.tel.roll(h.now, gauges);
        for shard in &mut h.shards {
            shard.fire_due_timers(h.now, &mut h.tel);
            shard.generate_arrivals(h.now, &mut h.tel);
        }
        let mut granted = false;
        for shard in &mut h.shards {
            if !shard.active.is_empty() {
                shard.step(h.now, &mut h.tel);
                granted = true;
            }
        }
        if granted {
            h.now += 1;
            return true;
        }
        if h.shards
            .iter()
            .all(|s| s.arrivals_exhausted() && s.queue.is_empty() && s.timers.is_empty())
        {
            return false;
        }
        let next = h
            .shards
            .iter()
            .map(ShardState::next_event)
            .fold(base.horizon.min(h.tel.window_end), u64::min);
        h.now = next.max(h.now + 1);
        true
    }

    /// [`reference_tick`] until `sessions` have completed; returns
    /// `false` when the run ends first.
    fn reference_until<B: RegisterBank>(h: &mut MegaServiceHarness<'_, B>, sessions: u64) -> bool {
        while h.tel.totals.completed < sessions {
            if !reference_tick(h) {
                return false;
            }
        }
        true
    }

    /// [`reference_tick`] until the reference's clock reaches `clock`;
    /// returns `false` when the run ends first. An idle tick may jump
    /// past `clock`, but nothing happens in the ticks it skips, so the
    /// clock is clamped to `clock`.
    fn reference_to_clock<B: RegisterBank>(h: &mut MegaServiceHarness<'_, B>, clock: u64) -> bool {
        while h.now < clock {
            if !reference_tick(h) {
                return false;
            }
            h.now = h.now.min(clock);
        }
        true
    }

    /// [`reference_until`] to the configuration's own stop.
    fn reference_run<B: RegisterBank>(mut h: MegaServiceHarness<'_, B>) -> MegaServiceReport {
        let target = match h.cfg.base.target_sessions {
            0 => u64::MAX,
            t => t,
        };
        let _ = reference_until(&mut h, target);
        h.finish()
    }

    /// Whether a stop at `target` with `completed` sessions lands at
    /// `target ≤ completed < target + shards · max_inflight`.
    fn stop_in_bound(cfg: &MegaServiceConfig, target: u64, completed: u64) -> bool {
        let inflight = cfg.shards as u64 * cfg.base.admission.max_inflight as u64;
        (target..target + inflight).contains(&completed)
    }

    /// Runs `fast` to `target` and the reference `slow` to the clock
    /// `fast` stopped at, and asserts that the stop is within its bound
    /// and that both agree on ops and completions there.
    fn stop_both<B: RegisterBank>(
        fast: &mut MegaServiceHarness<'_, B>,
        slow: &mut MegaServiceHarness<'_, B>,
        target: u64,
    ) {
        let cfg = fast.cfg;
        assert!(fast.run_until(target), "target {target}: {cfg:?}");
        assert!(
            stop_in_bound(&cfg, target, fast.completed()),
            "target {target}, {} completed",
            fast.completed()
        );
        assert!(reference_to_clock(slow, fast.now), "target {target}");
        assert_eq!(
            (fast.ops(), fast.completed()),
            (slow.ops(), slow.completed()),
            "target {target}"
        );
    }

    /// Fleet-wide arrival processes of every kind, from overload (a
    /// fleet gap under one step) to idle gaps spanning many windows.
    fn any_arrivals() -> impl Strategy<Value = Arrivals> {
        prop_oneof![
            (0.3f64..300.0).prop_map(|mean_gap| Arrivals::Poisson { mean_gap }),
            (0.3f64..60.0, 64u64..4096, 64u64..8192).prop_map(|(mean_gap, burst, lull)| {
                Arrivals::Bursty {
                    mean_gap,
                    burst,
                    lull,
                }
            }),
            (0.3f64..20.0, 20.0f64..400.0, 256u64..16_384).prop_map(
                |(peak_gap, trough_gap, period)| Arrivals::Diurnal {
                    peak_gap,
                    trough_gap,
                    period,
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The event-driven tick reproduces the reference tick's whole
        /// report: totals, windows, cumulative histograms, the ticket
        /// audit, `in_system` and every shard's totals. Runs end by
        /// draining a client budget, at a small horizon, or by a session
        /// target, which the fleet overshoots to its epoch's end: the
        /// reference then runs to the fleet's clock.
        #[test]
        fn event_driven_tick_matches_the_reference_tick(
            seed in 0u64..10_000,
            shards in 1usize..=40,
            slots in 1usize..=6,
            hazard in 0.0f64..0.01,
            arrivals in any_arrivals(),
            window_log in 6u32..=12,
            stop in 0u8..3,
            budget in 20u64..240,
            admission in (1usize..=6, 0usize..6, 1usize..32),
        ) {
            let (max_inflight, queue_capacity, waiting_capacity) = admission;
            let mut base = ServiceConfig {
                seed,
                slots,
                window: 1 << window_log,
                arrivals,
                crash_hazard: hazard,
                admission: Admission {
                    max_inflight: max_inflight.min(slots),
                    queue_capacity,
                    backoff_base: 16,
                    backoff_cap: 1 << 9,
                    max_retries: 3,
                    waiting_capacity,
                },
                ..ServiceConfig::default()
            };
            match stop {
                0 => base.max_clients = budget,
                1 => base.target_sessions = budget,
                _ => base.horizon = 16 * budget,
            }
            let cfg = MegaServiceConfig { base, shards };
            let world_a = MegaServiceWorld::new(&cfg);
            let fast = MegaServiceHarness::new(&world_a, &cfg).run();
            let world_b = MegaServiceWorld::new(&cfg);
            let mut slow = MegaServiceHarness::new(&world_b, &cfg);
            let slow = if stop == 1 {
                let completed = fast.report.totals.completed;
                prop_assert!(stop_in_bound(&cfg, budget, completed), "{} completed", completed);
                prop_assert!(reference_to_clock(&mut slow, fast.report.totals.steps));
                slow.finish()
            } else {
                reference_run(slow)
            };
            prop_assert_eq!(fast.report.totals, slow.report.totals);
            prop_assert_eq!(&fast.shard_totals, &slow.shard_totals);
            prop_assert_eq!(&fast.report.windows, &slow.report.windows);
            prop_assert_eq!(&fast.report.names, &slow.report.names);
            prop_assert_eq!(fast.report.in_system, slow.report.in_system);
            prop_assert!(fast == slow, "cumulative histograms diverge");
        }

        /// `run_until`, driven in many short segments as benchmarks drive
        /// it, stops within `target + shards · max_inflight` of each
        /// target, where the reference tick run to the same clock has
        /// the same ops and completions: a warm-up past the fleet's slot
        /// count, then targets a few sessions apart, on primed and
        /// unprimed fleets. A target the last stop already reached moves
        /// nothing. Client-budget runs then drain, and their final clocks
        /// must agree. Epochs longer than one tick must have run.
        #[test]
        fn segmented_epoch_stops_match_the_reference_tick(
            seed in 0u64..10_000,
            shards in 1usize..=40,
            slots in 1usize..=6,
            hazard in 0.0f64..0.01,
            arrivals in any_arrivals(),
            window_log in 6u32..=12,
            primed in any::<bool>(),
            drained in any::<bool>(),
            warm in 1u64..64,
            gaps in proptest::collection::vec(1u64..8, 1..24),
            slack in 0u64..40,
            admission in (1usize..=6, 0usize..6, 1usize..32),
        ) {
            let (max_inflight, queue_capacity, waiting_capacity) = admission;
            let warm = (shards * slots) as u64 + warm;
            let targets: Vec<u64> = std::iter::once(warm)
                .chain(gaps.iter().scan(warm, |t, &gap| {
                    *t += gap;
                    Some(*t)
                }))
                .collect();
            let base = ServiceConfig {
                seed,
                slots,
                max_clients: if drained { targets[targets.len() - 1] + slack } else { 0 },
                window: 1 << window_log,
                arrivals,
                crash_hazard: hazard,
                admission: Admission {
                    max_inflight: max_inflight.min(slots),
                    queue_capacity,
                    backoff_base: 16,
                    backoff_cap: 1 << 9,
                    max_retries: 3,
                    waiting_capacity,
                },
                ..ServiceConfig::default()
            };
            let cfg = MegaServiceConfig { base, shards };
            let world_a = MegaServiceWorld::new(&cfg);
            let mut fast = MegaServiceHarness::new(&world_a, &cfg);
            let world_b = MegaServiceWorld::new(&cfg);
            let mut slow = MegaServiceHarness::new(&world_b, &cfg);
            if primed {
                fast.prime();
                slow.prime();
            }
            for &target in &targets {
                let reached = fast.run_until(target);
                let stop = (fast.now, fast.ops(), fast.completed());
                if reached {
                    prop_assert!(stop_in_bound(&cfg, target, stop.2), "target {}: {:?}", target, stop);
                    for passed in [target, stop.2] {
                        prop_assert!(fast.run_until(passed));
                        prop_assert_eq!((fast.now, fast.ops(), fast.completed()), stop);
                    }
                } else {
                    prop_assert!(drained && stop.2 < target, "target {}: {:?}", target, stop);
                }
                prop_assert!(reference_to_clock(&mut slow, stop.0), "target {}", target);
                prop_assert_eq!((slow.ops(), slow.completed()), (stop.1, stop.2), "target {}", target);
            }
            if drained {
                prop_assert!(!fast.run_until(u64::MAX));
                prop_assert!(!reference_until(&mut slow, u64::MAX));
            }
            prop_assert!(
                fast.epoch_lengths()[2..].iter().any(|&(epochs, _)| epochs > 0),
                "only one-tick epochs ran"
            );
            let (fast, slow) = (fast.finish(), slow.finish());
            prop_assert_eq!(fast.report.totals, slow.report.totals);
            prop_assert_eq!(&fast.shard_totals, &slow.shard_totals);
            prop_assert_eq!(&fast.report.windows, &slow.report.windows);
            prop_assert_eq!(&fast.report.names, &slow.report.names);
            prop_assert_eq!(fast.report.in_system, slow.report.in_system);
            prop_assert!(fast == slow, "cumulative histograms diverge");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// [`ServiceHarness`], a fleet of one shard, reproduces the
        /// reference tick's whole report over crash-storm service
        /// shapes: bounded arrivals that drain, slot counts, arrival
        /// pressure down to overload, hazards up to 1% per granted step,
        /// and tight admission bounds.
        #[test]
        fn service_harness_matches_the_reference_tick(
            seed in 0u64..10_000,
            slots in 2usize..6,
            clients in 40u64..160,
            mean_gap in 2.0f64..400.0,
            hazard in 0.0f64..0.01,
            max_inflight in 1usize..6,
            queue_capacity in 0usize..6,
            waiting_capacity in 1usize..32,
        ) {
            let mut cfg = base_cfg(seed, clients, hazard);
            cfg.slots = slots;
            cfg.window = 1 << 12;
            cfg.arrivals = Arrivals::Poisson { mean_gap };
            cfg.admission.max_inflight = max_inflight.min(slots);
            cfg.admission.queue_capacity = queue_capacity;
            cfg.admission.waiting_capacity = waiting_capacity;
            let world_a = ServiceWorld::new(&cfg);
            let fast = ServiceHarness::new(&world_a, &cfg).run();
            let world_b = ServiceWorld::new(&cfg);
            let slow = reference_run(ServiceHarness::new(&world_b, &cfg).0);
            prop_assert_eq!(&slow.shard_totals, &vec![fast.totals]);
            prop_assert!(fast == slow.report, "reports diverge");
        }
    }

    /// Drives a one-shard fleet through stops mostly 100–190 sessions
    /// apart and a few 1–3 apart, and the reference tick to each stop's
    /// clock, comparing ops and completions at every stop and the whole
    /// reports at the end.
    fn one_shard_drive_matches_the_reference(cfg: &ServiceConfig) {
        let world_a = ServiceWorld::new(cfg);
        let mut fast = ServiceHarness::with_bank(&world_a, cfg, SlabBank::new()).0;
        let world_b = ServiceWorld::new(cfg);
        let mut slow = ServiceHarness::with_bank(&world_b, cfg, SlabBank::new()).0;
        let mut target = 200;
        for gap in [150, 1, 100, 190, 2, 120, 160, 3, 100, 130, 1, 110].repeat(2) {
            target += gap;
            stop_both(&mut fast, &mut slow, target);
        }
        let (fast, slow) = (fast.finish(), slow.finish());
        assert!(fast == slow, "reports diverge");
    }

    /// perfbench `steady`'s shape: one shard of 8 slots, Poisson gap
    /// 2800, crashless.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release-mode differential: cargo test --release"
    )]
    fn steady_shaped_epochs_match_the_reference_tick() {
        let cfg = ServiceConfig {
            seed: 31,
            arrivals: Arrivals::Poisson { mean_gap: 2800.0 },
            window: 1 << 20,
            ..ServiceConfig::default()
        };
        one_shard_drive_matches_the_reference(&cfg);
    }

    /// perfbench `storm`'s shape: bursty overload, hazard 2·10⁻³, a
    /// queue of 8 and a waiting room of 64.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release-mode differential: cargo test --release"
    )]
    fn storm_shaped_epochs_match_the_reference_tick() {
        let cfg = ServiceConfig {
            seed: 37,
            window: 1 << 16,
            arrivals: Arrivals::Bursty {
                mean_gap: 700.0,
                burst: 1 << 15,
                lull: 1 << 14,
            },
            crash_hazard: 2e-3,
            admission: Admission {
                queue_capacity: 8,
                backoff_base: 256,
                max_retries: 6,
                waiting_capacity: 64,
                ..ServiceConfig::default().admission
            },
            ..ServiceConfig::default()
        };
        one_shard_drive_matches_the_reference(&cfg);
    }

    /// A primed 250-shard × 8-slot fleet at the benchmark's per-shard
    /// load, driven through a warm-up and 64 short segments, stops
    /// within its bound at every segment, reports exactly what the
    /// reference tick reports at the same clock, and spends most of its
    /// ticks in full-length epochs.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release-mode differential: cargo test --release"
    )]
    fn fleet_epochs_match_the_reference_tick_over_64_segments() {
        let base = ServiceConfig {
            seed: 12,
            arrivals: Arrivals::Poisson {
                mean_gap: 2800.0 / 250.0,
            },
            crash_hazard: 1e-4,
            window: 1 << 14,
            ..ServiceConfig::default()
        };
        let cfg = MegaServiceConfig { base, shards: 250 };
        let world_a = MegaServiceWorld::new(&cfg);
        let mut fast = MegaServiceHarness::new(&world_a, &cfg);
        let world_b = MegaServiceWorld::new(&cfg);
        let mut slow = MegaServiceHarness::new(&world_b, &cfg);
        fast.prime();
        slow.prime();
        for target in (0..=64).map(|segment| 2_000 + 40 * segment) {
            stop_both(&mut fast, &mut slow, target);
        }
        let epochs = fast.epoch_lengths();
        let long: u64 = epochs[2..].iter().map(|&(_, ticks)| ticks).sum();
        let all: u64 = epochs.iter().map(|&(_, ticks)| ticks).sum();
        assert!(
            2 * long > all,
            "{long} of {all} epoch ticks in multi-tick epochs"
        );
        // Only window ends cut an epoch short of its full `S_min`.
        let full = epochs[epochs.len() - 1].1;
        let short: u64 = epochs[..=7].iter().map(|&(_, ticks)| ticks).sum();
        assert!(
            3 * full >= 2 * all,
            "{full} of {all} epoch ticks in full-length epochs"
        );
        assert!(
            20 * short <= all,
            "{short} of {all} epoch ticks in epochs of at most 7 ticks"
        );
        let (fast, slow) = (fast.finish(), slow.finish());
        assert!(fast.report.totals.crashes > 0, "{:?}", fast.report.totals);
        assert!(fast == slow, "reports diverge");
    }

    /// Every session takes at least `S_min(n) = 5n + 9` granted ops, as
    /// asserted online in `ShardState::grant`, and so every stop lands
    /// within `target + shards · max_inflight`, here over slots 1..=8
    /// under light and overload arrivals, crashless and at hazard 2e-3,
    /// in short segments of multi-tick epochs.
    #[test]
    fn sessions_and_epochs_respect_the_minimum_ops() {
        for slots in 1..=8 {
            let light = (400 * slots * slots) as f64 / 3.0;
            for (mean_gap, crash_hazard) in [(light, 0.0), (0.5, 0.0), (0.5, 2e-3)] {
                let base = ServiceConfig {
                    seed: slots as u64,
                    slots,
                    window: 1 << 10,
                    arrivals: Arrivals::Poisson { mean_gap },
                    crash_hazard,
                    admission: Admission {
                        max_inflight: slots,
                        ..ServiceConfig::default().admission
                    },
                    ..ServiceConfig::default()
                };
                let cfg = MegaServiceConfig { base, shards: 3 };
                let world = MegaServiceWorld::new(&cfg);
                assert_eq!(world.worlds[0].min_session_ops(), 5 * slots as u64 + 9);
                let mut harness = MegaServiceHarness::new(&world, &cfg);
                for target in (1..=30).map(|segment| 7 * segment) {
                    assert!(harness.run_until(target), "{cfg:?}");
                    let completed = harness.completed();
                    assert!(
                        stop_in_bound(&cfg, target, completed),
                        "target {target}, {completed} completed: {cfg:?}"
                    );
                }
                assert!(harness.epoch_lengths()[2..].iter().any(|&(n, _)| n > 0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "in-flight bound 0")]
    fn zero_inflight_bound_is_rejected() {
        let mut base = base_cfg(1, 20, 0.0);
        base.admission.max_inflight = 0;
        let cfg = MegaServiceConfig { base, shards: 2 };
        let world = MegaServiceWorld::new(&cfg);
        let banks = (0..cfg.shards).map(|_| SlabBank::new()).collect();
        let _ = MegaServiceHarness::with_banks(&world, &cfg, banks);
    }

    fn base_cfg(seed: u64, clients: u64, hazard: f64) -> ServiceConfig {
        ServiceConfig {
            seed,
            slots: 4,
            target_sessions: 0,
            max_clients: clients,
            window: 1 << 11,
            arrivals: Arrivals::Poisson { mean_gap: 5.0 },
            crash_hazard: hazard,
            admission: Admission {
                max_inflight: 4,
                queue_capacity: 8,
                backoff_base: 32,
                backoff_cap: 1 << 10,
                max_retries: 4,
                waiting_capacity: 32,
            },
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn sharded_run_drains_accounts_and_rolls_up() {
        let cfg = MegaServiceConfig {
            base: base_cfg(3, 600, 0.003),
            shards: 4,
        };
        let world = MegaServiceWorld::new(&cfg);
        let mega = MegaServiceHarness::new(&world, &cfg).run();
        assert_eq!(mega.report.totals.arrivals, 600);
        assert!(mega.report.accounted(), "{:?}", mega.report.totals);
        assert_eq!(mega.report.in_system, 0, "fleet did not drain");
        assert!(mega.rolled_up(), "shard totals diverge from roll-up");
        assert!(
            mega.shard_totals.iter().all(|t| t.completed > 0),
            "a shard sat idle: {:?}",
            mega.shard_totals
        );
    }

    #[test]
    fn namespaced_tickets_stay_exclusive_across_shards() {
        let cfg = MegaServiceConfig {
            base: base_cfg(29, 500, 0.01),
            shards: 5,
        };
        let world = MegaServiceWorld::new(&cfg);
        let mega = MegaServiceHarness::new(&world, &cfg).run();
        assert!(mega.report.totals.crashes > 0, "hazard never fired");
        let set: BTreeSet<u64> = mega.report.names.iter().copied().collect();
        assert_eq!(
            set.len() as u64,
            mega.report.totals.completed,
            "duplicate tickets across shards"
        );
        // Namespacing maps each shard onto its own residue class, and
        // every class with a client budget actually completed sessions.
        let classes: BTreeSet<u64> = set.iter().map(|t| t % cfg.shards as u64).collect();
        assert_eq!(classes.len(), cfg.shards);
    }

    /// No shard's slab grows past its reserved slots and no shard's
    /// snapshot arenas miss, on a primed crashy fleet under light and
    /// overload arrivals.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode audit: cargo test --release")]
    fn slab_reservation_is_never_short() {
        for mean_gap in [2800.0, 0.5] {
            let base = ServiceConfig {
                seed: 5,
                target_sessions: 2_000,
                arrivals: Arrivals::Poisson { mean_gap },
                crash_hazard: 2e-3,
                ..ServiceConfig::default()
            };
            let cfg = MegaServiceConfig { base, shards: 4 };
            let world = MegaServiceWorld::new(&cfg);
            let mut harness = MegaServiceHarness::new(&world, &cfg);
            harness.prime();
            assert!(harness.run_until(base.target_sessions), "{cfg:?}");
            for (s, (shard, w)) in harness.shards.iter().zip(&world.worlds).enumerate() {
                let reserved = reserved_slab(w).allocated_slots();
                assert!(
                    shard.bank.peak_slots() <= reserved,
                    "shard {s}: {} live slots, {reserved} reserved ({cfg:?})",
                    shard.bank.peak_slots()
                );
                assert_eq!(shard.bank.allocated_slots(), reserved, "shard {s}");
                assert_eq!(w.arena_stats().fresh_allocations(), 0, "shard {s}");
            }
        }
    }

    /// Every shard's deposit arena is at least twice its highest
    /// written register, on perfbench's `fleet` shape, on 64 primed
    /// shards under perfbench's bursty crash storm, and on a fleet with
    /// fewer sessions than shards; all shards share one arena size.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode audit: cargo test --release")]
    fn deposit_arena_reservation_is_never_short() {
        let fleet = ServiceConfig {
            seed: 41,
            target_sessions: 36_000,
            window: 1 << 16,
            arrivals: Arrivals::Poisson {
                mean_gap: 2800.0 / 1250.0,
            },
            admission: Admission {
                queue_capacity: 16,
                backoff_base: 256,
                backoff_cap: 1 << 15,
                max_retries: 10,
                waiting_capacity: 512,
                ..ServiceConfig::default().admission
            },
            ..ServiceConfig::default()
        };
        let storm = ServiceConfig {
            seed: 43,
            target_sessions: 64_000,
            window: 1 << 16,
            arrivals: Arrivals::Bursty {
                mean_gap: 700.0 / 64.0,
                burst: 1 << 15,
                lull: 1 << 14,
            },
            crash_hazard: 2e-3,
            admission: Admission {
                queue_capacity: 8,
                backoff_base: 256,
                max_retries: 6,
                waiting_capacity: 64,
                ..ServiceConfig::default().admission
            },
            ..ServiceConfig::default()
        };
        let sparse = ServiceConfig {
            seed: 47,
            target_sessions: 5,
            crash_hazard: 2e-3,
            arrivals: Arrivals::Poisson { mean_gap: 4.0 },
            ..ServiceConfig::default()
        };
        for (base, shards) in [(fleet, 1250), (storm, 64), (sparse, 16)] {
            let cfg = MegaServiceConfig { base, shards };
            let world = MegaServiceWorld::new(&cfg);
            let mut harness = MegaServiceHarness::new(&world, &cfg);
            harness.prime();
            assert!(harness.run_until(base.target_sessions), "{cfg:?}");
            let arena = cfg.shard_cfg(0).arena();
            for (s, (shard, w)) in harness.shards.iter().zip(&world.worlds).enumerate() {
                assert_eq!(w.repo.arena().capacity(), arena, "shard {s}");
                let occupancy = w.repo.arena().occupancy_in_bank(&shard.bank);
                let highest = occupancy
                    .iter()
                    .rposition(Option::is_some)
                    .map_or(0, |i| i + 1);
                assert!(
                    2 * highest <= arena,
                    "shard {s}: register {highest} of {arena} written ({cfg:?})"
                );
            }
        }
    }

    /// `ServiceConfig::arena` keeps its 4,096-session floor only for a
    /// run with neither a session target nor a client budget, and every
    /// shard of a fleet reports the arena of its largest share.
    #[test]
    fn arena_floors_only_unbounded_runs_and_shards_share_the_largest() {
        let sized = |target_sessions, max_clients| {
            ServiceConfig {
                target_sessions,
                max_clients,
                ..ServiceConfig::default()
            }
            .arena()
        };
        // 8 slots: 4·8² + 256 = 512 registers of slack.
        assert_eq!(sized(0, 0), 2 * 4096 + 512);
        assert_eq!(sized(29, 0), 570);
        assert_eq!(sized(0, 29), 570);
        assert_eq!(sized(29, 5), 570);
        assert_eq!(sized(800, 0), 2_112);
        let explicit = ServiceConfig {
            target_sessions: 29,
            arena_capacity: 77,
            ..ServiceConfig::default()
        };
        assert_eq!(explicit.arena(), 77);
        for (target_sessions, max_clients, shards, arena) in [
            (36_000, 0, 1250, 570),
            (1_000_000, 0, 1250, 2_112),
            (0, 5, 16, 514),
            (7, 3, 3, 518),
            (0, 0, 4, 2 * 4096 + 512),
            (45_000, 0, 1, 90_512),
        ] {
            let base = ServiceConfig {
                target_sessions,
                max_clients,
                ..ServiceConfig::default()
            };
            let cfg = MegaServiceConfig { base, shards };
            for s in 0..shards {
                assert_eq!(cfg.shard_cfg(s).arena(), arena, "shard {s} of {cfg:?}");
            }
        }
    }

    #[test]
    fn client_budget_shares_sum_exactly() {
        for (total, shards) in [(0u64, 3usize), (7, 3), (1_000_000, 1250), (5, 8)] {
            let sum: u64 = (0..shards)
                .map(|s| MegaServiceConfig::share(total, s, shards))
                .sum();
            assert_eq!(sum, total, "split of {total} over {shards}");
        }
    }
}
