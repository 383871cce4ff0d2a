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
//! for its whole visit. `E = 1` is one tick-major round. Reports are
//! bit-identical to the tick-by-tick reference for any `E`:
//!
//! - **Exact stops.** `run_until` must halt after the very tick in
//!   which the completion count reaches its target. A shard grants one
//!   operation per tick, and a session needs a minimum number of
//!   operations to finish: `S_min(n) = 5n + 9` from binding
//!   ([`ServiceWorld::min_session_ops`]), and in flight a bound read
//!   from its session machine ([`SessionOp`](crate::SessionOp)'s
//!   `min_ops_left`) and its column of the repository's `Help` matrix.
//!   A deposit round completes only by consuming a name parked in its
//!   own column, and a name gets there only through a row server's park
//!   write after a whole acquire. So a session whose column is empty
//!   completes no sooner than the nearest pending park into it
//!   ([`SessionOp::pending_park`](crate::SessionOp::pending_park)) + 3
//!   operations, and without one no sooner than `S_min` (see
//!   `ShardState::bound_completions`). A session bound inside the
//!   epoch needs `S_min ≥ E` ticks and cannot complete before its last
//!   tick. So while more sessions are still needed than are in flight,
//!   `E` is the cap, `min(S_min, ticks to the window end, ticks to the
//!   horizon)`. Otherwise `E` is the largest length up to the cap for
//!   which the sessions with a bound below `E` stay below the sessions
//!   still needed. Each shard adds its sessions' bounds to a histogram
//!   at the end of its visit, but only while at most
//!   `2 · shards · max_inflight` sessions are still needed: an epoch
//!   completes at most one session per in-flight slot, so after an
//!   epoch that skips the gather the next one does not read it. Each
//!   epoch asserts its bound and that any histogram it reads was
//!   gathered, and each completion that its session took at least
//!   `S_min` operations.
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

use super::{ServiceConfig, ServiceReport, ServiceWorld, ShardState, Stepped, Telemetry, Totals};

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
    /// `bounds[b]` counts the sessions in flight at the epoch's start
    /// whose completion bound is `b` ticks (`S_min` for `S_min` and
    /// more; [`ShardState::bound_completions`]). The next epoch's
    /// length is read from it.
    bounds: Vec<u64>,
    /// Whether the last epoch gathered `bounds`.
    gathered: bool,
    /// The same histogram for the next epoch, gathered at the end of
    /// each shard's visit and swapped with `bounds` when the epoch ends.
    next_bounds: Vec<u64>,
    /// Per-column scratch for [`ShardState::bound_completions`], one
    /// entry per slot, `u64::MAX` between visits.
    gate: Vec<u64>,
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
            tel: Telemetry::new(&cfg.base),
            now: 0,
            busy: vec![0; cfg.shards.div_ceil(64)],
            events,
            min_session_ops,
            bounds: vec![0; min_session_ops as usize + 1],
            gathered: false,
            next_bounds: vec![0; min_session_ops as usize + 1],
            gate: vec![u64::MAX; cfg.base.slots],
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

    /// Drives the fleet until `sessions` sessions have completed
    /// fleet-wide (an absolute count). Returns `false` when the run
    /// ended first. Benchmarks use this to separate warm-up from the
    /// measured steady state before calling
    /// [`MegaServiceHarness::finish`]. The stop is exact: the fleet
    /// halts after the very tick in which the count reaches `sessions`.
    pub fn run_until(&mut self, sessions: u64) -> bool {
        while self.tel.totals.completed < sessions {
            if !self.epoch(sessions) {
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
    /// its next event, window boundary or horizon. Stops short of
    /// `target` completions until the epoch's last tick. Returns `false`
    /// when the run cannot continue. The module docs give the epoch's
    /// length and when the shards gather the completion bounds.
    ///
    /// # Panics
    ///
    /// Panics if the epoch completes more sessions before its last tick
    /// than its bound allows, or would read a histogram the last epoch
    /// did not gather.
    fn epoch(&mut self, target: u64) -> bool {
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
        let needed = target - self.tel.totals.completed;
        let cap = self
            .min_session_ops
            .min(self.tel.window_end - now)
            .min(horizon - now);
        let (mut len, mut bound) = (cap, self.tel.inflight);
        if needed <= self.tel.inflight {
            assert!(self.gathered, "an epoch read ungathered completion bounds");
            bound = 0;
            for (b, &sessions) in self.bounds.iter().enumerate().take(cap as usize).skip(1) {
                if bound + sessions >= needed {
                    len = b as u64;
                    break;
                }
                bound += sessions;
            }
        }
        let max_inflight = self.cfg.shards as u64 * self.cfg.base.admission.max_inflight as u64;
        let gather = needed <= 2 * max_inflight;
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
        let mut early = 0;
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
                    match shard.step(t, &mut self.tel) {
                        Stepped::Completed => early += u64::from(t + 1 < end),
                        // A crash's backoff timer can only pull the
                        // next event earlier.
                        Stepped::Crashed => next = shard.next_event(),
                        Stepped::Granted => {}
                    }
                    last_grant = last_grant.max(t);
                    t += 1;
                    if t == end {
                        break;
                    }
                }
                if shard.active.is_empty() {
                    self.busy[w] &= !bit;
                } else if gather {
                    // The shard's machines are still in cache.
                    shard.bound_completions(&mut self.gate, &mut self.next_bounds);
                }
                if next != self.events.due[s] {
                    self.events.set(s, next);
                }
            }
        }
        assert!(
            early <= bound,
            "{early} sessions completed before the last of {len} ticks, above the bound {bound}"
        );
        if gather {
            // Every shard with a session in flight was visited.
            std::mem::swap(&mut self.bounds, &mut self.next_bounds);
            self.next_bounds.fill(0);
            debug_assert_eq!(self.bounds.iter().sum::<u64>(), self.tel.inflight);
        }
        self.gathered = gather;
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
    use super::super::{Admission, Arrivals, ServiceHarness, NOT_ACTIVE};
    use super::*;
    use crate::machines::SessionPhase;
    use exsel_shm::StepMachine;
    use exsel_unbounded::DepositOp;
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

    /// [`reference_until`] to the configuration's own stop.
    fn reference_run<B: RegisterBank>(mut h: MegaServiceHarness<'_, B>) -> MegaServiceReport {
        let target = match h.cfg.base.target_sessions {
            0 => u64::MAX,
            t => t,
        };
        let _ = reference_until(&mut h, target);
        h.finish()
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
        /// draining a client budget, by a session target, or at a small
        /// horizon.
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
            let slow = reference_run(MegaServiceHarness::new(&world_b, &cfg));
            prop_assert_eq!(fast.report.totals, slow.report.totals);
            prop_assert_eq!(&fast.shard_totals, &slow.shard_totals);
            prop_assert_eq!(&fast.report.windows, &slow.report.windows);
            prop_assert_eq!(&fast.report.names, &slow.report.names);
            prop_assert_eq!(fast.report.in_system, slow.report.in_system);
            prop_assert!(fast == slow, "cumulative histograms diverge");
        }

        /// `run_until` stops exactly where the reference tick does when
        /// driven in many short segments, as benchmarks drive it: a
        /// warm-up past the fleet's slot count, then targets a few
        /// sessions apart, on primed and unprimed fleets. Client-budget
        /// runs then drain, and their final clocks must agree. Epochs
        /// longer than one tick must have run.
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
                prop_assert_eq!(fast.run_until(target), reference_until(&mut slow, target));
                prop_assert_eq!(fast.ops(), slow.ops(), "target {}", target);
                prop_assert_eq!(fast.completed(), slow.completed(), "target {}", target);
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

    /// Drives a one-shard fleet and the reference tick through stops
    /// mostly 100–190 sessions apart and a few 1–3 apart, comparing ops
    /// and completions at every stop and the whole reports at the end.
    /// Far from a stop an epoch skips the gather of completion bounds,
    /// and within `2 · max_inflight` sessions of it the gather resumes.
    /// The fleet runs epoch by epoch, so that the drive can assert that
    /// both happen.
    fn one_shard_drive_matches_the_reference(cfg: &ServiceConfig) {
        let world_a = ServiceWorld::new(cfg);
        let mut fast = ServiceHarness::with_bank(&world_a, cfg, SlabBank::new()).0;
        let world_b = ServiceWorld::new(cfg);
        let mut slow = ServiceHarness::with_bank(&world_b, cfg, SlabBank::new()).0;
        let (mut skipped, mut resumed, mut target) = (0, 0, 200);
        for gap in [150, 1, 100, 190, 2, 120, 160, 3, 100, 130, 1, 110].repeat(2) {
            target += gap;
            while fast.completed() < target {
                let skipping = !fast.gathered;
                assert!(fast.epoch(target), "{cfg:?}");
                skipped += u64::from(!fast.gathered);
                resumed += u64::from(skipping && fast.gathered);
            }
            assert!(reference_until(&mut slow, target));
            assert_eq!(
                (fast.ops(), fast.completed()),
                (slow.ops(), slow.completed()),
                "target {target}"
            );
        }
        assert!(
            skipped > 0 && resumed > 0,
            "{skipped} skips, {resumed} resumes"
        );
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
    /// load, driven through a warm-up and 64 short segments, reports
    /// exactly what the reference tick reports, and spends most of its
    /// ticks in multi-tick epochs.
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
            assert!(fast.run_until(target) && reference_until(&mut slow, target));
            assert_eq!(
                (fast.ops(), fast.completed()),
                (slow.ops(), slow.completed())
            );
        }
        let epochs = fast.epoch_lengths();
        let long: u64 = epochs[2..].iter().map(|&(_, ticks)| ticks).sum();
        let all: u64 = epochs.iter().map(|&(_, ticks)| ticks).sum();
        assert!(
            2 * long > all,
            "{long} of {all} epoch ticks in multi-tick epochs"
        );
        // The column gate keeps epochs at their full `S_min` length up
        // to each stop: sessions with an empty column and no server
        // cannot complete inside one.
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

    /// The column-gated epoch bound holds on thousands of random fleets
    /// driven in stops 1–5 sessions apart, so that few sessions are
    /// still needed at any time and the bound decides nearly every
    /// epoch's length. The check is the online `early ≤ bound` assert
    /// in every epoch.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode stress: cargo test --release")]
    fn random_fleet_epochs_respect_the_column_bound() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for fleet in 0..3_000u64 {
            let mut rng = SmallRng::seed_from_u64(fleet);
            let slots = rng.gen_range(1usize..=8);
            let base = ServiceConfig {
                seed: fleet,
                slots,
                window: 1 << rng.gen_range(6u32..=12),
                // Log-uniform fleet gaps from overload (0.2) to light
                // load (600).
                arrivals: Arrivals::Poisson {
                    mean_gap: 0.2 * 3_000f64.powf(rng.gen_range(0.0f64..1.0)),
                },
                // Log-uniform hazards from 10⁻⁴ to 2·10⁻² on half the
                // fleets.
                crash_hazard: if rng.gen_bool(0.5) {
                    0.0
                } else {
                    1e-4 * 200f64.powf(rng.gen_range(0.0f64..1.0))
                },
                admission: Admission {
                    max_inflight: rng.gen_range(1..=slots),
                    queue_capacity: rng.gen_range(0usize..8),
                    backoff_base: 16,
                    backoff_cap: 1 << 9,
                    max_retries: 3,
                    waiting_capacity: rng.gen_range(1usize..32),
                },
                ..ServiceConfig::default()
            };
            let cfg = MegaServiceConfig {
                base,
                shards: rng.gen_range(1usize..=24),
            };
            let primed = rng.gen_bool(0.5);
            let stops = rng.gen_range(20usize..=120);
            let gaps: Vec<u64> = (0..stops).map(|_| rng.gen_range(1u64..=5)).collect();
            let run = catch_unwind(AssertUnwindSafe(|| {
                let world = MegaServiceWorld::new(&cfg);
                let mut harness = MegaServiceHarness::new(&world, &cfg);
                if primed {
                    harness.prime();
                }
                let mut target = 0;
                for gap in &gaps {
                    target += gap;
                    assert!(harness.run_until(target));
                }
            }));
            assert!(
                run.is_ok(),
                "fleet {fleet} failed: {cfg:?}, primed {primed}, gaps {gaps:?}"
            );
        }
    }

    /// The parked counts every shard's lookahead reads equal its `Help`
    /// matrix after every segment of crashy fleets (hazard up to 10⁻²).
    #[test]
    fn fleet_parked_counts_match_the_help_matrix() {
        for (seed, slots, shards, crash_hazard) in
            [(1, 2, 5, 1e-2), (2, 3, 3, 2e-3), (3, 8, 4, 1e-2)]
        {
            let base = ServiceConfig {
                seed,
                slots,
                window: 1 << 9,
                arrivals: Arrivals::Poisson { mean_gap: 0.5 },
                crash_hazard,
                admission: Admission {
                    max_inflight: slots,
                    ..ServiceConfig::default().admission
                },
                ..ServiceConfig::default()
            };
            let cfg = MegaServiceConfig { base, shards };
            let world = MegaServiceWorld::new(&cfg);
            let mut harness = MegaServiceHarness::new(&world, &cfg);
            harness.prime();
            for target in (1..=60).map(|segment| 4 * segment) {
                assert!(harness.run_until(target), "{cfg:?}");
                for (shard, w) in harness.shards.iter().zip(&world.worlds) {
                    assert_parked_matches_help(shard, w);
                }
            }
            assert!(harness.tel.totals.crashes > 0, "{cfg:?}");
        }
    }

    /// Asserts that `shard`'s parked-name count for every column equals
    /// the non-null `Help` cells of that column, read from its bank.
    fn assert_parked_matches_help<B: RegisterBank>(
        shard: &ShardState<'_, B>,
        world: &ServiceWorld,
    ) {
        let n = shard.cfg.slots;
        let cells = world.repo.help_occupancy_in_bank(&shard.bank);
        for column in 0..n {
            let names = (0..n)
                .filter(|&row| cells[row * n + column].is_some())
                .count();
            assert_eq!(
                usize::from(shard.slots[column].parked),
                names,
                "column {column} of {cells:?}"
            );
        }
    }

    /// The parked counts the lookahead reads equal the `Help` matrix
    /// after every segment of crashy one-shard runs (hazard up to
    /// 10⁻²).
    #[test]
    fn parked_counts_match_the_help_matrix() {
        let mut parked = 0;
        for (seed, slots, crash_hazard) in [
            (1, 1, 1e-2),
            (2, 2, 0.0),
            (3, 3, 2e-3),
            (4, 4, 1e-2),
            (5, 8, 1e-2),
        ] {
            let cfg = ServiceConfig {
                seed,
                slots,
                arrivals: Arrivals::Poisson { mean_gap: 2.0 },
                crash_hazard,
                admission: Admission {
                    max_inflight: slots,
                    ..ServiceConfig::default().admission
                },
                ..ServiceConfig::default()
            };
            let world = ServiceWorld::new(&cfg);
            let mut harness = ServiceHarness::new(&world, &cfg).0;
            for target in 1..=300 {
                assert!(harness.run_until(target), "{cfg:?}");
                let shard = &harness.shards[0];
                assert_parked_matches_help(shard, &world);
                parked += shard.slots.iter().map(|s| u64::from(s.parked)).sum::<u64>();
            }
            assert_eq!(
                harness.tel.totals.crashes > 0,
                crash_hazard > 0.0,
                "{cfg:?}"
            );
        }
        assert!(parked > 0, "no audit saw a parked name");
    }

    /// Before every grant of a lone session, its floor is at most the
    /// operations it still takes. At each phase's last operation the
    /// floor is that phase's minimum — 7 in the acquire, 6 in the store,
    /// 5 in the collect — and the deposit's operations read 4 (row
    /// event), 3 (column read), 2 (arena write) and 1 (`Help` clear).
    #[test]
    fn session_floors_bound_the_ops_left_and_pin_the_phase_minima() {
        let cfg = ServiceConfig {
            seed: 9,
            slots: 1,
            arrivals: Arrivals::Poisson { mean_gap: 400.0 },
            admission: Admission {
                max_inflight: 1,
                ..ServiceConfig::default().admission
            },
            ..ServiceConfig::default()
        };
        let world = ServiceWorld::new(&cfg);
        let mut h = ServiceHarness::new(&world, &cfg).0;
        let mut floors = Vec::new();
        let mut last = BTreeSet::new();
        while h.completed() < 50 {
            let Some(&slot) = h.shards[0].active.first() else {
                assert!(reference_tick(&mut h));
                continue;
            };
            let session = &h.shards[0].slots[slot].session;
            let (phase, floor) = (session.phase(), session.min_ops_left());
            let done = h.completed();
            assert!(reference_tick(&mut h));
            floors.push(floor);
            if h.completed() > done {
                for (i, &floor) in floors.iter().rev().enumerate() {
                    assert!(floor <= i as u64 + 1, "{floors:?}");
                }
                floors.clear();
            }
            let session = &h.shards[0].slots[slot].session;
            if session.phase() != phase || phase == SessionPhase::Deposit {
                last.insert((format!("{phase:?}"), floor));
            }
        }
        let pinned: BTreeSet<(String, u64)> = [
            ("Acquire", 7),
            ("Store", 6),
            ("Collect", 5),
            ("Deposit", 4),
            ("Deposit", 3),
            ("Deposit", 2),
            ("Deposit", 1),
        ]
        .into_iter()
        .map(|(phase, floor)| (phase.to_string(), floor))
        .collect();
        assert_eq!(last, pinned);
    }

    /// `begin_round` keeps the row state, so a slot whose previous
    /// session left its row service acquiring or parking for column `p`
    /// is a server for `p` while its new session is back in the
    /// acquire, store or collect phase: its park counts the operations
    /// before its next round, then alternating row events, and it gates
    /// the completion bound of `p`'s session.
    #[test]
    fn a_carried_over_row_service_is_a_server() {
        let cfg = ServiceConfig {
            seed: 4,
            slots: 3,
            arrivals: Arrivals::Poisson { mean_gap: 1.0 },
            admission: Admission {
                max_inflight: 3,
                ..ServiceConfig::default().admission
            },
            ..ServiceConfig::default()
        };
        let world = ServiceWorld::new(&cfg);
        let s_min = world.min_session_ops();
        let mut h = ServiceHarness::new(&world, &cfg).0;
        let mut seen = BTreeSet::new();
        while seen.len() < 3 {
            assert!(reference_tick(&mut h) && h.completed() < 20_000);
            let shard = &h.shards[0];
            let mut gate = vec![u64::MAX; cfg.slots];
            for &slot in &shard.active {
                if let Some((column, ops)) = shard.slots[slot].session.pending_park() {
                    gate[column] = gate[column].min(ops);
                }
            }
            for &slot in &shard.active {
                let session = &shard.slots[slot].session;
                let Some((column, rows)) = session.deposit.pending_park() else {
                    continue;
                };
                if session.phase() == SessionPhase::Deposit {
                    continue;
                }
                // The operations to the deposit round, then `rows` row
                // events alternating with column reads.
                let to_deposit = session.min_ops_left() - DepositOp::MIN_OPS;
                let ops = to_deposit + 2 * rows - 1;
                assert_eq!(session.pending_park(), Some((column, ops)));
                if shard.active_pos[column] == NOT_ACTIVE || shard.slots[column].parked > 0 {
                    continue;
                }
                let bound = shard.completion_bound(column, &gate);
                let floor = shard.slots[column].session.min_ops_left();
                assert!(bound <= floor.max(ops + 3));
                if ops + 3 < s_min {
                    assert!(bound < s_min, "slot {slot} does not gate column {column}");
                    seen.insert(format!("{:?}", session.phase()));
                }
            }
        }
    }

    /// Every session takes at least `S_min(n) = 5n + 9` granted ops, and
    /// no epoch completes more sessions before its last tick than its
    /// bound: both are asserted online (in `ShardState::grant` and in
    /// the epoch loop), here over slots 1..=8 under light and overload
    /// arrivals, crashless and at hazard 2e-3, in short segments.
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
