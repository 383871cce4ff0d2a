//! Open-loop service harness: client sessions over the paper's objects,
//! with fault injection, admission control and retry/backoff.
//!
//! The closed-loop trial drivers ([`StepEngine`](crate::StepEngine))
//! run a *fixed* contender set to quiescence. This module models the
//! "repository as a service" view instead: clients **arrive** by a
//! pluggable process ([`Arrivals`] — Poisson, bursty, diurnal ramp),
//! are **admitted** against an in-flight bound (or queued, or shed into
//! jittered exponential backoff — [`Admission`]), run one
//! acquire → store → collect → deposit **session** across the unbounded
//! naming object, a store&collect object and the wait-free altruistic
//! repository, and **depart** — while a fault injector crashes in-flight
//! sessions by a configurable per-step hazard and forces the client to
//! re-enter as a fresh contender.
//!
//! The harness is built from the same parts as the engine — pooled
//! [`StepMachine`]s over a [`RegisterBank`], one shared-memory operation
//! per granted step, every random choice drawn from seeded [`SmallRng`]
//! streams (the policy RNG discipline) — but runs the sharded fleet's
//! grant loop ([`mega`]) as a fleet of one shard, because open-loop
//! membership (slots bind, free, and re-bind clients mid-run) is exactly
//! what the engine's closed trial cannot express. All machines are
//! built once per slot and re-armed in place, so the steady state
//! performs **zero heap allocations**; telemetry is plain `u64` rows
//! ([`WindowRow`]) pushed into a pre-sized buffer, so a run is
//! bit-identical per seed.
//!
//! # Crash–re-entry semantics
//!
//! A crash kills the *incarnation*, not the slot: the slot's session
//! machine ([`SessionOp`]) stays mid-flight, and the next session on the
//! slot (the client's re-entry through admission, after backoff, or
//! another client's) re-enters the naming or deposit machine as a fresh
//! contender. Integers claimed by dead incarnations stay claimed
//! (wasted, per the paper's crash budget), and **completed sessions'
//! tickets are pairwise exclusive**.
//!
//! # Example
//!
//! ```
//! use exsel_sim::service::{Admission, Arrivals, ServiceConfig, ServiceHarness, ServiceWorld};
//!
//! let cfg = ServiceConfig {
//!     seed: 7,
//!     slots: 4,
//!     target_sessions: 200,
//!     // The in-flight bound may not exceed the slot count.
//!     admission: Admission {
//!         max_inflight: 4,
//!         ..ServiceConfig::default().admission
//!     },
//!     ..ServiceConfig::default()
//! };
//! let world = ServiceWorld::new(&cfg);
//! let report = ServiceHarness::new(&world, &cfg).run();
//! assert!(report.totals.completed >= 200);
//! // Completed sessions hold pairwise-distinct tickets.
//! let mut names = report.names.clone();
//! names.sort_unstable();
//! names.dedup();
//! assert_eq!(names.len() as u64, report.totals.completed);
//! ```

pub mod mega;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use exsel_core::RenameConfig;
use exsel_shm::{Pid, Poll, RegAlloc, RegisterBank, SlabBank, SnapArenaStats, StepMachine};
use exsel_storecollect::StoreCollect;
use exsel_unbounded::{AltruisticDeposit, DepositOp, UnboundedNaming};
use rand::{rngs::SmallRng, Rng, RngCore, SeedableRng};

use crate::engine::{grant, GrantChecks};
use crate::machines::{SessionOp, SessionPhase};

/// How clients arrive, in service-clock steps. Every process is driven
/// by its own seeded RNG stream, so the arrival schedule is a pure
/// function of the configuration.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Poisson arrivals: exponential inter-arrival gaps with the given
    /// mean (steps).
    Poisson {
        /// Mean inter-arrival gap in steps.
        mean_gap: f64,
    },
    /// Bursty on/off arrivals: Poisson with `mean_gap` during a burst of
    /// `burst` steps, silence for `lull` steps, repeating.
    Bursty {
        /// Mean inter-arrival gap during a burst.
        mean_gap: f64,
        /// Burst length in steps.
        burst: u64,
        /// Silence length in steps.
        lull: u64,
    },
    /// Diurnal ramp: Poisson whose mean gap sweeps between `peak_gap`
    /// (mid-cycle, busiest) and `trough_gap` (cycle edges, quietest)
    /// along a triangular profile of the given period.
    Diurnal {
        /// Mean gap at the daily peak (smallest).
        peak_gap: f64,
        /// Mean gap at the daily trough (largest).
        trough_gap: f64,
        /// Cycle length in steps.
        period: u64,
    },
}

impl Arrivals {
    /// The same process with every inter-arrival gap multiplied by
    /// `factor`, burst/lull and diurnal phases kept: how a fleet thins
    /// one arrival stream per shard, or holds per-shard load as it is
    /// resized.
    #[must_use]
    pub fn scale_gaps(self, factor: f64) -> Self {
        match self {
            Arrivals::Poisson { mean_gap } => Arrivals::Poisson {
                mean_gap: mean_gap * factor,
            },
            Arrivals::Bursty {
                mean_gap,
                burst,
                lull,
            } => Arrivals::Bursty {
                mean_gap: mean_gap * factor,
                burst,
                lull,
            },
            Arrivals::Diurnal {
                peak_gap,
                trough_gap,
                period,
            } => Arrivals::Diurnal {
                peak_gap: peak_gap * factor,
                trough_gap: trough_gap * factor,
                period,
            },
        }
    }

    /// Steps from `now` to the next arrival (≥ 1).
    fn next_gap(&self, now: u64, rng: &mut SmallRng) -> u64 {
        match *self {
            Arrivals::Poisson { mean_gap } => exp_gap(mean_gap, rng),
            Arrivals::Bursty {
                mean_gap,
                burst,
                lull,
            } => {
                let cycle = burst + lull;
                let pos = if cycle == 0 { 0 } else { now % cycle };
                // If we sit in the lull, first jump to the next burst.
                let skip = if pos >= burst { cycle - pos } else { 0 };
                skip + exp_gap(mean_gap, rng)
            }
            Arrivals::Diurnal {
                peak_gap,
                trough_gap,
                period,
            } => {
                let phase = if period == 0 {
                    0.0
                } else {
                    (now % period) as f64 / period as f64
                };
                // Triangular: 1 at the cycle edges (trough), 0 mid-cycle.
                let tri = 2.0 * (phase - 0.5).abs();
                exp_gap(peak_gap + (trough_gap - peak_gap) * tri, rng)
            }
        }
    }
}

/// One exponential gap with the given mean, floored at one step (and
/// capped defensively — a `mean_gap` of hours must not overflow the
/// clock).
fn exp_gap(mean: f64, rng: &mut SmallRng) -> u64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let gap = -mean * (1.0 - u).ln();
    gap.min(1e15).ceil().max(1.0) as u64
}

/// The admission-control policy: how much in-flight contention the
/// service accepts, and what happens to the overflow.
///
/// An arriving (or re-entering) client is **admitted** when in-flight
/// sessions sit below `max_inflight` and a slot is free; otherwise it
/// **queues** FIFO while the waiting room has space; otherwise it is
/// **shed** into exponential backoff — retrying after
/// `base << attempt` steps (capped, plus uniform jitter of up to half
/// the delay) — until `max_retries` attempts are spent or the backoff
/// population itself overflows `waiting_capacity`, at which point the
/// client is cleanly **rejected**.
#[derive(Clone, Copy, Debug)]
pub struct Admission {
    /// Sessions allowed in flight simultaneously (1 ≤ `max_inflight` ≤
    /// slots).
    pub max_inflight: usize,
    /// FIFO waiting-room capacity; 0 disables queueing.
    pub queue_capacity: usize,
    /// Base backoff delay in steps (attempt 0).
    pub backoff_base: u64,
    /// Upper bound on a single backoff delay.
    pub backoff_cap: u64,
    /// Backoff attempts before a client is rejected for good.
    pub max_retries: u32,
    /// Bound on clients simultaneously in backoff; overflow is rejected
    /// outright (hard load shedding).
    pub waiting_capacity: usize,
}

impl Admission {
    /// The un-jittered backoff delay for the given attempt:
    /// `backoff_base << attempt`, capped at `backoff_cap`. A shift that
    /// would push bits out of the word saturates at the cap instead of
    /// wrapping towards 0.
    fn backoff(&self, attempt: u32) -> u64 {
        let base = self.backoff_base.max(1);
        let cap = self.backoff_cap.max(1);
        if attempt <= base.leading_zeros() {
            (base << attempt).min(cap)
        } else {
            cap
        }
    }

    /// The jittered exponential backoff delay for the given attempt.
    fn delay(&self, attempt: u32, rng: &mut SmallRng) -> u64 {
        let base = self.backoff(attempt);
        base.saturating_add(rng.gen_range(0..=base / 2))
    }
}

/// Full configuration of a service run. Everything is in **service
/// steps** (one granted shared-memory operation; idle gaps fast-forward
/// the clock), so a run is a pure function of this struct.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Seed for every RNG stream (scheduler, arrivals, hazard, jitter).
    pub seed: u64,
    /// Client slots = the `n` the shared objects are built for (max
    /// concurrent sessions).
    pub slots: usize,
    /// Stop after completing this many sessions (0: run to the horizon
    /// or until drained).
    pub target_sessions: u64,
    /// Stop generating arrivals after this many clients (0: unbounded).
    /// With a bound, the run continues until the system drains.
    pub max_clients: u64,
    /// Hard cap on the service clock.
    pub horizon: u64,
    /// Telemetry window length in steps.
    pub window: u64,
    /// The arrival process.
    pub arrivals: Arrivals,
    /// Per-granted-step crash probability of the in-flight session
    /// (the fault injector's hazard; 0 disables).
    pub crash_hazard: f64,
    /// Admission control.
    pub admission: Admission,
    /// Deposit-arena registers; 0 auto-sizes from the session target
    /// and client budget ([`ServiceConfig::arena`]).
    pub arena_capacity: usize,
    /// Record every completed session's ticket (for exclusivity audits;
    /// costs 8 bytes per session).
    pub record_names: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 0,
            slots: 8,
            target_sessions: 0,
            max_clients: 0,
            horizon: u64::MAX / 4,
            window: 1 << 14,
            arrivals: Arrivals::Poisson { mean_gap: 40.0 },
            crash_hazard: 0.0,
            admission: Admission {
                max_inflight: 8,
                queue_capacity: 16,
                backoff_base: 64,
                backoff_cap: 1 << 14,
                max_retries: 8,
                waiting_capacity: 256,
            },
            arena_capacity: 0,
            record_names: true,
        }
    }
}

impl ServiceConfig {
    /// The deposit-arena size this configuration implies: the explicit
    /// capacity, or twice the expected session count plus crash/park
    /// slack, `2·expected + 4·slots² + 256`. The expected count is the
    /// larger of the session target and the client budget; a run with
    /// neither assumes 4,096 sessions.
    ///
    /// A bounded run's arena holds its own sessions only: driving a
    /// harness past `target_sessions` with `run_until` needs an explicit
    /// `arena_capacity`. A run to its target stops at the end of an
    /// epoch, in which each shard completes at most
    /// `max_inflight ≤ slots` sessions ([`mega`]), so the `4·slots²`
    /// slack covers the sessions past the target. A fleet shard's arena
    /// follows the fleet's largest share
    /// ([`mega::MegaServiceConfig::shard_cfg`]).
    #[must_use]
    pub fn arena(&self) -> usize {
        if self.arena_capacity > 0 {
            return self.arena_capacity;
        }
        let expected = match self.target_sessions.max(self.max_clients) {
            0 => 1 << 12,
            bounded => bounded as usize,
        };
        2 * expected + 4 * self.slots * self.slots + 256
    }
}

/// The shared-memory world a service run executes against: one
/// unbounded-naming object (session tickets), one adaptive store&collect
/// object and one altruistic repository, all sized for `slots`
/// concurrent clients on a single register address space.
#[derive(Debug)]
pub struct ServiceWorld {
    pub(crate) naming: UnboundedNaming,
    pub(crate) sc: StoreCollect,
    pub(crate) repo: AltruisticDeposit,
    registers: usize,
}

impl ServiceWorld {
    /// Builds the world for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.slots == 0`.
    #[must_use]
    pub fn new(cfg: &ServiceConfig) -> Self {
        assert!(cfg.slots > 0, "need at least one client slot");
        let mut alloc = RegAlloc::new();
        let naming = UnboundedNaming::new(&mut alloc, cfg.slots);
        let sc = StoreCollect::adaptive(&mut alloc, cfg.slots, &RenameConfig::default());
        let repo = AltruisticDeposit::new(&mut alloc, cfg.slots, cfg.arena().max(2 * cfg.slots));
        // Pre-seed both naming objects' snapshot arenas with every buffer
        // their holders can pin at once, so even the first contention
        // excursion deep into a run stays allocation-free, where warm-up
        // alone only covers the high-water it happened to visit
        // (2·slots records and 7·slots views per object).
        naming.reserve_snapshot_buffers();
        repo.naming().reserve_snapshot_buffers();
        ServiceWorld {
            naming,
            sc,
            repo,
            registers: alloc.total(),
        }
    }

    /// Total registers the world occupies.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.registers
    }

    /// Registers that can hold a [`exsel_shm::Word::Snap`]: the `slots` snapshot
    /// components of each naming object (the session tickets' and the
    /// repository's), plus those of the store&collect renamer's snapshot
    /// stages, which only a slot's first store writes.
    #[must_use]
    pub fn snapshot_registers(&self) -> usize {
        self.naming.snapshot().num_slots()
            + self.repo.naming().snapshot().num_slots()
            + self.sc.snapshot_registers()
    }

    /// `S_min(n) = 5n + 9`: the fewest granted operations any session
    /// can complete in, summed over its four phases. The acquire takes
    /// at least [`UnboundedNaming::min_acquire_ops`] (`5n + 3`), the
    /// store at least its value write, the collect at least its first
    /// read, and the deposit at least [`DepositOp::MIN_OPS`] (4). Every
    /// completed session is checked against it, and the sharded fleet's
    /// epochs are at most this long ([`mega`]).
    #[must_use]
    pub fn min_session_ops(&self) -> u64 {
        self.naming.min_acquire_ops() + 1 + 1 + DepositOp::MIN_OPS
    }

    /// The two naming objects' snapshot-arena telemetry merged: fresh
    /// and recycled counts add, peaks take the larger arena's. Counters
    /// run from construction, so `fresh_allocations()` counts every miss
    /// of the reserved arenas over every run on this world. (The
    /// store&collect renamer's snapshot stages are not reserved: each
    /// slot's first store fills them once.)
    #[must_use]
    pub fn arena_stats(&self) -> SnapArenaStats {
        let mut stats = self.naming.snapshot().arena().stats();
        stats.merge(&self.repo.naming().snapshot().arena().stats());
        stats
    }
}

impl exsel_shm::Footprint for ServiceWorld {
    /// A session slot's full access contract: the union of the three
    /// component footprints for the slot's pid. The harness's direct
    /// registered-store write lands in the store&collect value bank,
    /// which the component already declares shared, so no extra extent
    /// is needed for it.
    fn footprint(&self, pid: Pid, spec: &mut exsel_shm::FootprintSpec) {
        exsel_shm::Footprint::footprint(&self.naming, pid, spec);
        exsel_shm::Footprint::footprint(&self.sc, pid, spec);
        exsel_shm::Footprint::footprint(&self.repo, pid, spec);
    }
}

/// The per-op latency families a service run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
enum OpFamily {
    Acquire = 0,
    Store = 1,
    Collect = 2,
    Deposit = 3,
    /// Admission → departure.
    Session = 4,
    /// Arrival → departure (includes queue and backoff time).
    Sojourn = 5,
}

const FAMILIES: usize = 6;

impl OpFamily {
    /// The latency family of a session phase.
    fn of(phase: SessionPhase) -> Self {
        match phase {
            SessionPhase::Acquire => OpFamily::Acquire,
            SessionPhase::Store => OpFamily::Store,
            SessionPhase::Collect => OpFamily::Collect,
            SessionPhase::Deposit => OpFamily::Deposit,
            SessionPhase::Idle => unreachable!("an idle session has no latency"),
        }
    }
}

/// A fixed-size log-bucketed step-latency histogram: values 0–7 exact,
/// then four sub-buckets per octave (≈ ±12% resolution) up to `u64::MAX`
/// — 256 buckets total, recording and quantile extraction both
/// allocation-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepHistogram {
    counts: [u64; 256],
    total: u64,
}

impl Default for StepHistogram {
    fn default() -> Self {
        StepHistogram {
            counts: [0; 256],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let lg = 63 - v.leading_zeros() as usize; // ≥ 3
        let sub = ((v >> (lg - 2)) & 3) as usize;
        8 + (lg - 3) * 4 + sub
    }
}

fn bucket_low(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let lg = 3 + (idx - 8) / 4;
        let sub = ((idx - 8) % 4) as u64;
        (1u64 << lg) + (sub << (lg - 2))
    }
}

impl StepHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `num/den` quantile (lower bound of its bucket, in steps);
    /// 0 when empty.
    #[must_use]
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (self.total * num).div_ceil(den).max(1);
        let mut cum = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_low(idx);
            }
        }
        bucket_low(255)
    }

    /// Clears all buckets in place.
    pub fn clear(&mut self) {
        self.counts = [0; 256];
        self.total = 0;
    }
}

/// Counter deltas and end-of-window gauges for one telemetry window —
/// all `u64`, so rendering them (JSON Lines in exsel-bench) is
/// bit-identical per seed. Latency quantiles are *within-window*, in
/// steps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowRow {
    /// Window index.
    pub window: u64,
    /// First step of the window.
    pub start: u64,
    /// First step past the window.
    pub end: u64,
    /// Clients arriving in the window.
    pub arrivals: u64,
    /// Session starts (binds), including retries and re-entries.
    pub admitted: u64,
    /// Sessions completed (windowed throughput).
    pub completed: u64,
    /// Fault-injector crashes.
    pub crashes: u64,
    /// Re-entries of previously crashed clients.
    pub reentries: u64,
    /// Backoff retries (shed clients re-arriving).
    pub retries: u64,
    /// Admission refusals shed into backoff.
    pub shed: u64,
    /// Clients rejected for good.
    pub rejected: u64,
    /// Sessions in flight at window end.
    pub inflight: u64,
    /// Waiting-room depth at window end.
    pub queued: u64,
    /// Backoff population at window end.
    pub waiting: u64,
    /// Session (admission → departure) latency quantiles.
    pub session_p50: u64,
    /// See [`WindowRow::session_p50`].
    pub session_p99: u64,
    /// See [`WindowRow::session_p50`].
    pub session_p999: u64,
    /// Sojourn (arrival → departure) p99.
    pub sojourn_p99: u64,
    /// Acquire-phase latency quantiles.
    pub acquire_p50: u64,
    /// See [`WindowRow::acquire_p50`].
    pub acquire_p99: u64,
    /// See [`WindowRow::acquire_p50`].
    pub acquire_p999: u64,
    /// Store-phase latency quantiles.
    pub store_p50: u64,
    /// See [`WindowRow::store_p50`].
    pub store_p99: u64,
    /// See [`WindowRow::store_p50`].
    pub store_p999: u64,
    /// Collect-phase latency quantiles.
    pub collect_p50: u64,
    /// See [`WindowRow::collect_p50`].
    pub collect_p99: u64,
    /// See [`WindowRow::collect_p50`].
    pub collect_p999: u64,
    /// Deposit-phase latency quantiles.
    pub deposit_p50: u64,
    /// See [`WindowRow::deposit_p50`].
    pub deposit_p99: u64,
    /// See [`WindowRow::deposit_p50`].
    pub deposit_p999: u64,
}

/// Whole-run totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Clients that arrived.
    pub arrivals: u64,
    /// Session starts (binds), including retries and re-entries.
    pub admitted: u64,
    /// Sessions completed.
    pub completed: u64,
    /// Fault-injector crashes.
    pub crashes: u64,
    /// Re-entries of crashed clients.
    pub reentries: u64,
    /// Backoff retries.
    pub retries: u64,
    /// Admission refusals shed into backoff.
    pub shed: u64,
    /// Clients rejected for good.
    pub rejected: u64,
    /// Granted shared-memory operations.
    pub ops: u64,
    /// Final service clock.
    pub steps: u64,
}

/// The result of a service run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceReport {
    /// Whole-run totals.
    pub totals: Totals,
    /// The telemetry time series, one row per window.
    pub windows: Vec<WindowRow>,
    /// Whole-run per-op latency histograms, indexable by the same
    /// order as the window quantiles: acquire, store, collect, deposit,
    /// session, sojourn.
    pub cumulative: Vec<StepHistogram>,
    /// Tickets of completed sessions: in completion order from one
    /// shard, in ascending order from a fleet of more (empty unless
    /// [`ServiceConfig::record_names`]).
    pub names: Vec<u64>,
    /// Clients still in the system at the end (in flight + queued +
    /// backing off). 0 means the run drained cleanly.
    pub in_system: u64,
}

impl ServiceReport {
    /// The accounting identity every run satisfies: every arrival is
    /// completed, cleanly rejected, or still in the system.
    #[must_use]
    pub fn accounted(&self) -> bool {
        self.totals.arrivals == self.totals.completed + self.totals.rejected + self.in_system
    }
}

/// A client's journey record while waiting (queue or backoff). The
/// timer heap orders its entries by `(due, seq)` alone, since every
/// `seq` is distinct.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Client {
    id: u64,
    arrival: u64,
    attempt: u32,
    crashed: bool,
}

/// One client slot: the session machine of its pid ([`SessionOp`])
/// plus the bound session's bookkeeping.
struct Slot<'w> {
    session: SessionOp<'w>,
    client: Client,
    session_start: u64,
    phase_start: u64,
    /// Operations granted to the bound session so far (a `u32` fits
    /// the slot's padding; it saturates rather than wraps).
    ops: u32,
}

/// The telemetry sink of a service run: global counter totals, the
/// current window's histograms and counter deltas, the emitted window
/// rows, the whole-run histograms and the ticket audit. A fleet
/// ([`mega`]) aggregates every shard into one shared sink, which is
/// what makes its windows and totals a *global roll-up* rather than
/// per-shard fragments.
struct Telemetry {
    /// Window length in steps ([`ServiceConfig::window`]).
    window: u64,
    window_hists: Vec<StepHistogram>,
    cumulative: Vec<StepHistogram>,
    window_counts: WindowRow,
    windows: Vec<WindowRow>,
    window_end: u64,
    totals: Totals,
    names: Vec<u64>,
    record_names: bool,
    /// Sessions in flight, summed over every shard that records into
    /// this sink.
    inflight: u64,
}

impl Telemetry {
    /// Builds the sink for the fleet `fleet`, pre-sizing the window and
    /// audit buffers so a bounded run records into them allocation-free.
    /// A run to a session target can stop up to
    /// `shards · max_inflight − 1` sessions past it ([`mega`]), so the
    /// audit reserves that overshoot too.
    fn new(fleet: &mega::MegaServiceConfig) -> Self {
        let cfg = &fleet.base;
        // Cap the pre-reservation: an open-ended horizon (the default is
        // u64::MAX / 4) would otherwise ask for gigabytes of window rows.
        // 2^18 windows is orders of magnitude beyond any bounded run; a
        // run that outlives the reservation reallocates amortized, which
        // only the zero-alloc gate (bounded scenarios) would notice.
        let est_windows =
            usize::try_from((cfg.horizon / cfg.window).min(1 << 18).saturating_add(2)).unwrap_or(2);
        let expected_names = if cfg.record_names {
            let inflight = fleet.shards as u64 * cfg.admission.max_inflight as u64;
            let target = match cfg.target_sessions {
                0 => 0,
                target => target.saturating_add(inflight),
            };
            usize::try_from(target.max(cfg.max_clients))
                .unwrap_or(0)
                .saturating_add(64)
        } else {
            0
        };
        Telemetry {
            window: cfg.window,
            window_hists: vec![StepHistogram::default(); FAMILIES],
            cumulative: vec![StepHistogram::default(); FAMILIES],
            window_counts: WindowRow::default(),
            windows: Vec::with_capacity(est_windows),
            window_end: cfg.window,
            totals: Totals::default(),
            names: Vec::with_capacity(expected_names),
            record_names: cfg.record_names,
            inflight: 0,
        }
    }

    /// Records a completed phase's latency.
    fn record(&mut self, family: OpFamily, sample: u64) {
        self.window_hists[family as usize].record(sample);
        self.cumulative[family as usize].record(sample);
    }

    /// Emits window rows for every boundary at or before `now`. The
    /// gauges are the run's current `(inflight, queued, waiting)` —
    /// summed across shards by a sharded caller — and are constant
    /// across the (idle) span a multi-boundary roll covers.
    fn roll(&mut self, now: u64, gauges: (u64, u64, u64)) {
        while now >= self.window_end {
            self.emit(gauges);
        }
    }

    fn emit(&mut self, (inflight, queued, waiting): (u64, u64, u64)) {
        let mut row = self.window_counts;
        row.window = self.windows.len() as u64;
        row.start = self.window_end - self.window;
        row.end = self.window_end;
        row.inflight = inflight;
        row.queued = queued;
        row.waiting = waiting;
        let q = |h: &StepHistogram, n: u64, d: u64| h.quantile(n, d);
        let h = &self.window_hists;
        row.session_p50 = q(&h[OpFamily::Session as usize], 1, 2);
        row.session_p99 = q(&h[OpFamily::Session as usize], 99, 100);
        row.session_p999 = q(&h[OpFamily::Session as usize], 999, 1000);
        row.sojourn_p99 = q(&h[OpFamily::Sojourn as usize], 99, 100);
        row.acquire_p50 = q(&h[OpFamily::Acquire as usize], 1, 2);
        row.acquire_p99 = q(&h[OpFamily::Acquire as usize], 99, 100);
        row.acquire_p999 = q(&h[OpFamily::Acquire as usize], 999, 1000);
        row.store_p50 = q(&h[OpFamily::Store as usize], 1, 2);
        row.store_p99 = q(&h[OpFamily::Store as usize], 99, 100);
        row.store_p999 = q(&h[OpFamily::Store as usize], 999, 1000);
        row.collect_p50 = q(&h[OpFamily::Collect as usize], 1, 2);
        row.collect_p99 = q(&h[OpFamily::Collect as usize], 99, 100);
        row.collect_p999 = q(&h[OpFamily::Collect as usize], 999, 1000);
        row.deposit_p50 = q(&h[OpFamily::Deposit as usize], 1, 2);
        row.deposit_p99 = q(&h[OpFamily::Deposit as usize], 99, 100);
        row.deposit_p999 = q(&h[OpFamily::Deposit as usize], 999, 1000);
        self.windows.push(row);
        self.window_counts = WindowRow::default();
        for hist in &mut self.window_hists {
            hist.clear();
        }
        self.window_end += self.window;
    }

    /// Whether the current partial window holds anything.
    fn pending(&self) -> bool {
        self.window_counts != WindowRow::default()
            || self.window_hists.iter().any(|h| h.total() > 0)
    }

    /// The final flush: emits boundaries crossed by the last
    /// fast-forward plus the partial window if it holds anything, stamps
    /// the clock, and assembles the report. Every client in the system
    /// counts in one of the three gauges.
    fn finish(mut self, now: u64, gauges: (u64, u64, u64)) -> ServiceReport {
        self.roll(now, gauges);
        if self.pending() {
            self.emit(gauges);
        }
        self.totals.steps = now;
        ServiceReport {
            totals: self.totals,
            windows: self.windows,
            cumulative: self.cumulative,
            names: self.names,
            in_system: gauges.0 + gauges.1 + gauges.2,
        }
    }
}

/// The per-shard control plane of a service run: the slot slab, the
/// free/active lists, the admission queue, the backoff timer heap, the
/// four seeded RNG streams and the shard's own counter totals.
/// [`mega::MegaServiceHarness`] drives a vector of them in lock-step
/// against one shared [`Telemetry`] sink and one global clock;
/// [`ServiceHarness`] is a fleet of one. Every counter increments both
/// the shard's [`Totals`] and the sink's, so per-shard accounting
/// provably sums to the roll-up.
struct ShardState<'w, B: RegisterBank> {
    cfg: ServiceConfig,
    bank: B,
    slots: Vec<Slot<'w>>,
    free: Vec<usize>,
    active: Vec<usize>,
    /// `active_pos[slot]` is the slot's index in `active`
    /// (`usize::MAX` when inactive).
    active_pos: Vec<usize>,
    queue: VecDeque<Client>,
    timers: BinaryHeap<Reverse<(u64, u64, Client)>>,
    timer_seq: u64,
    sched_rng: SmallRng,
    arrival_rng: SmallRng,
    hazard_rng: SmallRng,
    jitter_rng: SmallRng,
    next_arrival: u64,
    next_client: u64,
    waiting: usize,
    totals: Totals,
    /// Completed tickets are published to the audit as
    /// `ticket * ticket_step + ticket_base` — the identity map for a
    /// one-shard fleet (step 1, base 0), shard-namespaced for larger
    /// fleets so tickets stay globally exclusive across the shards'
    /// independent naming objects.
    ticket_step: u64,
    ticket_base: u64,
    /// [`ServiceWorld::min_session_ops`], asserted at every completion.
    min_session_ops: u64,
    /// The shard's footprint checker ([`grant`]), over every granted
    /// and priming operation. Each shard's world and bank are
    /// register-disjoint, so per-shard checking is exactly whole-run
    /// checking.
    checks: GrantChecks,
}

/// The open-loop service harness; see the module docs. It is a fleet of
/// one shard ([`mega::MegaServiceHarness`]) over `world`, which it
/// borrows (machines hold references into the shared objects); it owns
/// the register bank, the clock, and every waiting-room structure.
/// Like the fleet, it defaults to the [`SlabBank`] backend.
pub struct ServiceHarness<'w, B: RegisterBank = SlabBank>(mega::MegaServiceHarness<'w, B>);

const NOT_ACTIVE: usize = usize::MAX;

impl<'w, B: RegisterBank> ShardState<'w, B> {
    /// Builds one shard over `world` with its own register bank.
    /// Completed tickets are published as
    /// `ticket * ticket_step + ticket_base`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (no slots, a zero
    /// window, or an in-flight bound of 0 or above the slot count).
    fn new(
        world: &'w ServiceWorld,
        cfg: &ServiceConfig,
        mut bank: B,
        ticket_base: u64,
        ticket_step: u64,
    ) -> Self {
        assert!(cfg.slots > 0, "need at least one client slot");
        assert!(cfg.window > 0, "telemetry window must be positive");
        // A bound of 0 queues every client forever, and the run never
        // drains. With a bound of at least 1, a shard with a non-empty
        // queue always has a session in flight.
        assert!(
            cfg.admission.max_inflight > 0,
            "in-flight bound 0 admits no session"
        );
        assert!(
            cfg.admission.max_inflight <= cfg.slots,
            "in-flight bound {} above the {} slots",
            cfg.admission.max_inflight,
            cfg.slots
        );
        bank.reset(world.registers);
        let slots: Vec<Slot<'w>> = (0..cfg.slots)
            .map(|p| Slot {
                session: SessionOp::new(world, Pid(p)),
                client: Client {
                    id: 0,
                    arrival: 0,
                    attempt: 0,
                    crashed: false,
                },
                session_start: 0,
                phase_start: 0,
                ops: 0,
            })
            .collect();
        let mut arrival_rng = SmallRng::seed_from_u64(cfg.seed ^ 0xA221_55A1);
        let first_arrival = cfg.arrivals.next_gap(0, &mut arrival_rng);
        ShardState {
            cfg: *cfg,
            bank,
            free: (0..cfg.slots).rev().collect(),
            active: Vec::with_capacity(cfg.slots),
            active_pos: vec![NOT_ACTIVE; cfg.slots],
            slots,
            queue: VecDeque::with_capacity(cfg.admission.queue_capacity.saturating_add(1)),
            timers: BinaryHeap::with_capacity(cfg.admission.waiting_capacity.saturating_add(1)),
            timer_seq: 0,
            sched_rng: SmallRng::seed_from_u64(cfg.seed),
            arrival_rng,
            hazard_rng: SmallRng::seed_from_u64(cfg.seed ^ 0x4A5A_12D0_FFB3),
            jitter_rng: SmallRng::seed_from_u64(cfg.seed ^ 0xB0FF_0FF5),
            next_arrival: first_arrival,
            next_client: 0,
            waiting: 0,
            totals: Totals::default(),
            ticket_step,
            ticket_base,
            min_session_ops: world.min_session_ops(),
            checks: GrantChecks::default(),
        }
    }

    /// Whether no further arrivals will be generated on this shard.
    fn arrivals_exhausted(&self) -> bool {
        self.cfg.max_clients > 0 && self.totals.arrivals >= self.cfg.max_clients
    }

    fn inflight(&self) -> usize {
        self.cfg.slots - self.free.len()
    }

    /// The shard's `(inflight, queued, waiting)` gauges.
    fn gauges(&self) -> (u64, u64, u64) {
        (
            self.inflight() as u64,
            self.queue.len() as u64,
            self.waiting as u64,
        )
    }

    /// Fires every backoff/re-entry timer due at or before `now`.
    fn fire_due_timers(&mut self, now: u64, tel: &mut Telemetry) {
        while let Some(Reverse((due, _, client))) = self.timers.peek().copied() {
            if due > now {
                break;
            }
            self.timers.pop();
            self.waiting -= 1;
            if client.crashed {
                self.totals.reentries += 1;
                tel.totals.reentries += 1;
                tel.window_counts.reentries += 1;
            } else {
                self.totals.retries += 1;
                tel.totals.retries += 1;
                tel.window_counts.retries += 1;
            }
            self.admit(client, now, tel);
        }
    }

    /// Generates every arrival due at or before `now`.
    fn generate_arrivals(&mut self, now: u64, tel: &mut Telemetry) {
        while self.next_arrival <= now && !self.arrivals_exhausted() {
            self.totals.arrivals += 1;
            tel.totals.arrivals += 1;
            tel.window_counts.arrivals += 1;
            let client = Client {
                id: self.next_client,
                arrival: self.next_arrival,
                attempt: 0,
                crashed: false,
            };
            self.next_client += 1;
            let gap = self
                .cfg
                .arrivals
                .next_gap(self.next_arrival, &mut self.arrival_rng);
            self.next_arrival += gap;
            self.admit(client, now, tel);
        }
    }

    /// Admission control: bind, queue, shed into backoff, or reject.
    fn admit(&mut self, client: Client, now: u64, tel: &mut Telemetry) {
        if self.inflight() < self.cfg.admission.max_inflight && !self.free.is_empty() {
            let slot = self.free.pop().expect("checked non-empty");
            self.bind(slot, client, now, tel);
        } else if self.queue.len() < self.cfg.admission.queue_capacity {
            self.queue.push_back(client);
        } else {
            self.totals.shed += 1;
            tel.totals.shed += 1;
            tel.window_counts.shed += 1;
            self.backoff_or_reject(client, now, tel);
        }
    }

    /// Sheds `client` into jittered exponential backoff, or rejects it
    /// for good once its attempts or the waiting room are exhausted.
    fn backoff_or_reject(&mut self, mut client: Client, now: u64, tel: &mut Telemetry) {
        if client.attempt >= self.cfg.admission.max_retries
            || self.waiting >= self.cfg.admission.waiting_capacity
        {
            self.totals.rejected += 1;
            tel.totals.rejected += 1;
            tel.window_counts.rejected += 1;
            return;
        }
        let delay = self
            .cfg
            .admission
            .delay(client.attempt, &mut self.jitter_rng);
        client.attempt += 1;
        self.timer_seq += 1;
        self.timers
            .push(Reverse((now + delay, self.timer_seq, client)));
        self.waiting += 1;
    }

    /// Binds `client` to `slot` and starts its session at the acquire
    /// phase.
    fn bind(&mut self, slot: usize, client: Client, now: u64, tel: &mut Telemetry) {
        self.totals.admitted += 1;
        tel.totals.admitted += 1;
        tel.window_counts.admitted += 1;
        tel.inflight += 1;
        let s = &mut self.slots[slot];
        s.client = client;
        s.session_start = now;
        s.phase_start = now;
        s.ops = 0;
        s.session.begin(client.id);
        debug_assert_eq!(self.active_pos[slot], NOT_ACTIVE);
        self.active_pos[slot] = self.active.len();
        self.active.push(slot);
    }

    /// Removes `slot` from the active set.
    fn deactivate(&mut self, slot: usize) {
        let pos = self.active_pos[slot];
        debug_assert_ne!(pos, NOT_ACTIVE);
        self.active.swap_remove(pos);
        if pos < self.active.len() {
            self.active_pos[self.active[pos]] = pos;
        }
        self.active_pos[slot] = NOT_ACTIVE;
    }

    /// Crashes the in-flight session on `slot`: the incarnation dies
    /// mid-operation, the slot frees, and the client is scheduled to
    /// re-enter as a fresh contender (or rejected once its attempts are
    /// spent).
    fn crash(&mut self, slot: usize, now: u64, tel: &mut Telemetry) {
        self.totals.crashes += 1;
        tel.totals.crashes += 1;
        tel.window_counts.crashes += 1;
        tel.inflight -= 1;
        let s = &mut self.slots[slot];
        s.session.crash();
        let mut client = s.client;
        client.crashed = true;
        self.deactivate(slot);
        self.free.push(slot);
        self.backoff_or_reject(client, now, tel);
        self.drain_queue(now, tel);
    }

    /// Moves queued clients onto freed slots.
    fn drain_queue(&mut self, now: u64, tel: &mut Telemetry) {
        while !self.queue.is_empty()
            && self.inflight() < self.cfg.admission.max_inflight
            && !self.free.is_empty()
        {
            let client = self.queue.pop_front().expect("checked non-empty");
            let slot = self.free.pop().expect("checked non-empty");
            self.bind(slot, client, now, tel);
        }
    }

    /// Grants one shared-memory operation to the session on `slot` and
    /// advances its machine.
    ///
    /// # Panics
    ///
    /// Panics if the session completes in fewer than
    /// [`ServiceWorld::min_session_ops`] operations.
    fn grant(&mut self, slot: usize, now: u64, tel: &mut Telemetry) {
        self.totals.ops += 1;
        tel.totals.ops += 1;
        let s = &mut self.slots[slot];
        s.ops = s.ops.saturating_add(1);
        let phase = s.session.phase();
        let op = s.session.op();
        let poll = grant(
            &mut self.bank,
            &mut self.checks,
            &mut s.session,
            op,
            Pid(slot),
            self.totals.ops,
        );
        if s.session.phase() != phase {
            tel.record(OpFamily::of(phase), now + 1 - s.phase_start);
            s.phase_start = now + 1;
        }
        let Poll::Ready(ticket) = poll else {
            return;
        };
        assert!(
            u64::from(s.ops) >= self.min_session_ops,
            "a session completed in {} ops, below S_min = {}",
            s.ops,
            self.min_session_ops
        );
        tel.record(OpFamily::Session, now + 1 - s.session_start);
        tel.record(OpFamily::Sojourn, now + 1 - s.client.arrival);
        tel.inflight -= 1;
        self.totals.completed += 1;
        tel.totals.completed += 1;
        tel.window_counts.completed += 1;
        if tel.record_names {
            tel.names.push(ticket * self.ticket_step + self.ticket_base);
        }
        self.deactivate(slot);
        self.free.push(slot);
        self.drain_queue(now, tel);
    }

    /// Pre-registers every slot's store&collect infrastructure: drives
    /// each slot's first store to registration, then one throwaway
    /// collect per slot over the fully registered shard, so the slot
    /// machinery's one-time buffer growth (rename scratch, collect
    /// caches, view slices) happens here rather than inside measured
    /// sessions. Infrastructure only — slot registration is explicitly
    /// not client state — so naming and deposit objects are untouched,
    /// nothing is recorded, and no ops are counted; but the register
    /// writes are real, so a primed run is *not* bit-identical to an
    /// unprimed one.
    fn prime(&mut self) {
        let mut index = 0;
        for (slot, s) in self.slots.iter_mut().enumerate() {
            let session = &mut s.session;
            while session.registered.is_none() {
                index += 1;
                let store = &mut session.first_store;
                let op = store.op();
                let bank = &mut self.bank;
                if let Poll::Ready(reg) = grant(bank, &mut self.checks, store, op, Pid(slot), index)
                {
                    session.registered = Some(reg.expect("store&collect sized for every slot"));
                }
            }
        }
        for (slot, s) in self.slots.iter_mut().enumerate() {
            let collect = &mut s.session.collect;
            collect.rearm();
            loop {
                index += 1;
                let op = collect.op();
                let bank = &mut self.bank;
                if grant(bank, &mut self.checks, collect, op, Pid(slot), index)
                    .ready()
                    .is_some()
                {
                    break;
                }
            }
        }
    }

    /// One scheduling step of this shard, which must have a session in
    /// flight: picks an active slot under the shard's scheduler stream,
    /// draws the crash hazard, and grants (or crashes) one shared-memory
    /// operation. Returns whether the session crashed, which may have
    /// given its client a new timer.
    fn step(&mut self, now: u64, tel: &mut Telemetry) -> bool {
        let pick = self.sched_rng.gen_range(0..self.active.len());
        let slot = self.active[pick];
        let crash = self.cfg.crash_hazard > 0.0 && self.hazard_rng.gen_bool(self.cfg.crash_hazard);
        if crash {
            self.crash(slot, now, tel);
        } else {
            self.grant(slot, now, tel);
        }
        crash
    }

    /// The shard's next scheduled event (arrival or timer);
    /// `u64::MAX` when it has none.
    fn next_event(&self) -> u64 {
        let mut next = u64::MAX;
        if !self.arrivals_exhausted() {
            next = next.min(self.next_arrival);
        }
        if let Some(Reverse((due, _, _))) = self.timers.peek() {
            next = next.min(*due);
        }
        next
    }
}

impl<'w> ServiceHarness<'w> {
    /// Builds a harness over a [`SlabBank`] reserved like each shard of
    /// [`mega::MegaServiceHarness::new`], so the two build the same
    /// shard.
    #[must_use]
    pub fn new(world: &'w ServiceWorld, cfg: &ServiceConfig) -> Self {
        ServiceHarness::with_bank(world, cfg, mega::reserved_slab(world))
    }
}

impl<'w, B: RegisterBank> ServiceHarness<'w, B> {
    /// Builds a harness over a caller-chosen register-bank backend.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (no slots, a zero
    /// window, or an in-flight bound of 0 or above the slot count).
    #[must_use]
    pub fn with_bank(world: &'w ServiceWorld, cfg: &ServiceConfig, bank: B) -> Self {
        let cfg = mega::MegaServiceConfig {
            base: *cfg,
            shards: 1,
        };
        ServiceHarness(mega::MegaServiceHarness::over(
            std::slice::from_ref(world),
            &cfg,
            vec![bank],
        ))
    }

    /// Pre-registers every slot's store&collect infrastructure before
    /// the run (see [`mega::MegaServiceHarness::prime`]). Optional: an
    /// unprimed run warms the same state lazily across its first
    /// sessions. Priming performs real register writes, so a primed run
    /// is **not** bit-identical to an unprimed one.
    pub fn prime(&mut self) {
        self.0.prime();
    }

    /// Installs a dynamic footprint checker over this harness's shard:
    /// every subsequently granted (or primed) operation is validated
    /// against the world's declared footprint. Build the checker from
    /// the same world with [`exsel_analysis::AccessChecker::for_instance`]
    /// (`n` = slot count, `num_registers` = the world's register count).
    #[cfg(feature = "check")]
    pub fn install_checker(&mut self, checker: exsel_analysis::AccessChecker) {
        self.0.install_checkers(vec![checker]);
    }

    /// Shared access to the installed checker (violation reports,
    /// op counts); `None` when no checker is installed.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn checker(&self) -> Option<&exsel_analysis::AccessChecker> {
        self.0.shards[0].checks.checker.as_ref()
    }

    /// Total footprint violations observed since the checker was
    /// installed; 0 when no checker is installed.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn checker_violations(&self) -> u64 {
        self.0.checker_violations()
    }

    /// Runs the configured service to its stopping condition (session
    /// target reached, arrivals exhausted and system drained, or
    /// horizon) and returns the report.
    pub fn run(self) -> ServiceReport {
        self.0.run().report
    }

    /// Drives the service until at least `sessions` sessions have
    /// completed (an absolute count, not a delta). Returns `false` when
    /// the run ended first — horizon reached, or arrivals exhausted and
    /// the system drained. It stops at the end of an epoch
    /// ([`mega::MegaServiceHarness::run_until`]), with fewer than
    /// `sessions + max_inflight` completed. Benchmarks use this to
    /// separate a warm-up segment from a measured steady-state segment
    /// before calling [`ServiceHarness::finish`].
    pub fn run_until(&mut self, sessions: u64) -> bool {
        self.0.run_until(sessions)
    }

    /// Sessions completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.0.completed()
    }

    /// Granted shared-memory operations so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.0.ops()
    }

    /// Emits the final partial window and assembles the report.
    pub fn finish(self) -> ServiceReport {
        self.0.finish().report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsel_shm::ArcBank;
    use std::collections::BTreeSet;

    fn small_cfg(seed: u64) -> ServiceConfig {
        ServiceConfig {
            seed,
            slots: 4,
            target_sessions: 300,
            window: 1 << 10,
            arrivals: Arrivals::Poisson { mean_gap: 25.0 },
            admission: Admission {
                max_inflight: 4,
                queue_capacity: 8,
                backoff_base: 32,
                backoff_cap: 4096,
                max_retries: 6,
                waiting_capacity: 64,
            },
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn completes_target_sessions_with_exclusive_tickets() {
        let cfg = small_cfg(3);
        let world = ServiceWorld::new(&cfg);
        let report = ServiceHarness::new(&world, &cfg).run();
        assert!(report.totals.completed >= 300);
        assert!(report.accounted(), "{:?}", report.totals);
        let set: BTreeSet<u64> = report.names.iter().copied().collect();
        assert_eq!(
            set.len() as u64,
            report.totals.completed,
            "duplicate tickets"
        );
        assert!(!report.windows.is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let world = ServiceWorld::new(&small_cfg(0));
        let a = ServiceHarness::new(&world, &small_cfg(0)).run();
        let world_b = ServiceWorld::new(&small_cfg(1));
        let b = ServiceHarness::new(&world_b, &small_cfg(1)).run();
        assert_ne!(a.windows, b.windows);
    }

    #[test]
    fn crash_storm_sheds_but_keeps_tickets_exclusive() {
        let mut cfg = small_cfg(5);
        cfg.crash_hazard = 0.01;
        cfg.arrivals = Arrivals::Poisson { mean_gap: 6.0 };
        cfg.target_sessions = 200;
        let world = ServiceWorld::new(&cfg);
        let report = ServiceHarness::new(&world, &cfg).run();
        assert!(report.totals.crashes > 0, "hazard never fired");
        assert!(report.totals.reentries > 0, "no crashed client re-entered");
        assert!(report.accounted(), "{:?}", report.totals);
        let set: BTreeSet<u64> = report.names.iter().copied().collect();
        assert_eq!(
            set.len() as u64,
            report.totals.completed,
            "crash re-entry broke ticket exclusivity"
        );
    }

    #[test]
    fn bounded_arrivals_drain_cleanly() {
        let mut cfg = small_cfg(9);
        cfg.target_sessions = 0;
        cfg.max_clients = 150;
        cfg.crash_hazard = 0.005;
        let world = ServiceWorld::new(&cfg);
        let report = ServiceHarness::new(&world, &cfg).run();
        assert_eq!(report.totals.arrivals, 150);
        assert_eq!(report.in_system, 0, "did not drain: {:?}", report.totals);
        assert_eq!(
            report.totals.completed + report.totals.rejected,
            150,
            "{:?}",
            report.totals
        );
    }

    #[test]
    fn overload_sheds_and_rejects() {
        let mut cfg = small_cfg(13);
        cfg.arrivals = Arrivals::Poisson { mean_gap: 1.5 };
        cfg.admission.max_inflight = 2;
        cfg.admission.queue_capacity = 2;
        cfg.admission.waiting_capacity = 8;
        cfg.admission.max_retries = 2;
        cfg.target_sessions = 150;
        let world = ServiceWorld::new(&cfg);
        let report = ServiceHarness::new(&world, &cfg).run();
        assert!(report.totals.shed > 0, "overload never shed");
        assert!(report.totals.rejected > 0, "no client was rejected");
        assert!(report.accounted());
    }

    #[test]
    #[should_panic(expected = "in-flight bound 0")]
    fn zero_inflight_bound_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.admission.max_inflight = 0;
        let world = ServiceWorld::new(&cfg);
        let _ = ServiceHarness::with_bank(&world, &cfg, ArcBank::new());
    }

    #[test]
    fn bursty_and_diurnal_arrivals_run() {
        for arrivals in [
            Arrivals::Bursty {
                mean_gap: 8.0,
                burst: 2000,
                lull: 3000,
            },
            Arrivals::Diurnal {
                peak_gap: 10.0,
                trough_gap: 200.0,
                period: 1 << 13,
            },
        ] {
            let mut cfg = small_cfg(21);
            cfg.arrivals = arrivals;
            cfg.target_sessions = 100;
            let world = ServiceWorld::new(&cfg);
            let report = ServiceHarness::new(&world, &cfg).run();
            assert!(report.totals.completed >= 100, "{arrivals:?}");
            assert!(report.accounted(), "{arrivals:?}");
        }
    }

    #[test]
    fn backoff_saturates_at_the_cap_instead_of_wrapping() {
        let mut rng = SmallRng::seed_from_u64(0);
        for (backoff_base, backoff_cap) in [
            (256, 1 << 14),
            (256, u64::MAX / 4),
            (3, 1 << 40),
            (1, u64::MAX / 4),
            (u64::MAX / 2, 1 << 20),
        ] {
            let adm = Admission {
                backoff_base,
                backoff_cap,
                ..ServiceConfig::default().admission
            };
            let mut last = 0;
            for attempt in 0..=100 {
                let base = adm.backoff(attempt);
                assert!(
                    base >= last.max(1) && base <= backoff_cap,
                    "base {base} after {last} at attempt {attempt} of {adm:?}"
                );
                assert!(adm.delay(attempt, &mut rng) >= base);
                last = base;
            }
            assert_eq!(last, backoff_cap, "{adm:?} never reached its cap");
        }
        // Shifting 256 left by 56..=63 pushes its only bit out of the word.
        let adm = Admission {
            backoff_base: 256,
            backoff_cap: 1 << 14,
            ..ServiceConfig::default().admission
        };
        assert!((56..64).all(|attempt| adm.backoff(attempt) == 1 << 14));
    }

    /// The holder-bound reservation of both naming objects' snapshot
    /// arenas is never short: light and overload arrivals, crashless
    /// and crashy, slot counts up to the default 8, and no update or
    /// scan ever misses an arena. (Hazard 10⁻² runs only up to 4 slots,
    /// to keep the audit short.)
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode audit: cargo test --release")]
    fn snapshot_reservation_is_never_short() {
        for slots in [1, 2, 3, 4, 8] {
            let hazards: &[f64] = if slots <= 4 {
                &[0.0, 2e-3, 1e-2]
            } else {
                &[0.0, 2e-3]
            };
            for &crash_hazard in hazards {
                for mean_gap in [(400 * slots * slots) as f64, 1.5] {
                    let cfg = ServiceConfig {
                        seed: slots as u64,
                        slots,
                        target_sessions: 2_000,
                        arrivals: Arrivals::Poisson { mean_gap },
                        crash_hazard,
                        admission: Admission {
                            max_inflight: slots,
                            ..ServiceConfig::default().admission
                        },
                        ..ServiceConfig::default()
                    };
                    let world = ServiceWorld::new(&cfg);
                    let mut harness = ServiceHarness::new(&world, &cfg);
                    harness.prime();
                    let report = harness.run();
                    assert!(report.totals.completed >= 2_000, "{cfg:?}");
                    for arena in [
                        world.naming.snapshot().arena(),
                        world.repo.naming().snapshot().arena(),
                    ] {
                        assert_eq!(arena.stats().fresh_allocations(), 0, "{arena:?} {cfg:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bucketed() {
        let mut h = StepHistogram::default();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(1, 2);
        let p99 = h.quantile(99, 100);
        let p999 = h.quantile(999, 1000);
        assert!(p50 <= p99 && p99 <= p999);
        assert!((416..=512).contains(&p50), "p50 = {p50}");
        assert!(p999 >= 896, "p999 = {p999}");
        // Bucket mapping is monotone and lower bounds are exact.
        let mut last = 0;
        for v in [0u64, 1, 7, 8, 9, 100, 1023, 1024, u64::MAX / 2] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            assert!(bucket_low(b) <= v, "lower bound above sample at {v}");
        }
    }

    #[test]
    fn windows_tile_the_clock() {
        let cfg = small_cfg(2);
        let world = ServiceWorld::new(&cfg);
        let report = ServiceHarness::new(&world, &cfg).run();
        for (i, w) in report.windows.iter().enumerate() {
            assert_eq!(w.window, i as u64);
            if i > 0 {
                assert_eq!(w.start, report.windows[i - 1].end);
            }
        }
    }
}
