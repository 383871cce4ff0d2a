//! The service workloads: `steady`, `storm` and `fleet`.
//!
//! Each run is a sequence of repetitions ("reps"). A rep builds a fresh
//! world from a seed derived from `--seed` and the rep index, warms it
//! up, then drives a fixed number of sessions in four equal quarters of
//! `SEGMENTS` timed segments each.
//! The number of reps follows from `--seconds` alone (see
//! [`Shape::reps`]), never from the host's speed, so a run simulates the
//! same work on every commit: step-domain metrics are a pure function of
//! the seed and `--seconds`, and wall-clock rates compare like with like.

use std::time::Instant;

use exsel_core::RenameConfig;
use exsel_shm::{RegAlloc, RegisterBank, SlabBank};
use exsel_sim::{
    Admission, Arrivals, MegaServiceConfig, MegaServiceHarness, MegaServiceWorld, ServiceConfig,
    ServiceHarness, ServiceReport, ServiceWorld,
};
use exsel_storecollect::StoreCollect;
use exsel_unbounded::{AltruisticDeposit, UnboundedNaming};

use crate::report::Outcome;
use crate::stats::{median, mix, peak_rss_mb, quantile_interp, robust_rate};
use crate::trace::{self, Layer, Snapshot, TracedBank};

/// Histogram order of `ServiceReport::cumulative`.
const ACQUIRE: usize = 0;
const STORE: usize = 1;
const COLLECT: usize = 2;
const DEPOSIT: usize = 3;
const SESSION: usize = 4;
const SOJOURN: usize = 5;

/// A service workload's configuration and rep size.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Per-shard configuration; arrivals are fleet-wide.
    pub cfg: ServiceConfig,
    /// Admission shards; 1 runs the unsharded `ServiceHarness`, more run
    /// the sharded fleet, primed before warm-up.
    pub shards: usize,
    /// Warm-up sessions per rep.
    pub warm: u64,
    /// Measured sessions per rep, driven in four quarters.
    pub measured: u64,
    /// Measured seconds of one rep on the reference host (2 vCPUs).
    pub nominal_s: f64,
    /// Bound on every telemetry window's session p999 (storm).
    pub p999_bound: Option<u64>,
    /// The workload must shed load and crash sessions (storm).
    pub expect_faults: bool,
}

fn steady_admission() -> Admission {
    Admission {
        max_inflight: 8,
        queue_capacity: 16,
        backoff_base: 256,
        backoff_cap: 1 << 15,
        max_retries: 10,
        waiting_capacity: 512,
    }
}

/// `steady`: the `service/steady/open_loop` configuration — one shard of
/// 8 slots, Poisson gap 2800 (ρ ≈ 0.84), crashless.
pub fn steady() -> Shape {
    Shape {
        cfg: ServiceConfig {
            slots: 8,
            window: 1 << 24,
            arrivals: Arrivals::Poisson { mean_gap: 2800.0 },
            crash_hazard: 0.0,
            admission: steady_admission(),
            ..ServiceConfig::default()
        },
        shards: 1,
        warm: 5_000,
        measured: 40_000,
        nominal_s: 2.8,
        p999_bound: None,
        expect_faults: false,
    }
}

/// `storm`: the `service/storm/open_loop` configuration — bursty
/// overload (gap 700, 32k steps on, 16k off), crash hazard 2e-3, queue 8,
/// waiting room 64.
pub fn storm() -> Shape {
    Shape {
        cfg: ServiceConfig {
            slots: 8,
            window: 1 << 20,
            arrivals: Arrivals::Bursty {
                mean_gap: 700.0,
                burst: 1 << 15,
                lull: 1 << 14,
            },
            crash_hazard: 0.002,
            admission: Admission {
                max_inflight: 8,
                queue_capacity: 8,
                backoff_base: 256,
                backoff_cap: 1 << 14,
                max_retries: 6,
                waiting_capacity: 64,
            },
            ..ServiceConfig::default()
        },
        shards: 1,
        warm: 2_000,
        measured: 16_000,
        nominal_s: 3.8,
        p999_bound: Some(1 << 15),
        expect_faults: true,
    }
}

/// Shards of the `fleet` workload.
pub const FLEET_SHARDS: usize = 1250;

/// `fleet`: the `service/mega/open_loop` configuration — 1250 shards of
/// 8 slots, per-shard Poisson gap 2800, crashless, primed.
pub fn fleet() -> Shape {
    Shape {
        cfg: ServiceConfig {
            slots: 8,
            window: 1 << 16,
            arrivals: Arrivals::Poisson {
                mean_gap: 2800.0 / FLEET_SHARDS as f64,
            },
            crash_hazard: 0.0,
            admission: steady_admission(),
            ..ServiceConfig::default()
        },
        shards: FLEET_SHARDS,
        warm: 4_000,
        measured: 32_000,
        nominal_s: 3.6,
        p999_bound: None,
        expect_faults: false,
    }
}

impl Shape {
    /// Reps of an untraced run of `seconds` measured seconds: as many as
    /// fill `seconds` at the nominal rep time, and at least `MIN_REPS`.
    pub fn reps(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_s).ceil() as usize).max(crate::MIN_REPS)
    }

    /// The configuration of rep `rep` of a run seeded `seed`.
    fn rep_cfg(&self, seed: u64, rep: usize) -> ServiceConfig {
        ServiceConfig {
            seed: mix(seed, rep as u64 + 1),
            // Sizes the deposit arena and the ticket audit for the rep.
            target_sessions: self.warm + self.measured,
            ..self.cfg
        }
    }
}

/// The harness surface a rep drives; implemented by the unsharded and
/// the sharded harness over any bank.
trait Harness {
    fn prime(&mut self);
    fn run_until(&mut self, sessions: u64) -> bool;
    fn ops(&self) -> u64;
    fn completed(&self) -> u64;
    /// The report, plus the roll-up identity for sharded runs.
    fn finish(self) -> (ServiceReport, bool);
}

impl<B: RegisterBank> Harness for ServiceHarness<'_, B> {
    fn prime(&mut self) {
        ServiceHarness::prime(self);
    }
    fn run_until(&mut self, sessions: u64) -> bool {
        ServiceHarness::run_until(self, sessions)
    }
    fn ops(&self) -> u64 {
        ServiceHarness::ops(self)
    }
    fn completed(&self) -> u64 {
        ServiceHarness::completed(self)
    }
    fn finish(self) -> (ServiceReport, bool) {
        (ServiceHarness::finish(self), true)
    }
}

impl<B: RegisterBank> Harness for MegaServiceHarness<'_, B> {
    fn prime(&mut self) {
        MegaServiceHarness::prime(self);
    }
    fn run_until(&mut self, sessions: u64) -> bool {
        MegaServiceHarness::run_until(self, sessions)
    }
    fn ops(&self) -> u64 {
        MegaServiceHarness::ops(self)
    }
    fn completed(&self) -> u64 {
        MegaServiceHarness::completed(self)
    }
    fn finish(self) -> (ServiceReport, bool) {
        let mega = MegaServiceHarness::finish(self);
        let rolled_up = mega.rolled_up();
        (mega.report, rolled_up)
    }
}

/// Timed segments per quarter of a rep's measured part.
const SEGMENTS: usize = 16;

/// One quarter of a rep's measured part, driven in `SEGMENTS` segments.
#[derive(Clone, Copy, Debug, Default)]
struct Quarter {
    ns: f64,
    ops: u64,
    sessions: u64,
    /// Each segment's granted ops and wall nanoseconds.
    segments: [(u64, f64); SEGMENTS],
    trace: Snapshot,
}

/// Everything one rep measured.
struct Rep {
    world_s: f64,
    prime_s: f64,
    warm_s: f64,
    setup_s: f64,
    warm_ops: u64,
    quarters: [Quarter; 4],
    report: ServiceReport,
    rolled_up: bool,
    drained_early: bool,
    prime_trace: Snapshot,
    warm_trace: Snapshot,
    /// Traced reps: the object boundaries tile the world's registers.
    bounds_ok: bool,
}

impl Rep {
    fn measured_ns(&self) -> f64 {
        self.quarters.iter().map(|q| q.ns).sum()
    }
    fn measured_ops(&self) -> u64 {
        self.quarters.iter().map(|q| q.ops).sum()
    }
    fn measured_sessions(&self) -> u64 {
        self.quarters.iter().map(|q| q.sessions).sum()
    }
    fn ops_per_s(&self) -> f64 {
        self.measured_ops() as f64 / self.measured_ns() * 1e9
    }
    fn measured_trace(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for q in &self.quarters {
            s.add(&q.trace);
        }
        s
    }
}

/// Register boundaries between the naming, store&collect and deposit
/// objects of a world built for `cfg`, recomputed with the public
/// constructors in `ServiceWorld::new`'s order. Returns the boundaries
/// and the total they imply.
pub fn object_bounds(cfg: &ServiceConfig) -> ([usize; 2], usize) {
    let mut alloc = RegAlloc::new();
    let _naming = UnboundedNaming::new(&mut alloc, cfg.slots);
    let naming_end = alloc.total();
    let _sc = StoreCollect::adaptive(&mut alloc, cfg.slots, &RenameConfig::default());
    let sc_end = alloc.total();
    let _repo = AltruisticDeposit::new(&mut alloc, cfg.slots, cfg.arena().max(2 * cfg.slots));
    ([naming_end, sc_end], alloc.total())
}

/// Drives one built harness through prime, warm-up and the measured
/// quarters.
fn drive<H: Harness>(mut h: H, shape: &Shape, started: Instant, world_s: f64) -> Rep {
    let _ = trace::take();
    let t = Instant::now();
    if shape.shards > 1 {
        h.prime();
    }
    let prime_s = t.elapsed().as_secs_f64();
    let prime_trace = trace::take();
    let t = Instant::now();
    let mut ok = trace::segment(Layer::Segment, || h.run_until(shape.warm));
    let warm_s = t.elapsed().as_secs_f64();
    let warm_trace = trace::take();
    let setup_s = started.elapsed().as_secs_f64();
    let warm_ops = h.ops();
    let mut quarters = [Quarter::default(); 4];
    let parts = 4 * SEGMENTS as u64;
    for (i, q) in quarters.iter_mut().enumerate() {
        let done0 = h.completed();
        for (j, seg) in q.segments.iter_mut().enumerate() {
            let part = (i * SEGMENTS + j) as u64 + 1;
            let target = shape.warm + shape.measured * part / parts;
            let ops0 = h.ops();
            let t = Instant::now();
            ok &= trace::segment(Layer::Segment, || h.run_until(target));
            *seg = (h.ops() - ops0, t.elapsed().as_nanos() as f64);
        }
        q.ns = q.segments.iter().map(|s| s.1).sum();
        q.ops = q.segments.iter().map(|s| s.0).sum();
        q.sessions = h.completed() - done0;
        q.trace = trace::take();
    }
    let (report, rolled_up) = h.finish();
    Rep {
        world_s,
        prime_s,
        warm_s,
        setup_s,
        warm_ops,
        quarters,
        report,
        rolled_up,
        drained_early: !ok,
        prime_trace,
        warm_trace,
        bounds_ok: true,
    }
}

/// Builds and runs one rep, over traced banks when `traced`. The traced
/// banks are built exactly as the untraced ones: a plain slab for the
/// unsharded harness, and for the fleet the per-shard slab reservation
/// `MegaServiceHarness::new` makes.
fn run_rep(shape: &Shape, seed: u64, rep: usize, traced: bool) -> Rep {
    let cfg = shape.rep_cfg(seed, rep);
    let started = Instant::now();
    if shape.shards == 1 {
        let world = ServiceWorld::new(&cfg);
        let world_s = started.elapsed().as_secs_f64();
        if !traced {
            let harness = ServiceHarness::with_bank(&world, &cfg, SlabBank::new());
            return drive(harness, shape, started, world_s);
        }
        let (bounds, total) = object_bounds(&cfg);
        let bank = TracedBank::new(SlabBank::new(), Some(bounds));
        let mut rep = drive(
            ServiceHarness::with_bank(&world, &cfg, bank),
            shape,
            started,
            world_s,
        );
        rep.bounds_ok = total == world.num_registers();
        rep
    } else {
        let mcfg = MegaServiceConfig {
            base: cfg,
            shards: shape.shards,
        };
        let world = MegaServiceWorld::new(&mcfg);
        let world_s = started.elapsed().as_secs_f64();
        if !traced {
            return drive(
                MegaServiceHarness::new(&world, &mcfg),
                shape,
                started,
                world_s,
            );
        }
        // Every shard's world has shard 0's layout; the check below
        // holds that against the fleet's register count.
        let (bounds, total) = object_bounds(&mcfg.shard_cfg(0));
        let banks = (0..shape.shards)
            .map(|_| {
                let mut slab = SlabBank::new();
                slab.reserve_slots(32 * cfg.slots * cfg.slots + 64);
                TracedBank::new(slab, Some(bounds))
            })
            .collect();
        let harness = MegaServiceHarness::with_banks(&world, &mcfg, banks);
        let mut rep = drive(harness, shape, started, world_s);
        rep.bounds_ok = total * shape.shards == world.num_registers();
        rep
    }
}

/// The output checks every rep must pass.
fn check_rep(out: &mut Outcome, shape: &Shape, rep: &Rep, label: &str) {
    let r = &rep.report;
    out.check(!rep.drained_early, || {
        format!("{label}: the service drained before its session target")
    });
    out.check(r.accounted(), || {
        format!("{label}: accounting identity broken: {:?}", r.totals)
    });
    out.check(rep.rolled_up, || {
        format!("{label}: shard totals diverge from the roll-up")
    });
    let mut names = r.names.clone();
    names.sort_unstable();
    names.dedup();
    out.check(names.len() as u64 == r.totals.completed, || {
        format!(
            "{label}: {} completed sessions hold {} distinct tickets",
            r.totals.completed,
            names.len()
        )
    });
    if let Some(bound) = shape.p999_bound {
        let p999 = r.cumulative[SESSION].quantile(999, 1000);
        out.check(p999 <= bound, || {
            format!("{label}: session p999 {p999} exceeds {bound}")
        });
    }
    if shape.expect_faults {
        let t = &r.totals;
        out.check(t.shed > 0 && t.crashes > 0 && t.reentries > 0, || {
            format!("{label}: the storm neither shed nor crashed: {t:?}")
        });
    }
}

/// Runs the workload untraced and reports the end-to-end metrics.
pub fn run(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let reps: Vec<Rep> = (0..shape.reps(seconds))
        .map(|i| {
            let rep = run_rep(shape, seed, i, false);
            check_rep(&mut out, shape, &rep, &format!("rep {i}"));
            out.attempted += rep.report.totals.arrivals;
            rep
        })
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    out.set("setup_s", median(&setups));
    // Chunks of like work: the segments of the same quarter of every rep.
    let chunks: Vec<_> = reps
        .iter()
        .flat_map(|r| r.quarters.iter().enumerate())
        .flat_map(|(i, q)| q.segments.iter().map(move |&(ops, ns)| (i, ops as f64, ns)))
        .filter(|c| c.1 > 0.0)
        .collect();
    let ops: u64 = reps.iter().map(Rep::measured_ops).sum();
    let sessions: u64 = reps.iter().map(Rep::measured_sessions).sum();
    let steps_per_session = ops as f64 / sessions as f64;
    let ops_per_s = robust_rate(&chunks);
    out.set("sessions_per_s", ops_per_s / steps_per_session);
    out.set("ops_per_s", ops_per_s);
    out.set("steps_per_session", steps_per_session);
    let quantile =
        |h: usize, q: f64| mean_of(&reps, |r| quantile_interp(&r.report.cumulative[h], q));
    out.set("sojourn_p50_steps", quantile(SOJOURN, 0.5));
    out.set("sojourn_p999_steps", quantile(SOJOURN, 0.999));
    let samples: u64 = reps
        .iter()
        .map(|r| r.report.cumulative[SOJOURN].total())
        .sum();
    out.note("sojourn_samples", samples as f64, "count");
    out.note("reps", reps.len() as f64, "count");
    out.note(
        "measured_s",
        reps.iter().map(Rep::measured_ns).sum::<f64>() / 1e9,
        "s",
    );
    let (arrivals, rejected) = reps.iter().fold((0, 0), |(a, rj), r| {
        (a + r.report.totals.arrivals, rj + r.report.totals.rejected)
    });
    out.note("failed_share", rejected as f64 / arrivals as f64, "share");
    out.note("session_p999_steps", quantile(SESSION, 0.999), "steps");
    let worst_window = reps
        .iter()
        .flat_map(|r| &r.report.windows)
        .map(|w| w.session_p999)
        .max()
        .unwrap_or(0);
    out.note(
        "worst_window_session_p999_steps",
        worst_window as f64,
        "steps",
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

fn mean_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    reps.iter().map(f).sum::<f64>() / reps.len() as f64
}

/// Runs the workload's fixed reps untraced and then traced, and reports
/// the per-layer metrics with the attribution cross-checks.
pub fn run_traced(shape: &Shape, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    // Untraced and traced reps alternate, so host drift hits both alike.
    let (plain, traced): (Vec<Rep>, Vec<Rep>) = (0..crate::MIN_REPS)
        .map(|i| {
            (
                run_rep(shape, seed, i, false),
                run_rep(shape, seed, i, true),
            )
        })
        .unzip();
    for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
        check_rep(&mut out, shape, p, &format!("rep {i}"));
        check_rep(&mut out, shape, t, &format!("traced rep {i}"));
        out.check(
            p.report.totals == t.report.totals && p.report.names == t.report.names,
            || format!("traced rep {i} simulated a different run than the untraced one"),
        );
        out.attempted += t.report.totals.arrivals;
    }
    out.check(traced.iter().all(|r| r.bounds_ok), || {
        "object register boundaries do not sum to the world's register count".into()
    });

    // Bank calls against granted ops, phase by phase.
    let mut calls_minus_ops: i64 = 0;
    let mut child_over_parent: f64 = 0.0;
    let mut measured = Snapshot::default();
    let (mut ops, mut sessions, mut seg_ns) = (0u64, 0u64, 0.0);
    for t in &traced {
        calls_minus_ops += t.warm_trace.bank.calls as i64 - t.warm_ops as i64;
        for q in &t.quarters {
            calls_minus_ops += q.trace.bank.calls as i64 - q.ops as i64;
            child_over_parent = child_over_parent.max(q.trace.bank.total_ns() / q.ns);
        }
        measured.add(&t.measured_trace());
        ops += t.measured_ops();
        sessions += t.measured_sessions();
        seg_ns += t.measured_ns();
    }
    out.check(calls_minus_ops == 0, || {
        format!("bank calls differ from granted ops by {calls_minus_ops}")
    });
    out.check(child_over_parent <= crate::CHILD_TOLERANCE, || {
        format!("bank time exceeds its run_until parent ({child_over_parent:.3}x)")
    });
    out.set("trace.bank_calls_minus_ops", calls_minus_ops as f64);
    let prime_calls: u64 = traced.iter().map(|r| r.prime_trace.bank.calls).sum();
    out.note("trace.prime_bank_calls", prime_calls as f64, "count");
    out.set("trace.child_over_parent_max", child_over_parent);

    out.set("shm.bank.reads", measured.reads as f64);
    out.set("shm.bank.writes", measured.writes as f64);
    out.set("shm.bank.snap_writes", measured.snap_writes as f64);
    out.set("shm.bank.ns_per_call", measured.bank.ns_per_call());
    let per_session = |n: u64| n as f64 / sessions as f64;
    let [naming, sc, deposit] = measured.by_object;
    out.set("unbounded.naming.ops_per_session", per_session(naming));
    out.set("storecollect.ops_per_session", per_session(sc));
    out.set("unbounded.deposit.ops_per_session", per_session(deposit));
    let steps_per_session = per_session(ops);
    let object_sum = per_session(naming + sc + deposit);
    out.check(
        (object_sum - steps_per_session).abs() <= 1e-9 * steps_per_session,
        || format!("per-object ops sum to {object_sum}, steps/session is {steps_per_session}"),
    );
    let p50 = |h: usize| mean_of(&traced, |r| quantile_interp(&r.report.cumulative[h], 0.5));
    out.set("unbounded.naming.acquire_p50_steps", p50(ACQUIRE));
    out.set("storecollect.store_p50_steps", p50(STORE));
    out.set("storecollect.collect_p50_steps", p50(COLLECT));
    out.set("unbounded.deposit.deposit_p50_steps", p50(DEPOSIT));
    out.set(
        "sim.service.self_ns_per_op",
        (seg_ns - measured.bank.total_ns()) / ops as f64,
    );
    let run_ns: f64 = traced
        .iter()
        .map(|r| r.measured_ns() + r.warm_trace.segment.timed_ns as f64)
        .sum();
    let ticks: u64 = traced.iter().map(|r| r.report.totals.steps).sum();
    let all_ops: u64 = traced.iter().map(|r| r.report.totals.ops).sum();
    out.set("sim.service.ns_per_tick", run_ns / ticks as f64);
    out.set("sim.service.ops_per_tick", all_ops as f64 / ticks as f64);

    // Drift across the quarters of the untraced reps.
    let names = [
        (
            "sim.service.drift.q1.ns_per_op",
            "sim.service.drift.q1.steps_per_session",
        ),
        (
            "sim.service.drift.q2.ns_per_op",
            "sim.service.drift.q2.steps_per_session",
        ),
        (
            "sim.service.drift.q3.ns_per_op",
            "sim.service.drift.q3.steps_per_session",
        ),
        (
            "sim.service.drift.q4.ns_per_op",
            "sim.service.drift.q4.steps_per_session",
        ),
    ];
    for (i, (ns_name, steps_name)) in names.into_iter().enumerate() {
        let (ns, ops, sessions) = plain.iter().fold((0.0, 0u64, 0u64), |acc, r| {
            let q = &r.quarters[i];
            (acc.0 + q.ns, acc.1 + q.ops, acc.2 + q.sessions)
        });
        out.set(ns_name, ns / ops as f64);
        out.set(steps_name, ops as f64 / sessions.max(1) as f64);
    }

    let totals = traced
        .iter()
        .fold(exsel_sim::Totals::default(), |mut a, r| {
            let t = &r.report.totals;
            a.arrivals += t.arrivals;
            a.admitted += t.admitted;
            a.retries += t.retries;
            a.reentries += t.reentries;
            a.shed += t.shed;
            a.rejected += t.rejected;
            a.crashes += t.crashes;
            a
        });
    let attempts = totals.arrivals + totals.retries + totals.reentries;
    out.set(
        "sim.service.admission.shed_share",
        totals.shed as f64 / attempts.max(1) as f64,
    );
    out.set("sim.service.admission.retries", totals.retries as f64);
    out.set("sim.service.admission.rejected", totals.rejected as f64);
    out.set(
        "sim.service.admission.failed_share",
        totals.rejected as f64 / totals.arrivals.max(1) as f64,
    );
    let windows: Vec<_> = traced.iter().flat_map(|r| &r.report.windows).collect();
    let gauge_mean = |f: fn(&exsel_sim::WindowRow) -> u64| {
        windows.iter().map(|w| f(w) as f64).sum::<f64>() / windows.len().max(1) as f64
    };
    out.set(
        "sim.service.admission.queued_mean",
        gauge_mean(|w| w.queued),
    );
    out.set(
        "sim.service.admission.waiting_mean",
        gauge_mean(|w| w.waiting),
    );
    out.set("sim.service.fault.crashes", totals.crashes as f64);
    out.set("sim.service.fault.reentries", totals.reentries as f64);
    out.set("sim.service.telemetry.windows", windows.len() as f64);

    out.set("setup.world_s", median_of(&plain, |r| r.world_s));
    out.set("setup.prime_s", median_of(&plain, |r| r.prime_s));
    out.set("setup.warmup_s", median_of(&plain, |r| r.warm_s));

    let untraced = median_of(&plain, Rep::ops_per_s);
    let traced_rate = median_of(&traced, Rep::ops_per_s);
    out.set("trace.untraced_ops_per_s", untraced);
    out.set("trace.traced_ops_per_s", traced_rate);
    out.set("trace.overhead", untraced / traced_rate);
    crate::zero_engine_layers(&mut out);
    out
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    /// A workload shrunk to a few hundred sessions (and 4 shards).
    fn tiny(mut shape: Shape) -> Shape {
        shape.warm = 40;
        shape.measured = 200;
        if shape.shards > 1 {
            shape.shards = 4;
            shape.cfg.arrivals = Arrivals::Poisson {
                mean_gap: 2800.0 / 4.0,
            };
        }
        shape
    }

    fn shapes() -> [Shape; 3] {
        [tiny(steady()), tiny(storm()), tiny(fleet())]
    }

    #[test]
    fn every_metric_is_measured_and_checked_clean() {
        for shape in shapes() {
            let mut out = run(&shape, 5, 0.0);
            let _ = out.render(&END_TO_END);
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            for (name, _) in END_TO_END {
                assert!(out.metrics[name] > 0.0, "{name} reads 0");
            }
            let mut traced = run_traced(&shape, 5);
            let _ = traced.render(PER_LAYER);
            assert!(traced.failures.is_empty(), "{:?}", traced.failures);
            assert_eq!(traced.metrics["trace.bank_calls_minus_ops"], 0.0);
        }
    }

    #[test]
    fn the_same_seed_gives_identical_step_metrics() {
        for shape in shapes() {
            let a = run(&shape, 9, 0.0);
            let b = run(&shape, 9, 0.0);
            for name in [
                "steps_per_session",
                "sojourn_p50_steps",
                "sojourn_p999_steps",
            ] {
                assert_eq!(a.metrics[name], b.metrics[name], "{name}");
            }
        }
    }

    #[test]
    fn a_duplicated_ticket_fails_the_check() {
        let shape = tiny(steady());
        let mut rep = run_rep(&shape, 3, 0, false);
        let mut out = Outcome::default();
        check_rep(&mut out, &shape, &rep, "clean");
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let first = rep.report.names[0];
        rep.report.names.push(first);
        rep.report.totals.completed += 1;
        check_rep(&mut out, &shape, &rep, "corrupted");
        assert!(
            out.failures.iter().any(|f| f.contains("distinct tickets")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn reps_follow_seconds_alone() {
        let shape = steady();
        assert_eq!(shape.reps(0.0), crate::MIN_REPS);
        assert_eq!(shape.reps(10.0), (10.0 / shape.nominal_s).ceil() as usize);
    }
}
