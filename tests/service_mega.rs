//! Mega-scale service invariants: the sharded harness at 10⁴ concurrent
//! slots (1250 shards × 8 slots) under a 2·10⁻³ per-step crash hazard.
//! The paper's guarantee is scale-free — completed sessions hold
//! pairwise-exclusive tickets no matter how clients crash and re-enter —
//! and the admission layer must keep its books: every arrival completes,
//! is cleanly rejected, or is still in the system, and each shard's own
//! counters sum to the global roll-up.

use exclusive_selection::sim::service::mega::{
    MegaServiceConfig, MegaServiceHarness, MegaServiceWorld,
};
use exclusive_selection::sim::service::{Admission, Arrivals, ServiceConfig};
use std::collections::BTreeSet;

/// A 10⁴-slot fleet with a bounded client budget, pressure enough to
/// exercise queues and backoff, and a 2e-3 hazard. Bounded arrivals
/// keep the run drainable, so accounting can be checked as an exact
/// identity rather than an inequality.
fn mega_cfg(seed: u64, clients: u64) -> MegaServiceConfig {
    MegaServiceConfig {
        base: ServiceConfig {
            seed,
            slots: 8,
            target_sessions: 0,
            max_clients: clients,
            window: 1 << 12,
            arrivals: Arrivals::Poisson { mean_gap: 2.0 },
            crash_hazard: 2e-3,
            admission: Admission {
                max_inflight: 8,
                queue_capacity: 16,
                backoff_base: 32,
                backoff_cap: 1 << 10,
                max_retries: 4,
                waiting_capacity: 64,
            },
            ..ServiceConfig::default()
        },
        shards: 1250,
    }
}

#[test]
fn crash_storm_invariants_hold_at_ten_thousand_slots() {
    let cfg = mega_cfg(41, 6_000);
    assert_eq!(cfg.total_slots(), 10_000);
    let world = MegaServiceWorld::new(&cfg);
    let mega = MegaServiceHarness::new(&world, &cfg).run();
    let g = mega.report.totals;

    // The hazard actually fired and forced the re-entry path.
    assert!(g.crashes > 0, "2e-3 hazard never fired: {g:?}");
    assert!(g.reentries > 0, "no crashed client re-entered: {g:?}");

    // Global accounting: arrivals = completed + rejected + in_system,
    // and the bounded run drained completely.
    assert_eq!(g.arrivals, 6_000);
    assert!(mega.report.accounted(), "accounting broke: {g:?}");
    assert_eq!(mega.report.in_system, 0, "clients stranded: {g:?}");
    assert_eq!(g.completed + g.rejected, 6_000, "{g:?}");

    // Ticket exclusivity fleet-wide: every completed session holds a
    // distinct (shard-namespaced) ticket.
    let set: BTreeSet<u64> = mega.report.names.iter().copied().collect();
    assert_eq!(set.len() as u64, g.completed, "duplicate tickets at scale");

    // Per-shard accounting sums to the global roll-up, and — since the
    // fleet drained — closes shard by shard too.
    assert_eq!(mega.shard_totals.len(), 1250);
    assert!(mega.rolled_up(), "shard totals diverge from roll-up");
    for (s, t) in mega.shard_totals.iter().enumerate() {
        assert_eq!(
            t.arrivals,
            t.completed + t.rejected,
            "shard {s} books do not close: {t:?}"
        );
    }
}

/// Checker-on mega battery (`--features check`): the full 10⁴-slot
/// crash-storm fleet runs with one dynamic footprint checker per shard
/// (shards own disjoint register spaces, so per-shard checking is
/// exact) and must complete with zero ownership violations.
#[cfg(feature = "check")]
#[test]
fn ten_thousand_slot_fleet_stays_inside_declared_footprints() {
    use exclusive_selection::sim::AccessChecker;
    let cfg = mega_cfg(17, 4_000);
    assert_eq!(cfg.total_slots(), 10_000);
    let world = MegaServiceWorld::new(&cfg);
    let checkers: Vec<AccessChecker> = world
        .shard_worlds()
        .iter()
        .map(|w| {
            AccessChecker::for_instance(w, cfg.base.slots, w.num_registers())
                .expect("static pass accepts every shard world")
        })
        .collect();
    let mut mega = MegaServiceHarness::new(&world, &cfg);
    mega.install_checkers(checkers);
    mega.prime();
    let drained = mega.run_until(u64::MAX);
    assert!(!drained, "bounded arrivals must drain");
    assert!(mega.ops() > 0);
    assert_eq!(
        mega.checker_violations(),
        0,
        "mega fleet violated its footprints"
    );
    let report = mega.finish();
    assert!(report.report.accounted());
}

#[test]
fn fleet_windows_tile_the_clock_and_bound_the_gauges() {
    let mut cfg = mega_cfg(5, 3_000);
    // Window semantics don't need the full fleet; 16 shards keep the
    // per-shard pressure (and this suite's debug runtime) reasonable.
    cfg.shards = 16;
    cfg.base.arrivals = Arrivals::Poisson { mean_gap: 4.0 };
    let world = MegaServiceWorld::new(&cfg);
    let mega = MegaServiceHarness::new(&world, &cfg).run();
    assert!(!mega.report.windows.is_empty());
    let slots = cfg.total_slots() as u64;
    for (i, w) in mega.report.windows.iter().enumerate() {
        assert_eq!(w.window, i as u64);
        if i > 0 {
            assert_eq!(w.start, mega.report.windows[i - 1].end);
        }
        assert!(
            w.inflight <= slots,
            "window {i} reports {} in flight over {slots} slots",
            w.inflight
        );
    }
    // Window counter deltas sum to the whole-run totals.
    let sum = |f: fn(&exclusive_selection::sim::service::WindowRow) -> u64| {
        mega.report.windows.iter().map(f).sum::<u64>()
    };
    assert_eq!(sum(|w| w.arrivals), mega.report.totals.arrivals);
    assert_eq!(sum(|w| w.completed), mega.report.totals.completed);
    assert_eq!(sum(|w| w.crashes), mega.report.totals.crashes);
    assert_eq!(sum(|w| w.rejected), mega.report.totals.rejected);
    assert_eq!(sum(|w| w.admitted), mega.report.totals.admitted);
    assert_eq!(sum(|w| w.reentries), mega.report.totals.reentries);
    assert_eq!(sum(|w| w.retries), mega.report.totals.retries);
    assert_eq!(sum(|w| w.shed), mega.report.totals.shed);
    // This run drives all eight counters, so no sum above holds
    // vacuously.
    let t = &mega.report.totals;
    let counters = [
        t.arrivals,
        t.admitted,
        t.completed,
        t.crashes,
        t.reentries,
        t.retries,
        t.shed,
        t.rejected,
    ];
    assert!(counters.iter().all(|&c| c > 0), "{t:?}");
}
