//! The atomic-snapshot object under adversarial schedules: the
//! linearizability properties the renaming and repository layers rely on,
//! exercised on the deterministic simulator across many seeds — including
//! the borrowed-view path (a scanner adopting the embedded view of a
//! writer observed to move twice), which quiescent tests never reach.

use exclusive_selection::shm::Snapshot;
use exclusive_selection::sim::policy::{RandomPolicy, Scripted};
use exclusive_selection::{Pid, RegAlloc, SimBuilder, Word};

#[test]
fn views_totally_ordered_across_seeds() {
    const PROCS: usize = 3;
    const OPS: u64 = 8;
    for seed in 0..25 {
        let mut alloc = RegAlloc::new();
        let snap = Snapshot::new(&mut alloc, PROCS);
        let outcome =
            SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(seed))).run(PROCS, |ctx| {
                let slot = ctx.pid().0;
                let mut views = Vec::new();
                for i in 1..=OPS {
                    snap.update(ctx, slot, Word::Int(i))?;
                    let view = snap.scan(ctx)?;
                    views.push(
                        view.iter()
                            .map(|w| w.as_int().unwrap_or(0))
                            .collect::<Vec<u64>>(),
                    );
                }
                Ok(views)
            });
        let mut all: Vec<Vec<u64>> = outcome.completed().flatten().cloned().collect();
        all.sort();
        for pair in all.windows(2) {
            assert!(
                pair[0].iter().zip(&pair[1]).all(|(a, b)| a <= b),
                "seed {seed}: incomparable views {:?} vs {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}

#[test]
fn self_inclusion_under_adversarial_schedules() {
    const PROCS: usize = 3;
    for seed in 0..25 {
        let mut alloc = RegAlloc::new();
        let snap = Snapshot::new(&mut alloc, PROCS);
        let outcome =
            SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(seed))).run(PROCS, |ctx| {
                let slot = ctx.pid().0;
                for i in 1..=6u64 {
                    snap.update(ctx, slot, Word::Int(i))?;
                    let view = snap.scan(ctx)?;
                    let mine = view[slot].as_int().unwrap();
                    assert!(mine >= i, "scan missed own update {i}, saw {mine}");
                }
                Ok(())
            });
        assert!(outcome.results.iter().all(Result::is_ok));
    }
}

#[test]
fn borrowed_view_path_is_exercised_and_correct() {
    // Schedule: process 0's scan takes its first collect (2 reads), then
    // process 1 updates slot 1 to 10 (a 4-read direct scan, the own-read
    // and the write: 6 ops); process 0's second collect sees slot 1 move
    // once; process 1 updates slot 1 to 20, embedding the view [⊥, 10]
    // its own direct scan took; process 0's third collect sees slot 1
    // move a second time. No two collects of process 0 agree, so the
    // scan must return the embedded view of the writer that moved
    // twice: exactly [⊥, 10], after 6 reads.
    let mut alloc = RegAlloc::new();
    let snap = Snapshot::new(&mut alloc, 2);

    let mut script = Vec::new();
    for (pid, grants) in [(0, 2), (1, 6), (0, 2), (1, 6), (0, 2)] {
        script.extend(std::iter::repeat_n(Pid(pid), grants));
    }

    let outcome = SimBuilder::new(alloc.total(), Box::new(Scripted::new(script))).run(2, |ctx| {
        if ctx.pid().0 == 0 {
            let view = snap.scan(ctx)?;
            Ok(view.to_vec())
        } else {
            snap.update(ctx, 1, Word::Int(10))?;
            snap.update(ctx, 1, Word::Int(20))?;
            Ok(Vec::new())
        }
    });
    let scanned = outcome.results[0].as_ref().unwrap();
    assert_eq!(scanned, &[Word::Null, Word::Int(10)], "borrowed view");
    assert_eq!(outcome.steps[0], 6, "the scan returns at its third collect");
    assert_eq!(outcome.steps[1], 12, "both updates ran solo");
}

#[test]
fn single_writer_discipline_is_per_slot_not_global() {
    // Different processes own different slots and may update concurrently
    // with scans everywhere: all components converge to the final values.
    let mut alloc = RegAlloc::new();
    let snap = Snapshot::new(&mut alloc, 4);
    let outcome = SimBuilder::new(alloc.total(), Box::new(RandomPolicy::new(5))).run(4, |ctx| {
        let slot = ctx.pid().0;
        snap.update(ctx, slot, Word::Int(slot as u64 + 100))?;
        Ok(())
    });
    assert!(outcome.results.iter().all(Result::is_ok));
    // Quiescent scan (fresh run on same layout not possible — reuse via
    // threaded memory instead).
    let mem = exclusive_selection::ThreadedShm::new(alloc.total(), 5);
    for p in 0..4 {
        let ctx = exclusive_selection::Ctx::new(&mem, Pid(p));
        snap.update(ctx, p, Word::Int(p as u64 + 100)).unwrap();
    }
    let ctx = exclusive_selection::Ctx::new(&mem, Pid(4));
    let view = snap.scan(ctx).unwrap();
    for (i, w) in view.iter().enumerate() {
        assert_eq!(w.as_int(), Some(i as u64 + 100));
    }
}
