//! T1 — Lemma 4: `Majority(ℓ, N)` renames at least half of at most `ℓ`
//! contenders in `O(log N)` local steps with `O(M)` registers.
//!
//! Sweeps `N` and `ℓ`, reporting the renamed fraction (must be ≥ 1/2),
//! the worst-case steps (should track the walk length `5Δ = O(log N)`),
//! and the register footprint.

use exsel_core::{Majority, Rename, RenameConfig};
use exsel_shm::RegAlloc;
use exsel_sim::{AlgoSet, StepEngine};

use crate::runner::{spread_originals, sweep_random};
use crate::Table;

/// Regenerates the T1 table.
///
/// # Panics
///
/// Panics if Lemma 4's renamed-fraction guarantee is violated.
pub fn run() {
    let mut table = Table::new(
        "T1 Majority(l,N) — Lemma 4: ≥ half renamed, O(log N) steps",
        &[
            "N",
            "l",
            "degree",
            "M",
            "registers",
            "renamed",
            "frac",
            "max_steps",
            "walk_bound",
        ],
    );
    let cfg = RenameConfig::default();
    let mut engine = StepEngine::reusable(0);
    for n_exp in [8u32, 10, 12, 14] {
        let n = 1usize << n_exp;
        for l in [4usize, 16, 64] {
            if l * 4 > n {
                continue;
            }
            let mut alloc = RegAlloc::new();
            let algo = Majority::new(&mut alloc, n, l, &cfg);
            let originals = spread_originals(l, n);
            // Worst renamed fraction over several adversarially-seeded
            // schedules.
            let stats = sweep_random(&mut engine, 0..5, &originals, |a| {
                AlgoSet::Majority(Majority::new(a, n, l, &cfg))
            });
            table.row(&[
                n.to_string(),
                l.to_string(),
                algo.graph().degree().to_string(),
                algo.name_bound().to_string(),
                alloc.total().to_string(),
                stats.min_named.to_string(),
                format!("{:.2}", stats.min_named as f64 / l as f64),
                stats.max_steps().to_string(),
                (5 * algo.graph().degree()).to_string(),
            ]);
            assert!(
                stats.min_named * 2 >= l,
                "Lemma 4 violated: {}/{l} renamed",
                stats.min_named
            );
        }
    }
    table.emit();
    println!("shape check: renamed fraction ≥ 0.50 everywhere; max_steps ≤ walk_bound = 5·degree = O(log N).");
}
