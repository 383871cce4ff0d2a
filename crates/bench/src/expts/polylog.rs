//! T3 — Theorem 1: `PolyLog-Rename(k, N)` is `(k,N)`-renaming with
//! `M = O(k)` in `O(log k (log N + log k·log log N))` local steps and
//! `O(k·log(N/k))` registers.
//!
//! The defining contrast with T2: `M/k` stays flat as `N` grows (the
//! epochs squeeze the `log(N/k)` factor out of the name range), at the
//! cost of a few more epochs of steps.

use exsel_core::{PolyLogRename, Rename, RenameConfig};
use exsel_shm::RegAlloc;
use exsel_sim::{AlgoSet, StepEngine};

use crate::runner::{spread_originals, sweep_random};
use crate::Table;

/// Regenerates the T3 table.
///
/// # Panics
///
/// Panics if Theorem 1's everyone-renamed guarantee is violated.
pub fn run() {
    let mut table = Table::new(
        "T3 PolyLog-Rename(k,N) — Theorem 1: M = O(k), polylog steps",
        &[
            "N",
            "k",
            "epochs",
            "M",
            "M/k",
            "registers",
            "named",
            "max_steps",
            "steps_norm",
        ],
    );
    let cfg = RenameConfig::default();
    let mut engine = StepEngine::reusable(0);
    for n_exp in [10u32, 12, 14, 16] {
        let n = 1usize << n_exp;
        for k in [2usize, 4, 8, 16] {
            let mut alloc = RegAlloc::new();
            let algo = PolyLogRename::new(&mut alloc, n, k, &cfg);
            let originals = spread_originals(k, n);
            let stats = sweep_random(&mut engine, 0..3, &originals, |a| {
                AlgoSet::Rename(Box::new(PolyLogRename::new(a, n, k, &cfg)))
            });
            let lg_k = (k as f64).log2().max(1.0);
            let lg_n = (n as f64).log2();
            let lglg_n = lg_n.log2();
            table.row(&[
                n.to_string(),
                k.to_string(),
                algo.num_epochs().to_string(),
                algo.name_bound().to_string(),
                format!("{:.0}", algo.name_bound() as f64 / k as f64),
                alloc.total().to_string(),
                stats.min_named.to_string(),
                stats.max_steps().to_string(),
                format!(
                    "{:.2}",
                    stats.max_steps() as f64 / (lg_k * (lg_n + lg_k * lglg_n))
                ),
            ]);
            assert_eq!(
                stats.min_named, k,
                "Theorem 1 violated: not everyone renamed"
            );
        }
    }
    table.emit();
    println!("shape check: M/k flat in N (Theorem 1's M = O(k)); steps_norm roughly flat certifies the polylog step bound.");
}
