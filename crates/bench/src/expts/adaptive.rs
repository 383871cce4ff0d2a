//! T6 — Theorem 4: fully adaptive renaming (neither `k` nor `N` known)
//! with `M ≤ 8k − lg k − 1`, `O(k)` steps and `O(n²)` registers. The
//! table checks the name bound, not the step bound: phase `i` is an
//! `Efficient-Rename(2ⁱ)` whose snapshot stage, the stand-in for the
//! `AF(k, N)` stage (ARCHITECTURE.md, "Substitutions"), scans all
//! `2ⁱ(2ⁱ+1)/2` names of its Moir–Anderson stage, so the steps grow
//! faster than linearly in `k`.
//!
//! The contenders' original names are drawn from a huge sparse range to
//! stress the "N unknown" claim; true contention `k` sweeps.

use exsel_core::{AdaptiveRename, RenameConfig};
use exsel_shm::RegAlloc;
use exsel_sim::{AlgoSet, StepEngine};

use crate::runner::sweep_random;
use crate::Table;

/// Regenerates the T6 table.
///
/// # Panics
///
/// Panics if Theorem 4's name bound is violated.
pub fn run() {
    let n_procs = 16usize;
    let cfg = RenameConfig::default();
    let mut probe_alloc = RegAlloc::new();
    let _probe = AdaptiveRename::new(&mut probe_alloc, n_procs, &cfg);

    let mut table = Table::new(
        format!(
            "T6 Adaptive-Rename over n={n_procs} — Theorem 4: M ≤ 8k − lg k − 1, O(k) steps, {} registers",
            probe_alloc.total()
        ),
        &[
            "k", "max_name", "8k-lgk-1", "max_steps", "steps_per_k", "named",
        ],
    );

    let mut engine = StepEngine::reusable(0);
    for k in [1usize, 2, 3, 4, 6, 8, 12, 16] {
        // Sparse, huge originals: N is effectively unbounded.
        let originals: Vec<u64> = (0..k as u64)
            .map(|i| (i + 1).wrapping_mul(0x9E37_79B9))
            .collect();
        let stats = sweep_random(&mut engine, 0..3, &originals, |a| {
            AlgoSet::Rename(Box::new(AdaptiveRename::new(a, n_procs, &cfg)))
        });
        let lg_k = (k as f64).log2().floor() as u64;
        let theorem_bound = 8 * k as u64 - lg_k - 1;
        assert!(
            stats.max_name <= theorem_bound,
            "Theorem 4 violated: {} > {theorem_bound} at k={k}",
            stats.max_name
        );
        assert_eq!(stats.min_named, k, "not everyone renamed at k={k}");
        table.row(&[
            k.to_string(),
            stats.max_name.to_string(),
            theorem_bound.to_string(),
            stats.max_steps().to_string(),
            format!("{:.0}", stats.max_steps() as f64 / k as f64),
            stats.min_named.to_string(),
        ]);
    }
    table.emit();
    println!("shape check: max_name ≤ 8k − lg k − 1 for every contention. steps_per_k does not settle: steps grow faster");
    println!("than linearly in k, because each phase's snapshot stage, the stand-in for the AF(k, N) stage, scans all");
    println!("2^i(2^i+1)/2 names of its Moir–Anderson stage (ARCHITECTURE.md, \"Substitutions\").");
}
