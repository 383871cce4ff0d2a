//! T5 — Theorem 3 / Corollary 1: `Almost-Adaptive(N)` renames unknown
//! contention `k` into names of magnitude `O(k)` in
//! `O(log²k (log N + log k·log log N))` steps with `O(n·log(N/n))`
//! registers.
//!
//! `N` and the system size `n` are fixed; true contention `k` sweeps.
//! The observed max name must stay within the phase-`⌈lg k⌉` budget
//! (`O(k)`), far below the full-system name bound.

use exsel_core::{AlmostAdaptive, Rename, RenameConfig};
use exsel_shm::RegAlloc;
use exsel_sim::{AlgoSet, StepEngine};

use crate::runner::{spread_originals, sweep_random};
use crate::Table;

/// Regenerates the T5 table.
///
/// # Panics
///
/// Panics if Theorem 3's contention-indexed name bound is violated.
pub fn run() {
    let n_names = 1usize << 12;
    let n_procs = 32usize;
    let cfg = RenameConfig::default();

    let mut probe_alloc = RegAlloc::new();
    let probe = AlmostAdaptive::new(&mut probe_alloc, n_names, n_procs, &cfg);
    let mut table = Table::new(
        format!(
            "T5 Almost-Adaptive(N={n_names}) over n={n_procs} — Theorem 3: names O(k), registers {} (full bound {})",
            probe_alloc.total(),
            probe.name_bound()
        ),
        &[
            "k", "max_name", "bound_for_k", "name_per_k", "max_steps", "steps_norm", "named",
        ],
    );

    let mut engine = StepEngine::reusable(0);
    for k in [1usize, 2, 4, 8, 16, 32] {
        let originals = spread_originals(k, n_names);
        let stats = sweep_random(&mut engine, 0..3, &originals, |a| {
            AlgoSet::Rename(Box::new(AlmostAdaptive::new(a, n_names, n_procs, &cfg)))
        });
        let bound = probe.name_bound_for_contention(k);
        assert!(
            stats.max_name <= bound,
            "Theorem 3 violated: {} > {bound}",
            stats.max_name
        );
        assert_eq!(stats.min_named, k, "not everyone renamed at k={k}");
        let lg_k = (k as f64).log2().max(1.0);
        let lg_n = (n_names as f64).log2();
        table.row(&[
            k.to_string(),
            stats.max_name.to_string(),
            bound.to_string(),
            format!("{:.0}", stats.max_name as f64 / k as f64),
            stats.max_steps().to_string(),
            format!(
                "{:.2}",
                stats.max_steps() as f64 / (lg_k * lg_k * (lg_n + lg_k * lg_n.log2()))
            ),
            stats.min_named.to_string(),
        ]);
    }
    table.emit();
    println!("shape check: max_name tracks O(k) (bounded by bound_for_k, independent of n or the full bound);");
    println!("steps_norm stays bounded, certifying the polylog-in-k step complexity.");
}
