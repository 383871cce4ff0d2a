//! T2 — Lemma 5: `Basic-Rename(k, N)` is `(k,N)`-renaming in
//! `O(log k · log N)` local steps with `M = O(k·log(N/k))` and as many
//! registers.
//!
//! Sweeps `(k, N)`; the normalized column `steps/(lg k·lg N)` should stay
//! roughly flat while raw steps grow, and `M / (k·lg(N/k))` should stay
//! bounded.

use exsel_core::{BasicRename, Rename, RenameConfig};
use exsel_shm::RegAlloc;
use exsel_sim::{AlgoSet, StepEngine};

use crate::runner::{spread_originals, sweep_random};
use crate::Table;

/// Regenerates the T2 table.
///
/// # Panics
///
/// Panics if Lemma 5's everyone-renamed guarantee is violated.
pub fn run() {
    let mut table = Table::new(
        "T2 Basic-Rename(k,N) — Lemma 5: O(log k · log N) steps, M = O(k log(N/k))",
        &[
            "N",
            "k",
            "stages",
            "M",
            "registers",
            "named",
            "max_steps",
            "steps_norm",
            "M_norm",
        ],
    );
    let cfg = RenameConfig::default();
    let mut engine = StepEngine::reusable(0);
    for n_exp in [8u32, 10, 12, 14] {
        let n = 1usize << n_exp;
        for k in [2usize, 4, 8, 16] {
            let mut alloc = RegAlloc::new();
            let algo = BasicRename::new(&mut alloc, n, k, &cfg);
            let originals = spread_originals(k, n);
            let stats = sweep_random(&mut engine, 0..5, &originals, |a| {
                AlgoSet::Rename(Box::new(BasicRename::new(a, n, k, &cfg)))
            });
            let lg_k = (k as f64).log2().max(1.0);
            let lg_n = (n as f64).log2();
            let lg_ratio = ((n / k) as f64).log2().max(1.0);
            table.row(&[
                n.to_string(),
                k.to_string(),
                algo.num_stages().to_string(),
                algo.name_bound().to_string(),
                alloc.total().to_string(),
                stats.min_named.to_string(),
                stats.max_steps().to_string(),
                format!("{:.2}", stats.max_steps() as f64 / (lg_k * lg_n)),
                format!("{:.1}", algo.name_bound() as f64 / (k as f64 * lg_ratio)),
            ]);
            assert_eq!(stats.min_named, k, "Lemma 5 violated: not everyone renamed");
        }
    }
    table.emit();
    println!("shape check: steps_norm (≈ constant) certifies O(log k · log N); M_norm certifies M = O(k·log(N/k)).");
}
