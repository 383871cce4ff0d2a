//! The pure sizing functions (`name_bound_for`) against construction, and
//! the register layouts they select, pinned to their known values.
//!
//! `EfficientRename` decides whether to build its PolyLog stage from
//! `PolyLogRename::name_bound_for` alone, so that function must equal the
//! bound a built instance reports, on every expander profile, on both
//! sides of the decision and at a tie.

use exsel_core::{
    AdaptiveRename, BasicRename, EfficientRename, Majority, PolyLogRename, Rename, RenameConfig,
};
use exsel_expander::ExpanderParams;
use exsel_shm::RegAlloc;

/// A profile lean enough that the PolyLog stage pays off at small `k`:
/// at `k = 2` it would expand the range, at `k = 4` it ties, and from
/// `k = 8` it shrinks it.
fn lean() -> ExpanderParams {
    ExpanderParams {
        width_factor: 0.5,
        degree_factor: 1.0,
        min_degree: 2,
        epsilon: 0.25,
    }
}

fn seed7(expander: ExpanderParams) -> RenameConfig {
    RenameConfig { expander, seed: 7 }
}

/// Moir–Anderson's name bound `k(k+1)/2`, the range the PolyLog stage
/// must shrink.
fn ma_bound(k: usize) -> usize {
    k * (k + 1) / 2
}

#[test]
fn sizing_functions_agree_with_construction() {
    // The inputs `EfficientRename` hands the stage, then larger N. The
    // N = 65,536 points are checked against built instances' bounds by
    // the pins in `polylog_bounds_are_pinned`.
    let mut grid: Vec<(usize, usize)> = [1, 2, 4, 8, 16].map(|k| (ma_bound(k), k)).to_vec();
    grid.extend([(1_024, 8), (4_096, 4)]);
    for params in [ExpanderParams::compact(), ExpanderParams::paper(), lean()] {
        let cfg = seed7(params.clone());
        for &(n, k) in &grid {
            let mut alloc = RegAlloc::new();
            let built = PolyLogRename::new(&mut alloc, n, k, &cfg);
            assert_eq!(
                PolyLogRename::name_bound_for(n, k, &params),
                built.name_bound(),
                "{params:?}: PolyLog({n}, {k})"
            );
            assert_eq!(built.num_registers(), alloc.total());
            assert_eq!(
                BasicRename::name_bound_for(n, k, &params),
                BasicRename::new(&mut alloc, n, k, &cfg).name_bound(),
                "{params:?}: Basic({n}, {k})"
            );
            assert_eq!(
                Majority::name_bound_for(n, k, &params),
                Majority::new(&mut alloc, n, k, &cfg).name_bound(),
                "{params:?}: Majority({n}, {k})"
            );
        }
    }
}

#[test]
fn polylog_stage_is_built_exactly_when_it_shrinks_the_range() {
    for params in [ExpanderParams::compact(), ExpanderParams::paper(), lean()] {
        let cfg = seed7(params.clone());
        for k in 1..=16 {
            let mut alloc = RegAlloc::new();
            let algo = EfficientRename::new(&mut alloc, k, &cfg);
            let bound = PolyLogRename::name_bound_for(ma_bound(k), k, &params);
            assert_eq!(
                algo.has_polylog_stage(),
                bound < ma_bound(k) as u64,
                "{params:?} k={k}: stage bound {bound} vs {}",
                ma_bound(k)
            );
            assert_eq!(algo.num_registers(), alloc.total());
        }
    }
    // The lean profile straddles the decision: skip, tie (skipped), keep.
    let lean = lean();
    let bounds = [2, 4, 8, 16].map(|k| PolyLogRename::name_bound_for(ma_bound(k), k, &lean));
    assert_eq!(bounds, [4, 10, 20, 39]);
    let cfg = seed7(lean);
    let built = [2, 4, 8, 16].map(|k| {
        let mut alloc = RegAlloc::new();
        let algo = EfficientRename::new(&mut alloc, k, &cfg);
        (algo.num_registers(), algo.has_polylog_stage())
    });
    assert_eq!(built, [(9, false), (30, false), (316, true), (875, true)]);
}

#[test]
fn compact_profile_keeps_the_stage_from_k_585() {
    // So `AdaptiveRename`, whose phases have power-of-two capacities,
    // first builds the stage at k = 1024.
    let params = ExpanderParams::compact();
    let pays_off =
        |k: usize| PolyLogRename::name_bound_for(ma_bound(k), k, &params) < ma_bound(k) as u64;
    assert!((1..585).all(|k| !pays_off(k)));
    assert!((585..=1_024).all(pays_off));
}

#[test]
fn polylog_bounds_are_pinned() {
    // Bounds of instances built before the stage was sized by arithmetic.
    let compact = ExpanderParams::compact();
    let pinned = [
        ((65_536, 8), 2_108),
        ((65_536, 16), 4_445),
        ((4_096, 4), 950),
        ((1_024, 8), 1_856),
    ];
    for ((n, k), want) in pinned {
        assert_eq!(
            PolyLogRename::name_bound_for(n, k, &compact),
            want,
            "({n}, {k})"
        );
    }
    assert_eq!(
        PolyLogRename::name_bound_for(65_536, 8, &ExpanderParams::paper()),
        134_968
    );
}

#[test]
fn register_layouts_are_pinned() {
    let cfg = RenameConfig::default();
    let adaptive = [8, 64, 128, 256].map(|n| {
        let mut alloc = RegAlloc::new();
        AdaptiveRename::new(&mut alloc, n, &cfg).num_registers()
    });
    assert_eq!(adaptive, [150, 8_382, 33_150, 131_838]);
    let mut total = 0;
    for k in 1..=64 {
        let mut alloc = RegAlloc::new();
        let algo = EfficientRename::new(&mut alloc, k, &cfg);
        assert!(!algo.has_polylog_stage(), "k={k}");
        total += algo.num_registers();
    }
    assert_eq!(total, 137_280);
}
