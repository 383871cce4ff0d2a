//! Small numeric helpers: seeds, medians, quantiles and process memory.

use exsel_sim::StepHistogram;

/// SplitMix64: derives independent sub-seeds from the run's `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quantile of chunk time per unit of work that the rates use: a busy
/// host only slows chunks down, so a low quantile measures the calm
/// moments of a run, of which a run needs only one part in ten.
const RATE_QUANTILE: f64 = 0.1;

/// Work per wall second over timed chunks `(kind, work, ns)`, robust to
/// chunks a busy host slowed down.
///
/// Chunks of one kind do like work (the segments of the same quarter of
/// every rep, the same trial batch of every rep). For each kind the time
/// per unit of work is the `RATE_QUANTILE` quantile over its chunks
/// (nearest rank, so the best of fewer than ten): other tenants of a shared host only ever slow a
/// chunk down, by up to a half for seconds or minutes at a time, so the
/// low end of a kind's chunks measures the code. The rate is the kinds'
/// mean work over the sum of their quantile times.
///
/// # Panics
///
/// Panics if `chunks` is empty or a chunk has no work.
pub fn robust_rate(chunks: &[(usize, f64, f64)]) -> f64 {
    assert!(!chunks.is_empty(), "rate of nothing");
    let kinds = chunks.iter().map(|c| c.0).max().unwrap_or(0) + 1;
    let (mut work, mut ns) = (0.0, 0.0);
    for kind in 0..kinds {
        let of_kind: Vec<_> = chunks.iter().filter(|c| c.0 == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let mut per_unit: Vec<f64> = of_kind
            .iter()
            .map(|c| {
                assert!(c.1 > 0.0, "a chunk of kind {kind} did no work");
                c.2 / c.1
            })
            .collect();
        per_unit.sort_by(f64::total_cmp);
        let rank = (RATE_QUANTILE * per_unit.len() as f64).ceil().max(1.0) as usize;
        let best = per_unit[rank.min(per_unit.len()) - 1];
        let mean_work = of_kind.iter().map(|c| c.1).sum::<f64>() / of_kind.len() as f64;
        work += mean_work;
        ns += mean_work * best;
    }
    work / ns * 1e9
}

/// The nearest-rank `q` quantile of integer samples (0 when empty).
pub fn quantile_exact(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// The service histogram's bucket layout: values 0–7 exact, then four
/// sub-buckets per octave. Mirrors `StepHistogram`, whose bucket counts
/// are private; only the bucket bounds are needed here.
fn bucket_of(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let lg = 63 - v.leading_zeros() as usize;
        8 + (lg - 3) * 4 + ((v >> (lg - 2)) & 3) as usize
    }
}

fn bucket_low(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let lg = 3 + (idx - 8) / 4;
        (1u64 << lg) + ((((idx - 8) % 4) as u64) << (lg - 2))
    }
}

/// The `q` quantile of a step histogram, interpolated linearly inside
/// its bucket by rank (0 when empty).
///
/// `StepHistogram::quantile` returns the lower bound of the bucket
/// holding the quantile, so it jumps by a whole bucket (about 19%) when
/// the quantile crosses a bound. Interpolating by rank removes that jump,
/// which keeps tail quantiles comparable from seed to seed.
/// `quantile(r, total)` is the bucket of the `r`-th smallest sample, so
/// binary searches over `r` find the ranks a bucket spans.
pub fn quantile_interp(h: &StepHistogram, q: f64) -> f64 {
    let n = h.total();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let low = h.quantile(rank, n);
    if low < 8 {
        return low as f64;
    }
    // First rank in the bucket: smallest r with quantile(r) == low.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if h.quantile(mid, n) < low {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    // Last rank in the bucket: largest r with quantile(r) == low.
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if h.quantile(mid, n) > low {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let high = bucket_low(bucket_of(low) + 1);
    let frac = ((rank - first) as f64 + 0.5) / ((last - first + 1) as f64);
    low as f64 + frac * (high - low) as f64
}

/// The process's peak resident set in MiB (`VmHWM`), or 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_rate_takes_a_low_quantile_per_kind() {
        // Kind 0: 100 units at 1 ns each, three chunks of four slowed;
        // kind 1: 50 units at 4 ns each, one of two slowed.
        let chunks = [
            (0, 100.0, 300.0),
            (0, 100.0, 100.0),
            (0, 100.0, 130.0),
            (0, 100.0, 200.0),
            (1, 50.0, 200.0),
            (1, 50.0, 260.0),
        ];
        let rate = robust_rate(&chunks);
        assert!((rate - 150.0 / 300.0 * 1e9).abs() < 1e-3, "{rate}");
        // Twenty chunks at 1..=20 ns per unit: the 10th percentile is the
        // second best.
        let many: Vec<_> = (1..=20).map(|i| (0, 10.0, 10.0 * i as f64)).collect();
        let rate = robust_rate(&many);
        assert!((rate - 0.5e9).abs() < 1e-3, "{rate}");
    }

    #[test]
    fn bucket_layout_matches_the_histogram() {
        let mut h = StepHistogram::default();
        for v in [9u64, 100, 1000, 5000, 123_456] {
            h.clear();
            h.record(v);
            assert_eq!(h.quantile(1, 2), bucket_low(bucket_of(v)), "value {v}");
            assert!(bucket_low(bucket_of(v) + 1) > v);
        }
    }

    #[test]
    fn interpolation_stays_inside_the_bucket_and_is_monotone() {
        let mut h = StepHistogram::default();
        for v in 0..10_000u64 {
            h.record(1000 + v % 700);
        }
        let mut last = 0.0;
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let x = quantile_interp(&h, q);
            let low = h.quantile((q * 10_000.0) as u64, 10_000) as f64;
            assert!(x >= low && x < 2.0 * low, "q={q}: {x} vs bucket {low}");
            assert!(x >= last, "not monotone at {q}");
            last = x;
        }
    }

    #[test]
    fn exact_quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_exact(&v, 0.5), 500.0);
        assert_eq!(quantile_exact(&v, 0.999), 999.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
