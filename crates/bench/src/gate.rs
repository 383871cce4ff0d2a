//! The bench gate: quick reruns of the committed BENCH workloads checked
//! against the floors recorded in `BENCH_engine.json`.
//!
//! Historically the acceptance floors (engine ≥ 5× threads, reuse no
//! slower than fresh) lived as asserts inside the
//! experiment bodies, so they only fired when someone regenerated the
//! full artifact. The gate moves them here: `bin/bench_gate` re-measures
//! every workload in quick mode ([`crate::expts::engine::measure`],
//! [`crate::expts::mega::measure`]) and [`check`] compares each fresh
//! row against **per-row tolerances** — a regression of more than 25%
//! against the committed row's speedup fails, clamped by the per-category
//! hard floor so a historically huge speedup (2600× on an idle box) does
//! not make CI flaky on a loaded one.
//!
//! Allocation-competing rows gate on allocation counts instead of
//! wall-clock: the snapshot-compaction row requires recycling to beat the
//! non-recycling arena by 10×, and the mega row requires the measured
//! steady-state trial to perform **zero** heap allocations (when the
//! counting allocator is installed — see [`crate::alloc_probe`]).
//! Service rows re-measure the whole committed shard axis
//! ([`crate::expts::service::measure_rows`]), so a throughput or
//! zero-alloc regression at any shard count fails the gate.

/// One measured workload row — the in-memory form of a
/// `BENCH_engine.json` entry.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload id, e.g. `engine_reuse/majority k=32 x64`. Rows are
    /// matched across runs by [`workload_key`], which drops the trial
    /// count suffix so quick reruns compare against full-scale rows.
    pub workload: String,
    /// Baseline label (`threads`, `fresh`, `recycle_off`, `arc_pool`,
    /// `check_off`, `sessions_floor`) — also selects the gate category.
    pub baseline: &'static str,
    /// Contender label.
    pub contender: &'static str,
    /// Baseline wall-clock, seconds.
    pub baseline_s: f64,
    /// Contender wall-clock, seconds.
    pub contender_s: f64,
    /// Extra integer facts recorded alongside the timings (allocation
    /// counts, steps/sec, shard counts, ...).
    pub extras: Vec<(&'static str, u64)>,
}

impl Measurement {
    /// Baseline time over contender time.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_s / self.contender_s
    }

    /// The named extra, if recorded.
    #[must_use]
    pub fn extra(&self, key: &str) -> Option<u64> {
        self.extras.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The row as a JSON object in the `BENCH_engine.json` layout.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        obj.insert(
            "workload".into(),
            serde_json::Value::String(self.workload.clone()),
        );
        obj.insert(
            format!("{}_ms", self.baseline),
            serde_json::Value::Float(self.baseline_s * 1e3),
        );
        obj.insert(
            format!("{}_ms", self.contender),
            serde_json::Value::Float(self.contender_s * 1e3),
        );
        obj.insert("speedup".into(), serde_json::Value::Float(self.speedup()));
        for (key, value) in &self.extras {
            obj.insert((*key).into(), serde_json::Value::from(*value));
        }
        serde_json::Value::Object(obj)
    }
}

/// The cross-run identity of a workload row: the workload string minus
/// any ` xN` trial-count suffix, so `.../k=32 x16` (quick) matches
/// `.../k=32 x64` (committed).
#[must_use]
pub fn workload_key(workload: &str) -> &str {
    match workload.rsplit_once(" x") {
        Some((head, count)) if !count.is_empty() && count.bytes().all(|b| b.is_ascii_digit()) => {
            head
        }
        _ => workload,
    }
}

/// The hard acceptance floor of a row's category, by baseline label:
/// these are the historical in-code asserts, now data. `None` means the
/// category competes on allocations, not wall-clock.
#[must_use]
pub fn category_floor(baseline: &str) -> Option<f64> {
    match baseline {
        // The step engine must stay ≥ 5× the thread-backed scheduler.
        "threads" => Some(5.0),
        // Reused engines / the slab-bank mega arm must be "no slower",
        // with headroom for 1-CPU scheduling noise.
        "fresh" | "arc_pool" => Some(0.8),
        // The dynamic footprint checker may cost at most ~10% over the
        // same sweep with no checker installed.
        "check_off" => Some(0.9),
        // Snapshot compaction competes on allocations; the service
        // harness competes on absolute sessions/sec (see [`check`]).
        "recycle_off" | "sessions_floor" => None,
        _ => Some(0.8),
    }
}

/// The hard sessions/sec floor for `sessions_floor` rows — deliberately
/// conservative (the harness clears it by orders of magnitude on any
/// box) so a loaded CI runner cannot flake the gate; the committed
/// row's halved throughput binds when it is lower still.
pub const SESSIONS_FLOOR: u64 = 5_000;

/// The outcome of one gate run: human-readable per-row verdicts plus the
/// subset that failed.
#[derive(Debug, Default)]
pub struct GateReport {
    /// One line per checked row.
    pub lines: Vec<String>,
    /// Failure descriptions (empty means the gate passes).
    pub failures: Vec<String>,
}

impl GateReport {
    /// Whether every row passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Looks up the committed speedup for `key` in a parsed
/// `BENCH_engine.json` document.
fn committed_speedup(committed: &serde_json::Value, key: &str) -> Option<f64> {
    let serde_json::Value::Array(rows) = committed else {
        return None;
    };
    rows.iter().find_map(|row| {
        let serde_json::Value::Object(obj) = row else {
            return None;
        };
        match obj.get("workload") {
            Some(serde_json::Value::String(w)) if workload_key(w) == key => {
                match obj.get("speedup") {
                    Some(serde_json::Value::Float(s)) => Some(*s),
                    Some(serde_json::Value::Int(s)) => Some(*s as f64),
                    _ => None,
                }
            }
            _ => None,
        }
    })
}

/// Looks up an integer extra of the committed row matching `key`.
fn committed_extra(committed: &serde_json::Value, key: &str, field: &str) -> Option<u64> {
    let serde_json::Value::Array(rows) = committed else {
        return None;
    };
    rows.iter().find_map(|row| {
        let serde_json::Value::Object(obj) = row else {
            return None;
        };
        match obj.get("workload") {
            Some(serde_json::Value::String(w)) if workload_key(w) == key => match obj.get(field) {
                Some(serde_json::Value::Int(v)) => u64::try_from(*v).ok(),
                _ => None,
            },
            _ => None,
        }
    })
}

/// Gates `fresh` measurements against the committed artifact: every
/// timing row must reach `min(committed_speedup × 0.75, category hard
/// floor)`; allocation rows must keep their allocation invariants (see
/// the module docs). Rows with no committed counterpart are gated on the
/// hard floor alone.
///
/// Reduced-exploration rows additionally gate on **execution counts**,
/// which are deterministic: a fresh `execs_explored` more than 10% above
/// the committed row's count fails (pruning breakage is a regression
/// even when wall-clock looks fine), and wherever an unreduced count is
/// recorded the durable ≥5x reduction floor must hold.
#[must_use]
pub fn check(fresh: &[Measurement], committed: &serde_json::Value) -> GateReport {
    let mut report = GateReport::default();
    for row in fresh {
        let key = workload_key(&row.workload);
        if row.baseline == "recycle_off" {
            // Allocation-competing row: recycling must beat the
            // non-recycling arena by 10× on fresh allocations.
            let off = row.extra("recycle_off_allocs").unwrap_or(0);
            let on = row.extra("recycle_on_allocs").unwrap_or(u64::MAX);
            let ok = on.saturating_mul(10) < off;
            report.lines.push(format!(
                "{} {key}: recycling allocs {on} vs {off} (need 10x reduction)",
                if ok { "PASS" } else { "FAIL" },
            ));
            if !ok {
                report.failures.push(format!(
                    "{key}: recycling barely dented snapshot allocations: {on} vs {off}"
                ));
            }
            continue;
        }
        if row.baseline == "sessions_floor" {
            // Throughput-floor row: absolute sessions/sec, clamped so a
            // historically fast committed run cannot make CI flaky.
            let measured = row.extra("sessions_per_sec").unwrap_or(0);
            let threshold = committed_extra(committed, key, "sessions_per_sec")
                .map_or(SESSIONS_FLOOR, |c| (c / 2).min(SESSIONS_FLOOR));
            let ok = measured >= threshold;
            report.lines.push(format!(
                "{} {key}: {measured} sessions/sec (floor {threshold})",
                if ok { "PASS" } else { "FAIL" },
            ));
            if !ok {
                report.failures.push(format!(
                    "{key}: {measured} sessions/sec below the {threshold} floor"
                ));
            }
        } else {
            let hard = category_floor(row.baseline).expect("timing category has a floor");
            let threshold =
                committed_speedup(committed, key).map_or(hard, |s| (s * 0.75).min(hard));
            let speedup = row.speedup();
            let ok = speedup >= threshold;
            report.lines.push(format!(
                "{} {key}: {:.2}x {} over {} (floor {threshold:.2}x)",
                if ok { "PASS" } else { "FAIL" },
                speedup,
                row.contender,
                row.baseline,
            ));
            if !ok {
                report.failures.push(format!(
                    "{key}: {speedup:.2}x below the {threshold:.2}x floor ({} vs {})",
                    row.contender, row.baseline
                ));
            }
        }
        // Reduction rows: execution counts, not just wall-clock.
        if let Some(explored) = row.extra("execs_explored") {
            if let Some(unreduced) = row.extra("execs_unreduced") {
                let ok = explored.saturating_mul(5) <= unreduced;
                report.lines.push(format!(
                    "{} {key}: {explored} executions vs {unreduced} unreduced (need 5x reduction)",
                    if ok { "PASS" } else { "FAIL" },
                ));
                if !ok {
                    report.failures.push(format!(
                        "{key}: reduction lost its 5x floor: {explored} vs {unreduced} unreduced"
                    ));
                }
            }
            if let Some(frozen) = committed_extra(committed, key, "execs_explored") {
                // Counts are deterministic per workload scale; the 10%
                // headroom only covers intentional workload tweaks that
                // land together with a regenerated artifact.
                let ok = explored <= frozen + frozen.div_ceil(10);
                report.lines.push(format!(
                    "{} {key}: {explored} executions vs {frozen} committed (tolerance +10%)",
                    if ok { "PASS" } else { "FAIL" },
                ));
                if !ok {
                    report.failures.push(format!(
                        "{key}: pruning regressed: {explored} executions vs {frozen} committed"
                    ));
                }
            }
        }
        // The mega row additionally promises a flat steady state: zero
        // heap traffic in the measured trials whenever the counting
        // allocator is installed to observe it.
        if row.extra("alloc_probe") == Some(1) {
            let allocs = row.extra("steady_allocs").unwrap_or(u64::MAX);
            let frees = row.extra("steady_frees").unwrap_or(u64::MAX);
            let flat = allocs == 0 && frees == 0;
            report.lines.push(format!(
                "{} {key}: steady-state heap traffic {allocs} allocs / {frees} frees",
                if flat { "PASS" } else { "FAIL" },
            ));
            if !flat {
                report.failures.push(format!(
                    "{key}: steady state not allocation-free ({allocs} allocs, {frees} frees)"
                ));
            }
        }
    }
    report
}

/// Replaces (by [`workload_key`]) or appends `rows` in the JSON-array
/// artifact at `path`, preserving every other committed row — so the
/// `engine` scenario and the `mega` scenario can regenerate their own
/// rows without clobbering each other's.
///
/// # Errors
///
/// Returns a message when the existing artifact cannot be parsed or the
/// file cannot be written.
pub fn merge_into_artifact(path: &str, rows: &[Measurement]) -> Result<(), String> {
    let mut doc: Vec<serde_json::Value> = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str(&text) {
            Ok(serde_json::Value::Array(rows)) => rows,
            Ok(_) => return Err(format!("{path}: committed artifact is not a JSON array")),
            Err(e) => return Err(format!("{path}: {e}")),
        },
        Err(_) => Vec::new(),
    };
    for row in rows {
        let key = workload_key(&row.workload);
        let slot = doc.iter_mut().find(|entry| {
            let serde_json::Value::Object(obj) = entry else {
                return false;
            };
            matches!(obj.get("workload"),
                Some(serde_json::Value::String(w)) if workload_key(w) == key)
        });
        match slot {
            Some(entry) => *entry = row.to_json(),
            None => doc.push(row.to_json()),
        }
    }
    let doc = serde_json::Value::Array(doc);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("could not write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(workload: &str, baseline: &'static str, speedup: f64) -> Measurement {
        Measurement {
            workload: workload.to_string(),
            baseline,
            contender: "contender",
            baseline_s: speedup,
            contender_s: 1.0,
            extras: Vec::new(),
        }
    }

    fn committed(rows: &[(&str, f64)]) -> serde_json::Value {
        serde_json::Value::Array(
            rows.iter()
                .map(|(w, s)| {
                    let mut obj = serde_json::Map::new();
                    obj.insert("workload".into(), serde_json::Value::String((*w).into()));
                    obj.insert("speedup".into(), serde_json::Value::Float(*s));
                    serde_json::Value::Object(obj)
                })
                .collect(),
        )
    }

    #[test]
    fn workload_keys_drop_trial_counts() {
        assert_eq!(
            workload_key("machine_pool/checked_majority/k=32 x64"),
            "machine_pool/checked_majority/k=32"
        );
        assert_eq!(
            workload_key("engine_reuse/majority k=32 x16"),
            "engine_reuse/majority k=32"
        );
        assert_eq!(workload_key("majority_round/k=8"), "majority_round/k=8");
        assert_eq!(workload_key("odd x"), "odd x");
        assert_eq!(workload_key("odd xab"), "odd xab");
    }

    #[test]
    fn hard_floor_caps_the_committed_tolerance() {
        // Committed 100x: 0.75 tolerance would demand 75x, but the
        // category floor (5x for threads rows) caps the requirement.
        let doc = committed(&[("w", 100.0)]);
        assert!(check(&[meas("w x64", "threads", 6.0)], &doc).passed());
        assert!(!check(&[meas("w x64", "threads", 4.0)], &doc).passed());
    }

    #[test]
    fn committed_tolerance_binds_when_below_the_floor() {
        // Committed 1.08x (engine reuse): min(0.75 × 1.08, 0.8) = 0.8.
        let doc = committed(&[("reuse", 1.08)]);
        assert!(check(&[meas("reuse x16", "fresh", 0.81)], &doc).passed());
        assert!(!check(&[meas("reuse x16", "fresh", 0.79)], &doc).passed());
        // Committed below the floor/0.75 line: the 25% tolerance binds
        // instead — min(0.75 × 1.0, 0.8) = 0.75.
        let doc = committed(&[("reuse", 1.0)]);
        assert!(check(&[meas("reuse x16", "fresh", 0.76)], &doc).passed());
        assert!(!check(&[meas("reuse x16", "fresh", 0.74)], &doc).passed());
    }

    #[test]
    fn missing_committed_row_uses_the_hard_floor() {
        let doc = committed(&[]);
        assert!(check(&[meas("new-row", "threads", 5.1)], &doc).passed());
        assert!(!check(&[meas("new-row", "threads", 4.9)], &doc).passed());
    }

    #[test]
    fn recycle_rows_gate_on_allocations() {
        let mut ok = meas("snap", "recycle_off", 1.0);
        ok.extras = vec![("recycle_off_allocs", 2048), ("recycle_on_allocs", 0)];
        let mut bad = ok.clone();
        bad.extras = vec![("recycle_off_allocs", 2048), ("recycle_on_allocs", 300)];
        let doc = committed(&[]);
        assert!(check(&[ok], &doc).passed());
        assert!(!check(&[bad], &doc).passed());
    }

    #[test]
    fn mega_rows_gate_on_flat_memory_when_probed() {
        let mut flat = meas("machine_pool/mega", "arc_pool", 1.5);
        flat.extras = vec![
            ("alloc_probe", 1),
            ("steady_allocs", 0),
            ("steady_frees", 0),
        ];
        let mut leaky = flat.clone();
        leaky.extras = vec![
            ("alloc_probe", 1),
            ("steady_allocs", 7),
            ("steady_frees", 0),
        ];
        let mut unprobed = flat.clone();
        unprobed.extras = vec![("alloc_probe", 0), ("steady_allocs", 7)];
        let doc = committed(&[("machine_pool/mega", 1.4)]);
        assert!(check(&[flat], &doc).passed());
        assert!(!check(&[leaky], &doc).passed());
        // Without the counting allocator the flatness check is vacuous
        // (counters never moved), so only the speedup floor applies.
        assert!(check(&[unprobed], &doc).passed());
    }

    #[test]
    fn service_rows_gate_on_sessions_per_sec_and_flat_memory() {
        let mut fast = meas("service/steady/open_loop", "sessions_floor", 1.0);
        fast.extras = vec![
            ("sessions_per_sec", SESSIONS_FLOOR * 10),
            ("alloc_probe", 1),
            ("steady_allocs", 0),
            ("steady_frees", 0),
        ];
        let doc = committed(&[]);
        assert!(check(std::slice::from_ref(&fast), &doc).passed());
        let mut slow = fast.clone();
        slow.extras = vec![("sessions_per_sec", SESSIONS_FLOOR - 1)];
        assert!(!check(std::slice::from_ref(&slow), &doc).passed());
        // A leaky steady state fails even at full throughput.
        let mut leaky = fast.clone();
        leaky.extras = vec![
            ("sessions_per_sec", SESSIONS_FLOOR * 10),
            ("alloc_probe", 1),
            ("steady_allocs", 3),
            ("steady_frees", 0),
        ];
        assert!(!check(std::slice::from_ref(&leaky), &doc).passed());
        // A committed row below the hard floor halves into the binding
        // threshold instead of the constant.
        let committed_slow = {
            let mut obj = serde_json::Map::new();
            obj.insert(
                "workload".into(),
                serde_json::Value::String("service/steady/open_loop".into()),
            );
            obj.insert("sessions_per_sec".into(), serde_json::Value::from(6_000u64));
            serde_json::Value::Array(vec![serde_json::Value::Object(obj)])
        };
        let mut ok = fast.clone();
        ok.extras = vec![("sessions_per_sec", 3_100)];
        assert!(check(std::slice::from_ref(&ok), &committed_slow).passed());
        let mut bad = fast;
        bad.extras = vec![("sessions_per_sec", 2_900)];
        assert!(!check(std::slice::from_ref(&bad), &committed_slow).passed());
    }

    #[test]
    fn reduction_rows_gate_on_execution_counts() {
        let doc = {
            let mut obj = serde_json::Map::new();
            obj.insert(
                "workload".into(),
                serde_json::Value::String("explore_reduced/compete3".into()),
            );
            obj.insert("speedup".into(), serde_json::Value::Float(100.0));
            obj.insert("execs_explored".into(), serde_json::Value::from(11u64));
            serde_json::Value::Array(vec![serde_json::Value::Object(obj)])
        };
        let mut ok = meas("explore_reduced/compete3", "unreduced", 50.0);
        ok.extras = vec![("execs_explored", 11), ("execs_unreduced", 73_608)];
        assert!(check(std::slice::from_ref(&ok), &doc).passed());
        // Exploring more than 110% of the committed count fails even
        // though the timing floor still passes.
        let mut crept = ok.clone();
        crept.extras = vec![("execs_explored", 14), ("execs_unreduced", 73_608)];
        assert!(!check(std::slice::from_ref(&crept), &doc).passed());
        // Losing the 5x floor fails regardless of the committed row.
        let mut shallow = ok.clone();
        shallow.extras = vec![("execs_explored", 11), ("execs_unreduced", 54)];
        assert!(!check(&[shallow], &doc).passed());
        // A row with no committed counterpart gates on the 5x floor
        // alone.
        let mut fresh = ok;
        fresh.workload = "explore_reduced/new".into();
        assert!(check(&[fresh], &doc).passed());
    }

    #[test]
    fn merge_preserves_foreign_rows_and_replaces_by_key() {
        let dir = std::env::temp_dir().join(format!("exsel_gate_{}", std::process::id()));
        let path = dir.to_string_lossy().to_string();
        let first = vec![meas("a x8", "threads", 10.0), meas("b", "fresh", 3.0)];
        merge_into_artifact(&path, &first).unwrap();
        // Re-merge only `a`, at a different trial count: replaces in
        // place, keeps `b`.
        let second = vec![meas("a x64", "threads", 12.0)];
        merge_into_artifact(&path, &second).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let serde_json::Value::Array(rows) = serde_json::from_str(&text).unwrap() else {
            panic!("artifact is not an array");
        };
        assert_eq!(rows.len(), 2);
        assert!(text.contains("a x64"));
        assert!(!text.contains("a x8"));
        assert!(text.contains("\"b\""));
    }
}
