//! The benchmark's metric vocabulary and its JSON result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports each of them, untraced.
/// `(name, unit)`; bounds and directions live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sessions_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("steps_per_session", "steps"),
    ("sojourn_p50_steps", "steps"),
    ("sojourn_p999_steps", "steps"),
];

/// Per-layer metrics of the traced run. Every workload reports each of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shm.bank.reads", "count"),
    ("shm.bank.writes", "count"),
    ("shm.bank.snap_writes", "count"),
    ("shm.bank.ns_per_call", "ns"),
    ("unbounded.naming.ops_per_session", "ops"),
    ("storecollect.ops_per_session", "ops"),
    ("unbounded.deposit.ops_per_session", "ops"),
    ("unbounded.naming.acquire_p50_steps", "steps"),
    ("storecollect.store_p50_steps", "steps"),
    ("storecollect.collect_p50_steps", "steps"),
    ("unbounded.deposit.deposit_p50_steps", "steps"),
    ("sim.service.self_ns_per_op", "ns"),
    ("sim.service.ns_per_tick", "ns"),
    ("sim.service.ops_per_tick", "ops"),
    ("sim.service.drift.q1.ns_per_op", "ns"),
    ("sim.service.drift.q2.ns_per_op", "ns"),
    ("sim.service.drift.q3.ns_per_op", "ns"),
    ("sim.service.drift.q4.ns_per_op", "ns"),
    ("sim.service.drift.q1.steps_per_session", "steps"),
    ("sim.service.drift.q2.steps_per_session", "steps"),
    ("sim.service.drift.q3.steps_per_session", "steps"),
    ("sim.service.drift.q4.steps_per_session", "steps"),
    ("sim.service.admission.shed_share", "share"),
    ("sim.service.admission.retries", "count"),
    ("sim.service.admission.rejected", "count"),
    ("sim.service.admission.failed_share", "share"),
    ("sim.service.admission.queued_mean", "clients"),
    ("sim.service.admission.waiting_mean", "clients"),
    ("sim.service.fault.crashes", "count"),
    ("sim.service.fault.reentries", "count"),
    ("sim.service.telemetry.windows", "count"),
    ("sim.engine.self_ns_per_op", "ns"),
    ("sim.engine.trials_per_s", "1/s"),
    ("sim.policy.decisions", "count"),
    ("sim.policy.ns_per_decision", "ns"),
    ("sim.policy.pending_mean", "ops"),
    ("core.adaptive.advances", "count"),
    ("core.adaptive.peeks", "count"),
    ("core.adaptive.ns_per_advance", "ns"),
    ("core.compete.advances", "count"),
    ("core.compete.peeks", "count"),
    ("core.compete.ns_per_advance", "ns"),
    ("storecollect.first_store.advances", "count"),
    ("storecollect.first_store.peeks", "count"),
    ("storecollect.first_store.ns_per_advance", "ns"),
    ("sim.reduce.explored", "count"),
    ("sim.reduce.pruned", "count"),
    ("sim.reduce.useful_ratio", "share"),
    ("sim.reduce.self_ns_per_exec", "ns"),
    ("sim.reduce.executions_per_s", "1/s"),
    ("setup.world_s", "s"),
    ("setup.prime_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
    ("trace.bank_calls_minus_ops", "count"),
    ("trace.child_over_parent_max", "ratio"),
];

/// The workloads the benchmark runs.
pub const WORKLOADS: [&str; 4] = ["steady", "storm", "fleet", "adversary"];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (the end-to-end or per-layer set).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further figures printed for people, not in the result line.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Units of work attempted (arrivals, trials plus executions).
    pub attempted: u64,
    /// Failed output checks, each described.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a printed-only figure.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The human-readable lines and the JSON result line for the metric
    /// set `names`. A metric missing from the run is a failed check.
    pub fn render(&mut self, names: &[(&'static str, &'static str)]) -> (Vec<String>, String) {
        let mut lines = Vec::new();
        let mut json = Vec::new();
        for &(name, unit) in names {
            match self.metrics.get(name) {
                Some(&v) => {
                    lines.push(format!("{name:<44} {v:>18.6} {unit}"));
                    json.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        num(v)
                    ));
                }
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
        for (name, v, unit) in &self.notes {
            lines.push(format!("{name:<44} {v:>18.6} {unit}  (printed only)"));
        }
        for f in &self.failures {
            lines.push(format!("CHECK FAILED: {f}"));
        }
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            json.join(", ")
        );
        (lines, result)
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn the_declared_benchmark_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(decl.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            decl.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
            "BENCHMARK.json declares metrics the benchmark does not emit"
        );
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut out = Outcome::default();
        out.set("setup_s", 1.5);
        let (_, line) = out.render(&END_TO_END);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }
}
