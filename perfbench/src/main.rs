//! The repository benchmark: one workload per process, single-threaded.
//!
//! ```text
//! perfbench --workload <steady|storm|fleet|adversary> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced;
//! with `--trace 1` it measures the per-layer metrics through the
//! pass-through wrappers of [`trace`] and writes the sampled spans to
//! `.bench_trace/<workload>-<seed>.jsonl`. Either way every output is
//! checked. The last line of standard output is one JSON object; the
//! exit code is 1 when any check failed and 2 on a usage error. See
//! `perfbench/README.md`.

mod adversary;
mod report;
mod service;
mod stats;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// How far estimated child time may exceed its measured parent before
/// the attribution is called wrong: each child's time is a sampled
/// estimate, and where a parent does little work of its own (the engine
/// grant loop) its children's estimates sum to nearly all of it.
const CHILD_TOLERANCE: f64 = 1.05;
/// Reps of every traced run, and the fewest an untraced run makes.
const MIN_REPS: usize = 2;

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}: expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Sets every per-layer metric whose name starts with one of `prefixes`
/// to 0 unless the run measured it: those layers do not run in the
/// workload.
fn zero_layers(out: &mut Outcome, prefixes: &[&str]) {
    for (name, _) in PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            out.metrics.entry(name).or_insert(0.0);
        }
    }
}

/// The engine-side layers, idle in the service workloads.
fn zero_engine_layers(out: &mut Outcome) {
    zero_layers(
        out,
        &[
            "sim.engine.",
            "sim.policy.",
            "core.",
            "storecollect.first_store.",
            "sim.reduce.",
        ],
    );
}

/// The service-side layers, idle in the adversary workload.
fn zero_service_layers(out: &mut Outcome) {
    zero_layers(
        out,
        &[
            "unbounded.",
            "storecollect.ops_per_session",
            "storecollect.store_p50_steps",
            "storecollect.collect_p50_steps",
            "sim.service.",
        ],
    );
}

/// Runs one workload and returns its outcome.
fn run(args: &Args) -> Outcome {
    let shape = match args.workload.as_str() {
        "steady" => Some(service::steady()),
        "storm" => Some(service::storm()),
        "fleet" => Some(service::fleet()),
        _ => None,
    };
    match (shape, args.trace) {
        (Some(shape), false) => service::run(&shape, args.seed, args.seconds),
        (Some(shape), true) => service::run_traced(&shape, args.seed),
        (None, false) => adversary::run(&adversary::SIZE, args.seed, args.seconds),
        (None, true) => adversary::run_traced(&adversary::SIZE, args.seed),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = run(&args);
    let names: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    if args.trace {
        let (spans, dropped, interrupted) = trace::span_counts();
        out.note("trace.spans", spans as f64, "count");
        out.note("trace.spans_dropped", dropped as f64, "count");
        out.note("trace.interrupted_samples", interrupted as f64, "count");
        let path = std::path::PathBuf::from(format!(
            ".bench_trace/{}-{}.jsonl",
            args.workload, args.seed
        ));
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}",
            args.workload, args.seed
        );
        if let Err(e) = trace::write_spans(&path, &header) {
            out.failures
                .push(format!("could not write {}: {e}", path.display()));
        }
    }
    let (lines, result) = out.render(names);
    println!(
        "# perfbench {} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in lines {
        println!("# {line}");
    }
    println!("{result}");
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv("--workload fleet --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fleet".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload steady --trace 2")).is_err());
        assert!(parse(&argv("--seed 1")).is_err());
    }
}
