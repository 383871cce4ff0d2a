//! Experiment harness for the EXPERIMENTS.md tables (T1–T11) and shared
//! utilities for the Criterion benches.
//!
//! Every experiment is a named entry in the [`scenario`] registry —
//! either a reproduction table ([`expts`]) or a declarative
//! `algorithm × adversary × size-grid` specification run by the shared
//! grid driver over one reusable `StepEngine`. The single `expt` binary
//! multiplexes them all:
//!
//! ```text
//! cargo run --release -p exsel-bench --bin expt -- list
//! cargo run --release -p exsel-bench --bin expt -- run <name> [--json]
//! ```
//!
//! Tables print aligned text, or JSON lines with `--json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_probe;
pub mod expts;
pub mod gate;
pub mod runner;
pub mod scenario;
pub mod table;

pub use runner::{
    run_sim, run_sim_engine, run_sim_engine_with, run_threaded, sweep, sweep_pool,
    sweep_pool_sharded, sweep_random, RenamingRun, TrialStats,
};
pub use table::Table;
