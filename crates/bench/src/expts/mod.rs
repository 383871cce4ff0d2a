//! The experiment bodies behind the scenario registry.
//!
//! Each module reproduces one table of README's scenario registry (T1–T11,
//! S1, the ablations). It sweeps the table's parameters, runs the
//! algorithms, and prints both an aligned text table and JSON lines
//! (`--json`). T1–T6 run on the shared pooled trial loop,
//! [`crate::runner::sweep_pool`], and T7 and T9's crash storms run pooled
//! machines through harnesses of their own. ARCHITECTURE.md,
//! "Substitutions", lists where the code stands in for a construction of
//! the paper.
//!
//! The canonical entry point is the `expt` multiplexer binary —
//! `expt -- list`, `expt -- run <name>` — which resolves these through
//! [`crate::scenario::registry`].

pub mod ablation;
pub mod adaptive;
pub mod almost_adaptive;
pub mod basic;
pub mod compare;
pub mod engine;
pub mod lowerbound;
pub mod majority;
pub mod mega;
pub mod polylog;
pub mod reduced;
pub mod repository;
pub mod scaling;
pub mod service;
pub mod storecollect;
