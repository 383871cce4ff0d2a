//! # Asynchronous Exclusive Selection
//!
//! A complete Rust implementation of *Asynchronous Exclusive Selection*
//! (Bogdan S. Chlebus & Dariusz R. Kowalski, PODC 2008 / arXiv:1512.09314):
//! wait-free **renaming**, **store&collect** and **unbounded naming** for
//! asynchronous crash-prone processes communicating only through shared
//! read/write registers — plus the substrate to run, test and measure them:
//! a step-counted register model, a deterministic adversarial scheduler,
//! lossless-expander construction, and the paper's lower-bound adversary.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`shm`] | `exsel-shm` | registers, step counting, crashes, atomic snapshots, step machines |
//! | [`sim`] | `exsel-sim` | deterministic lock-step execution: thread-backed scheduler **and** the single-threaded step-machine engine |
//! | [`expander`] | `exsel-expander` | bipartite lossless expanders (Lemmas 2–3) |
//! | [`renaming`] | `exsel-core` | Majority, Basic-, PolyLog-, Efficient-, Almost-Adaptive and Adaptive renaming (Lemmas 4–5, Theorems 1–4) + baselines |
//! | [`storecollect`] | `exsel-storecollect` | Store&Collect, four knowledge settings (Theorem 5) |
//! | [`unbounded`] | `exsel-unbounded` | Repository & Unbounded-Naming (Theorems 8–10) |
//! | [`lowerbound`] | `exsel-lowerbound` | pigeonhole adversary (Theorems 6–7) |
//!
//! The most-used types are re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use exclusive_selection::{AdaptiveRename, Ctx, Pid, RegAlloc, Rename, RenameConfig, ThreadedShm};
//!
//! // Fully adaptive renaming: neither the contention nor the original
//! // name range needs to be known.
//! let mut alloc = RegAlloc::new();
//! let algo = AdaptiveRename::new(&mut alloc, 8, &RenameConfig::default());
//! let mem = ThreadedShm::new(alloc.total(), 8);
//!
//! let name = algo
//!     .rename(Ctx::new(&mem, Pid(0)), 123_456_789)
//!     .unwrap()
//!     .expect_named();
//! assert!(name >= 1 && name <= 7); // 8k − lg k − 1 with k = 1
//! ```
//!
//! ## Execution backends
//!
//! Simulated executions run on either of two backends with identical
//! semantics (same policy ⇒ same trace, steps and results):
//!
//! * [`SimBuilder`] — one OS thread per simulated process, blocking
//!   closures. Use for closure-style bodies and code without a
//!   step-machine form.
//! * [`StepEngine`] — zero threads: processes are [`StepMachine`]s
//!   (obtained from [`StepRename::begin_rename`] or built by hand) and
//!   the whole execution is a single-threaded loop. Orders of magnitude
//!   faster; use for exhaustive exploration, adversary searches and
//!   large crash storms. See `BENCH_engine.json` for measurements.
//!
//! See `examples/` for runnable scenarios and README's scenario registry
//! for the paper-claim reproduction tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use exsel_core as renaming;
pub use exsel_expander as expander;
pub use exsel_lowerbound as lowerbound;
pub use exsel_shm as shm;
pub use exsel_sim as sim;
pub use exsel_storecollect as storecollect;
pub use exsel_unbounded as unbounded;

pub use exsel_core::{
    AdaptiveRename, AlmostAdaptive, BasicRename, EfficientRename, Majority, MoirAnderson, Outcome,
    PolyLogRename, Rename, RenameConfig, SnapshotRename, StepRename,
};
pub use exsel_shm::{
    drive, Crash, Ctx, Memory, Pid, Poll, RegAlloc, RegId, ShmOp, SnapArena, SnapArenaStats,
    Snapshot, Step, StepMachine, ThreadedShm, Word,
};
pub use exsel_sim::{SimBuilder, StepEngine};
pub use exsel_storecollect::{StoreCollect, StoreHandle};
pub use exsel_unbounded::{AltruisticDeposit, SelfishDeposit, UnboundedNaming};
