//! Deterministic asynchronous execution of shared-memory algorithms.
//!
//! The paper's adversary controls the interleaving of processes' local steps
//! and may crash any of them at any point. This crate realizes that
//! adversary executably, with **two interchangeable backends** sharing the
//! [`Policy`] trait:
//!
//! * [`SimBuilder`] — the thread-backed scheduler: each simulated process
//!   runs a blocking closure on its own OS thread, and every shared-memory
//!   operation parks until a [`Policy`] grants it; a run returns a
//!   [`SimOutcome`]. Use it for closure-style process bodies and for code
//!   without a step-machine form.
//! * [`StepEngine`] — the single-threaded step-machine engine: processes
//!   are `exsel_shm::StepMachine`s, so their pending operations are visible
//!   without parking and the whole execution is a loop over a vector — no
//!   thread spawns, no locks, no stacks. Same policy ⇒ same trace, steps
//!   and results as the thread-backed runner (the blocking algorithm APIs
//!   are `drive` adapters over the same machines), at orders-of-magnitude
//!   higher execution rates. Use it for exhaustive exploration,
//!   adversary searches and large crash storms. Every trial drives a
//!   [`MachinePool`] ([`StepEngine::run_pool`]), typically of concrete
//!   [`MachineSet`] machines: built once, reset in place, enum-dispatched
//!   — zero steady-state heap allocations.
//!
//! Both run in **lock-step**: the policy is consulted only when every live
//! process has an operation pending, so — because the policy then sees the
//! complete set of enabled operations — executions are fully deterministic
//! given the policy (and any seed it embeds).
//!
//! Lock-step does not restrict the reachable interleavings: any sequence of
//! operations can be produced by granting accordingly, including fully
//! sequential ("solo") executions and starvation of arbitrary subsets,
//! which is how wait-freedom is exercised. Crashes are [`Action::Crash`]
//! decisions; the victim's pending operation fails with
//! [`exsel_shm::Crash`] and the algorithm unwinds.
//!
//! The pending set exposes `(pid, read/write, register)` *before* the grant
//! — exactly the information the pigeonhole adversary of Theorem 6 needs
//! (see the `exsel-lowerbound` crate).
//!
//! Exhaustive exploration is the [`reduce`] module's replay walk over a
//! pooled engine: [`explore_pool_sleep`] with [`ReduceConfig::off`]
//! enumerates every interleaving, and the other [`ReduceConfig`]s cut
//! the walk down with sleep sets, visited states and pid symmetry.
//!
//! # Example
//!
//! ```
//! use exsel_shm::{RegAlloc, Word};
//! use exsel_sim::{policy::RoundRobin, SimBuilder};
//!
//! let mut alloc = RegAlloc::new();
//! let bank = alloc.reserve(1);
//! let outcome = SimBuilder::new(alloc.total(), Box::new(RoundRobin::new()))
//!     .run(3, |ctx| {
//!         ctx.write(bank.get(0), ctx.pid().0 as u64)?;
//!         ctx.read(bank.get(0))
//!     });
//! // Round-robin is deterministic: the interleaving is W0 W1 W2 R0 R1 R2,
//! // so every process reads process 2's write.
//! for r in &outcome.results {
//!     assert_eq!(*r.as_ref().unwrap(), Word::Int(2));
//! }
//! assert_eq!(outcome.steps, vec![2, 2, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod machines;
pub mod policy;
mod pool;
pub mod reduce;
mod runner;
mod sched;
pub mod service;
pub mod trace_view;

pub use engine::{Metrics, StepEngine};
#[cfg(feature = "check")]
pub use exsel_analysis::{
    collect_specs, non_interference, AccessChecker, StaticError, Violation, ViolationKind,
};
pub use machines::{AlgoSet, MachineSet, SessionOp, SessionPhase, SetOutput};
pub use policy::{Action, PendingOp, Policy};
pub use pool::MachinePool;
#[cfg(feature = "check")]
pub use reduce::shrink_violation;
pub use reduce::{
    explore_pool_reduced, explore_pool_sleep, independent, replay_pool, ExploreReport, ReduceConfig,
};
pub use runner::{SimBuilder, SimOutcome};
pub use sched::SimMemory;
pub use service::mega::{
    MegaServiceConfig, MegaServiceHarness, MegaServiceReport, MegaServiceWorld,
};
pub use service::{
    Admission, Arrivals, ServiceConfig, ServiceHarness, ServiceReport, ServiceWorld, StepHistogram,
    Totals, WindowRow,
};
