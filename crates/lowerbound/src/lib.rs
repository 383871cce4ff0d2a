//! Executable lower bounds — Theorems 6 and 7 of *Asynchronous Exclusive
//! Selection*.
//!
//! Theorem 6: any wait-free solution of Renaming with `k` contenders,
//! original names in `[N]`, new names in `[M]` and `r` registers requires
//! `1 + min{k−2, log_{2r}(N/2M)}` local steps in the worst case. The proof
//! constructs an execution by pigeonhole: at each stage, of the processes
//! still in the *pool*, at least half want the same kind of operation
//! (read or write), and of those at least a `1/r` fraction target the same
//! register — so a pool of initial size `N` shrinks by a factor of at most
//! `2r` per stage while its members stay pairwise indistinguishable. While
//! the pool exceeds `2M`, two of its members would have to decide the same
//! name, so no member can decide.
//!
//! [`PigeonholeAdversary`] replays that construction against *real*
//! algorithms as an `exsel-sim` scheduling policy: it inspects the pending
//! operations (exactly the adversary's knowledge in the proof), advances
//! the chosen group one operation per stage, and — when the staging bound
//! is reached — crashes everyone outside the surviving pool and residue
//! and lets the rest run to completion. [`theorem6_bound`] evaluates the
//! closed form for comparison. Experiment T7 tabulates forced stages and
//! observed steps against the formula, running on the pooled harness
//! ([`run_machines_against_pooled`] / [`run_store_against_pooled`]):
//! one caller-held `MachinePool` is reset in place per adversarial
//! trial, so sweeps over thousands of conceptual processes neither box
//! machines nor spawn threads.
//!
//! ```
//! use exsel_lowerbound::theorem6_bound;
//! // k = 8 contenders, N = 4096 original names, M = 10 new names,
//! // r = 20 registers: the log term binds.
//! assert_eq!(theorem6_bound(8, 4096, 10, 20), 1 + 1);
//! // With N unbounded relative to M and r, the k − 2 term binds.
//! assert_eq!(theorem6_bound(4, 1 << 60, 3, 8), 1 + 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod bound;
mod harness;

pub use adversary::{AdversaryStats, PigeonholeAdversary};
pub use bound::{theorem6_bound, theorem7_bound};
pub use harness::{
    exhaust_exclusiveness_pooled, run_against, run_machines_against_pooled, run_store_against,
    run_store_against_pooled, LowerBoundReport,
};
