//! Repository and Unbounded-Naming — §5 of *Asynchronous Exclusive
//! Selection* (Chlebus & Kowalski).
//!
//! A **repository** lets processes *deposit* values in an unbounded array
//! of dedicated registers `R_1, R_2, …` such that a deposited value is
//! never overwritten (persistence) and deposits keep happening as long as
//! some non-faulty process wants to deposit (non-blocking) or every
//! non-faulty process's deposit completes (wait-free). No algorithm can
//! guarantee that a *specific* register is eventually used (it would solve
//! Consensus), so the quality measure is how many dedicated registers are
//! **never** used:
//!
//! * [`SelfishDeposit`] (Theorem 8) — non-blocking, wastes at most `n−1`
//!   registers, which is optimal (Corollary 2);
//! * [`AltruisticDeposit`] (Theorem 9) — wait-free, wastes at most
//!   `n(n−1)` registers; processes acquire names *for each other* through
//!   an `n × n` `Help` matrix.
//!
//! **Unbounded-Naming** (Theorem 10) is the abstract form: processes
//! repeatedly claim nonnegative integers exclusively, with no shared
//! record in the integers themselves; availability is tracked in per-
//! process published lists `B_p`. [`UnboundedNaming`] is the non-blocking
//! solution leaving at most `n−1` integers unassigned; routing its names
//! through the `Help` matrix (as [`AltruisticDeposit`] does) gives the
//! wait-free `n(n−1)` solution.
//!
//! "Infinitely many registers" are modeled by a pre-sized
//! [`DepositArena`]; experiments size it beyond the deposits they perform
//! (see ARCHITECTURE.md, "Substitutions").
//!
//! Every operation also exists in resettable step-machine form for the
//! `exsel-sim` engine and its machine pools: [`NamingMachine`] (the
//! Theorem 10 acquire loop) and [`DepositOp`] (the Theorem 9 deposit
//! with its two §5 activities — deposit-or-help row service and consume
//! column scan — as explicit, strictly alternating machine phases, plus
//! a serve-only mode for the paper's fairness assumption). The blocking
//! APIs drive the same transition functions, so both forms perform
//! identical operation sequences.
//!
//! # Example
//!
//! ```
//! use exsel_shm::{Ctx, Pid, RegAlloc, ThreadedShm};
//! use exsel_unbounded::SelfishDeposit;
//!
//! let mut alloc = RegAlloc::new();
//! let repo = SelfishDeposit::new(&mut alloc, 2, 64);
//! let mem = ThreadedShm::new(alloc.total(), 2);
//!
//! let ctx = Ctx::new(&mem, Pid(0));
//! let mut st = repo.depositor_state();
//! let r1 = repo.deposit(ctx, &mut st, 111)?;
//! let r2 = repo.deposit(ctx, &mut st, 222)?;
//! assert_ne!(r1, r2); // each value persisted in its own register
//! # Ok::<(), exsel_shm::Crash>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod altruistic;
mod arena;
mod naming;
mod selfish;

pub use altruistic::{AltruisticDeposit, AltruisticState, DepositOp};
pub use arena::DepositArena;
pub use naming::{AcquireOp, NamerState, NamingMachine, UnboundedNaming};
pub use selfish::{DepositorState, SelfishDeposit};
