//! # doacross-trisolve — sparse triangular solvers (paper §3.2)
//!
//! The paper's application workload: solving unit lower-triangular systems
//! from incomplete factorizations, whose row-to-row dependencies are
//! "determined by the values assigned to the data structure column during
//! program execution" (Figure 7) and therefore invisible to a compiler.
//!
//! The production path is the engine:
//!
//! * [`cached::EngineSolver`] routes solves through a shared
//!   `doacross_engine::Engine`: per-structure execution plans (cost-model
//!   selected variant + captured preprocessing) held in a sharded
//!   concurrent LRU cache, so repeated solves — the Krylov-iteration
//!   workload — skip preprocessing entirely, and one solver instance
//!   serves concurrent solve threads through `&self`.
//! * [`precond::IluPreconditioner`] prepares the forward and backward
//!   solves of an ILU(0) factorization on an engine once and applies
//!   them per Krylov iteration.
//!
//! Underneath, the crate supplies the loops and the oracle:
//!
//! * [`fig7::TriSolveLoop`] — Figure 7 as a doacross loop. Because the
//!   output subscript is the identity (`y(i)` ← row `i`), the §2.3
//!   linear-subscript variant applies: no inspector, no `iter` array.
//! * [`upper::UpperSolveLoop`] — backward substitution over reversed rows.
//! * [`seq::solve_sequential`] — Figure 7 verbatim; the paper's `T_seq`.
//! * [`plan::SolvePlan`] — the doconsider (wavefront-sorted) claim order
//!   of Table 1's "Preprocessed Doacross Iterations Rearranged" column.
//!
//! Measurement code that needs one pinned strategy runs a core runtime
//! (`LinearDoacross`, `Doacross`, `BlockedDoacross`, `WavefrontDoacross`)
//! over a [`TriSolveLoop`] directly. Every strategy is bit-identical to
//! the sequential solve (same per-row reduction order), which the test
//! suites exploit.
//!
//! [`TriSolveLoop`]: fig7::TriSolveLoop

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
pub mod cached;
pub mod fig7;
pub mod plan;
pub mod precond;
pub mod seq;
pub mod upper;
pub mod verify;

pub use cached::EngineSolver;
pub use fig7::TriSolveLoop;
pub use plan::SolvePlan;
pub use precond::IluPreconditioner;
pub use upper::UpperSolveLoop;
