//! A self-contained linear-programming solver.
//!
//! The template-based inference of the central-moment analysis reduces bound
//! derivation to linear programming (§3.4 of the paper).  The paper's artifact
//! used Gurobi; this crate provides the substitute: one sparse revised
//! simplex over `f64`.
//!
//! Solving is session-based: the [`LpBackend`] trait (see [`backend`] and
//! `DESIGN.md` for the contract) decouples problem construction from
//! solving, and [`LpBackend::open`] yields an [`LpSession`] that supports
//! repeated `minimize` calls, incremental row/column addition, and batch
//! solving of independent problems.  The shipped backend, [`SparseBackend`],
//! runs **one solver path**: a presolve pass that shrinks each system before
//! it is solved, a revised simplex over sparse columns with the Markowitz LU
//! factorization and Forrest–Tomlin updates ([`factor`]), **devex** pricing
//! ([`pricing`]), the Harris two-pass ratio test with a bounded
//! anti-degeneracy perturbation, Bland's rule demoted to a size-scaled last
//! resort ([`bland_fallback_threshold`]), and a **dual-simplex warm
//! re-solve** (devex leaving rows, bound-flipping ratio test) that repairs a
//! session after incremental rows with a handful of dual pivots instead of a
//! phase-1 restart.  Every solve reports its effort in [`SolveStats`].
//! The only setting is presolve on/off, plus the resource budget
//! ([`SolverTuning`]).
//!
//! Solves can be **budgeted** ([`SolveBudget`] on [`SolverTuning::budget`]):
//! a wall-clock deadline, an iteration cap, and a refactorization cap,
//! checked cooperatively per pivot batch and carried over across every
//! minimize/warm re-solve of a session.  Running out yields
//! [`LpStatus::BudgetExhausted`] — a statement about resources that is never
//! an infeasibility verdict (see the contract in [`backend`]).
//!
//! The problem format is deliberately small: named variables that are either
//! non-negative or free (free variables are split internally), linear
//! constraints `a·x {≤,≥,=} b`, and a linear objective to *minimize*.
//!
//! # Example
//!
//! ```
//! use cma_lp::{Cmp, LpProblem, LpStatus};
//!
//! // minimize  -x - 2y   s.t.  x + y <= 4,  y <= 3,  x, y >= 0
//! let mut lp = LpProblem::new();
//! let x = lp.add_var("x", false);
//! let y = lp.add_var("y", false);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
//! lp.set_objective(vec![(x, -1.0), (y, -2.0)]);
//! let sol = lp.solve();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - (-7.0)).abs() < 1e-7);
//! assert!((sol.value(x) - 1.0).abs() < 1e-7);
//! assert!((sol.value(y) - 3.0).abs() < 1e-7);
//! ```

pub mod backend;
#[doc(hidden)]
pub mod bench_support;
mod core;
pub mod factor;
mod presolve;
pub mod pricing;
pub mod simplex;
pub mod sparse;

pub use backend::{LpBackend, LpSession, SparseBackend};
pub use factor::{FactorKind, WarmStrategy};
pub use pricing::{
    bland_fallback_threshold, DualPricing, DualRatio, PricingRule, SolveBudget, SolverTuning,
    DEADLINE_CHECK_PERIOD,
};
pub use simplex::{Cmp, LpProblem, LpSolution, LpStatus, LpVarId, SolveStats};
pub use sparse::SparseMatrix;
