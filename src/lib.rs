//! Umbrella crate for the central-moment-analysis reproduction.
//!
//! The primary entry point is the fluent [`Analysis`] pipeline, which wires
//! parsing, template-based moment inference over a pluggable LP backend,
//! central-moment derivation, tail bounds, and soundness checking into one
//! call returning a structured [`AnalysisReport`]:
//!
//! ```
//! use central_moment_analysis::Analysis;
//!
//! let report = Analysis::parse(
//!     "func main() begin if prob(0.5) then tick(2) else tick(4) fi end",
//! )
//! .unwrap()
//! .degree(2)
//! .run()
//! .unwrap();
//! assert!(report.mean().hi() >= 3.0 - 1e-6);
//! assert!(report.variance_upper().unwrap() >= 1.0 - 1e-6);
//! ```
//!
//! The constituent crates remain available under short module names for
//! callers that need lower-level control:
//!
//! * [`semiring`] — moment semirings, intervals, polynomials;
//! * [`appl`] — the Appl probabilistic language (AST, parser, builder DSL);
//! * [`check`] — the pre-analysis static checker (diagnostics CMA001–CMA007
//!   and the range facts that prune the derivation);
//! * [`sim`] — Monte-Carlo operational semantics;
//! * [`lp`] — the LP solver abstraction ([`LpBackend`]) and its sparse
//!   revised simplex ([`SparseBackend`]);
//! * [`logic`] — logical contexts and certificates;
//! * [`inference`] — the central-moment analysis itself;
//! * [`suite`] — the benchmark programs of the paper's evaluation.
//!
//! See `README.md` for a tour and `DESIGN.md` for the architecture, the
//! [`LpBackend`] contract, and the [`CmaError`] hierarchy.

pub use cma_appl as appl;
pub use cma_check as check;
pub use cma_inference as inference;
pub use cma_logic as logic;
pub use cma_lp as lp;
pub use cma_semiring as semiring;
pub use cma_sim as sim;
pub use cma_suite as suite;

mod error;
mod pipeline;
mod report;

// The cold re-solving reference backend shared with the `cma-lp` tests.
#[cfg(test)]
#[path = "../crates/lp/tests/common/cold.rs"]
mod cold;

pub use error::{CmaError, ResultExt};
pub use pipeline::Analysis;
pub use report::{json, AnalysisReport, CheckStats, LpStats, PhaseTimings};

// The vocabulary of the pipeline, re-exported flat so `use
// central_moment_analysis::{Analysis, SolveMode, Var}` just works.
pub use cma_appl::{parse_program, Program, Var};
pub use cma_check::{CheckConfig, CheckReport};
pub use cma_inference::{
    AnalysisOptions, CentralMoments, DegradationStats, DegradationStep, EscalationStats,
    GroupLpStats, PlanStats, PruningStats, SolveMode, SoundnessReport, TailBound,
};
pub use cma_lp::{
    DualPricing, DualRatio, FactorKind, LpBackend, LpSession, PricingRule, SolveStats,
    SolverTuning, SparseBackend, WarmStrategy,
};
pub use cma_semiring::Interval;
