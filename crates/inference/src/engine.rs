//! The analysis driver: call-graph decomposition, specification templates,
//! objectives, LP solving, and bound extraction.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cma_appl::{Program, RangeFacts};
use cma_logic::Context;
use cma_lp::{
    DualPricing, DualRatio, FactorKind, LpBackend, LpSession, LpSolution, LpStatus, PricingRule,
    SolveBudget, SolveStats, SolverTuning, WarmStrategy, DEADLINE_CHECK_PERIOD,
};
use cma_semiring::poly::{Polynomial, Var};
use cma_semiring::Interval;

use crate::builder::ConstraintBuilder;
use crate::central::CentralMoments;
use crate::derive::{transform, DeriveCtx, DeriveError};
use crate::plan::{DerivationPlan, PlanMode, PlanStats};
use crate::spec::{ResolvedSpec, SpecEntry, SpecTable};
use crate::template::SymMoment;
use crate::weaken::require_contains;

/// How the per-function specifications are solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// One linear program for the whole program (most precise; the default).
    #[default]
    Global,
    /// One linear program per call-graph SCC, callees first, with resolved
    /// specifications frozen before moving on.  Scales linearly in the number
    /// of functions (Fig. 10) but requires cross-component calls to be in
    /// tail position (see `DESIGN.md`).
    Compositional,
}

/// User-facing options of the analysis.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Target moment degree `m` (2 for variance, 4 for the fourth central
    /// moment, …).
    pub degree: usize,
    /// Base polynomial degree `d`: the `k`-th moment component uses templates
    /// of degree `k·d`.
    pub poly_degree: u32,
    /// Solving strategy.
    pub mode: SolveMode,
    /// Concrete valuation at which imprecision is minimized (§3.4);
    /// unmentioned variables default to 1.
    pub valuation: Vec<(Var, f64)>,
    /// Restrict templates to these variables (default: all program variables).
    pub template_vars: Option<Vec<Var>>,
    /// Worker threads for solving independent compositional SCC groups
    /// concurrently (1 = sequential; only [`SolveMode::Compositional`] has
    /// independent groups to parallelize).
    pub threads: usize,
    /// The LP pricing rule (always devex; kept only so the benchmark crate
    /// can print it).
    pub pricing: PricingRule,
    /// Whether the LP presolve pass runs at session open (on by default).
    pub presolve: bool,
    /// The LP basis factorization (always LU; kept only so the benchmark
    /// crate can set and print it).
    pub factor: FactorKind,
    /// The LP warm re-solve strategy (always dual simplex; kept only so the
    /// benchmark crate can print it).
    pub warm_resolve: WarmStrategy,
    /// Upper limit for automatic base-polynomial-degree escalation: when the
    /// generated LP is *infeasible* at `poly_degree` (templates too weak to
    /// express a bound), the analysis retries `d → d+1` up to this limit,
    /// re-instantiating the recorded derivation plan instead of re-walking
    /// the program cold.  `None` (the default) disables retries.
    pub max_poly_degree: Option<u32>,
    /// Facts exported by the static checker (`cma-check`): statically
    /// refuted branches are derived one-sided (no join template, no
    /// containment rows), never-entered loops collapse to their
    /// continuation, and templates do not range over variables the checker
    /// proved dead.  The facts must come from a checker run over *this*
    /// program under the same preconditions; `None` (the default) disables
    /// pruning.
    pub range_facts: Option<Arc<RangeFacts>>,
    /// Wall-clock budget for the **whole analysis**: every LP solve — across
    /// compositional groups, poly-degree retries, and degradation rungs —
    /// draws down the one deadline derived from this duration at analysis
    /// start.  Exhaustion surfaces as
    /// [`LpStatus::BudgetExhausted`] inside [`AnalysisError::LpFailed`],
    /// never as infeasibility, so it cannot trigger a poly-degree retry;
    /// [`analyze_session_resilient`] instead trades precision for an answer.
    /// `None` (the default) leaves solves unbudgeted.
    pub timeout: Option<Duration>,
    /// Wall-clock budget for **each LP group solve**, measured from the
    /// moment the group's solver session opens and capped by whatever
    /// remains of [`timeout`](Self::timeout).  `None` (the default) gives
    /// groups no deadline of their own.
    pub group_timeout: Option<Duration>,
    /// The dual re-solve's leaving-row pricing (always devex; kept only so
    /// the benchmark crate can print it).
    pub dual_pricing: DualPricing,
    /// The dual ratio test (always bound-flipping; kept only so the
    /// benchmark crate can print it).
    pub dual_ratio: DualRatio,
}

impl AnalysisOptions {
    /// Options for analyzing moments up to degree `m` with linear base
    /// templates.
    pub fn degree(m: usize) -> Self {
        AnalysisOptions {
            degree: m,
            poly_degree: 1,
            mode: SolveMode::Global,
            valuation: Vec::new(),
            template_vars: None,
            threads: 1,
            pricing: PricingRule::default(),
            presolve: true,
            factor: FactorKind::default(),
            warm_resolve: WarmStrategy::default(),
            max_poly_degree: None,
            range_facts: None,
            timeout: None,
            group_timeout: None,
            dual_pricing: DualPricing::default(),
            dual_ratio: DualRatio::default(),
        }
    }

    /// Sets the objective valuation.
    pub fn with_valuation(mut self, valuation: Vec<(Var, f64)>) -> Self {
        self.valuation = valuation;
        self
    }

    /// Sets the solving mode.
    pub fn with_mode(mut self, mode: SolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the base polynomial degree.
    pub fn with_poly_degree(mut self, d: u32) -> Self {
        self.poly_degree = d;
        self
    }

    /// Restricts the template variables.
    pub fn with_template_vars(mut self, vars: Vec<Var>) -> Self {
        self.template_vars = Some(vars);
        self
    }

    /// Sets the number of worker threads for independent group solves.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the LP presolve pass.
    pub fn with_presolve(mut self, presolve: bool) -> Self {
        self.presolve = presolve;
        self
    }

    /// Enables automatic poly-degree escalation on infeasibility, retrying
    /// `d → d+1` up to `max` while reusing the recorded derivation plan.
    pub fn with_max_poly_degree(mut self, max: u32) -> Self {
        self.max_poly_degree = Some(max);
        self
    }

    /// Attaches checker-exported range facts; the derivation then skips
    /// refuted branches and never-entered loops and drops dead template
    /// variables (see [`AnalysisResult::pruning`]).
    pub fn with_range_facts(mut self, facts: Arc<RangeFacts>) -> Self {
        self.range_facts = Some(facts);
        self
    }

    /// Bounds the whole analysis by a wall-clock deadline (see
    /// [`timeout`](Self::timeout)).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Bounds each LP group solve by its own wall-clock deadline (see
    /// [`group_timeout`](Self::group_timeout)).
    pub fn with_group_timeout(mut self, timeout: Duration) -> Self {
        self.group_timeout = Some(timeout);
        self
    }

    /// The solver tuning these options imply (unbudgeted; the engine derives
    /// deadline-carrying tunings from this plus the timeout options).
    pub fn solver_tuning(&self) -> SolverTuning {
        SolverTuning {
            presolve: self.presolve,
            budget: SolveBudget::UNLIMITED,
            deadline_check_period: DEADLINE_CHECK_PERIOD,
        }
    }

    /// [`solver_tuning`](Self::solver_tuning) carrying the budget of one
    /// group solve: the earlier of the whole-analysis deadline (if any) and
    /// a fresh per-group deadline from
    /// [`group_timeout`](Self::group_timeout).
    pub(crate) fn group_tuning(&self, overall_deadline: Option<Instant>) -> SolverTuning {
        let mut tuning = self.solver_tuning();
        let group_deadline = self.group_timeout.map(|t| Instant::now() + t);
        tuning.budget.deadline = match (overall_deadline, group_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        tuning
    }

    fn valuation_fn(&self) -> impl Fn(&Var) -> f64 + '_ {
        move |v: &Var| {
            self.valuation
                .iter()
                .find(|(var, _)| var == v)
                .map(|(_, value)| *value)
                .unwrap_or(1.0)
        }
    }
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions::degree(2)
    }
}

/// Failures of the analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The generated LP has no solution: the templates (at the given degree)
    /// cannot express a bound, or a weakening certificate does not exist.
    LpFailed {
        /// Solver status (infeasible, unbounded, budget exhausted).
        status: LpStatus,
        /// Functions whose constraints were being solved.
        group: Vec<String>,
        /// Target moment degree `m` of the failed system.
        degree: usize,
        /// Base polynomial degree `d` of the failed templates (an
        /// *infeasible* status at this degree usually means the templates
        /// are too weak — retrying at `d+1` via
        /// [`AnalysisOptions::max_poly_degree`] often succeeds).
        poly_degree: u32,
    },
    /// Constraint generation failed.
    Derivation(DeriveError),
    /// [`AnalysisSession::escalate_degree`] called with a target that does
    /// not exceed the session's current degree.
    InvalidEscalation {
        /// The session's current moment degree.
        from: usize,
        /// The requested target degree.
        to: usize,
    },
    /// [`AnalysisSession::escalate_degree`] called after an extension (the
    /// soundness instrumentation) was already layered onto the session: the
    /// extension's rows and objective terms would skew the escalated
    /// optimum.  Escalate first, then extend.
    EscalationAfterExtension,
    /// A previous failed escalation or extension left rows without an
    /// optimum in the live solver session (appended rows cannot be
    /// retracted); no further in-session operation is possible — start a
    /// fresh [`analyze_session`].
    SessionPoisoned,
}

impl AnalysisError {
    /// Whether the root cause is an *infeasible* LP — the signal that the
    /// templates at the current poly degree cannot express a bound and a
    /// `d → d+1` retry may help.  Returns the failing `(degree, poly_degree)`.
    pub fn infeasible_at(&self) -> Option<(usize, u32)> {
        match self {
            AnalysisError::LpFailed {
                status: LpStatus::Infeasible,
                degree,
                poly_degree,
                ..
            } => Some((*degree, *poly_degree)),
            _ => None,
        }
    }

    /// Whether the root cause is an exhausted [`SolveBudget`] — a statement
    /// about resources, never about feasibility: retrying with more budget
    /// (or degrading via [`analyze_session_resilient`]) may succeed, while
    /// escalating the poly degree will not.
    pub fn budget_exhausted(&self) -> bool {
        matches!(
            self,
            AnalysisError::LpFailed {
                status: LpStatus::BudgetExhausted,
                ..
            }
        )
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::LpFailed {
                status,
                group,
                degree,
                poly_degree,
            } => {
                write!(
                    f,
                    "linear program {status} while solving {group:?} \
                     (moment degree {degree}, poly degree {poly_degree})"
                )
            }
            AnalysisError::Derivation(e) => write!(f, "derivation failed: {e}"),
            AnalysisError::InvalidEscalation { from, to } => write!(
                f,
                "cannot escalate the session from degree {from} to {to} \
                 (the target must be strictly larger)"
            ),
            AnalysisError::EscalationAfterExtension => write!(
                f,
                "cannot escalate a session that already carries an extension \
                 (run escalate_degree before the soundness phase)"
            ),
            AnalysisError::SessionPoisoned => write!(
                f,
                "the session's live LP was left without an optimum by a \
                 failed escalation or extension; start a fresh analysis"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<DeriveError> for AnalysisError {
    fn from(e: DeriveError) -> Self {
        AnalysisError::Derivation(e)
    }
}

/// Symbolic interval bound on one raw moment of the accumulated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentBound {
    /// Lower-bound polynomial over the program variables (initial state).
    pub lower: Polynomial,
    /// Upper-bound polynomial over the program variables (initial state).
    pub upper: Polynomial,
}

impl MomentBound {
    /// Evaluates the bound at an initial valuation (unmentioned variables
    /// default to 0, matching the all-zero initial state of the semantics).
    pub fn at(&self, valuation: &[(Var, f64)]) -> Interval {
        let val = |v: &Var| {
            valuation
                .iter()
                .find(|(var, _)| var == v)
                .map(|(_, value)| *value)
                .unwrap_or(0.0)
        };
        Interval::hull(self.lower.eval(&val), self.upper.eval(&val))
    }
}

/// Per-group size and solver-effort statistics of one solved linear program.
///
/// Equality compares the solver *path* (sizes, pivot and eta counters), not
/// the `*_ns` wall-clock timers — two runs over the same system are equal
/// whenever they pivoted identically, however long the clock said it took.
#[derive(Debug, Clone)]
pub struct GroupLpStats {
    /// Display name of the group (`"global"`, `"main"`, or the functions of
    /// a compositional SCC joined with `+`).
    pub name: String,
    /// The functions whose specifications the group solved (empty for the
    /// final `main`-only group).
    pub functions: Vec<String>,
    /// LP variables of the group's system.
    pub variables: usize,
    /// LP constraint rows of the group's system.
    pub constraints: usize,
    /// Simplex iterations of the group's solve (degeneracy shows up here).
    pub iterations: usize,
    /// Basis refactorizations of the group's solve.
    pub refactorizations: usize,
    /// Constraint rows removed by LP presolve before the solve.
    pub presolve_rows: usize,
    /// LP columns removed by presolve (fixed or unreferenced).
    pub presolve_cols: usize,
    /// Forrest–Tomlin updates applied to the LU factorization.
    pub etas: usize,
    /// Dual-simplex pivots spent on warm incremental-row re-solves.
    pub dual_pivots: usize,
    /// Nonbasic bound flips (long-step dual ratio test, upper-bounded
    /// columns crossing to their opposite bound without a basis change).
    pub bound_flips: usize,
    /// Forrest–Tomlin eta-file compactions performed by the LU updates.
    pub eta_compactions: usize,
    /// Peak eta-file length between refactorizations.
    pub eta_len: usize,
    /// Nanoseconds spent in forward solves (`ftran`).
    pub ftran_ns: u64,
    /// Nanoseconds spent in backward solves (`btran`).
    pub btran_ns: u64,
    /// Nanoseconds spent pricing entering columns / leaving rows.
    pub pricing_ns: u64,
    /// Nanoseconds spent in primal/dual ratio tests.
    pub ratio_ns: u64,
    /// Forward solves completed on the hyper-sparse kernel path.
    pub hyper_sparse_ftrans: u64,
    /// Backward solves completed on the hyper-sparse kernel path.
    pub hyper_sparse_btrans: u64,
    /// LU kernel solves that ran (or fell back to) the dense scan.
    pub dense_fallbacks: u64,
    /// Kernel workspace growth events after first sizing (0 in steady
    /// state — the hot loop allocates nothing).
    pub kernel_allocs: u64,
}

impl PartialEq for GroupLpStats {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.functions == other.functions
            && self.variables == other.variables
            && self.constraints == other.constraints
            && self.iterations == other.iterations
            && self.refactorizations == other.refactorizations
            && self.presolve_rows == other.presolve_rows
            && self.presolve_cols == other.presolve_cols
            && self.etas == other.etas
            && self.dual_pivots == other.dual_pivots
            && self.bound_flips == other.bound_flips
            && self.eta_compactions == other.eta_compactions
            && self.eta_len == other.eta_len
    }
}

impl Eq for GroupLpStats {}

/// The outcome of a successful analysis.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// Interval bounds on the raw moments `E[C^k]` for `k = 0..=m`, as
    /// polynomials over the program variables at the start of `main`.
    pub bounds: Vec<MomentBound>,
    /// Resolved per-function specifications (function name, restriction level).
    pub specs: BTreeMap<(String, usize), ResolvedSpec>,
    /// Total number of LP variables generated.
    pub lp_variables: usize,
    /// Total number of LP constraints generated.
    pub lp_constraints: usize,
    /// Number of linear programs handed to the backend (1 in global mode, one
    /// per call-graph SCC plus one for `main` in compositional mode).
    pub lp_solves: usize,
    /// Size statistics of every solved group, in solve order (degree
    /// escalations append a pseudo-group carrying the increment's sizes).
    pub groups: Vec<GroupLpStats>,
    /// Base polynomial degree the successful instantiation used (larger than
    /// the requested degree when automatic poly-degree escalation retried).
    pub poly_degree: u32,
    /// Automatic `d → d+1` retries spent before the system became feasible.
    pub poly_retries: usize,
    /// Derivation-plan reuse counters (slots/columns/recipes reused vs
    /// created across instantiations, including poly-degree retries).
    pub plan: PlanStats,
    /// Statistics of the in-session degree escalation that produced this
    /// result (`None` for from-scratch analyses).
    pub escalation: Option<EscalationStats>,
    /// Derivation work skipped thanks to checker-exported range facts
    /// (all-zero when [`AnalysisOptions::range_facts`] is unset).
    pub pruning: PruningStats,
    /// Degradation-ladder rungs descended to produce this result (empty for
    /// a full-precision run; only [`analyze_session_resilient`] ever records
    /// any).
    pub degradation: DegradationStats,
    /// Wall-clock time spent in the analysis.
    pub elapsed: Duration,
}

/// Derivation work skipped thanks to checker-exported range facts
/// ([`AnalysisOptions::with_range_facts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruningStats {
    /// `if` statements derived one-sided because the checker refuted the
    /// other branch: no join template, no containment rows.
    pub refuted_branches: usize,
    /// `while` loops collapsed to their continuation because the guard is
    /// refuted on entry: no invariant template, no body or exit rows.
    pub skipped_loops: usize,
    /// Program variables the moment templates do not range over because the
    /// checker proved them write-only.
    pub dropped_template_vars: usize,
}

impl PruningStats {
    /// Whether any pruning happened at all.
    pub fn any(&self) -> bool {
        self.refuted_branches > 0 || self.skipped_loops > 0 || self.dropped_template_vars > 0
    }

    fn absorb(&mut self, other: &PruningStats) {
        self.refuted_branches += other.refuted_branches;
        self.skipped_loops += other.skipped_loops;
        self.dropped_template_vars += other.dropped_template_vars;
    }
}

/// One precision-for-progress rung of the graceful-degradation ladder,
/// taken by [`analyze_session_resilient`] after an attempt exhausted its
/// [`SolveBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationStep {
    /// Global mode was downgraded to compositional: one small LP per
    /// call-graph SCC instead of one monolithic system.
    CompositionalMode,
    /// The target moment degree was lowered — fewer, cheaper moment
    /// components, so the bounds stop at `to` instead of `from`.
    ReduceDegree {
        /// Moment degree before the reduction.
        from: usize,
        /// Moment degree after the reduction.
        to: usize,
    },
    /// LP presolve was switched on for the retry (smaller systems).
    EnablePresolve,
}

impl std::fmt::Display for DegradationStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationStep::CompositionalMode => write!(f, "global->compositional"),
            DegradationStep::ReduceDegree { from, to } => write!(f, "degree:{from}->{to}"),
            DegradationStep::EnablePresolve => write!(f, "presolve:on"),
        }
    }
}

/// The degradation rungs an analysis descended before producing its result —
/// empty for a full-precision run.  A nonempty value labels the bounds as
/// **degraded**: still sound (every rung re-runs the full analysis under
/// weaker options, it never edits bounds after the fact), but less precise
/// than requested.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegradationStats {
    /// Ladder rungs taken, in the order they were taken.
    pub steps: Vec<DegradationStep>,
}

impl DegradationStats {
    /// Whether any rung was taken at all.
    pub fn degraded(&self) -> bool {
        !self.steps.is_empty()
    }
}

impl std::fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for step in &self.steps {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

/// Observable effort of one [`AnalysisSession::escalate_degree`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EscalationStats {
    /// Moment degree the session was at before the escalation.
    pub from_degree: usize,
    /// Target moment degree after the escalation.
    pub to_degree: usize,
    /// LP columns appended for the new moment components.
    pub appended_variables: usize,
    /// LP constraint rows appended for the new moment components.
    pub appended_constraints: usize,
    /// Template slots replayed from the derivation plan.
    pub reused_slots: usize,
    /// Existing LP template columns the new components ride on.
    pub reused_columns: usize,
    /// Dual-simplex pivots the warm re-solve spent repairing the appended
    /// rows (0 when the open session re-solves from scratch).
    pub dual_pivots: usize,
    /// Simplex iterations of the escalated re-minimize.
    pub iterations: usize,
    /// From-scratch restarts the escalation had to fall back to (0 on the
    /// happy path: compositional sessions and poly-degree bumps restart).
    pub cold_restarts: usize,
    /// Automatic poly-degree retries spent during the escalation.
    pub poly_retries: usize,
}

impl AnalysisResult {
    /// The target moment degree `m`.
    pub fn degree(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The symbolic bound on the `k`-th raw moment.
    pub fn raw_moment_bound(&self, k: usize) -> &MomentBound {
        &self.bounds[k]
    }

    /// The `k`-th raw moment bound evaluated at an initial valuation.
    pub fn raw_moment_at(&self, k: usize, valuation: &[(Var, f64)]) -> Interval {
        self.bounds[k].at(valuation)
    }

    /// All raw-moment intervals at an initial valuation.
    pub fn raw_intervals_at(&self, valuation: &[(Var, f64)]) -> Vec<Interval> {
        self.bounds.iter().map(|b| b.at(valuation)).collect()
    }

    /// Central-moment information (variance, central 3rd/4th moments,
    /// skewness, kurtosis) at an initial valuation.
    pub fn central_at(&self, valuation: &[(Var, f64)]) -> CentralMoments {
        CentralMoments::from_raw_intervals(&self.raw_intervals_at(valuation))
    }

    /// Symbolic upper bound on the variance: `U₂ − L₁²`
    /// (valid wherever `L₁ ≥ 0`, cf. Ex. 2.4).
    pub fn variance_upper_poly(&self) -> Option<Polynomial> {
        if self.bounds.len() < 3 {
            return None;
        }
        let u2 = &self.bounds[2].upper;
        let l1 = &self.bounds[1].lower;
        Some(u2.sub(&l1.mul(l1)))
    }

    /// The resolved specification of a function at a restriction level.
    pub fn spec(&self, function: &str, level: usize) -> Option<&ResolvedSpec> {
        self.specs.get(&(function.to_string(), level))
    }
}

/// Analyzes a program, deriving symbolic interval bounds on the raw moments
/// `E[C^k]`, `k ≤ m`, of its accumulated cost, solving every generated linear
/// program with the given [`LpBackend`].
///
/// # Errors
///
/// Returns [`AnalysisError`] when constraint generation fails or the LP has no
/// solution under the chosen template degrees.
pub fn analyze_with(
    program: &Program,
    options: &AnalysisOptions,
    backend: &dyn LpBackend,
) -> Result<AnalysisResult, AnalysisError> {
    analyze_session(program, options, backend).map(|(result, _session)| result)
}

/// The engine state kept alive after [`analyze_session`]: the main group's
/// [`ConstraintStore`](crate::store::ConstraintStore) (inside its builder)
/// and the open solver session over it.
///
/// The soundness phase extends this state — appending the step-counting
/// side-condition system and re-minimizing in place — instead of deriving
/// and solving a fresh problem from scratch (see
/// [`soundness_report_in_session`](crate::soundness::soundness_report_in_session)).
pub struct AnalysisSession<'a> {
    builder: ConstraintBuilder,
    session: Box<dyn LpSession + 'a>,
    backend: &'a dyn LpBackend,
    options: AnalysisOptions,
    program: &'a Program,
    groups: Vec<GroupLpStats>,
    lp_solves: usize,
    poly_retries: usize,
    pruning: PruningStats,
    poisoned: bool,
    minimizes: usize,
    extension_variables: usize,
    extension_constraints: usize,
    extension_shared_columns: usize,
    extension_stats: SolveStats,
}

impl<'a> AnalysisSession<'a> {
    /// Total `minimize` calls issued on the main session so far (1 after the
    /// main solve; +1 per soundness extension or degree escalation).
    pub fn minimizes(&self) -> usize {
        self.minimizes
    }

    /// The options the session currently runs under (degree reflects the
    /// latest successful escalation, poly degree the latest retry).
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// The LP backend the session solves with.
    pub fn backend(&self) -> &'a dyn LpBackend {
        self.backend
    }

    /// LP variables appended by extensions (0 until an extension runs).
    pub fn extension_variables(&self) -> usize {
        self.extension_variables
    }

    /// LP constraint rows appended by extensions (0 until an extension runs).
    pub fn extension_constraints(&self) -> usize {
        self.extension_constraints
    }

    /// LP template columns extensions *shared* with the main derivation
    /// instead of minting their own (nonzero only when an extension rode the
    /// plan in shadow mode — see [`extend_and_minimize`](Self::extend_and_minimize)).
    pub fn extension_shared_columns(&self) -> usize {
        self.extension_shared_columns
    }

    /// Solver-effort counters of the extension minimizes (in particular
    /// `dual_pivots`: how many dual-simplex pivots the warm re-solves took
    /// instead of a phase-1 restart).
    pub fn extension_stats(&self) -> SolveStats {
        self.extension_stats
    }

    /// Derives `program` (globally, with all-fresh templates) *into* the
    /// existing constraint store and minimizes the extension's own
    /// objective, without re-deriving or re-solving the main system.
    ///
    /// Under the default dual warm-resolve strategy — and when the open
    /// session actually repairs appended rows in place
    /// ([`LpSession::warm_resolves_in_place`], true for the sparse core) —
    /// the increment is flushed into the open main session and re-minimized
    /// **in place**: the session's optimal basis stays dual feasible when
    /// rows are appended, so the extension solves through dual-simplex
    /// pivots (visible in [`extension_stats`](Self::extension_stats))
    /// instead of a phase-1 restart.  Otherwise a variable-disjoint
    /// extension is extracted and solved as a standalone subsystem of the
    /// shared store ([`crate::ConstraintStore::subproblem`]); an extension that
    /// references main-system variables always takes the flush path.
    ///
    /// For extension programs that are *skeleton-preserving rewrites* of the
    /// analyzed program, see
    /// [`extend_and_minimize_shared`](Self::extend_and_minimize_shared).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::LpFailed`] when the extended system has no optimum,
    /// [`AnalysisError::Derivation`] when constraint generation fails.
    pub fn extend_and_minimize(
        &mut self,
        program: &Program,
        degree: usize,
    ) -> Result<(), AnalysisError> {
        self.extend_with(program, degree, false)
    }

    /// [`extend_and_minimize`](Self::extend_and_minimize) for an extension
    /// program that is a **skeleton-preserving rewrite** of the analyzed
    /// program — same functions, same control structure, only statement
    /// costs changed (the Thm 4.4 step-counting instrumentation is the
    /// in-tree example).  When the extension rides the live session (global
    /// mode, dual warm re-solves, in-place row repair), the derivation then
    /// runs as a *plan transformer* in shadow mode: the main derivation's
    /// component-0 template columns (the probability-mass component, which
    /// cost rewriting cannot change) are shared outright and their
    /// constraint rows skipped, so the extension appends strictly fewer
    /// rows and columns than a disjoint derivation
    /// ([`extension_shared_columns`](Self::extension_shared_columns) counts
    /// the sharing).  Sessions that cannot ride warm fall back to the
    /// all-fresh disjoint derivation automatically.
    ///
    /// **The skeleton requirement is the caller's obligation**: sharing
    /// component-0 columns of a structurally *different* program would
    /// silently constrain the wrong templates.  Callers with arbitrary
    /// extension programs must use
    /// [`extend_and_minimize`](Self::extend_and_minimize) instead.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::LpFailed`] when the extended system has no optimum,
    /// [`AnalysisError::Derivation`] when constraint generation fails.
    pub fn extend_and_minimize_shared(
        &mut self,
        program: &Program,
        degree: usize,
    ) -> Result<(), AnalysisError> {
        self.extend_with(program, degree, true)
    }

    fn extend_with(
        &mut self,
        program: &Program,
        degree: usize,
        share: bool,
    ) -> Result<(), AnalysisError> {
        if self.poisoned {
            return Err(AnalysisError::SessionPoisoned);
        }
        let mut options = self.options.clone();
        options.degree = degree;
        // Extensions always derive globally: all fresh templates in one
        // block, no compositional export constraints.
        options.mode = SolveMode::Global;
        // The facts were proved for the *analyzed* program; an extension is
        // a different one (the instrumented rewrite carries dummy spans, so
        // the facts could never fire there anyway).  Dropping them keeps
        // extension walks manifestly unpruned.
        options.range_facts = None;
        if options.template_vars.is_none() {
            // Pin the template variables to the extension's own program.
            options.template_vars = Some(program.vars());
        }
        let vars_before = self.builder.num_vars();
        let rows_before = self.builder.num_constraints();
        let objective_mark = self.builder.store().objective_len();

        let flush_in_place = self.session.warm_resolves_in_place();
        // Template sharing additionally needs the main plan to cover the
        // whole program (global mode) *and* the appended rows to land in the
        // live session (otherwise the disjoint subproblem fast path below
        // would be lost).
        let share_plan = share && flush_in_place && self.options.mode == SolveMode::Global;
        let plan_before = self.builder.plan().stats();
        self.builder.plan_mut().set_mode(if share_plan {
            PlanMode::Shadow
        } else {
            PlanMode::Detached
        });
        let group: Vec<String> = program.functions().map(|f| f.name().to_string()).collect();
        let built = build_group(
            &mut self.builder,
            program,
            &options,
            &group,
            true,
            &BTreeMap::new(),
        );
        self.builder.plan_mut().set_mode(PlanMode::Record);
        if let Err(e) = built {
            // Part of the extension may already sit in the store; a later
            // flush would silently inject the half-derived rows into the
            // live session.
            self.poisoned = true;
            return Err(e);
        }
        self.extension_shared_columns += self
            .builder
            .plan()
            .stats()
            .since(&plan_before)
            .columns_reused;
        let sub = if flush_in_place {
            // Ride the live session: appended rows keep the optimal basis
            // dual feasible, so the warm re-solve is a dual step.  Sessions
            // that would re-solve from scratch keep the standalone-subsystem
            // fast path below.
            None
        } else {
            self.builder
                .store()
                .subproblem(vars_before, rows_before, objective_mark)
        };
        let flushed = sub.is_none();
        let solution = match sub {
            Some(sub) => self
                .backend
                .open_with(&sub, &options.group_tuning(None))
                .minimize(sub.objective()),
            None => {
                self.builder.store_mut().flush(self.session.as_mut());
                let objective = self.builder.store().aggregated_objective(objective_mark);
                self.session.minimize(&objective)
            }
        };
        self.minimizes += 1;
        self.extension_stats = self.extension_stats.merge(&solution.stats);
        self.extension_variables += self.builder.num_vars() - vars_before;
        self.extension_constraints += self.builder.num_constraints() - rows_before;
        if solution.is_optimal() {
            Ok(())
        } else {
            if flushed {
                // The failed extension's rows are irreversibly part of the
                // live session; further in-session work would ride a system
                // without an optimum.
                self.poisoned = true;
            }
            Err(AnalysisError::LpFailed {
                status: solution.status,
                group: vec!["<extension>".to_string()],
                degree: options.degree,
                poly_degree: options.poly_degree,
            })
        }
    }

    /// Escalates the session to moment degree `target` **in place**: the
    /// recorded [`DerivationPlan`] replays in extend mode, so the existing
    /// template columns back the components `≤ m` verbatim and only the new
    /// components `m+1..=target` mint columns and emit rows, which are
    /// flushed into the live solver session and re-minimized warm (dual
    /// pivots from the still-dual-feasible basis — no cold re-derive, no
    /// phase-1 restart on the happy path).
    ///
    /// The escalated system is *identical* (modulo column/row order) to a
    /// from-scratch degree-`target` derivation: component-`k` rows are
    /// degree-invariant because frames are `(h+1)`-restricted (zero on
    /// components `≤ m`), so the old rows are exactly the component-`≤m`
    /// slice of the new system.  Bounds therefore match a cold degree-
    /// `target` analysis within solver tolerance.
    ///
    /// Compositional sessions freeze resolved callee specifications per
    /// degree and cannot extend them in place: they fall back to a cold
    /// re-analysis (reported via [`EscalationStats::cold_restarts`]).  An
    /// infeasible escalated system retries `d → d+1` when
    /// [`AnalysisOptions::max_poly_degree`] allows, re-instantiating the
    /// plan into a fresh session.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidEscalation`] when `target` does not exceed
    /// the current degree, [`AnalysisError::LpFailed`] when the escalated
    /// system has no optimum (after any permitted poly-degree retries).
    pub fn escalate_degree(&mut self, target: usize) -> Result<AnalysisResult, AnalysisError> {
        let from_degree = self.options.degree;
        if target <= from_degree {
            return Err(AnalysisError::InvalidEscalation {
                from: from_degree,
                to: target,
            });
        }
        if self.poisoned {
            return Err(AnalysisError::SessionPoisoned);
        }
        // An already-layered extension (soundness rows + objective terms)
        // would be folded into the escalated optimum; the documented order —
        // escalate first, then extend — is enforced, not just advised.
        if self.extension_constraints > 0 || self.extension_variables > 0 {
            return Err(AnalysisError::EscalationAfterExtension);
        }
        let mut options = self.options.clone();
        options.degree = target;

        if self.options.mode == SolveMode::Compositional {
            // Resolved callee specs have no components above `from_degree`;
            // re-run the compositional pipeline cold at the target degree.
            return self.escalate_cold(options, from_degree, 0);
        }

        let start = Instant::now();
        let vars_before = self.builder.num_vars();
        let rows_before = self.builder.num_constraints();
        let plan_before = self.builder.plan().stats();
        let final_group: Vec<String> = self
            .program
            .functions()
            .map(|f| f.name().to_string())
            .collect();
        self.builder.plan_mut().set_mode(PlanMode::Extend);
        let built = build_group(
            &mut self.builder,
            self.program,
            &options,
            &final_group,
            true,
            &BTreeMap::new(),
        );
        self.builder.plan_mut().set_mode(PlanMode::Record);
        let build = match built {
            Ok(build) => build,
            Err(e) => {
                // The plan advanced mid-walk; further replays would skip
                // rows that were never instantiated.
                self.poisoned = true;
                return Err(e);
            }
        };

        self.builder.store_mut().flush(self.session.as_mut());
        let objective = self.builder.store().aggregated_objective(0);
        let solution = self.session.minimize(&objective);
        self.minimizes += 1;

        if !solution.is_optimal() {
            let max_d = options.max_poly_degree.unwrap_or(options.poly_degree);
            if solution.status == LpStatus::Infeasible && options.poly_degree < max_d {
                // Templates too weak at this poly degree: bump `d` and
                // re-instantiate the plan into a fresh store and session.
                options.poly_degree += 1;
                return self.escalate_cold(options, from_degree, 1);
            }
            // The escalated rows are irreversibly part of the live session
            // and the system has no optimum: the session cannot be ridden
            // any further.
            self.poisoned = true;
            return Err(AnalysisError::LpFailed {
                status: solution.status,
                group: final_group,
                degree: target,
                poly_degree: options.poly_degree,
            });
        }

        let plan_delta = self.builder.plan().stats().since(&plan_before);
        let appended_variables = self.builder.num_vars() - vars_before;
        let appended_constraints = self.builder.num_constraints() - rows_before;
        let escalation = EscalationStats {
            from_degree,
            to_degree: target,
            appended_variables,
            appended_constraints,
            reused_slots: plan_delta.slots_reused,
            reused_columns: plan_delta.columns_reused,
            dual_pivots: solution.stats.dual_pivots,
            iterations: solution.stats.iterations,
            cold_restarts: 0,
            poly_retries: 0,
        };
        self.groups.push(GroupLpStats {
            name: format!("escalate({from_degree}->{target})"),
            functions: final_group.clone(),
            variables: appended_variables,
            constraints: appended_constraints,
            iterations: solution.stats.iterations,
            refactorizations: solution.stats.refactorizations,
            presolve_rows: solution.stats.presolve_rows,
            presolve_cols: solution.stats.presolve_cols,
            etas: solution.stats.etas,
            dual_pivots: solution.stats.dual_pivots,
            bound_flips: solution.stats.bound_flips,
            eta_compactions: solution.stats.eta_compactions,
            eta_len: solution.stats.eta_len,
            ftran_ns: solution.stats.ftran_ns,
            btran_ns: solution.stats.btran_ns,
            pricing_ns: solution.stats.pricing_ns,
            ratio_ns: solution.stats.ratio_ns,
            hyper_sparse_ftrans: solution.stats.hyper_sparse_ftrans,
            hyper_sparse_btrans: solution.stats.hyper_sparse_btrans,
            dense_fallbacks: solution.stats.dense_fallbacks,
            kernel_allocs: solution.stats.kernel_allocs,
        });

        let outcome = extract_outcome(build, &solution, &final_group, true, &options)?;
        let main_bounds = outcome
            .main_bounds
            .expect("main bounds computed by the escalated group");
        let bounds = main_bounds
            .into_iter()
            .map(|(lower, upper)| MomentBound { lower, upper })
            .collect();
        self.options.degree = target;
        Ok(AnalysisResult {
            bounds,
            specs: outcome.specs,
            lp_variables: self.builder.num_vars(),
            lp_constraints: self.builder.num_constraints(),
            lp_solves: self.lp_solves,
            groups: self.groups.clone(),
            poly_degree: options.poly_degree,
            // Cumulative across the session: the lower-degree analysis may
            // already have spent automatic retries landing on this `d`.
            poly_retries: self.poly_retries,
            plan: self.builder.plan().stats(),
            escalation: Some(escalation),
            pruning: self.pruning,
            degradation: DegradationStats::default(),
            elapsed: start.elapsed(),
        })
    }

    /// Cold escalation path: re-analyzes at the target degree (and poly
    /// degree) in a fresh session — seeded with the recorded plan so the
    /// skeleton still replays — and swaps the fresh session into `self`.
    fn escalate_cold(
        &mut self,
        options: AnalysisOptions,
        from_degree: usize,
        extra_poly_retries: usize,
    ) -> Result<AnalysisResult, AnalysisError> {
        let prior_retries = self.poly_retries;
        let mut plans = BTreeMap::new();
        plans.insert(FINAL_PLAN_KEY.to_string(), self.builder.take_plan());
        let (mut result, fresh) =
            match analyze_session_seeded(self.program, &options, self.backend, plans) {
                Ok(ok) => ok,
                Err(e) => {
                    // The plan was consumed by the failed re-analysis; a
                    // later in-place replay against the emptied plan would
                    // re-emit the whole system into the old store.
                    self.poisoned = true;
                    return Err(e);
                }
            };
        // Retries spent *during* this escalation vs the session's cumulative
        // total (which includes the original lower-degree analysis's).
        let during = result.poly_retries + extra_poly_retries;
        result.poly_retries = prior_retries + during;
        result.escalation = Some(EscalationStats {
            from_degree,
            to_degree: options.degree,
            reused_slots: result.plan.slots_reused,
            reused_columns: 0,
            appended_variables: 0,
            appended_constraints: 0,
            dual_pivots: 0,
            iterations: 0,
            cold_restarts: 1,
            poly_retries: during,
        });
        *self = fresh;
        self.poly_retries = result.poly_retries;
        Ok(result)
    }
}

/// [`analyze_with`], additionally returning the live [`AnalysisSession`] so
/// later phases (the Thm 4.4 soundness check) can extend the constraint
/// system in place instead of re-deriving it.
///
/// # Errors
///
/// Returns [`AnalysisError`] when constraint generation fails or the LP has no
/// solution under the chosen template degrees.
pub fn analyze_session<'a>(
    program: &'a Program,
    options: &AnalysisOptions,
    backend: &'a dyn LpBackend,
) -> Result<(AnalysisResult, AnalysisSession<'a>), AnalysisError> {
    analyze_session_seeded(program, options, backend, BTreeMap::new())
}

/// [`analyze_session`] with a **graceful-degradation ladder**: when an
/// attempt fails because its [`SolveBudget`] ran out — never on
/// infeasibility or any other verdict — the analysis retries under
/// progressively cheaper options, each retry under whatever remains of the
/// whole-analysis deadline.  The rungs, in order:
///
/// 1. global → compositional mode (one small LP per SCC instead of one
///    monolithic system);
/// 2. moment degree `m → m−1`, repeated down to degree 1;
/// 3. LP presolve on (when it was off).
///
/// Every rung taken is recorded in [`AnalysisResult::degradation`], so a
/// degraded bound is always labeled, never silent.  Compositional mode is
/// the one rung that can *introduce* failures of its own (it rejects
/// non-tail cross-component calls); if its attempt fails with a non-budget
/// error, the rung is reverted and the descent continues past it.
///
/// # Errors
///
/// Returns [`AnalysisError`] when constraint generation fails or the LP has
/// no solution, and the original budget-exhaustion error when the ladder
/// runs out of rungs (or of wall clock) without landing an answer.
pub fn analyze_session_resilient<'a>(
    program: &'a Program,
    options: &AnalysisOptions,
    backend: &'a dyn LpBackend,
) -> Result<(AnalysisResult, AnalysisSession<'a>), AnalysisError> {
    let deadline = options.timeout.map(|t| Instant::now() + t);
    let mut attempt = options.clone();
    let mut steps: Vec<DegradationStep> = Vec::new();
    let mut mode_rung_tried = attempt.mode != SolveMode::Global;
    loop {
        match analyze_session(program, &attempt, backend) {
            Ok((mut result, session)) => {
                result.degradation = DegradationStats { steps };
                return Ok((result, session));
            }
            Err(e) => {
                if !e.budget_exhausted() {
                    if steps.last() == Some(&DegradationStep::CompositionalMode) {
                        // The mode rung itself broke the analysis — revert
                        // it and keep descending the remaining rungs.
                        attempt.mode = options.mode;
                        steps.pop();
                    } else {
                        return Err(e);
                    }
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(e);
                }
                if !mode_rung_tried {
                    mode_rung_tried = true;
                    attempt.mode = SolveMode::Compositional;
                    steps.push(DegradationStep::CompositionalMode);
                } else if attempt.degree > 1 {
                    steps.push(DegradationStep::ReduceDegree {
                        from: attempt.degree,
                        to: attempt.degree - 1,
                    });
                    attempt.degree -= 1;
                } else if !attempt.presolve {
                    attempt.presolve = true;
                    steps.push(DegradationStep::EnablePresolve);
                } else {
                    return Err(e);
                }
                if let Some(d) = deadline {
                    // The retry gets what is left of the one deadline.
                    attempt.timeout = Some(d.duration_since(Instant::now()));
                }
            }
        }
    }
}

/// Plan key of the final (session-holding) group in the retry plan store.
const FINAL_PLAN_KEY: &str = "<final>";

/// [`analyze_session`] seeded with recorded derivation plans (keyed by group
/// display name, [`FINAL_PLAN_KEY`] for the final group), the engine of both
/// the automatic poly-degree retry loop and cold degree escalations: each
/// attempt re-instantiates the surviving plans in refresh mode instead of
/// recording the skeleton from scratch.
fn analyze_session_seeded<'a>(
    program: &'a Program,
    options: &AnalysisOptions,
    backend: &'a dyn LpBackend,
    mut plans: BTreeMap<String, DerivationPlan>,
) -> Result<(AnalysisResult, AnalysisSession<'a>), AnalysisError> {
    let start = Instant::now();
    // One deadline for the whole analysis, shared by every poly-degree
    // retry: an attempt that exhausts it fails with `BudgetExhausted`,
    // which `infeasible_at` never matches, so the retry loop stops too.
    let deadline = options.timeout.map(|t| start + t);
    let base_d = options.poly_degree;
    let max_d = options.max_poly_degree.unwrap_or(base_d).max(base_d);
    let mut poly_retries = 0usize;
    loop {
        let mut attempt = options.clone();
        attempt.poly_degree = base_d + poly_retries as u32;
        match analyze_attempt(program, &attempt, backend, deadline, &mut plans) {
            Ok((mut result, mut session)) => {
                result.elapsed = start.elapsed();
                result.poly_retries = poly_retries;
                session.poly_retries = poly_retries;
                return Ok((result, session));
            }
            Err(e) if e.infeasible_at().is_some() && base_d + (poly_retries as u32) < max_d => {
                // Templates too weak: escalate the base polynomial degree
                // and re-instantiate the recorded plans.
                poly_retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Installs a saved plan (in refresh mode) into a fresh builder, if one is
/// recorded under `key`.
fn install_saved_plan(
    builder: &mut ConstraintBuilder,
    plans: &mut BTreeMap<String, DerivationPlan>,
    key: &str,
) {
    if let Some(mut plan) = plans.remove(key) {
        plan.set_mode(PlanMode::Refresh);
        builder.install_plan(plan);
    }
}

/// One full derivation + solve pass at fixed options.  Plans of every built
/// group are stashed back into `plans` before any LP failure is reported, so
/// the retry loop can re-instantiate them.
fn analyze_attempt<'a>(
    program: &'a Program,
    options: &AnalysisOptions,
    backend: &'a dyn LpBackend,
    deadline: Option<Instant>,
    plans: &mut BTreeMap<String, DerivationPlan>,
) -> Result<(AnalysisResult, AnalysisSession<'a>), AnalysisError> {
    let start = Instant::now();
    let mut resolved: BTreeMap<(String, usize), ResolvedSpec> = BTreeMap::new();
    let mut lp_variables = 0usize;
    let mut lp_constraints = 0usize;
    let mut lp_solves = 0usize;
    let mut group_stats: Vec<GroupLpStats> = Vec::new();
    let mut plan_stats = PlanStats::default();
    let mut pruning = PruningStats::default();
    if options.template_vars.is_none() && options.range_facts.is_some() {
        pruning.dropped_template_vars =
            program.vars().len() - template_vars(program, options).len();
    }

    // Solve every non-final group (compositional mode only); groups at the
    // same dependency level are independent and go through `solve_batch`.
    if options.mode == SolveMode::Compositional {
        let groups = call_graph_sccs(program);
        for level in scc_levels(program, &groups) {
            let mut builds = Vec::with_capacity(level.len());
            for &g in &level {
                let mut builder = ConstraintBuilder::new();
                install_saved_plan(&mut builder, plans, &groups[g].join("+"));
                let build =
                    build_group(&mut builder, program, options, &groups[g], false, &resolved)?;
                pruning.absorb(&build.pruning);
                builder.plan_mut().set_mode(PlanMode::Record);
                builds.push((builder, build, groups[g].clone()));
            }
            let problems: Vec<cma_lp::LpProblem> = builds
                .iter()
                .map(|(builder, _, _)| builder.store().to_problem())
                .collect();
            let solutions = backend.solve_batch_with(
                &problems,
                options.threads,
                &options.group_tuning(deadline),
            );
            let mut failure = None;
            for ((mut builder, build, group), solution) in builds.into_iter().zip(solutions) {
                lp_variables += builder.num_vars();
                lp_constraints += builder.num_constraints();
                lp_solves += 1;
                group_stats.push(group_lp_stats(
                    group.join("+"),
                    group.clone(),
                    &builder,
                    solution.stats,
                ));
                // Stash the plan before the outcome can fail the attempt.
                plan_stats = plan_stats.merge(&builder.plan().stats());
                plans.insert(group.join("+"), builder.take_plan());
                if failure.is_none() {
                    match extract_outcome(build, &solution, &group, false, options) {
                        Ok(outcome) => resolved.extend(outcome.specs),
                        Err(e) => failure = Some(e),
                    }
                }
            }
            if let Some(e) = failure {
                return Err(e);
            }
        }
    }

    // The final group — everything (global mode) or just `main` over the
    // frozen specifications (compositional mode) — is solved through an open
    // session that stays alive for the soundness extension.
    let (final_group, name): (Vec<String>, &str) = match options.mode {
        SolveMode::Global => (
            program.functions().map(|f| f.name().to_string()).collect(),
            "global",
        ),
        SolveMode::Compositional => (Vec::new(), "main"),
    };
    let mut builder = ConstraintBuilder::new();
    install_saved_plan(&mut builder, plans, FINAL_PLAN_KEY);
    let build = build_group(
        &mut builder,
        program,
        options,
        &final_group,
        true,
        &resolved,
    )?;
    pruning.absorb(&build.pruning);
    builder.plan_mut().set_mode(PlanMode::Record);
    lp_variables += builder.num_vars();
    lp_constraints += builder.num_constraints();
    lp_solves += 1;
    let objective = builder.store().aggregated_objective(0);
    let mut session = builder
        .store_mut()
        .open_session_with(backend, &options.group_tuning(deadline));
    let solution = session.minimize(&objective);
    group_stats.push(group_lp_stats(
        name.to_string(),
        final_group.clone(),
        &builder,
        solution.stats,
    ));
    if !solution.is_optimal() {
        plans.insert(FINAL_PLAN_KEY.to_string(), builder.take_plan());
    }
    let outcome = extract_outcome(build, &solution, &final_group, true, options)?;
    resolved.extend(outcome.specs);

    let main_bounds = outcome
        .main_bounds
        .expect("main bounds computed by the final group");
    let bounds = main_bounds
        .into_iter()
        .map(|(lower, upper)| MomentBound { lower, upper })
        .collect();
    let result = AnalysisResult {
        bounds,
        specs: resolved,
        lp_variables,
        lp_constraints,
        lp_solves,
        groups: group_stats.clone(),
        poly_degree: options.poly_degree,
        poly_retries: 0,
        plan: plan_stats.merge(&builder.plan().stats()),
        escalation: None,
        pruning,
        degradation: DegradationStats::default(),
        elapsed: start.elapsed(),
    };
    Ok((
        result,
        AnalysisSession {
            builder,
            session,
            backend,
            options: options.clone(),
            program,
            groups: group_stats,
            lp_solves,
            poly_retries: 0,
            pruning,
            poisoned: false,
            minimizes: 1,
            extension_variables: 0,
            extension_constraints: 0,
            extension_shared_columns: 0,
            extension_stats: SolveStats::default(),
        },
    ))
}

/// Assembles one group's LP stats from its builder sizes and the solver
/// counters of its solution.
fn group_lp_stats(
    name: String,
    functions: Vec<String>,
    builder: &ConstraintBuilder,
    stats: SolveStats,
) -> GroupLpStats {
    GroupLpStats {
        name,
        functions,
        variables: builder.num_vars(),
        constraints: builder.num_constraints(),
        iterations: stats.iterations,
        refactorizations: stats.refactorizations,
        presolve_rows: stats.presolve_rows,
        presolve_cols: stats.presolve_cols,
        etas: stats.etas,
        dual_pivots: stats.dual_pivots,
        bound_flips: stats.bound_flips,
        eta_compactions: stats.eta_compactions,
        eta_len: stats.eta_len,
        ftran_ns: stats.ftran_ns,
        btran_ns: stats.btran_ns,
        pricing_ns: stats.pricing_ns,
        ratio_ns: stats.ratio_ns,
        hyper_sparse_ftrans: stats.hyper_sparse_ftrans,
        hyper_sparse_btrans: stats.hyper_sparse_btrans,
        dense_fallbacks: stats.dense_fallbacks,
        kernel_allocs: stats.kernel_allocs,
    }
}

/// Dependency levels of the call-graph SCCs: level 0 groups call nothing
/// outside themselves, level `n + 1` groups call only groups of level ≤ `n`.
/// Groups within one level are independent and can be solved concurrently.
fn scc_levels(program: &Program, sccs: &[Vec<String>]) -> Vec<Vec<usize>> {
    let graph = program.call_graph();
    let mut scc_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, scc) in sccs.iter().enumerate() {
        for f in scc {
            scc_of.insert(f, i);
        }
    }
    let mut level = vec![0usize; sccs.len()];
    // `call_graph_sccs` emits callees first, so every callee SCC's level is
    // final by the time its callers are processed.
    for (i, scc) in sccs.iter().enumerate() {
        for f in scc {
            for callee in graph.get(f.as_str()).into_iter().flatten() {
                if let Some(&j) = scc_of.get(callee.as_str()) {
                    if j != i {
                        level[i] = level[i].max(level[j] + 1);
                    }
                }
            }
        }
    }
    let max_level = level.iter().copied().max().map_or(0, |m| m + 1);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_level];
    for (i, &l) in level.iter().enumerate() {
        buckets[l].push(i);
    }
    buckets.retain(|b| !b.is_empty());
    buckets
}

struct GroupOutcome {
    specs: BTreeMap<(String, usize), ResolvedSpec>,
    main_bounds: Option<Vec<(Polynomial, Polynomial)>>,
}

/// Everything `build_group` produces besides the constraints themselves:
/// the fresh specification templates and (for the final group) the derived
/// pre-annotation of `main`, both awaiting a solution to resolve against.
struct GroupBuild {
    specs: SpecTable,
    main_pre: Option<SymMoment>,
    pruning: PruningStats,
}

fn template_vars(program: &Program, options: &AnalysisOptions) -> Vec<Var> {
    if let Some(vars) = &options.template_vars {
        return vars.clone();
    }
    let mut vars = program.vars();
    if let Some(facts) = &options.range_facts {
        // Write-only variables cannot influence cost or control flow;
        // templates need not range over them.
        vars.retain(|v| !facts.dead_template_vars().contains(v));
    }
    vars
}

/// Emits the constraint system of one group into `builder`: fresh templates
/// for the group's functions, derivation of every body, export constraints
/// (compositional mode), the tightness objective, and — when `include_main`
/// — the derivation of `main` itself.
fn build_group(
    builder: &mut ConstraintBuilder,
    program: &Program,
    options: &AnalysisOptions,
    group: &[String],
    include_main: bool,
    resolved: &BTreeMap<(String, usize), ResolvedSpec>,
) -> Result<GroupBuild, AnalysisError> {
    let m = options.degree;
    let d = options.poly_degree;
    let vars = template_vars(program, options);
    let valuation = options.valuation_fn();
    let facts = options.range_facts.as_deref();
    // Per-group walk counters; `dropped_template_vars` is a whole-program
    // property and is filled in once by the caller.
    let mut pruning = PruningStats::default();

    let mut specs = SpecTable::new();

    // Resolved specifications from earlier groups become constant annotations.
    for ((name, level), spec) in resolved {
        specs.insert(name, *level, spec.to_entry());
    }
    // Fresh templates for the functions of this group (plan slots, so a
    // replay — degree escalation, poly-degree refresh, the shadow soundness
    // derivation — reuses the recorded columns instead of minting).
    for name in group {
        for level in 0..=m {
            let entry = SpecEntry {
                pre: builder.planned_moment(
                    &format!("spec.{name}.{level}.pre"),
                    &format!("{name}.pre{level}"),
                    &vars,
                    m,
                    d,
                    level,
                ),
                post: builder.planned_moment(
                    &format!("spec.{name}.{level}.post"),
                    &format!("{name}.post{level}"),
                    &vars,
                    m,
                    d,
                    level,
                ),
            };
            specs.insert(name, level, entry);
        }
    }

    // In compositional mode the exported specifications must stay usable by
    // later callers: the level-0 post must cover the identity annotation and
    // higher-level posts must cover the zero annotation.
    if options.mode == SolveMode::Compositional {
        for name in group {
            for level in 0..=m {
                let post = specs.get(name, level).expect("just inserted").post.clone();
                let target = if level == 0 {
                    SymMoment::one(m)
                } else {
                    SymMoment::zero(m)
                };
                require_contains(
                    builder,
                    &Context::top(),
                    &post,
                    &target,
                    d,
                    &format!("export.{name}.{level}"),
                );
            }
        }
    }

    // Justify every specification of the group by analyzing the body.
    for name in group {
        let function = program
            .function(name)
            .expect("group members are declared functions");
        let ctx = Context::from_conditions(function.precondition());
        for level in 0..=m {
            let entry = specs.get(name, level).expect("just inserted").clone();
            let dctx = DeriveCtx::for_unit(
                program,
                &specs,
                m,
                d,
                vars.clone(),
                level,
                format!("{name}.h{level}"),
            )
            .with_facts(facts);
            let derived_pre = transform(builder, &dctx, function.body(), &ctx, entry.post.clone())?;
            pruning.refuted_branches += dctx.pruned_branches.get();
            pruning.skipped_loops += dctx.pruned_loops.get();
            require_contains(
                builder,
                &ctx,
                &entry.pre,
                &derived_pre,
                d,
                &format!("spec.{name}.{level}"),
            );
            // Reward tight specifications (lower weight for deeper levels);
            // plan replays add terms only for components not yet rewarded.
            let weight = 0.1 / (1.0 + level as f64);
            let from = builder.recipe_gate(&format!("obj.{name}.{level}"), m);
            for k in from..=m {
                builder.add_objective(&entry.pre.component(k).hi.eval_vars(&valuation), weight);
                builder.add_objective(&entry.pre.component(k).lo.eval_vars(&valuation), -weight);
            }
        }
    }

    // Analyze `main` with the identity post-annotation.
    let main_pre = if include_main {
        let ctx = Context::from_conditions(program.precondition());
        let dctx =
            DeriveCtx::for_unit(program, &specs, m, d, vars.clone(), 0, "main").with_facts(facts);
        let pre = transform(builder, &dctx, program.main(), &ctx, SymMoment::one(m))?;
        pruning.refuted_branches += dctx.pruned_branches.get();
        pruning.skipped_loops += dctx.pruned_loops.get();
        let from = builder.recipe_gate("obj.main", m);
        for k in from..=m {
            builder.add_objective(&pre.component(k).hi.eval_vars(&valuation), 1.0);
            builder.add_objective(&pre.component(k).lo.eval_vars(&valuation), -1.0);
        }
        Some(pre)
    } else {
        None
    };

    Ok(GroupBuild {
        specs,
        main_pre,
        pruning,
    })
}

/// Resolves a group's templates against an LP solution (or reports the LP
/// failure for the group).
fn extract_outcome(
    build: GroupBuild,
    solution: &LpSolution,
    group: &[String],
    include_main: bool,
    options: &AnalysisOptions,
) -> Result<GroupOutcome, AnalysisError> {
    if !solution.is_optimal() {
        return Err(AnalysisError::LpFailed {
            status: solution.status,
            group: if include_main && group.is_empty() {
                vec!["main".to_string()]
            } else {
                group.to_vec()
            },
            degree: options.degree,
            poly_degree: options.poly_degree,
        });
    }

    let values = |v| solution.value(v);
    let mut resolved_specs = BTreeMap::new();
    for name in group {
        let mut level = 0;
        while let Some(entry) = build.specs.get(name, level) {
            resolved_specs.insert(
                (name.clone(), level),
                ResolvedSpec {
                    pre: entry.pre.resolve(&values),
                    post: entry.post.resolve(&values),
                },
            );
            level += 1;
        }
    }
    let main_bounds = build.main_pre.map(|pre| pre.resolve(&values));

    Ok(GroupOutcome {
        specs: resolved_specs,
        main_bounds,
    })
}

/// Strongly connected components of the call graph in reverse topological
/// order (callees before callers).
pub fn call_graph_sccs(program: &Program) -> Vec<Vec<String>> {
    let graph: BTreeMap<String, BTreeSet<String>> = program.call_graph();
    let nodes: Vec<String> = graph.keys().cloned().collect();
    let mut state = TarjanState {
        graph: &graph,
        index: 0,
        indices: BTreeMap::new(),
        lowlink: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        sccs: Vec::new(),
    };
    for node in &nodes {
        if !state.indices.contains_key(node) {
            state.strong_connect(node);
        }
    }
    // Tarjan emits SCCs in reverse topological order of the condensation
    // (an SCC is emitted only after all SCCs it can reach), i.e. callees first.
    state.sccs
}

struct TarjanState<'a> {
    graph: &'a BTreeMap<String, BTreeSet<String>>,
    index: usize,
    indices: BTreeMap<String, usize>,
    lowlink: BTreeMap<String, usize>,
    on_stack: BTreeSet<String>,
    stack: Vec<String>,
    sccs: Vec<Vec<String>>,
}

impl TarjanState<'_> {
    fn strong_connect(&mut self, v: &str) {
        self.indices.insert(v.to_string(), self.index);
        self.lowlink.insert(v.to_string(), self.index);
        self.index += 1;
        self.stack.push(v.to_string());
        self.on_stack.insert(v.to_string());

        let successors: Vec<String> = self
            .graph
            .get(v)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        for w in successors {
            if !self.graph.contains_key(&w) {
                continue;
            }
            if !self.indices.contains_key(&w) {
                self.strong_connect(&w);
                let low = self.lowlink[&w].min(self.lowlink[v]);
                self.lowlink.insert(v.to_string(), low);
            } else if self.on_stack.contains(&w) {
                let low = self.indices[&w].min(self.lowlink[v]);
                self.lowlink.insert(v.to_string(), low);
            }
        }

        if self.lowlink[v] == self.indices[v] {
            let mut scc = Vec::new();
            while let Some(w) = self.stack.pop() {
                self.on_stack.remove(&w);
                let done = w == v;
                scc.push(w);
                if done {
                    break;
                }
            }
            scc.reverse();
            self.sccs.push(scc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_appl::build::*;
    use cma_lp::SparseBackend;

    /// A program with one refuted branch (`x < 0` right after `x := 1`), one
    /// never-entered loop, and one write-only variable, plus the facts a
    /// checker run would export for it.  True cost: exactly 1.
    fn pruned_fixture() -> (Program, cma_appl::RangeFacts) {
        let source = "func main() begin\n  x := 1;\n  waste := 7;\n  \
                      if x < 0 then tick(9) else tick(1) fi;\n  \
                      while x < 0 do tick(5) od\nend\n";
        let program = cma_appl::parse_program_unchecked(source).unwrap();
        fn mark(stmt: &cma_appl::Stmt, facts: &mut cma_appl::RangeFacts) {
            use cma_appl::ast::StmtKind;
            match stmt.kind() {
                StmtKind::If(..) => {
                    facts.insert_refuted(stmt.span(), cma_appl::BranchFact::ThenUnreachable)
                }
                StmtKind::While(..) => {
                    facts.insert_refuted(stmt.span(), cma_appl::BranchFact::LoopNeverEntered)
                }
                StmtKind::Seq(ss) => ss.iter().for_each(|s| mark(s, facts)),
                _ => {}
            }
        }
        let mut facts = cma_appl::RangeFacts::new();
        mark(program.main(), &mut facts);
        facts.insert_dead_template_var(Var::new("waste"));
        (program, facts)
    }

    #[test]
    fn range_facts_prune_the_generated_lp() {
        let (program, facts) = pruned_fixture();
        let base = analyze_with(&program, &AnalysisOptions::degree(2), &SparseBackend).unwrap();
        assert!(!base.pruning.any());

        let options = AnalysisOptions::degree(2).with_range_facts(Arc::new(facts));
        let pruned = analyze_with(&program, &options, &SparseBackend).unwrap();
        assert_eq!(
            pruned.pruning,
            PruningStats {
                refuted_branches: 1,
                skipped_loops: 1,
                dropped_template_vars: 1,
            }
        );
        assert!(
            pruned.lp_constraints < base.lp_constraints,
            "pruned {} vs base {}",
            pruned.lp_constraints,
            base.lp_constraints
        );
        assert!(pruned.lp_variables < base.lp_variables);

        // Only `tick(1)` is live: both analyses must bracket cost 1, and the
        // pruned one is deterministic (no templates left, exact moments).
        for result in [&base, &pruned] {
            let e1 = result.raw_moment_at(1, &[(Var::new("x"), 1.0)]);
            assert!(e1.lo() <= 1.0 + 1e-6 && e1.hi() >= 1.0 - 1e-6, "{e1:?}");
        }
        let e1 = pruned.raw_moment_at(1, &[(Var::new("x"), 1.0)]);
        assert!(e1.width() < 1e-6, "pruned bound not exact: {e1:?}");
    }

    #[test]
    fn pruned_session_escalates_and_extends_consistently() {
        let (program, facts) = pruned_fixture();
        let facts = Arc::new(facts);
        let backend = SparseBackend;
        let options = AnalysisOptions::degree(1).with_range_facts(facts.clone());
        let (r1, mut session) = analyze_session(&program, &options, &backend).unwrap();
        assert_eq!(r1.pruning.refuted_branches, 1);

        // In-place escalation replays the pruned plan with the same facts.
        let r2 = session.escalate_degree(2).unwrap();
        assert_eq!(r2.pruning, r1.pruning);
        let cold_options = AnalysisOptions::degree(2).with_range_facts(facts);
        let cold = analyze_with(&program, &cold_options, &SparseBackend).unwrap();
        for k in 1..=2 {
            let hot = r2.raw_moment_at(k, &[(Var::new("x"), 1.0)]);
            let ref_b = cold.raw_moment_at(k, &[(Var::new("x"), 1.0)]);
            assert!(
                (hot.hi() - ref_b.hi()).abs() < 1e-6,
                "k={k}: {hot:?} vs {ref_b:?}"
            );
        }

        // The shadow extension walks the *unpruned* skeleton; skipped-site
        // accounting keeps its keys aligned with the pruned plan, so the
        // shared replay must not collide and the system stays optimal.
        session.extend_and_minimize_shared(&program, 2).unwrap();
        assert!(session.extension_constraints() > 0);
    }

    #[test]
    fn sccs_are_in_callee_first_order() {
        let program = ProgramBuilder::new()
            .function("a", seq([call("b"), call("c")]))
            .function("b", call("c"))
            .function("c", if_prob(0.5, call("c"), skip()))
            .main(call("a"))
            .build()
            .unwrap();
        let sccs = call_graph_sccs(&program);
        assert_eq!(sccs.len(), 3);
        let pos = |name: &str| {
            sccs.iter()
                .position(|s| s.contains(&name.to_string()))
                .unwrap()
        };
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
    }

    #[test]
    fn scc_levels_bucket_independent_groups_together() {
        // main → a; a → {b, c}; b → d; c → d: levels d | b,c | a.
        let program = ProgramBuilder::new()
            .function("a", seq([call("b"), call("c")]))
            .function("b", call("d"))
            .function("c", call("d"))
            .function("d", if_prob(0.5, call("d"), skip()))
            .main(call("a"))
            .build()
            .unwrap();
        let sccs = call_graph_sccs(&program);
        let levels = scc_levels(&program, &sccs);
        assert_eq!(levels.len(), 3);
        let names_at = |l: usize| {
            let mut names: Vec<&str> = levels[l]
                .iter()
                .flat_map(|&i| sccs[i].iter().map(String::as_str))
                .collect();
            names.sort_unstable();
            names
        };
        assert_eq!(names_at(0), vec!["d"]);
        assert_eq!(names_at(1), vec!["b", "c"]);
        assert_eq!(names_at(2), vec!["a"]);
    }

    #[test]
    fn parallel_compositional_solves_match_sequential() {
        // Two independent tail-recursive functions (one dependency level with
        // two groups → exercised by `solve_batch`), called from `main` in
        // tail position of a probabilistic branch.
        let program = ProgramBuilder::new()
            .function("b", if_prob(0.5, seq([tick(1.0), call("b")]), skip()))
            .function("c", if_prob(0.25, seq([tick(2.0), call("c")]), tick(1.0)))
            .main(if_prob(0.5, call("b"), call("c")))
            .build()
            .unwrap();
        let sequential = AnalysisOptions::degree(2).with_mode(SolveMode::Compositional);
        let parallel = sequential.clone().with_threads(4);
        let seq_result = analyze_with(&program, &sequential, &SparseBackend).unwrap();
        let par_result = analyze_with(&program, &parallel, &SparseBackend).unwrap();
        assert_eq!(seq_result.lp_solves, par_result.lp_solves);
        assert_eq!(seq_result.groups, par_result.groups);
        for (s, p) in seq_result.bounds.iter().zip(&par_result.bounds) {
            assert_eq!(s, p, "parallel bounds diverged from sequential");
        }
    }

    #[test]
    fn result_reports_per_group_stats() {
        let program = ProgramBuilder::new()
            .function("geo", if_prob(0.5, seq([tick(1.0), call("geo")]), skip()))
            .main(call("geo"))
            .build()
            .unwrap();
        let global = analyze_with(&program, &AnalysisOptions::degree(2), &SparseBackend).unwrap();
        assert_eq!(global.groups.len(), 1);
        assert_eq!(global.groups[0].name, "global");
        assert_eq!(global.groups[0].variables, global.lp_variables);
        assert_eq!(global.groups[0].constraints, global.lp_constraints);

        let options = AnalysisOptions::degree(2).with_mode(SolveMode::Compositional);
        let compositional = analyze_with(&program, &options, &SparseBackend).unwrap();
        assert_eq!(compositional.groups.len(), 2);
        assert_eq!(compositional.groups[0].name, "geo");
        assert_eq!(compositional.groups.last().unwrap().name, "main");
        let total: usize = compositional.groups.iter().map(|g| g.constraints).sum();
        assert_eq!(total, compositional.lp_constraints);
    }

    #[test]
    fn session_extension_layers_onto_the_main_system() {
        let program = ProgramBuilder::new()
            .function(
                "geo",
                if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
            )
            .main(call("geo"))
            .build()
            .unwrap();
        let options = AnalysisOptions::degree(2);
        let backend = SparseBackend;
        let (result, mut session) = analyze_session(&program, &options, &backend).unwrap();
        assert_eq!(session.minimizes(), 1);
        assert_eq!(session.extension_constraints(), 0);
        // Extend with the program itself (a stand-in for the instrumented
        // program): one more minimize, fresh rows, no new solve-from-scratch.
        session.extend_and_minimize(&program, 2).unwrap();
        assert_eq!(session.minimizes(), 2);
        assert!(session.extension_constraints() > 0);
        assert!(session.extension_variables() > 0);
        // The main result is untouched by the extension.
        let e1 = result.raw_moment_at(1, &[]);
        assert!(e1.lo() <= 2.0 + 1e-6 && e1.hi() >= 2.0 - 1e-6);
    }

    #[test]
    fn mutually_recursive_functions_form_one_scc() {
        let program = ProgramBuilder::new()
            .function("even", if_prob(0.5, call("odd"), skip()))
            .function("odd", call("even"))
            .main(call("even"))
            .build()
            .unwrap();
        let sccs = call_graph_sccs(&program);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 2);
    }

    #[test]
    fn straight_line_program_moments_are_exact() {
        let program = ProgramBuilder::new()
            .main(seq([tick(2.0), tick(3.0)]))
            .build()
            .unwrap();
        let result = analyze_with(&program, &AnalysisOptions::degree(3), &SparseBackend).unwrap();
        let intervals = result.raw_intervals_at(&[]);
        assert!((intervals[1].mid() - 5.0).abs() < 1e-6);
        assert!((intervals[2].mid() - 25.0).abs() < 1e-6);
        assert!((intervals[3].mid() - 125.0).abs() < 1e-6);
        assert!(intervals[1].width() < 1e-6);
        assert_eq!(result.degree(), 3);
    }

    #[test]
    fn probabilistic_choice_moments_are_exact() {
        // cost 2 w.p. 1/2, else 4: E = 3, E² = 10, E³ = 36.
        let program = ProgramBuilder::new()
            .main(if_prob(0.5, tick(2.0), tick(4.0)))
            .build()
            .unwrap();
        let result = analyze_with(&program, &AnalysisOptions::degree(3), &SparseBackend).unwrap();
        let i = result.raw_intervals_at(&[]);
        assert!((i[1].mid() - 3.0).abs() < 1e-6 && i[1].width() < 1e-6);
        assert!((i[2].mid() - 10.0).abs() < 1e-6);
        assert!((i[3].mid() - 36.0).abs() < 1e-6);
        // Variance = 10 - 9 = 1.
        let central = result.central_at(&[]);
        assert!(central.variance_upper() >= 1.0 - 1e-6);
        assert!(central.variance_upper() <= 1.0 + 1e-4);
    }

    #[test]
    fn geometric_recursion_is_bounded() {
        // Geometric(1/2): E = 2, E[C²] = 6.
        let program = ProgramBuilder::new()
            .function(
                "geo",
                if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
            )
            .main(call("geo"))
            .build()
            .unwrap();
        let result = analyze_with(&program, &AnalysisOptions::degree(2), &SparseBackend).unwrap();
        let i = result.raw_intervals_at(&[]);
        assert!(i[1].lo() <= 2.0 + 1e-6 && i[1].hi() >= 2.0 - 1e-6);
        assert!(i[2].hi() >= 6.0 - 1e-6);
        // The bounds should be reasonably tight for this simple program.
        assert!(i[1].hi() <= 2.0 + 1e-4, "upper bound {}", i[1].hi());
        assert!(i[2].hi() <= 6.0 + 1e-3, "upper bound {}", i[2].hi());
    }

    #[test]
    fn unknown_callee_levels_surface_as_errors() {
        // Force an error by requesting a compositional analysis of a program
        // whose cross-group call is *not* in tail position with a large
        // trailing cost — the exported specification cannot cover it exactly
        // when the callee's exported post is too narrow.  The analysis must
        // not panic; it either succeeds (with a valid bound) or reports an
        // LP failure.
        let program = ProgramBuilder::new()
            .function("leaf", tick(1.0))
            .function("wrap", seq([call("leaf"), tick(5.0)]))
            .main(call("wrap"))
            .build()
            .unwrap();
        let options = AnalysisOptions::degree(2).with_mode(SolveMode::Compositional);
        match analyze_with(&program, &options, &SparseBackend) {
            Ok(result) => {
                let i = result.raw_intervals_at(&[]);
                assert!(i[1].hi() >= 6.0 - 1e-6);
            }
            Err(AnalysisError::LpFailed { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn options_builders() {
        let o = AnalysisOptions::degree(4)
            .with_poly_degree(2)
            .with_mode(SolveMode::Compositional)
            .with_valuation(vec![(Var::new("d"), 10.0)])
            .with_template_vars(vec![Var::new("d")])
            .with_timeout(Duration::from_secs(30))
            .with_group_timeout(Duration::from_secs(5));
        assert_eq!(o.degree, 4);
        assert_eq!(o.poly_degree, 2);
        assert_eq!(o.mode, SolveMode::Compositional);
        assert_eq!((o.valuation_fn())(&Var::new("d")), 10.0);
        assert_eq!((o.valuation_fn())(&Var::new("zzz")), 1.0);
        assert_eq!(o.timeout, Some(Duration::from_secs(30)));
        assert_eq!(o.group_timeout, Some(Duration::from_secs(5)));
    }

    /// An authentic `BudgetExhausted` solution, produced by a real solve
    /// under an already-expired deadline (the [`LpSolution`] constructor is
    /// crate-private to `cma-lp`).
    fn exhausted_solution() -> LpSolution {
        use cma_lp::{Cmp, LpProblem};
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        lp.set_objective(vec![(x, 1.0)]);
        let expired = SolveBudget {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            ..SolveBudget::UNLIMITED
        };
        SparseBackend.solve_with(&lp, &SolverTuning::with_budget(expired))
    }

    /// A backend whose first `failures` minimizes come back budget-exhausted
    /// and which then behaves exactly like [`SparseBackend`] — the
    /// deterministic stand-in for "the deadline fired mid-campaign".
    struct FlakyBudget {
        failures: std::sync::atomic::AtomicUsize,
    }

    impl FlakyBudget {
        fn failing(failures: usize) -> Self {
            FlakyBudget {
                failures: std::sync::atomic::AtomicUsize::new(failures),
            }
        }
    }

    struct FlakySession<'a> {
        inner: Box<dyn LpSession + 'a>,
        failures: &'a std::sync::atomic::AtomicUsize,
    }

    impl LpSession for FlakySession<'_> {
        fn add_var(&mut self, name: &str, free: bool) -> cma_lp::LpVarId {
            self.inner.add_var(name, free)
        }
        fn add_constraint(&mut self, terms: &[(cma_lp::LpVarId, f64)], cmp: cma_lp::Cmp, rhs: f64) {
            self.inner.add_constraint(terms, cmp, rhs)
        }
        fn minimize(&mut self, objective: &[(cma_lp::LpVarId, f64)]) -> LpSolution {
            use std::sync::atomic::Ordering;
            let drained = self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if drained {
                exhausted_solution()
            } else {
                self.inner.minimize(objective)
            }
        }
        fn num_vars(&self) -> usize {
            self.inner.num_vars()
        }
        fn num_constraints(&self) -> usize {
            self.inner.num_constraints()
        }
    }

    impl LpBackend for FlakyBudget {
        fn name(&self) -> &str {
            "flaky-budget"
        }
        fn open<'a>(&'a self, problem: &cma_lp::LpProblem) -> Box<dyn LpSession + 'a> {
            Box::new(FlakySession {
                inner: SparseBackend.open(problem),
                failures: &self.failures,
            })
        }
    }

    fn coin_program() -> Program {
        cma_appl::parse_program("func main() begin if prob(0.5) then tick(2) else tick(4) fi end")
            .unwrap()
    }

    #[test]
    fn expired_deadline_is_budget_exhaustion_not_infeasibility() {
        let program = coin_program();
        let options = AnalysisOptions::degree(2).with_timeout(Duration::ZERO);
        let err = analyze_with(&program, &options, &SparseBackend).unwrap_err();
        assert!(err.budget_exhausted(), "{err:?}");
        // The one invariant the whole budget design hangs on: exhaustion is
        // never infeasibility, so it can never trigger a poly-degree retry.
        assert_eq!(err.infeasible_at(), None);
    }

    #[test]
    fn resilient_ladder_degrades_mode_then_degree_and_labels_the_result() {
        let program = coin_program();
        // Two exhausted attempts: global fails, compositional fails, the
        // degree-reduced retry lands.
        let backend = FlakyBudget::failing(2);
        let (result, _session) =
            analyze_session_resilient(&program, &AnalysisOptions::degree(2), &backend).unwrap();
        assert_eq!(
            result.degradation.steps,
            vec![
                DegradationStep::CompositionalMode,
                DegradationStep::ReduceDegree { from: 2, to: 1 },
            ]
        );
        assert!(result.degradation.degraded());
        assert_eq!(result.degree(), 1);
        // Degraded, not wrong: the first moment still brackets E[C] = 3.
        let e1 = result.raw_moment_at(1, &[]);
        assert!(e1.lo() <= 3.0 + 1e-6 && 3.0 - 1e-6 <= e1.hi(), "{e1:?}");
    }

    #[test]
    fn resilient_ladder_out_of_rungs_returns_the_exhaustion() {
        let program = coin_program();
        let backend = FlakyBudget::failing(usize::MAX);
        // Presolve is on by default, so the ladder is mode + one degree drop.
        match analyze_session_resilient(&program, &AnalysisOptions::degree(2), &backend) {
            Err(err) => assert!(err.budget_exhausted(), "{err:?}"),
            Ok(_) => panic!("an always-exhausted backend cannot produce a result"),
        };
    }

    #[test]
    fn resilient_without_exhaustion_records_no_degradation() {
        let program = coin_program();
        let (result, _session) =
            analyze_session_resilient(&program, &AnalysisOptions::degree(2), &SparseBackend)
                .unwrap();
        assert!(!result.degradation.degraded());
        assert_eq!(result.degradation.to_string(), "");
        assert_eq!(result.degree(), 2);
    }

    #[test]
    fn degradation_steps_display_stable_labels() {
        let stats = DegradationStats {
            steps: vec![
                DegradationStep::CompositionalMode,
                DegradationStep::ReduceDegree { from: 3, to: 2 },
                DegradationStep::EnablePresolve,
            ],
        };
        assert_eq!(
            stats.to_string(),
            "global->compositional, degree:3->2, presolve:on"
        );
    }
}
