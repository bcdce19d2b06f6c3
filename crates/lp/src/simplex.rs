//! The LP problem model and its one-shot solve.
//!
//! This module owns the crate's vocabulary — [`LpProblem`], [`LpSolution`],
//! [`LpStatus`], [`SolveStats`] — and the one-shot entry point
//! [`LpProblem::solve`].  The iteration machinery itself lives in the
//! `SimplexCore` that [`SparseBackend`](crate::SparseBackend) sessions run.

use std::fmt;

use crate::core::SimplexCore;
use crate::pricing::SolverTuning;
use crate::sparse::SparseMatrix;

/// Per-solve solver effort and presolve-reduction counters, carried on every
/// [`LpSolution`] so degeneracy regressions are observable without a
/// profiler (they surface in `AnalysisReport`'s per-group LP stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Simplex iterations across all phases of the solve (dual-simplex
    /// restoration pivots included).
    pub iterations: usize,
    /// Basis refactorizations (rebuilds of the factorization from the
    /// pristine columns).
    pub refactorizations: usize,
    /// Constraint rows removed by presolve before the solve.
    pub presolve_rows: usize,
    /// Columns removed by presolve (fixed by singleton rows or empty).
    pub presolve_cols: usize,
    /// Successful Forrest–Tomlin factorization updates (each may append
    /// one row eta).
    pub etas: usize,
    /// Dual-simplex pivots spent restoring primal feasibility after warm
    /// incremental rows (0 for cold solves).
    pub dual_pivots: usize,
    /// Nonbasic variables moved bound-to-bound without a basis change — by
    /// the bound-flipping dual ratio test or by a primal entering step that
    /// hit the entering variable's own upper bound first.
    pub bound_flips: usize,
    /// U entries retired in place by Forrest–Tomlin column replacements —
    /// the growth a product-form eta file would have accumulated instead.
    pub eta_compactions: usize,
    /// Peak length of the LU eta file observed during the solve.  Under
    /// `merge` this takes the max, not the sum.
    pub eta_len: usize,
    /// Nanoseconds spent in forward solves (`B⁻¹·`: directions, basic-value
    /// recomputation, bound-flip batches).
    pub ftran_ns: u64,
    /// Nanoseconds spent in backward solves (`·B⁻¹`: dual prices, pivot
    /// rows).
    pub btran_ns: u64,
    /// Nanoseconds spent choosing entering columns (primal) and leaving
    /// rows (dual).
    pub pricing_ns: u64,
    /// Nanoseconds spent in ratio tests (primal Harris/Bland passes and the
    /// dual entering scan, bound-flip breakpoint walk included).
    pub ratio_ns: u64,
    /// Forward solves completed on the hyper-sparse (Gilbert–Peierls)
    /// path of the LU kernels.
    pub hyper_sparse_ftrans: u64,
    /// Backward solves completed on the hyper-sparse path.
    pub hyper_sparse_btrans: u64,
    /// LU kernel calls that ran — or mid-solve fell back to — the dense
    /// scan because the result density crossed the threshold.
    pub dense_fallbacks: u64,
    /// Kernel-workspace growth events after initial sizing — heap
    /// allocations on the per-pivot hot path, 0 in steady state (CI
    /// asserts this).
    pub kernel_allocs: u64,
}

impl SolveStats {
    /// Component-wise sum (used to aggregate phase and group stats);
    /// `eta_len` is a peak, so it merges by max.
    pub fn merge(&self, other: &SolveStats) -> SolveStats {
        SolveStats {
            iterations: self.iterations + other.iterations,
            refactorizations: self.refactorizations + other.refactorizations,
            presolve_rows: self.presolve_rows + other.presolve_rows,
            presolve_cols: self.presolve_cols + other.presolve_cols,
            etas: self.etas + other.etas,
            dual_pivots: self.dual_pivots + other.dual_pivots,
            bound_flips: self.bound_flips + other.bound_flips,
            eta_compactions: self.eta_compactions + other.eta_compactions,
            eta_len: self.eta_len.max(other.eta_len),
            ftran_ns: self.ftran_ns + other.ftran_ns,
            btran_ns: self.btran_ns + other.btran_ns,
            pricing_ns: self.pricing_ns + other.pricing_ns,
            ratio_ns: self.ratio_ns + other.ratio_ns,
            hyper_sparse_ftrans: self.hyper_sparse_ftrans + other.hyper_sparse_ftrans,
            hyper_sparse_btrans: self.hyper_sparse_btrans + other.hyper_sparse_btrans,
            dense_fallbacks: self.dense_fallbacks + other.dense_fallbacks,
            kernel_allocs: self.kernel_allocs + other.kernel_allocs,
        }
    }
}

/// Identifier of a variable in an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LpVarId(usize);

impl LpVarId {
    /// Index of the variable in the order of creation.
    pub fn index(&self) -> usize {
        self.0
    }

    /// The variable with the given creation index.
    ///
    /// Sessions share one id space with the [`LpProblem`] they were opened
    /// on (see [`LpSession`](crate::LpSession)), so callers that track
    /// variables by index can reconstruct ids; an index that was never
    /// created yields a dangling id.
    pub fn from_index(index: usize) -> Self {
        LpVarId(index)
    }
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// Outcome status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// The solve ran out of resources — its wall-clock deadline, its
    /// iteration cap (explicit via [`SolveBudget`](crate::SolveBudget), or
    /// the solver's built-in runaway backstop), or its refactorization cap —
    /// before reaching a verdict.
    ///
    /// This is a statement about *resources*, never about the problem:
    /// callers must not treat it as infeasibility (it must not trigger
    /// poly-degree escalation retries) and must not trust the accompanying
    /// objective/values.  The [`SolveStats`] on the solution record how much
    /// was spent before the budget ran out.
    BudgetExhausted,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::BudgetExhausted => "budget exhausted",
        };
        write!(f, "{s}")
    }
}

/// A solution returned by [`LpProblem::solve`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Status of the solve; values are meaningful only when `Optimal`.
    pub status: LpStatus,
    /// Objective value at the solution.
    pub objective: f64,
    /// Solver-effort and presolve counters of the solve that produced this
    /// solution.
    pub stats: SolveStats,
    values: Vec<f64>,
}

impl LpSolution {
    /// Assembles a solution (used by in-crate backends).
    pub(crate) fn new(status: LpStatus, objective: f64, values: Vec<f64>) -> Self {
        LpSolution {
            status,
            objective,
            stats: SolveStats::default(),
            values,
        }
    }

    /// Attaches solve statistics.
    pub(crate) fn with_stats(mut self, stats: SolveStats) -> Self {
        self.stats = stats;
        self
    }

    /// The value of a variable in the solution (0 unless the status is
    /// [`LpStatus::Optimal`]).
    pub fn value(&self, var: LpVarId) -> f64 {
        self.values.get(var.0).copied().unwrap_or(0.0)
    }

    /// All variable values in creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whether the solve succeeded.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

/// A linear program: minimize `c·x` subject to linear constraints, with each
/// variable either non-negative or free.
///
/// Constraint rows are stored sparsely (CSR, see [`SparseMatrix`]): the
/// builder emits rows with a handful of nonzeros each, and the simplex core
/// consumes them directly.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    names: Vec<String>,
    free: Vec<bool>,
    rows: SparseMatrix,
    cmps: Vec<Cmp>,
    rhs: Vec<f64>,
    objective: Vec<(LpVarId, f64)>,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        LpProblem::default()
    }

    /// Adds a variable.  `free = false` constrains it to be non-negative;
    /// `free = true` lets it take any real value.
    pub fn add_var(&mut self, name: impl Into<String>, free: bool) -> LpVarId {
        self.names.push(name.into());
        self.free.push(free);
        LpVarId(self.names.len() - 1)
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.cmps.len()
    }

    /// The name of a variable.
    pub fn var_name(&self, var: LpVarId) -> &str {
        &self.names[var.0]
    }

    /// Whether a variable is sign-unrestricted.
    pub fn is_free(&self, var: LpVarId) -> bool {
        self.free[var.0]
    }

    /// Adds the constraint `Σ coeff·var  cmp  rhs`.
    ///
    /// Duplicate variables in `terms` are accepted (their coefficients add up).
    pub fn add_constraint(&mut self, terms: Vec<(LpVarId, f64)>, cmp: Cmp, rhs: f64) {
        self.rows.push_row(terms.into_iter().map(|(v, c)| (v.0, c)));
        self.rows.grow_cols(self.names.len());
        self.cmps.push(cmp);
        self.rhs.push(rhs);
    }

    /// The sparse coefficient matrix of the constraint rows (columns are
    /// variable indices in creation order).
    pub fn matrix(&self) -> &SparseMatrix {
        &self.rows
    }

    /// The comparison operator of constraint `i`.
    // Takes a row index, so no confusion with `Ord::cmp` in practice.
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(&self, i: usize) -> Cmp {
        self.cmps[i]
    }

    /// The right-hand side of constraint `i`.
    pub fn rhs(&self, i: usize) -> f64 {
        self.rhs[i]
    }

    /// The `(variable, coefficient)` entries of constraint `i`.
    pub fn constraint_terms(&self, i: usize) -> impl Iterator<Item = (LpVarId, f64)> + '_ {
        self.rows.row(i).map(|(c, v)| (LpVarId(c), v))
    }

    /// Sets the objective `minimize Σ coeff·var`.
    pub fn set_objective(&mut self, terms: Vec<(LpVarId, f64)>) {
        self.objective = terms;
    }

    /// The objective terms as set by [`set_objective`](Self::set_objective).
    pub fn objective(&self) -> &[(LpVarId, f64)] {
        &self.objective
    }

    /// Solves the problem with the two-phase simplex method — the
    /// [`SparseBackend`](crate::SparseBackend) core without the presolve
    /// pass.  The callers of this one-shot path solve tiny systems (the
    /// entailment checks have ~3 variables and ~6 rows), where presolve
    /// costs more than it removes: 15.5 µs against 10.9 µs per LP.
    pub fn solve(&self) -> LpSolution {
        let tuning = SolverTuning {
            presolve: false,
            ..SolverTuning::default()
        };
        SimplexCore::solve_problem(self, &tuning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_maximization_via_minimization() {
        // max x + y s.t. x <= 2, y <= 3, x + y <= 4  => 4
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.set_objective(vec![(x, -1.0), (y, -1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.objective, -4.0);
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + y s.t. x + 2y = 4, 3x + 2y = 8  => x=2, y=1
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Eq, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Eq, 8.0);
        lp.set_objective(vec![(x, 1.0), (y, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn greater_equal_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  => x=7, y=3 obj 23
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Ge, 3.0);
        lp.set_objective(vec![(x, 2.0), (y, 3.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 23.0);
    }

    #[test]
    fn free_variables_can_go_negative() {
        // min x s.t. x >= -5 (x free)  => x = -5
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", true);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, -5.0);
        lp.set_objective(vec![(x, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), -5.0);
    }

    #[test]
    fn free_variable_equality_system() {
        // x + y = 1, x - y = 5, both free: x = 3, y = -2.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", true);
        let y = lp.add_var("y", true);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 5.0);
        lp.set_objective(vec![(x, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(y), -2.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        lp.set_objective(vec![(x, 1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        lp.set_objective(vec![(x, -1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // min x s.t. x + x >= 6  => x = 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0), (x, 1.0)], Cmp::Ge, 6.0);
        lp.set_objective(vec![(x, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 3.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min y s.t. -x - y <= -4 (i.e. x + y >= 4), x <= 1  => y = 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Cmp::Le, -4.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.set_objective(vec![(y, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate corner; must not cycle.
        let mut lp = LpProblem::new();
        let x1 = lp.add_var("x1", false);
        let x2 = lp.add_var("x2", false);
        let x3 = lp.add_var("x3", false);
        let x4 = lp.add_var("x4", false);
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(vec![(x1, 1.0)], Cmp::Le, 1.0);
        lp.set_objective(vec![(x1, -10.0), (x2, 57.0), (x3, 9.0), (x4, 24.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.objective, -1.0);
    }

    #[test]
    fn larger_random_feasible_problems_have_bounded_residuals() {
        // Deterministic pseudo-random LPs: minimize sum of vars subject to
        // cover constraints; verify feasibility of the returned point.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 1000.0
        };
        for _ in 0..5 {
            let mut lp = LpProblem::new();
            let vars: Vec<_> = (0..12)
                .map(|i| lp.add_var(format!("v{i}"), false))
                .collect();
            let mut rows = Vec::new();
            for _ in 0..8 {
                let terms: Vec<_> = vars.iter().map(|&v| (v, 0.2 + next())).collect();
                let rhs = 1.0 + 3.0 * next();
                rows.push((terms.clone(), rhs));
                lp.add_constraint(terms, Cmp::Ge, rhs);
            }
            lp.set_objective(vars.iter().map(|&v| (v, 1.0)).collect());
            let sol = lp.solve();
            assert!(sol.is_optimal());
            for (terms, rhs) in rows {
                let lhs: f64 = terms.iter().map(|&(v, c)| c * sol.value(v)).sum();
                assert!(lhs >= rhs - 1e-6, "constraint violated: {lhs} < {rhs}");
            }
            for &v in &vars {
                assert!(sol.value(v) >= -1e-9);
            }
        }
    }

    #[test]
    fn solve_stats_count_iterations_under_every_pricing_rule() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6 — needs phase 1 + pivots.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        lp.set_objective(vec![(x, 1.0), (y, 1.0)]);
        // Devex is the one pricing rule left.
        let sol = lp.solve();
        assert!(sol.is_optimal(), "{:?}", sol.status);
        assert_close(sol.objective, 2.8); // x = 1.6, y = 1.2
        assert!(sol.stats.iterations > 0, "no iterations reported");
        // The one-shot solve has no presolve stage and no warm rows to
        // restore dually.
        assert_eq!(sol.stats.presolve_rows, 0);
        assert_eq!(sol.stats.dual_pivots, 0);
        let merged = SolveStats {
            iterations: 2,
            refactorizations: 1,
            presolve_rows: 3,
            presolve_cols: 4,
            etas: 5,
            dual_pivots: 6,
            bound_flips: 2,
            eta_compactions: 3,
            eta_len: 10,
            ftran_ns: 100,
            btran_ns: 200,
            pricing_ns: 300,
            ratio_ns: 400,
            hyper_sparse_ftrans: 9,
            hyper_sparse_btrans: 8,
            dense_fallbacks: 2,
            kernel_allocs: 1,
        }
        .merge(&SolveStats {
            iterations: 5,
            dual_pivots: 1,
            bound_flips: 4,
            eta_len: 7,
            ftran_ns: 11,
            hyper_sparse_ftrans: 1,
            dense_fallbacks: 3,
            ..SolveStats::default()
        });
        assert_eq!(merged.iterations, 7);
        assert_eq!(merged.presolve_cols, 4);
        assert_eq!(merged.etas, 5);
        assert_eq!(merged.dual_pivots, 7);
        assert_eq!(merged.bound_flips, 6);
        assert_eq!(merged.eta_compactions, 3);
        // Peak, not sum: the longest eta file either side saw.
        assert_eq!(merged.eta_len, 10);
        assert_eq!(merged.ftran_ns, 111);
        assert_eq!(merged.btran_ns, 200);
        assert_eq!(merged.hyper_sparse_ftrans, 10);
        assert_eq!(merged.hyper_sparse_btrans, 8);
        assert_eq!(merged.dense_fallbacks, 5);
        assert_eq!(merged.kernel_allocs, 1);
    }

    #[test]
    fn solution_accessors() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        assert_eq!(lp.var_name(x), "x");
        assert_eq!(lp.num_vars(), 1);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        assert_eq!(lp.num_constraints(), 1);
        lp.set_objective(vec![(x, -1.0)]);
        let sol = lp.solve();
        assert_eq!(sol.values().len(), 1);
        assert_close(sol.value(x), 5.0);
        assert_eq!(LpStatus::Optimal.to_string(), "optimal");
    }
}
