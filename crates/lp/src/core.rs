//! The simplex core behind [`SparseBackend`](crate::SparseBackend) and
//! [`LpProblem::solve`](crate::LpProblem::solve).
//!
//! [`SimplexCore`] is the crate's one iteration loop: a revised simplex over
//! sparse `(row, coeff)` columns ([`ColumnStore`]) and the Markowitz LU
//! basis factorization with Forrest–Tomlin updates ([`LuFactor`]).
//!
//! The core is stateful and implements the full [`LpSession`] contract:
//!
//! * **re-minimize** — a new objective restarts phase 2 from the previous
//!   optimal basis and skips phase 1 entirely;
//! * **incremental rows** — an appended row extends the basis in place with
//!   the row's slack (or an artificial for equality rows).  A row the
//!   current point violates makes its new basic variable *negative*, and
//!   the next solve restores primal feasibility with **dual-simplex pivots**
//!   from the still-dual-feasible optimal basis — a handful of pivots
//!   instead of a phase-1 restart;
//! * **incremental columns** — a new variable enters nonbasic at zero and
//!   disturbs nothing.
//!
//! Numerical discipline: devex pricing, the Harris two-pass ratio test with
//! a bounded right-hand-side perturbation against degenerate cycling,
//! Bland's rule as the size-scaled last resort, periodic refactorization
//! from the pristine columns, and fresh-refactorized confirmation before
//! optimality or unboundedness is declared.  The dual-simplex driver gets
//! the same treatment: devex leaving-row weights, the bound-flipping ratio
//! test with stability-first tie-breaking, a Bland-style fallback, and a
//! hard cap after which the solve falls back to a cold phase-1 start rather
//! than risk a wrong verdict.

// Simplex kernels index several parallel vectors (directions, basic values)
// at once; indexed loops are the clearest form here.
#![allow(clippy::needless_range_loop)]

use std::collections::BTreeMap;
use std::time::Instant;

use crate::backend::LpSession;
use crate::factor::{KernelWs, LuFactor};
use crate::pricing::{bland_fallback_threshold, DevexPricer, PivotView, SolveBudget, SolverTuning};
use crate::simplex::{Cmp, LpProblem, LpSolution, LpStatus, LpVarId, SolveStats};

const EPS: f64 = 1e-9;
/// Minimum magnitude accepted for a pivot element.
const PIVOT_EPS: f64 = 1e-7;
/// Tolerance used when confirming unboundedness against fresh reduced costs.
const UNBOUNDED_EPS: f64 = 1e-6;
const FEAS_EPS: f64 = 1e-6;
/// Reduced costs this far below zero disqualify the warm basis from a dual
/// re-solve (numerics drifted; fall back to a cold start).
const DUAL_FEAS_EPS: f64 = 1e-6;

/// What a standard-form column stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    /// A (split) problem variable.
    Structural,
    /// A slack variable of an inequality row.
    Slack,
    /// An artificial variable (phase-1 only; banned from phase 2 and from
    /// entering during dual pivots).
    Artificial,
}

/// The constraint columns in standard form: one `(row, coeff)` list per
/// column plus a row-major mirror of the same entries — the adjacency the
/// devex α-scatter walks when the pivot row is hyper-sparse.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnStore {
    cols: Vec<Vec<(usize, f64)>>,
    rows: Vec<Vec<(u32, f64)>>,
}

impl ColumnStore {
    /// Number of columns.
    pub(crate) fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Appends an empty column, returning its index.
    pub(crate) fn push_col(&mut self) -> usize {
        self.cols.push(Vec::new());
        self.cols.len() - 1
    }

    /// Adds the entry `val` at (`row`, `j`).
    pub(crate) fn push_entry(&mut self, j: usize, row: usize, val: f64) {
        self.cols[j].push((row, val));
        if self.rows.len() <= row {
            self.rows.resize_with(row + 1, Vec::new);
        }
        self.rows[row].push((j as u32, val));
    }

    /// Visits the nonzero `(row, value)` entries of column `j`.
    pub(crate) fn for_each(&self, j: usize, f: &mut dyn FnMut(usize, f64)) {
        for &(r, a) in &self.cols[j] {
            f(r, a);
        }
    }

    /// The dot product of column `j` with a row-indexed vector.
    fn dot(&self, j: usize, x: &[f64]) -> f64 {
        self.cols[j].iter().map(|&(r, a)| a * x[r]).sum()
    }
}

/// Outcome of the dual-simplex feasibility restoration.
enum DualOutcome {
    /// Primal feasibility restored; the basis is optimal for the old costs.
    Restored,
    /// A violated row admits no entering column: the system is primal
    /// infeasible (confirmed by a cold solve before it is reported).
    Infeasible,
    /// Internal iteration cap or numerics — restart cold instead.
    GaveUp,
    /// The session's [`SolveBudget`] ran out mid-restoration.  Unlike
    /// `GaveUp`, this must *not* restart cold (that would burn more time the
    /// caller no longer has) — the minimize reports
    /// [`LpStatus::BudgetExhausted`] instead.
    Exhausted,
}

/// The unified simplex state (see the [module docs](self)).
pub(crate) struct SimplexCore {
    /// Problem variable → (positive column, optional negative column).
    var_cols: Vec<(usize, Option<usize>)>,
    /// Standard-form constraint columns.
    cols: ColumnStore,
    kind: Vec<ColKind>,
    /// Per-column upper bound (`f64::INFINITY` unless a singleton `≤` row
    /// was absorbed at initial load; every column's lower bound is 0).
    up: Vec<f64>,
    /// Nonbasic-at-upper flags; a set flag always implies the column is
    /// nonbasic, and contributes `up[j]·A_j` to the effective right-hand
    /// side.
    at_upper: Vec<bool>,
    /// Singleton `≤` rows folded into `up` at initial load — they occupy no
    /// constraint row but still count toward `num_constraints`.
    absorbed_rows: usize,
    /// Absorb eligible singleton rows into column bounds (true only while
    /// `open_with` loads the initial rows; incremental rows stay rows so the
    /// warm-extension bookkeeping never changes shape).
    absorb_bounds: bool,
    /// Right-hand sides, sign-normalized at row entry so the initial basic
    /// value of every row is non-negative.
    b: Vec<f64>,
    /// Per-row column forming the from-scratch initial basis (slack with
    /// coefficient +1, or an artificial).
    init_basis: Vec<usize>,
    basis: Vec<usize>,
    is_basic: Vec<bool>,
    /// The basis factorization.
    factor: LuFactor,
    /// The factorization no longer matches `basis` (declined update or row
    /// extension); rebuilt from pristine columns before the next pivots.
    factor_stale: bool,
    /// Current basic values, aligned with `basis`.  May carry *negative*
    /// entries after warm row extension.
    xb: Vec<f64>,
    /// Whether `basis`/`factor`/`xb` describe the state left by an
    /// `Optimal` minimize (false forces a cold rebuild).
    warm: bool,
    /// Standard-form costs of the last successful minimize — the objective
    /// the warm basis is dual feasible for, which is what the dual-simplex
    /// restoration prices with.
    last_costs: Option<Vec<f64>>,
    /// Lifetime pivot counter (diagnostics only).
    pivots: usize,
    /// Pivots applied since the factorization was last rebuilt from pristine
    /// columns.  Gates the periodic refreshes.
    stale_pivots: usize,
    /// Per-`minimize` solver counters (reset at each `minimize`).
    stats: SolveStats,
    /// Whether `xb` currently carries an anti-degeneracy shift (washed out
    /// by the next refactorization; must be washed before values are
    /// extracted).
    xb_shifted: bool,
    /// The session's resource budget ([`SolverTuning::budget`]).  The
    /// deadline is absolute and the spend counters below are *never* reset,
    /// so the budget covers the session's whole lifetime — every minimize,
    /// warm re-solve, and in-session extension draws from the same pool.
    budget: SolveBudget,
    /// Lifetime iterations charged against `budget.max_iters` (unlike
    /// `stats.iterations`, which resets per minimize).
    budget_iters: usize,
    /// Lifetime refactorizations charged against
    /// `budget.max_refactorizations`.
    budget_refactorizations: usize,
    /// How often (in loop iterations) the wall-clock deadline is polled
    /// (from [`SolverTuning::deadline_check_period`], clamped to ≥ 1).
    deadline_check_period: usize,
    /// `factor.compactions()` at the start of the current minimize; the
    /// per-solve [`SolveStats::eta_compactions`] is the delta.
    compaction_base: usize,
    /// The session-lifetime kernel workspace: every ftran/btran of the hot
    /// loop writes into these buffers, so pivots allocate nothing.
    ws: KernelWs,
    /// Reusable staging buffer for sparse right-hand sides (column entries,
    /// basic costs, bound-flip batches).
    rhs_buf: Vec<(usize, f64)>,
    /// Devex α-scatter workspace: accumulated pivot-row entries by column
    /// (all-zero outside `alpha_touched` between pivots).
    alpha_scratch: Vec<f64>,
    /// Columns the last α-scatter wrote (may contain duplicates).
    alpha_touched: Vec<usize>,
    /// Sorted, deduplicated copy of the pivot row's support (scratch).
    alpha_rows: Vec<usize>,
    /// `ws.counters()` at the start of the current minimize; the per-solve
    /// kernel counters in [`SolveStats`] are deltas against it.
    ws_base: (u64, u64, u64, u64),
}

impl SimplexCore {
    /// Opens a core over the problem's variables and constraint rows under
    /// the given tuning (presolve is the backend wrapper's business and
    /// ignored here).
    pub(crate) fn open_with(problem: &LpProblem, tuning: &SolverTuning) -> SimplexCore {
        let mut core = SimplexCore {
            var_cols: Vec::new(),
            cols: ColumnStore::default(),
            kind: Vec::new(),
            up: Vec::new(),
            at_upper: Vec::new(),
            absorbed_rows: 0,
            absorb_bounds: true,
            b: Vec::new(),
            init_basis: Vec::new(),
            basis: Vec::new(),
            is_basic: Vec::new(),
            factor: LuFactor::default(),
            factor_stale: false,
            xb: Vec::new(),
            warm: false,
            last_costs: None,
            pivots: 0,
            stale_pivots: 0,
            stats: SolveStats::default(),
            xb_shifted: false,
            budget: tuning.budget,
            budget_iters: 0,
            budget_refactorizations: 0,
            deadline_check_period: tuning.deadline_check_period.max(1),
            compaction_base: 0,
            ws: KernelWs::default(),
            rhs_buf: Vec::new(),
            alpha_scratch: Vec::new(),
            alpha_touched: Vec::new(),
            alpha_rows: Vec::new(),
            ws_base: (0, 0, 0, 0),
        };
        for v in 0..problem.num_vars() {
            core.push_var(problem.is_free(LpVarId::from_index(v)));
        }
        for i in 0..problem.num_constraints() {
            let terms: Vec<(LpVarId, f64)> = problem.constraint_terms(i).collect();
            core.append_row(&terms, problem.cmp(i), problem.rhs(i));
        }
        core.absorb_bounds = false;
        core
    }

    /// Solves one problem in place: open + a single `minimize` of the
    /// problem's own objective.
    pub(crate) fn solve_problem(problem: &LpProblem, tuning: &SolverTuning) -> LpSolution {
        let mut core = SimplexCore::open_with(problem, tuning);
        core.minimize(problem.objective())
    }

    fn push_var(&mut self, free: bool) -> LpVarId {
        let pos = self.new_col(ColKind::Structural);
        let neg = free.then(|| self.new_col(ColKind::Structural));
        self.var_cols.push((pos, neg));
        LpVarId::from_index(self.var_cols.len() - 1)
    }

    fn new_col(&mut self, kind: ColKind) -> usize {
        let j = self.cols.push_col();
        self.kind.push(kind);
        self.is_basic.push(false);
        self.up.push(f64::INFINITY);
        self.at_upper.push(false);
        j
    }

    /// Splits free variables and accumulates a constraint row into per-column
    /// entries (sorted and deduplicated by the map).
    fn split_row(&self, terms: &[(LpVarId, f64)]) -> BTreeMap<usize, f64> {
        let mut entries: BTreeMap<usize, f64> = BTreeMap::new();
        for &(v, coeff) in terms {
            let (pos, neg) = self.var_cols[v.index()];
            *entries.entry(pos).or_insert(0.0) += coeff;
            if let Some(neg) = neg {
                *entries.entry(neg).or_insert(0.0) -= coeff;
            }
        }
        entries.retain(|_, v| *v != 0.0);
        entries
    }

    /// Appends a row in standard form (sign-normalized, slack attached, an
    /// artificial created when the slack cannot seed the initial basis).
    /// When the session is warm, the basis is extended in place.
    fn append_row(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        let mut entries = self.split_row(terms);
        let (mut rhs, mut cmp) = (rhs, cmp);
        if rhs < 0.0 {
            for v in entries.values_mut() {
                *v = -*v;
            }
            rhs = -rhs;
            cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
        // A singleton `a·x ≤ rhs` row with `a > 0` at initial load is a plain
        // upper bound: fold it into `up` instead of spending a constraint
        // row, a slack column, and ratio-test work on it.  (Free variables
        // split into two columns and never qualify; incremental rows stay
        // rows so warm extension keeps its shape.)
        if self.absorb_bounds && cmp == Cmp::Le && entries.len() == 1 {
            let (&col, &a) = entries.iter().next().expect("len checked");
            if a > EPS && self.kind[col] == ColKind::Structural {
                let bound = rhs / a;
                if bound < self.up[col] {
                    self.up[col] = bound;
                }
                self.absorbed_rows += 1;
                return;
            }
        }
        let row = self.b.len();
        for (&col, &val) in &entries {
            self.cols.push_entry(col, row, val);
        }
        let slack = match cmp {
            Cmp::Le | Cmp::Ge => {
                let coeff = if cmp == Cmp::Le { 1.0 } else { -1.0 };
                let col = self.new_col(ColKind::Slack);
                self.cols.push_entry(col, row, coeff);
                Some((col, coeff))
            }
            Cmp::Eq => None,
        };
        let init_col = match slack {
            Some((col, coeff)) if coeff > 0.0 => col,
            _ => {
                let art = self.new_col(ColKind::Artificial);
                self.cols.push_entry(art, row, 1.0);
                art
            }
        };
        self.b.push(rhs);
        self.init_basis.push(init_col);

        if self.warm {
            self.extend_basis(row, &entries, slack.map(|(col, _)| col), init_col, rhs);
        }
    }

    /// Extends the warm basis with a freshly appended row.
    ///
    /// The new basic variable is the row's own slack (or, for equality
    /// rows, an artificial whose coefficient sign makes its value
    /// non-positive); a violated row leaves that basic *negative*, to be
    /// repaired by dual pivots at the next solve.  The factorization is
    /// marked stale: the refactorization before that solve recomputes every
    /// basic value, however many rows arrive in between, so the new row's
    /// value is only a placeholder here.
    fn extend_basis(
        &mut self,
        row: usize,
        entries: &BTreeMap<usize, f64>,
        slack: Option<usize>,
        init_col: usize,
        rhs: f64,
    ) {
        let basic_col = match slack {
            Some(col) => col,
            // Equality rows: an artificial whose sign keeps the basic value
            // ≤ 0, so the dual pivots drive it to its bound (0) and retire
            // it.  `init_col` (coefficient +1) serves when the residual at
            // the current point is non-positive; a violated direction gets a
            // fresh −1 artificial.
            None if rhs - self.row_activity(entries) <= EPS => init_col,
            None => {
                let art = self.new_col(ColKind::Artificial);
                self.cols.push_entry(art, row, -1.0);
                art
            }
        };
        self.factor_stale = true;
        self.basis.push(basic_col);
        self.is_basic[basic_col] = true;
        self.xb.push(0.0);
    }

    /// A row's activity `Σ a_j·x_j` at the current point: basic values,
    /// nonbasic-at-upper columns at their bound, everything else zero.
    fn row_activity(&self, entries: &BTreeMap<usize, f64>) -> f64 {
        entries
            .iter()
            .map(|(&col, &a)| {
                if self.is_basic[col] {
                    let k = self.basis.iter().position(|&c| c == col).expect("basic");
                    a * self.xb[k]
                } else if self.at_upper[col] {
                    a * self.up[col]
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Resets the solver state to the from-scratch initial basis.
    fn rebuild(&mut self) {
        let m = self.b.len();
        self.basis = self.init_basis.clone();
        for flag in self.is_basic.iter_mut() {
            *flag = false;
        }
        for flag in self.at_upper.iter_mut() {
            *flag = false;
        }
        for &col in &self.basis {
            self.is_basic[col] = true;
        }
        // The initial basis is one slack/artificial with coefficient +1 per
        // row: B = I.
        self.factor.set_identity(m);
        self.factor_stale = false;
        self.xb = self.b.clone();
        self.stale_pivots = 0;
        self.xb_shifted = false;
        self.last_costs = None;
    }

    /// `y = c_Bᵀ B⁻¹` via btran, into the caller's reusable buffer.  The
    /// basic-cost right-hand side is loaded *sparse* — most basics (slacks,
    /// retired artificials, off-objective structurals) cost 0 — so the
    /// hyper-sparse kernel engages on shallow objectives.
    pub(crate) fn dual_prices_into(&mut self, col_costs: &[f64], y: &mut Vec<f64>) {
        let m = self.basis.len();
        let mut entries = std::mem::take(&mut self.rhs_buf);
        entries.clear();
        for (i, &col) in self.basis.iter().enumerate() {
            let c = col_costs.get(col).copied().unwrap_or(0.0);
            if c != 0.0 {
                entries.push((i, c));
            }
        }
        self.ws.load_sparse(&entries, m);
        self.rhs_buf = entries;
        let t = Instant::now();
        self.factor.btran_ws(&mut self.ws);
        self.stats.btran_ns += t.elapsed().as_nanos() as u64;
        self.ws.copy_sol_into(y);
    }

    /// Reduced cost of one column under dual prices `y`.
    fn reduced_cost(&self, j: usize, col_costs: &[f64], y: &[f64]) -> f64 {
        col_costs[j] - self.cols.dot(j, y)
    }

    /// `d = B⁻¹ A_j` via the sparse-rhs ftran kernel, into the caller's
    /// reusable buffer (timed into the per-solve profile).
    pub(crate) fn direction_into(&mut self, j: usize, out: &mut Vec<f64>) {
        let mut entries = std::mem::take(&mut self.rhs_buf);
        entries.clear();
        self.cols.for_each(j, &mut |r, v| entries.push((r, v)));
        self.ws.load_sparse(&entries, self.basis.len());
        self.rhs_buf = entries;
        let t = Instant::now();
        self.factor.ftran_ws(&mut self.ws);
        self.stats.ftran_ns += t.elapsed().as_nanos() as u64;
        self.ws.copy_sol_into(out);
    }

    /// Row `p` of `B⁻¹` (a hyper-sparse unit-rhs btran, timed as btran
    /// work), into the caller's reusable buffer.
    pub(crate) fn inverse_row_into(&mut self, p: usize, out: &mut Vec<f64>) {
        let t = Instant::now();
        self.factor.inverse_row_ws(p, &mut self.ws);
        self.stats.btran_ns += t.elapsed().as_nanos() as u64;
        self.ws.copy_sol_into(out);
    }

    /// Performs the basis change bookkeeping and the factorization update.
    ///
    /// `enter_from` is the entering column's current (nonbasic) value — 0 or
    /// its upper bound — and `delta` the signed change of that value, so the
    /// entering basic value is `enter_from + delta`.  `leave_at_upper`
    /// records which bound the leaving column exits at.
    fn pivot_bounded(
        &mut self,
        p: usize,
        entering: usize,
        d: &[f64],
        enter_from: f64,
        delta: f64,
        leave_at_upper: bool,
    ) {
        let m = self.basis.len();
        for i in 0..m {
            if i != p {
                self.xb[i] -= delta * d[i];
            }
        }
        self.xb[p] = enter_from + delta;
        let leaving = self.basis[p];
        self.is_basic[leaving] = false;
        self.at_upper[leaving] = leave_at_upper;
        self.is_basic[entering] = true;
        self.at_upper[entering] = false;
        self.basis[p] = entering;
        if self.factor.update(p, d).is_ok() {
            self.stats.etas += 1;
            self.stats.eta_len = self.stats.eta_len.max(self.factor.eta_count());
        } else {
            // Unstable or saturated update: rebuild from pristine columns
            // before the next pivots.
            self.factor_stale = true;
        }
        self.pivots += 1;
        self.stale_pivots = self.stale_pivots.saturating_add(1);
    }

    /// Nudges every (near-)zero basic value by a tiny, row-unique amount —
    /// the bounded right-hand-side perturbation that breaks degenerate pivot
    /// cycles (see [`degeneracy_shift`](crate::pricing::degeneracy_shift)).
    /// Temporary: any refactorization recomputes `xb` from the pristine
    /// right-hand sides.
    fn shift_degenerate_basics(&mut self, round: usize) {
        for (i, x) in self.xb.iter_mut().enumerate() {
            if x.abs() <= FEAS_EPS {
                *x += crate::pricing::degeneracy_shift(i, round);
            }
        }
        self.xb_shifted = true;
    }

    /// The right-hand side with every nonbasic-at-upper column's
    /// contribution subtracted: `b_eff = b − Σ up_j·A_j` over set
    /// `at_upper` flags.
    fn effective_b(&self) -> Vec<f64> {
        let mut beff = self.b.clone();
        for (j, &at_up) in self.at_upper.iter().enumerate() {
            if at_up {
                let u = self.up[j];
                self.cols.for_each(j, &mut |r, a| beff[r] -= u * a);
            }
        }
        beff
    }

    /// Rebuilds the factorization from the pristine basis columns and
    /// recomputes `x_B = B⁻¹ b_eff`; returns `false` on a numerically
    /// singular basis, leaving the state untouched.
    fn refactorize(&mut self) -> bool {
        let m = self.basis.len();
        if !self.factor.refactorize(m, &self.basis, &self.cols) {
            return false;
        }
        let beff = self.effective_b();
        self.ws.load_dense(&beff);
        let t = Instant::now();
        self.factor.ftran_ws(&mut self.ws);
        self.stats.ftran_ns += t.elapsed().as_nanos() as u64;
        self.ws.copy_sol_into(&mut self.xb);
        self.stale_pivots = 0;
        self.stats.refactorizations += 1;
        self.budget_refactorizations += 1;
        self.xb_shifted = false;
        self.factor_stale = false;
        true
    }

    /// Direct wall-clock deadline poll, used right after the expensive
    /// refactorization/compaction points where a whole refresh just ran —
    /// the per-pivot period check could otherwise let a hostile deadline
    /// slip by a full period of heavy work.
    fn deadline_hit(&self) -> bool {
        !self.budget.is_unlimited() && self.budget.deadline_passed()
    }

    /// Whether the session's budget has run out, checked cooperatively at
    /// every pivot (iteration/refactorization caps) and every
    /// [`SolverTuning::deadline_check_period`]-th pivot of a loop (the wall
    /// clock — `Instant::now()` per pivot would dominate cheap pivots).
    fn budget_exhausted(&self, iter_in_loop: usize) -> bool {
        if self.budget.is_unlimited() {
            return false;
        }
        self.budget.iters_remaining(self.budget_iters) == 0
            || self
                .budget
                .refactorizations_remaining(self.budget_refactorizations)
                == 0
            || (iter_in_loop.is_multiple_of(self.deadline_check_period)
                && self.budget.deadline_passed())
    }

    /// Runs primal simplex iterations for the given standard-form column
    /// costs.  `ban_artificials` excludes artificial columns from entering
    /// (phase 2).
    fn iterate(
        &mut self,
        col_costs: &[f64],
        ban_artificials: bool,
        max_iters: usize,
    ) -> Result<(), LpStatus> {
        let bland_after = bland_fallback_threshold(self.basis.len(), self.cols.num_cols());
        // How many pivots of drift the factorization may accumulate before
        // it is recomputed from the pristine columns — both periodically and
        // before declaring optimality.
        let refresh_period = 100;
        let mut pricer = DevexPricer::new(self.cols.num_cols());
        let mut degen_streak = 0usize;
        let mut shift_rounds = 0usize;
        // Dual prices are maintained incrementally (one btran per pivot) and
        // recomputed from scratch at refresh points and before any
        // optimality/unboundedness verdict.  The direction/pivot-row/price
        // buffers below are the loop's only vectors: allocated (at most)
        // once per phase, written in place by the workspace kernels.
        let mut y: Vec<f64> = Vec::new();
        self.dual_prices_into(col_costs, &mut y);
        let mut d: Vec<f64> = Vec::new();
        let mut rho: Vec<f64> = Vec::new();
        // Chooses the entering column by *bound-adjusted* reduced cost: an
        // at-lower column improves when its reduced cost is negative, an
        // at-upper column when it is positive — the pricer sees the negated
        // value for the latter so "most negative wins" covers both.
        // Zero-width columns are fixed and never enter.  Falls back to
        // Bland's first improving column in the last-resort regime.
        let pick = |state: &SimplexCore,
                    pricer: &mut DevexPricer,
                    costs: &[f64],
                    y: &[f64],
                    bland: bool|
         -> Option<usize> {
            let candidate = |j: usize| {
                !(state.is_basic[j]
                    || ban_artificials && state.kind[j] == ColKind::Artificial
                    || state.up[j] <= EPS)
            };
            let adj_rc = |j: usize| {
                let rc = state.reduced_cost(j, costs, y);
                if state.at_upper[j] {
                    -rc
                } else {
                    rc
                }
            };
            if bland {
                (0..state.cols.num_cols()).find(|&j| candidate(j) && adj_rc(j) < -EPS)
            } else {
                pricer.select(state.cols.num_cols(), &candidate, &adj_rc)
            }
        };
        for iter in 0..max_iters {
            self.stats.iterations += 1;
            self.budget_iters += 1;
            if self.budget_exhausted(iter) {
                return Err(LpStatus::BudgetExhausted);
            }
            if self.factor_stale || self.stale_pivots >= refresh_period {
                // Also washes out any live anti-degeneracy shift: the basic
                // values are recomputed from the pristine right-hand sides.
                self.refactorize();
                if self.deadline_hit() {
                    return Err(LpStatus::BudgetExhausted);
                }
                self.dual_prices_into(col_costs, &mut y);
            }
            let bland = iter >= bland_after;
            if !bland && degen_streak >= crate::pricing::DEGEN_PIVOT_STREAK {
                // A cycle-length streak of zero-length steps: engage the
                // bounded right-hand-side perturbation so the tied ratio
                // tests pick distinct rows and strictly positive steps.
                shift_rounds += 1;
                self.shift_degenerate_basics(shift_rounds);
                degen_streak = 0;
            }
            let t_price = Instant::now();
            let mut entering = pick(self, &mut pricer, col_costs, &y, bland);
            self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
            if entering.is_none() {
                // Recompute the incrementally maintained duals before
                // trusting the verdict, and — when a full period of drift
                // has accumulated — refactorize the basis too.
                if self.stale_pivots >= refresh_period {
                    self.refactorize();
                }
                self.dual_prices_into(col_costs, &mut y);
                let t_price = Instant::now();
                entering = pick(self, &mut pricer, col_costs, &y, bland);
                self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
                if entering.is_none() {
                    return Ok(());
                }
            }
            let entering = entering.expect("checked above");
            // Direction of motion: an at-upper entering column *decreases*
            // toward its lower bound, so every basic response flips sign.
            let dir = if self.at_upper[entering] { -1.0 } else { 1.0 };

            self.direction_into(entering, &mut d);
            let t_ratio = Instant::now();
            let leaving = if bland {
                self.ratio_test(&d, dir, ban_artificials)
            } else {
                self.harris_ratio_test(&d, dir, ban_artificials)
            };
            self.stats.ratio_ns += t_ratio.elapsed().as_nanos() as u64;
            // Exact step to the blocking row, if any.
            let theta_row = leaving.map(|p| {
                self.blocking_value(p, dir * d[p])
                    / self.blocking_rate(p, dir * d[p], ban_artificials)
            });
            let uq = self.up[entering];
            if uq.is_finite() && theta_row.is_none_or(|t| uq <= t + EPS) {
                // The entering column's own bound blocks first: a bound
                // flip — the point moves, the basis doesn't.
                let m = self.basis.len();
                for i in 0..m {
                    self.xb[i] -= uq * dir * d[i];
                }
                self.at_upper[entering] = !self.at_upper[entering];
                self.stats.bound_flips += 1;
                if uq > FEAS_EPS {
                    degen_streak = 0;
                }
                continue;
            }
            let Some(p) = leaving else {
                // Apparent unboundedness: refactorize and re-confirm before
                // reporting, so drift (or a live shift) cannot cause a false
                // positive.
                self.refactorize();
                self.dual_prices_into(col_costs, &mut y);
                let rc = self.reduced_cost(entering, col_costs, &y);
                let adj = if self.at_upper[entering] { -rc } else { rc };
                if adj > -UNBOUNDED_EPS {
                    continue;
                }
                self.direction_into(entering, &mut d);
                if d.iter()
                    .enumerate()
                    .any(|(i, &di)| self.blocking_rate(i, dir * di, ban_artificials) > PIVOT_EPS)
                {
                    continue;
                }
                return Err(LpStatus::Unbounded);
            };
            let theta = theta_row.expect("leaving row implies a ratio");
            if theta.abs() <= FEAS_EPS {
                degen_streak += 1;
            } else {
                degen_streak = 0;
            }
            let rc_entering = self.reduced_cost(entering, col_costs, &y);
            // Pre-pivot pivot row ρ = (B⁻¹)ₚ: feeds the devex weight update
            // (α_j = ρ·A_j) and the incremental dual-price update.
            self.inverse_row_into(p, &mut rho);
            {
                // The weight propagation's α_j = ρ·A_j scan is pricing
                // work — timed into the same bucket as `select`.  A
                // hyper-sparse ρ turns the scan inside out: α_j can only be
                // nonzero on columns adjacent to ρ's support rows, so
                // scatter along the row-major mirror instead of dotting
                // every column against the dense ρ.  Ascending-row
                // accumulation keeps each α bit-identical to the full dot
                // (the skipped terms are exact zeros), so the pivot
                // sequence cannot depend on which kernel path produced ρ.
                let t_price = Instant::now();
                let mut scratch = std::mem::take(&mut self.alpha_scratch);
                let mut touched = std::mem::take(&mut self.alpha_touched);
                let mut support = std::mem::take(&mut self.alpha_rows);
                for &j in &touched {
                    scratch[j] = 0.0;
                }
                touched.clear();
                let scattered = self.ws.sparse;
                if scattered {
                    if scratch.len() < self.cols.num_cols() {
                        scratch.resize(self.cols.num_cols(), 0.0);
                    }
                    support.clear();
                    support.extend_from_slice(&self.ws.pattern);
                    support.sort_unstable();
                    support.dedup();
                    for &r in &support {
                        let rr = rho[r];
                        if rr == 0.0 {
                            continue;
                        }
                        let Some(adj) = self.cols.rows.get(r) else {
                            continue;
                        };
                        for &(j, a) in adj {
                            scratch[j as usize] += a * rr;
                            touched.push(j as usize);
                        }
                    }
                }
                let cols = &self.cols;
                let is_basic = &self.is_basic;
                let kind = &self.kind;
                let candidate =
                    |j: usize| !(is_basic[j] || ban_artificials && kind[j] == ColKind::Artificial);
                let scratch_ref = &scratch;
                let alpha = |j: usize| {
                    if scattered {
                        scratch_ref[j]
                    } else {
                        cols.dot(j, &rho)
                    }
                };
                pricer.observe_pivot(&PivotView {
                    entering,
                    leaving: self.basis[p],
                    alpha_q: d[p],
                    n_cols: cols.num_cols(),
                    candidate: &candidate,
                    alpha: &alpha,
                    touched: scattered.then_some(&touched[..]),
                });
                self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
                self.alpha_scratch = scratch;
                self.alpha_touched = touched;
                self.alpha_rows = support;
            }
            let dp = d[p];
            // The leaving basic exits at whichever bound blocked: its upper
            // when it was *rising* (finite bounds only — the [0,0]
            // artificial guard and plain lower blocks both exit at 0).
            let leave_at_upper = dir * dp < 0.0 && self.up[self.basis[p]].is_finite();
            let enter_from = if dir < 0.0 { uq } else { 0.0 };
            self.pivot_bounded(p, entering, &d, enter_from, dir * theta, leave_at_upper);
            // Classic dual-price update: Δy = (r_q / d_p) · ρ — it zeroes
            // the entering column's reduced cost.
            if rc_entering.abs() > EPS {
                let scale = rc_entering / dp;
                for (yr, rr) in y.iter_mut().zip(&rho) {
                    *yr += scale * rr;
                }
            }
        }
        // The built-in runaway backstop tripped: the solver ran out of
        // resources without a verdict — same contract as an explicit budget.
        Err(LpStatus::BudgetExhausted)
    }

    /// The rate at which row `i`'s basic value approaches its blocking bound
    /// as the entering variable moves (`ei` is the *signed* basic response
    /// `dir·d_i`), or 0 when the row does not block.
    ///
    /// Ordinary rows block when `ei > 0` (the basic value falls toward 0),
    /// and when `ei < 0` with a finite upper bound (the value rises toward
    /// it).  A row whose basic variable is a *zero-valued artificial* also
    /// blocks when `ei < 0`: the artificial would re-grow above zero,
    /// silently abandoning the (equality) row it stands for — it must leave
    /// the basis in a degenerate pivot instead.
    /// `guard_artificials` is set in phase 2 only: there a leaving artificial
    /// can never re-enter (artificials are banned from pricing), so each
    /// guard pivot permanently retires one.  In phase 1 artificials are
    /// ordinary objective variables and the guard would two-cycle them.
    fn blocking_rate(&self, i: usize, ei: f64, guard_artificials: bool) -> f64 {
        if ei > PIVOT_EPS {
            ei
        } else if ei < -PIVOT_EPS {
            let col = self.basis[i];
            if self.up[col].is_finite()
                || guard_artificials
                    && self.kind[col] == ColKind::Artificial
                    && self.xb[i] <= FEAS_EPS
            {
                -ei
            } else {
                0.0
            }
        } else {
            0.0
        }
    }

    /// Distance of row `i`'s basic value to the bound it blocks at
    /// (companion of [`blocking_rate`](Self::blocking_rate)).
    fn blocking_value(&self, i: usize, ei: f64) -> f64 {
        if ei > PIVOT_EPS {
            self.xb[i]
        } else {
            let col = self.basis[i];
            if self.up[col].is_finite() {
                self.up[col] - self.xb[i]
            } else {
                // The [0, 0] artificial guard: distance to its upper bound 0.
                -self.xb[i]
            }
        }
    }

    /// The classic exact ratio test with smallest-basis-index tie-breaking —
    /// the form Bland's anti-cycling guarantee requires, used only in the
    /// last-resort Bland regime.  `dir` is the entering column's direction
    /// of motion (−1 when it decreases from its upper bound).
    fn ratio_test(&self, d: &[f64], dir: f64, guard_artificials: bool) -> Option<usize> {
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for (i, &di) in d.iter().enumerate() {
            let ei = dir * di;
            let rate = self.blocking_rate(i, ei, guard_artificials);
            if rate > PIVOT_EPS {
                let ratio = self.blocking_value(i, ei) / rate;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leaving.is_some_and(|l| self.basis[i] < self.basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        leaving
    }

    /// Two-pass Harris ratio test: pass 1 relaxes the feasibility tolerance
    /// to find the loosest admissible step, pass 2 picks the numerically
    /// largest pivot among rows whose exact ratio stays within it —
    /// degenerate corners get stable pivots instead of tiny cycling ones.
    fn harris_ratio_test(&self, d: &[f64], dir: f64, guard_artificials: bool) -> Option<usize> {
        let mut theta_relaxed = f64::INFINITY;
        for (i, &di) in d.iter().enumerate() {
            let ei = dir * di;
            let rate = self.blocking_rate(i, ei, guard_artificials);
            if rate > PIVOT_EPS {
                let relaxed = (self.blocking_value(i, ei) + crate::pricing::HARRIS_RELAX) / rate;
                if relaxed < theta_relaxed {
                    theta_relaxed = relaxed;
                }
            }
        }
        if !theta_relaxed.is_finite() {
            return None;
        }
        let mut leaving: Option<usize> = None;
        let mut best_pivot = 0.0;
        for (i, &di) in d.iter().enumerate() {
            let ei = dir * di;
            let rate = self.blocking_rate(i, ei, guard_artificials);
            if rate > PIVOT_EPS && self.blocking_value(i, ei) / rate <= theta_relaxed {
                let better = rate > best_pivot
                    || (rate == best_pivot
                        && leaving.is_some_and(|l| self.basis[i] < self.basis[l]));
                if better {
                    best_pivot = rate;
                    leaving = Some(i);
                }
            }
        }
        leaving
    }

    /// Phase 1 over the artificial columns; returns `false` when the system
    /// is infeasible.
    fn run_phase1(&mut self, max_iters: usize) -> Result<bool, LpStatus> {
        let mut costs = vec![0.0; self.cols.num_cols()];
        let mut any = false;
        for (j, &k) in self.kind.iter().enumerate() {
            if k == ColKind::Artificial {
                costs[j] = 1.0;
                any = true;
            }
        }
        if !any {
            return Ok(true);
        }
        self.iterate(&costs, false, max_iters)?;
        if self.xb_shifted {
            // Wash the anti-degeneracy shift out before judging feasibility.
            self.refactorize();
        }
        let artificial_sum: f64 = self
            .basis
            .iter()
            .zip(&self.xb)
            .filter(|&(&col, _)| self.kind[col] == ColKind::Artificial)
            .map(|(_, &v)| v)
            .sum();
        if artificial_sum > FEAS_EPS {
            return Ok(false);
        }
        self.drive_out_artificials();
        Ok(true)
    }

    /// Pivots zero-valued basic artificials out of the basis when a
    /// non-artificial column with a usable pivot element exists.
    fn drive_out_artificials(&mut self) {
        let m = self.basis.len();
        let mut rho: Vec<f64> = Vec::new();
        let mut d: Vec<f64> = Vec::new();
        for p in 0..m {
            if self.kind[self.basis[p]] != ColKind::Artificial {
                continue;
            }
            self.inverse_row_into(p, &mut rho);
            let candidate = (0..self.cols.num_cols()).find(|&j| {
                if self.is_basic[j] || self.kind[j] == ColKind::Artificial {
                    return false;
                }
                self.cols.dot(j, &rho).abs() > PIVOT_EPS
            });
            if let Some(j) = candidate {
                self.direction_into(j, &mut d);
                // The artificial leaves exactly at 0, so the point barely
                // moves; an at-upper entering column simply becomes basic at
                // (about) its bound.
                let enter_from = if self.at_upper[j] { self.up[j] } else { 0.0 };
                let delta = self.xb[p] / d[p];
                self.pivot_bounded(p, j, &d, enter_from, delta, false);
                if self.factor_stale {
                    self.refactorize();
                }
            }
        }
    }

    /// Dual-simplex feasibility restoration (see the [module docs](self)):
    /// prices with `last_costs` — the objective the warm basis is optimal,
    /// hence dual feasible, for — and pivots the infeasible basic variables
    /// out until every basic value is admissible again.
    ///
    /// Basic artificials are treated as bounded in `[0, 0]`: a nonzero value
    /// in either direction makes them leaving candidates, so an equality row
    /// appended warm is enforced the moment its artificial reaches zero.
    ///
    /// The leaving row is priced by `viol²/γ` with devex reference weights
    /// `γ` — on the totally degenerate systems the analysis produces, naive
    /// row choice repairs the same rows hundreds of times over.  The ratio
    /// test is the **bound-flipping** (long-step) variant: finite-width
    /// nonbasic columns whose reduced cost would change sign before the
    /// chosen breakpoint are flipped to their other bound in one batch
    /// instead of each costing a full pivot.
    fn dual_restore(&mut self, max_iters: usize) -> DualOutcome {
        let Some(costs) = self.last_costs.clone() else {
            return DualOutcome::GaveUp;
        };
        let mut costs = costs;
        costs.resize(self.cols.num_cols(), 0.0);
        let n_cols = self.cols.num_cols();
        let bland_after = bland_fallback_threshold(self.basis.len(), n_cols) / 4;
        let mut y: Vec<f64> = Vec::new();
        self.dual_prices_into(&costs, &mut y);

        // The warm basis must actually be dual feasible for the old costs —
        // at-lower columns need rc ≥ 0, at-upper columns rc ≤ 0; drift
        // beyond tolerance sends the solve down the cold path.
        for j in 0..n_cols {
            if self.is_basic[j] || self.kind[j] == ColKind::Artificial {
                continue;
            }
            let rc = self.reduced_cost(j, &costs, &y);
            let drifted = if self.at_upper[j] {
                rc > DUAL_FEAS_EPS
            } else {
                rc < -DUAL_FEAS_EPS
            };
            if drifted {
                return DualOutcome::GaveUp;
            }
        }

        let m = self.basis.len();
        // Devex reference weights: γ_i approximates the squared norm of row
        // i of B⁻¹, starting from the all-ones reference frame.  (Exact
        // steepest-edge norms, seeded by m btrans, buy no fewer pivots on the
        // chain systems — DESIGN.md §3.1.)
        let mut gamma = vec![1.0f64; m];

        // Hot-loop scratch: allocated (at most) once per restoration,
        // written in place by the workspace kernels each pivot.
        let mut rho: Vec<f64> = Vec::new();
        let mut d: Vec<f64> = Vec::new();
        let mut bps: Vec<(f64, usize, f64)> = Vec::new(); // (ratio, j, |α|)
        let mut flips: Vec<usize> = Vec::new();

        for iter in 0..max_iters {
            if self.budget_exhausted(iter) {
                return DualOutcome::Exhausted;
            }
            // Leaving row: maximize viol²/γ over the violated basics.
            // Ordinary basics violate below 0 or above a finite upper
            // bound; basic artificials violate at any nonzero value.
            let t_price = Instant::now();
            let mut leave: Option<(usize, f64)> = None; // (row, viol)
            let mut best_score = 0.0f64;
            for i in 0..m {
                let col = self.basis[i];
                let x = self.xb[i];
                let up_eff = if self.kind[col] == ColKind::Artificial {
                    0.0
                } else {
                    self.up[col]
                };
                let mut viol = -x;
                if up_eff.is_finite() && x - up_eff > viol {
                    viol = x - up_eff;
                }
                if viol > FEAS_EPS {
                    let score = viol * viol / gamma[i];
                    if score > best_score {
                        best_score = score;
                        leave = Some((i, viol));
                    }
                }
            }
            self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
            let Some((p, viol_p)) = leave else {
                return DualOutcome::Restored;
            };
            // Direction the leaving basic must move: up from below its
            // lower bound, down from above its upper (artificials: 0).
            let from_below = self.xb[p] < 0.0;
            self.inverse_row_into(p, &mut rho);
            let bland = iter >= bland_after;
            // Eligibility: entering at-lower needs `sig·α > 0`, at-upper
            // the opposite sign (its motion is downward).
            let sig = if from_below { -1.0 } else { 1.0 };

            let t_ratio = Instant::now();
            bps.clear();
            flips.clear();
            let mut bland_pick: Option<usize> = None;
            for j in 0..n_cols {
                if self.is_basic[j] || self.kind[j] == ColKind::Artificial || self.up[j] <= EPS {
                    continue;
                }
                let alpha = self.cols.dot(j, &rho);
                let eligible = if self.at_upper[j] {
                    sig * alpha < -PIVOT_EPS
                } else {
                    sig * alpha > PIVOT_EPS
                };
                if !eligible {
                    continue;
                }
                if bland {
                    // Bland regime: first eligible column, cycling-proof.
                    bland_pick = Some(j);
                    break;
                }
                let rc = self.reduced_cost(j, &costs, &y);
                let rc_eff = if self.at_upper[j] { -rc } else { rc }.max(0.0);
                bps.push((rc_eff / alpha.abs(), j, alpha.abs()));
            }
            let selected: Option<usize> = if bland {
                bland_pick
            } else if bps.is_empty() {
                None
            } else {
                // Long step: pass breakpoints while the dual objective's
                // slope (the remaining primal violation) stays positive;
                // every passed finite-width column flips instead of
                // entering.  The slope bookkeeping guarantees the final
                // entering step never overshoots the flipped columns.
                // Ratio ascending; among (near-)equal ratios prefer the
                // larger |α| (the Harris stability rule), then column order
                // for determinism.
                bps.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
                        .then(a.1.cmp(&b.1))
                });
                let mut slope = viol_p;
                let mut chosen: Option<usize> = None;
                for &(_, j, aabs) in &bps {
                    let width = self.up[j];
                    if !width.is_finite() || slope - width * aabs <= EPS {
                        chosen = Some(j);
                        break;
                    }
                    slope -= width * aabs;
                    flips.push(j);
                }
                // Every breakpoint passed with slope still positive: the
                // dual is unbounded, the primal infeasible (nothing was
                // committed — discard the staged flips).
                if chosen.is_none() {
                    flips.clear();
                }
                chosen
            };
            self.stats.ratio_ns += t_ratio.elapsed().as_nanos() as u64;
            let Some(q) = selected else {
                // No column can repair this row: primal infeasible.  The
                // caller re-confirms with a cold solve before reporting.
                return DualOutcome::Infeasible;
            };

            if !flips.is_empty() {
                // Batch the flips' effect on the basic values through one
                // sparse ftran: x_B += B⁻¹·Σ s_j·up_j·A_j with s = +1 for
                // upper→lower flips and −1 for lower→upper.  The update
                // walks the kernel's result pattern when it stayed sparse.
                let mut entries = std::mem::take(&mut self.rhs_buf);
                entries.clear();
                for &j in &flips {
                    let s = if self.at_upper[j] {
                        self.up[j]
                    } else {
                        -self.up[j]
                    };
                    self.cols.for_each(j, &mut |r, a| entries.push((r, s * a)));
                }
                self.ws.load_sparse(&entries, m);
                self.rhs_buf = entries;
                let t = Instant::now();
                self.factor.ftran_ws(&mut self.ws);
                self.stats.ftran_ns += t.elapsed().as_nanos() as u64;
                if self.ws.sparse {
                    for &r in &self.ws.pattern {
                        self.xb[r] += self.ws.sol[r];
                    }
                } else {
                    for (x, dx) in self.xb.iter_mut().zip(&self.ws.sol) {
                        *x += dx;
                    }
                }
                for &j in &flips {
                    self.at_upper[j] = !self.at_upper[j];
                }
                self.stats.bound_flips += flips.len();
            }

            let rc_q = self.reduced_cost(q, &costs, &y);
            self.direction_into(q, &mut d);
            if d[p].abs() < PIVOT_EPS {
                return DualOutcome::GaveUp;
            }
            let dp = d[p];
            // Step the entering value by exactly what lands the leaving
            // basic on its violated bound.
            let leaving_col = self.basis[p];
            let target = if from_below || self.kind[leaving_col] == ColKind::Artificial {
                0.0
            } else {
                self.up[leaving_col]
            };
            let delta = (self.xb[p] - target) / dp;
            let enter_from = if self.at_upper[q] { self.up[q] } else { 0.0 };
            let leave_at_upper = !from_below
                && self.kind[leaving_col] != ColKind::Artificial
                && self.up[leaving_col].is_finite();
            self.pivot_bounded(p, q, &d, enter_from, delta, leave_at_upper);
            self.stats.iterations += 1;
            self.stats.dual_pivots += 1;
            self.budget_iters += 1;

            // Devex weight update for the next leaving choice: the cheap
            // monotone approximation of the row norms — no extra ftran.
            let gamma_p = gamma[p];
            for i in 0..m {
                if i == p || d[i] == 0.0 {
                    continue;
                }
                let r = d[i] / dp;
                gamma[i] = gamma[i].max(r * r * gamma_p);
            }
            gamma[p] = (gamma_p / (dp * dp)).max(1.0);

            if self.factor_stale || self.stale_pivots >= 100 {
                // Refresh point: rebuild the factorization and the dual
                // prices from scratch, washing out incremental drift.
                if !self.refactorize() {
                    return DualOutcome::GaveUp;
                }
                if self.deadline_hit() {
                    return DualOutcome::Exhausted;
                }
                self.dual_prices_into(&costs, &mut y);
            } else if rc_q.abs() > EPS {
                // Same O(m) incremental dual-price update as the primal
                // loop: Δy = (r_q / α_pq)·ρ zeroes the entering column's
                // reduced cost — no per-pivot btran needed.
                let scale = rc_q / dp;
                for (yr, rr) in y.iter_mut().zip(&rho) {
                    *yr += scale * rr;
                }
            }
        }
        DualOutcome::GaveUp
    }

    /// Standard-form column costs for a problem-variable objective.
    pub(crate) fn split_costs(&self, objective: &[(LpVarId, f64)]) -> Vec<f64> {
        let mut costs = vec![0.0; self.cols.num_cols()];
        for &(v, coeff) in objective {
            let (pos, neg) = self.var_cols[v.index()];
            costs[pos] += coeff;
            if let Some(neg) = neg {
                costs[neg] -= coeff;
            }
        }
        costs
    }

    /// The per-solve stats with the derived fields filled in (the
    /// eta-compaction delta against this minimize's baseline).
    fn snapshot_stats(&self) -> SolveStats {
        let mut s = self.stats;
        s.eta_compactions = self
            .factor
            .compactions()
            .saturating_sub(self.compaction_base);
        // Kernel counters accumulate on the session workspace for its whole
        // lifetime; the per-solve numbers are deltas against the baseline
        // captured when this minimize started.
        let (hf, hb, df, ka) = self.ws.counters();
        s.hyper_sparse_ftrans += hf.saturating_sub(self.ws_base.0);
        s.hyper_sparse_btrans += hb.saturating_sub(self.ws_base.1);
        s.dense_fallbacks += df.saturating_sub(self.ws_base.2);
        s.kernel_allocs += ka.saturating_sub(self.ws_base.3);
        s
    }

    fn extract(&self, objective: &[(LpVarId, f64)], status: LpStatus) -> LpSolution {
        let mut col_values = vec![0.0; self.cols.num_cols()];
        for (j, &at_up) in self.at_upper.iter().enumerate() {
            if at_up {
                col_values[j] = self.up[j];
            }
        }
        for (k, &col) in self.basis.iter().enumerate() {
            col_values[col] = self.xb[k];
        }
        let values: Vec<f64> = self
            .var_cols
            .iter()
            .map(|&(pos, neg)| col_values[pos] - neg.map(|n| col_values[n]).unwrap_or(0.0))
            .collect();
        let objective_value = objective.iter().map(|&(v, c)| c * values[v.index()]).sum();
        LpSolution::new(status, objective_value, values).with_stats(self.snapshot_stats())
    }

    fn infeasible(&self) -> LpSolution {
        LpSolution::new(LpStatus::Infeasible, 0.0, vec![0.0; self.var_cols.len()])
            .with_stats(self.snapshot_stats())
    }

    /// The budget ran out without a verdict: values are meaningless, stats
    /// record what was spent.
    fn exhausted(&self) -> LpSolution {
        LpSolution::new(
            LpStatus::BudgetExhausted,
            0.0,
            vec![0.0; self.var_cols.len()],
        )
        .with_stats(self.snapshot_stats())
    }

    /// Benchmark window (see [`crate::bench_support`]): basis dimension.
    pub(crate) fn kernel_rows(&self) -> usize {
        self.basis.len()
    }

    /// Benchmark window: number of standard-form columns.
    pub(crate) fn kernel_num_cols(&self) -> usize {
        self.cols.num_cols()
    }

    /// Benchmark window: whether standard-form column `j` is basic.
    pub(crate) fn kernel_is_basic(&self, j: usize) -> bool {
        self.is_basic[j]
    }

    /// Benchmark window: pins the session workspace to the dense scan
    /// (the hyper-vs-dense baseline switch).
    pub(crate) fn kernel_force_dense(&mut self, on: bool) {
        self.ws.force_dense = on;
    }

    /// Benchmark window: the session workspace's lifetime kernel counters.
    pub(crate) fn kernel_counters(&self) -> (u64, u64, u64, u64) {
        self.ws.counters()
    }

    /// Benchmark window: current eta-file length of the factorization.
    pub(crate) fn kernel_eta_count(&self) -> usize {
        self.factor.eta_count()
    }

    /// Benchmark window: applies one factorization update (entering column
    /// `j` at the most stable row of its ftran direction), growing the eta
    /// file without a re-solve — a completed `minimize` always ends on a
    /// freshly refactorized basis, so this is the only way a fixture can
    /// hold an eta-laden factorization still.  The basis bookkeeping is
    /// deliberately left alone: the fixture needs a longer eta file to
    /// time, not a meaningful basis, and the core is not used for solving
    /// afterwards.  Returns `false` when the update was declined.
    pub(crate) fn kernel_grow_eta(&mut self, j: usize) -> bool {
        let mut d = Vec::new();
        self.direction_into(j, &mut d);
        let p = match d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
        {
            Some((p, &dp)) if dp.abs() > PIVOT_EPS => p,
            _ => return false,
        };
        self.factor.update(p, &d).is_ok()
    }

    /// Whether any basic value is primal infeasible (negative, above a
    /// finite upper bound, or nonzero for a basic artificial) — the
    /// condition the dual-simplex restoration repairs after warm row
    /// extension.
    fn has_infeasible_basics(&self) -> bool {
        self.basis.iter().zip(&self.xb).any(|(&col, &x)| {
            if self.kind[col] == ColKind::Artificial {
                x.abs() > FEAS_EPS
            } else {
                x < -FEAS_EPS || x - self.up[col] > FEAS_EPS
            }
        })
    }
}

impl LpSession for SimplexCore {
    fn add_var(&mut self, _name: &str, free: bool) -> LpVarId {
        // A fresh column enters nonbasic at zero: the warm basis survives.
        self.push_var(free)
    }

    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        self.append_row(terms, cmp, rhs);
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
        let m = self.b.len();
        // The built-in runaway backstop, tightened to whatever iteration
        // budget the session has left (the budget spans every minimize of
        // the session's lifetime, so warm re-solves draw down the same pool).
        let max_iters = (20_000 + 50 * (self.cols.num_cols() + m))
            .min(self.budget.iters_remaining(self.budget_iters));
        self.stats = SolveStats::default();
        self.compaction_base = self.factor.compactions();
        self.ws_base = self.ws.counters();
        if self.budget_exhausted(0) {
            // The session's budget was already spent by earlier minimizes:
            // refuse to burn more, and report it as what it is.
            self.warm = false;
            return self.exhausted();
        }
        if self.warm && self.factor_stale {
            // Deferred row extensions (LU, or a declined border pivot):
            // one rebuild absorbs any number of appended rows.
            if !self.refactorize() {
                self.warm = false;
            }
        }
        if self.warm && self.has_infeasible_basics() {
            match self.dual_restore(max_iters) {
                DualOutcome::Restored => {}
                // Both the giving-up and the infeasibility verdicts restart
                // cold: phase 1 is the arbiter of infeasibility, so a dual
                // dead end can never mis-report a feasible system.
                DualOutcome::Infeasible | DualOutcome::GaveUp => self.warm = false,
                // Out of budget: do *not* restart cold — that would spend
                // time the caller no longer has.
                DualOutcome::Exhausted => {
                    self.warm = false;
                    return self.exhausted();
                }
            }
        }
        if !self.warm {
            self.rebuild();
            match self.run_phase1(max_iters) {
                Ok(true) => {}
                Ok(false) => {
                    self.warm = false;
                    return self.infeasible();
                }
                // Resource exhaustion is not an infeasibility proof, and
                // phase 1 (objective ≥ 0) cannot be genuinely unbounded —
                // either way the solver gave up without a verdict.
                Err(_) => {
                    self.warm = false;
                    return self.exhausted();
                }
            }
        }
        let costs = self.split_costs(objective);
        let status = match self.iterate(&costs, true, max_iters) {
            Ok(()) => LpStatus::Optimal,
            Err(s) => s,
        };
        if self.xb_shifted {
            // Wash the anti-degeneracy shift out before extracting values.
            self.refactorize();
        }
        self.warm = status == LpStatus::Optimal;
        self.last_costs = self.warm.then_some(costs);
        self.extract(objective, status)
    }

    fn num_vars(&self) -> usize {
        self.var_cols.len()
    }

    fn num_constraints(&self) -> usize {
        // Singleton `x <= u` rows absorbed into column bounds still count:
        // callers see the logical problem, not the tableau layout.
        self.b.len() + self.absorbed_rows
    }

    fn warm_resolves_in_place(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LpBackend, SparseBackend};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// The production configuration with and without presolve.
    fn configurations() -> [SolverTuning; 2] {
        [
            SolverTuning::default(),
            SolverTuning {
                presolve: false,
                ..SolverTuning::default()
            },
        ]
    }

    #[test]
    fn matches_dense_on_the_doc_example() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
        lp.set_objective(vec![(x, -1.0), (y, -2.0)]);
        let sol = SparseBackend.solve(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.objective, -7.0);
        assert_close(sol.value(x), 1.0);
        assert_close(sol.value(y), 3.0);
    }

    #[test]
    fn equality_rows_and_free_variables() {
        // x + y = 1, x - y = 5, both free: x = 3, y = -2.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", true);
        let y = lp.add_var("y", true);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 5.0);
        lp.set_objective(vec![(x, 1.0)]);
        for tuning in configurations() {
            let sol = SparseBackend.solve_with(&lp, &tuning);
            assert!(sol.is_optimal(), "{tuning:?}");
            assert_close(sol.value(x), 3.0);
            assert_close(sol.value(y), -2.0);
        }
    }

    #[test]
    fn reminimize_skips_phase_one_and_stays_exact() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        let mut session = SparseBackend.open(&lp);
        let a = session.minimize(&[(x, 1.0), (y, 1.0)]);
        assert!(a.is_optimal());
        let b = session.minimize(&[(x, 5.0), (y, 1.0)]);
        assert!(b.is_optimal());
        // minimize 5x + y over the region: best at x = 0, y = 6 → 6.
        assert_close(b.objective, 6.0);
        let a_again = session.minimize(&[(x, 1.0), (y, 1.0)]);
        assert_eq!(a.status, a_again.status);
        assert_close(a.objective, a_again.objective);
    }

    #[test]
    fn incremental_rows_tighten_the_optimum_under_every_configuration() {
        for tuning in configurations() {
            let mut lp = LpProblem::new();
            let x = lp.add_var("x", false);
            let y = lp.add_var("y", false);
            lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
            let mut session = SparseBackend.open_with(&lp, &tuning);
            let first = session.minimize(&[(x, -1.0), (y, -2.0)]);
            assert_close(first.objective, -8.0); // y = 4
                                                 // A cutting row the current point violates: y <= 1.
            session.add_constraint(&[(y, 1.0)], Cmp::Le, 1.0);
            let second = session.minimize(&[(x, -1.0), (y, -2.0)]);
            assert!(second.is_optimal(), "{tuning:?}");
            assert_close(second.objective, -5.0); // x = 3, y = 1
            assert!(
                second.stats.dual_pivots > 0,
                "the cut was solved without dual pivots: {tuning:?}"
            );
            // And an equality row forcing x = 2.
            session.add_constraint(&[(x, 1.0)], Cmp::Eq, 2.0);
            let third = session.minimize(&[(x, -1.0), (y, -2.0)]);
            assert!(third.is_optimal(), "{tuning:?}");
            assert_close(third.objective, -4.0);
            assert_eq!(session.num_constraints(), 3);
        }
    }

    #[test]
    fn incremental_vars_enter_at_zero() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        let mut session = SparseBackend.open(&lp);
        assert_close(session.minimize(&[(x, -1.0)]).objective, -5.0);
        let z = session.add_var("z", false);
        session.add_constraint(&[(x, 1.0), (z, 1.0)], Cmp::Le, 6.0);
        let sol = session.minimize(&[(x, -1.0), (z, -1.0)]);
        assert!(sol.is_optimal());
        assert_close(sol.objective, -6.0);
        assert_eq!(session.num_vars(), 2);
    }

    #[test]
    fn infeasible_and_unbounded_statuses_match_dense() {
        let mut infeasible = LpProblem::new();
        let x = infeasible.add_var("x", false);
        infeasible.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        infeasible.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        infeasible.set_objective(vec![(x, 1.0)]);
        assert_eq!(
            SparseBackend.solve(&infeasible).status,
            LpStatus::Infeasible
        );

        let mut unbounded = LpProblem::new();
        let x = unbounded.add_var("x", false);
        unbounded.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        unbounded.set_objective(vec![(x, -1.0)]);
        assert_eq!(SparseBackend.solve(&unbounded).status, LpStatus::Unbounded);
    }

    #[test]
    fn infeasible_session_recovers_after_rebuild() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        let mut session = SparseBackend.open(&lp);
        assert_eq!(session.minimize(&[(x, 1.0)]).status, LpStatus::Infeasible);
        // Deterministic on retry.
        assert_eq!(session.minimize(&[(x, 1.0)]).status, LpStatus::Infeasible);
    }

    #[test]
    fn degenerate_problem_terminates() {
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
        for tuning in configurations() {
            let sol = SparseBackend.solve_with(&lp, &tuning);
            assert!(sol.is_optimal(), "{tuning:?}");
            assert_close(sol.objective, -1.0);
        }
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
        let sol = SparseBackend.solve(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn lu_factor_reports_etas_and_matches_dense_factor() {
        let mut lp = LpProblem::new();
        let vars: Vec<_> = (0..6).map(|i| lp.add_var(format!("v{i}"), false)).collect();
        for (i, pair) in vars.windows(2).enumerate() {
            lp.add_constraint(
                vec![(pair[0], 1.0), (pair[1], 2.0)],
                if i % 2 == 0 { Cmp::Ge } else { Cmp::Le },
                1.0 + i as f64,
            );
        }
        lp.set_objective(vars.iter().map(|&v| (v, 1.0)).collect());
        let lu = SparseBackend.solve(&lp);
        // The optimum the dense-inverse factorization used to report: each
        // `≥` row is covered by its cheaper (coefficient-2) variable,
        // 0.5 + 1.5 + 2.5.
        assert!(lu.is_optimal());
        assert_close(lu.objective, 4.5);
        assert!(lu.stats.etas > 0, "LU solve recorded no eta updates");
    }
}
