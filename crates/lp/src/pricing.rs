//! Pricing and the shared pivoting constants of the simplex core.
//!
//! Pricing — choosing the *entering column* each iteration — is where the
//! simplex method wins or loses on degenerate instances.  The long-chain
//! global-mode LPs of the central-moment analysis stall under pure Dantzig
//! pricing (the most negative reduced cost repeatedly selects columns whose
//! pivots make no progress), so the core prices with `DevexPricer` —
//! approximate steepest edge (Forrest–Goldfarb devex): columns are scored by
//! `rc²/w` against reference-framework weights that are updated from the
//! pivot row and reset when they overflow.  Far fewer iterations on
//! degenerate instances for one extra `O(nnz)` sweep per pivot: on the
//! walk-chain systems Dantzig and sectioned partial pricing both need more
//! iterations (DESIGN.md §3.1).
//!
//! Bland's rule stays the termination-guaranteeing *last resort*, entered
//! only after [`bland_fallback_threshold`] pivots (a named, size-scaled
//! bound).

use std::time::{Duration, Instant};

/// Reduced costs below `-EPS` qualify a column for entering the basis (the
/// same tolerance the solvers use).
const EPS: f64 = 1e-9;

/// Devex weights above this trigger a reference-framework reset (all weights
/// back to 1): the approximation has drifted too far from the reference frame
/// to stay meaningful.
const DEVEX_RESET: f64 = 1e7;

/// Baseline number of pivots under the configured pricer before the solver
/// falls back to Bland's rule.
pub const BLAND_FALLBACK_BASE: usize = 2_000;

/// Additional Bland-fallback pivots granted per row/column of the instance:
/// bigger systems legitimately pivot more, so the fallback — whose
/// termination guarantee costs an order of magnitude in iteration count —
/// must not engage on size alone.
pub const BLAND_FALLBACK_PER_DIM: usize = 4;

/// Number of pivots tolerated under the configured pricing rule before the
/// solver switches to Bland's rule as the cycling backstop of last resort.
///
/// Scales with problem size (`rows + cols` in standard form): the old
/// behavior — two diverging magic formulas that both collapsed to a flat
/// `2_000` — throttled large instances that were still making progress.
/// Anti-degeneracy now rests on the Harris ratio test and the bounded
/// right-hand-side perturbation; this threshold only guards genuine cycling.
pub fn bland_fallback_threshold(rows: usize, cols: usize) -> usize {
    BLAND_FALLBACK_BASE + BLAND_FALLBACK_PER_DIM * (rows + cols)
}

/// Relaxation of the feasibility tolerance used by the first pass of the
/// Harris ratio test: rows whose exact ratio lies within this slack of the
/// relaxed minimum are eligible, and the numerically largest pivot among
/// them wins.
pub(crate) const HARRIS_RELAX: f64 = 1e-7;

/// Consecutive degenerate pivots (step length ≈ 0) tolerated before the
/// solver engages the bounded right-hand-side perturbation.
pub(crate) const DEGEN_PIVOT_STREAK: usize = 64;

/// The bounded anti-degeneracy perturbation applied to a zero basic value:
/// a deterministic, row-unique nudge in `[PERTURB_EPS, 2·PERTURB_EPS)`.
///
/// Perturbing the *basic values* (the primal analogue of the classic cost
/// perturbation, which fights dual degeneracy) makes the tied ratio tests
/// that sustain a cycle pick distinct rows and strictly positive steps, so
/// no basis can repeat while the perturbation is live.  It is bounded well
/// below the feasibility tolerance, and it washes out at the next basis
/// refactorization (which recomputes the basic values from the pristine
/// right-hand sides) — solvers force one before extracting a solution.
/// Cost perturbation was rejected here: any cost noise above the `1e-9`
/// optimality tolerance masks barely-improving columns and stalls
/// convergence instead of helping it.
pub(crate) fn degeneracy_shift(row: usize, round: usize) -> f64 {
    // Cheap deterministic hash of the row index → a unique multiplier in
    // [1, 2), scaled up with each engagement round.  The round factor is
    // capped so the shift stays *bounded* — ≤ 2·PERTURB_EPS·PERTURB_MAX_ROUND
    // = 1.28e-7, safely under the 1e-6 feasibility tolerance — no matter how
    // often a pathological solve re-engages (re-engagements still act on
    // fresh basis states, so the cap does not weaken the tie-breaking).
    let h = (row.wrapping_mul(2_654_435_761) >> 8) % 1024;
    PERTURB_EPS * round.min(PERTURB_MAX_ROUND) as f64 * (1.0 + h as f64 / 1024.0)
}

/// Base magnitude of [`degeneracy_shift`]: far below the `1e-6` feasibility
/// tolerance, far above f64 noise at the problem scales the analysis emits.
pub(crate) const PERTURB_EPS: f64 = 1e-9;

/// Cap on the [`degeneracy_shift`] round multiplier (keeps the total shift
/// under the feasibility tolerance on solves that re-engage many times).
pub(crate) const PERTURB_MAX_ROUND: usize = 64;

/// The primal pricing rule: devex, the only one the solver implements.
///
/// Kept as a one-variant type only so the benchmark crate (`cmabench/`)
/// can keep printing it in its `solver` metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Approximate steepest edge with reference-framework resets.
    #[default]
    Devex,
}

impl PricingRule {
    /// The rule's canonical report name.
    pub fn name(&self) -> &'static str {
        "devex"
    }
}

/// The dual simplex's leaving-row pricing: devex weights, the only rule the
/// solver implements.
///
/// Kept as a one-variant type only so the benchmark crate (`cmabench/`)
/// can keep printing it in its `solver` metadata.  (Exact dual steepest
/// edge needs more pivots on the chain systems, DESIGN.md §3.1.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DualPricing {
    /// Approximate (devex-style) dual weights: no extra solve per pivot.
    #[default]
    Devex,
}

impl DualPricing {
    /// The rule's canonical report name.
    pub fn name(&self) -> &'static str {
        "devex"
    }
}

/// The dual-simplex ratio test: the bound-flipping long step, the only
/// test the solver implements.
///
/// Kept as a one-variant type only so the benchmark crate (`cmabench/`)
/// can keep printing it in its `solver` metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DualRatio {
    /// Breakpoints are passed — flipping boxed nonbasic columns
    /// bound-to-bound — for as long as the dual slope stays positive, so one
    /// pivot absorbs every reduced cost that changes sign.
    #[default]
    BoundFlip,
}

impl DualRatio {
    /// The test's canonical report name.
    pub fn name(&self) -> &'static str {
        "bound-flip"
    }
}

/// A resource budget for one solver session, covering *every* `minimize`
/// (and warm re-solve, and in-session extension) the session performs: the
/// spend carries over, so a session's total cost is bounded no matter how
/// many times it is re-entered.
///
/// Exhausting any limb yields [`LpStatus::BudgetExhausted`](crate::LpStatus::BudgetExhausted)
/// — a statement about *resources*, never about feasibility.  A budgeted
/// solve that runs out of budget makes no claim the unbudgeted solve would
/// not make; in particular it must never be treated as an infeasibility
/// proof (see the backend contract in [`backend`](crate::backend)).
///
/// All limbs default to `None` (unlimited); `SolveBudget::default()` is the
/// unbudgeted solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveBudget {
    /// Wall-clock deadline.  Checked cooperatively once per pivot batch
    /// (every `DEADLINE_CHECK_PERIOD` pivots and at every
    /// refactorization), so overshoot is bounded by a batch of pivots.
    pub deadline: Option<Instant>,
    /// Cap on total simplex iterations (primal and dual pivots both count)
    /// across the session's lifetime.
    pub max_iters: Option<usize>,
    /// Cap on total basis refactorizations across the session's lifetime.
    pub max_refactorizations: Option<usize>,
}

/// Default pivots between cooperative deadline checks
/// ([`SolverTuning::deadline_check_period`]): `Instant::now()` per pivot
/// would dominate small pivots, and the refresh period (100) is too coarse
/// for tight timeouts on expensive pivots.
pub const DEADLINE_CHECK_PERIOD: usize = 16;

impl SolveBudget {
    /// The unlimited budget (every limb `None`).
    pub const UNLIMITED: SolveBudget = SolveBudget {
        deadline: None,
        max_iters: None,
        max_refactorizations: None,
    };

    /// A budget with only a wall-clock deadline `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> SolveBudget {
        SolveBudget {
            deadline: Some(Instant::now() + timeout),
            ..SolveBudget::UNLIMITED
        }
    }

    /// A budget with only an iteration cap.
    pub fn with_max_iters(max_iters: usize) -> SolveBudget {
        SolveBudget {
            max_iters: Some(max_iters),
            ..SolveBudget::UNLIMITED
        }
    }

    /// Whether no limb is set (the default, unbudgeted solve).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_iters.is_none() && self.max_refactorizations.is_none()
    }

    /// Whether the wall-clock deadline (if any) has passed.
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Iterations remaining before the cap, given `spent` so far
    /// (`usize::MAX` when uncapped).
    pub fn iters_remaining(&self, spent: usize) -> usize {
        match self.max_iters {
            Some(cap) => cap.saturating_sub(spent),
            None => usize::MAX,
        }
    }

    /// Refactorizations remaining before the cap, given `spent` so far
    /// (`usize::MAX` when uncapped).
    pub fn refactorizations_remaining(&self, spent: usize) -> usize {
        match self.max_refactorizations {
            Some(cap) => cap.saturating_sub(spent),
            None => usize::MAX,
        }
    }
}

/// Per-session solver settings threaded from the analysis down to the
/// solver (see [`LpBackend::open_with`](crate::LpBackend::open_with)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverTuning {
    /// Whether the presolve pass runs at session open (drop empty/fixed
    /// columns, substitute singleton rows, remove duplicate rows).
    pub presolve: bool,
    /// Resource budget for the whole session (deadline, iteration and
    /// refactorization caps; default unlimited).  The spend carries over
    /// across every minimize/re-solve of the session.
    pub budget: SolveBudget,
    /// Pivots between cooperative wall-clock deadline checks (default
    /// [`DEADLINE_CHECK_PERIOD`]).  Hostile-timeout tests tighten this to 1
    /// to bound overshoot by a single pivot; `0` is treated as 1.
    pub deadline_check_period: usize,
}

impl Default for SolverTuning {
    fn default() -> Self {
        SolverTuning {
            presolve: true,
            budget: SolveBudget::default(),
            deadline_check_period: DEADLINE_CHECK_PERIOD,
        }
    }
}

impl SolverTuning {
    /// Tuning with the given budget and everything else at defaults.
    pub fn with_budget(budget: SolveBudget) -> Self {
        SolverTuning {
            budget,
            ..SolverTuning::default()
        }
    }
}

/// Everything a pricer may inspect when observing a pivot: the pre-pivot
/// pivot-row entries `alpha(j) = (B⁻¹A)_pj` (devex weight updates need them)
/// plus which columns entered and left.
pub(crate) struct PivotView<'a> {
    /// The column entering the basis.
    pub entering: usize,
    /// The column leaving the basis.
    pub leaving: usize,
    /// The pivot element `alpha(entering)`.
    pub alpha_q: f64,
    /// Number of standard-form columns.
    pub n_cols: usize,
    /// Whether a column is a pricing candidate (nonbasic and not banned).
    pub candidate: &'a dyn Fn(usize) -> bool,
    /// Pre-pivot pivot-row entry of a column.
    pub alpha: &'a dyn Fn(usize) -> f64,
    /// When the pivot row came off the hyper-sparse kernel path: the exact
    /// set of columns with `alpha(j) ≠ 0` (may contain duplicates — weight
    /// updates are idempotent).  Every other column's entry is an exact
    /// zero.  `None` means the row is dense and every column must be
    /// visited.
    pub touched: Option<&'a [usize]>,
}

/// Approximate steepest edge (devex) with reference-framework resets.
pub(crate) struct DevexPricer {
    weights: Vec<f64>,
    /// Columns whose weight may exceed [`DEVEX_RESET`].  Only the
    /// post-scan leaving-column assignment can park a weight above the
    /// reset threshold without tripping the reset (an in-scan update that
    /// high trips it immediately), so tracking those few columns lets the
    /// touched-only path decide the reset exactly as the full scan would
    /// — without visiting every candidate weight.  May carry stale
    /// entries; they are pruned lazily.
    hot: Vec<usize>,
}

impl DevexPricer {
    pub(crate) fn new(n_cols: usize) -> Self {
        DevexPricer {
            weights: vec![1.0; n_cols],
            hot: Vec::new(),
        }
    }

    fn ensure(&mut self, n_cols: usize) {
        if self.weights.len() < n_cols {
            self.weights.resize(n_cols, 1.0);
        }
    }
}

impl DevexPricer {
    /// Chooses the entering column among candidates whose reduced cost
    /// prices below `-EPS`, or `None` when no candidate improves.
    /// Deterministic: the same sequence of views yields the same selections
    /// (a backend contract obligation).
    pub(crate) fn select(
        &mut self,
        n_cols: usize,
        candidate: &dyn Fn(usize) -> bool,
        reduced_cost: &dyn Fn(usize) -> f64,
    ) -> Option<usize> {
        self.ensure(n_cols);
        let mut best = None;
        let mut best_score = 0.0;
        for j in 0..n_cols {
            if !candidate(j) {
                continue;
            }
            let rc = reduced_cost(j);
            if rc < -EPS {
                let score = rc * rc / self.weights[j];
                if score > best_score {
                    best_score = score;
                    best = Some(j);
                }
            }
        }
        best
    }

    /// Updates the reference weights from the pivot performed on the
    /// previously selected column.
    pub(crate) fn observe_pivot(&mut self, view: &PivotView<'_>) {
        self.ensure(view.n_cols);
        let aq2 = view.alpha_q * view.alpha_q;
        if aq2 < 1e-20 {
            return;
        }
        // Reference weight carried by the entering column, propagated to the
        // rest of the framework through the pivot row.
        let ratio = (self.weights[view.entering] / aq2).max(1.0 / aq2);
        // Whether any candidate's post-update weight exceeds the reset
        // threshold — exactly the `max_weight > DEVEX_RESET` verdict of a
        // full scan.
        let mut trip = false;
        match view.touched {
            // Touched-only path: candidates off the list have an exactly
            // zero pivot-row entry, so their weights are unchanged — only
            // `hot` carry-overs can push the scan's maximum past the
            // threshold without being updated here.
            Some(touched) => {
                for &j in touched {
                    if j == view.entering || !(view.candidate)(j) {
                        continue;
                    }
                    let a = (view.alpha)(j);
                    if a != 0.0 {
                        let w = a * a * ratio;
                        if w > self.weights[j] {
                            self.weights[j] = w;
                        }
                        trip = trip || self.weights[j] > DEVEX_RESET;
                    }
                }
                let weights = &self.weights;
                self.hot.retain(|&j| weights[j] > DEVEX_RESET);
                trip = trip
                    || self
                        .hot
                        .iter()
                        .any(|&j| j != view.entering && (view.candidate)(j));
            }
            None => {
                for j in 0..view.n_cols {
                    if j == view.entering || !(view.candidate)(j) {
                        continue;
                    }
                    let a = (view.alpha)(j);
                    if a != 0.0 {
                        let w = a * a * ratio;
                        if w > self.weights[j] {
                            self.weights[j] = w;
                        }
                    }
                    trip = trip || self.weights[j] > DEVEX_RESET;
                }
                let weights = &self.weights;
                self.hot.retain(|&j| weights[j] > DEVEX_RESET);
            }
        }
        // The leaving column re-enters the nonbasic pool with the reference
        // weight of the pivot.
        self.weights[view.leaving] = ratio.max(1.0);
        if trip {
            // Reference-framework reset: the approximation drifted too far.
            for w in &mut self.weights {
                *w = 1.0;
            }
            self.hot.clear();
        } else if self.weights[view.leaving] > DEVEX_RESET && !self.hot.contains(&view.leaving) {
            self.hot.push(view.leaving);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(_: usize) -> bool {
        true
    }

    #[test]
    fn bland_threshold_scales_with_problem_size() {
        assert_eq!(bland_fallback_threshold(0, 0), BLAND_FALLBACK_BASE);
        assert_eq!(
            bland_fallback_threshold(100, 400),
            BLAND_FALLBACK_BASE + 500 * BLAND_FALLBACK_PER_DIM
        );
        // Monotone in both dimensions — bigger instances get more headroom
        // before the slow Bland backstop engages.
        assert!(bland_fallback_threshold(10, 10) < bland_fallback_threshold(10, 1000));
        assert!(bland_fallback_threshold(10, 10) < bland_fallback_threshold(1000, 10));
    }

    #[test]
    fn degeneracy_shift_stays_bounded_and_row_unique() {
        let bound = 2.0 * PERTURB_EPS * PERTURB_MAX_ROUND as f64;
        assert!(
            bound < 1e-6,
            "shift bound must stay under the feasibility tolerance"
        );
        for round in [1, PERTURB_MAX_ROUND, 10_000] {
            for row in 0..100 {
                let shift = degeneracy_shift(row, round);
                assert!(
                    shift > 0.0 && shift <= bound,
                    "round {round} row {row}: {shift}"
                );
            }
        }
        // Distinct rows get distinct nudges (the tie-breaking property)…
        assert_ne!(degeneracy_shift(0, 1), degeneracy_shift(1, 1));
        // …and runaway rounds saturate at the cap instead of growing.
        assert_eq!(
            degeneracy_shift(3, 10_000),
            degeneracy_shift(3, PERTURB_MAX_ROUND)
        );
    }

    /// The knob names the benchmark's `solver` metadata prints.
    #[test]
    fn rule_names_round_trip() {
        use crate::factor::{FactorKind, WarmStrategy};
        assert_eq!(PricingRule::default(), PricingRule::Devex);
        assert_eq!(PricingRule::Devex.name(), "devex");
        assert_eq!(FactorKind::default().name(), "lu");
        assert_eq!(format!("{:?}", WarmStrategy::default()), "Dual");
        assert!(SolverTuning::default().presolve);
    }

    #[test]
    fn dual_knob_names_round_trip() {
        assert_eq!(DualPricing::default().name(), "devex");
        assert_eq!(DualRatio::default().name(), "bound-flip");
        assert_eq!(format!("{:?}", DualPricing::default()), "Devex");
        assert_eq!(format!("{:?}", DualRatio::default()), "BoundFlip");
        let tuning = SolverTuning::default();
        assert_eq!(tuning.deadline_check_period, DEADLINE_CHECK_PERIOD);
        assert!(tuning.budget.is_unlimited());
    }

    #[test]
    fn devex_prefers_low_weight_columns_and_resets() {
        let mut devex = DevexPricer::new(3);
        // Equal weights: degenerate to Dantzig (by squared cost).
        assert_eq!(devex.select(3, &all, &|j| [-1.0, -2.0, -1.5][j]), Some(1));
        // A pivot whose row loads column 1 heavily raises its weight…
        devex.observe_pivot(&PivotView {
            entering: 1,
            leaving: 0,
            alpha_q: 0.5,
            n_cols: 3,
            candidate: &all,
            alpha: &|j| [0.0, 0.5, 40.0][j],
            touched: None,
        });
        // …so column 2 (weight exploded) loses to column 1's replacement
        // score even at a slightly larger reduced cost.
        assert_eq!(devex.select(3, &all, &|j| [-1.0, -0.1, -1.5][j]), Some(0));
        // Overflowing weights reset the reference framework.
        devex.observe_pivot(&PivotView {
            entering: 0,
            leaving: 1,
            alpha_q: 1e-5,
            n_cols: 3,
            candidate: &all,
            alpha: &|_| 1e3,
            touched: None,
        });
        assert!(
            devex.weights.iter().all(|&w| w == 1.0),
            "{:?}",
            devex.weights
        );
    }

    #[test]
    fn devex_touched_path_matches_full_scan() {
        // Two pricers fed the same pivot sequence — one through the full
        // scan, one through the touched-only path — must evolve identical
        // weights, including the reference-framework reset triggered by a
        // column whose weight was parked above the threshold by an earlier
        // leaving assignment and that no later pivot row touches.
        let mut dense = DevexPricer::new(6);
        let mut sparse = DevexPricer::new(6);
        // Pivot 1: a tiny pivot element explodes the reference ratio, so
        // the leaving column 1 re-enters the pool with weight 1e8 — above
        // DEVEX_RESET, but parked *after* the scan, so no reset fires.
        let alphas1 = [0.0, 0.0, 1e-3, 1e-3, 0.0, 0.0];
        for (pricer, touched) in [(&mut dense, None), (&mut sparse, Some(&[2usize, 3][..]))] {
            pricer.observe_pivot(&PivotView {
                entering: 0,
                leaving: 1,
                alpha_q: 1e-4,
                n_cols: 6,
                candidate: &|j| j != 0,
                alpha: &|j| alphas1[j],
                touched,
            });
        }
        assert_eq!(dense.weights, sparse.weights);
        assert!(dense.weights[1] > DEVEX_RESET, "{:?}", dense.weights);
        // Pivot 2 does not touch column 1, but its oversized weight must
        // still trip the reset on both paths (the full scan sees it
        // directly, the touched-only path through its hot set).
        let alphas2 = [0.0, 0.0, 0.0, 0.0, 0.5, 0.0];
        for (pricer, touched) in [(&mut dense, None), (&mut sparse, Some(&[4usize][..]))] {
            pricer.observe_pivot(&PivotView {
                entering: 2,
                leaving: 3,
                alpha_q: 1.0,
                n_cols: 6,
                candidate: &|j| j != 2,
                alpha: &|j| alphas2[j],
                touched,
            });
        }
        assert_eq!(dense.weights, sparse.weights);
        assert!(
            sparse.weights.iter().all(|&w| w == 1.0),
            "{:?}",
            sparse.weights
        );
    }
}
