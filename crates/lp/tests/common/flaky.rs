//! The budget-flaking backend: its first `failures` minimizes come back
//! [`LpStatus::BudgetExhausted`](cma_lp::LpStatus::BudgetExhausted), and
//! after that it behaves exactly like [`SparseBackend`] — the deterministic
//! stand-in for "the deadline fired mid-campaign" that drives the analysis
//! engine's degradation ladder in tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cma_lp::{
    Cmp, LpBackend, LpProblem, LpSession, LpSolution, LpVarId, SolveBudget, SolverTuning,
    SparseBackend,
};

/// See the [module docs](self).
pub struct FlakyBudget {
    /// Minimizes still to fail; tests may refill it mid-analysis.
    pub failures: AtomicUsize,
}

impl FlakyBudget {
    /// A backend whose next `failures` minimizes run out of budget.
    pub fn failing(failures: usize) -> Self {
        FlakyBudget {
            failures: AtomicUsize::new(failures),
        }
    }
}

struct FlakySession<'a> {
    inner: Box<dyn LpSession + 'a>,
    failures: &'a AtomicUsize,
}

impl LpSession for FlakySession<'_> {
    fn add_var(&mut self, name: &str, free: bool) -> LpVarId {
        self.inner.add_var(name, free)
    }

    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        self.inner.add_constraint(terms, cmp, rhs);
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
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

    fn warm_resolves_in_place(&self) -> bool {
        self.inner.warm_resolves_in_place()
    }
}

impl LpBackend for FlakyBudget {
    fn name(&self) -> &str {
        "flaky-budget"
    }

    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
        Box::new(FlakySession {
            inner: SparseBackend.open(problem),
            failures: &self.failures,
        })
    }
}

/// An authentic `BudgetExhausted` solution, produced by a real solve under
/// an already-expired deadline (the [`LpSolution`] constructor is private to
/// `cma-lp`).
fn exhausted_solution() -> LpSolution {
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
