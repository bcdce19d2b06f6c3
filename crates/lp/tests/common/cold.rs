//! The cold reference backend: every `minimize` re-solves the session's
//! accumulated problem from scratch through [`SparseBackend`].
//!
//! Its sessions report `warm_resolves_in_place() == false`, so tests use it
//! as the baseline the warm dual re-solve is checked against, and to drive
//! the analysis engine down its disjoint-subproblem soundness path.  It
//! honors the backend contract's session budget (obligation 7) by charging
//! each re-solve's spend against the remainder.

use cma_lp::{
    Cmp, LpBackend, LpProblem, LpSession, LpSolution, LpVarId, SolverTuning, SparseBackend,
};

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct ColdBackend;

struct ColdSession {
    problem: LpProblem,
    tuning: SolverTuning,
    spent_iters: usize,
    spent_refactorizations: usize,
}

impl LpSession for ColdSession {
    fn add_var(&mut self, name: &str, free: bool) -> LpVarId {
        self.problem.add_var(name, free)
    }

    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        self.problem.add_constraint(terms.to_vec(), cmp, rhs);
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
        self.problem.set_objective(objective.to_vec());
        let mut tuning = self.tuning;
        let budget = &mut tuning.budget;
        budget.max_iters = budget
            .max_iters
            .map(|cap| cap.saturating_sub(self.spent_iters));
        budget.max_refactorizations = budget
            .max_refactorizations
            .map(|cap| cap.saturating_sub(self.spent_refactorizations));
        let solution = SparseBackend.solve_with(&self.problem, &tuning);
        self.spent_iters += solution.stats.iterations;
        self.spent_refactorizations += solution.stats.refactorizations;
        solution
    }

    fn num_vars(&self) -> usize {
        self.problem.num_vars()
    }

    fn num_constraints(&self) -> usize {
        self.problem.num_constraints()
    }
}

impl LpBackend for ColdBackend {
    fn name(&self) -> &str {
        "cold-resolve"
    }

    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
        self.open_with(problem, &SolverTuning::default())
    }

    fn open_with<'a>(
        &'a self,
        problem: &LpProblem,
        tuning: &SolverTuning,
    ) -> Box<dyn LpSession + 'a> {
        Box::new(ColdSession {
            problem: problem.clone(),
            tuning: *tuning,
            spent_iters: 0,
            spent_refactorizations: 0,
        })
    }
}
