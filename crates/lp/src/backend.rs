//! The solver abstraction: [`LpBackend`] and [`LpSession`].
//!
//! The derivation system reduces bound inference to linear programming but
//! does not care *how* the program is solved — the paper's artifact used
//! Gurobi, this reproduction ships one sparse revised simplex
//! ([`SparseBackend`]), and a production deployment might shell out to a
//! parallel interior-point solver.  The [`LpBackend`] trait is that seam: everything
//! above `cma-lp` (the constraint builder, the analysis engine, the
//! `Analysis` pipeline facade) takes a backend value instead of hard-wiring a
//! solver.
//!
//! # The session model
//!
//! Template-based analyses solve many structurally similar programs: the
//! engine minimizes different objectives over one constraint system, and the
//! soundness phase layers side-condition rows on top of the system the main
//! pass already built.  A one-shot `solve(&LpProblem)` call makes that reuse
//! impossible, so the seam is a **session**: [`LpBackend::open`] loads a
//! problem's constraint set into an [`LpSession`], which then supports
//!
//! * [`minimize`](LpSession::minimize) — repeatedly, with different
//!   objectives, over the same constraint set (stateful backends keep their
//!   factorization/basis warm between calls);
//! * [`add_var`](LpSession::add_var) / [`add_constraint`](LpSession::add_constraint)
//!   — incremental column and row addition, extending the system in place;
//! * the one-shot [`solve`](LpBackend::solve) and the batch entry point
//!   [`solve_batch`](LpBackend::solve_batch) are provided methods layered on
//!   top of `open`.
//!
//! Every entry point has a `_with` twin taking [`SolverTuning`] (presolve,
//! resource budget) — the built-in backend honors it.
//!
//! Variable ids are shared between a session and the [`LpProblem`] it was
//! opened on: ids created through [`LpSession::add_var`] continue the same id
//! space, so callers can keep building one model and flush increments into
//! the session.
//!
//! # Contract
//!
//! An implementation must, for every well-formed [`LpProblem`] and for every
//! state a session can reach through `add_var`/`add_constraint`:
//!
//! 1. return [`LpStatus::Optimal`](crate::LpStatus::Optimal) together with a feasible point attaining
//!    the minimum whenever the problem is feasible and bounded (within the
//!    backend's numeric tolerance);
//! 2. return [`LpStatus::Infeasible`](crate::LpStatus::Infeasible) when no feasible point exists;
//! 3. return [`LpStatus::Unbounded`](crate::LpStatus::Unbounded) when the objective is unbounded below on
//!    a non-empty feasible region;
//! 4. respect variable domains: non-negative variables must be ≥ 0 in any
//!    reported solution, free variables may take any sign;
//! 5. be deterministic: solving the same problem twice — including
//!    re-minimizing the same objective in one session — yields the same
//!    status and (for `Optimal`) the same objective value;
//! 6. never panic on solvable input — resource exhaustion (a
//!    [`SolveBudget`](crate::SolveBudget) limb running out, or the solver's
//!    built-in runaway backstop) is reported as
//!    [`LpStatus::BudgetExhausted`](crate::LpStatus::BudgetExhausted), which
//!    is a statement about resources only: callers must never interpret it
//!    as infeasibility, and a budgeted session must never report
//!    `Infeasible`/`Unbounded`/`Optimal` where the unbudgeted solve would
//!    not — running out of budget truncates the search, it never flips a
//!    verdict;
//! 7. honor [`SolverTuning::budget`](crate::SolverTuning::budget) across the
//!    *whole session lifetime*: the spend carries over from one `minimize`
//!    to the next (warm re-solves and in-session extensions included), so a
//!    session's total cost is bounded by one budget no matter how many times
//!    it is re-entered.
//!
//! The conformance suite in `tests/backend_conformance.rs` checks these
//! obligations (including the session-specific ones) and should be run
//! against every new backend.
//!
//! # Implementing a backend
//!
//! New backends implement [`LpBackend::open`] (the one required method
//! besides [`name`](LpBackend::name)) and inherit `solve` / `solve_batch`.
//! A backend whose underlying solver is one-shot can implement `open` as a
//! few lines that keep the growable problem and re-solve per `minimize`
//! (the test suite's cold reference backend does exactly that).
//!
//! Backends must be [`Sync`]: [`solve_batch`](LpBackend::solve_batch) shares
//! one backend value across worker threads to solve independent problems
//! (e.g. the engine's compositional SCC groups) concurrently.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::core::SimplexCore;
use crate::presolve::presolve;
use crate::pricing::SolverTuning;
use crate::simplex::{Cmp, LpProblem, LpSolution, LpVarId};

/// An open solver session over one (growable) constraint system.
///
/// Obtained from [`LpBackend::open`]; see the [module docs](self) for the
/// behavioral contract and the shared-id-space invariant.
pub trait LpSession {
    /// Adds a variable (non-negative unless `free`), continuing the id space
    /// of the problem the session was opened on.
    fn add_var(&mut self, name: &str, free: bool) -> LpVarId;

    /// Appends the constraint row `Σ coeff·var  cmp  rhs` to the system.
    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64);

    /// Solves `minimize Σ coeff·var` over the current constraint system.
    ///
    /// May be called repeatedly; the constraint set persists across calls.
    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution;

    /// Number of variables currently in the session.
    fn num_vars(&self) -> usize;

    /// Number of constraint rows currently in the session.
    fn num_constraints(&self) -> usize;

    /// Whether this session repairs incrementally added rows *in place*
    /// (e.g. by dual-simplex pivots from the warm basis) rather than
    /// re-solving from scratch.  Callers with a choice — like the engine's
    /// soundness extension, which can alternatively solve a disjoint
    /// subsystem standalone — use this to decide whether flushing more rows
    /// into the live session is the cheap path.  Default: `false`.
    fn warm_resolves_in_place(&self) -> bool {
        false
    }
}

/// A linear-programming solver usable by the analysis.
///
/// See the [module documentation](self) for the behavioral contract.
pub trait LpBackend: Sync {
    /// A short human-readable solver name (reported in `AnalysisReport`).
    fn name(&self) -> &str;

    /// Opens a session over the problem's constraint set (the problem's own
    /// objective, if any, is ignored — objectives are passed to
    /// [`LpSession::minimize`]).
    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a>;

    /// Opens a session under explicit [`SolverTuning`] (presolve, budget).
    /// The default ignores the tuning and defers to [`open`](Self::open),
    /// so third-party backends keep compiling; the built-in backend honors
    /// it.
    fn open_with<'a>(
        &'a self,
        problem: &LpProblem,
        tuning: &SolverTuning,
    ) -> Box<dyn LpSession + 'a> {
        let _ = tuning;
        self.open(problem)
    }

    /// Solves `minimize c·x subject to constraints` for the given problem in
    /// one shot (provided via [`open`](Self::open) + one `minimize`).
    fn solve(&self, problem: &LpProblem) -> LpSolution {
        self.open(problem).minimize(problem.objective())
    }

    /// One-shot solve under explicit tuning (via
    /// [`open_with`](Self::open_with) + one `minimize`).
    fn solve_with(&self, problem: &LpProblem, tuning: &SolverTuning) -> LpSolution {
        self.open_with(problem, tuning)
            .minimize(problem.objective())
    }

    /// Solves independent problems concurrently on up to `threads` worker
    /// threads, returning one solution per problem in order.
    ///
    /// The default fans the one-shot [`solve`](Self::solve) out over a scoped
    /// thread pool; `threads <= 1` (or a single problem) degrades to the
    /// sequential path.
    fn solve_batch(&self, problems: &[LpProblem], threads: usize) -> Vec<LpSolution> {
        self.solve_batch_with(problems, threads, &SolverTuning::default())
    }

    /// [`solve_batch`](Self::solve_batch) under explicit tuning.
    fn solve_batch_with(
        &self,
        problems: &[LpProblem],
        threads: usize,
        tuning: &SolverTuning,
    ) -> Vec<LpSolution> {
        if threads <= 1 || problems.len() <= 1 {
            return problems
                .iter()
                .map(|p| self.solve_with(p, tuning))
                .collect();
        }
        let workers = threads.min(problems.len());
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<LpSolution>>> =
            problems.iter().map(|_| Mutex::new(None)).collect();
        rayon::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= problems.len() {
                        break;
                    }
                    let solution = self.solve_with(&problems[i], tuning);
                    *slots[i].lock().expect("batch slot poisoned") = Some(solution);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("batch slot poisoned")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }
}

/// The sparse revised simplex over the CSR constraint matrix — the crate's
/// one solver.
///
/// Sessions keep live state: re-minimizing with a new objective restarts
/// phase 2 from the previous optimal basis, incrementally added rows extend
/// the basis instead of rebuilding it, and a cutting row is repaired by a
/// handful of dual-simplex pivots rather than a phase-1 restart (see
/// `crates/lp/src/core.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseBackend;

impl LpBackend for SparseBackend {
    fn name(&self) -> &str {
        "sparse-revised-simplex"
    }

    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
        self.open_with(problem, &SolverTuning::default())
    }

    fn open_with<'a>(
        &'a self,
        problem: &LpProblem,
        tuning: &SolverTuning,
    ) -> Box<dyn LpSession + 'a> {
        if tuning.presolve {
            let pre = presolve(problem);
            let inner = Box::new(SimplexCore::open_with(pre.reduced(), tuning));
            Box::new(pre.into_session(inner))
        } else {
            Box::new(SimplexCore::open_with(problem, tuning))
        }
    }
}

/// Blanket impl so `&B` and `&dyn LpBackend` are themselves backends — lets
/// callers thread borrowed backends through generic code.  Every method
/// forwards, so a borrowed stateful backend keeps its stateful sessions.
impl<B: LpBackend + ?Sized> LpBackend for &B {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
        (**self).open(problem)
    }

    fn open_with<'a>(
        &'a self,
        problem: &LpProblem,
        tuning: &SolverTuning,
    ) -> Box<dyn LpSession + 'a> {
        (**self).open_with(problem, tuning)
    }

    fn solve(&self, problem: &LpProblem) -> LpSolution {
        (**self).solve(problem)
    }

    fn solve_with(&self, problem: &LpProblem, tuning: &SolverTuning) -> LpSolution {
        (**self).solve_with(problem, tuning)
    }

    fn solve_batch(&self, problems: &[LpProblem], threads: usize) -> Vec<LpSolution> {
        (**self).solve_batch(problems, threads)
    }

    fn solve_batch_with(
        &self,
        problems: &[LpProblem],
        threads: usize,
        tuning: &SolverTuning,
    ) -> Vec<LpSolution> {
        (**self).solve_batch_with(problems, threads, tuning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::LpStatus;

    fn toy_problem() -> LpProblem {
        // minimize -x - 2y  s.t.  x + y <= 4, y <= 3; optimum -7 at (1, 3).
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
        lp.set_objective(vec![(x, -1.0), (y, -2.0)]);
        lp
    }

    #[test]
    fn simplex_backend_matches_direct_solve() {
        let lp = toy_problem();
        let direct = lp.solve();
        let via_backend = SparseBackend.solve(&lp);
        assert_eq!(via_backend.status, LpStatus::Optimal);
        assert!((via_backend.objective - direct.objective).abs() < 1e-9);
    }

    #[test]
    fn backends_work_behind_references_and_dyn() {
        let lp = toy_problem();
        let backend = SparseBackend;
        let by_ref: &SparseBackend = &backend;
        assert_eq!(by_ref.name(), "sparse-revised-simplex");
        assert!(by_ref.solve(&lp).is_optimal());
        let dynamic: &dyn LpBackend = &backend;
        assert!(dynamic.solve(&lp).is_optimal());
        assert_eq!(dynamic.name(), "sparse-revised-simplex");
        assert!(dynamic.open(&lp).minimize(lp.objective()).is_optimal());
    }

    /// A session that keeps the growable problem and re-solves it from
    /// scratch on every `minimize` — the shape of a one-shot third-party
    /// solver behind the session seam.
    struct ReSolveSession(LpProblem);

    impl LpSession for ReSolveSession {
        fn add_var(&mut self, name: &str, free: bool) -> LpVarId {
            self.0.add_var(name, free)
        }

        fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
            self.0.add_constraint(terms.to_vec(), cmp, rhs);
        }

        fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
            self.0.set_objective(objective.to_vec());
            self.0.solve()
        }

        fn num_vars(&self) -> usize {
            self.0.num_vars()
        }

        fn num_constraints(&self) -> usize {
            self.0.num_constraints()
        }
    }

    /// A third-party backend that implements only the required `open`
    /// (as a re-solving session) must inherit working `solve` and
    /// `solve_batch` defaults.
    struct MinimalBackend;

    impl LpBackend for MinimalBackend {
        fn name(&self) -> &str {
            "minimal"
        }

        fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
            Box::new(ReSolveSession(problem.clone()))
        }
    }

    #[test]
    fn open_only_backends_inherit_solve_and_sessions() {
        let lp = toy_problem();
        assert!((MinimalBackend.solve(&lp).objective - (-7.0)).abs() < 1e-7);
        let mut session = MinimalBackend.open(&lp);
        let first = session.minimize(lp.objective());
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - (-7.0)).abs() < 1e-7);
        assert!(!session.warm_resolves_in_place());
        // Incremental row through the re-solving session: y <= 1 moves the
        // optimum to (3, 1) with objective -5.
        let y = LpVarId::from_index(1);
        session.add_constraint(&[(y, 1.0)], Cmp::Le, 1.0);
        let second = session.minimize(lp.objective());
        assert!((second.objective - (-5.0)).abs() < 1e-7);
        assert_eq!(session.num_constraints(), 3);
        assert_eq!(session.num_vars(), 2);
    }

    #[test]
    fn solve_batch_matches_sequential_solves() {
        let problems: Vec<LpProblem> = (0..7)
            .map(|i| {
                let mut lp = LpProblem::new();
                let x = lp.add_var("x", false);
                lp.add_constraint(vec![(x, 1.0)], Cmp::Le, i as f64);
                lp.set_objective(vec![(x, -1.0)]);
                lp
            })
            .collect();
        let sequential = SparseBackend.solve_batch(&problems, 1);
        let parallel = SparseBackend.solve_batch(&problems, 4);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.status, p.status);
            assert_eq!(s.objective, p.objective);
        }
        assert!((parallel[5].objective - (-5.0)).abs() < 1e-9);
    }
}
