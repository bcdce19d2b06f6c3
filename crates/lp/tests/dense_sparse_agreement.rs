//! Property tests pinning the production solver to the independent dense
//! tableau oracle (`common/oracle.rs`) on randomly generated LPs: statuses
//! always agree, and optimal objective values agree within 1e-6 — through
//! one-shot solves (with and without presolve) and through a session that
//! receives the rows incrementally and repairs them with dual pivots.  Each
//! case also runs with every variable boxed, so most systems come out
//! bounded (the plain generator yields mostly infeasible and unbounded
//! ones) and the bound-flipping paths see boxed columns.

mod common;

use cma_lp::{LpBackend, LpProblem, LpSolution, LpStatus, LpVarId, SparseBackend};
use common::oracle::{self, OracleSolution};
use common::{boxed, decode, prefix};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

/// Asserts equal statuses and, for optimal solves, objectives within `TOL`
/// (relative to their magnitude).
fn assert_agrees(reference: &OracleSolution, solution: &LpSolution, context: &str) {
    assert_eq!(
        reference.status, solution.status,
        "{context}: status mismatch (oracle vs production)"
    );
    if reference.status == LpStatus::Optimal {
        assert!(
            (reference.objective - solution.objective).abs()
                <= TOL * (1.0 + reference.objective.abs()),
            "{context}: objective mismatch: oracle {} vs production {}",
            reference.objective,
            solution.objective
        );
    }
}

proptest! {
    #[test]
    fn sparse_agrees_with_dense_on_random_lps(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
    ) {
        let (plain, _ids) = decode(&seed, vars);
        for lp in [boxed(&plain, 10.0), plain] {
            let reference = oracle::solve(&lp);
            // The session backend (presolve on) and the one-shot solve
            // (presolve off).
            for (label, solution) in [("backend", SparseBackend.solve(&lp)), ("one-shot", lp.solve())] {
                assert_agrees(&reference, &solution, label);
            }
        }
    }

    #[test]
    fn sparse_sessions_agree_with_dense_under_incremental_rows(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 2..9),
        vars in 1usize..6,
        split in 1usize..4,
    ) {
        // Open the session on a prefix of the rows, feed the rest
        // incrementally, and compare against the oracle's from-scratch solve
        // of the full system.
        let (plain, ids) = decode(&seed, vars);
        // Boxed systems open on the box plus `split` rows.
        for (full, split) in [(boxed(&plain, 10.0), 2 * ids.len() + split), (plain, split)] {
            let split = split.min(full.num_constraints());
            let mut session = SparseBackend.open(&prefix(&full, split));
            session.minimize(full.objective());
            for i in split..full.num_constraints() {
                let terms: Vec<(LpVarId, f64)> = full.constraint_terms(i).collect();
                session.add_constraint(&terms, full.cmp(i), full.rhs(i));
            }
            let incremental = session.minimize(full.objective());
            assert_agrees(&oracle::solve(&full), &incremental, "after incremental rows");
        }
    }
}

/// The oracle itself on hand-checked systems, so a bug in it cannot hide
/// behind agreement with the production solver.
#[test]
fn oracle_solves_hand_checked_systems() {
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], cma_lp::Cmp::Le, 4.0);
    lp.add_constraint(vec![(y, 1.0)], cma_lp::Cmp::Le, 3.0);
    lp.set_objective(vec![(x, -1.0), (y, -2.0)]);
    let sol = oracle::solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - (-7.0)).abs() < 1e-9);

    let mut free = LpProblem::new();
    let z = free.add_var("z", true);
    free.add_constraint(vec![(z, 1.0)], cma_lp::Cmp::Ge, -2.5);
    free.set_objective(vec![(z, 1.0)]);
    assert!((oracle::solve(&free).objective - (-2.5)).abs() < 1e-9);
    free.set_objective(vec![(z, -1.0)]);
    assert_eq!(oracle::solve(&free).status, LpStatus::Unbounded);
    free.add_constraint(vec![(z, 1.0)], cma_lp::Cmp::Eq, -3.0);
    assert_eq!(oracle::solve(&free).status, LpStatus::Infeasible);
}
