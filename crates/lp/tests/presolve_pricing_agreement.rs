//! Property test pinning the presolve pass to the presolve-free solve on
//! randomly generated LPs: presolve → solve → postsolve must agree with a
//! direct solve on status and optimal objective, and the postsolved point
//! must satisfy every *original* constraint and domain (the reductions may
//! rewrite the system, never the answer).  (Pricing agreement used to live
//! here too; there is one pricing rule left, pinned to the independent
//! oracle in `dense_sparse_agreement.rs`.)

mod common;

use cma_lp::{Cmp, LpBackend, LpProblem, LpStatus, LpVarId, SparseBackend};
use common::{decode, statuses_agree};
use proptest::prelude::*;

const TOL: f64 = 1e-5;

/// Checks that `solution` satisfies every constraint and domain of the
/// *original* problem within tolerance.
fn assert_feasible(lp: &LpProblem, ids: &[LpVarId], solution: &cma_lp::LpSolution) {
    for i in 0..lp.num_constraints() {
        let lhs: f64 = lp
            .constraint_terms(i)
            .map(|(v, c)| c * solution.value(v))
            .sum();
        let rhs = lp.rhs(i);
        let slack = TOL * (1.0 + rhs.abs());
        let ok = match lp.cmp(i) {
            Cmp::Le => lhs <= rhs + slack,
            Cmp::Ge => lhs >= rhs - slack,
            Cmp::Eq => (lhs - rhs).abs() <= slack,
        };
        assert!(ok, "row {i} violated: {lhs} vs {:?} {rhs}", lp.cmp(i));
    }
    for &v in ids {
        if !lp.is_free(v) {
            assert!(
                solution.value(v) >= -TOL,
                "domain violated: {}",
                solution.value(v)
            );
        }
    }
}

proptest! {
    #[test]
    fn presolved_solves_agree_with_direct_solves(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
    ) {
        let (lp, ids) = decode(&seed, vars);
        // Direct reference: the one-shot solve, no presolve wrapper.
        let direct = lp.solve();
        let presolved = SparseBackend.solve(&lp);
        prop_assert!(
            statuses_agree(&direct, &presolved),
            "status mismatch under presolve: direct {:?} vs presolved {:?}",
            direct.status,
            presolved.status
        );
        if direct.status == LpStatus::Optimal && presolved.status == LpStatus::Optimal {
            prop_assert!(
                (direct.objective - presolved.objective).abs()
                    <= TOL * (1.0 + direct.objective.abs()),
                "objective mismatch under presolve: direct {} vs presolved {}",
                direct.objective,
                presolved.objective
            );
            // The postsolved point must satisfy the *original* system.
            prop_assert_eq!(presolved.values().len(), lp.num_vars());
            assert_feasible(&lp, &ids, &presolved);
        }
    }
}
