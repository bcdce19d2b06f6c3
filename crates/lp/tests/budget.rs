//! Property and unit tests for the [`SolveBudget`] contract.
//!
//! * **verdict invariance** — a budgeted solve may return `BudgetExhausted`,
//!   but whenever it *does* reach a verdict that verdict matches the
//!   unbudgeted solve: running out of budget truncates the search, it never
//!   flips feasible to infeasible (or vice versa).
//! * **deadline slack** — a solve with a wall-clock deadline returns within
//!   the deadline plus a bounded slack (one pivot batch of cooperative
//!   cancellation latency), no matter the instance.
//! * **carry-over** — the budget spans a session's whole lifetime: repeated
//!   minimizes draw down the same iteration pool on both the stateful
//!   sparse session and the cold re-solving reference session.

mod common;

use std::time::{Duration, Instant};

use cma_lp::{Cmp, LpBackend, LpProblem, LpStatus, SolveBudget, SolverTuning, SparseBackend};
use common::cold::ColdBackend;
use proptest::prelude::*;

fn decode(seed: &[(f64, f64, f64)], vars: usize) -> LpProblem {
    common::decode(seed, vars).0
}

/// Wall-clock slack allowed past the deadline: the cooperative check runs
/// once per pivot batch, so overshoot is a handful of pivots on these
/// instance sizes.  Generous for CI jitter, still far below a hang.
const DEADLINE_SLACK: Duration = Duration::from_millis(500);

proptest! {
    /// A budget never flips a verdict: for every iteration cap, the budgeted
    /// status is either `BudgetExhausted` or exactly the unbudgeted status.
    #[test]
    fn budget_exhaustion_never_flips_a_verdict(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
        cap in 1usize..40,
    ) {
        let lp = decode(&seed, vars);
        let unbudgeted = SparseBackend.solve(&lp);
        let tuning = SolverTuning::with_budget(SolveBudget::with_max_iters(cap));
        for backend in [&SparseBackend as &dyn LpBackend, &ColdBackend] {
            let budgeted = backend.solve_with(&lp, &tuning);
            prop_assert!(
                budgeted.status == LpStatus::BudgetExhausted
                    || budgeted.status == unbudgeted.status,
                "cap {cap}: budgeted {:?} vs unbudgeted {:?}",
                budgeted.status,
                unbudgeted.status,
            );
            if budgeted.status == LpStatus::Optimal {
                prop_assert!(
                    (budgeted.objective - unbudgeted.objective).abs() < 1e-6,
                    "optimal under budget but objective drifted: {} vs {}",
                    budgeted.objective,
                    unbudgeted.objective,
                );
            }
        }
    }

    /// A wall-clock deadline is respected within the cooperative-check
    /// slack, and an already-expired deadline returns promptly.  The check
    /// period is tightened to 1 — every pivot polls the clock — so overshoot
    /// is bounded by a single pivot plus CI jitter, not a full period of
    /// heavy pivots.
    #[test]
    fn deadline_is_respected_within_slack(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
        timeout_ms in 0u64..20,
    ) {
        let lp = decode(&seed, vars);
        let budget = SolveBudget::with_timeout(Duration::from_millis(timeout_ms));
        let deadline = budget.deadline.expect("with_timeout sets a deadline");
        let tuning = SolverTuning {
            deadline_check_period: 1,
            ..SolverTuning::with_budget(budget)
        };
        let solution = SparseBackend.solve_with(&lp, &tuning);
        let finished = Instant::now();
        prop_assert!(
            finished <= deadline + DEADLINE_SLACK,
            "solve overshot its deadline by {:?}",
            finished.duration_since(deadline),
        );
        // Whatever the outcome, it is a real status — and if the deadline
        // cut the solve short, that is exactly what the status says.
        if solution.status != LpStatus::BudgetExhausted {
            let unbudgeted = SparseBackend.solve(&lp);
            prop_assert_eq!(solution.status, unbudgeted.status);
        }
    }
}

#[test]
fn expired_deadline_reports_exhaustion_not_infeasibility() {
    // A perfectly feasible system under an already-expired deadline must
    // report BudgetExhausted — never Infeasible.
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
    lp.set_objective(vec![(x, 1.0)]);
    let expired = SolveBudget {
        deadline: Some(Instant::now() - Duration::from_secs(1)),
        ..SolveBudget::UNLIMITED
    };
    for backend in [&SparseBackend as &dyn LpBackend, &ColdBackend] {
        let sol = backend.solve_with(&lp, &SolverTuning::with_budget(expired));
        assert_eq!(sol.status, LpStatus::BudgetExhausted);
    }
}

#[test]
fn session_budget_carries_over_across_minimizes() {
    // One pool for the whole session: an iteration budget generous enough
    // for one solve runs dry after enough re-minimizes.
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
    lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
    let first_cost = SparseBackend
        .solve_with(
            &{
                let mut p = lp.clone();
                p.set_objective(vec![(x, 1.0), (y, 1.0)]);
                p
            },
            &SolverTuning::default(),
        )
        .stats
        .iterations;
    assert!(first_cost > 0);
    for backend in [&SparseBackend as &dyn LpBackend, &ColdBackend] {
        // Enough for the first solve and a bit of warm re-minimizing, but
        // not for an unbounded number of them.
        let budget = SolveBudget::with_max_iters(first_cost + 4);
        let mut session = backend.open_with(&lp, &SolverTuning::with_budget(budget));
        let mut statuses = Vec::new();
        for round in 0..50 {
            let objective = if round % 2 == 0 {
                vec![(x, 1.0), (y, 1.0)]
            } else {
                vec![(x, 5.0), (y, 1.0)]
            };
            statuses.push(session.minimize(&objective).status);
        }
        assert_eq!(statuses[0], LpStatus::Optimal, "{}", backend.name());
        assert_eq!(
            *statuses.last().unwrap(),
            LpStatus::BudgetExhausted,
            "session budget never ran dry on {}",
            backend.name()
        );
        // Once exhausted, the session stays exhausted (no verdict can be
        // manufactured out of an empty budget).
        let from_first_exhaustion = statuses
            .iter()
            .skip_while(|&&s| s != LpStatus::BudgetExhausted);
        assert!(from_first_exhaustion
            .clone()
            .all(|&s| s == LpStatus::BudgetExhausted));
    }
}

#[test]
fn refactorization_cap_is_enforced() {
    let mut lp = LpProblem::new();
    let vars: Vec<_> = (0..8).map(|i| lp.add_var(format!("v{i}"), false)).collect();
    for (i, pair) in vars.windows(2).enumerate() {
        lp.add_constraint(
            vec![(pair[0], 1.0), (pair[1], 2.0)],
            if i % 2 == 0 { Cmp::Ge } else { Cmp::Le },
            1.0 + i as f64,
        );
    }
    lp.set_objective(vars.iter().map(|&v| (v, 1.0)).collect());
    let unbudgeted = SparseBackend.solve(&lp);
    assert!(unbudgeted.is_optimal());
    // Zero refactorizations allowed: the solver cannot even complete its
    // verdict-confirming rebuilds, so it must bail out as exhausted the
    // moment it tries — and still must not claim infeasibility.
    let strangled = SparseBackend.solve_with(
        &lp,
        &SolverTuning::with_budget(SolveBudget {
            max_refactorizations: Some(0),
            ..SolveBudget::UNLIMITED
        }),
    );
    assert_ne!(strangled.status, LpStatus::Infeasible);
    assert_ne!(strangled.status, LpStatus::Unbounded);
}
