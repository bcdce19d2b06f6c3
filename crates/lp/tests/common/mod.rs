//! Test references shared by the `cma-lp` integration tests: the
//! independent dense-tableau [`oracle`], the [`cold`] re-solving backend,
//! and the random-LP generator.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

pub mod cold;
pub mod oracle;

use cma_lp::{Cmp, LpProblem, LpSolution, LpStatus, LpVarId};

/// Deterministically decodes a generated seed vector into an LP: a mix of
/// free/non-negative variables, Le/Ge/Eq rows with small half-integer
/// coefficients, and a signed objective.  Infeasible and unbounded
/// instances are generated on purpose; singleton and duplicate rows —
/// exactly what presolve rewrites — occur naturally at small variable
/// counts.
pub fn decode(seed: &[(f64, f64, f64)], vars: usize) -> (LpProblem, Vec<LpVarId>) {
    let mut lp = LpProblem::new();
    let ids: Vec<LpVarId> = (0..vars)
        .map(|i| lp.add_var(format!("v{i}"), i % 3 == 0))
        .collect();
    for (i, &(a, b, c)) in seed.iter().enumerate() {
        let terms: Vec<(LpVarId, f64)> = ids
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, ((a * (j as f64 + 1.0) + b).sin() * 4.0).round() / 2.0))
            .filter(|&(_, coeff)| coeff != 0.0)
            .collect();
        let cmp = match i % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        if terms.is_empty() {
            continue;
        }
        lp.add_constraint(terms, cmp, (c * 10.0).round() / 2.0);
    }
    lp.set_objective(
        ids.iter()
            .enumerate()
            .map(|(j, &v)| (v, if j % 2 == 0 { 1.0 } else { 0.5 }))
            .collect(),
    );
    (lp, ids)
}

/// The first `rows` rows of `full` over the same variable space (same
/// creation order, so the same ids).
pub fn prefix(full: &LpProblem, rows: usize) -> LpProblem {
    let mut prefix = LpProblem::new();
    for v in 0..full.num_vars() {
        let v = LpVarId::from_index(v);
        prefix.add_var(full.var_name(v), full.is_free(v));
    }
    for i in 0..rows {
        prefix.add_constraint(full.constraint_terms(i).collect(), full.cmp(i), full.rhs(i));
    }
    prefix
}

/// `lp` with the box `-bound ≤ v ≤ bound` on every variable prepended (so
/// the decoded systems come out bounded, and sessions opened on a prefix
/// start from an optimal basis).
pub fn boxed(lp: &LpProblem, bound: f64) -> LpProblem {
    let mut out = prefix(lp, 0);
    for v in 0..lp.num_vars() {
        let v = LpVarId::from_index(v);
        out.add_constraint(vec![(v, 1.0)], Cmp::Le, bound);
        out.add_constraint(vec![(v, 1.0)], Cmp::Ge, -bound);
    }
    for i in 0..lp.num_constraints() {
        out.add_constraint(lp.constraint_terms(i).collect(), lp.cmp(i), lp.rhs(i));
    }
    out.set_objective(lp.objective().to_vec());
    out
}

/// Whether two solves reached the same verdict; `BudgetExhausted` on either
/// side (numerical exhaustion) is excused.
pub fn statuses_agree(a: &LpSolution, b: &LpSolution) -> bool {
    a.status == b.status
        || a.status == LpStatus::BudgetExhausted
        || b.status == LpStatus::BudgetExhausted
}
