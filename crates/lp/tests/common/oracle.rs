//! An independent LP oracle: a dense two-phase tableau simplex under
//! Bland's rule.
//!
//! It shares no code with the production solver — no presolve, no bound
//! absorption, no factorization, no pricing heuristics, no anti-degeneracy
//! perturbation — and is only meant for the handful-of-rows systems the
//! property tests generate.  Free variables are split into a positive and
//! a negative column; Bland's smallest-index rule guarantees termination.

use cma_lp::{Cmp, LpProblem, LpStatus};

const EPS: f64 = 1e-9;
/// Phase 1 ends feasible when the artificial sum is at most this.
const FEAS_EPS: f64 = 1e-7;

/// The oracle's verdict on one problem.
#[derive(Debug, Clone)]
pub struct OracleSolution {
    pub status: LpStatus,
    /// Optimal objective value (0 unless `status` is `Optimal`).
    pub objective: f64,
}

/// Column bookkeeping of the standard form.
struct Tableau {
    /// `rows[i]` holds row `i` of `B⁻¹[A | b]` (rhs in the last slot).
    rows: Vec<Vec<f64>>,
    basis: Vec<usize>,
    artificial: Vec<bool>,
}

impl Tableau {
    fn width(&self) -> usize {
        self.artificial.len()
    }

    fn pivot(&mut self, p: usize, q: usize) {
        let pivot = self.rows[p][q];
        for x in &mut self.rows[p] {
            *x /= pivot;
        }
        let pivot_row = self.rows[p].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            let factor = row[q];
            if i != p && factor != 0.0 {
                for (x, pr) in row.iter_mut().zip(&pivot_row) {
                    *x -= factor * pr;
                }
            }
        }
        self.basis[p] = q;
    }

    /// Reduced cost of column `j` under standard-form costs `c`.
    fn reduced_cost(&self, c: &[f64], j: usize) -> f64 {
        c[j] - self
            .rows
            .iter()
            .zip(&self.basis)
            .map(|(row, &b)| c[b] * row[j])
            .sum::<f64>()
    }

    fn objective(&self, c: &[f64]) -> f64 {
        let rhs = self.width();
        self.rows
            .iter()
            .zip(&self.basis)
            .map(|(row, &b)| c[b] * row[rhs])
            .sum()
    }

    /// Primal simplex under Bland's rule; `false` when unbounded.
    fn run(&mut self, c: &[f64], allow_artificials: bool) -> bool {
        let rhs = self.width();
        for _ in 0..100_000 {
            let entering = (0..self.width()).find(|&j| {
                (allow_artificials || !self.artificial[j])
                    && !self.basis.contains(&j)
                    && self.reduced_cost(c, j) < -EPS
            });
            let Some(q) = entering else {
                return true;
            };
            let mut leaving: Option<(usize, f64)> = None;
            for (i, row) in self.rows.iter().enumerate() {
                if row[q] > EPS {
                    let ratio = row[rhs] / row[q];
                    let better = match leaving {
                        None => true,
                        Some((l, best)) => {
                            ratio < best - EPS
                                || (ratio <= best + EPS && self.basis[i] < self.basis[l])
                        }
                    };
                    if better {
                        leaving = Some((i, ratio));
                    }
                }
            }
            let Some((p, _)) = leaving else {
                return false;
            };
            self.pivot(p, q);
        }
        panic!("Bland's rule failed to terminate");
    }
}

/// Solves `problem` (its own objective) from scratch.
pub fn solve(problem: &LpProblem) -> OracleSolution {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    // Structural columns: var v → (pos, optional neg).
    let mut var_cols = Vec::with_capacity(n);
    let mut width = 0;
    for v in 0..n {
        let free = problem.is_free(cma_lp::LpVarId::from_index(v));
        var_cols.push((width, free.then_some(width + 1)));
        width += if free { 2 } else { 1 };
    }
    // Row coefficients over structural columns, sign-normalized to rhs ≥ 0.
    let mut dense_rows = Vec::with_capacity(m);
    for i in 0..m {
        let mut coeffs = vec![0.0; width];
        for (v, a) in problem.constraint_terms(i) {
            let (pos, neg) = var_cols[v.index()];
            coeffs[pos] += a;
            if let Some(neg) = neg {
                coeffs[neg] -= a;
            }
        }
        let (mut cmp, mut b) = (problem.cmp(i), problem.rhs(i));
        if b < 0.0 {
            for c in &mut coeffs {
                *c = -*c;
            }
            b = -b;
            cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
        dense_rows.push((coeffs, cmp, b));
    }
    // Slack/surplus columns, then artificials for rows without a +1 slack.
    let slacks = dense_rows.iter().filter(|r| r.1 != Cmp::Eq).count();
    let artificials = dense_rows.iter().filter(|r| r.1 != Cmp::Le).count();
    let total = width + slacks + artificials;
    let mut artificial = vec![false; total];
    let mut rows = Vec::with_capacity(m);
    let mut basis = Vec::with_capacity(m);
    let (mut next_slack, mut next_art) = (width, width + slacks);
    for (coeffs, cmp, b) in dense_rows {
        let mut row = coeffs;
        row.resize(total + 1, 0.0);
        row[total] = b;
        match cmp {
            Cmp::Le => {
                row[next_slack] = 1.0;
                basis.push(next_slack);
                next_slack += 1;
            }
            Cmp::Ge | Cmp::Eq => {
                if cmp == Cmp::Ge {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                }
                row[next_art] = 1.0;
                artificial[next_art] = true;
                basis.push(next_art);
                next_art += 1;
            }
        }
        rows.push(row);
    }
    let mut tableau = Tableau {
        rows,
        basis,
        artificial,
    };

    // Phase 1: minimize the artificial sum.
    let phase1: Vec<f64> = tableau
        .artificial
        .iter()
        .map(|&a| if a { 1.0 } else { 0.0 })
        .collect();
    tableau.run(&phase1, true);
    if tableau.objective(&phase1) > FEAS_EPS {
        return OracleSolution {
            status: LpStatus::Infeasible,
            objective: 0.0,
        };
    }
    // Drive zero-valued artificials out of the basis where a structural or
    // slack column can replace them; rows where none can are redundant.
    for p in 0..m {
        if tableau.artificial[tableau.basis[p]] {
            let q = (0..total).find(|&j| !tableau.artificial[j] && tableau.rows[p][j].abs() > EPS);
            if let Some(q) = q {
                tableau.pivot(p, q);
            }
        }
    }

    // Phase 2 over the problem's objective; artificials never re-enter.
    let mut costs = vec![0.0; total];
    for &(v, c) in problem.objective() {
        let (pos, neg) = var_cols[v.index()];
        costs[pos] += c;
        if let Some(neg) = neg {
            costs[neg] -= c;
        }
    }
    if !tableau.run(&costs, false) {
        return OracleSolution {
            status: LpStatus::Unbounded,
            objective: 0.0,
        };
    }
    OracleSolution {
        status: LpStatus::Optimal,
        objective: tableau.objective(&costs),
    }
}
