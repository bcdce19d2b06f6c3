//! The LP constraint builder.
//!
//! Collects the linear constraints emitted by the derivation rules (§3.4),
//! the objective that rewards tight bounds, and mild regularization bounds on
//! template coefficients that keep the LP bounded.  Rows are emitted sparsely
//! into a shared [`ConstraintStore`], which the engine either snapshots into
//! one [`cma_lp::LpProblem`] per group (batch solving) or flushes
//! incrementally into an open [`cma_lp::LpSession`] (the soundness phase
//! extends the main system this way instead of re-deriving it).

use cma_lp::{Cmp, LpBackend, LpSolution, LpVarId, SparseBackend};
use cma_semiring::poly::{Monomial, Var};

use crate::plan::DerivationPlan;
use crate::store::ConstraintStore;
use crate::template::{LinCoef, SymInterval, SymMoment, TemplatePoly};

/// Builder that accumulates LP variables, constraints, and the objective.
///
/// The builder also carries the run's [`DerivationPlan`]: the walk records
/// template slots and constraint recipes into it (or replays against it,
/// depending on the plan's mode) through
/// [`planned_moment`](Self::planned_moment) and the gate consulted by
/// [`require_contains`](crate::weaken::require_contains).
#[derive(Debug, Default)]
pub struct ConstraintBuilder {
    store: ConstraintStore,
    fresh_counter: usize,
    plan: DerivationPlan,
}

impl ConstraintBuilder {
    /// Creates an empty builder (with an empty recording plan).
    pub fn new() -> Self {
        ConstraintBuilder {
            plan: DerivationPlan::new(),
            ..ConstraintBuilder::default()
        }
    }

    /// Number of LP variables created so far.
    pub fn num_vars(&self) -> usize {
        self.store.num_vars()
    }

    /// Number of LP constraints emitted so far.
    pub fn num_constraints(&self) -> usize {
        self.store.num_constraints()
    }

    /// The underlying constraint store.
    pub fn store(&self) -> &ConstraintStore {
        &self.store
    }

    /// Mutable access to the underlying constraint store (the engine opens
    /// sessions and flushes increments through it).
    pub fn store_mut(&mut self) -> &mut ConstraintStore {
        &mut self.store
    }

    /// The derivation plan this builder records into / replays against.
    pub fn plan(&self) -> &DerivationPlan {
        &self.plan
    }

    /// Mutable access to the plan (the engine switches modes around walks).
    pub fn plan_mut(&mut self) -> &mut DerivationPlan {
        &mut self.plan
    }

    /// Moves the plan out (for transplanting into a fresh builder on a
    /// poly-degree re-instantiation), leaving an empty recording plan.
    pub fn take_plan(&mut self) -> DerivationPlan {
        std::mem::take(&mut self.plan)
    }

    /// Installs a plan (typically one taken from a previous builder).
    pub fn install_plan(&mut self, plan: DerivationPlan) {
        self.plan = plan;
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh_counter += 1;
        format!("{prefix}#{}", self.fresh_counter)
    }

    /// A fresh free (sign-unrestricted) LP unknown for a template coefficient.
    pub fn fresh_coefficient(&mut self, prefix: &str) -> LpVarId {
        let name = self.fresh_name(prefix);
        self.store.add_var(name, true)
    }

    /// A fresh non-negative LP unknown (used for certificate multipliers).
    pub fn fresh_multiplier(&mut self, prefix: &str) -> LpVarId {
        let name = self.fresh_name(prefix);
        self.store.add_var(name, false)
    }

    /// A fresh template polynomial over `vars` with total degree ≤ `degree`.
    pub fn fresh_poly(&mut self, prefix: &str, vars: &[Var], degree: u32) -> TemplatePoly {
        let monomials = Monomial::all_up_to_degree(vars, degree);
        TemplatePoly::from_terms(
            monomials
                .into_iter()
                .map(|m| (m, LinCoef::var(self.fresh_coefficient(prefix)))),
        )
    }

    /// A fresh symbolic interval whose ends are template polynomials.
    pub fn fresh_interval(&mut self, prefix: &str, vars: &[Var], degree: u32) -> SymInterval {
        SymInterval {
            lo: self.fresh_poly(&format!("{prefix}.lo"), vars, degree),
            hi: self.fresh_poly(&format!("{prefix}.hi"), vars, degree),
        }
    }

    /// A fresh `h`-restricted moment annotation of degree `m`: components
    /// `k < restriction` are the zero interval; component `k ≥ restriction`
    /// is a template of polynomial degree `k · poly_degree`.
    pub fn fresh_moment(
        &mut self,
        prefix: &str,
        vars: &[Var],
        m: usize,
        poly_degree: u32,
        restriction: usize,
    ) -> SymMoment {
        let components = (0..=m)
            .map(|k| {
                if k < restriction {
                    SymInterval::zero()
                } else {
                    self.fresh_interval(
                        &format!("{prefix}.m{k}"),
                        vars,
                        component_degree(k, poly_degree),
                    )
                }
            })
            .collect();
        SymMoment::from_components(components)
    }

    /// A plan-aware [`fresh_moment`](Self::fresh_moment): the template slot
    /// `key` is resolved against the builder's [`DerivationPlan`], so
    /// components an earlier instantiation already minted are *reused* (their
    /// LP columns come back verbatim) and only genuinely new components
    /// allocate fresh coefficients.  In recording mode this behaves exactly
    /// like `fresh_moment` plus bookkeeping.
    pub fn planned_moment(
        &mut self,
        key: &str,
        prefix: &str,
        vars: &[Var],
        m: usize,
        poly_degree: u32,
        restriction: usize,
    ) -> SymMoment {
        let mut plan = self.take_plan();
        let (mut served, record) = plan.slot_components(key, restriction, m);
        let components = (0..=m)
            .map(|k| {
                if let Some(interval) = served[k].take() {
                    return interval;
                }
                let interval = if k < restriction {
                    SymInterval::zero()
                } else {
                    self.fresh_interval(
                        &format!("{prefix}.m{k}"),
                        vars,
                        component_degree(k, poly_degree),
                    )
                };
                if record {
                    plan.record_component(key, k, &interval);
                }
                interval
            })
            .collect();
        self.install_plan(plan);
        SymMoment::from_components(components)
    }

    /// Gate for the constraint recipe `key` about to instantiate components
    /// `0..=m`: the first component whose rows must actually be emitted (see
    /// [`DerivationPlan::recipe_gate`]).
    pub fn recipe_gate(&mut self, key: &str, m: usize) -> usize {
        self.plan.recipe_gate(key, m)
    }

    /// Emits the constraint `coef = 0`.
    pub fn constrain_zero_coef(&mut self, coef: &LinCoef) {
        let terms: Vec<(LpVarId, f64)> = coef.terms().collect();
        if terms.is_empty() {
            // A non-zero constant with no unknowns can never be satisfied; emit
            // an explicitly infeasible constraint so the solver reports it.
            if coef.constant_part().abs() > 1e-9 {
                let dummy = self.fresh_multiplier("infeasible");
                self.store.add_constraint(vec![(dummy, 0.0)], Cmp::Eq, 1.0);
            }
            return;
        }
        self.store
            .add_constraint(terms, Cmp::Eq, -coef.constant_part());
    }

    /// Emits the constraint `coef ≥ 0`.
    pub fn constrain_nonneg_coef(&mut self, coef: &LinCoef) {
        let terms: Vec<(LpVarId, f64)> = coef.terms().collect();
        if terms.is_empty() {
            if coef.constant_part() < -1e-9 {
                let dummy = self.fresh_multiplier("infeasible");
                self.store.add_constraint(vec![(dummy, 0.0)], Cmp::Eq, 1.0);
            }
            return;
        }
        self.store
            .add_constraint(terms, Cmp::Ge, -coef.constant_part());
    }

    /// Emits `poly = 0` coefficient-wise (one equality per monomial).
    pub fn constrain_zero_poly(&mut self, poly: &TemplatePoly) {
        let monomials: Vec<Monomial> = poly.monomials().cloned().collect();
        for m in monomials {
            self.constrain_zero_coef(&poly.coefficient(&m));
        }
    }

    /// Adds `weight · value(coef)` to the minimization objective.
    pub fn add_objective(&mut self, coef: &LinCoef, weight: f64) {
        for (v, c) in coef.terms() {
            self.store.add_objective_term(v, c * weight);
        }
    }

    /// Solves the accumulated problem with [`SparseBackend`].
    pub fn solve(&mut self) -> LpSolution {
        self.solve_with(&SparseBackend)
    }

    /// Solves the accumulated problem with the given [`LpBackend`]
    /// (duplicate objective entries aggregate).
    pub fn solve_with(&mut self, backend: &dyn LpBackend) -> LpSolution {
        backend.solve(&self.store.to_problem())
    }
}

/// Template degree of the `k`-th moment component under base degree `d`.
fn component_degree(k: usize, poly_degree: u32) -> u32 {
    (k as u32 * poly_degree).max(if k == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_semiring::poly::Polynomial;

    #[test]
    fn fresh_poly_has_all_monomials() {
        let mut b = ConstraintBuilder::new();
        let vars = [Var::new("x"), Var::new("y")];
        let p = b.fresh_poly("t", &vars, 2);
        assert_eq!(p.monomials().count(), 6);
        assert_eq!(b.num_vars(), 6);
    }

    #[test]
    fn fresh_moment_respects_restriction() {
        let mut b = ConstraintBuilder::new();
        let vars = [Var::new("x")];
        let q = b.fresh_moment("spec", &vars, 2, 1, 1);
        assert!(q.component(0).is_zero());
        assert!(!q.component(1).is_zero());
        assert!(!q.component(2).is_zero());
        // Degree of the k-th component is k.
        assert_eq!(q.component(2).hi.monomials().count(), 3);
    }

    #[test]
    fn constrain_zero_poly_pins_template_to_concrete_value() {
        // fresh p(x) constrained to equal 3x + 1, objective irrelevant.
        let mut b = ConstraintBuilder::new();
        let x = Var::new("x");
        let p = b.fresh_poly("p", std::slice::from_ref(&x), 1);
        let target = TemplatePoly::from_concrete(
            &Polynomial::var(x.clone())
                .scale(3.0)
                .add(&Polynomial::constant(1.0)),
        );
        b.constrain_zero_poly(&p.sub(&target));
        let sol = b.solve();
        assert!(sol.is_optimal());
        let resolved = p.resolve(&|v| sol.value(v));
        assert!((resolved.coefficient(&Monomial::var(x.clone())) - 3.0).abs() < 1e-6);
        assert!((resolved.coefficient(&Monomial::unit()) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn objective_minimizes_upper_end() {
        // p(x) >= 5 at coefficient level (constant term), minimize its value at x=0.
        let mut b = ConstraintBuilder::new();
        let x = Var::new("x");
        let p = b.fresh_poly("p", std::slice::from_ref(&x), 1);
        let five = LinCoef::constant(5.0);
        let diff = p.coefficient(&Monomial::unit()).sub(&five);
        b.constrain_nonneg_coef(&diff);
        // Also force the x coefficient to be exactly 2.
        b.constrain_zero_coef(
            &p.coefficient(&Monomial::var(x.clone()))
                .sub(&LinCoef::constant(2.0)),
        );
        let at_zero = p.eval_vars(&|_| 0.0);
        b.add_objective(&at_zero, 1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let resolved = p.resolve(&|v| sol.value(v));
        assert!((resolved.coefficient(&Monomial::unit()) - 5.0).abs() < 1e-6);
        assert!((resolved.coefficient(&Monomial::var(x)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn impossible_constant_constraint_is_infeasible() {
        let mut b = ConstraintBuilder::new();
        b.constrain_zero_coef(&LinCoef::constant(1.0));
        let sol = b.solve();
        assert!(!sol.is_optimal());
    }

    #[test]
    fn impossible_nonneg_constant_is_infeasible() {
        let mut b = ConstraintBuilder::new();
        b.constrain_nonneg_coef(&LinCoef::constant(-2.0));
        assert!(!b.solve().is_optimal());
        // A nonnegative constant is fine and adds nothing.
        let mut ok = ConstraintBuilder::new();
        ok.constrain_nonneg_coef(&LinCoef::constant(2.0));
        assert_eq!(ok.num_constraints(), 0);
    }
}
