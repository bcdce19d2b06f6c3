//! The weakening rule `Γ ⊨ Q ⊒ Q'` discharged by rewrite-function
//! certificates (§3.4).
//!
//! To ensure a polynomial inequality `P ≥ 0` holds wherever the logical
//! context `Γ = {e₁ ≥ 0, …, e_n ≥ 0}` holds, we require that `P` be a conical
//! combination of products of the `eᵢ` (a Handelman certificate): fresh
//! non-negative multipliers `λ` are introduced and coefficients are equated
//! per monomial, which yields linear constraints over the LP unknowns.

use cma_logic::Context;
use cma_semiring::poly::Polynomial;

use crate::builder::ConstraintBuilder;
use crate::template::{LinCoef, SymMoment, TemplatePoly};

/// Emits constraints forcing `bigger ≥ smaller` (as functions of the program
/// variables) wherever every polynomial in `products` is non-negative.
///
/// `products` must contain the constant polynomial `1` so that constant slack
/// is available; [`Context::certificate_products`] always includes it.
pub fn require_poly_geq(
    builder: &mut ConstraintBuilder,
    products: &[Polynomial],
    bigger: &TemplatePoly,
    smaller: &TemplatePoly,
    tag: &str,
) {
    // difference = bigger - smaller - Σ λ_i · products_i  must be 0 per monomial.
    let mut difference = bigger.sub(smaller);
    for (i, product) in products.iter().enumerate() {
        let lambda = builder.fresh_multiplier(&format!("λ[{tag}.{i}]"));
        let scaled = TemplatePoly::from_terms(
            product
                .terms()
                .map(|(m, c)| (m.clone(), LinCoef::var(lambda).scale(c))),
        );
        difference = difference.sub(&scaled);
    }
    builder.constrain_zero_poly(&difference);
}

/// Emits constraints for the moment-annotation containment `outer ⊒ inner`
/// under the logical context `ctx`:
/// for every component `k`, `outer.lo_k ≤ inner.lo_k` and
/// `inner.hi_k ≤ outer.hi_k` wherever `ctx` holds.
///
/// `tag` doubles as this containment's *recipe key* in the builder's
/// [`DerivationPlan`](crate::plan::DerivationPlan), so it must be unique and
/// stable across walks of the same program: when the plan replays (degree
/// escalation, the shadow soundness derivation), components whose rows are
/// already in the store are skipped instead of re-emitted.
pub fn require_contains(
    builder: &mut ConstraintBuilder,
    ctx: &Context,
    outer: &SymMoment,
    inner: &SymMoment,
    poly_degree: u32,
    tag: &str,
) {
    assert_eq!(outer.degree(), inner.degree(), "degree mismatch in ⊒");
    let emit_from = builder.recipe_gate(tag, outer.degree());
    for k in emit_from..=outer.degree() {
        let degree = (k as u32 * poly_degree).max(1);
        let products = ctx.certificate_products(degree);
        // Upper ends: outer.hi ≥ inner.hi.
        require_poly_geq(
            builder,
            &products,
            &outer.component(k).hi,
            &inner.component(k).hi,
            &format!("{tag}.hi{k}"),
        );
        // Lower ends: inner.lo ≥ outer.lo, i.e. outer.lo ≤ inner.lo.
        require_poly_geq(
            builder,
            &products,
            &inner.component(k).lo,
            &outer.component(k).lo,
            &format!("{tag}.lo{k}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_appl::build::*;
    use cma_semiring::poly::Var;

    fn x() -> Var {
        Var::new("x")
    }

    #[test]
    fn constant_slack_certificate() {
        // Find the least constant c with c ≥ 3 using products = {1}.
        let mut b = ConstraintBuilder::new();
        let template = b.fresh_poly("c", &[], 0);
        let products = vec![Polynomial::constant(1.0)];
        require_poly_geq(
            &mut b,
            &products,
            &template,
            &TemplatePoly::constant(3.0),
            "t",
        );
        b.add_objective(&template.eval_vars(&|_| 0.0), 1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let c = template.resolve(&|v| sol.value(v));
        assert!((c.as_constant().unwrap() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn contextual_certificate_uses_guard() {
        // Under Γ = {x ≥ 0, 10 - x ≥ 0}, the least constant c with c ≥ 2x is 20.
        let mut b = ConstraintBuilder::new();
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0)), le(v("x"), cst(10.0))]);
        let products = ctx.certificate_products(1);
        let template = b.fresh_poly("c", &[], 0);
        let two_x = TemplatePoly::from_concrete(&Polynomial::var(x()).scale(2.0));
        require_poly_geq(&mut b, &products, &template, &two_x, "t");
        b.add_objective(&template.eval_vars(&|_| 0.0), 1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let c = template.resolve(&|v| sol.value(v)).as_constant().unwrap();
        assert!((c - 20.0).abs() < 1e-5, "got {c}");
    }

    #[test]
    fn quadratic_certificate_bounds_a_square() {
        // Under Γ = {x ≥ 0, 4 - x ≥ 0}, find least constant c ≥ x².
        // Handelman degree 2 gives c = 16 via x² ≤ 4x ≤ 16.
        let mut b = ConstraintBuilder::new();
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0)), le(v("x"), cst(4.0))]);
        let products = ctx.certificate_products(2);
        let template = b.fresh_poly("c", &[], 0);
        let square = TemplatePoly::from_concrete(&Polynomial::var(x()).pow(2));
        require_poly_geq(&mut b, &products, &template, &square, "t");
        b.add_objective(&template.eval_vars(&|_| 0.0), 1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let c = template.resolve(&|v| sol.value(v)).as_constant().unwrap();
        assert!((16.0 - 1e-5..=16.0 + 1e-5).contains(&c), "got {c}");
    }

    #[test]
    fn infeasible_when_no_certificate_exists() {
        // A constant cannot dominate x on an unbounded context.
        let mut b = ConstraintBuilder::new();
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0))]);
        let products = ctx.certificate_products(1);
        let template = TemplatePoly::constant(100.0);
        let xx = TemplatePoly::from_concrete(&Polynomial::var(x()));
        require_poly_geq(&mut b, &products, &template, &xx, "t");
        assert!(!b.solve().is_optimal());
    }

    #[test]
    fn containment_of_moment_annotations() {
        // outer must contain inner = ⟨[1,1],[x, 2x+3]⟩ under Γ = {x ≥ 0, 5 - x ≥ 0};
        // minimizing outer's width at x = 5 recovers the inner bounds exactly.
        let mut b = ConstraintBuilder::new();
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0)), le(v("x"), cst(5.0))]);
        let inner = SymMoment::from_components(vec![
            crate::template::SymInterval::point(1.0),
            crate::template::SymInterval {
                lo: TemplatePoly::from_concrete(&Polynomial::var(x())),
                hi: TemplatePoly::from_concrete(
                    &Polynomial::var(x())
                        .scale(2.0)
                        .add(&Polynomial::constant(3.0)),
                ),
            },
        ]);
        let outer = b.fresh_moment("outer", &[x()], 1, 1, 0);
        require_contains(&mut b, &ctx, &outer, &inner, 1, "contain");
        for k in 0..=1 {
            b.add_objective(&outer.component(k).hi.eval_vars(&|_| 5.0), 1.0);
            b.add_objective(&outer.component(k).lo.eval_vars(&|_| 5.0), -1.0);
        }
        let sol = b.solve();
        assert!(sol.is_optimal());
        let resolved = outer.resolve(&|v| sol.value(v));
        // Component 1 upper bound at x = 5 must be at least 13, lower at most 5.
        let hi_at_5 = resolved[1].1.eval(&|_| 5.0);
        let lo_at_5 = resolved[1].0.eval(&|_| 5.0);
        assert!(hi_at_5 >= 13.0 - 1e-5);
        assert!(lo_at_5 <= 5.0 + 1e-5);
        // Objective pushed them to be tight.
        assert!(hi_at_5 <= 13.0 + 1e-4);
        assert!(lo_at_5 >= 5.0 - 1e-4);
    }
}
