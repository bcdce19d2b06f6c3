//! Escalation soundness: in-session degree escalation and the automatic
//! poly-degree retry must be *equally tight* (up to solver tolerance) as a
//! from-scratch analysis at the target degrees.  "Equally tight" is the
//! strongest contract the LP grants: both paths minimize the same aggregated
//! objective (the sum of bound widths at the valuation), so that sum must
//! agree — but on a degenerate optimal face the solver may shuffle slack
//! between individual moments, so per-component bounds are only required to
//! bracket a common truth (overlapping intervals), not to coincide.
//!
//! * **degree escalation** — `escalate_degree(m')` from a degree-`m` session
//!   replays the derivation plan, appends only the new moment components to
//!   the live warm session, and must reproduce the from-scratch degree-`m'`
//!   bounds while reporting nonzero template/column reuse.  Pinned on the
//!   warm production backend and the cold re-solving reference, with a
//!   proptest sweeping fixtures, degree pairs, and valuations.
//! * **poly-degree retry** — an analysis that is infeasible at base degree
//!   `d` and allowed to retry must land on the same bounds as a direct run
//!   at the degree it settles on.

use cma_appl::build::*;
use cma_appl::Program;
use cma_inference::{analyze_session, analyze_with, AnalysisError, AnalysisOptions, SolveMode};
use cma_lp::{LpBackend, SparseBackend};
use cma_semiring::poly::Var;
use proptest::prelude::*;

#[path = "../../lp/tests/common/cold.rs"]
mod cold;

use cold::ColdBackend;

const TOL: f64 = 1e-4;

/// A named fixture with the valuation its bounds are compared at.
type Fixture = (&'static str, Program, Vec<(Var, f64)>);

/// The backends every pinning runs on: the warm production backend and the
/// cold re-solving reference.
fn matrix() -> [(&'static str, &'static dyn LpBackend); 2] {
    [("sparse", &SparseBackend), ("cold", &ColdBackend)]
}

fn geo() -> Program {
    ProgramBuilder::new()
        .function(
            "geo",
            if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
        )
        .main(call("geo"))
        .build()
        .unwrap()
}

fn coin_pair() -> Program {
    // Two sequenced probabilistic choices plus a conditional join.
    ProgramBuilder::new()
        .main(seq([
            if_prob(0.25, tick(2.0), tick(4.0)),
            if_then_else(le(v("x"), cst(0.0)), tick(1.0), tick(3.0)),
        ]))
        .build()
        .unwrap()
}

fn countdown() -> Program {
    // Deterministic loop: cost exactly n (moments n^k need degree k·d ≥ k).
    ProgramBuilder::new()
        .main(while_loop(
            le(cst(1.0), v("n")),
            seq([tick(1.0), assign("n", sub(v("n"), cst(1.0)))]),
        ))
        .precondition(ge(v("n"), cst(0.0)))
        .build()
        .unwrap()
}

fn triangle() -> Program {
    // Triangular nested loop: cost n(n+1)/2, infeasible at poly degree 1.
    // The canonical fixture lives in examples/ (shared with the CLI and
    // pipeline tests) so the layers cannot drift apart.
    cma_appl::parse_program(include_str!("../../../examples/triangle.appl")).unwrap()
}

fn assert_bounds_match(
    escalated: &cma_inference::AnalysisResult,
    scratch: &cma_inference::AnalysisResult,
    at: &[(Var, f64)],
    context: &str,
) {
    assert_eq!(escalated.degree(), scratch.degree(), "{context}: degree");
    let mut e_width = 0.0f64;
    let mut s_width = 0.0f64;
    let mut scale = 1.0f64;
    for k in 0..=scratch.degree() {
        let e = escalated.raw_moment_at(k, at);
        let s = scratch.raw_moment_at(k, at);
        scale = scale.max(s.lo().abs()).max(s.hi().abs());
        // Both intervals bracket the true moment, so they must overlap.
        assert!(
            e.lo() <= s.hi() + TOL * scale && s.lo() <= e.hi() + TOL * scale,
            "{context}: moment {k} disjoint: escalated [{}, {}] vs scratch [{}, {}]",
            e.lo(),
            e.hi(),
            s.lo(),
            s.hi()
        );
        e_width += e.hi() - e.lo();
        s_width += s.hi() - s.lo();
    }
    // The aggregated objective both paths minimize is the total bound width
    // at the valuation; a degenerate optimal face can redistribute slack
    // between moments, but the totals must agree.
    assert!(
        (e_width - s_width).abs() <= TOL * scale,
        "{context}: total width diverged: escalated {e_width} vs scratch {s_width}"
    );
}

#[test]
fn escalation_matches_from_scratch_across_the_solver_matrix() {
    let fixtures: [Fixture; 3] = [
        ("geo", geo(), vec![]),
        ("coin-pair", coin_pair(), vec![(Var::new("x"), 0.0)]),
        ("countdown", countdown(), vec![(Var::new("n"), 5.0)]),
    ];
    for (name, program, at) in &fixtures {
        for (backend_name, backend) in matrix() {
            let context = format!("{name}/{backend_name}");
            let options = AnalysisOptions::degree(2).with_valuation(at.clone());
            let (_, mut session) = analyze_session(program, &options, backend).unwrap();
            let escalated = session.escalate_degree(4).unwrap();
            let scratch_options = AnalysisOptions::degree(4).with_valuation(at.clone());
            let scratch = analyze_with(program, &scratch_options, backend).unwrap();
            assert_bounds_match(&escalated, &scratch, at, &context);

            let stats = escalated.escalation.expect("escalation stats present");
            assert_eq!(stats.from_degree, 2, "{context}");
            assert_eq!(stats.to_degree, 4, "{context}");
            assert_eq!(stats.cold_restarts, 0, "{context}: warm path");
            assert!(stats.appended_constraints > 0, "{context}: new rows");
            assert!(stats.appended_variables > 0, "{context}: new columns");
            assert!(
                stats.reused_columns > 0,
                "{context}: escalation must reuse template columns"
            );
            assert!(stats.reused_slots > 0, "{context}: slots replayed");
            // No new from-scratch LP solve: the escalation re-minimized the
            // live session (one more minimize, same solve count).
            assert_eq!(escalated.lp_solves, 1, "{context}");
            assert_eq!(session.minimizes(), 2, "{context}");
        }
    }
}

#[test]
fn chained_escalation_reaches_the_same_fixpoint() {
    let program = geo();
    let backend = SparseBackend;
    let (_, mut session) =
        analyze_session(&program, &AnalysisOptions::degree(1), &backend).unwrap();
    session.escalate_degree(2).unwrap();
    let escalated = session.escalate_degree(4).unwrap();
    let scratch = analyze_with(&program, &AnalysisOptions::degree(4), &backend).unwrap();
    assert_bounds_match(&escalated, &scratch, &[], "geo chained 1->2->4");
    assert_eq!(session.minimizes(), 3);
}

#[test]
fn escalation_to_a_non_larger_degree_is_rejected() {
    let program = geo();
    let (_, mut session) =
        analyze_session(&program, &AnalysisOptions::degree(2), &SparseBackend).unwrap();
    match session.escalate_degree(2) {
        Err(AnalysisError::InvalidEscalation { from: 2, to: 2 }) => {}
        other => panic!("expected InvalidEscalation, got {other:?}"),
    }
    // The session is still usable afterwards.
    assert!(session.escalate_degree(3).is_ok());
}

#[test]
fn escalation_after_an_extension_is_rejected() {
    // The documented order — escalate first, then extend — is enforced:
    // an extension's rows and objective terms must not be folded into the
    // escalated optimum.
    let program = geo();
    let (_, mut session) =
        analyze_session(&program, &AnalysisOptions::degree(2), &SparseBackend).unwrap();
    session.extend_and_minimize(&program, 2).unwrap();
    match session.escalate_degree(4) {
        Err(AnalysisError::EscalationAfterExtension) => {}
        other => panic!("expected EscalationAfterExtension, got {other:?}"),
    }
}

#[test]
fn compositional_escalation_falls_back_to_a_cold_rederive() {
    let program = geo();
    let options = AnalysisOptions::degree(2).with_mode(SolveMode::Compositional);
    let (_, mut session) = analyze_session(&program, &options, &SparseBackend).unwrap();
    let escalated = session.escalate_degree(4).unwrap();
    let stats = escalated.escalation.expect("stats");
    assert_eq!(stats.cold_restarts, 1, "compositional restarts cold");
    let scratch_options = AnalysisOptions::degree(4).with_mode(SolveMode::Compositional);
    let scratch = analyze_with(&program, &scratch_options, &SparseBackend).unwrap();
    assert_bounds_match(&escalated, &scratch, &[], "geo compositional");
    // The swapped-in session keeps working (e.g. for a later extension).
    assert!(session.escalate_degree(5).is_ok());
}

#[test]
fn auto_poly_retry_matches_the_direct_higher_degree_run() {
    let program = triangle();
    let at = vec![(Var::new("n"), 4.0)];
    for (backend_name, backend) in matrix() {
        let context = format!("triangle/{backend_name}");
        let options = AnalysisOptions::degree(1)
            .with_valuation(at.clone())
            .with_max_poly_degree(2);
        let retried = analyze_with(&program, &options, backend).unwrap();
        assert_eq!(retried.poly_retries, 1, "{context}");
        assert_eq!(retried.poly_degree, 2, "{context}");
        assert!(
            retried.plan.slots_reused > 0 && retried.plan.loop_heads_reused > 0,
            "{context}: the retry must replay the recorded plan, got {:?}",
            retried.plan
        );
        let direct_options = AnalysisOptions::degree(1)
            .with_poly_degree(2)
            .with_valuation(at.clone());
        let direct = analyze_with(&program, &direct_options, backend).unwrap();
        assert_bounds_match(&retried, &direct, &at, &context);
    }
}

#[test]
fn infeasibility_without_retry_budget_reports_the_failing_degrees() {
    let err = analyze_with(&triangle(), &AnalysisOptions::degree(1), &SparseBackend).unwrap_err();
    assert_eq!(err.infeasible_at(), Some((1, 1)));
    match err {
        AnalysisError::LpFailed {
            degree: 1,
            poly_degree: 1,
            ..
        } => {}
        other => panic!("expected LpFailed with degrees, got {other:?}"),
    }
}

#[test]
fn escalation_after_poly_retry_keeps_the_settled_poly_degree() {
    // The session settles at d=2 via retry; escalating the degree afterwards
    // must keep deriving with d=2 templates and still match from-scratch.
    let program = triangle();
    let at = vec![(Var::new("n"), 4.0)];
    let options = AnalysisOptions::degree(1)
        .with_max_poly_degree(2)
        .with_valuation(at.clone());
    let (result, mut session) = analyze_session(&program, &options, &SparseBackend).unwrap();
    assert_eq!(result.poly_degree, 2);
    let escalated = session.escalate_degree(2).unwrap();
    assert_eq!(escalated.poly_degree, 2);
    // The retry spent landing on d = 2 stays visible after the escalation.
    assert_eq!(escalated.poly_retries, 1);
    assert_eq!(escalated.escalation.unwrap().poly_retries, 0);
    let scratch_options = AnalysisOptions::degree(2)
        .with_poly_degree(2)
        .with_valuation(at.clone());
    let scratch = analyze_with(&program, &scratch_options, &SparseBackend).unwrap();
    assert_bounds_match(&escalated, &scratch, &at, "triangle escalate-after-retry");
}

proptest! {
    /// Randomized sweep: fixture × escalation pair × valuation × solver
    /// configuration; escalated bounds always match from-scratch.
    #[test]
    fn prop_escalated_bounds_match_scratch(
        fixture in 0usize..3,
        from in 1usize..3,
        extra in 1usize..3,
        val in 0.0f64..8.0,
        config in 0usize..2,
    ) {
        let (program, at): (Program, Vec<(Var, f64)>) = match fixture {
            0 => (geo(), vec![]),
            1 => (coin_pair(), vec![(Var::new("x"), val)]),
            _ => (countdown(), vec![(Var::new("n"), val.floor())]),
        };
        let (_, backend) = matrix()[config];
        let to = from + extra;
        let options = AnalysisOptions::degree(from).with_valuation(at.clone());
        let (_, mut session) = analyze_session(&program, &options, backend).unwrap();
        let escalated = session.escalate_degree(to).unwrap();
        let scratch_options = AnalysisOptions::degree(to).with_valuation(at.clone());
        let scratch = analyze_with(&program, &scratch_options, backend).unwrap();
        assert_bounds_match(&escalated, &scratch, &at, &format!("prop f{fixture} {from}->{to} c{config}"));
        prop_assert!(escalated.escalation.unwrap().reused_columns > 0);
    }
}
