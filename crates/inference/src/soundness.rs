//! Algorithmic checks of the soundness side conditions of Theorem 4.4 (§4.3).
//!
//! The expected-potential method is sound for a program and target degree `m`
//! whenever
//!
//! 1. `E[T^{m·d}] < ∞` — the `(m·d)`-th moment of the stopping time is finite,
//!    checked by re-running the bound inference on a *step-counting*
//!    instrumentation of the program (every statement ticks 1), and
//! 2. the program has **bounded updates** — every assignment changes the
//!    assigned variable by an almost-surely bounded amount, so that
//!    `∥Y_n∥∞ ∈ O((n+1)^{m·d})` (Lemma F.3).

use cma_appl::ast::{Expr, Function, Program, Stmt, StmtKind};
use cma_lp::{LpBackend, SparseBackend};
use cma_semiring::poly::Var;

use crate::engine::{analyze_with, AnalysisError, AnalysisOptions, AnalysisSession};

/// The outcome of the combined soundness check.
#[derive(Debug, Clone)]
pub struct SoundnessReport {
    /// Whether the bounded-update check passed.
    pub bounded_updates: bool,
    /// Offending statements reported by the bounded-update check.
    pub violations: Vec<String>,
    /// Whether a finite bound on `E[T^k]` was derived (and for which `k`).
    pub termination_moment: Option<usize>,
    /// Whether the termination check extended the main analysis's constraint
    /// store in place (no re-derivation, no from-scratch solve) instead of
    /// running a standalone analysis.
    pub reused_constraint_store: bool,
    /// LP variables the in-session extension appended (0 for standalone runs).
    pub extension_variables: usize,
    /// LP constraint rows the in-session extension appended (0 for
    /// standalone runs).
    pub extension_constraints: usize,
    /// Dual-simplex pivots the in-session warm re-solve took (0 for
    /// standalone runs and the legacy phase-1 strategy): the observable
    /// that the extension rode the live session instead of restarting
    /// phase 1.
    pub extension_dual_pivots: usize,
    /// Whether the termination verdict was established by an instrumented
    /// derivation running as a plan transformer over the main derivation's
    /// templates (component 0, the probability-mass component, shared), so
    /// the extension appended strictly fewer rows and columns than the
    /// disjoint-by-construction derivation.  `false` when the shared
    /// extension failed and a standalone re-analysis rescued the verdict.
    pub shared_templates: bool,
    /// LP template columns the in-session extension shared with the main
    /// derivation instead of minting (0 for disjoint and standalone runs).
    /// Describes the in-session attempt even if the verdict ultimately came
    /// from the standalone fallback.
    pub shared_template_columns: usize,
}

impl SoundnessReport {
    /// Whether both side conditions hold.
    pub fn is_sound(&self) -> bool {
        self.bounded_updates && self.termination_moment.is_some()
    }
}

/// Checks the bounded-update property (§4.3, Lemma F.3).
///
/// An assignment `x := e` has bounded update when `e − x` is a constant, or
/// `e` is a constant, or `e − x` is a sum of a constant and variables that are
/// only ever assigned by bounded-support sampling ("noise variables").
/// A sampling statement has bounded update when its support is bounded.
///
/// Returns the list of violating statements (empty means the check passed).
pub fn check_bounded_update(program: &Program) -> Vec<String> {
    let noise_vars = noise_variables(program);
    let mut violations = Vec::new();
    let mut check_body = |body: &Stmt| collect_violations(body, &noise_vars, &mut violations);
    check_body(program.main());
    for f in program.functions() {
        check_body(f.body());
    }
    violations
}

/// Variables that are only ever assigned through bounded-support sampling.
fn noise_variables(program: &Program) -> Vec<Var> {
    let mut sampled: Vec<Var> = Vec::new();
    let mut assigned_otherwise: Vec<Var> = Vec::new();
    let mut scan = |stmt: &Stmt| {
        visit(stmt, &mut |s| match s.kind() {
            StmtKind::Sample(x, d) => {
                let (lo, hi) = d.support();
                if lo.is_finite() && hi.is_finite() {
                    sampled.push(x.clone());
                } else {
                    assigned_otherwise.push(x.clone());
                }
            }
            StmtKind::Assign(x, _) => assigned_otherwise.push(x.clone()),
            _ => {}
        });
    };
    scan(program.main());
    for f in program.functions() {
        scan(f.body());
    }
    sampled
        .into_iter()
        .filter(|v| !assigned_otherwise.contains(v))
        .collect()
}

fn visit(stmt: &Stmt, f: &mut impl FnMut(&Stmt)) {
    f(stmt);
    match stmt.kind() {
        StmtKind::If(_, a, b) | StmtKind::IfProb(_, a, b) => {
            visit(a, f);
            visit(b, f);
        }
        StmtKind::While(_, s) => visit(s, f),
        StmtKind::Seq(ss) => {
            for s in ss {
                visit(s, f);
            }
        }
        _ => {}
    }
}

fn collect_violations(stmt: &Stmt, noise_vars: &[Var], out: &mut Vec<String>) {
    visit(stmt, &mut |s| match s.kind() {
        StmtKind::Assign(x, e) if !assignment_is_bounded(x, e, noise_vars) => {
            out.push(format!("{x} := {e}"));
        }
        StmtKind::Sample(x, d) => {
            let (lo, hi) = d.support();
            if !(lo.is_finite() && hi.is_finite()) {
                out.push(format!("{x} ~ {d}"));
            }
        }
        _ => {}
    });
}

fn assignment_is_bounded(x: &Var, e: &Expr, noise_vars: &[Var]) -> bool {
    let poly = e.to_polynomial();
    // e constant: the variable jumps to a fixed value.
    if poly.as_constant().is_some() {
        return true;
    }
    // Otherwise require e − x to be affine in noise variables plus a constant.
    let delta = poly.sub(&cma_semiring::poly::Polynomial::var(x.clone()));
    if delta.degree() > 1 {
        return false;
    }
    delta.vars().iter().all(|v| noise_vars.contains(v))
}

/// Checks condition (i) of Theorem 4.4: derives an upper bound on `E[T^k]`
/// for the *step-counting* instrumentation of the program (every statement is
/// charged one unit of cost).  Returns `Ok(())` when a finite bound exists.
///
/// # Errors
///
/// Propagates the underlying [`AnalysisError`] when no bound can be derived,
/// which means the soundness of moment bounds of degree `k` is not
/// established for this program.
pub fn check_termination_moment(
    program: &Program,
    k: usize,
    options: &AnalysisOptions,
) -> Result<(), AnalysisError> {
    check_termination_moment_with(program, k, options, &SparseBackend)
}

/// [`check_termination_moment`] with an explicit [`LpBackend`].
///
/// # Errors
///
/// Propagates the underlying [`AnalysisError`] when no bound can be derived.
pub fn check_termination_moment_with(
    program: &Program,
    k: usize,
    options: &AnalysisOptions,
    backend: &dyn LpBackend,
) -> Result<(), AnalysisError> {
    let instrumented = step_counting_instrumentation(program);
    let mut opts = options.clone();
    opts.degree = k;
    analyze_with(&instrumented, &opts, backend).map(|_| ())
}

/// [`check_termination_moment`] performed *inside* an existing analysis
/// session: the step-counting system is derived into the main pass's
/// constraint store and layered onto its open solver session (fresh
/// variables, appended rows, one extra `minimize`) instead of building and
/// solving a standalone problem.
///
/// # Errors
///
/// Propagates the underlying [`AnalysisError`] when no bound can be derived.
pub fn check_termination_moment_in_session(
    session: &mut AnalysisSession<'_>,
    program: &Program,
    k: usize,
) -> Result<(), AnalysisError> {
    let instrumented = step_counting_instrumentation(program);
    // The instrumentation is a skeleton-preserving rewrite (only statement
    // costs change), so the extension may share the main derivation's
    // component-0 templates when the session supports it.
    session.extend_and_minimize_shared(&instrumented, k)
}

/// Runs both soundness checks and assembles a report.
pub fn soundness_report(
    program: &Program,
    degree: usize,
    options: &AnalysisOptions,
) -> SoundnessReport {
    soundness_report_with(program, degree, options, &SparseBackend)
}

/// [`soundness_report`] with an explicit [`LpBackend`] (standalone: derives
/// and solves the instrumented program from scratch).
pub fn soundness_report_with(
    program: &Program,
    degree: usize,
    options: &AnalysisOptions,
    backend: &dyn LpBackend,
) -> SoundnessReport {
    let violations = check_bounded_update(program);
    let termination_moment = check_termination_moment_with(program, degree, options, backend)
        .ok()
        .map(|_| degree);
    SoundnessReport {
        bounded_updates: violations.is_empty(),
        violations,
        termination_moment,
        reused_constraint_store: false,
        extension_variables: 0,
        extension_constraints: 0,
        extension_dual_pivots: 0,
        shared_templates: false,
        shared_template_columns: 0,
    }
}

/// [`soundness_report`] reusing the main analysis's live session: the
/// termination side condition extends the already-built constraint store (see
/// [`check_termination_moment_in_session`]) rather than re-deriving it, so
/// the report's LP statistics show no duplicated derivation solves.  When the
/// session supports it, the instrumented derivation additionally shares the
/// main derivation's templates ([`SoundnessReport::shared_templates`]); if
/// that shared extension comes back without a bound, the verdict is
/// double-checked by a standalone analysis before being reported negative,
/// so template sharing can only ever shrink the extension, never flip a
/// sound program to unsound.
pub fn soundness_report_in_session(
    session: &mut AnalysisSession<'_>,
    program: &Program,
    degree: usize,
) -> SoundnessReport {
    let violations = check_bounded_update(program);
    let shared_before = session.extension_shared_columns();
    let in_session = check_termination_moment_in_session(session, program, degree)
        .ok()
        .map(|_| degree);
    let shared_template_columns = session.extension_shared_columns() - shared_before;
    let rescued = in_session.is_none() && shared_template_columns > 0;
    let termination_moment = if rescued {
        // The shared extension found no bound; confirm against a standalone
        // derivation so sharing never weakens the verdict.
        let options = session.options().clone();
        check_termination_moment_with(program, degree, &options, session.backend())
            .ok()
            .map(|_| degree)
    } else {
        in_session
    };
    SoundnessReport {
        bounded_updates: violations.is_empty(),
        violations,
        termination_moment,
        // When the standalone fallback had to establish the verdict, the
        // in-place extension did *not* produce it — report that honestly
        // (the extension_* counters still describe the in-session attempt).
        reused_constraint_store: !rescued,
        extension_variables: session.extension_variables(),
        extension_constraints: session.extension_constraints(),
        extension_dual_pivots: session.extension_stats().dual_pivots,
        // Attribute the verdict to sharing only when the shared in-session
        // extension itself established it.
        shared_templates: shared_template_columns > 0 && in_session.is_some(),
        shared_template_columns,
    }
}

/// The step-counting instrumentation: replaces every `tick(c)` by `tick(1)`
/// and charges one unit before every other primitive statement, loop
/// iteration, and branch — an over-approximation of the number of evaluation
/// steps of the Markov-chain semantics.
pub fn step_counting_instrumentation(program: &Program) -> Program {
    let functions = program
        .functions()
        .map(|f| {
            let mut new_f = Function::new(f.name(), instrument(f.body()));
            for c in f.precondition() {
                new_f.add_precondition(c.clone());
            }
            new_f
        })
        .collect();
    Program::new(
        functions,
        instrument(program.main()),
        program.precondition().to_vec(),
    )
    .expect("instrumentation preserves validity")
}

fn instrument(stmt: &Stmt) -> Stmt {
    let tick = || Stmt::new(StmtKind::Tick(1.0));
    let kind = match stmt.kind() {
        StmtKind::Skip | StmtKind::Tick(_) => StmtKind::Tick(1.0),
        StmtKind::Assign(..) | StmtKind::Sample(..) | StmtKind::Call(_) => {
            StmtKind::Seq(vec![tick(), stmt.clone()])
        }
        StmtKind::If(c, a, b) => StmtKind::Seq(vec![
            tick(),
            Stmt::new(StmtKind::If(
                c.clone(),
                Box::new(instrument(a)),
                Box::new(instrument(b)),
            )),
        ]),
        StmtKind::IfProb(p, a, b) => StmtKind::Seq(vec![
            tick(),
            Stmt::new(StmtKind::IfProb(
                *p,
                Box::new(instrument(a)),
                Box::new(instrument(b)),
            )),
        ]),
        StmtKind::While(c, body) => StmtKind::Seq(vec![
            tick(),
            Stmt::new(StmtKind::While(
                c.clone(),
                Box::new(Stmt::new(StmtKind::Seq(vec![tick(), instrument(body)]))),
            )),
        ]),
        StmtKind::Seq(ss) => StmtKind::Seq(ss.iter().map(instrument).collect()),
    };
    Stmt::new(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_appl::build::*;

    #[test]
    fn bounded_update_accepts_paper_style_programs() {
        // x := x + t with t ~ uniform(-1, 2): bounded.
        let program = ProgramBuilder::new()
            .function(
                "rdwalk",
                if_then(
                    lt(v("x"), v("d")),
                    seq([
                        sample("t", uniform(-1.0, 2.0)),
                        assign("x", add(v("x"), v("t"))),
                        call("rdwalk"),
                        tick(1.0),
                    ]),
                ),
            )
            .main(seq([assign("x", cst(0.0)), call("rdwalk")]))
            .build()
            .unwrap();
        assert!(check_bounded_update(&program).is_empty());
    }

    #[test]
    fn bounded_update_accepts_constant_steps_and_rejects_doubling() {
        let ok = ProgramBuilder::new()
            .main(seq([
                assign("x", cst(5.0)),
                assign("x", sub(v("x"), cst(1.0))),
                assign("y", add(v("y"), cst(3.0))),
            ]))
            .build()
            .unwrap();
        assert!(check_bounded_update(&ok).is_empty());

        let doubling = ProgramBuilder::new()
            .main(assign("x", mul(v("x"), cst(2.0))))
            .build()
            .unwrap();
        let violations = check_bounded_update(&doubling);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("x :="));
    }

    #[test]
    fn bounded_update_rejects_copying_unbounded_variables() {
        // y is assigned from x (not a noise variable): rejected because the
        // jump |y' - y| is unbounded in general.
        let program = ProgramBuilder::new()
            .main(assign("y", add(v("y"), v("x"))))
            .build()
            .unwrap();
        assert_eq!(check_bounded_update(&program).len(), 1);
    }

    #[test]
    fn noise_variables_must_not_be_reassigned() {
        // t is sampled but also assigned from x + x, so x := x + t is rejected.
        let program = ProgramBuilder::new()
            .main(seq([
                sample("t", uniform(0.0, 1.0)),
                assign("t", add(v("x"), v("x"))),
                assign("x", add(v("x"), v("t"))),
            ]))
            .build()
            .unwrap();
        let violations = check_bounded_update(&program);
        assert!(violations.iter().any(|s| s.starts_with("x :=")));
    }

    #[test]
    fn step_counting_instrumentation_charges_every_step() {
        let program = ProgramBuilder::new()
            .main(seq([
                assign("n", cst(3.0)),
                while_loop(
                    gt(v("n"), cst(0.0)),
                    seq([assign("n", sub(v("n"), cst(1.0))), tick(5.0)]),
                ),
            ]))
            .build()
            .unwrap();
        let instrumented = step_counting_instrumentation(&program);
        // The instrumented program charges 1 per step; simulating it counts
        // statements rather than the original cost.
        let stats = cma_sim::simulate(
            &instrumented,
            &cma_sim::SimConfig {
                trials: 1,
                seed: 0,
                ..Default::default()
            },
        );
        assert!(stats.mean() >= 8.0);
        // The original cost (15) is replaced by unit costs.
        assert!(stats.mean() < 15.0 + 8.0);
    }

    #[test]
    fn termination_moment_check_succeeds_for_geometric() {
        let program = ProgramBuilder::new()
            .function(
                "geo",
                if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
            )
            .main(call("geo"))
            .build()
            .unwrap();
        let options = AnalysisOptions::degree(2);
        assert!(check_termination_moment(&program, 2, &options).is_ok());
        let report = soundness_report(&program, 2, &options);
        assert!(report.is_sound());
        assert_eq!(report.termination_moment, Some(2));
    }

    #[test]
    fn in_session_report_reuses_the_constraint_store() {
        use crate::cold::ColdBackend;
        use crate::engine::analyze_session;

        let program = ProgramBuilder::new()
            .function(
                "geo",
                if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
            )
            .main(call("geo"))
            .build()
            .unwrap();
        let options = AnalysisOptions::degree(2);
        for backend in [&SparseBackend as &dyn LpBackend, &ColdBackend] {
            let (result, mut session) = analyze_session(&program, &options, backend).unwrap();
            let report = soundness_report_in_session(&mut session, &program, 2);
            assert!(report.is_sound(), "geo is sound");
            assert_eq!(report.termination_moment, Some(2));
            assert!(report.reused_constraint_store);
            assert!(report.extension_constraints > 0);
            assert!(report.extension_variables > 0);
            // One session, two minimizes — the extension did not re-solve
            // the main pass from scratch.
            assert_eq!(session.minimizes(), 2);
            assert_eq!(result.lp_solves, 1);
            // The standalone path reports the same verdict without reuse.
            let standalone = soundness_report_with(&program, 2, &options, backend);
            assert_eq!(standalone.termination_moment, Some(2));
            assert!(!standalone.reused_constraint_store);
            assert_eq!(standalone.extension_constraints, 0);
        }
    }

    #[test]
    fn shared_template_extension_is_strictly_smaller_than_disjoint() {
        use crate::cold::ColdBackend;
        use crate::engine::analyze_session;

        let program = ProgramBuilder::new()
            .function(
                "geo",
                if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
            )
            .main(call("geo"))
            .build()
            .unwrap();

        // Shared: the sparse core's dual warm re-solve rides the live
        // session, so the instrumented derivation runs in shadow mode
        // against the main plan.
        let options = AnalysisOptions::degree(2);
        let (_, mut session) = analyze_session(&program, &options, &SparseBackend).unwrap();
        let shared = soundness_report_in_session(&mut session, &program, 2);
        assert!(shared.is_sound());
        assert!(shared.shared_templates, "dual/sparse must share templates");
        assert!(shared.shared_template_columns > 0);

        // Disjoint baseline: a session that re-solves from scratch takes the
        // standalone-subproblem path with all-fresh templates.
        let (_, mut baseline) = analyze_session(&program, &options, &ColdBackend).unwrap();
        let disjoint = soundness_report_in_session(&mut baseline, &program, 2);
        assert!(disjoint.is_sound());
        assert!(!disjoint.shared_templates);
        assert_eq!(disjoint.shared_template_columns, 0);

        // The whole point of the plan transformer: the extension shrinks.
        assert!(
            shared.extension_constraints < disjoint.extension_constraints,
            "shared rows {} must undercut disjoint rows {}",
            shared.extension_constraints,
            disjoint.extension_constraints
        );
        assert!(
            shared.extension_variables < disjoint.extension_variables,
            "shared cols {} must undercut disjoint cols {}",
            shared.extension_variables,
            disjoint.extension_variables
        );
    }

    #[test]
    fn report_reflects_violations() {
        let program = ProgramBuilder::new()
            .main(assign("x", mul(v("x"), v("x"))))
            .build()
            .unwrap();
        let report = soundness_report(&program, 1, &AnalysisOptions::degree(1));
        assert!(!report.bounded_updates);
        assert!(!report.violations.is_empty());
    }
}
