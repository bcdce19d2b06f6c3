//! Derivation-plan smoke guard (run by the CI `bench-smoke` job).
//!
//! Pins the observable contracts of the derivation-plan layer on the paper's
//! Fig. 2 running example (the bounded biased random walk):
//!
//! 1. **warm degree escalation, pinned to scratch** — a degree 1 → 2
//!    escalation of the live sparse session must reproduce the from-scratch
//!    degree-2 bounds (Fig. 1(b): `E[tick] ≤ 2d + 4`) within solver
//!    tolerance while replaying the plan;
//! 2. **degree 2 → 4 escalation reuses the live session** — zero cold
//!    restarts, no additional from-scratch LP solve, nonzero template reuse,
//!    and a warm dual re-solve.  (A *cold* degree-4 global solve of this
//!    fixture blows the iteration limit after a minute; riding the warm
//!    degree-2 basis is what makes the fourth moment reachable at all, so
//!    no scratch comparison here — the escalated-vs-scratch pinning lives in
//!    `crates/inference/tests/escalation.rs` on fixtures cold can solve.)
//! 3. **shared-template soundness extension** — the Thm 4.4 step-counting
//!    derivation, run as a plan transformer over the main derivation's
//!    templates, must append *strictly fewer* constraints and variables
//!    than the disjoint-by-construction baseline (re-measured here through
//!    the cold re-solving reference backend, whose sessions take the
//!    disjoint path).
//!
//! Exits nonzero (panics) on any violated budget, failing the CI job.

use central_moment_analysis::inference::{
    analyze_session, analyze_with, soundness_report_in_session, AnalysisOptions,
};
use central_moment_analysis::suite::running;
use central_moment_analysis::{SolveMode, SparseBackend};

// The cold re-solving reference backend shared with the `cma-lp` tests.
#[path = "../../../lp/tests/common/cold.rs"]
mod cold;

const TOL: f64 = 1e-4;

fn main() {
    let benchmark = running::rdwalk();
    let options = AnalysisOptions::degree(1)
        .with_mode(SolveMode::Global)
        .with_valuation(benchmark.valuation.clone());

    // --- Guard 1: degree 1 -> 2 escalation matches from-scratch. ----------
    let (_, mut session) =
        analyze_session(&benchmark.program, &options, &SparseBackend).expect("rdwalk at degree 1");
    let escalated = session.escalate_degree(2).expect("rdwalk escalates to 2");
    let mut scratch_options = options.clone();
    scratch_options.degree = 2;
    let scratch =
        analyze_with(&benchmark.program, &scratch_options, &SparseBackend).expect("degree 2");
    for k in 0..=2 {
        let e = escalated.raw_moment_at(k, &benchmark.valuation);
        let s = scratch.raw_moment_at(k, &benchmark.valuation);
        let scale = 1.0 + s.lo().abs().max(s.hi().abs());
        assert!(
            (e.lo() - s.lo()).abs() <= TOL * scale && (e.hi() - s.hi()).abs() <= TOL * scale,
            "escalated moment {k} [{}, {}] diverged from scratch [{}, {}]",
            e.lo(),
            e.hi(),
            s.lo(),
            s.hi()
        );
    }
    // Fig. 1(b) at d = 10: E[tick] <= 2d + 4 = 24.
    let mean = escalated.raw_moment_at(1, &benchmark.valuation);
    assert!((mean.hi() - 24.0).abs() < 1e-3, "mean bound {}", mean.hi());
    eprintln!(
        "plansmoke: 1->2 escalation matches scratch (mean <= {})",
        mean.hi()
    );

    // --- Guard 2: degree 2 -> 4 escalation reuses the live session. -------
    let (base, mut session) = {
        let mut o = options.clone();
        o.degree = 2;
        analyze_session(&benchmark.program, &o, &SparseBackend).expect("rdwalk at degree 2")
    };
    assert_eq!(base.lp_solves, 1);
    let escalated = session
        .escalate_degree(4)
        .expect("rdwalk escalates to degree 4");
    let stats = escalated.escalation.expect("escalation stats");
    assert_eq!(
        stats.cold_restarts, 0,
        "degree escalation must not restart from scratch on the happy path"
    );
    assert_eq!(
        escalated.lp_solves, 1,
        "escalation must not hand the backend a new from-scratch LP"
    );
    assert_eq!(session.minimizes(), 2, "one warm re-minimize expected");
    assert!(
        stats.reused_columns > 0 && stats.reused_slots > 0,
        "escalation must replay the derivation plan (got {stats:?})"
    );
    assert!(
        stats.dual_pivots > 0,
        "the sparse session must repair the appended rows by dual pivots"
    );
    let fourth = escalated.raw_moment_at(4, &benchmark.valuation);
    assert!(
        fourth.hi().is_finite() && fourth.hi() > 0.0,
        "fourth-moment bound must be finite, got {fourth:?}"
    );
    eprintln!(
        "plansmoke: 2->4 escalation ok (+{} vars, +{} rows, {} columns reused, \
         {} dual pivots, 0 cold restarts, E[C^4] <= {:.1})",
        stats.appended_variables,
        stats.appended_constraints,
        stats.reused_columns,
        stats.dual_pivots,
        fourth.hi()
    );

    // --- Guard 3: shared soundness extension beats the disjoint baseline. -
    let soundness_options = {
        let mut o = options.clone();
        o.degree = 2;
        o
    };
    let (_, mut shared_session) =
        analyze_session(&benchmark.program, &soundness_options, &SparseBackend).expect("rdwalk");
    let shared = soundness_report_in_session(&mut shared_session, &benchmark.program, 2);
    assert!(shared.is_sound(), "rdwalk is sound");
    assert!(
        shared.shared_templates && shared.shared_template_columns > 0,
        "dual/sparse sessions must share templates with the extension"
    );

    let (_, mut disjoint_session) =
        analyze_session(&benchmark.program, &soundness_options, &cold::ColdBackend)
            .expect("rdwalk");
    let disjoint = soundness_report_in_session(&mut disjoint_session, &benchmark.program, 2);
    assert!(disjoint.is_sound(), "rdwalk is sound (disjoint)");
    assert!(
        shared.extension_constraints < disjoint.extension_constraints,
        "shared extension rows ({}) must be strictly below the disjoint baseline ({})",
        shared.extension_constraints,
        disjoint.extension_constraints
    );
    assert!(
        shared.extension_variables < disjoint.extension_variables,
        "shared extension columns ({}) must be strictly below the disjoint baseline ({})",
        shared.extension_variables,
        disjoint.extension_variables
    );
    eprintln!(
        "plansmoke: shared soundness extension ok ({} rows vs {} disjoint, \
         {} template columns shared)",
        shared.extension_constraints,
        disjoint.extension_constraints,
        shared.shared_template_columns
    );
}
