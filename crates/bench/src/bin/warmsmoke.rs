//! Warm-resolve smoke guard (run by the CI `bench-smoke` job).
//!
//! Verifies the dual-simplex warm re-solve contract twice over:
//!
//! 1. **cutting row** — an incremental row added to an optimal LU-factored
//!    session over a hand-built chain-*shaped* LP (a 120-variable coupled
//!    path; `CUTTING_ROW_DUAL_BUDGET` is calibrated to it) must re-solve
//!    through a *small* number of dual pivots (no phase-1 restart, no
//!    iteration blow-up);
//! 2. **in-session soundness extension** — the real walk-chain fixture:
//!    the Thm 4.4 step-counting system layered onto the live engine session
//!    must complete via dual pivots, with total iterations bounded by the
//!    dual work plus the extension's own phase-2 effort (a phase-1 restart
//!    of the combined system would blow well past the budget).
//!
//! Exits nonzero (panics) on any violated budget, failing the CI job.

use central_moment_analysis::inference::{
    analyze_session, soundness_report_in_session, AnalysisOptions,
};
use central_moment_analysis::lp::LpBackend;
use central_moment_analysis::suite::{synthetic, Benchmark};
use central_moment_analysis::{SolveMode, SparseBackend};

/// Dual pivots allowed for a single cutting row on the chain system.
/// Tightened from 32 to 8: the long-step bound-flipping ratio test plus
/// weighted (devex) leaving-row pricing repair a single cut in a handful of
/// pivots where the old most-negative/Harris combination wandered.
const CUTTING_ROW_DUAL_BUDGET: usize = 8;

fn main() {
    let n = 6;
    let benchmark = synthetic::random_walk_chain(n).in_suite("synthetic");
    let options = AnalysisOptions::degree(2)
        .with_mode(SolveMode::Global)
        .with_valuation(benchmark.valuation.clone());

    // --- Scenario 1: one cutting row on a solved chain-shaped LP. --------
    let lp = {
        use central_moment_analysis::lp::{Cmp, LpProblem};
        // A chain-shaped LP stand-in with the same warm-resolve mechanics:
        // a long path of coupled rows, solved, then cut.
        let mut lp = LpProblem::new();
        let vars: Vec<_> = (0..120)
            .map(|i| lp.add_var(format!("x{i}"), false))
            .collect();
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.5)], Cmp::Ge, 1.0);
        }
        lp.add_constraint(vec![(vars[0], 1.0)], Cmp::Le, 400.0);
        (lp, vars)
    };
    let (problem, vars) = lp;
    let objective: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    let mut session = SparseBackend.open(&problem);
    let first = session.minimize(&objective);
    assert!(first.is_optimal(), "chain stand-in must solve: {first:?}");
    // Cut: force the head variable above its current optimum.
    use central_moment_analysis::lp::Cmp;
    session.add_constraint(&[(vars[0], 1.0)], Cmp::Ge, first.value(vars[0]) + 5.0);
    let recut = session.minimize(&objective);
    assert!(
        recut.is_optimal(),
        "cut re-solve must stay optimal: {recut:?}"
    );
    assert!(
        recut.stats.dual_pivots >= 1,
        "cutting row resolved without dual pivots (phase-1 restart?)"
    );
    assert!(
        recut.stats.dual_pivots <= CUTTING_ROW_DUAL_BUDGET,
        "cutting row took {} dual pivots (budget {CUTTING_ROW_DUAL_BUDGET})",
        recut.stats.dual_pivots
    );
    eprintln!(
        "warmsmoke: cutting row re-solved in {} dual pivots, {} iterations",
        recut.stats.dual_pivots, recut.stats.iterations
    );

    // --- Scenario 2: the real in-session soundness extension. ------------
    let (_result, mut engine_session) =
        analyze_session(&benchmark.program, &options, &SparseBackend)
            .expect("walk-chain analyzable");
    let report = soundness_report_in_session(&mut engine_session, &benchmark.program, 2);
    assert!(
        report.reused_constraint_store,
        "soundness must ride the live session"
    );
    assert!(
        report.termination_moment.is_some(),
        "walk-chain termination moment must be derivable"
    );
    let stats = engine_session.extension_stats();
    assert!(
        stats.dual_pivots >= 1,
        "soundness extension completed without dual pivots (phase-1 restart?)"
    );
    // A phase-1 restart re-solves the whole combined system from scratch
    // (iterations far beyond any per-row budget); the warm dual path spends
    // a bounded number of (degenerate) dual pivots per appended row — ~8 on
    // this fixture — plus the extension's own phase-2 effort.
    let rows = report.extension_constraints;
    assert!(
        stats.dual_pivots <= 16 * rows,
        "soundness extension took {} dual pivots for {rows} rows",
        stats.dual_pivots
    );
    assert!(
        stats.iterations <= stats.dual_pivots + 8 * rows,
        "soundness extension iterations ({}) blew past the warm budget \
         ({} dual pivots + 8×{rows} rows)",
        stats.iterations,
        stats.dual_pivots
    );
    eprintln!(
        "warmsmoke: soundness extension (+{rows} rows, +{} vars) re-solved in \
         {} dual pivots, {} iterations",
        report.extension_variables, stats.dual_pivots, stats.iterations
    );

    // --- Scenario 3: in-session degree escalation beats the cold solve. --
    // The warm dual repair after a degree 1 → 2 escalation must spend fewer
    // total simplex iterations than solving the degree-2 system cold — the
    // whole point of keeping the session warm.  Guarded on the two largest
    // chain sizes of the Fig. 10 sweep.
    use central_moment_analysis::Analysis;
    for n in [7usize, 8] {
        let chain = synthetic::random_walk_chain(n).in_suite("synthetic");
        let base = |b: &Benchmark| {
            Analysis::benchmark(b)
                .degree(2)
                .mode(SolveMode::Global)
                .soundness(false)
        };
        let cold = base(&chain).run().expect("cold walk-chain analyzable");
        let escalated = base(&chain)
            .escalate_from(1)
            .run()
            .expect("escalated walk-chain analyzable");
        assert!(
            escalated.lp.iterations < cold.lp.iterations,
            "escalated walk-chain n={n} took {} iterations, cold took {}: \
             the warm dual repair regressed",
            escalated.lp.iterations,
            cold.lp.iterations
        );
        eprintln!(
            "warmsmoke: walk-chain n={n} escalation {} iterations vs cold {}",
            escalated.lp.iterations, cold.lp.iterations
        );
    }
}
