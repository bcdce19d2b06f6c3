//! Kernel-profile smoke guard (run by the CI `bench-smoke` job).
//!
//! Pins the two headline outcomes of the kernel overhaul so they cannot
//! silently regress:
//!
//! 1. **btran share** — on the n=8 walk-chain global LU analysis, backward
//!    solves must stay a bounded share of the pivot-level profile
//!    (`btran_ns / (ftran+btran+pricing+ratio)`).  Before the hyper-sparse
//!    unit-rhs btran and the sparse-loaded dual-price btran, backward solves
//!    dominated the profile; the guard fails if that world comes back.
//! 2. **steady-state kernel allocations** — a warm re-minimize on a solved
//!    chain session must report `kernel_allocs == 0`: every ftran/btran of
//!    the hot loop ran inside the session workspace without growing it.
//!
//! Exits nonzero (panics) on any violated pin, failing the CI job.

use central_moment_analysis::lp::{Cmp, LpBackend, LpProblem};
use central_moment_analysis::{Analysis, SolveMode, SparseBackend};
use cma_suite::synthetic;

/// Maximum btran share of the pivot-level profile on the n=8 global LU
/// analysis.  Observed ~0.16 with the hyper-sparse kernels; a dense
/// per-row seeding regression pushes it well past 0.6.  Pinned with ~3×
/// headroom for machine noise.
const BTRAN_SHARE_MAX: f64 = 0.5;

fn main() {
    // --- Pin 1: btran share on the n=8 walk-chain global LU analysis. ----
    let benchmark = synthetic::random_walk_chain(8).in_suite("synthetic");
    let report = Analysis::benchmark(&benchmark)
        .degree(2)
        .mode(SolveMode::Global)
        .soundness(false)
        .run()
        .expect("n=8 walk-chain must analyze");
    let lp = &report.lp;
    let profile = lp.ftran_ns + lp.btran_ns + lp.pricing_ns + lp.ratio_ns;
    assert!(profile > 0, "pivot-level profile is empty");
    let share = lp.btran_ns as f64 / profile as f64;
    eprintln!(
        "perfsmoke: n=8 global lu — ftran {} µs, btran {} µs ({share:.2} of profile), \
         pricing {} µs, ratio {} µs; hyper {} ftran / {} btran, {} dense fallbacks",
        lp.ftran_ns / 1_000,
        lp.btran_ns / 1_000,
        lp.pricing_ns / 1_000,
        lp.ratio_ns / 1_000,
        lp.hyper_sparse_ftrans,
        lp.hyper_sparse_btrans,
        lp.dense_fallbacks,
    );
    assert!(
        share <= BTRAN_SHARE_MAX,
        "btran is {share:.2} of the pivot profile (pinned ≤ {BTRAN_SHARE_MAX})"
    );

    // --- Pin 2: steady-state kernel allocations on a warm session. -------
    let mut lp = LpProblem::new();
    let vars: Vec<_> = (0..120)
        .map(|i| lp.add_var(format!("x{i}"), false))
        .collect();
    for w in vars.windows(2) {
        lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.5)], Cmp::Ge, 1.0);
    }
    lp.add_constraint(vec![(vars[0], 1.0)], Cmp::Le, 400.0);
    let objective: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    let mut session = SparseBackend.open(&lp);
    let first = session.minimize(&objective);
    assert!(first.is_optimal(), "chain stand-in must solve: {first:?}");
    session.add_constraint(&[(vars[0], 1.0)], Cmp::Ge, first.value(vars[0]) + 5.0);
    let recut = session.minimize(&objective);
    assert!(recut.is_optimal(), "cut re-solve must stay optimal");
    let steady = session.minimize(&objective);
    assert!(
        steady.is_optimal(),
        "steady-state re-solve must stay optimal"
    );
    assert_eq!(
        steady.stats.kernel_allocs, 0,
        "steady-state re-solve grew a kernel workspace buffer"
    );
    eprintln!(
        "perfsmoke: steady-state re-minimize kept kernel_allocs == 0 \
         ({} hyper ftran / {} hyper btran)",
        steady.stats.hyper_sparse_ftrans, steady.stats.hyper_sparse_btrans
    );
}
