//! Property tests pinning the warm dual re-solve and the LU kernels.
//!
//! * **dual-vs-cold warm resolve** — a session that receives rows
//!   incrementally, repairing them with dual-simplex pivots, must agree
//!   with a cold re-solve of the assembled problem (a phase-1 start, via
//!   the cold reference backend) and with the independent oracle.
//! * **boxed cuts** — the bound-flipping dual ratio test, driven by boxed
//!   columns under shrinking cuts, lands on the oracle's optimum.
//! * **hyper-sparse vs dense scan** — every LU kernel gives the same vector
//!   on the hyper-sparse path and pinned to the dense scan.

mod common;

use cma_lp::{Cmp, LpBackend, LpProblem, LpStatus, LpVarId, SolverTuning, SparseBackend};
use common::cold::ColdBackend;
use common::{decode, oracle, prefix, statuses_agree};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

proptest! {
    #[test]
    fn dual_and_phase1_warm_resolves_agree_on_incremental_rows(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 2..8),
        vars in 1usize..5,
        split in 1usize..4,
    ) {
        // Open a session on a prefix of the rows, feed the rest
        // incrementally to the warm and the cold backend, and compare both
        // against the oracle's solve of the full system.
        let (full, _ids) = decode(&seed, vars);
        let split = split.min(full.num_constraints());
        let start = prefix(&full, split);
        let reference = oracle::solve(&full);
        let run = |backend: &dyn LpBackend| {
            let mut session = backend.open(&start);
            session.minimize(full.objective());
            for i in split..full.num_constraints() {
                let terms: Vec<(LpVarId, f64)> = full.constraint_terms(i).collect();
                session.add_constraint(&terms, full.cmp(i), full.rhs(i));
            }
            session.minimize(full.objective())
        };
        let warm = run(&SparseBackend);
        let cold = run(&ColdBackend);
        prop_assert_eq!(cold.stats.dual_pivots, 0);
        prop_assert!(
            statuses_agree(&cold, &warm) && reference.status == cold.status,
            "verdict mismatch: oracle {:?}, cold {:?}, warm {:?}",
            reference.status,
            cold.status,
            warm.status
        );
        if reference.status == LpStatus::Optimal && warm.status == LpStatus::Optimal {
            for (name, objective) in [("oracle", reference.objective), ("cold", cold.objective)] {
                prop_assert!(
                    (objective - warm.objective).abs() <= TOL * (1.0 + objective.abs()),
                    "warm bound diverged from {name}: {} vs {}",
                    objective,
                    warm.objective
                );
            }
        }
    }
}

/// The headline scenario of the dual warm re-solve: a cutting row on an
/// optimal session is repaired by dual pivots — reported in `SolveStats` —
/// with no phase-1 restart, landing on the cold re-solve's optimum.
#[test]
fn cutting_row_resolves_via_dual_pivots() {
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
    let objective = [(x, -1.0), (y, -2.0)];

    let mut session = SparseBackend.open(&lp);
    assert!(session.minimize(&objective).is_optimal());
    assert!(session.warm_resolves_in_place());
    session.add_constraint(&[(y, 1.0)], Cmp::Le, 1.0); // cuts the optimum
    let dual = session.minimize(&objective);
    assert!(dual.is_optimal());
    assert!((dual.objective - (-5.0)).abs() < TOL);
    assert!(
        dual.stats.dual_pivots > 0,
        "cutting row resolved without dual pivots"
    );

    let mut cold = ColdBackend.open(&lp);
    assert!(cold.minimize(&objective).is_optimal());
    assert!(!cold.warm_resolves_in_place());
    cold.add_constraint(&[(y, 1.0)], Cmp::Le, 1.0);
    let restart = cold.minimize(&objective);
    assert!(restart.is_optimal());
    assert!((restart.objective - dual.objective).abs() < TOL);
    assert_eq!(restart.stats.dual_pivots, 0);
}

/// Boxed columns under a shrinking sequence of global cuts: the inference
/// LPs are all `=`/`≥` systems, so this family is what drives the dual
/// re-solve's bound-flipping ratio test and the Forrest–Tomlin compaction.
/// Every warm re-solve must match the oracle's solve of the assembled
/// problem, and the family must actually flip bounds.
#[test]
fn boxed_cuts_resolve_with_bound_flips_and_match_the_oracle() {
    let mut flips = 0;
    let mut compactions = 0;
    for n in [2usize, 4, 8, 16, 32] {
        let mut lp = LpProblem::new();
        let vars: Vec<_> = (0..3 * n)
            .map(|j| lp.add_var(format!("x{j}"), false))
            .collect();
        for (j, &v) in vars.iter().enumerate() {
            // Singleton `≤` rows: absorbed as column upper bounds.
            lp.add_constraint(vec![(v, 1.0)], Cmp::Le, 1.0 + (j % 4) as f64 * 0.25);
        }
        for w in vars.windows(3) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], 1.0), (w[2], 1.0)], Cmp::Le, 2.75);
        }
        let objective: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, -(1.0 + (j % 3) as f64)))
            .collect();
        lp.set_objective(objective.clone());
        let mut session = SparseBackend.open(&lp);
        let mut solution = session.minimize(&objective);
        for cut in 0..3 {
            let total: f64 = vars.iter().map(|&v| solution.value(v)).sum();
            let row: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            session.add_constraint(&row, Cmp::Le, total * 0.85);
            lp.add_constraint(row, Cmp::Le, total * 0.85);
            solution = session.minimize(&objective);
            let reference = oracle::solve(&lp);
            assert_eq!(reference.status, LpStatus::Optimal, "n={n} cut {cut}");
            assert_eq!(solution.status, LpStatus::Optimal, "n={n} cut {cut}");
            assert!(
                (solution.objective - reference.objective).abs()
                    <= TOL * (1.0 + reference.objective.abs()),
                "n={n} cut {cut}: warm {} vs oracle {}",
                solution.objective,
                reference.objective
            );
            assert!(solution.stats.dual_pivots > 0, "n={n} cut {cut}");
            flips += solution.stats.bound_flips;
            compactions += solution.stats.eta_compactions;
        }
    }
    assert!(flips > 0, "no bound flips across the boxed family");
    assert!(
        compactions > 0,
        "no Forrest–Tomlin compaction across the family"
    );
}

/// Per-component tolerance for hyper-sparse vs dense-scan kernels: both run
/// over the *same* factorization, so they differ only in traversal order
/// and dropped ~0 entries — essentially bit-level agreement.
const KERNEL_TOL: f64 = 1e-9;

proptest! {
    /// On random solved LU bases, every kernel (ftran of each nonbasic
    /// column, btran of the objective costs, each row of B⁻¹) must produce
    /// the same vector on the hyper-sparse path and pinned to the dense
    /// scan (`force_dense`).  The hyper-sparse traversal is an access-order
    /// optimization, never an answer change.
    #[test]
    fn hyper_sparse_kernels_agree_with_dense_scan(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
    ) {
        let (lp, _ids) = decode(&seed, vars);
        let tuning = SolverTuning::default();
        // Infeasible/unbounded decodes have no basis to probe.
        let Some(mut fx) = cma_lp::bench_support::KernelFixture::solve(&lp, &tuning) else {
            return;
        };
        let (mut hyper, mut dense) = (Vec::new(), Vec::new());
        let check = |hyper: &[f64], dense: &[f64], what: &str| {
            for (i, (h, d)) in hyper.iter().zip(dense).enumerate() {
                assert!(
                    (h - d).abs() <= KERNEL_TOL,
                    "{what}[{i}]: hyper {h} vs dense {d}"
                );
            }
        };
        for j in fx.nonbasic_cols() {
            fx.force_dense(false);
            fx.ftran_into(j, &mut hyper);
            fx.force_dense(true);
            fx.ftran_into(j, &mut dense);
            check(&hyper, &dense, "ftran");
        }
        fx.force_dense(false);
        fx.btran_into(&mut hyper);
        fx.force_dense(true);
        fx.btran_into(&mut dense);
        check(&hyper, &dense, "btran");
        for p in 0..fx.rows() {
            fx.force_dense(false);
            fx.inverse_row_into(p, &mut hyper);
            fx.force_dense(true);
            fx.inverse_row_into(p, &mut dense);
            check(&hyper, &dense, "inverse_row");
        }
    }
}
