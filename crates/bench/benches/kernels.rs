//! Criterion micro-benchmarks for the simplex linear-algebra kernels:
//! ftran, btran, and eta-apply on solved chain-LP bases.
//!
//! Fixtures are chain-*shaped* LPs (the warmsmoke stand-in scaled to the
//! walk-chain n=4 / n=8 system sizes), solved once under the Markowitz LU;
//! the timed region is then a single kernel call against the captured
//! basis, through `bench_support`'s allocation-free window.  Each kernel
//! runs twice — on the hyper-sparse path and pinned to the dense scan
//! (`force_dense`) — so the printout shows what the Gilbert–Peierls
//! traversal buys at each size.  The eta-apply rows re-time ftran/btran
//! after warm cutting-row re-solves have grown the Forrest–Tomlin eta
//! file, isolating the per-eta application cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use central_moment_analysis::lp::bench_support::KernelFixture;
use central_moment_analysis::lp::{Cmp, LpProblem, LpVarId, SolverTuning};

/// The warmsmoke chain stand-in at `vars` variables: a coupled path of
/// `≥` rows plus one absorbed head bound, minimizing the column sum.
fn chain_problem(vars: usize) -> (LpProblem, Vec<LpVarId>) {
    let mut lp = LpProblem::new();
    let ids: Vec<_> = (0..vars)
        .map(|i| lp.add_var(format!("x{i}"), false))
        .collect();
    for w in ids.windows(2) {
        lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.5)], Cmp::Ge, 1.0);
    }
    lp.add_constraint(vec![(ids[0], 1.0)], Cmp::Le, 400.0);
    lp.set_objective(ids.iter().map(|&v| (v, 1.0)).collect());
    (lp, ids)
}

/// Chain sizes matching the walk-chain moment systems: n=1 ≈ 30 columns,
/// n=4 ≈ 120, n=8 ≈ 240.
const SIZES: &[(&str, usize)] = &[("n1", 30), ("n4", 120), ("n8", 240)];

fn bench_kernels(c: &mut Criterion) {
    for &(label, vars) in SIZES {
        let (problem, ids) = chain_problem(vars);
        let tuning = SolverTuning::default();
        let mut fx = KernelFixture::solve(&problem, &tuning)
            .unwrap_or_else(|| panic!("chain fixture {label} must solve to optimality"));
        let cols = fx.nonbasic_cols();
        assert!(!cols.is_empty(), "fixture {label} has no nonbasic columns");
        let m = fx.rows();

        for (path, dense) in [("hyper", false), ("dense", true)] {
            fx.force_dense(dense);
            c.bench_function(&format!("kernels_ftran_{path}/{label}"), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    let j = cols[i % cols.len()];
                    i += 1;
                    black_box(fx.ftran(black_box(j)))
                })
            });
            c.bench_function(&format!("kernels_btran_{path}/{label}"), |b| {
                b.iter(|| black_box(fx.btran()))
            });
            c.bench_function(&format!("kernels_inverse_row_{path}/{label}"), |b| {
                let mut p = 0usize;
                b.iter(|| {
                    let row = p % m;
                    p += 1;
                    black_box(fx.inverse_row(black_box(row)))
                })
            });
        }
        fx.force_dense(false);

        // One warm cutting-row re-solve first (end-to-end dual-path sanity
        // for the fixture), then load the factorization with direct
        // Forrest–Tomlin updates and re-time the kernels: the delta
        // against the rows above is the eta-apply cost at this load.
        fx.cut_and_resolve(&[(ids[0], 1.0)], Cmp::Ge, 50.0);
        let updates = fx.grow_etas(8);
        assert!(updates > 0, "fixture {label} could not apply FT updates");
        let etas = fx.eta_count();
        let cols = fx.nonbasic_cols();
        c.bench_function(
            &format!("kernels_eta_apply_ftran/{label}(upd={updates},etas={etas})"),
            |b| {
                let mut i = 0usize;
                b.iter(|| {
                    let j = cols[i % cols.len()];
                    i += 1;
                    black_box(fx.ftran(black_box(j)))
                })
            },
        );
        c.bench_function(
            &format!("kernels_eta_apply_btran/{label}(upd={updates},etas={etas})"),
            |b| b.iter(|| black_box(fx.btran())),
        );
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
