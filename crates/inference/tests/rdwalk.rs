//! End-to-end check on the paper's running example (Fig. 2 / Fig. 7):
//! the bounded, biased random walk implemented with non-tail recursion.
//!
//! Paper results (Fig. 1(b)): with initial position `x = 0` and distance `d`,
//!   E[tick]  ≤ 2d + 4,
//!   E[tick²] ≤ 4d² + 22d + 28,
//!   V[tick]  ≤ 22d + 28.

use cma_appl::build::*;
use cma_appl::Program;
use cma_inference::{analyze_with, AnalysisOptions};
use cma_lp::SparseBackend;
use cma_semiring::poly::Var;
use cma_sim::{simulate, SimConfig};

fn rdwalk_program() -> Program {
    ProgramBuilder::new()
        .function_with_precondition(
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
            [lt(v("x"), add(v("d"), cst(2.0))), gt(v("d"), cst(0.0))],
        )
        .main(seq([assign("x", cst(0.0)), call("rdwalk")]))
        .precondition(gt(v("d"), cst(0.0)))
        .build()
        .unwrap()
}

fn options() -> AnalysisOptions {
    AnalysisOptions::degree(2).with_valuation(vec![(Var::new("d"), 10.0), (Var::new("x"), 0.0)])
}

#[test]
fn rdwalk_first_and_second_moment_bounds_match_the_paper() {
    let program = rdwalk_program();
    let result = analyze_with(&program, &options(), &SparseBackend).expect("analysis succeeds");
    let d = 10.0;
    let valuation = [(Var::new("d"), d)];

    let e1 = result.raw_moment_at(1, &valuation);
    let e2 = result.raw_moment_at(2, &valuation);

    // Upper bounds at most the paper's (the LP may find tighter ones), and
    // they must be genuine upper bounds on the true moments.
    assert!(e1.hi() <= 2.0 * d + 4.0 + 1e-3, "E[tick] upper {}", e1.hi());
    assert!(
        e2.hi() <= 4.0 * d * d + 22.0 * d + 28.0 + 1e-2,
        "E[tick²] upper {}",
        e2.hi()
    );

    // Cross-check against simulation: true moments lie inside the intervals.
    let stats = simulate(
        &program,
        &SimConfig {
            trials: 30_000,
            seed: 42,
            initial: vec![(Var::new("d"), d)],
            ..Default::default()
        },
    );
    assert!(stats.mean() <= e1.hi() + 0.05);
    assert!(stats.mean() >= e1.lo() - 0.05);
    assert!(stats.raw_moment(2) <= e2.hi() + 5.0);
    assert!(stats.raw_moment(2) >= e2.lo() - 5.0);

    // Variance bound: V[tick] ≤ 22d + 28 (Ex. 2.4).
    let central = result.central_at(&valuation);
    assert!(central.variance_upper() <= 22.0 * d + 28.0 + 1e-2);
    assert!(stats.variance() <= central.variance_upper() + 1.0);
}

#[test]
fn rdwalk_symbolic_variance_bound_is_linear_in_d() {
    let program = rdwalk_program();
    let result = analyze_with(&program, &options(), &SparseBackend).expect("analysis succeeds");
    // Evaluate the bound at several distances; it must stay an upper bound
    // (checked against simulation) and grow at most linearly.
    let mut previous = 0.0;
    for d in [5.0, 10.0, 20.0] {
        let central = result.central_at(&[(Var::new("d"), d)]);
        let var_ub = central.variance_upper();
        assert!(
            var_ub <= 22.0 * d + 28.0 + 1e-2,
            "V upper {var_ub} at d={d}"
        );
        let stats = simulate(
            &program,
            &SimConfig {
                trials: 20_000,
                seed: 7,
                initial: vec![(Var::new("d"), d)],
                ..Default::default()
            },
        );
        assert!(
            stats.variance() <= var_ub + 1.0,
            "simulated {} vs bound {var_ub}",
            stats.variance()
        );
        assert!(var_ub >= previous);
        previous = var_ub;
    }
}

#[test]
fn rdwalk_function_spec_matches_fig7_shape() {
    let program = rdwalk_program();
    let result = analyze_with(&program, &options(), &SparseBackend).expect("analysis succeeds");
    // The level-0 specification's first-moment upper bound should be close to
    // 2(d - x) + 4 when evaluated at x = 0, d = 10 (i.e. ≤ 24, ≥ 20).
    let spec = result.spec("rdwalk", 0).expect("spec exists");
    let (_, upper) = &spec.pre[1];
    let value = upper.eval(&|v| if v.name() == "d" { 10.0 } else { 0.0 });
    assert!(value <= 24.0 + 1e-3, "spec upper {value}");
    assert!(value >= 20.0 - 1e-3, "spec upper {value}");
}
