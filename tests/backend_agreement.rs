//! Warm-vs-cold agreement over the entire benchmark suite: for every
//! benchmark of the paper's evaluation, the production [`SparseBackend`]
//! (warm sessions, dual re-solves) must reach the same verdict as the cold
//! reference backend that re-solves every `minimize` from scratch — same
//! analyzability, and bounds that agree within numerical tolerance.  This
//! is the end-to-end counterpart of the random-LP property tests in
//! `crates/lp/tests/`, which pin the solver itself to an independent
//! dense-tableau oracle.

use central_moment_analysis::{suite, Analysis, LpBackend, SparseBackend};

#[path = "../crates/lp/tests/common/cold.rs"]
mod cold;

use cold::ColdBackend;

/// Relative tolerance for bound agreement: both paths are f64 simplex runs
/// with different pivot orders, so optima can differ in the last few digits
/// on ill-conditioned instances.
const REL_TOL: f64 = 1e-4;

fn close(a: f64, b: f64) -> bool {
    if !a.is_finite() || !b.is_finite() {
        return a == b || (a.is_nan() && b.is_nan());
    }
    (a - b).abs() <= REL_TOL * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn sparse_backend_agrees_with_cold_resolves_on_every_suite_benchmark() {
    let mut analyzed = 0usize;
    let mut skipped = Vec::new();
    for benchmark in suite::all_benchmarks() {
        let id = benchmark.qualified_name();
        let cold = Analysis::benchmark(&benchmark)
            .soundness(false)
            .backend(ColdBackend)
            .run();
        let sparse = Analysis::benchmark(&benchmark).soundness(false).run();
        match (cold, sparse) {
            (Ok(c), Ok(s)) => {
                analyzed += 1;
                for k in 0..=benchmark.degree {
                    let (ci, si) = (c.raw_moment(k), s.raw_moment(k));
                    assert!(
                        close(ci.lo(), si.lo()) && close(ci.hi(), si.hi()),
                        "{id}: E[C^{k}] bounds diverged: cold [{}, {}] vs sparse [{}, {}]",
                        ci.lo(),
                        ci.hi(),
                        si.lo(),
                        si.hi()
                    );
                }
            }
            (Err(_), Err(_)) => skipped.push(id), // both agree: not analyzable
            (Ok(_), Err(e)) => panic!("{id}: cold analyzable but sparse failed: {e}"),
            (Err(e), Ok(_)) => panic!("{id}: sparse analyzable but cold failed: {e}"),
        }
    }
    assert!(
        analyzed >= 15,
        "expected most of the suite to be analyzable, got {analyzed} (skipped: {skipped:?})"
    );
}

/// Both backends also agree behind `&dyn` — the form the engine actually
/// uses.
#[test]
fn dyn_backends_agree_on_the_running_example() {
    let benchmark = suite::running::rdwalk();
    let backends: [&dyn LpBackend; 2] = [&ColdBackend, &SparseBackend];
    let bounds: Vec<f64> = backends
        .iter()
        .map(|b| {
            Analysis::benchmark(&benchmark)
                .soundness(false)
                .backend(*b)
                .run()
                .expect("rdwalk is analyzable")
                .mean()
                .hi()
        })
        .collect();
    assert!(
        close(bounds[0], bounds[1]),
        "mean upper bounds diverged: {bounds:?}"
    );
    // Fig. 1(b) at d = 10: E[tick] <= 2d + 4 = 24.
    assert!((bounds[0] - 24.0).abs() < 1e-3);
}
