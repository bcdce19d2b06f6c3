//! Cross-crate integration tests: every analytic bound is checked against the
//! Monte-Carlo semantics, and the whole `Analysis` pipeline (parse → analyze →
//! central moments → tail bounds → soundness) is exercised end to end.

use central_moment_analysis::sim::{simulate, SimConfig};
use central_moment_analysis::suite::{self, Benchmark};
use central_moment_analysis::{Analysis, CmaError};

/// Analyzes a benchmark through the pipeline facade and checks every derived
/// bound against simulation.  Returns `false` when the analysis itself fails
/// (some loop-heavy benchmarks exceed what the linear certificates can
/// express — the callers require a minimum success count rather than
/// perfection).
fn check_bounds_against_simulation(benchmark: &Benchmark, degree: usize) -> bool {
    let outcome = Analysis::benchmark(benchmark)
        .degree(degree)
        .soundness(false)
        .run();
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            assert!(
                e.is_analysis_failure(),
                "{}: unexpected failure class: {e}",
                benchmark.name
            );
            eprintln!("note: {} not analyzable at degree {degree}", benchmark.name);
            return false;
        }
    };
    let stats = simulate(
        &benchmark.program,
        &SimConfig {
            trials: 20_000,
            seed: 7,
            initial: benchmark.initial_state(),
            ..Default::default()
        },
    );
    // Tolerances account for Monte-Carlo noise (higher moments are noisier).
    for k in 1..=degree.min(2) {
        let simulated = stats.raw_moment(k as u32);
        let tolerance = 0.02 * simulated.abs() + 0.5;
        assert!(
            simulated <= report.raw_moment(k).hi() + tolerance,
            "{}: E[C^{k}] = {simulated} exceeds derived upper bound {}",
            benchmark.name,
            report.raw_moment(k).hi()
        );
        assert!(
            simulated >= report.raw_moment(k).lo() - tolerance,
            "{}: E[C^{k}] = {simulated} is below derived lower bound {}",
            benchmark.name,
            report.raw_moment(k).lo()
        );
    }
    true
}

#[test]
fn running_example_bounds_are_sound_and_tight() {
    let b = suite::running::rdwalk();
    assert!(check_bounds_against_simulation(&b, 2));
    // Tightness: the first-moment upper bound at d = 10 matches the paper.
    let report = Analysis::benchmark(&b).soundness(false).run().unwrap();
    assert!(report.mean().hi() <= 24.0 + 1e-3);
}

#[test]
fn kura_suite_first_and_second_moments_are_sound() {
    let suite = [
        suite::kura::coupon_two(),
        suite::kura::coupon_four(),
        suite::kura::random_walk_int(),
        suite::kura::random_walk_real(),
    ];
    let analyzed = suite
        .iter()
        .filter(|b| check_bounds_against_simulation(b, 2))
        .count();
    assert!(
        analyzed >= 3,
        "only {analyzed} of {} benchmarks analyzable",
        suite.len()
    );
}

#[test]
fn absynth_suite_expected_costs_are_sound() {
    let suite = suite::absynth_suite();
    let analyzed = suite
        .iter()
        .filter(|b| check_bounds_against_simulation(b, 1))
        .count();
    assert!(
        analyzed * 10 >= suite.len() * 7,
        "only {analyzed} of {} Absynth benchmarks analyzable",
        suite.len()
    );
}

#[test]
fn nonmonotone_suite_interval_bounds_are_sound() {
    let suite = suite::nonmonotone_suite();
    let analyzed = suite
        .iter()
        .filter(|b| check_bounds_against_simulation(b, 1))
        .count();
    assert!(
        analyzed >= suite.len() - 2,
        "only {analyzed} of {} non-monotone benchmarks analyzable",
        suite.len()
    );
}

#[test]
fn central_moment_tail_bounds_dominate_empirical_tails() {
    let b = suite::kura::coupon_four();
    let stats = simulate(
        &b.program,
        &SimConfig {
            trials: 30_000,
            seed: 11,
            initial: b.initial_state(),
            ..Default::default()
        },
    );
    let thresholds: Vec<f64> = [2.0, 3.0, 5.0]
        .iter()
        .map(|factor| stats.mean() * factor)
        .collect();
    let report = Analysis::benchmark(&b)
        .degree(2)
        .soundness(false)
        .tail_at(thresholds.iter().copied())
        .run()
        .unwrap();
    for tail in &report.tail {
        assert!(
            stats.tail_probability(tail.threshold) <= tail.probability + 0.01,
            "empirical tail at {} exceeds derived bound {}",
            tail.threshold,
            tail.probability
        );
    }
}

#[test]
fn parsed_programs_flow_through_the_whole_pipeline() {
    let source = r#"
        pre n >= 0
        func main() begin
          while n > 0 do
            if prob(0.5) then n := n - 1 fi;
            tick(1)
          od
        end
        "#;
    let program = central_moment_analysis::parse_program(source).unwrap();
    let report = Analysis::of(&program).degree(2).at("n", 8.0).run().unwrap();
    // True expectation is 2n = 16.
    let e1 = report.raw_moment(1);
    assert!(e1.hi() >= 16.0 - 1e-6);
    assert!(e1.hi() <= 18.5);
    // The full pipeline ran soundness checks and recorded phase timings.
    assert!(report.soundness.is_some());
    assert!(report.timings.soundness.is_some());
    let stats = simulate(
        &program,
        &SimConfig {
            trials: 20_000,
            seed: 3,
            initial: vec![(central_moment_analysis::Var::new("n"), 8.0)],
            ..Default::default()
        },
    );
    assert!(stats.mean() <= e1.hi() + 0.3);
}

#[test]
fn soundness_checks_run_on_suite_programs() {
    use central_moment_analysis::inference::check_bounded_update;
    for b in suite::kura_suite() {
        assert!(
            check_bounded_update(&b.program).is_empty(),
            "{} should have bounded updates",
            b.name
        );
    }
}

#[test]
fn engine_entry_point_agrees_with_the_facade() {
    // The engine's one from-scratch entry composed with the in-session
    // soundness check — the layer calls `Analysis::run` makes, which the
    // benchmark's traced pass repeats — must agree with the facade exactly:
    // raw intervals to the bit, summed group solver effort, and the
    // soundness verdict.  The benchmark's traced-vs-untraced fingerprint
    // check relies on this.
    use central_moment_analysis::inference::{
        analyze_session_resilient, soundness_report_in_session, GroupLpStats,
    };
    use central_moment_analysis::{CheckConfig, SolveMode, SparseBackend};
    use std::sync::Arc;

    fn effort(groups: &[GroupLpStats]) -> [usize; 3] {
        groups.iter().fold([0; 3], |[i, r, d], g| {
            [i + g.iterations, r + g.refactorizations, d + g.dual_pivots]
        })
    }
    fn bits(raw: &[central_moment_analysis::Interval]) -> Vec<(u64, u64)> {
        raw.iter()
            .map(|i| (i.lo().to_bits(), i.hi().to_bits()))
            .collect()
    }

    for (b, mode) in [
        (suite::running::rdwalk(), SolveMode::Global),
        (suite::synthetic::coupon_chain(3), SolveMode::Compositional),
    ] {
        let facade = Analysis::benchmark(&b).mode(mode);
        let report = facade.run().unwrap();

        let mut options = facade.options().clone();
        let config = CheckConfig {
            nonneg_cost: false,
            assume_init: options.valuation.iter().map(|(v, _)| v.clone()).collect(),
        };
        let check = central_moment_analysis::check::check_program(&b.program, &config);
        if !check.facts().is_empty() {
            options.range_facts = Some(Arc::new(check.facts().clone()));
        }
        let (result, mut session) =
            analyze_session_resilient(&b.program, &options, &SparseBackend).unwrap();
        let soundness = soundness_report_in_session(&mut session, &b.program, result.degree());

        let context = &b.name;
        assert_eq!(
            bits(&result.raw_intervals_at(&options.valuation)),
            bits(&report.raw_intervals),
            "{context}: raw intervals"
        );
        assert_eq!(
            effort(&result.groups),
            effort(&report.result.groups),
            "{context}: iterations, refactorizations, dual pivots"
        );
        let facade_soundness = report.soundness.as_ref().expect("soundness on by default");
        assert!(soundness.is_sound(), "{context}");
        assert_eq!(
            soundness.is_sound(),
            facade_soundness.is_sound(),
            "{context}"
        );
        assert_eq!(
            (
                soundness.termination_moment,
                soundness.extension_constraints,
                soundness.extension_dual_pivots,
            ),
            (
                facade_soundness.termination_moment,
                facade_soundness.extension_constraints,
                facade_soundness.extension_dual_pivots,
            ),
            "{context}: soundness extension"
        );
    }
}

#[test]
fn analysis_failures_carry_context() {
    // An unanalyzable program (unbounded multiplicative growth) surfaces as a
    // unified CmaError with the analysis failure as root cause.
    let result = Analysis::parse("func main() begin while x > 0 do x := 2 * x; tick(1) od end")
        .unwrap()
        .degree(1)
        .run();
    match result {
        Err(e @ CmaError::Analysis(_)) => assert!(e.is_analysis_failure()),
        Err(other) => panic!("unexpected error class: {other}"),
        Ok(report) => {
            // If the LP happens to find a bound, it must at least be infinite
            // or the soundness check must flag the unbounded update.
            let sound = report.soundness.expect("soundness checks enabled");
            assert!(!sound.bounded_updates);
        }
    }
}

/// The largest Fig. 10 system (the n=8 random-walk chain, global mode,
/// degree 2) pinned to the bit: LP effort counters and the raw moment
/// intervals.  Any change to the LU factorization, pricing or ratio tests
/// that alters a single pivot shows up here; a deliberate algorithmic
/// change must re-record these numbers and say why.
#[test]
fn walk_chain_8_global_is_pinned_to_the_bit() {
    use central_moment_analysis::SolveMode;
    let b = suite::synthetic::random_walk_chain(8);
    let report = Analysis::benchmark(&b)
        .degree(2)
        .mode(SolveMode::Global)
        .soundness(false)
        .run()
        .unwrap();
    let lp = &report.lp;
    assert_eq!(
        (
            lp.iterations,
            lp.refactorizations,
            lp.etas,
            lp.eta_compactions
        ),
        (1419, 15, 1512, 3003),
        "iterations, refactorizations, etas, eta compactions"
    );
    let bits: Vec<(u64, u64)> = report
        .raw_intervals
        .iter()
        .map(|i| (i.lo().to_bits(), i.hi().to_bits()))
        .collect();
    assert_eq!(
        bits,
        [
            (4607182418800017408, 4607182418800017408),
            (4634204016564240383, 4634204016564240384),
            (4661436720560996352, 4661436720560996352),
        ],
        "raw moment interval bits"
    );
}
