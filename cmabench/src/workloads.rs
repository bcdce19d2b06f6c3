//! The three workloads, their set-up (inputs, simulator oracle, warm-up),
//! and the correctness checks every successful bound must pass.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use central_moment_analysis::sim::{try_simulate_with, SimConfig};
use central_moment_analysis::suite::{self, synthetic};
use central_moment_analysis::{AnalysisOptions, CheckConfig, Program, SolveMode, Var};

use crate::pipeline::{run_untraced, Bounds, Case, Input};

pub const WORKLOADS: [&str; 3] = ["paper-suite", "fig10-chains", "corpus"];

/// Monte-Carlo oracle settings, as `tests/end_to_end.rs` checks bounds.
pub const SIM_TRIALS: usize = 20_000;
const SIM_SEED: u64 = 7;

/// Worker threads for compositional solves and the oracle simulation: the
/// machine's cores, capped at two (the Fig. 10 configuration).
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Programs in the `corpus` workload: few enough that a pass takes about
/// 3 s, so every program is timed ten times or more in one run.
const CORPUS_SIZE: u64 = 300;

/// The inputs of a workload, in canonical order; the corpus programs are
/// `gen_program(corpus_base + i)`.
pub fn cases(workload: &str, corpus_base: u64) -> Vec<Case> {
    match workload {
        "paper-suite" => suite::all_benchmarks()
            .into_iter()
            .map(|b| Case {
                label: b.qualified_name(),
                input: Input::Ast(Box::new(b)),
                degree: None,
                mode: SolveMode::Global,
                threads: 1,
                soundness: true,
            })
            .collect(),
        "fig10-chains" => {
            let mut cases = Vec::new();
            for n in 1..=8 {
                for (family, b) in [
                    ("walk-chain", synthetic::random_walk_chain(n)),
                    ("coupon-chain", synthetic::coupon_chain(n)),
                ] {
                    for (mode_name, mode) in [
                        ("global", SolveMode::Global),
                        ("compositional", SolveMode::Compositional),
                    ] {
                        cases.push(Case {
                            label: format!("{family}-{n}/{mode_name}"),
                            input: Input::Ast(Box::new(b.clone())),
                            degree: Some(2),
                            mode,
                            threads: threads(),
                            soundness: false,
                        });
                    }
                }
            }
            cases
        }
        "corpus" => (0..CORPUS_SIZE)
            .map(|i| {
                let seed = corpus_base.wrapping_add(i);
                Case {
                    label: format!("gen-{seed}"),
                    input: Input::Source(cma_corpus::gen_program(seed)),
                    degree: Some(2),
                    mode: SolveMode::Global,
                    threads: 1,
                    soundness: true,
                }
            })
            .collect(),
        other => panic!("unknown workload {other}"),
    }
}

/// The simulated moments a bound is checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// `E[C]` and `E[C²]`.
    pub raw: [f64; 2],
    pub variance: f64,
}

/// A workload ready to run: inputs, the engine options of each, and the
/// oracle of each input that can reach analysis.
pub struct Prepared {
    pub cases: Vec<Case>,
    pub options: Vec<Option<AnalysisOptions>>,
    pub oracles: Vec<Option<Oracle>>,
}

pub struct SetupTiming {
    pub total: Duration,
    pub sim: Duration,
    pub sim_trials: usize,
}

/// Builds the inputs, simulates every distinct input that parses and passes
/// the checker (on up to [`threads`] workers), and warms up on a few of the
/// workload's inputs.
pub fn setup(workload: &str, corpus_base: u64) -> (Prepared, SetupTiming) {
    let start = Instant::now();
    let cases = cases(workload, corpus_base);
    let mut options = Vec::with_capacity(cases.len());
    // `slot[i]`: which simulation job serves case `i` (fig10 runs each
    // program in two modes; both share one simulation).
    let mut slot = Vec::with_capacity(cases.len());
    let mut jobs: Vec<(Program, Vec<(Var, f64)>)> = Vec::new();
    let mut job_of: HashMap<String, usize> = HashMap::new();
    for case in &cases {
        let program = case.program().ok();
        options.push(program.as_ref().map(|p| case.options(p)));
        let key = match &case.input {
            Input::Ast(b) => b.qualified_name(),
            Input::Source(src) => src.clone(),
        };
        let Some(program) = program else {
            slot.push(None);
            continue;
        };
        let config = CheckConfig {
            nonneg_cost: false,
            assume_init: case.valuation().into_iter().map(|(v, _)| v).collect(),
        };
        if central_moment_analysis::check::check_program(&program, &config).has_errors() {
            slot.push(None);
        } else {
            let j = *job_of.entry(key).or_insert_with(|| {
                jobs.push((program, case.valuation()));
                jobs.len() - 1
            });
            slot.push(Some(j));
        }
    }

    let sim_start = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Oracle>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads() {
            s.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some((program, initial)) = jobs.get(j) else {
                    break;
                };
                let config = SimConfig {
                    trials: SIM_TRIALS,
                    seed: SIM_SEED,
                    initial: initial.clone(),
                    ..SimConfig::default()
                };
                let oracle = try_simulate_with(program, &config, |_| {})
                    .ok()
                    .map(|s| Oracle {
                        raw: [s.raw_moment(1), s.raw_moment(2)],
                        variance: s.variance(),
                    });
                *results[j].lock().expect("oracle slot poisoned") = oracle;
            });
        }
    });
    let sim = sim_start.elapsed();
    let results: Vec<Option<Oracle>> = results
        .into_iter()
        .map(|m| m.into_inner().expect("oracle slot poisoned"))
        .collect();
    let oracles = slot
        .iter()
        .map(|j| j.and_then(|j| results[j].clone()))
        .collect();

    let prepared = Prepared {
        cases,
        options,
        oracles,
    };
    for case in warmup(workload, &prepared.cases) {
        std::hint::black_box(run_untraced(case));
    }
    (
        prepared,
        SetupTiming {
            total: start.elapsed(),
            sim,
            sim_trials: jobs.len() * SIM_TRIALS,
        },
    )
}

/// Inputs analyzed once before timing: cheap ones that touch every code
/// path the workload uses (the worker pool included on fig10-chains).
fn warmup<'a>(workload: &str, cases: &'a [Case]) -> Vec<&'a Case> {
    let pick = |labels: &[&str]| -> Vec<&'a Case> {
        cases
            .iter()
            .filter(|c| labels.contains(&c.label.as_str()))
            .collect()
    };
    match workload {
        "paper-suite" => pick(&["running/rdwalk", "kura/(1-1)"]),
        "fig10-chains" => pick(&["walk-chain-2/global", "walk-chain-2/compositional"]),
        _ => cases.iter().take(20).collect(),
    }
}

/// Checks one successful bound; `Err` says which check failed.
///
/// The oracle check is the bracketing rule of `tests/end_to_end.rs`: each
/// simulated raw moment up to degree 2 lies within the derived interval,
/// widened by `0.02·|simulated| + 0.5` for Monte-Carlo noise.
pub fn check_bounds(label: &str, bounds: &Bounds, oracle: Option<&Oracle>) -> Result<(), String> {
    let Some(oracle) = oracle else {
        return Err(format!(
            "{label}: analysis succeeded but no simulator oracle"
        ));
    };
    for k in 1..=bounds.degree.min(2) {
        let simulated = oracle.raw[k - 1];
        let tolerance = 0.02 * simulated.abs() + 0.5;
        let interval = bounds.raw[k];
        if simulated > interval.hi() + tolerance || simulated < interval.lo() - tolerance {
            return Err(format!(
                "{label}: simulated E[C^{k}] = {simulated} outside derived [{}, {}]",
                interval.lo(),
                interval.hi()
            ));
        }
    }
    // Fig. 1(b) of the paper at d = 10.
    if label == "running/rdwalk" {
        let mean_ub = bounds.raw[1].hi();
        let var_ub = bounds.variance_upper.unwrap_or(f64::INFINITY);
        if mean_ub > 24.0 + 1e-3 || var_ub > 248.0 + 1e-2 {
            return Err(format!(
                "{label}: E[C] <= {mean_ub}, V[C] <= {var_ub}; Fig. 1(b) has 24 and 248"
            ));
        }
    }
    Ok(())
}

/// Tightness ratios of one checked bound: derived upper bound over the
/// simulated `E[C]` and `V[C]`, where the simulated value is positive.
pub fn tightness(bounds: &Bounds, oracle: &Oracle) -> (Option<f64>, Option<f64>) {
    let ratio = |ub: f64, sim: f64| (sim > 1e-9 && ub > 0.0 && ub.is_finite()).then(|| ub / sim);
    let mean = ratio(bounds.raw[1].hi(), oracle.raw[0]);
    let var = if bounds.degree >= 2 {
        bounds
            .variance_upper
            .and_then(|ub| ratio(ub, oracle.variance))
    } else {
        None
    };
    (mean, var)
}
