//! Benchmark of the central-moment analysis pipeline, end to end and layer
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path cmabench/Cargo.toml -- \
//!     --workload paper-suite|fig10-chains|corpus|all --seed N --seconds S \
//!     --trace 0|1 [--corpus-base 42]
//! ```
//!
//! One closed-loop client submits each workload input after the previous one
//! finishes.  `--trace 0` prints the end-to-end metrics of untraced passes;
//! `--trace 1` adds a traced pass and prints the per-layer metrics.  The last
//! stdout line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; a failed correctness check prints `"correct": false` and exits
//! with status 1.  `--workload all` runs every workload, untraced and traced,
//! each in its own process.  Why each workload exists and which metric each
//! layer should move is in `cmabench/README.md`.

mod pipeline;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use central_moment_analysis::json;

use pipeline::{run_traced, run_untraced, Outcome, TracedCounts};
use trace::{chrome_trace, lp_by_program, LayerTotals, LpCounts, Recorder};
use workloads::{check_bounds, setup, tightness, Prepared, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Seed of the first corpus program.
    corpus_base: u64,
}

const USAGE: &str = "usage: cmabench --workload paper-suite|fig10-chains|corpus|all \
--seed N --seconds S --trace 0|1 [--corpus-base N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        corpus_base: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--corpus-base" => args.corpus_base = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cmabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    run_workload(&args)
}

/// Runs every workload untraced and traced, each in a child process of its
/// own (so `peak_rss_mb` is per workload), and fails if any run fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cmabench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {workload} --trace {trace}");
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--corpus-base", &args.corpus_base.to_string()])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    println!("!! {workload} --trace {trace} failed: {s}");
                    ok = false;
                }
                Err(e) => {
                    println!("!! {workload} --trace {trace} did not start: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One closed-loop pass over the inputs in `order` (every input in the first
/// pass, the ones short enough for the time left in later passes).  Passes
/// keep only a hash of each outcome's fingerprint, so memory does not grow
/// with the number of passes.
struct Pass {
    wall: Duration,
    /// Per input; `None` where the pass skipped it.
    latency: Vec<Option<Duration>>,
    fingerprints: Vec<Option<u64>>,
}

impl Pass {
    fn ran(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.latency.len()).filter(|&i| self.latency[i].is_some())
    }
}

fn hash(fingerprint: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    fingerprint.hash(&mut h);
    h.finish()
}

fn untraced_pass(prepared: &Prepared, order: &[usize]) -> (Pass, Vec<Option<Outcome>>) {
    let n = prepared.cases.len();
    let mut latency = vec![None; n];
    let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
    let start = Instant::now();
    for &i in order {
        let (elapsed, outcome) = run_untraced(&prepared.cases[i]);
        latency[i] = Some(elapsed);
        outcomes[i] = Some(outcome);
    }
    let wall = start.elapsed();
    let fingerprints = outcomes
        .iter()
        .map(|o| o.as_ref().map(|o| hash(o.fingerprint())))
        .collect();
    (
        Pass {
            wall,
            latency,
            fingerprints,
        },
        outcomes,
    )
}

/// A seeded permutation of `0..n` (splitmix64-driven Fisher–Yates): the
/// order in which the client submits the inputs in pass `pass`.  Every pass
/// of a run gets its own order, so that a run's per-program latencies are
/// taken after many different predecessors instead of depending on one order.
fn submission_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Final classification of one input: the analysis outcome, demoted to a
/// failure when a successful bound fails a correctness check.
enum Verdict {
    Ok,
    Rejected,
    Failed(String),
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run_workload(args: &Args) -> ExitCode {
    let workload = args.workload.as_str();
    let mut problems: Vec<String> = Vec::new();

    // Set-up, several times; every set-up must produce the same oracle.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut sim_ms = Vec::with_capacity(SETUPS);
    let mut sim_trials = 0;
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUPS {
        let (p, timing) = setup(workload, args.corpus_base);
        setup_s.push(timing.total.as_secs_f64());
        sim_ms.push(ms(timing.sim));
        sim_trials = timing.sim_trials;
        if let Some(prev) = &prepared {
            if prev.oracles != p.oracles {
                problems.push("simulator oracle differs between set-ups".into());
            }
        }
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let n = prepared.cases.len();

    // Untraced passes: the end-to-end numbers.  A traced run spends half
    // its time budget here and the rest on the traced pass.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    //
    // The first pass runs every input.  Each later pass runs, in an order of
    // its own, the inputs whose best latency so far is at most half the time
    // left, and the run stops before a pass whose best-case sum would not
    // fit.  So one very long input (`running/rdwalk-2` on paper-suite) does
    // not take the time its workload's other inputs need for repeats.
    let measure_start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Option<Vec<Outcome>> = None;
    let mut best_s = vec![f64::INFINITY; n];
    loop {
        let mut order = submission_order(n, args.seed, passes.len() as u64);
        if !passes.is_empty() {
            let left = budget - measure_start.elapsed().as_secs_f64();
            order.retain(|&i| best_s[i] <= left / 2.0);
            let predicted: f64 = order.iter().map(|&i| best_s[i]).sum();
            if order.is_empty() || predicted > left {
                break;
            }
        }
        let (pass, outcomes) = untraced_pass(&prepared, &order);
        for i in pass.ran() {
            let latency = pass.latency[i].expect("ran").as_secs_f64();
            best_s[i] = best_s[i].min(latency);
        }
        passes.push(pass);
        first.get_or_insert_with(|| {
            outcomes
                .into_iter()
                .map(|o| o.expect("the first pass runs every input"))
                .collect()
        });
    }

    // Exact-repeat guard across untraced passes.
    let first = first.expect("at least one pass");
    for i in 0..n {
        if passes
            .iter()
            .any(|p| p.fingerprints[i].is_some_and(|f| Some(f) != passes[0].fingerprints[i]))
        {
            problems.push(format!(
                "{}: result or LP counts differ between repeats",
                prepared.cases[i].label
            ));
        }
    }

    // Correctness checks on the first pass (the guard makes the others
    // identical).
    let mut verdicts = Vec::with_capacity(n);
    let mut mean_ratios = Vec::new();
    let mut var_ratios = Vec::new();
    for (i, outcome) in first.iter().enumerate() {
        let case = &prepared.cases[i];
        let oracle = prepared.oracles[i].as_ref();
        verdicts.push(match outcome {
            Outcome::Ok { bounds, .. } => match check_bounds(&case.label, bounds, oracle) {
                Ok(()) => {
                    let (m, v) = tightness(bounds, oracle.expect("checked bound has an oracle"));
                    mean_ratios.extend(m);
                    var_ratios.extend(v);
                    Verdict::Ok
                }
                Err(e) => {
                    problems.push(format!("correctness: {e}"));
                    Verdict::Failed(e)
                }
            },
            Outcome::Rejected(_) => Verdict::Rejected,
            Outcome::Failed(e) => Verdict::Failed(e.clone()),
        });
    }
    let failed_inputs = verdicts
        .iter()
        .filter(|v| matches!(v, Verdict::Failed(_)))
        .count();
    let rejected_inputs = verdicts
        .iter()
        .filter(|v| matches!(v, Verdict::Rejected))
        .count();

    // Each program's best latency over the run's passes.  Load from other
    // tenants of a shared host only ever adds time, in bursts of seconds, so
    // the fastest of many repeats is the steady estimate of what the program
    // costs; medians of repeats follow the host's load from run to run.
    let per_program_ms: Vec<f64> = best_s.iter().map(|s| s * 1e3).collect();
    // An undisturbed pass: every program at its best latency.
    let best_pass_ms: f64 = per_program_ms.iter().sum();
    // The median pass over every input, the base of the traced pass's
    // overhead.
    let full_walls: Vec<f64> = passes
        .iter()
        .filter(|p| p.ran().count() == n)
        .map(|p| ms(p.wall))
        .collect();
    let pass_wall_ms = stats::median(&full_walls);
    let samples: Vec<usize> = (0..n)
        .map(|i| passes.iter().filter(|p| p.latency[i].is_some()).count())
        .collect();
    let attempted: usize = samples.iter().sum();
    let failed: usize = (0..n)
        .filter(|&i| matches!(verdicts[i], Verdict::Failed(_)))
        .map(|i| samples[i])
        .sum();

    // Traced pass: the per-layer numbers.
    let mut traced = None;
    if args.trace {
        let recorder = Recorder::new();
        let mut counts = TracedCounts::default();
        let start = Instant::now();
        let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
        for i in submission_order(n, args.seed, 0) {
            let options = prepared.options[i].as_ref();
            outcomes[i] = Some(run_traced(
                &prepared.cases[i],
                i,
                options,
                &recorder,
                &mut counts,
            ));
        }
        let wall = start.elapsed();
        let spans = recorder.into_spans();
        let lp = lp_by_program(&spans, n);
        for (i, outcome) in outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("every input ran");
            let label = &prepared.cases[i].label;
            if outcome.fingerprint() != first[i].fingerprint() {
                problems.push(format!(
                    "{label}: traced composition differs from Analysis::run\n  traced:   {}\n  untraced: {}",
                    outcome.fingerprint(),
                    first[i].fingerprint()
                ));
            }
            // The LP counts the timing backend saw under inference are the
            // ones the result reports for its groups.
            if let Outcome::Ok { group_lp, .. } = outcome {
                let seen = &lp[i].1;
                if [seen.iterations, seen.refactorizations, seen.dual_pivots] != *group_lp {
                    problems.push(format!(
                        "{label}: LP counts seen by the timing backend {:?} differ from the \
                         reported inference groups {group_lp:?}",
                        [seen.iterations, seen.refactorizations, seen.dual_pivots]
                    ));
                }
            }
        }
        traced = Some((spans, lp, counts, wall));
    }

    let correct = problems.is_empty();
    let metadata = metadata(args, &prepared, passes.len());

    // Metrics.
    let mut metrics: Vec<Metric> = Vec::new();
    let samples_note = format!(
        "{n} programs, {attempted} analyses in {} passes, {}..{} per program",
        passes.len(),
        samples.iter().min().expect("non-empty workload"),
        samples.iter().max().expect("non-empty workload")
    );
    let mut layer_rows: Vec<(&str, f64)> = Vec::new();
    let mut trace_file = None;
    let mut lp_rows = None;
    if let Some((spans, lp, counts, wall)) = traced {
        (metrics, layer_rows) = layer_metrics(
            &LayerTotals::from_spans(&spans),
            counts.check_rejected,
            stats::median(&sim_ms),
            sim_trials,
            ms(wall),
            pass_wall_ms,
        );
        let path = out_dir().join(format!("{workload}-seed{}.trace.json", args.seed));
        let labels: Vec<&str> = prepared.cases.iter().map(|c| c.label.as_str()).collect();
        trace_file = Some((path, chrome_trace(&spans, &labels, &metadata)));
        lp_rows = Some(lp);
    } else {
        let latency_note = format!("over {n} per-program best latencies ({samples_note})");
        let latency = |name, p| Metric {
            name,
            value: stats::quantile(&per_program_ms, p),
            unit: "ms",
            note: latency_note.clone(),
        };
        metrics.push(Metric {
            name: "setup_s",
            value: stats::median(&setup_s),
            unit: "s",
            note: format!("median of {SETUPS} set-ups"),
        });
        metrics.push(Metric {
            name: "programs_per_s",
            value: n as f64 / (best_pass_ms / 1e3),
            unit: "1/s",
            note: format!(
                "{n} attempted in {best_pass_ms:.1} ms of best latencies \
                 (median pass wall {pass_wall_ms:.1} ms)"
            ),
        });
        metrics.push(latency("latency_p50_ms", 0.50));
        metrics.push(latency("latency_p90_ms", 0.90));
        metrics.push(latency("latency_p99_ms", 0.99));
        metrics.push(Metric {
            name: "geomean_ms",
            value: stats::geomean(&per_program_ms).expect("non-empty workload"),
            unit: "ms",
            note: latency_note.clone(),
        });
        metrics.push(Metric {
            name: "success_rate",
            value: 1.0 - failed_inputs as f64 / n as f64,
            unit: "ratio",
            note: format!(
                "failure_rate {failed_inputs}/{n} = {:.4}, {rejected_inputs} rejected",
                failed_inputs as f64 / n as f64
            ),
        });
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics.push(Metric {
            name: "mean_ub_ratio",
            value: stats::geomean(&mean_ratios).unwrap_or(f64::NAN),
            unit: "ratio",
            note: format!("geomean over {} programs", mean_ratios.len()),
        });
        metrics.push(Metric {
            name: "var_ub_ratio",
            value: stats::geomean(&var_ratios).unwrap_or(f64::NAN),
            unit: "ratio",
            note: format!("geomean over {} programs", var_ratios.len()),
        });
    }

    // Human-readable report.
    println!("workload {workload}: {samples_note}, seed {}", args.seed);
    println!("metadata {metadata}");
    for (i, v) in verdicts.iter().enumerate() {
        if let Verdict::Failed(reason) = v {
            println!("failed   {:<28} {reason}", prepared.cases[i].label);
        }
    }
    if let Some(lp) = &lp_rows {
        if let Some((i, (c, _))) = lp.iter().enumerate().max_by_key(|(_, (c, _))| c.iterations) {
            println!(
                "most LP work: {} with {} iterations, {} refactorizations, {} dual pivots",
                prepared.cases[i].label, c.iterations, c.refactorizations, c.dual_pivots
            );
        }
    }
    if let Some(&(_, wall)) = layer_rows.last() {
        println!("{:<28} {:>12} {:>8}", "layer", "ms", "share");
        for &(name, value) in &layer_rows {
            let share = 100.0 * value / wall;
            let flag = if name == "unattributed" && share > 5.0 {
                "  (over 5%)"
            } else {
                ""
            };
            println!("{name:<28} {value:>12.3} {share:>7.2}%{flag}");
        }
    }
    for m in &metrics {
        println!("{:<24} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics_json.join(",")
    );
    let rows = program_rows(&prepared, &per_program_ms, &first, lp_rows.as_deref());
    let body = format!("{{\"metadata\":{metadata},\"result\":{result},\"programs\":[{rows}]}}\n");
    write_artifacts(args, body, trace_file);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of a traced pass, and the flat layer table whose
/// self times add up to the traced pass wall.
fn layer_metrics(
    t: &LayerTotals,
    check_rejected: usize,
    sim_ms: f64,
    sim_trials: usize,
    wall_ms: f64,
    untraced_wall_ms: f64,
) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    let unattributed = wall_ms - ns_ms(t.layer_ns);
    let derive_ms = ns_ms(t.inference_ns.saturating_sub(t.inference_lp_ns));
    let soundness_ms = ns_ms(t.soundness_ns.saturating_sub(t.soundness_lp_ns));
    let lp_timed_ns = t.minimize_ns + t.batch_ns;
    let metrics = vec![
        metric("appl.parse_ms", ns_ms(t.parse_ns), "ms"),
        metric("appl.calls", t.parse_calls as f64, "count"),
        metric("check.ms", ns_ms(t.check_ns), "ms"),
        metric("check.calls", t.check_calls as f64, "count"),
        metric("check.rejected", check_rejected as f64, "count"),
        metric("inference.derive_ms", derive_ms, "ms"),
        metric("inference.calls", t.inference_calls as f64, "count"),
        metric("inference.lp_rows", t.inference_lp.rows as f64, "count"),
        metric("inference.lp_cols", t.inference_lp.cols as f64, "count"),
        metric("lp.open_ms", ns_ms(t.open_ns), "ms"),
        metric("lp.opens", t.opens as f64, "count"),
        metric("lp.minimize_ms", ns_ms(t.minimize_ns), "ms"),
        metric("lp.minimizes", t.minimizes as f64, "count"),
        metric("lp.iterations", t.lp.iterations as f64, "count"),
        metric("lp.refactorizations", t.lp.refactorizations as f64, "count"),
        metric("lp.dual_pivots", t.lp.dual_pivots as f64, "count"),
        metric(
            "lp.iters_per_refactor",
            t.lp.iterations as f64 / t.lp.refactorizations.max(1) as f64,
            "ratio",
        ),
        metric("lp.pivot_ms", ns_ms(t.lp.pivot_ns), "ms"),
        metric(
            "lp.unprofiled_ms",
            ns_ms(lp_timed_ns.saturating_sub(t.lp.pivot_ns)),
            "ms",
        ),
        metric("lp.batch_ms", ns_ms(t.batch_ns), "ms"),
        metric("lp.batches", t.batches as f64, "count"),
        metric("lp.kernel_allocs", t.lp.kernel_allocs as f64, "count"),
        metric("lp.nonoptimal", t.lp.nonoptimal as f64, "count"),
        metric("soundness.ms", soundness_ms, "ms"),
        metric("soundness.lp_ms", ns_ms(t.soundness_lp_ns), "ms"),
        metric("soundness.calls", t.soundness_calls as f64, "count"),
        metric("tail.ms", ns_ms(t.tail_ns), "ms"),
        metric("sim.ms", sim_ms, "ms"),
        metric("sim.trials", sim_trials as f64, "count"),
        metric("unattributed_ms", unattributed, "ms"),
        metric("trace_overhead", wall_ms / untraced_wall_ms, "ratio"),
    ];
    let table = vec![
        ("appl (parse)", ns_ms(t.parse_ns)),
        ("check", ns_ms(t.check_ns)),
        ("inference (derive, self)", derive_ms),
        ("lp (under inference)", ns_ms(t.inference_lp_ns)),
        ("tail", ns_ms(t.tail_ns)),
        ("soundness (self)", soundness_ms),
        ("lp (under soundness)", ns_ms(t.soundness_lp_ns)),
        ("unattributed", unattributed),
        ("traced pass wall", wall_ms),
    ];
    (metrics, table)
}

/// Output directory for result and trace files, inside the benchmark's own
/// directory of the checkout it was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One JSON row per input: best latency, outcome, and (traced runs) the
/// LP counts the timing backend saw.
fn program_rows(
    prepared: &Prepared,
    per_program_ms: &[f64],
    outcomes: &[Outcome],
    lp: Option<&[(LpCounts, LpCounts)]>,
) -> String {
    let rows: Vec<String> = (0..prepared.cases.len())
        .map(|i| {
            let outcome = &outcomes[i];
            let status = match outcome {
                Outcome::Ok { .. } => "ok",
                Outcome::Rejected(_) => "rejected",
                Outcome::Failed(_) => "failed",
            };
            let lp = lp.map_or(String::new(), |lp| {
                let c = &lp[i].0;
                format!(
                    ",\"lp\":{{\"iterations\":{},\"refactorizations\":{},\"dual_pivots\":{}}}",
                    c.iterations, c.refactorizations, c.dual_pivots
                )
            });
            format!(
                "{{\"label\":{},\"best_ms\":{},\"status\":\"{status}\",\"detail\":{}{lp}}}",
                json::string(&prepared.cases[i].label),
                json::num(per_program_ms[i]),
                json::string(outcome.fingerprint())
            )
        })
        .collect();
    rows.join(",")
}

/// Writes the result file and, for traced runs, the Chrome trace.
fn write_artifacts(args: &Args, body: String, trace_file: Option<(PathBuf, String)>) {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cmabench: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("cmabench: cannot write {}: {e}", path.display());
    }
    if let Some((path, trace)) = trace_file {
        match std::fs::write(&path, trace) {
            Ok(()) => println!("trace    {}", path.display()),
            Err(e) => eprintln!("cmabench: cannot write {}: {e}", path.display()),
        }
    }
}

/// Run metadata: machine fingerprint, commit, solver configuration, seeds.
fn metadata(args: &Args, prepared: &Prepared, passes: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let options = prepared
        .options
        .iter()
        .flatten()
        .next()
        .cloned()
        .unwrap_or_else(|| central_moment_analysis::AnalysisOptions::degree(2));
    let mut fields = BTreeMap::new();
    fields.insert("workload", json::string(&args.workload));
    fields.insert("seed", args.seed.to_string());
    fields.insert("seconds", json::num(args.seconds));
    fields.insert("trace", args.trace.to_string());
    fields.insert("passes", passes.to_string());
    fields.insert("programs", prepared.cases.len().to_string());
    if args.workload == "corpus" {
        fields.insert("corpus_base", args.corpus_base.to_string());
    }
    fields.insert("commit", json::string(&git_commit()));
    fields.insert(
        "machine",
        format!(
            "{{\"cpu\":{},\"nproc\":{nproc},\"pool_threads\":{}}}",
            json::string(&cpu),
            rayon::current_num_threads()
        ),
    );
    fields.insert(
        "solver",
        format!(
            "{{\"backend\":\"sparse-revised-simplex\",\"factor\":{},\"pricing\":{},\
             \"presolve\":{},\"warm_resolve\":{},\"dual_pricing\":{},\"dual_ratio\":{}}}",
            json::string(options.factor.name()),
            json::string(options.pricing.name()),
            options.presolve,
            json::string(&format!("{:?}", options.warm_resolve)),
            json::string(&format!("{:?}", options.dual_pricing)),
            json::string(&format!("{:?}", options.dual_ratio)),
        ),
    );
    fields.insert(
        "oracle",
        format!("{{\"trials\":{},\"seed\":7}}", workloads::SIM_TRIALS),
    );
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&root.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(commit) = read(&root.join(reference)) {
        return commit;
    }
    read(&root.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
