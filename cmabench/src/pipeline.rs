//! One analysis, two ways: the untraced production call
//! (`Analysis::…::run`) whose wall time is the end-to-end latency, and the
//! traced composition of the same layer calls that `Analysis::run` makes,
//! with a span around each.  Both reduce to an [`Outcome`] whose
//! fingerprint must match bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use central_moment_analysis::inference::{
    analyze_session_resilient, soundness_report_in_session, tail_curve, AnalysisResult,
};
use central_moment_analysis::suite::Benchmark;
use central_moment_analysis::{
    parse_program, Analysis, AnalysisOptions, AnalysisReport, CentralMoments, CheckConfig,
    CmaError, FactorKind, Interval, LpBackend, Program, SolveMode, SoundnessReport, SparseBackend,
};

use crate::trace::{Kind, Recorder, TimingBackend};

/// Where an input comes from: a suite AST (parsing bypassed) or Appl text.
pub enum Input {
    Ast(Box<Benchmark>),
    Source(String),
}

/// One analysis the workload submits: an input plus its configuration.
pub struct Case {
    pub label: String,
    pub input: Input,
    /// Degree override (`None` keeps the benchmark's paper degree).
    pub degree: Option<usize>,
    pub mode: SolveMode,
    pub threads: usize,
    pub soundness: bool,
}

impl Case {
    /// The production configuration every workload measures: the sparse
    /// backend with the LU factorization, all other knobs at defaults.
    fn configure<B: LpBackend>(&self, analysis: Analysis<B>) -> Analysis<SparseBackend> {
        let mut analysis = analysis
            .mode(self.mode)
            .threads(self.threads)
            .soundness(self.soundness)
            .label(self.label.clone())
            .factor(FactorKind::Lu)
            .backend(SparseBackend);
        if let Some(d) = self.degree {
            analysis = analysis.degree(d);
        }
        analysis
    }

    /// The engine options `Analysis::run` would use for this case (before
    /// the checker's range facts are attached).
    pub fn options(&self, program: &Program) -> AnalysisOptions {
        let analysis = match &self.input {
            Input::Ast(b) => self.configure(Analysis::benchmark(b)),
            Input::Source(_) => self.configure(Analysis::of(program)),
        };
        analysis.options().clone()
    }

    /// The program AST (parsing source inputs), for setup-time use.
    pub fn program(&self) -> Result<Program, CmaError> {
        match &self.input {
            Input::Ast(b) => Ok(b.program.clone()),
            Input::Source(src) => Ok(parse_program(src)?),
        }
    }

    pub fn valuation(&self) -> Vec<(central_moment_analysis::Var, f64)> {
        match &self.input {
            Input::Ast(b) => b.initial_state(),
            Input::Source(_) => Vec::new(),
        }
    }
}

/// The bounds a successful analysis reports, for the oracle checks.
#[derive(Debug, Clone)]
pub struct Bounds {
    pub degree: usize,
    pub raw: Vec<Interval>,
    pub variance_upper: Option<f64>,
}

/// How one analysis ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    Ok {
        bounds: Bounds,
        /// Iterations, refactorizations and dual pivots summed over the
        /// inference groups the result reports.
        group_lp: [usize; 3],
        fingerprint: String,
    },
    /// Parse or check errors: the expected outcome for a defective input.
    Rejected(String),
    /// An analysis failure (LP infeasible/unbounded, budget), a contained
    /// panic, or any other error.
    Failed(String),
}

impl Outcome {
    /// Everything that must repeat exactly: bounds to the bit, LP counts,
    /// the soundness verdict, or the error text.
    pub fn fingerprint(&self) -> &str {
        match self {
            Outcome::Ok { fingerprint, .. } => fingerprint,
            Outcome::Rejected(m) | Outcome::Failed(m) => m,
        }
    }
}

fn ok_outcome(
    result: &AnalysisResult,
    raw: &[Interval],
    variance_upper: Option<f64>,
    soundness: Option<&SoundnessReport>,
) -> Outcome {
    let bits: Vec<(u64, u64)> = raw
        .iter()
        .map(|i| (i.lo().to_bits(), i.hi().to_bits()))
        .collect();
    let mut group_lp = [0; 3];
    for g in &result.groups {
        group_lp[0] += g.iterations;
        group_lp[1] += g.refactorizations;
        group_lp[2] += g.dual_pivots;
    }
    let sound = soundness.map(|s| {
        (
            s.is_sound(),
            s.termination_moment,
            s.extension_constraints,
            s.extension_dual_pivots,
        )
    });
    let fingerprint = format!(
        "ok degree={} raw_bits={bits:?} lp_iterations={} lp_refactorizations={} \
         lp_dual_pivots={} soundness={sound:?}",
        result.degree(),
        group_lp[0],
        group_lp[1],
        group_lp[2],
    );
    Outcome::Ok {
        bounds: Bounds {
            degree: result.degree(),
            raw: raw.to_vec(),
            variance_upper,
        },
        group_lp,
        fingerprint,
    }
}

fn classify(err: &CmaError) -> Outcome {
    let text = err.to_string();
    match err {
        CmaError::Parse(_) | CmaError::Check(_) | CmaError::Program(_) => {
            Outcome::Rejected(format!("rejected: {text}"))
        }
        _ => Outcome::Failed(format!("failed: {text}")),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> Outcome {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "analysis panicked".to_string());
    Outcome::Failed(format!("panicked: {message}"))
}

fn report_outcome(report: &AnalysisReport) -> Outcome {
    ok_outcome(
        &report.result,
        &report.raw_intervals,
        report.variance_upper(),
        report.soundness.as_ref(),
    )
}

/// The untraced production path; returns the wall time of the whole call.
pub fn run_untraced(case: &Case) -> (Duration, Outcome) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| match &case.input {
        Input::Ast(b) => case.configure(Analysis::benchmark(b)).run(),
        Input::Source(src) => Analysis::parse(src).and_then(|a| case.configure(a).run()),
    }));
    let elapsed = start.elapsed();
    let outcome = match result {
        Ok(Ok(report)) => report_outcome(&report),
        Ok(Err(e)) => classify(&e),
        Err(payload) => panic_message(payload),
    };
    (elapsed, outcome)
}

/// Default tail thresholds, as `Analysis::run` picks them: 2×, 4× and 8×
/// the mean upper bound.
fn default_thresholds(central: &CentralMoments) -> Vec<f64> {
    let mean_ub = central.mean().hi();
    if mean_ub.is_finite() && mean_ub > 0.0 {
        vec![2.0 * mean_ub, 4.0 * mean_ub, 8.0 * mean_ub]
    } else {
        Vec::new()
    }
}

/// What the traced composition counts beyond the spans.
#[derive(Debug, Default)]
pub struct TracedCounts {
    pub check_rejected: usize,
}

/// The traced composition: the layer calls `Analysis::run` makes, each in
/// a span, against the timing backend.
pub fn run_traced(
    case: &Case,
    index: usize,
    options: Option<&AnalysisOptions>,
    recorder: &Recorder,
    counts: &mut TracedCounts,
) -> Outcome {
    let backend = TimingBackend {
        inner: SparseBackend,
        recorder,
    };
    recorder.scope(Kind::Program, index, || {
        catch_unwind(AssertUnwindSafe(|| {
            compose(case, index, options, recorder, &backend, counts)
        }))
        .unwrap_or_else(panic_message)
    })
}

fn compose(
    case: &Case,
    index: usize,
    options: Option<&AnalysisOptions>,
    recorder: &Recorder,
    backend: &dyn LpBackend,
    counts: &mut TracedCounts,
) -> Outcome {
    let parsed;
    let program = match &case.input {
        Input::Ast(b) => &b.program,
        Input::Source(src) => match recorder.scope(Kind::Parse, index, || parse_program(src)) {
            Ok(p) => {
                parsed = p;
                &parsed
            }
            Err(e) => return classify(&CmaError::from(e)),
        },
    };
    let options = options.expect("an input that parses here parsed at set-up");

    let config = CheckConfig {
        nonneg_cost: false,
        assume_init: options.valuation.iter().map(|(v, _)| v.clone()).collect(),
    };
    let check = recorder.scope(Kind::Check, index, || match &case.input {
        Input::Source(src) => central_moment_analysis::check::check_source(src, &config)
            .expect("source parsed by parse_program"),
        Input::Ast(_) => central_moment_analysis::check::check_program(program, &config),
    });
    if check.has_errors() {
        counts.check_rejected += 1;
        return classify(&CmaError::Check(Box::new(check)));
    }
    let mut options = options.clone();
    if !check.facts().is_empty() {
        options.range_facts = Some(Arc::new(check.facts().clone()));
    }

    let (result, mut session) = match recorder.scope(Kind::Inference, index, || {
        analyze_session_resilient(program, &options, backend)
    }) {
        Ok(pair) => pair,
        Err(e) => return classify(&CmaError::from(e)),
    };

    let (raw, central) = recorder.scope(Kind::Tail, index, || {
        let raw = result.raw_intervals_at(&options.valuation);
        let central = CentralMoments::from_raw_intervals(&raw);
        let thresholds = default_thresholds(&central);
        std::hint::black_box(tail_curve(&central, thresholds));
        (raw, central)
    });

    let soundness = case.soundness.then(|| {
        recorder.scope(Kind::Soundness, index, || {
            soundness_report_in_session(&mut session, program, result.degree())
        })
    });
    drop(session);

    let variance_upper = (central.degree() >= 2).then(|| central.variance_upper());
    ok_outcome(&result, &raw, variance_upper, soundness.as_ref())
}
