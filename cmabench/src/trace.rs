//! The traced pass's span recorder and the timing LP backend.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions (see `pipeline.rs`), plus the LP calls that the
//! [`TimingBackend`] wrapper observes.  They stay in memory until the run
//! ends, then become the per-layer metrics ([`LayerTotals`]) and a Chrome
//! trace-event file that Perfetto and `chrome://tracing` load.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use central_moment_analysis::lp::{Cmp, LpProblem, LpSolution, LpStatus, LpVarId};
use central_moment_analysis::{json, LpBackend, LpSession, SolverTuning};

/// What a span measures.  The first five are the pipeline layers; `Lp*`
/// spans nest inside them; `Program` groups one input's layer spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Program,
    Parse,
    Check,
    Inference,
    Tail,
    Soundness,
    LpOpen,
    LpMinimize,
    LpBatch,
    LpSolve,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Program => "program",
            Kind::Parse => "appl.parse_program",
            Kind::Check => "check",
            Kind::Inference => "inference.analyze_session_resilient",
            Kind::Tail => "tail.central_moments+tail_curve",
            Kind::Soundness => "soundness_report_in_session",
            Kind::LpOpen => "lp.open_with",
            Kind::LpMinimize => "lp.minimize",
            Kind::LpBatch => "lp.solve_batch_with",
            Kind::LpSolve => "lp.solve",
        }
    }

    fn is_layer(self) -> bool {
        matches!(
            self,
            Kind::Parse | Kind::Check | Kind::Inference | Kind::Tail | Kind::Soundness
        )
    }

    fn is_lp(self) -> bool {
        matches!(
            self,
            Kind::LpOpen | Kind::LpMinimize | Kind::LpBatch | Kind::LpSolve
        )
    }
}

/// Solver counters read from the `LpSolution`s an LP span returned.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpCounts {
    pub rows: usize,
    pub cols: usize,
    pub iterations: usize,
    pub refactorizations: usize,
    pub dual_pivots: usize,
    pub pivot_ns: u64,
    pub kernel_allocs: u64,
    pub nonoptimal: usize,
}

impl LpCounts {
    fn absorb(&mut self, solution: &LpSolution) {
        let s = &solution.stats;
        self.iterations += s.iterations;
        self.refactorizations += s.refactorizations;
        self.dual_pivots += s.dual_pivots;
        self.pivot_ns += s.ftran_ns + s.btran_ns + s.pricing_ns + s.ratio_ns;
        self.kernel_allocs += s.kernel_allocs;
        self.nonoptimal += usize::from(solution.status != LpStatus::Optimal);
    }

    fn add(&mut self, other: &LpCounts) {
        self.rows += other.rows;
        self.cols += other.cols;
        self.iterations += other.iterations;
        self.refactorizations += other.refactorizations;
        self.dual_pivots += other.dual_pivots;
        self.pivot_ns += other.pivot_ns;
        self.kernel_allocs += other.kernel_allocs;
        self.nonoptimal += other.nonoptimal;
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub kind: Kind,
    /// Index of the enclosing span (`None` for program spans).
    pub parent: Option<usize>,
    /// Index of the input this span belongs to (the request identifier).
    pub program: usize,
    pub thread: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub lp: LpCounts,
}

/// Small per-thread ids for the trace's `tid` field.
fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static ID: Cell<usize> = const { Cell::new(usize::MAX) });
    ID.with(|id| {
        if id.get() == usize::MAX {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

const NONE: usize = usize::MAX;

/// In-memory span store.  The benchmark drives one closed-loop client, so a
/// single "innermost open span" slot attributes LP calls — including any a
/// worker thread makes on the client's behalf — to the layer that caused
/// them.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    current: AtomicUsize,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicUsize::new(NONE),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, kind: Kind, program: usize) -> usize {
        let parent = match self.current.load(Ordering::SeqCst) {
            NONE => None,
            p => Some(p),
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            kind,
            parent,
            program,
            thread: thread_index(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            lp: LpCounts::default(),
        });
        spans.len() - 1
    }

    fn close(&self, id: usize, lp: LpCounts) {
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id];
        span.dur_ns = end - span.start_ns;
        span.lp = lp;
    }

    fn current_program(&self) -> usize {
        match self.current.load(Ordering::SeqCst) {
            NONE => 0,
            id => self.spans.lock().expect("span store poisoned")[id].program,
        }
    }

    /// Runs `f` inside a span of `kind` that becomes the parent of every
    /// span opened while it runs.
    pub fn scope<T>(&self, kind: Kind, program: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(kind, program);
        let outer = self.current.swap(id, Ordering::SeqCst);
        let out = f();
        self.current.store(outer, Ordering::SeqCst);
        self.close(id, LpCounts::default());
        out
    }

    /// Times one LP call and records the counters `counts` extracts from
    /// its result.
    fn lp<T>(&self, kind: Kind, f: impl FnOnce() -> T, counts: impl FnOnce(&T) -> LpCounts) -> T {
        let id = self.open(kind, self.current_program());
        let out = f();
        self.close(id, counts(&out));
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned")
    }
}

/// An [`LpBackend`] that forwards every trait method to `inner` and times
/// `open_with`/`open` (presolve included), each session's `minimize`, the
/// batch entry points, and one-shot solves.  Every method forwards —
/// `warm_resolves_in_place` too — so the traced run takes the same solver
/// path as the untraced one.
pub struct TimingBackend<'r, B> {
    pub inner: B,
    pub recorder: &'r Recorder,
}

struct TimingSession<'a> {
    inner: Box<dyn LpSession + 'a>,
    recorder: &'a Recorder,
}

impl LpSession for TimingSession<'_> {
    fn add_var(&mut self, name: &str, free: bool) -> LpVarId {
        self.inner.add_var(name, free)
    }

    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        self.inner.add_constraint(terms, cmp, rhs);
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
        let inner = &mut self.inner;
        self.recorder.lp(
            Kind::LpMinimize,
            || inner.minimize(objective),
            solution_counts,
        )
    }

    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn warm_resolves_in_place(&self) -> bool {
        self.inner.warm_resolves_in_place()
    }
}

fn size_counts(problem: &LpProblem) -> LpCounts {
    LpCounts {
        rows: problem.num_constraints(),
        cols: problem.num_vars(),
        ..LpCounts::default()
    }
}

fn solution_counts(solution: &LpSolution) -> LpCounts {
    let mut counts = LpCounts::default();
    counts.absorb(solution);
    counts
}

fn batch_counts(problems: &[LpProblem], solutions: &[LpSolution]) -> LpCounts {
    let mut counts = LpCounts::default();
    for problem in problems {
        counts.add(&size_counts(problem));
    }
    for solution in solutions {
        counts.absorb(solution);
    }
    counts
}

impl<B: LpBackend> TimingBackend<'_, B> {
    fn wrap<'a>(&'a self, inner: Box<dyn LpSession + 'a>) -> Box<dyn LpSession + 'a> {
        Box::new(TimingSession {
            inner,
            recorder: self.recorder,
        })
    }
}

impl<B: LpBackend> LpBackend for TimingBackend<'_, B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
        let inner = self.recorder.lp(
            Kind::LpOpen,
            || self.inner.open(problem),
            |_| size_counts(problem),
        );
        self.wrap(inner)
    }

    fn open_with<'a>(
        &'a self,
        problem: &LpProblem,
        tuning: &SolverTuning,
    ) -> Box<dyn LpSession + 'a> {
        let inner = self.recorder.lp(
            Kind::LpOpen,
            || self.inner.open_with(problem, tuning),
            |_| size_counts(problem),
        );
        self.wrap(inner)
    }

    fn solve(&self, problem: &LpProblem) -> LpSolution {
        self.recorder.lp(
            Kind::LpSolve,
            || self.inner.solve(problem),
            |s| {
                let mut c = size_counts(problem);
                c.absorb(s);
                c
            },
        )
    }

    fn solve_with(&self, problem: &LpProblem, tuning: &SolverTuning) -> LpSolution {
        self.recorder.lp(
            Kind::LpSolve,
            || self.inner.solve_with(problem, tuning),
            |s| {
                let mut c = size_counts(problem);
                c.absorb(s);
                c
            },
        )
    }

    fn solve_batch(&self, problems: &[LpProblem], threads: usize) -> Vec<LpSolution> {
        self.recorder.lp(
            Kind::LpBatch,
            || self.inner.solve_batch(problems, threads),
            |s| batch_counts(problems, s),
        )
    }

    fn solve_batch_with(
        &self,
        problems: &[LpProblem],
        threads: usize,
        tuning: &SolverTuning,
    ) -> Vec<LpSolution> {
        self.recorder.lp(
            Kind::LpBatch,
            || self.inner.solve_batch_with(problems, threads, tuning),
            |s| batch_counts(problems, s),
        )
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub parse_ns: u64,
    pub parse_calls: usize,
    pub check_ns: u64,
    pub check_calls: usize,
    pub inference_ns: u64,
    pub inference_lp_ns: u64,
    pub inference_calls: usize,
    pub inference_lp: LpCounts,
    pub tail_ns: u64,
    pub soundness_ns: u64,
    pub soundness_lp_ns: u64,
    pub soundness_calls: usize,
    pub open_ns: u64,
    pub opens: usize,
    pub minimize_ns: u64,
    pub minimizes: usize,
    pub batch_ns: u64,
    pub batches: usize,
    pub lp: LpCounts,
    /// Sum of every layer span: the traced pass wall minus this is the
    /// time no span owns.
    pub layer_ns: u64,
}

impl LayerTotals {
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut t = LayerTotals::default();
        for span in spans {
            if span.kind.is_layer() {
                t.layer_ns += span.dur_ns;
            }
            match span.kind {
                Kind::Program => {}
                Kind::Parse => {
                    t.parse_ns += span.dur_ns;
                    t.parse_calls += 1;
                }
                Kind::Check => {
                    t.check_ns += span.dur_ns;
                    t.check_calls += 1;
                }
                Kind::Inference => {
                    t.inference_ns += span.dur_ns;
                    t.inference_calls += 1;
                }
                Kind::Tail => t.tail_ns += span.dur_ns,
                Kind::Soundness => {
                    t.soundness_ns += span.dur_ns;
                    t.soundness_calls += 1;
                }
                Kind::LpOpen => {
                    t.open_ns += span.dur_ns;
                    t.opens += 1;
                }
                // A one-shot solve is an open plus one minimize in one call.
                Kind::LpMinimize | Kind::LpSolve => {
                    t.minimize_ns += span.dur_ns;
                    t.minimizes += 1;
                }
                Kind::LpBatch => {
                    t.batch_ns += span.dur_ns;
                    t.batches += 1;
                }
            }
            if span.kind.is_lp() {
                t.lp.add(&span.lp);
                match span.parent.map(|p| spans[p].kind) {
                    Some(Kind::Inference) => {
                        t.inference_lp_ns += span.dur_ns;
                        t.inference_lp.add(&span.lp);
                    }
                    Some(Kind::Soundness) => t.soundness_lp_ns += span.dur_ns,
                    _ => {}
                }
            }
        }
        t
    }
}

/// Per input: LP counts of every LP span, and of those under inference.
pub fn lp_by_program(spans: &[Span], programs: usize) -> Vec<(LpCounts, LpCounts)> {
    let mut out = vec![(LpCounts::default(), LpCounts::default()); programs];
    for span in spans.iter().filter(|s| s.kind.is_lp()) {
        let (total, inference) = &mut out[span.program];
        total.add(&span.lp);
        if span.parent.map(|p| spans[p].kind) == Some(Kind::Inference) {
            inference.add(&span.lp);
        }
    }
    out
}

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
pub fn chrome_trace(spans: &[Span], labels: &[&str], metadata: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":");
    out.push_str(metadata);
    out.push_str(",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let label = labels[span.program];
        let name = if span.kind == Kind::Program {
            label
        } else {
            span.kind.name()
        };
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\
             \"program\":{}",
            json::string(name),
            span.kind.name().split('.').next().unwrap_or(""),
            span.thread,
            span.start_ns as f64 / 1e3,
            span.dur_ns as f64 / 1e3,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            json::string(label),
        ));
        if span.kind.is_lp() {
            let c = &span.lp;
            out.push_str(&format!(
                ",\"rows\":{},\"cols\":{},\"iterations\":{},\"refactorizations\":{},\
                 \"dual_pivots\":{},\"pivot_ns\":{},\"nonoptimal\":{}",
                c.rows,
                c.cols,
                c.iterations,
                c.refactorizations,
                c.dual_pivots,
                c.pivot_ns,
                c.nonoptimal
            ));
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}
