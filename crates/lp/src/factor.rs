//! The basis factorization behind the simplex core.
//!
//! Every revised-simplex iteration needs the basis matrix `B` applied in two
//! directions — `ftran` solves `B·d = a` (the pivot direction) and `btran`
//! solves `Bᵀ·y = c_B` (the dual prices) — plus a cheap `update` when one
//! basic column is replaced, and a from-scratch `refactorize` that washes
//! out the drift the updates accumulate.  `LuFactor` provides all four:
//! a sparse LU elimination with **Markowitz ordering** (pivots chosen to
//! minimize `(rowcount−1)·(colcount−1)` fill, under a threshold guard for
//! stability, by an incremental search that picks exactly the pivot of a
//! full scan — see `PivotSearch`) and **Forrest–Tomlin updates**: a basis
//! change replaces the departing column of `U` in place with the spike
//! `U·d`, moves its pivot step to the end of the elimination order, and
//! eliminates the pending row into one sparse *row eta* — so `U` stays
//! triangular and compact instead of growing an unbounded product-form eta
//! file.  An update declines (forcing refactorization) only when the new
//! pivot is unstable relative to the spike or the eliminated row fills
//! beyond a threshold.  On the analysis's extremely sparse bases both
//! solves and updates run in `O(nnz)` rather than `O(m²)`.
//!
//! Row extension (the warm `add_constraint` path) does not touch the
//! factors: the core marks them stale and refactorizes lazily at the next
//! solve, amortizing any number of appended rows into one rebuild.
//!
//! The tests pin the LU kernels against an explicit dense `B⁻¹`, and
//! `refactorize`/`update` bit for bit against the straightforward full-scan
//! search and dense update they replace (see the test module).

use crate::core::ColumnStore;

/// Minimum magnitude accepted for an update or border pivot (matches the
/// solvers' pivot tolerance).
const PIVOT_EPS: f64 = 1e-7;
/// Below this magnitude a candidate LU pivot counts as structurally zero and
/// the basis as numerically singular.
const SINGULAR_TOL: f64 = 1e-11;
/// Threshold-pivoting factor: an LU pivot must be at least this fraction of
/// the largest entry in its column (the classic Markowitz/threshold
/// compromise between sparsity and stability).
const LU_THRESHOLD: f64 = 0.1;
/// Entries driven below this magnitude by elimination are dropped as exact
/// cancellations.
const DROP_TOL: f64 = 1e-13;
/// Hard cap on the row-eta file; reaching it forces a refactorization (the
/// core's periodic refresh normally keeps the file far shorter).
const ETA_CAP: usize = 512;
/// A Forrest–Tomlin update declines when the new diagonal is smaller than
/// this fraction of the spike's largest entry: the replacement would be
/// numerically dominated and the basis should be refactorized instead.
const FT_STAB_TOL: f64 = 1e-8;
/// A Forrest–Tomlin update declines when eliminating the pending row takes
/// more than this many row operations — the fill has outgrown what an
/// in-place update saves over refactorizing.
const FT_FILL_CAP: usize = 64;

/// The basis factorization: Markowitz LU with Forrest–Tomlin updates, the
/// only one the solver implements.
///
/// Kept as a one-variant type only so the benchmark crate (`cmabench/`)
/// can keep setting and printing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorKind {
    /// Markowitz-ordered sparse LU with Forrest–Tomlin updates.
    #[default]
    Lu,
}

impl FactorKind {
    /// The kind's canonical report name.
    pub fn name(&self) -> &'static str {
        "lu"
    }
}

/// How a warm session re-solves after incremental rows left the basis
/// primal-infeasible: dual-simplex pivots from the (still dual-feasible)
/// optimal basis, the only strategy the solver implements.
///
/// Kept as a one-variant type only so the benchmark crate (`cmabench/`)
/// can keep printing it in its `solver` metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStrategy {
    /// Dual-simplex pivots from the warm basis — a handful of pivots
    /// instead of a phase-1 restart.
    #[default]
    Dual,
}

/// Why an update declined; the core reacts by refactorizing from pristine
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FactorError {
    /// The update's pivot is too small to apply stably.
    UnstablePivot,
    /// The factors cannot absorb this change in place (fill or eta-file
    /// overflow); rebuild at the next solve.
    NeedsRefactorization,
}

/// Hyper-sparse solves are attempted only at or above this dimension —
/// below it a dense scan is a handful of cache lines and the symbolic
/// bookkeeping costs more than it saves.
const HYPER_MIN_DIM: usize = 16;

/// Result-density threshold `ρ` for the hyper-sparse triangular solves: a
/// solve is attempted hyper-sparse when the right-hand side's support is
/// at most `ρ·m` rows, and falls back to the dense scan once the live
/// support grows past `4ρ·m`.
const HYPER_DENSITY: f64 = 0.15;

/// Seed cap for a hyper-sparse attempt at dimension `m`.
fn hyper_seed_cap(m: usize) -> usize {
    (HYPER_DENSITY * m as f64) as usize
}

/// Live-support cap before a hyper-sparse solve falls back to dense.
fn hyper_live_cap(m: usize) -> usize {
    ((4.0 * HYPER_DENSITY) * m as f64) as usize + 4
}

/// Sift-up push into a max-heap of `(key, step)` pairs kept in a plain
/// `Vec` so the buffer is reusable across solves.  Min-order stages push
/// `usize::MAX - key`.
fn heap_push(heap: &mut Vec<(usize, usize)>, item: (usize, usize)) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if heap[p] < heap[i] {
            heap.swap(p, i);
            i = p;
        } else {
            break;
        }
    }
}

/// Pop the max `(key, step)` pair (see [`heap_push`]).
fn heap_pop(heap: &mut Vec<(usize, usize)>) -> Option<(usize, usize)> {
    let n = heap.len();
    if n == 0 {
        return None;
    }
    heap.swap(0, n - 1);
    let top = heap.pop();
    let n = heap.len();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut big = i;
        if l < n && heap[l] > heap[big] {
            big = l;
        }
        if r < n && heap[r] > heap[big] {
            big = r;
        }
        if big == i {
            break;
        }
        heap.swap(i, big);
        i = big;
    }
    top
}

/// Caller-owned scratch for the in-place kernel API.
///
/// One `KernelWs` carries everything an [`LuFactor`] solve needs —
/// the right-hand side, the solution, the symbolic-DFS worklist, and
/// epoch-tagged marks — so a solve performs **zero heap allocation**
/// once the workspace has been sized for the basis dimension.  The
/// `SimplexCore` owns one workspace per concurrent solve role and
/// reuses them across every pivot of a solve.
///
/// Contract between loads and kernels:
/// * `rhs` is all-zero between calls; [`load_dense`](Self::load_dense)/
///   [`load_sparse`](Self::load_sparse)/[`load_unit`](Self::load_unit)
///   populate it plus `rhs_pattern`, and the kernel consumes it back to
///   all-zero.
/// * After a kernel returns, `sol` holds the solution; when `sparse` is
///   set, `pattern` lists a superset of its nonzero indices and `sol`
///   is exactly zero everywhere else.  The next kernel call clears it.
#[derive(Debug, Default)]
pub(crate) struct KernelWs {
    /// Right-hand side / mid-solve vector (row-indexed in ftran,
    /// position-indexed in btran).  All-zero between calls.
    pub(crate) rhs: Vec<f64>,
    /// Support of `rhs` (may contain duplicates or exact-zero entries).
    pub(crate) rhs_pattern: Vec<usize>,
    /// Whether `rhs_pattern` is valid; dense loads with wide support
    /// clear it so kernels skip straight to the dense path.
    pub(crate) rhs_sparse: bool,
    /// Solution vector (position-indexed in ftran, row-indexed in btran).
    pub(crate) sol: Vec<f64>,
    /// Superset of `sol`'s nonzero indices when `sparse`.
    pub(crate) pattern: Vec<usize>,
    /// Whether `pattern` describes `sol`; dense results leave it false.
    pub(crate) sparse: bool,
    /// Indices of `rhs` dirtied by the current solve (for O(support)
    /// re-zeroing instead of an O(m) clear).
    touched: Vec<usize>,
    /// Epoch-tagged marks over rows and positions/steps; bumping the
    /// epoch invalidates all marks in O(1).
    mark_row: Vec<u32>,
    mark_pos: Vec<u32>,
    epoch_row: u32,
    epoch_pos: u32,
    /// Reusable binary-heap buffer for the symbolic worklists.
    heap: Vec<(usize, usize)>,
    /// Disables the hyper-sparse paths for this workspace (kernel-bench
    /// baselines and agreement tests pin hyper against the dense scan).
    pub(crate) force_dense: bool,
    /// Dimension the buffers are sized for (high-water mark).
    sized_for: usize,
    /// Dimension of the solve that produced `sol` (for dense clears).
    dim: usize,
    /// Solves that completed on the hyper-sparse path.
    pub(crate) hyper_ftrans: u64,
    pub(crate) hyper_btrans: u64,
    /// Solves that ran (or fell back to) the dense scan in an LU kernel.
    pub(crate) dense_fallbacks: u64,
    /// Workspace growth events after the first sizing — the hot loop's
    /// allocation count, asserted zero in steady state by CI.
    pub(crate) kernel_allocs: u64,
}

impl KernelWs {
    /// Grows every buffer to dimension `m`; growth after the first
    /// sizing counts as a hot-path allocation.
    pub(crate) fn ensure(&mut self, m: usize) {
        if m > self.sized_for {
            if self.sized_for > 0 {
                self.kernel_allocs += 1;
            }
            self.rhs.resize(m, 0.0);
            self.sol.resize(m, 0.0);
            self.mark_row.resize(m, 0);
            self.mark_pos.resize(m, 0);
            self.rhs_pattern
                .reserve(m.saturating_sub(self.rhs_pattern.len()));
            self.pattern.reserve(m.saturating_sub(self.pattern.len()));
            self.touched.reserve(m.saturating_sub(self.touched.len()));
            self.heap.reserve(m.saturating_sub(self.heap.len()));
            self.sized_for = m;
        }
    }

    /// Loads a dense right-hand side, scanning its support.
    pub(crate) fn load_dense(&mut self, b: &[f64]) {
        self.ensure(b.len());
        self.rhs[..b.len()].copy_from_slice(b);
        self.rhs_pattern.clear();
        for (i, &v) in b.iter().enumerate() {
            if v != 0.0 {
                self.rhs_pattern.push(i);
            }
        }
        self.rhs_sparse = true;
    }

    /// Loads a sparse right-hand side given as `(index, value)` entries.
    pub(crate) fn load_sparse(&mut self, entries: &[(usize, f64)], m: usize) {
        self.ensure(m);
        self.rhs_pattern.clear();
        self.bump_row_epoch();
        for &(i, a) in entries {
            if a == 0.0 {
                continue;
            }
            if !self.row_marked(i) {
                self.mark_row_on(i);
                self.rhs_pattern.push(i);
            }
            self.rhs[i] += a;
        }
        self.rhs_sparse = true;
    }

    /// Loads the unit right-hand side `e_p`.
    pub(crate) fn load_unit(&mut self, p: usize, m: usize) {
        self.ensure(m);
        self.rhs[p] = 1.0;
        self.rhs_pattern.clear();
        self.rhs_pattern.push(p);
        self.rhs_sparse = true;
    }

    /// Kernel prologue: clears the previous solution's support and
    /// resets the per-solve scratch.  Kernels call this exactly once.
    fn begin(&mut self, m: usize) {
        self.ensure(m);
        if self.sparse {
            for idx in 0..self.pattern.len() {
                let i = self.pattern[idx];
                self.sol[i] = 0.0;
            }
        } else {
            self.sol[..self.dim].fill(0.0);
        }
        self.pattern.clear();
        self.sparse = true;
        self.touched.clear();
        self.heap.clear();
        self.dim = m;
        self.bump_row_epoch();
        self.bump_pos_epoch();
    }

    fn bump_row_epoch(&mut self) {
        if self.epoch_row == u32::MAX {
            self.mark_row.fill(0);
            self.epoch_row = 0;
        }
        self.epoch_row += 1;
    }

    fn bump_pos_epoch(&mut self) {
        if self.epoch_pos == u32::MAX {
            self.mark_pos.fill(0);
            self.epoch_pos = 0;
        }
        self.epoch_pos += 1;
    }

    fn row_marked(&self, i: usize) -> bool {
        self.mark_row[i] == self.epoch_row
    }

    fn mark_row_on(&mut self, i: usize) {
        self.mark_row[i] = self.epoch_row;
    }

    fn pos_marked(&self, i: usize) -> bool {
        self.mark_pos[i] == self.epoch_pos
    }

    fn mark_pos_on(&mut self, i: usize) {
        self.mark_pos[i] = self.epoch_pos;
    }

    /// Kernel epilogue for the RHS: restores the all-zero invariant,
    /// either via the touched list or an O(m) fill after a dense stage.
    fn consume_rhs(&mut self, dense: bool) {
        if dense {
            self.rhs[..self.dim].fill(0.0);
        } else {
            for idx in 0..self.rhs_pattern.len() {
                let i = self.rhs_pattern[idx];
                self.rhs[i] = 0.0;
            }
            for idx in 0..self.touched.len() {
                let i = self.touched[idx];
                self.rhs[i] = 0.0;
            }
        }
        self.rhs_pattern.clear();
        self.rhs_sparse = false;
    }

    /// Copies the solution out as a dense `Vec`.
    #[cfg(test)]
    pub(crate) fn sol_vec(&self) -> Vec<f64> {
        self.sol[..self.dim].to_vec()
    }

    /// Copies the solution into a caller-owned buffer (no allocation once
    /// the buffer has reached the solve dimension).
    pub(crate) fn copy_sol_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.sol[..self.dim]);
    }

    /// The lifetime solve counters `(hyper_ftrans, hyper_btrans,
    /// dense_fallbacks, kernel_allocs)` — monotone; per-solve deltas are the
    /// caller's business (see `SimplexCore::snapshot_stats`).
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.hyper_ftrans,
            self.hyper_btrans,
            self.dense_fallbacks,
            self.kernel_allocs,
        )
    }
}

/// One Forrest–Tomlin row eta: the elimination of the pending row recorded
/// as `row[target] ← row[target] − Σ mult·row[src]`.  Solves apply the same
/// combination to the right-hand side (`v[target] -= Σ mult·v[src]` in
/// ftran, the transpose in btran).
#[derive(Debug, Clone)]
struct RowEta {
    /// Constraint row the pending step pivots on.
    target: usize,
    /// This eta's `(source constraint row, multiplier)` pairs are
    /// `eta_terms[start..end]` of the owning [`LuFactor`]; all sources are
    /// unchanged by this update (so the combination may be applied as one
    /// batch).
    start: usize,
    end: usize,
}

/// Reusable buffers of a Forrest–Tomlin [`update`](LuFactor::update),
/// sized with the factors so an update allocates nothing.  Every buffer is
/// all-zero / all-false / empty between updates.
#[derive(Clone, Default)]
struct UpdateWs {
    /// The spike `U·d` by constraint row.
    spike: Vec<f64>,
    /// Steps whose spike entry may be nonzero (reachable from `d`'s
    /// support), flagged in `step_seen`.
    steps: Vec<usize>,
    step_seen: Vec<bool>,
    /// The pending row's entries by basis position: value, whether the
    /// entry is present, and whether the position is already queued.
    pend: Vec<f64>,
    pend_live: Vec<bool>,
    pend_queued: Vec<bool>,
    /// Positions whose `pend*` slots the current update wrote.
    pend_touched: Vec<usize>,
    /// Pending positions, popped in increasing `order_pos` (see
    /// [`heap_push`]).
    heap: Vec<(usize, usize)>,
}

impl UpdateWs {
    /// Sizes the dense buffers for dimension `m` (a no-op once they are).
    fn ensure(&mut self, m: usize) {
        if self.spike.len() < m {
            self.spike.resize(m, 0.0);
            self.step_seen.resize(m, false);
            self.pend.resize(m, 0.0);
            self.pend_live.resize(m, false);
            self.pend_queued.resize(m, false);
        }
    }

    /// Marks step `t` as reachable.
    fn reach(&mut self, t: usize) {
        if !self.step_seen[t] {
            self.step_seen[t] = true;
            self.steps.push(t);
        }
    }

    /// Restores the all-zero spike and the empty step set.
    fn clear_spike(&mut self, pivot_row: &[usize]) {
        for &t in &self.steps {
            self.spike[pivot_row[t]] = 0.0;
            self.step_seen[t] = false;
        }
        self.steps.clear();
    }

    /// Restores the empty pending row.
    fn clear_pending(&mut self) {
        for &j in &self.pend_touched {
            self.pend[j] = 0.0;
            self.pend_live[j] = false;
            self.pend_queued[j] = false;
        }
        self.pend_touched.clear();
        self.heap.clear();
    }

    /// Adds position `j` to the pending row at value 0 (re-adding a dropped
    /// entry restarts it from 0, as a fresh entry would).
    fn open_pending(&mut self, j: usize, order_key: usize) {
        if !self.pend_live[j] {
            self.pend_live[j] = true;
            self.pend[j] = 0.0;
            if !self.pend_queued[j] {
                self.pend_queued[j] = true;
                self.pend_touched.push(j);
                heap_push(&mut self.heap, (usize::MAX - order_key, j));
            }
        }
    }
}

/// Scratch is not factor state: it prints as a marker only.
impl std::fmt::Debug for UpdateWs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateWs").finish_non_exhaustive()
    }
}

/// Markowitz-ordered sparse LU with Forrest–Tomlin updates (see the
/// [module docs](self)).
///
/// The elimination is stored in "elimination form": step `t` pivots on
/// constraint row `pivot_row[t]` and basis position `pivot_col[t]`, with the
/// step's L multipliers (`lower[t]`, by row) and the pivot row's surviving U
/// entries (`upper[t]`, by basis position, pivot excluded) kept sparse.
///
/// The **L part is immutable** between refactorizations and is always
/// applied in original step order.  The **U part is mutable**: a
/// Forrest–Tomlin [`update`](LuFactor::update) replaces one column of
/// `U` in place and moves its step to the end of [`order`](Self::order),
/// appending one [`RowEta`] that keeps `U` triangular *with respect to that
/// order*.  The factored operator is therefore
/// `B⁻¹ = U⁻¹ · R_K···R_1 · L⁻¹` with `R_i` the row etas in creation order.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactor {
    m: usize,
    pivot_row: Vec<usize>,
    pivot_col: Vec<usize>,
    upivot: Vec<f64>,
    lower: Vec<Vec<(usize, f64)>>,
    upper: Vec<Vec<(usize, f64)>>,
    /// Step indices in current elimination order (updates move steps to the
    /// end; `0..m` after a refactorization).
    order: Vec<usize>,
    /// Inverse of `order`: step index → position in `order`.
    order_pos: Vec<usize>,
    /// Basis position → step index (inverse of `pivot_col`).
    col_step: Vec<usize>,
    /// Constraint row → step index (inverse of `pivot_row`), for seeding
    /// the hyper-sparse worklists from an RHS support.
    row_step: Vec<usize>,
    /// Row → steps whose `lower` list touches that row (Lᵀ adjacency for
    /// the hyper-sparse btran).  L is immutable between refactorizations,
    /// so this is exact.
    ltrans: Vec<Vec<usize>>,
    /// Basis position → steps whose `upper` list carries an entry at that
    /// position (Uᵀ adjacency for the hyper-sparse ftran).  Maintained
    /// through Forrest–Tomlin updates as a **superset** — stale steps are
    /// sound because the numeric phase reads exact values — and rebuilt
    /// exactly at each refactorization.
    utrans: Vec<Vec<usize>>,
    /// Forrest–Tomlin row etas, in creation order.
    row_etas: Vec<RowEta>,
    /// Arena holding every row eta's terms, in creation order.
    eta_terms: Vec<(usize, f64)>,
    /// Buffers of [`update`](Self::update).
    scratch: UpdateWs,
    /// Lifetime count of `U` entries retired by updates (see
    /// [`LuFactor::compactions`]).
    compactions: usize,
}

/// Vectors indexed "by row" run over constraint rows; vectors indexed "by
/// position" run over basis positions `0..m` (position `k` holds basic
/// column `basis[k]`).  Every operation is deterministic — the same call
/// sequence yields bitwise-identical results (a backend contract
/// obligation).
impl LuFactor {
    /// Solves `B·x = b` **in place**: the caller loads `b` by row into
    /// `ws` via [`KernelWs::load_dense`]/[`load_sparse`](KernelWs::load_sparse),
    /// and on return `ws.sol` holds `x` by basis position, with
    /// `ws.pattern` listing a superset of its nonzeros when `ws.sparse`.
    /// The RHS is consumed (`ws.rhs` returns to all-zero).  This is the
    /// hot-path kernel: it must not allocate once `ws` is sized.
    pub(crate) fn ftran_ws(&self, ws: &mut KernelWs) {
        let m = self.m;
        ws.begin(m);
        let attempt = ws.rhs_sparse
            && !ws.force_dense
            && m >= HYPER_MIN_DIM
            && ws.rhs_pattern.len() <= hyper_seed_cap(m);
        let live_cap = hyper_live_cap(m);

        // --- L stage + row etas on v = ws.rhs (row-indexed) ---
        // Gilbert–Peierls: steps reachable from the RHS support, popped in
        // increasing step order (pushes are monotone: applying step t only
        // fills rows pivoting later), with a dense-scan fallback once the
        // live support crosses the density threshold.
        let mut v_dense = !attempt;
        if attempt {
            for idx in 0..ws.rhs_pattern.len() {
                let r = ws.rhs_pattern[idx];
                if !ws.row_marked(r) {
                    ws.mark_row_on(r);
                    ws.touched.push(r);
                    let t = self.row_step[r];
                    heap_push(&mut ws.heap, (usize::MAX - t, t));
                }
            }
            while let Some((_, t)) = heap_pop(&mut ws.heap) {
                if ws.touched.len() > live_cap {
                    // Steps < t are all applied; finish with the scan.
                    for tt in t..m {
                        let vr = ws.rhs[self.pivot_row[tt]];
                        if vr != 0.0 {
                            for &(i, l) in &self.lower[tt] {
                                ws.rhs[i] -= l * vr;
                            }
                        }
                    }
                    v_dense = true;
                    break;
                }
                let vr = ws.rhs[self.pivot_row[t]];
                if vr != 0.0 {
                    for &(i, l) in &self.lower[t] {
                        ws.rhs[i] -= l * vr;
                        if !ws.row_marked(i) {
                            ws.mark_row_on(i);
                            ws.touched.push(i);
                            let ti = self.row_step[i];
                            heap_push(&mut ws.heap, (usize::MAX - ti, ti));
                        }
                    }
                }
            }
        } else {
            for t in 0..m {
                let vr = ws.rhs[self.pivot_row[t]];
                if vr != 0.0 {
                    for &(i, l) in &self.lower[t] {
                        ws.rhs[i] -= l * vr;
                    }
                }
            }
        }
        // Forrest–Tomlin row etas in creation order; on the sparse path an
        // eta whose target and sources are all outside the support is a
        // no-op and newly filled targets join the support.
        for eta in &self.row_etas {
            let mut s = ws.rhs[eta.target];
            let mut live = s != 0.0;
            for &(src, mult) in &self.eta_terms[eta.start..eta.end] {
                let vs = ws.rhs[src];
                if vs != 0.0 {
                    live = true;
                    s -= mult * vs;
                }
            }
            if live {
                ws.rhs[eta.target] = s;
                if !v_dense && !ws.row_marked(eta.target) {
                    ws.mark_row_on(eta.target);
                    ws.touched.push(eta.target);
                }
            }
        }

        // --- U back substitution into x = ws.sol (position-indexed) ---
        // Hyper path: steps popped in decreasing `order` position (every
        // dependency of a step sits later in the order, so it pops first);
        // propagation follows `utrans`, whose stale entries are harmless.
        let mut u_hyper = !v_dense && ws.touched.len() <= live_cap;
        if u_hyper {
            ws.bump_pos_epoch();
            ws.heap.clear();
            for idx in 0..ws.touched.len() {
                let r = ws.touched[idx];
                if ws.rhs[r] != 0.0 {
                    let t = self.row_step[r];
                    if !ws.pos_marked(t) {
                        ws.mark_pos_on(t);
                        heap_push(&mut ws.heap, (self.order_pos[t], t));
                    }
                }
            }
            while let Some((pos, t)) = heap_pop(&mut ws.heap) {
                if ws.pattern.len() > live_cap {
                    // Steps at positions > pos are done; scan the rest.
                    for posi in (0..=pos).rev() {
                        let tt = self.order[posi];
                        let mut s = ws.rhs[self.pivot_row[tt]];
                        for &(j, u) in &self.upper[tt] {
                            s -= u * ws.sol[j];
                        }
                        ws.sol[self.pivot_col[tt]] = s / self.upivot[tt];
                    }
                    u_hyper = false;
                    break;
                }
                let mut s = ws.rhs[self.pivot_row[t]];
                for &(j, u) in &self.upper[t] {
                    s -= u * ws.sol[j];
                }
                let x = s / self.upivot[t];
                let j0 = self.pivot_col[t];
                ws.sol[j0] = x;
                ws.pattern.push(j0);
                if x != 0.0 {
                    for &t2 in &self.utrans[j0] {
                        if self.order_pos[t2] < pos && !ws.pos_marked(t2) {
                            ws.mark_pos_on(t2);
                            heap_push(&mut ws.heap, (self.order_pos[t2], t2));
                        }
                    }
                }
            }
        } else {
            for &t in self.order.iter().rev() {
                let mut s = ws.rhs[self.pivot_row[t]];
                for &(j, u) in &self.upper[t] {
                    s -= u * ws.sol[j];
                }
                ws.sol[self.pivot_col[t]] = s / self.upivot[t];
            }
        }
        ws.sparse = u_hyper;
        if u_hyper {
            ws.hyper_ftrans += 1;
        } else {
            ws.dense_fallbacks += 1;
        }
        ws.consume_rhs(v_dense);
    }

    /// Solves `Bᵀ·y = c` **in place**: `c` by basis position loaded into
    /// `ws`, `y` by row in `ws.sol` on return (same contract as
    /// [`ftran_ws`](Self::ftran_ws)).
    pub(crate) fn btran_ws(&self, ws: &mut KernelWs) {
        let m = self.m;
        ws.begin(m);
        let attempt = ws.rhs_sparse
            && !ws.force_dense
            && m >= HYPER_MIN_DIM
            && ws.rhs_pattern.len() <= hyper_seed_cap(m);
        let live_cap = hyper_live_cap(m);
        let mut hyper = attempt;

        // --- Uᵀ stage: v = ws.rhs (position-indexed), w = ws.sol (rows).
        // Forward over `order`; hyper path pops steps in increasing order
        // position (fill-in from `upper` lands at strictly later
        // positions, so pushes stay monotone).  `upper` is exact, so no
        // staleness care is needed here.
        if hyper {
            for idx in 0..ws.rhs_pattern.len() {
                let j = ws.rhs_pattern[idx];
                if !ws.pos_marked(j) {
                    ws.mark_pos_on(j);
                    ws.touched.push(j);
                    let t = self.col_step[j];
                    heap_push(&mut ws.heap, (usize::MAX - self.order_pos[t], t));
                }
            }
            while let Some((key, t)) = heap_pop(&mut ws.heap) {
                if ws.pattern.len() > live_cap {
                    // Positions before this one are done; scan the rest.
                    let pos = usize::MAX - key;
                    for posi in pos..m {
                        let tt = self.order[posi];
                        let wt = ws.rhs[self.pivot_col[tt]] / self.upivot[tt];
                        ws.sol[self.pivot_row[tt]] = wt;
                        if wt != 0.0 {
                            for &(j, u) in &self.upper[tt] {
                                ws.rhs[j] -= u * wt;
                            }
                        }
                    }
                    hyper = false;
                    break;
                }
                let wt = ws.rhs[self.pivot_col[t]] / self.upivot[t];
                if wt != 0.0 {
                    let r = self.pivot_row[t];
                    ws.sol[r] = wt;
                    ws.mark_row_on(r);
                    ws.pattern.push(r);
                    for &(j, u) in &self.upper[t] {
                        ws.rhs[j] -= u * wt;
                        if !ws.pos_marked(j) {
                            ws.mark_pos_on(j);
                            ws.touched.push(j);
                            let t2 = self.col_step[j];
                            heap_push(&mut ws.heap, (usize::MAX - self.order_pos[t2], t2));
                        }
                    }
                }
            }
        } else {
            for &t in self.order.iter() {
                let wt = ws.rhs[self.pivot_col[t]] / self.upivot[t];
                ws.sol[self.pivot_row[t]] = wt;
                if wt != 0.0 {
                    for &(j, u) in &self.upper[t] {
                        ws.rhs[j] -= u * wt;
                    }
                }
            }
        }
        ws.consume_rhs(!attempt || !hyper);

        // --- Transposed row etas, newest first: O(1) skip on a zero
        // target; fill joins the tracked support on the hyper path.
        for eta in self.row_etas.iter().rev() {
            let wt = ws.sol[eta.target];
            if wt != 0.0 {
                for &(src, mult) in &self.eta_terms[eta.start..eta.end] {
                    ws.sol[src] -= mult * wt;
                    if hyper && !ws.row_marked(src) {
                        ws.mark_row_on(src);
                        ws.pattern.push(src);
                    }
                }
            }
        }

        // --- Lᵀ stage on w = ws.sol.  A step finalizes only its own
        // pivot row; readers of a nonzero row are its `ltrans` steps, all
        // strictly earlier, so a max-first pop order is monotone.  Rows
        // outside the worklist keep their (already final) values.
        if hyper {
            ws.bump_pos_epoch();
            ws.heap.clear();
            for idx in 0..ws.pattern.len() {
                let r = ws.pattern[idx];
                for &t in &self.ltrans[r] {
                    if !ws.pos_marked(t) {
                        ws.mark_pos_on(t);
                        heap_push(&mut ws.heap, (t, t));
                    }
                }
            }
            let mut processed = 0usize;
            while let Some((_, t)) = heap_pop(&mut ws.heap) {
                processed += 1;
                if processed + ws.pattern.len() > 2 * live_cap {
                    // Steps > t are done; finish with the dense scan.
                    for tt in (0..=t).rev() {
                        let mut s = ws.sol[self.pivot_row[tt]];
                        for &(i, l) in &self.lower[tt] {
                            s -= l * ws.sol[i];
                        }
                        ws.sol[self.pivot_row[tt]] = s;
                    }
                    hyper = false;
                    break;
                }
                let r = self.pivot_row[t];
                let mut s = ws.sol[r];
                for &(i, l) in &self.lower[t] {
                    s -= l * ws.sol[i];
                }
                ws.sol[r] = s;
                if s != 0.0 && !ws.row_marked(r) {
                    ws.mark_row_on(r);
                    ws.pattern.push(r);
                    for &t2 in &self.ltrans[r] {
                        if !ws.pos_marked(t2) {
                            ws.mark_pos_on(t2);
                            heap_push(&mut ws.heap, (t2, t2));
                        }
                    }
                }
            }
        } else {
            for t in (0..m).rev() {
                let mut s = ws.sol[self.pivot_row[t]];
                for &(i, l) in &self.lower[t] {
                    s -= l * ws.sol[i];
                }
                ws.sol[self.pivot_row[t]] = s;
            }
        }
        ws.sparse = hyper;
        if hyper {
            ws.hyper_btrans += 1;
        } else {
            ws.dense_fallbacks += 1;
        }
    }

    /// Row `p` of `B⁻¹` (row-indexed) into `ws.sol` — needed once per
    /// pivot for the devex weight and dual-price updates: solves
    /// `Bᵀy = e_p`.
    pub(crate) fn inverse_row_ws(&self, p: usize, ws: &mut KernelWs) {
        ws.load_unit(p, self.m);
        self.btran_ws(ws);
    }

    /// Replaces the basic column at position `p`; `d = B⁻¹A_q` is the
    /// ftran'd entering column.  On `Err` the factorization is unchanged
    /// and the caller must refactorize before the next solve.  Beyond one
    /// scan of `d`, work is proportional to the nonzeros the update
    /// touches, and every buffer lives in the factor, so an update
    /// allocates nothing.
    pub(crate) fn update(&mut self, p: usize, d: &[f64]) -> Result<(), FactorError> {
        let dp = d[p];
        if dp.abs() < PIVOT_EPS || !dp.is_finite() {
            return Err(FactorError::UnstablePivot);
        }
        if self.row_etas.len() >= ETA_CAP {
            return Err(FactorError::NeedsRefactorization);
        }
        let m = self.m;
        let t_p = self.col_step[p];
        let r_p = self.pivot_row[t_p];
        let pos_p = self.order_pos[t_p];
        let ws = &mut self.scratch;
        ws.ensure(m);

        // Spike v = U·d by constraint row.  Since d = B⁻¹a_q and
        // B = L·R⁻¹·U, this equals R·L⁻¹·a_q — exactly the column that
        // must replace column `p` of U for the invariant to keep holding.
        // Step t reads d at `pivot_col[t]` and at its `upper` positions, so
        // only the steps `col_step[j]` and `utrans[j]` of a nonzero d[j] can
        // be nonzero; each is summed in the dense pass's term order, and
        // every other entry of the dense U·d is an exact zero (dropped to
        // +0), so the spike is bit-identical to the dense product.
        for (j, &dj) in d.iter().enumerate() {
            if dj != 0.0 {
                ws.reach(self.col_step[j]);
                for &t in &self.utrans[j] {
                    ws.reach(t);
                }
            }
        }
        let mut spike_max = 0.0f64;
        for &t in &ws.steps {
            let mut s = self.upivot[t] * d[self.pivot_col[t]];
            for &(j, u) in &self.upper[t] {
                s += u * d[j];
            }
            if s.abs() <= DROP_TOL {
                s = 0.0;
            }
            ws.spike[self.pivot_row[t]] = s;
            spike_max = spike_max.max(s.abs());
        }

        // With column `p` replaced and step `t_p` moved to the end of the
        // elimination order, only the old row of step `t_p` breaks
        // triangularity: its surviving entries now sit below the diagonal.
        // Dry-run its elimination (nothing mutated yet but the eta arena's
        // tail, so any decline leaves the factorization untouched),
        // visiting the pending positions in elimination order off a heap:
        // fill from step s lands strictly later in the order, so the pops
        // are monotone and match a scan of `pos_p+1..m`.
        let terms_start = self.eta_terms.len();
        for &(j, u) in &self.upper[t_p] {
            if j != p {
                ws.open_pending(j, self.order_pos[self.col_step[j]]);
                ws.pend[j] = u;
            }
        }
        let mut pend_p = ws.spike[r_p];
        let mut verdict = Ok(());
        while let Some((_, j)) = heap_pop(&mut ws.heap) {
            if !ws.pend_live[j] {
                continue; // dropped as a cancellation
            }
            ws.pend_live[j] = false;
            let u = ws.pend[j];
            if u.abs() <= DROP_TOL {
                continue;
            }
            let s = self.col_step[j];
            debug_assert!(self.order_pos[s] > pos_p, "U lost triangularity");
            let mult = u / self.upivot[s];
            self.eta_terms.push((self.pivot_row[s], mult));
            if self.eta_terms.len() - terms_start > FT_FILL_CAP {
                verdict = Err(FactorError::NeedsRefactorization);
                break;
            }
            for &(j2, u2) in &self.upper[s] {
                if j2 == p {
                    continue;
                }
                ws.open_pending(j2, self.order_pos[self.col_step[j2]]);
                ws.pend[j2] -= mult * u2;
                if ws.pend[j2].abs() <= DROP_TOL {
                    ws.pend_live[j2] = false;
                }
            }
            // Row `pivot_row[s]`'s entry in the replaced column is the
            // spike value, kept out of the pending row and tracked
            // separately.
            pend_p -= mult * ws.spike[self.pivot_row[s]];
        }
        ws.clear_pending();
        let new_diag = pend_p;
        if verdict.is_ok()
            && (new_diag.abs() < FT_STAB_TOL * spike_max || new_diag.abs() < SINGULAR_TOL)
        {
            verdict = Err(FactorError::UnstablePivot);
        }
        if verdict.is_err() {
            self.eta_terms.truncate(terms_start);
            ws.clear_spike(&self.pivot_row);
            return verdict;
        }

        // Commit.  Replace column `p` of U with the spike (retired entries
        // are the growth a product-form eta file would have kept): the old
        // entries sit on steps of `utrans[p]` (a superset), the new ones on
        // the spike's steps, pushed in ascending step order so `utrans[p]`
        // is rebuilt exactly; removals elsewhere leave stale `utrans`
        // entries, which the hyper-sparse solves tolerate as a superset.
        for &t in &self.utrans[p] {
            let row = &mut self.upper[t];
            if let Some(idx) = row.iter().position(|&(j, _)| j == p) {
                row.swap_remove(idx);
                self.compactions += 1;
            }
        }
        self.utrans[p].clear();
        ws.steps.sort_unstable();
        for &t in &ws.steps {
            let sv = ws.spike[self.pivot_row[t]];
            if t != t_p && sv != 0.0 {
                self.upper[t].push((p, sv));
                self.utrans[p].push(t);
            }
        }
        ws.clear_spike(&self.pivot_row);
        // ...retire the eliminated row, move its step to the end of the
        // elimination order, and record the row eta for solves.
        self.compactions += self.upper[t_p].len();
        self.upper[t_p].clear();
        self.upivot[t_p] = new_diag;
        self.order.remove(pos_p);
        self.order.push(t_p);
        for (pos, &t) in self.order.iter().enumerate().skip(pos_p) {
            self.order_pos[t] = pos;
        }
        if self.eta_terms.len() > terms_start {
            self.row_etas.push(RowEta {
                target: r_p,
                start: terms_start,
                end: self.eta_terms.len(),
            });
        }
        Ok(())
    }

    /// Resets to the factorization of the identity basis — exactly what
    /// [`refactorize`](Self::refactorize) builds for `B = I` (step `t`
    /// pivots on row and position `t`, no L or U entries) without the
    /// Markowitz working set.  The core's from-scratch initial basis is
    /// always the identity.
    pub(crate) fn set_identity(&mut self, m: usize) {
        self.m = m;
        for v in [
            &mut self.pivot_row,
            &mut self.pivot_col,
            &mut self.order,
            &mut self.order_pos,
            &mut self.col_step,
            &mut self.row_step,
        ] {
            v.clear();
            v.extend(0..m);
        }
        self.upivot.clear();
        self.upivot.resize(m, 1.0);
        for v in [&mut self.lower, &mut self.upper] {
            v.clear();
            v.resize_with(m, Vec::new);
        }
        for v in [&mut self.ltrans, &mut self.utrans] {
            v.clear();
            v.resize_with(m, Vec::new);
        }
        self.row_etas.clear();
        self.eta_terms.clear();
        self.scratch.ensure(m);
    }

    /// Rebuilds from the pristine basis columns; returns `false` (leaving
    /// the previous factorization in place) when the basis is numerically
    /// singular.  Pivots come from [`PivotSearch`], which picks exactly the
    /// pivot a full Markowitz scan of the active columns would.
    pub(crate) fn refactorize(&mut self, m: usize, basis: &[usize], cols: &ColumnStore) -> bool {
        // Active working matrix: columns as `(row, value)` lists sorted by
        // row, and a sorted row → columns index, so both Markowitz counts
        // are maintainable and every iteration order — and with it the
        // pivot sequence — is deterministic.
        let mut col: Vec<WorkCol> = vec![Vec::new(); m];
        let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (k, &c) in basis.iter().enumerate() {
            let entries = &mut col[k];
            cols.for_each(c, &mut |r, a| {
                if a != 0.0 {
                    entries.push((r, a));
                }
            });
            // Duplicate rows sum in input order (a stable sort).
            entries.sort_by_key(|&(r, _)| r);
            entries.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
            for &(r, _) in entries.iter() {
                row_cols[r].push(k);
            }
        }
        let mut search = PivotSearch::new(&col);
        let mut pivot_row = Vec::with_capacity(m);
        let mut pivot_col = Vec::with_capacity(m);
        let mut upivot = Vec::with_capacity(m);
        let mut lower: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut upper: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut merged: WorkCol = Vec::new();

        for _step in 0..m {
            let Some((pr, pk)) = search.next_pivot(&col, &row_cols) else {
                return false; // structurally or numerically singular
            };
            let pivot = entry(&col[pk], pr);
            // Snapshot the pivot row (U) and pivot column (L multipliers).
            let urow: Vec<(usize, f64)> = row_cols[pr]
                .iter()
                .filter(|&&j| j != pk)
                .map(|&j| (j, entry(&col[j], pr)))
                .collect();
            let lcol: Vec<(usize, f64)> = col[pk]
                .iter()
                .filter(|&&(i, _)| i != pr)
                .map(|&(i, v)| (i, v / pivot))
                .collect();
            // Eliminate: col_j ← col_j − (a_rj / pivot-scaled) updates.
            for &(j, urj) in &urow {
                eliminate(&col[j], j, pr, urj, &lcol, &mut merged, &mut row_cols);
                std::mem::swap(&mut col[j], &mut merged);
            }
            // Deactivate the pivot row and column.
            for &(i, _) in &col[pk] {
                remove_sorted(&mut row_cols[i], pk);
            }
            col[pk].clear();
            row_cols[pr].clear();
            search.eliminated(pk, &urow, &lcol, &col, &row_cols);
            pivot_row.push(pr);
            pivot_col.push(pk);
            upivot.push(pivot);
            lower.push(lcol);
            upper.push(urow);
        }

        let mut col_step = vec![0usize; m];
        let mut row_step = vec![0usize; m];
        for (t, &k) in pivot_col.iter().enumerate() {
            col_step[k] = t;
        }
        for (t, &r) in pivot_row.iter().enumerate() {
            row_step[r] = t;
        }
        // Transpose adjacencies for the hyper-sparse solves: exact at
        // refactorization time (updates keep `utrans` a sound superset).
        let mut ltrans: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (t, lcol) in lower.iter().enumerate() {
            for &(i, _) in lcol {
                ltrans[i].push(t);
            }
        }
        let mut utrans: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (t, urow) in upper.iter().enumerate() {
            for &(j, _) in urow {
                utrans[j].push(t);
            }
        }
        self.m = m;
        self.pivot_row = pivot_row;
        self.pivot_col = pivot_col;
        self.upivot = upivot;
        self.lower = lower;
        self.upper = upper;
        self.order = (0..m).collect();
        self.order_pos = (0..m).collect();
        self.col_step = col_step;
        self.row_step = row_step;
        self.ltrans = ltrans;
        self.utrans = utrans;
        self.row_etas.clear();
        self.eta_terms.clear();
        self.scratch.ensure(m);
        // `compactions` is a lifetime counter and deliberately survives.
        true
    }

    /// Live row etas accumulated since the last refactorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.row_etas.len()
    }

    /// Cumulative count of `U` entries retired in place by Forrest–Tomlin
    /// column replacements over the factorization's lifetime — the growth a
    /// product-form eta file would have accumulated instead.  Monotone; the
    /// core reads deltas into [`SolveStats::eta_compactions`](crate::SolveStats).
    pub(crate) fn compactions(&self) -> usize {
        self.compactions
    }
}

/// One column of [`LuFactor::refactorize`]'s active working matrix:
/// `(constraint row, value)` entries sorted by row.
type WorkCol = Vec<(usize, f64)>;

/// The value at `row` of a working column that holds it.
fn entry(c: &WorkCol, row: usize) -> f64 {
    let idx = c
        .binary_search_by_key(&row, |&(r, _)| r)
        .expect("entry present");
    c[idx].1
}

/// Inserts `x` into a sorted list unless present.
fn insert_sorted(v: &mut Vec<usize>, x: usize) {
    if let Err(idx) = v.binary_search(&x) {
        v.insert(idx, x);
    }
}

/// Removes `x` from a sorted list if present.
fn remove_sorted(v: &mut Vec<usize>, x: usize) {
    if let Ok(idx) = v.binary_search(&x) {
        v.remove(idx);
    }
}

/// One elimination update of working column `j` (`c`) into `out`:
/// `entry(i) −= l·urj` for each `(i, l)` of `lcol` (an absent entry starts
/// at 0), an entry below [`DROP_TOL`] dropped as a cancellation, and the
/// pivot row `pr` removed; `row_cols` follows fill and cancellations.  Both
/// lists are sorted by row, so this is one merge pass.
fn eliminate(
    c: &WorkCol,
    j: usize,
    pr: usize,
    urj: f64,
    lcol: &[(usize, f64)],
    out: &mut WorkCol,
    row_cols: &mut [Vec<usize>],
) {
    out.clear();
    let mut rest = c.iter().copied().filter(|&(r, _)| r != pr).peekable();
    for &(i, l) in lcol {
        while let Some(kept) = rest.next_if(|&(r, _)| r < i) {
            out.push(kept);
        }
        let old = rest.next_if(|&(r, _)| r == i).map(|(_, v)| v);
        let e = old.unwrap_or(0.0) - l * urj;
        if e.abs() < DROP_TOL {
            if old.is_some() {
                remove_sorted(&mut row_cols[i], j);
            }
        } else {
            out.push((i, e));
            if old.is_none() {
                insert_sorted(&mut row_cols[i], j);
            }
        }
    }
    out.extend(rest);
}

/// The largest magnitude in a working column (0 when empty).
fn col_max(c: &WorkCol) -> f64 {
    c.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v.abs()))
}

/// Whether a working column makes the basis singular: empty, or every
/// entry below [`SINGULAR_TOL`].
fn col_singular(c: &WorkCol) -> bool {
    c.is_empty() || col_max(c) < SINGULAR_TOL
}

/// Whether an entry of magnitude `va` may pivot in a column whose largest
/// magnitude is `colmax` (the threshold guard).
fn eligible(va: f64, colmax: f64) -> bool {
    !(va < LU_THRESHOLD * colmax || va < SINGULAR_TOL)
}

/// Marks the end of a [`PivotSearch`] bucket list.
const NIL: usize = usize::MAX;

/// A set of column indices with a cheap minimum: the file's max-heap
/// ([`heap_push`]/[`heap_pop`]) keyed by `usize::MAX - k`, plus membership
/// flags, so a column is queued at most once.
struct ColumnQueue {
    heap: Vec<(usize, usize)>,
    queued: Vec<bool>,
}

impl ColumnQueue {
    /// The set `0..m` (ascending keys reversed form a valid max-heap).
    fn full(m: usize) -> ColumnQueue {
        ColumnQueue {
            heap: (0..m).map(|k| (usize::MAX - k, k)).collect(),
            queued: vec![true; m],
        }
    }

    fn insert(&mut self, k: usize) {
        if !self.queued[k] {
            self.queued[k] = true;
            heap_push(&mut self.heap, (usize::MAX - k, k));
        }
    }

    fn first(&self) -> Option<usize> {
        self.heap.first().map(|&(_, k)| k)
    }

    fn pop_first(&mut self) {
        if let Some((_, k)) = heap_pop(&mut self.heap) {
            self.queued[k] = false;
        }
    }
}

/// The Markowitz pivot search of [`LuFactor::refactorize`], exact and
/// incremental.
///
/// **The rule.**  Scan the active columns in ascending order.  A column is
/// *singular* if it is empty or its largest magnitude is below
/// [`SINGULAR_TOL`]; meeting one ends the factorization.  An entry is
/// *eligible* if it passes the threshold guard ([`eligible`]); its score is
/// `(rowcount−1)·(colcount−1)`.  The pivot minimizes the score, ties going
/// to the larger magnitude and then to the first entry in (column, row)
/// order, and the scan stops after the first column whose best score is 0.
///
/// **Picking the same pivot without the scan.**  Two cases cover it:
///
/// * *(a) an eligible score-0 entry exists.*  The scan stops after the
///   lowest column `k*` holding one, and its pivot is the largest-magnitude
///   score-0 entry of `k*` (first by row on ties): nothing before `k*`
///   scores 0, and nothing scores below 0.  `fill_free` holds every column
///   that may have such an entry.  A column's entry can only become a
///   score-0 candidate when the column's own entries change (an elimination
///   touched it) or when one of its rows drops to a single active column,
///   and both events re-seed the column, so the lowest column of
///   `fill_free` that survives validation is `k*`.
/// * *(b) no eligible score-0 entry exists.*  The pivot is the
///   lexicographic minimum of (score, −magnitude, column, row).  Every
///   eligible entry now has `rowcount ≥ 2`, so its score is at least
///   `colcount−1`: scanning the columns bucketed by count in increasing
///   order, a bucket whose `colcount−1` exceeds the best score so far
///   cannot hold the minimum, and the search stops there.
///
/// **Singular columns never recover.**  A score-0 pivot sits alone in its
/// row or in its column, so a case-(a) step creates no fill and only
/// removes entries; a singular column stays singular until a scan meets
/// it, which a case-(b) step or the last steps always do.  So the search
/// reports the basis singular as soon as any active column is: the verdict
/// is the scan's, and a singular verdict leaves the factors untouched.  A
/// column only turns singular when an elimination touches it, so checking
/// the touched columns keeps `singular` exact.
struct PivotSearch {
    active: Vec<bool>,
    /// Whether some active column is singular.
    singular: bool,
    /// Columns that may hold an eligible score-0 entry.
    fill_free: ColumnQueue,
    /// Active columns bucketed by entry count: doubly linked lists with
    /// heads `head[count]`.
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    count: Vec<usize>,
}

impl PivotSearch {
    /// The search state of a fresh working matrix: every column active and
    /// a score-0 candidate.
    fn new(col: &[WorkCol]) -> PivotSearch {
        let m = col.len();
        let mut search = PivotSearch {
            active: vec![true; m],
            singular: col.iter().any(col_singular),
            fill_free: ColumnQueue::full(m),
            head: vec![NIL; m + 1],
            next: vec![NIL; m],
            prev: vec![NIL; m],
            count: vec![0; m],
        };
        for (k, c) in col.iter().enumerate() {
            search.link(k, c.len());
        }
        search
    }

    fn link(&mut self, k: usize, count: usize) {
        self.count[k] = count;
        self.prev[k] = NIL;
        self.next[k] = self.head[count];
        if self.head[count] != NIL {
            self.prev[self.head[count]] = k;
        }
        self.head[count] = k;
    }

    fn unlink(&mut self, k: usize) {
        let (prev, next) = (self.prev[k], self.next[k]);
        if prev == NIL {
            self.head[self.count[k]] = next;
        } else {
            self.next[prev] = next;
        }
        if next != NIL {
            self.prev[next] = prev;
        }
    }

    /// The next pivot `(row, column)`, or `None` when the basis is
    /// singular.
    fn next_pivot(&mut self, col: &[WorkCol], row_cols: &[Vec<usize>]) -> Option<(usize, usize)> {
        if self.singular {
            return None;
        }
        // Case (a): the lowest column with an eligible score-0 entry.
        while let Some(k) = self.fill_free.first() {
            if self.active[k] {
                if let Some(r) = fill_free_entry(&col[k], row_cols) {
                    return Some((r, k));
                }
            }
            self.fill_free.pop_first();
        }
        // Case (b): the cheapest eligible entry, by count bucket.
        let mut best: Option<(usize, f64, usize, usize)> = None; // (score, |v|, k, r)
        for cc in 1..self.head.len() {
            if best.is_some_and(|(score, ..)| cc - 1 > score) {
                break;
            }
            let mut k = self.head[cc];
            while k != NIL {
                debug_assert_eq!(col[k].len(), cc, "stale count bucket");
                let colmax = col_max(&col[k]);
                for &(r, v) in &col[k] {
                    let va = v.abs();
                    if !eligible(va, colmax) {
                        continue;
                    }
                    let score = (row_cols[r].len() - 1) * (cc - 1);
                    let better = match best {
                        None => true,
                        Some((bs, bv, bk, br)) => {
                            score < bs
                                || (score == bs && (va > bv || (va == bv && (k, r) < (bk, br))))
                        }
                    };
                    if better {
                        best = Some((score, va, k, r));
                    }
                }
                k = self.next[k];
            }
        }
        best.map(|(_, _, k, r)| (r, k))
    }

    /// Records an elimination step on column `pk` whose pivot row touched
    /// the columns of `urow` and whose pivot column spanned the rows of
    /// `lcol` (the only rows whose counts changed).
    fn eliminated(
        &mut self,
        pk: usize,
        urow: &[(usize, f64)],
        lcol: &[(usize, f64)],
        col: &[WorkCol],
        row_cols: &[Vec<usize>],
    ) {
        self.active[pk] = false;
        self.unlink(pk);
        for &(j, _) in urow {
            self.unlink(j);
            self.link(j, col[j].len());
            self.fill_free.insert(j);
            self.singular |= col_singular(&col[j]);
        }
        for &(i, _) in lcol {
            if let [k] = row_cols[i][..] {
                self.fill_free.insert(k);
            }
        }
    }
}

/// The pivot row of column `c` under case (a) of [`PivotSearch`]: its
/// largest-magnitude eligible score-0 entry (first by row on ties), if
/// any.
fn fill_free_entry(c: &WorkCol, row_cols: &[Vec<usize>]) -> Option<usize> {
    let colmax = col_max(c);
    let mut best: Option<(usize, f64)> = None;
    for &(r, v) in c {
        let va = v.abs();
        if eligible(va, colmax)
            && (c.len() == 1 || row_cols[r].len() == 1)
            && best.is_none_or(|(_, bv)| va > bv)
        {
            best = Some((r, va));
        }
    }
    best.map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference factorization: the straightforward Markowitz scan
    /// (every active column rescanned at every step) and the dense
    /// Forrest–Tomlin update (an `m`-long spike over every step, a scan of
    /// every `upper` list, an ordered-map pending row), kept verbatim as
    /// the oracle the production kernels must match bit for bit.
    mod reference {
        use super::super::{
            FactorError, DROP_TOL, ETA_CAP, FT_FILL_CAP, FT_STAB_TOL, LU_THRESHOLD, PIVOT_EPS,
            SINGULAR_TOL,
        };
        use crate::core::ColumnStore;

        #[derive(Debug, Clone)]
        pub(super) struct RowEta {
            pub(super) target: usize,
            pub(super) terms: Vec<(usize, f64)>,
        }

        #[derive(Debug, Clone, Default)]
        pub(super) struct LuFactor {
            pub(super) m: usize,
            pub(super) pivot_row: Vec<usize>,
            pub(super) pivot_col: Vec<usize>,
            pub(super) upivot: Vec<f64>,
            pub(super) lower: Vec<Vec<(usize, f64)>>,
            pub(super) upper: Vec<Vec<(usize, f64)>>,
            pub(super) order: Vec<usize>,
            pub(super) order_pos: Vec<usize>,
            pub(super) col_step: Vec<usize>,
            pub(super) row_step: Vec<usize>,
            pub(super) ltrans: Vec<Vec<usize>>,
            pub(super) utrans: Vec<Vec<usize>>,
            pub(super) row_etas: Vec<RowEta>,
            pub(super) compactions: usize,
        }

        impl LuFactor {
            /// Replaces the basic column at position `p`; `d = B⁻¹A_q` is the
            /// ftran'd entering column.  On `Err` the factorization is unchanged
            /// and the caller must refactorize before the next solve.
            pub(super) fn update(&mut self, p: usize, d: &[f64]) -> Result<(), FactorError> {
                let dp = d[p];
                if dp.abs() < PIVOT_EPS || !dp.is_finite() {
                    return Err(FactorError::UnstablePivot);
                }
                if self.row_etas.len() >= ETA_CAP {
                    return Err(FactorError::NeedsRefactorization);
                }
                let m = self.m;
                let t_p = self.col_step[p];
                let r_p = self.pivot_row[t_p];
                let pos_p = self.order_pos[t_p];

                // Spike v = U·d by constraint row.  Since d = B⁻¹a_q and
                // B = L·R⁻¹·U, this equals R·L⁻¹·a_q — exactly the column that
                // must replace column `p` of U for the invariant to keep holding.
                let mut spike = vec![0.0; m];
                let mut spike_max = 0.0f64;
                for t in 0..m {
                    let mut s = self.upivot[t] * d[self.pivot_col[t]];
                    for &(j, u) in &self.upper[t] {
                        s += u * d[j];
                    }
                    if s.abs() <= DROP_TOL {
                        s = 0.0;
                    }
                    spike[self.pivot_row[t]] = s;
                    spike_max = spike_max.max(s.abs());
                }

                // With column `p` replaced and step `t_p` moved to the end of the
                // elimination order, only the old row of step `t_p` breaks
                // triangularity: its surviving entries now sit below the diagonal.
                // Dry-run its elimination (nothing mutated yet, so any decline
                // leaves the factorization untouched), accumulating the row eta.
                use std::collections::BTreeMap;
                let mut pending: BTreeMap<usize, f64> = self.upper[t_p]
                    .iter()
                    .filter(|&&(j, _)| j != p)
                    .copied()
                    .collect();
                let mut pend_p = spike[r_p];
                let mut terms: Vec<(usize, f64)> = Vec::new();
                for pos in pos_p + 1..m {
                    let s = self.order[pos];
                    let Some(u) = pending.remove(&self.pivot_col[s]) else {
                        continue;
                    };
                    if u.abs() <= DROP_TOL {
                        continue;
                    }
                    let mult = u / self.upivot[s];
                    terms.push((self.pivot_row[s], mult));
                    if terms.len() > FT_FILL_CAP {
                        return Err(FactorError::NeedsRefactorization);
                    }
                    for &(j2, u2) in &self.upper[s] {
                        if j2 == p {
                            continue;
                        }
                        let e = pending.entry(j2).or_insert(0.0);
                        *e -= mult * u2;
                        if e.abs() <= DROP_TOL {
                            pending.remove(&j2);
                        }
                    }
                    // Row `pivot_row[s]`'s entry in the replaced column is the
                    // spike value, kept out of `pending` and tracked separately.
                    pend_p -= mult * spike[self.pivot_row[s]];
                }
                debug_assert!(
                    pending.is_empty(),
                    "pending row should eliminate completely"
                );
                let new_diag = pend_p;
                if new_diag.abs() < FT_STAB_TOL * spike_max || new_diag.abs() < SINGULAR_TOL {
                    return Err(FactorError::UnstablePivot);
                }

                // Commit.  Replace column `p` of U with the spike (retired entries
                // are the growth a product-form eta file would have kept).  The
                // Uᵀ adjacency for column `p` is rebuilt exactly here; removals
                // elsewhere leave stale `utrans` entries, which the hyper-sparse
                // solves tolerate as a superset.
                self.utrans[p].clear();
                for t in 0..m {
                    if let Some(idx) = self.upper[t].iter().position(|&(j, _)| j == p) {
                        self.upper[t].swap_remove(idx);
                        self.compactions += 1;
                    }
                    if t != t_p {
                        let sv = spike[self.pivot_row[t]];
                        if sv != 0.0 {
                            self.upper[t].push((p, sv));
                            self.utrans[p].push(t);
                        }
                    }
                }
                // ...retire the eliminated row, move its step to the end of the
                // elimination order, and record the row eta for solves.
                self.compactions += self.upper[t_p].len();
                self.upper[t_p].clear();
                self.upivot[t_p] = new_diag;
                self.order.remove(pos_p);
                self.order.push(t_p);
                for (pos, &t) in self.order.iter().enumerate().skip(pos_p) {
                    self.order_pos[t] = pos;
                }
                if !terms.is_empty() {
                    self.row_etas.push(RowEta { target: r_p, terms });
                }
                Ok(())
            }

            /// Rebuilds from the pristine basis columns; returns `false` (leaving
            /// the previous factorization in place) when the basis is numerically
            /// singular.
            pub(super) fn refactorize(
                &mut self,
                m: usize,
                basis: &[usize],
                cols: &ColumnStore,
            ) -> bool {
                use std::collections::{BTreeMap, BTreeSet};

                // Active working matrix, column-major with a row→columns index so
                // both Markowitz counts are maintainable.  BTree containers keep the
                // iteration order — and with it the pivot sequence — deterministic.
                let mut col: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); m];
                let mut row_cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
                for (k, &c) in basis.iter().enumerate() {
                    cols.for_each(c, &mut |r, a| {
                        if a != 0.0 {
                            *col[k].entry(r).or_insert(0.0) += a;
                            row_cols[r].insert(k);
                        }
                    });
                }
                let mut col_active = vec![true; m];
                let mut pivot_row = Vec::with_capacity(m);
                let mut pivot_col = Vec::with_capacity(m);
                let mut upivot = Vec::with_capacity(m);
                let mut lower: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
                let mut upper: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);

                for _step in 0..m {
                    // Markowitz pivot search: minimize (rowcount−1)·(colcount−1)
                    // among entries above the stability threshold of their column.
                    let mut best: Option<(usize, usize, usize, f64)> = None; // (score, r, k, |v|)
                    for (k, active) in col_active.iter().enumerate() {
                        if !active {
                            continue;
                        }
                        let cc = col[k].len();
                        let colmax = col[k].values().fold(0.0f64, |acc, v| acc.max(v.abs()));
                        if cc == 0 || colmax < SINGULAR_TOL {
                            return false; // structurally or numerically singular
                        }
                        for (&r, &v) in &col[k] {
                            let va = v.abs();
                            if va < LU_THRESHOLD * colmax || va < SINGULAR_TOL {
                                continue;
                            }
                            let score = (row_cols[r].len() - 1) * (cc - 1);
                            let better = match best {
                                None => true,
                                Some((bs, _, _, bv)) => score < bs || (score == bs && va > bv),
                            };
                            if better {
                                best = Some((score, r, k, va));
                            }
                        }
                        if matches!(best, Some((0, ..))) {
                            break; // a fill-free pivot cannot be beaten
                        }
                    }
                    let Some((_, pr, pk, _)) = best else {
                        return false;
                    };
                    let pivot = col[pk][&pr];
                    // Snapshot the pivot row (U) and pivot column (L multipliers).
                    let urow: Vec<(usize, f64)> = row_cols[pr]
                        .iter()
                        .filter(|&&j| j != pk)
                        .map(|&j| (j, col[j][&pr]))
                        .collect();
                    let lcol: Vec<(usize, f64)> = col[pk]
                        .iter()
                        .filter(|&(&i, _)| i != pr)
                        .map(|(&i, &v)| (i, v / pivot))
                        .collect();
                    // Eliminate: col_j ← col_j − (a_rj / pivot-scaled) updates.
                    for &(j, urj) in &urow {
                        for &(i, l) in &lcol {
                            let e = col[j].entry(i).or_insert(0.0);
                            *e -= l * urj;
                            if e.abs() < DROP_TOL {
                                col[j].remove(&i);
                                row_cols[i].remove(&j);
                            } else {
                                row_cols[i].insert(j);
                            }
                        }
                        col[j].remove(&pr);
                    }
                    // Deactivate the pivot row and column.
                    for (&i, _) in col[pk].iter() {
                        row_cols[i].remove(&pk);
                    }
                    col[pk].clear();
                    row_cols[pr].clear();
                    col_active[pk] = false;
                    pivot_row.push(pr);
                    pivot_col.push(pk);
                    upivot.push(pivot);
                    lower.push(lcol);
                    upper.push(urow);
                }

                let mut col_step = vec![0usize; m];
                let mut row_step = vec![0usize; m];
                for (t, &k) in pivot_col.iter().enumerate() {
                    col_step[k] = t;
                }
                for (t, &r) in pivot_row.iter().enumerate() {
                    row_step[r] = t;
                }
                // Transpose adjacencies for the hyper-sparse solves: exact at
                // refactorization time (updates keep `utrans` a sound superset).
                let mut ltrans: Vec<Vec<usize>> = vec![Vec::new(); m];
                for (t, lcol) in lower.iter().enumerate() {
                    for &(i, _) in lcol {
                        ltrans[i].push(t);
                    }
                }
                let mut utrans: Vec<Vec<usize>> = vec![Vec::new(); m];
                for (t, urow) in upper.iter().enumerate() {
                    for &(j, _) in urow {
                        utrans[j].push(t);
                    }
                }
                self.m = m;
                self.pivot_row = pivot_row;
                self.pivot_col = pivot_col;
                self.upivot = upivot;
                self.lower = lower;
                self.upper = upper;
                self.order = (0..m).collect();
                self.order_pos = (0..m).collect();
                self.col_step = col_step;
                self.row_step = row_step;
                self.ltrans = ltrans;
                self.utrans = utrans;
                self.row_etas.clear();
                // `compactions` is a lifetime counter and deliberately survives.
                true
            }
        }
    }

    /// Requires `new` and the reference to hold bitwise-identical factors
    /// (and `new`'s update scratch to be back at rest).
    fn assert_same_factors(new: &LuFactor, old: &reference::LuFactor) {
        fn bits(lists: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, u64)>> {
            lists
                .iter()
                .map(|l| l.iter().map(|&(i, v)| (i, v.to_bits())).collect())
                .collect()
        }
        let upivot = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(new.m, old.m, "m");
        assert_eq!(new.pivot_row, old.pivot_row, "pivot_row");
        assert_eq!(new.pivot_col, old.pivot_col, "pivot_col");
        assert_eq!(upivot(&new.upivot), upivot(&old.upivot), "upivot");
        assert_eq!(bits(&new.lower), bits(&old.lower), "lower");
        assert_eq!(bits(&new.upper), bits(&old.upper), "upper");
        assert_eq!(new.order, old.order, "order");
        assert_eq!(new.order_pos, old.order_pos, "order_pos");
        assert_eq!(new.col_step, old.col_step, "col_step");
        assert_eq!(new.row_step, old.row_step, "row_step");
        assert_eq!(new.ltrans, old.ltrans, "ltrans");
        assert_eq!(new.utrans, old.utrans, "utrans");
        let new_etas: Vec<_> = new
            .row_etas
            .iter()
            .map(|e| (e.target, bits(&[new.eta_terms[e.start..e.end].to_vec()])))
            .collect();
        let old_etas: Vec<_> = old
            .row_etas
            .iter()
            .map(|e| (e.target, bits(std::slice::from_ref(&e.terms))))
            .collect();
        assert_eq!(new_etas, old_etas, "row etas");
        assert_eq!(new.compactions, old.compactions, "compactions");
        let ws = &new.scratch;
        assert!(
            ws.spike.iter().all(|&x| x == 0.0)
                && ws.pend.iter().all(|&x| x == 0.0)
                && !ws
                    .step_seen
                    .iter()
                    .chain(&ws.pend_live)
                    .chain(&ws.pend_queued)
                    .any(|&f| f)
                && ws.steps.is_empty()
                && ws.pend_touched.is_empty()
                && ws.heap.is_empty(),
            "update scratch not restored"
        );
    }

    /// Allocating conveniences over the workspace kernels, for tests.
    impl LuFactor {
        fn dim(&self) -> usize {
            self.m
        }

        fn ftran(&self, b: &[f64]) -> Vec<f64> {
            let mut ws = KernelWs::default();
            ws.load_dense(b);
            ws.ensure(self.dim());
            self.ftran_ws(&mut ws);
            ws.dim = self.dim();
            ws.sol_vec()
        }

        fn ftran_sparse(&self, entries: &[(usize, f64)]) -> Vec<f64> {
            let mut ws = KernelWs::default();
            ws.load_sparse(entries, self.dim());
            self.ftran_ws(&mut ws);
            ws.sol_vec()
        }

        fn btran(&self, c: &[f64]) -> Vec<f64> {
            let mut ws = KernelWs::default();
            ws.load_dense(c);
            ws.ensure(self.dim());
            self.btran_ws(&mut ws);
            ws.dim = self.dim();
            ws.sol_vec()
        }
    }

    /// The explicit dense basis inverse — the oracle the LU kernels are
    /// pinned against.  `inv[k][r]` is entry (basis position `k`,
    /// constraint row `r`) of `B⁻¹`; every solve is a plain `O(m²)` loop.
    #[derive(Default)]
    struct DenseInverse {
        inv: Vec<Vec<f64>>,
    }

    impl DenseInverse {
        /// Gauss–Jordan with partial pivoting on `[B | I]`; `false` when
        /// the basis is numerically singular.
        fn refactorize(&mut self, m: usize, basis: &[usize], cols: &ColumnStore) -> bool {
            let mut work = vec![vec![0.0; 2 * m]; m];
            for (i, row) in work.iter_mut().enumerate() {
                row[m + i] = 1.0;
            }
            for (k, &col) in basis.iter().enumerate() {
                cols.for_each(col, &mut |r, a| work[r][k] = a);
            }
            for k in 0..m {
                let r = (k..m)
                    .max_by(|&a, &b| work[a][k].abs().total_cmp(&work[b][k].abs()))
                    .expect("k < m");
                if work[r][k].abs() < SINGULAR_TOL {
                    return false;
                }
                work.swap(k, r);
                let pivot = work[k][k];
                for x in &mut work[k] {
                    *x /= pivot;
                }
                let pivot_row = work[k].clone();
                for (i, row) in work.iter_mut().enumerate() {
                    let factor = row[k];
                    if i != k && factor != 0.0 {
                        for (x, p) in row.iter_mut().zip(&pivot_row) {
                            *x -= factor * p;
                        }
                    }
                }
            }
            self.inv = work.into_iter().map(|row| row[m..].to_vec()).collect();
            true
        }

        fn ftran(&self, b: &[f64]) -> Vec<f64> {
            self.inv
                .iter()
                .map(|row| row.iter().zip(b).map(|(x, y)| x * y).sum())
                .collect()
        }

        fn ftran_sparse(&self, entries: &[(usize, f64)]) -> Vec<f64> {
            let mut b = vec![0.0; self.inv.len()];
            for &(r, a) in entries {
                b[r] += a;
            }
            self.ftran(&b)
        }

        fn btran(&self, c: &[f64]) -> Vec<f64> {
            let mut y = vec![0.0; self.inv.len()];
            for (row, &ck) in self.inv.iter().zip(c) {
                for (yr, x) in y.iter_mut().zip(row) {
                    *yr += ck * x;
                }
            }
            y
        }

        fn inverse_row(&self, p: usize) -> Vec<f64> {
            self.inv[p].clone()
        }

        /// The product-form rank-one update for entering direction `d` at
        /// position `p`.
        fn update(&mut self, p: usize, d: &[f64]) -> Result<(), FactorError> {
            let dp = d[p];
            if dp.abs() < PIVOT_EPS {
                return Err(FactorError::UnstablePivot);
            }
            for x in &mut self.inv[p] {
                *x /= dp;
            }
            let pivot_row = self.inv[p].clone();
            for (i, row) in self.inv.iter_mut().enumerate() {
                if i != p && d[i] != 0.0 {
                    for (x, pr) in row.iter_mut().zip(&pivot_row) {
                        *x -= d[i] * pr;
                    }
                }
            }
            Ok(())
        }
    }

    /// Builds a ColumnStore holding the columns of a small matrix given
    /// column-major.
    fn store_from(columns: &[&[(usize, f64)]]) -> ColumnStore {
        let mut cols = ColumnStore::default();
        for entries in columns {
            let j = cols.push_col();
            for &(r, v) in *entries {
                cols.push_entry(j, r, v);
            }
        }
        cols
    }

    fn assert_vec_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} != {b:?}");
        }
    }

    /// A 3×3 basis with known inverse, factored both ways: ftran/btran must
    /// agree between DenseInverse and LuFactor, before and after an update.
    #[test]
    fn lu_matches_dense_inverse_on_a_small_basis() {
        // B = [[2,0,1],[0,1,0],[1,0,1]] (columns listed column-major).
        let cols = store_from(&[
            &[(0, 2.0), (2, 1.0)],
            &[(1, 1.0)],
            &[(0, 1.0), (2, 1.0)],
            // A spare column to pivot in: A_3 = (1, 1, 0).
            &[(0, 1.0), (1, 1.0)],
        ]);
        let basis = [0usize, 1, 2];
        let mut dense = DenseInverse::default();
        let mut lu = LuFactor::default();
        assert!(dense.refactorize(3, &basis, &cols));
        assert!(lu.refactorize(3, &basis, &cols));
        assert_eq!(lu.eta_count(), 0);

        let b = [3.0, -1.0, 2.0];
        assert_vec_close(&dense.ftran(&b), &lu.ftran(&b));
        let c = [1.0, 2.0, -0.5];
        assert_vec_close(&dense.btran(&c), &lu.btran(&c));

        // Replace basis position 0 by the spare column and compare again.
        let mut a3 = vec![0.0; 3];
        cols.for_each(3, &mut |r, v| a3[r] += v);
        let d_dense = dense.ftran(&a3);
        let d_lu = lu.ftran(&a3);
        assert_vec_close(&d_dense, &d_lu);
        dense.update(0, &d_dense).unwrap();
        lu.update(0, &d_lu).unwrap();
        // A Forrest–Tomlin update keeps U compact: at most one row eta.
        assert!(lu.eta_count() <= 1);
        assert_vec_close(&dense.ftran(&b), &lu.ftran(&b));
        assert_vec_close(&dense.btran(&c), &lu.btran(&c));
    }

    /// A 5×5 circulant basis driven through a pivot sequence: after every
    /// Forrest–Tomlin update the factorization must agree with the dense
    /// inverse, and at the end with a from-scratch refactorization of the
    /// final basis.
    #[test]
    fn ft_updates_match_refactorize_from_scratch() {
        // Basis columns B_k = e_k + 0.5·e_{k+1 mod 5}; spares 5..9 mix rows.
        let cols = store_from(&[
            &[(0, 1.0), (1, 0.5)],
            &[(1, 1.0), (2, 0.5)],
            &[(2, 1.0), (3, 0.5)],
            &[(3, 1.0), (4, 0.5)],
            &[(4, 1.0), (0, 0.5)],
            &[(0, 1.0), (2, 1.0), (4, -1.0)],
            &[(1, 2.0), (3, -0.5)],
            &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)],
            &[(2, -1.0), (4, 2.0)],
        ]);
        let mut basis = vec![0usize, 1, 2, 3, 4];
        let mut dense = DenseInverse::default();
        let mut lu = LuFactor::default();
        assert!(dense.refactorize(5, &basis, &cols));
        assert!(lu.refactorize(5, &basis, &cols));

        let probes: [[f64; 5]; 2] = [[1.0, -2.0, 0.5, 3.0, -1.0], [0.0, 1.0, 0.0, -1.0, 2.0]];
        for (pos, col) in [(0usize, 5usize), (2, 6), (4, 7), (1, 8)] {
            let mut a = vec![0.0; 5];
            cols.for_each(col, &mut |r, v| a[r] += v);
            let d = lu.ftran(&a);
            assert_vec_close(&dense.ftran(&a), &d);
            dense.update(pos, &d).unwrap();
            lu.update(pos, &d).unwrap();
            basis[pos] = col;
            for probe in &probes {
                assert_vec_close(&dense.ftran(probe), &lu.ftran(probe));
                assert_vec_close(&dense.btran(probe), &lu.btran(probe));
            }
        }
        // The eta file stays far below one eta per pivot's worth of fill,
        // and the retired-entry counter has seen real compaction.
        assert!(lu.eta_count() <= 4);
        assert!(lu.compactions() > 0);

        // Refactorize a fresh factorization on the final basis: the updated
        // one must solve identically (within roundoff).
        let mut fresh = LuFactor::default();
        assert!(fresh.refactorize(5, &basis, &cols));
        assert_eq!(fresh.eta_count(), 0);
        for probe in &probes {
            assert_vec_close(&fresh.ftran(probe), &lu.ftran(probe));
            assert_vec_close(&fresh.btran(probe), &lu.btran(probe));
        }
        // Refactorizing the live factorization clears its eta file but not
        // the lifetime compaction counter.
        let before = lu.compactions();
        assert!(lu.refactorize(5, &basis, &cols));
        assert_eq!(lu.eta_count(), 0);
        assert_eq!(lu.compactions(), before);
    }

    proptest::proptest! {
        /// Random pivot sequences: a diagonally dominant basis driven through
        /// arbitrary Forrest–Tomlin updates (refactorizing whenever an update
        /// declines, exactly as the simplex core does) must agree with the
        /// dense inverse after every pivot and with a from-scratch
        /// refactorization of the final basis at the end.  The reference
        /// factorization runs side by side: every update must reach the
        /// same verdict and leave bitwise-equal factors.
        #[test]
        fn prop_ft_updates_match_refactorize_after_random_pivots(
            m in 3usize..7,
            off in proptest::collection::vec((-0.45f64..0.45, -0.45f64..0.45), 12..13),
            pivots in proptest::collection::vec((0usize..6, 0usize..12), 1..10),
        ) {
            // Base columns B_k = (2+a)·e_k + b·e_{k+1 mod m}; spare pool of
            // 12 columns with the same shape shifted, so every replacement
            // keeps the basis comfortably nonsingular.
            let mut cols = ColumnStore::default();
            for k in 0..m {
                let (a, b) = off[k % off.len()];
                let j = cols.push_col();
                cols.push_entry(j, k, 2.0 + a);
                cols.push_entry(j, (k + 1) % m, b);
            }
            for (s, &(a, b)) in off.iter().enumerate() {
                let j = cols.push_col();
                cols.push_entry(j, s % m, 2.5 + a);
                cols.push_entry(j, (s + 2) % m, 0.5 + b);
            }
            let mut basis: Vec<usize> = (0..m).collect();
            let mut dense = DenseInverse::default();
            let mut lu = LuFactor::default();
            let mut oracle = reference::LuFactor::default();
            proptest::prop_assert!(dense.refactorize(m, &basis, &cols));
            proptest::prop_assert!(lu.refactorize(m, &basis, &cols));
            proptest::prop_assert!(oracle.refactorize(m, &basis, &cols));
            assert_same_factors(&lu, &oracle);

            let probe: Vec<f64> = (0..m).map(|i| 1.0 - 0.5 * i as f64).collect();
            for &(pos, spare) in &pivots {
                let (pos, col) = (pos % m, m + spare);
                let mut a = vec![0.0; m];
                cols.for_each(col, &mut |r, v| a[r] += v);
                let d = lu.ftran(&a);
                for (x, y) in dense.ftran(&a).iter().zip(&d) {
                    proptest::prop_assert!((x - y).abs() < 1e-8);
                }
                let verdict = lu.update(pos, &d);
                proptest::prop_assert_eq!(verdict, oracle.update(pos, &d));
                assert_same_factors(&lu, &oracle);
                // Mirror the solver contract: a declined update on either
                // side refactorizes both on the *old* basis and retries the
                // pivot from pristine factors.
                if verdict.is_err() || dense.update(pos, &d).is_err() {
                    proptest::prop_assert!(dense.refactorize(m, &basis, &cols));
                    proptest::prop_assert!(lu.refactorize(m, &basis, &cols));
                    proptest::prop_assert!(oracle.refactorize(m, &basis, &cols));
                    let d = lu.ftran(&a);
                    let verdict = lu.update(pos, &d);
                    proptest::prop_assert_eq!(verdict, oracle.update(pos, &d));
                    assert_same_factors(&lu, &oracle);
                    if verdict.is_err() {
                        continue; // genuinely unstable pivot: skip it
                    }
                    dense.update(pos, &dense.ftran(&a)).unwrap();
                }
                basis[pos] = col;
                for (x, y) in dense.ftran(&probe).iter().zip(&lu.ftran(&probe)) {
                    proptest::prop_assert!((x - y).abs() < 1e-8);
                }
                for (x, y) in dense.btran(&probe).iter().zip(&lu.btran(&probe)) {
                    proptest::prop_assert!((x - y).abs() < 1e-8);
                }
            }

            let mut fresh = LuFactor::default();
            proptest::prop_assert!(fresh.refactorize(m, &basis, &cols));
            proptest::prop_assert_eq!(fresh.eta_count(), 0);
            for (x, y) in fresh.ftran(&probe).iter().zip(&lu.ftran(&probe)) {
                proptest::prop_assert!((x - y).abs() < 1e-8);
            }
            for (x, y) in fresh.btran(&probe).iter().zip(&lu.btran(&probe)) {
                proptest::prop_assert!((x - y).abs() < 1e-8);
            }
        }
    }

    /// The identity shortcut builds exactly the factors the Markowitz
    /// elimination builds for `B = I`, even over a used factorization.
    #[test]
    fn set_identity_matches_refactorize_of_the_identity() {
        let m = 5;
        let (cols, basis) = circulant(m);
        let mut reused = LuFactor::default();
        assert!(reused.refactorize(m, &basis, &cols));
        let mut a = vec![0.0; m];
        cols.for_each(m, &mut |r, v| a[r] += v);
        let d = reused.ftran(&a);
        reused.update(0, &d).unwrap();
        reused.set_identity(m);

        let mut unit = ColumnStore::default();
        for k in 0..m {
            let j = unit.push_col();
            unit.push_entry(j, k, 1.0);
        }
        let mut reference = LuFactor::default();
        assert!(reference.refactorize(m, &(0..m).collect::<Vec<_>>(), &unit));
        // Compare every field but the lifetime counter.
        reused.compactions = 0;
        assert_eq!(format!("{reused:?}"), format!("{reference:?}"));
    }

    /// A declined update must leave the factorization fully usable.
    #[test]
    fn ft_decline_leaves_factorization_intact() {
        let cols = store_from(&[
            &[(0, 1.0)],
            &[(1, 1.0)],
            // Entering column nearly parallel to the departing one: the
            // replacement pivot is ~0 and the update must decline.
            &[(0, 1e-10), (1, 1.0)],
        ]);
        let mut lu = LuFactor::default();
        assert!(lu.refactorize(2, &[0, 1], &cols));
        let mut a = vec![0.0; 2];
        cols.for_each(2, &mut |r, v| a[r] += v);
        let d = lu.ftran(&a);
        assert_eq!(lu.update(0, &d), Err(FactorError::UnstablePivot));
        // Still solves for the *old* basis.
        let b = [3.0, -4.0];
        assert_vec_close(&lu.ftran(&b), &b);
        assert_vec_close(&lu.btran(&b), &b);
        assert_eq!(lu.eta_count(), 0);
    }

    #[test]
    fn singular_bases_are_rejected_by_both() {
        // Two identical columns: singular.
        let cols = store_from(&[&[(0, 1.0), (1, 2.0)], &[(0, 1.0), (1, 2.0)]]);
        let mut dense = DenseInverse::default();
        let mut lu = LuFactor::default();
        assert!(!dense.refactorize(2, &[0, 1], &cols));
        assert!(!lu.refactorize(2, &[0, 1], &cols));
    }

    /// Builds the banded circulant basis `B_k = a·e_k + b·e_{k+1 mod m}`
    /// at a dimension large enough to engage the hyper-sparse paths.
    fn circulant(m: usize) -> (ColumnStore, Vec<usize>) {
        let mut cols = ColumnStore::default();
        for k in 0..m {
            let j = cols.push_col();
            cols.push_entry(j, k, 2.0 + 0.01 * k as f64);
            cols.push_entry(j, (k + 1) % m, 0.5 - 0.002 * k as f64);
        }
        // Spare columns 3 entries wide, to pivot in.
        for s in 0..m {
            let j = cols.push_col();
            cols.push_entry(j, s, 1.5 + 0.01 * s as f64);
            cols.push_entry(j, (s + 3) % m, -0.7);
            cols.push_entry(j, (s + 7) % m, 0.3);
        }
        (cols, (0..m).collect())
    }

    /// The hyper-sparse LU ftran/btran must agree with the dense
    /// reference kernels to 1e-9 on unit and sparse right-hand sides,
    /// before and after Forrest–Tomlin updates, and must report
    /// hyper-sparse completions with zero workspace growth after sizing.
    #[test]
    fn hyper_sparse_solves_match_dense_reference() {
        let m = 48;
        assert!(m >= HYPER_MIN_DIM);
        let (cols, mut basis) = circulant(m);
        let mut dense = DenseInverse::default();
        let mut lu = LuFactor::default();
        assert!(dense.refactorize(m, &basis, &cols));
        assert!(lu.refactorize(m, &basis, &cols));

        let mut ws = KernelWs::default();
        ws.ensure(m);
        let sized_allocs = ws.kernel_allocs;

        let check_all = |lu: &LuFactor, dense: &DenseInverse, ws: &mut KernelWs| {
            for p in [0usize, 5, m / 2, m - 1] {
                // ftran on the unit row RHS e_p.
                ws.load_unit(p, m);
                lu.ftran_ws(ws);
                let mut e = vec![0.0; m];
                e[p] = 1.0;
                assert_vec_close(&ws.sol_vec(), &dense.ftran(&e));
                if ws.sparse {
                    // Pattern superset contract: zeros outside it.
                    let mut inpat = vec![false; m];
                    for &j in &ws.pattern {
                        inpat[j] = true;
                    }
                    for (j, &x) in ws.sol[..m].iter().enumerate() {
                        assert!(inpat[j] || x == 0.0, "sol[{j}]={x} outside pattern");
                    }
                }
                // btran on e_p (inverse row).
                lu.inverse_row_ws(p, ws);
                assert_vec_close(&ws.sol_vec(), &dense.inverse_row(p));
            }
            // A 3-entry sparse RHS through both directions.
            let entries = [(1usize, 0.7), (m / 2, -1.3), (m - 2, 0.25)];
            ws.load_sparse(&entries, m);
            lu.ftran_ws(ws);
            assert_vec_close(&ws.sol_vec(), &dense.ftran_sparse(&entries));
            ws.load_sparse(&entries, m);
            lu.btran_ws(ws);
            let mut c = vec![0.0; m];
            for &(i, a) in &entries {
                c[i] += a;
            }
            assert_vec_close(&ws.sol_vec(), &dense.btran(&c));
        };

        check_all(&lu, &dense, &mut ws);
        assert!(ws.hyper_ftrans > 0, "hyper ftran path never engaged");
        assert!(ws.hyper_btrans > 0, "hyper btran path never engaged");

        // Drive a pivot sequence through both factorizations (spares are
        // wider, so updates exercise utrans maintenance + row etas).
        for (pos, spare) in [(0usize, 0usize), (11, 4), (30, 9), (m - 1, 2)] {
            let col = m + spare;
            let mut a = vec![0.0; m];
            cols.for_each(col, &mut |r, v| a[r] += v);
            let d = lu.ftran(&a);
            assert_vec_close(&dense.ftran(&a), &d);
            // Mirror the solver contract: a declined update refactorizes
            // both sides on the old basis and retries from pristine factors.
            if lu.update(pos, &d).is_err() || dense.update(pos, &d).is_err() {
                assert!(dense.refactorize(m, &basis, &cols));
                assert!(lu.refactorize(m, &basis, &cols));
                let d = lu.ftran(&a);
                if lu.update(pos, &d).is_err() {
                    continue;
                }
                dense.update(pos, &dense.ftran(&a)).unwrap();
            }
            basis[pos] = col;
        }
        check_all(&lu, &dense, &mut ws);

        // Zero-allocation contract: the workspace never grew past its
        // initial sizing across every solve above.
        assert_eq!(ws.kernel_allocs, sized_allocs);

        // And a refactorized-from-scratch LU still agrees.
        let mut fresh = LuFactor::default();
        assert!(fresh.refactorize(m, &basis, &cols));
        check_all(&fresh, &dense, &mut ws);
    }

    proptest::proptest! {
        /// Random sparse RHS + random pivot sequences at hyper-engaging
        /// dimensions: the hyper-sparse solves must match the dense
        /// inverse within 1e-9.
        #[test]
        fn prop_hyper_sparse_agrees_with_dense_reference(
            m in 20usize..40,
            rhs in proptest::collection::vec((0usize..40, -2.0f64..2.0), 1..4),
            pivots in proptest::collection::vec((0usize..40, 0usize..40), 0..6),
        ) {
            let (cols, mut basis) = circulant(m);
            let mut dense = DenseInverse::default();
            let mut lu = LuFactor::default();
            let mut oracle = reference::LuFactor::default();
            proptest::prop_assert!(dense.refactorize(m, &basis, &cols));
            proptest::prop_assert!(lu.refactorize(m, &basis, &cols));
            proptest::prop_assert!(oracle.refactorize(m, &basis, &cols));
            for &(pos, spare) in &pivots {
                let (pos, col) = (pos % m, m + spare % m);
                let mut a = vec![0.0; m];
                cols.for_each(col, &mut |r, v| a[r] += v);
                let d = lu.ftran(&a);
                let verdict = lu.update(pos, &d);
                proptest::prop_assert_eq!(verdict, oracle.update(pos, &d));
                assert_same_factors(&lu, &oracle);
                if verdict.is_err() || dense.update(pos, &d).is_err() {
                    proptest::prop_assert!(dense.refactorize(m, &basis, &cols));
                    proptest::prop_assert!(lu.refactorize(m, &basis, &cols));
                    proptest::prop_assert!(oracle.refactorize(m, &basis, &cols));
                    continue;
                }
                basis[pos] = col;
            }
            let entries: Vec<(usize, f64)> =
                rhs.iter().map(|&(r, v)| (r % m, v)).collect();
            let mut ws = KernelWs::default();
            let mut ws_dense = KernelWs {
                force_dense: true,
                ..KernelWs::default()
            };
            let mut c = vec![0.0; m];
            for &(i, a) in &entries {
                c[i] += a;
            }

            // The hyper-sparse path is pinned to the LU dense scan within
            // 1e-9 outright: same factors, same operation order, the
            // symbolic pass only skips exact zeros.
            ws.load_sparse(&entries, m);
            lu.ftran_ws(&mut ws);
            ws_dense.load_sparse(&entries, m);
            lu.ftran_ws(&mut ws_dense);
            for (&x, &y) in ws.sol_vec().iter().zip(&ws_dense.sol_vec()) {
                proptest::prop_assert!((x - y).abs() < 1e-9, "hyper ftran {x} vs scan {y}");
            }
            ws.load_sparse(&entries, m);
            lu.btran_ws(&mut ws);
            ws_dense.load_sparse(&entries, m);
            lu.btran_ws(&mut ws_dense);
            for (&x, &y) in ws.sol_vec().iter().zip(&ws_dense.sol_vec()) {
                proptest::prop_assert!((x - y).abs() < 1e-9, "hyper btran {x} vs scan {y}");
            }

            // Against scratch solves of the final basis — the conformance
            // bound: both the updated LU (either path) and the updated
            // dense inverse sit within 1e-6 of a fresh refactorization,
            // scaled by the solve's magnitude (update drift is exactly
            // what periodic refactorization exists to wash out).
            let mut fresh = LuFactor::default();
            proptest::prop_assert!(fresh.refactorize(m, &basis, &cols));
            for (label, reference) in [
                ("ftran", fresh.ftran_sparse(&entries)),
                ("btran", fresh.btran(&c)),
            ] {
                let scale = 1.0 + reference.iter().fold(0.0f64, |a, x| a.max(x.abs()));
                if label == "ftran" {
                    ws.load_sparse(&entries, m);
                    lu.ftran_ws(&mut ws);
                } else {
                    ws.load_sparse(&entries, m);
                    lu.btran_ws(&mut ws);
                }
                let other = if label == "ftran" {
                    dense.ftran_sparse(&entries)
                } else {
                    dense.btran(&c)
                };
                for ((&x, &y), &z) in ws.sol_vec().iter().zip(&reference).zip(&other) {
                    proptest::prop_assert!((x - y).abs() < 1e-6 * scale, "{label} {x} vs {y}");
                    proptest::prop_assert!((z - y).abs() < 1e-6 * scale, "{label} dense {z} vs {y}");
                }
            }
        }
    }

    /// An update allocates nothing of its own: replaying the same pivot
    /// sequence from the same refactorization reuses every update buffer
    /// and the eta arena in place (same addresses, same capacities).
    #[test]
    fn ft_updates_reuse_their_buffers() {
        let m = 48;
        let (cols, basis) = circulant(m);
        let mut lu = LuFactor::default();
        let buffers = |lu: &LuFactor| {
            let ws = &lu.scratch;
            [
                (ws.spike.as_ptr() as usize, ws.spike.capacity()),
                (ws.steps.as_ptr() as usize, ws.steps.capacity()),
                (ws.step_seen.as_ptr() as usize, ws.step_seen.capacity()),
                (ws.pend.as_ptr() as usize, ws.pend.capacity()),
                (ws.pend_live.as_ptr() as usize, ws.pend_live.capacity()),
                (ws.pend_queued.as_ptr() as usize, ws.pend_queued.capacity()),
                (
                    ws.pend_touched.as_ptr() as usize,
                    ws.pend_touched.capacity(),
                ),
                (ws.heap.as_ptr() as usize, ws.heap.capacity()),
                (lu.eta_terms.as_ptr() as usize, lu.eta_terms.capacity()),
                (lu.row_etas.as_ptr() as usize, lu.row_etas.capacity()),
            ]
        };
        let replay = |lu: &mut LuFactor| {
            assert!(lu.refactorize(m, &basis, &cols));
            let mut applied = 0;
            for spare in [0usize, 4, 9, 2, 20, 33] {
                let mut a = vec![0.0; m];
                cols.for_each(m + spare, &mut |r, v| a[r] += v);
                let d = lu.ftran(&a);
                // Leave at the direction's largest entry (a stable pivot).
                let pos = (0..m)
                    .max_by(|&x, &y| d[x].abs().total_cmp(&d[y].abs()))
                    .unwrap();
                if lu.update(pos, &d).is_ok() {
                    applied += 1;
                }
            }
            assert!(applied >= 4 && lu.eta_count() > 0, "sequence too weak");
        };
        replay(&mut lu);
        let warmed = buffers(&lu);
        replay(&mut lu);
        assert_eq!(buffers(&lu), warmed);
    }

    /// Entry values for random sparse bases: exact magnitude ties, the
    /// threshold edge (0.1 of 1.0 is eligible, 0.099 is not), and values
    /// below `SINGULAR_TOL`.
    const PALETTE: [f64; 12] = [
        1.0, -1.0, 2.0, -2.0, 0.5, 0.1, -0.1, 10.0, 0.099, 3.0, 9e-12, -5e-12,
    ];

    /// Factors `columns` (as basis `0..m`) with both implementations, each
    /// starting from the same prior factorization, and requires the same
    /// verdict and bitwise-equal factors; returns the verdict.
    fn refactorize_both(columns: &[Vec<(usize, f64)>]) -> bool {
        let m = columns.len();
        let entries: Vec<&[(usize, f64)]> = columns.iter().map(|c| &c[..]).collect();
        let cols = store_from(&entries);
        let basis: Vec<usize> = (0..m).collect();
        // A prior factorization that a singular verdict must leave alone.
        let (prior_cols, prior_basis) = circulant(m);
        let mut lu = LuFactor::default();
        let mut oracle = reference::LuFactor::default();
        assert!(lu.refactorize(m, &prior_basis, &prior_cols));
        assert!(oracle.refactorize(m, &prior_basis, &prior_cols));
        let verdict = lu.refactorize(m, &basis, &cols);
        assert_eq!(verdict, oracle.refactorize(m, &basis, &cols), "verdict");
        assert_same_factors(&lu, &oracle);
        verdict
    }

    /// Hand-made bases for each branch of the pivot search.
    #[test]
    fn refactorize_matches_reference_on_edge_bases() {
        let tiny = 5e-12; // below SINGULAR_TOL
                          // Two identical columns: singular in case (b).
        assert!(!refactorize_both(&[
            vec![(0, 1.0), (1, 2.0)],
            vec![(0, 1.0), (1, 2.0)],
        ]));
        // A below-tolerance column before the first singleton column: the
        // scan meets it before it can stop.
        assert!(!refactorize_both(&[
            vec![(0, tiny), (1, tiny)],
            vec![(0, 1.0)],
            vec![(1, 1.0), (2, 1.0)],
        ]));
        // ...and after it: the scan pivots on the singleton first and meets
        // the (unrecoverable) bad column at a later step.
        assert!(!refactorize_both(&[
            vec![(0, 1.0)],
            vec![(1, tiny), (2, tiny)],
            vec![(1, 1.0), (2, 1.0)],
        ]));
        // An empty column behind a row singleton.
        assert!(!refactorize_both(&[
            vec![(0, 1.0), (1, 1.0)],
            vec![(1, 2.0)],
            vec![],
        ]));
        // Duplicate entries cancelling to a stored exact zero.
        assert!(refactorize_both(&[
            vec![(0, 1.0), (1, 1.0), (1, -1.0)],
            vec![(1, 2.0), (0, 1.0)],
        ]));
        // Equal magnitudes everywhere: every choice is settled by the
        // score and (column, row) tie-breaks, in case (b) throughout.
        assert!(refactorize_both(&[
            vec![(0, 1.0), (1, 1.0), (3, -1.0)],
            vec![(0, -1.0), (1, 1.0), (2, 1.0)],
            vec![(1, -1.0), (2, 1.0), (3, 1.0)],
            vec![(0, 1.0), (2, -1.0), (3, 1.0)],
        ]));
        // Equal-magnitude score-0 candidates in three columns (a row
        // singleton and two column singletons): the lowest column wins.
        assert!(refactorize_both(&[
            vec![(0, 1.0), (1, 1.0)],
            vec![(1, 1.0)],
            vec![(2, -1.0)],
        ]));
        // Equal-magnitude score-0 candidates in one column (rows 1 and 2
        // meet only column 0): the first by row pivots, then the basis
        // is structurally singular.
        assert!(!refactorize_both(&[
            vec![(0, 2.0), (1, -3.0), (2, 3.0)],
            vec![(0, 1.0), (3, 1.0)],
            vec![(0, 1.0), (3, 2.0), (4, 1.0)],
            vec![(3, 1.0), (4, 1.0)],
            vec![(0, 1.0), (4, -1.0)],
        ]));
        // The identity and a banded basis.
        assert!(refactorize_both(
            &(0..6).map(|k| vec![(k, 1.0)]).collect::<Vec<_>>()
        ));
        let banded: Vec<Vec<(usize, f64)>> = (0..8)
            .map(|k| vec![(k, 2.0), ((k + 1) % 8, 1.0), ((k + 3) % 8, -1.0)])
            .collect();
        assert!(refactorize_both(&banded));
    }

    proptest::proptest! {
        /// Random sparse bases, factored by the exact bucketed search and
        /// by the reference scan: the same singular verdict and
        /// bitwise-equal `pivot_row`/`pivot_col`/`upivot`/`lower`/`upper`
        /// (and every derived array).  Each case is factored in column
        /// order and reversed, so singleton and tie positions vary.
        #[test]
        fn prop_refactorize_matches_reference_on_random_sparse_bases(
            m in 2usize..16,
            diag in proptest::collection::vec(0usize..11, 16..17),
            extra in proptest::collection::vec((0usize..16, 0usize..16, 0usize..12), 0..40),
        ) {
            // A diagonal entry (never below tolerance) for most columns
            // keeps many bases nonsingular; index 10 leaves the column
            // without one.
            let mut columns: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|k| PALETTE[..10].get(diag[k]).map(|&v| (k, v)).into_iter().collect())
                .collect();
            for &(k, r, v) in &extra {
                columns[k % m].push((r % m, PALETTE[v]));
            }
            refactorize_both(&columns);
            columns.reverse();
            refactorize_both(&columns);
        }
    }
}
