//! Benchmark-only window onto the simplex kernels.
//!
//! The `cma-bench` crate times ftran/btran/eta-apply on real solved bases
//! (reached as `central_moment_analysis::lp::bench_support`), but the
//! kernel plumbing — `SimplexCore`'s workspace and LU factors —
//! is deliberately crate-private.  This module is the narrow, *unstable*
//! bridge: hidden from docs, no API promises, nothing here is meant for
//! solver clients.
//!
//! Every kernel call reuses the fixture's buffers, so after the first call
//! the benchmark measures the kernel, not the allocator — the same
//! zero-allocation contract the solve hot loop runs under.

use crate::backend::LpSession;
use crate::core::SimplexCore;
use crate::pricing::SolverTuning;
use crate::simplex::{Cmp, LpProblem, LpStatus, LpVarId};

/// A solved simplex basis plus reusable output buffers for timing the
/// linear-algebra kernels in isolation.
pub struct KernelFixture {
    core: SimplexCore,
    /// Standard-form costs of the solved objective (btran right-hand side).
    costs: Vec<f64>,
    /// The solved objective, kept for warm re-minimizes.
    objective: Vec<(LpVarId, f64)>,
    /// Reusable kernel output buffer.
    out: Vec<f64>,
}

impl KernelFixture {
    /// Opens a core over `problem`, solves its own objective to
    /// optimality, and captures the basis.  `None` when the
    /// solve does not end `Optimal` — a fixture over a failed solve would
    /// time garbage.
    pub fn solve(problem: &LpProblem, tuning: &SolverTuning) -> Option<KernelFixture> {
        let mut core = SimplexCore::open_with(problem, tuning);
        let solution = core.minimize(problem.objective());
        if solution.status != LpStatus::Optimal {
            return None;
        }
        let costs = core.split_costs(problem.objective());
        Some(KernelFixture {
            core,
            costs,
            objective: problem.objective().to_vec(),
            out: Vec::new(),
        })
    }

    /// Basis dimension `m` (rows of the standard form).
    pub fn rows(&self) -> usize {
        self.core.kernel_rows()
    }

    /// Standard-form columns currently nonbasic — the candidate entering
    /// columns whose directions an ftran benchmark should price.
    pub fn nonbasic_cols(&self) -> Vec<usize> {
        (0..self.core.kernel_num_cols())
            .filter(|&j| !self.core.kernel_is_basic(j))
            .collect()
    }

    /// Pins every kernel call to the dense scan (`true`) or restores the
    /// hyper-sparse heuristic (`false`) — the A/B switch of the benchmark.
    pub fn force_dense(&mut self, on: bool) {
        self.core.kernel_force_dense(on);
    }

    /// Lifetime kernel counters of the session workspace:
    /// `(hyper_ftrans, hyper_btrans, dense_fallbacks, kernel_allocs)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        self.core.kernel_counters()
    }

    /// Current eta-file length of the factorization (0 right after a
    /// refactorization; grows with warm pivots under LU).
    pub fn eta_count(&self) -> usize {
        self.core.kernel_eta_count()
    }

    /// One ftran: `d = B⁻¹ A_j` for standard-form column `j`.  Returns a
    /// checksum of the direction so the call cannot be optimized away.
    pub fn ftran(&mut self, j: usize) -> f64 {
        let mut out = std::mem::take(&mut self.out);
        self.core.direction_into(j, &mut out);
        let sum: f64 = out.iter().sum();
        self.out = out;
        sum
    }

    /// [`ftran`](Self::ftran) writing the full direction into `out`
    /// (for agreement tests that compare component-wise).
    pub fn ftran_into(&mut self, j: usize, out: &mut Vec<f64>) {
        self.core.direction_into(j, out);
    }

    /// [`btran`](Self::btran) writing the full dual-price vector into `out`.
    pub fn btran_into(&mut self, out: &mut Vec<f64>) {
        let costs = std::mem::take(&mut self.costs);
        self.core.dual_prices_into(&costs, out);
        self.costs = costs;
    }

    /// [`inverse_row`](Self::inverse_row) writing the full row into `out`.
    pub fn inverse_row_into(&mut self, p: usize, out: &mut Vec<f64>) {
        self.core.inverse_row_into(p, out);
    }

    /// One btran: `y = c_Bᵀ B⁻¹` under the solved objective's costs.
    /// Returns a checksum of the dual prices.
    pub fn btran(&mut self) -> f64 {
        let mut out = std::mem::take(&mut self.out);
        let costs = std::mem::take(&mut self.costs);
        self.core.dual_prices_into(&costs, &mut out);
        let sum: f64 = out.iter().sum();
        self.costs = costs;
        self.out = out;
        sum
    }

    /// One unit-rhs btran: row `p` of `B⁻¹`.  Returns a checksum.
    pub fn inverse_row(&mut self, p: usize) -> f64 {
        let mut out = std::mem::take(&mut self.out);
        self.core.inverse_row_into(p, &mut out);
        let sum: f64 = out.iter().sum();
        self.out = out;
        sum
    }

    /// Applies up to `k` factorization updates (cycling over the nonbasic
    /// columns), so subsequent [`ftran`](Self::ftran) and
    /// [`btran`](Self::btran) calls time the *eta-apply* path — solving
    /// through the update-laden factorization (spiked U columns plus
    /// whatever row etas the eliminations produced; see
    /// [`eta_count`](Self::eta_count)).  A completed solve always ends
    /// freshly refactorized, so direct updates are the only way to pin an
    /// updated factorization still; the fixture must not be re-solved
    /// afterwards (the basis bookkeeping is left untouched).  Returns the
    /// number of updates that were applied.
    pub fn grow_etas(&mut self, k: usize) -> usize {
        let cols = self.nonbasic_cols();
        let mut applied = 0;
        for j in cols.into_iter().cycle().take(k.max(1) * 4) {
            if applied >= k {
                break;
            }
            if self.core.kernel_grow_eta(j) {
                applied += 1;
            }
        }
        applied
    }

    /// Appends a (typically violated) cut and warm re-solves the captured
    /// objective — exercising the dual warm path end to end.  Returns
    /// whether the re-solve stayed optimal.
    pub fn cut_and_resolve(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) -> bool {
        self.core.add_constraint(terms, cmp, rhs);
        let objective = std::mem::take(&mut self.objective);
        let solution = self.core.minimize(&objective);
        self.objective = objective;
        if solution.status != LpStatus::Optimal {
            return false;
        }
        // The cut added a row, so the standard form grew a slack column:
        // refresh the cost vector to the new width.
        self.costs = self.core.split_costs(&self.objective);
        true
    }
}
