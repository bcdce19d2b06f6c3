//! Pins the zero-allocation contract of the kernel hot loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! session has warmed up (first minimize sizes the kernel workspace, a
//! cutting-row re-solve may grow it once for the new row), a steady-state
//! re-minimize must report `kernel_allocs == 0` — no ftran/btran/pricing
//! buffer was grown — and stay under a pinned total-allocation budget that
//! covers only the known non-kernel allocators (the refactorization
//! rebuild, `LuFactor::update`'s per-pivot spike, solution extraction).
//!
//! This file holds exactly one `#[test]`: the allocation counter is
//! process-global and a sibling test running concurrently would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cma_lp::{Cmp, LpBackend, LpProblem, SparseBackend};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Total allocator calls a steady-state warm re-minimize may spend.  The
/// kernel layer itself contributes zero (asserted separately through
/// `kernel_allocs`); what remains is the bounded non-kernel work of one
/// minimize: the confirmation refactorization's rebuild buffers, solution
/// extraction, and stats plumbing.  Observed: 19 calls on this fixture;
/// pinned at ~6× so a real per-iteration regression (which scales with
/// pivots × rows) blows through it while incidental churn does not.
const STEADY_STATE_ALLOC_BUDGET: u64 = 128;

#[test]
fn steady_state_minimize_keeps_kernels_allocation_free() {
    // The warmsmoke chain stand-in; the solve stays on one thread.
    let mut lp = LpProblem::new();
    let vars: Vec<_> = (0..40)
        .map(|i| lp.add_var(format!("x{i}"), false))
        .collect();
    for w in vars.windows(2) {
        lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.5)], Cmp::Ge, 1.0);
    }
    lp.add_constraint(vec![(vars[0], 1.0)], Cmp::Le, 400.0);
    let objective: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();

    let mut session = SparseBackend.open(&lp);

    // Warm-up: the first minimize sizes the kernel workspace (growth is
    // expected and counted by `kernel_allocs` only before first sizing).
    let first = session.minimize(&objective);
    assert!(
        first.is_optimal(),
        "warm-up solve must be optimal: {first:?}"
    );

    // A cutting row grows the basis by one; the workspace may grow once.
    session.add_constraint(&[(vars[0], 1.0)], Cmp::Ge, first.value(vars[0]) + 5.0);
    let recut = session.minimize(&objective);
    assert!(
        recut.is_optimal(),
        "cut re-solve must be optimal: {recut:?}"
    );
    assert!(
        recut.stats.kernel_allocs <= 1,
        "cut re-solve grew the kernel workspace {} times (expected ≤ 1)",
        recut.stats.kernel_allocs
    );

    // Steady state: same shapes, warm basis — the kernel workspace must
    // not grow at all, and total allocator traffic stays pinned.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let third = session.minimize(&objective);
    let spent = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(third.is_optimal(), "steady-state solve must be optimal");
    assert_eq!(
        third.stats.kernel_allocs, 0,
        "steady-state solve grew a kernel workspace buffer"
    );
    assert!(
        spent <= STEADY_STATE_ALLOC_BUDGET,
        "steady-state minimize made {spent} allocator calls \
         (budget {STEADY_STATE_ALLOC_BUDGET})"
    );
}
