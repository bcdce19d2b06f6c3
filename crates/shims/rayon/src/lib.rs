//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to a crate registry, so this workspace
//! vendors the narrow slice of rayon's API that the parallel LP machinery
//! uses: [`join`] for two-way fork-join and [`scope`] with [`Scope::spawn`]
//! for n-way fork-join.
//!
//! Unlike the original spawn-per-scope shim, tasks now run on a **persistent
//! worker pool**: a fixed set of OS threads created on first use and shared
//! by every scope for the process lifetime.  Per-task cost drops from an OS
//! thread spawn (~10 µs) to a queue push, so fanning many small independent
//! LP solves out over `solve_batch` stays cheap.  The pool size defaults to
//! `std::thread::available_parallelism` and can be pinned with the
//! `CMA_POOL_THREADS` environment variable (read once, at first use).
//!
//! Nested scopes cannot deadlock: a thread waiting for its scope to drain
//! *help-runs* queued tasks (its own scope's or another's), so progress is
//! guaranteed even when every worker is itself blocked in a scope wait.
//! Panics inside tasks are caught, carried to the scope's owner, and
//! re-thrown when the scope ends — matching rayon's semantics closely
//! enough for fork-join use.
//!
//! [`current_num_threads`] reports the pool size.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

/// A queued unit of work.  Lifetime-erased: the scope that enqueued it is
/// guaranteed (by [`scope`]'s drain-before-return contract) to outlive it.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The global injector queue shared by the pool's workers and by scope
/// owners help-running while they wait.
struct Injector {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed.
    ready: Condvar,
}

struct Pool {
    injector: Injector,
    workers: usize,
}

/// Recovers from a poisoned mutex: the pool must stay usable after a task
/// panicked on another thread (the panic is re-thrown at the scope owner).
fn lock_queue(pool: &Pool) -> MutexGuard<'_, VecDeque<Job>> {
    pool.injector
        .queue
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

impl Pool {
    fn push(&self, job: Job) {
        lock_queue(self).push_back(job);
        self.injector.ready.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        lock_queue(self).pop_front()
    }
}

/// Pool size: `CMA_POOL_THREADS` if set to a positive integer, otherwise the
/// host's available parallelism.
fn pool_size() -> usize {
    std::env::var("CMA_POOL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The process-wide pool, created on first use.  Workers park on the
/// injector's condvar and run jobs as they arrive; they never exit (the
/// process teardown reaps them).
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = pool_size();
        // The workers' own `pool()` calls block on this `get_or_init` until
        // the cell is initialized, so spawning before returning is safe.
        for i in 0..workers {
            thread::Builder::new()
                .name(format!("cma-pool-{i}"))
                .spawn(worker_loop)
                .expect("spawn pool worker");
        }
        Pool {
            injector: Injector {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            },
            workers,
        }
    })
}

fn worker_loop() {
    let pool = pool();
    let mut guard = lock_queue(pool);
    loop {
        if let Some(job) = guard.pop_front() {
            drop(guard);
            job();
            guard = lock_queue(pool);
        } else {
            guard = pool
                .injector
                .ready
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Shared state of one scope: how many of its tasks are still pending, and
/// the first panic payload any of them produced.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn task_finished(&self) {
        let mut n = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        if *n == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task of this scope has finished, help-running
    /// queued jobs (this scope's or any other's) in the meantime — the
    /// nested-scope deadlock escape hatch.
    fn wait_all(&self) {
        loop {
            {
                let n = self.pending.lock().unwrap_or_else(|e| e.into_inner());
                if *n == 0 {
                    return;
                }
            }
            if let Some(job) = pool().try_pop() {
                job();
                continue;
            }
            let n = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            if *n == 0 {
                return;
            }
            // Timed wait: our scope's remaining tasks may be *queued behind*
            // jobs only we can help-run, and the queue has no per-scope
            // wakeup — so re-check it periodically instead of blocking
            // indefinitely on `done` alone.
            let _ = self
                .done
                .wait_timeout(n, Duration::from_micros(100))
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// `a` is offered to the pool while `b` runs on the caller's thread; panics
/// in either closure propagate to the caller after both have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    let mut ra = None;
    let rb = scope(|s| {
        s.spawn(|| ra = Some(a()));
        b()
    });
    (ra.expect("rayon::join task completed"), rb)
}

/// A fork-join scope handed to the closure of [`scope`]; spawned tasks may
/// borrow from the enclosing stack frame and are joined when the scope ends.
pub struct Scope<'scope, 'env: 'scope> {
    state: Arc<ScopeState>,
    _marker: PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task on the pool, to run concurrently with the rest of the
    /// scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let state = Arc::clone(&self.state);
        *state.pending.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        let task = Box::new(move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            state.task_finished();
        });
        // SAFETY: lifetime erasure `'scope → 'static`.  The task may borrow
        // stack data of the frame that called `scope`; `scope` never returns
        // (not even by unwinding) before `wait_all` has observed every
        // spawned task finished, so the borrows outlive the task.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(
                task as Box<dyn FnOnce() + Send + 'scope>,
            )
        };
        pool().push(job);
    }
}

/// Creates a fork-join scope: every task spawned through the [`Scope`] is
/// guaranteed to have finished before `scope` returns.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let state = Arc::new(ScopeState {
        pending: Mutex::new(0),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let s = Scope {
        state: Arc::clone(&state),
        _marker: PhantomData,
    };
    // The scope closure itself may panic with tasks already queued; the
    // drain must still happen before the unwind leaves this frame.
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&s)));
    state.wait_all();
    let task_panic = state.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    match result {
        Err(payload) => panic::resume_unwind(payload),
        Ok(r) => {
            if let Some(payload) = task_panic {
                panic::resume_unwind(payload);
            }
            r
        }
    }
}

/// The parallelism the pool provides (the worker count).
pub fn current_num_threads() -> usize {
    pool().workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn scope_joins_all_spawns_and_allows_borrows() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn many_more_tasks_than_workers_all_complete() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..256 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 256);
    }

    #[test]
    fn nested_scopes_make_progress() {
        // Saturate the pool with tasks that each open an inner scope; the
        // help-running wait keeps this from deadlocking even when every
        // worker is blocked in an inner scope drain.
        let counter = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..(current_num_threads() * 2 + 2) {
                outer.spawn(|| {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::SeqCst),
            (current_num_threads() * 2 + 2) * 4
        );
    }

    #[test]
    fn scope_propagates_task_panic() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("task boom"));
            });
        }));
        assert!(caught.is_err(), "task panic must reach the scope owner");
        // The pool must stay usable afterwards.
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }
}
