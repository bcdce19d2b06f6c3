//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to a crate registry, so this workspace
//! vendors the slice of criterion's API that its benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], [`Bencher::iter`],
//! [`Bencher::iter_custom`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros.
//!
//! Instead of criterion's statistical machinery this harness measures each
//! benchmark for a handful of samples and reports the fastest one (the usual
//! low-noise estimator for short deterministic workloads).  Output is one
//! plain-text line per benchmark.  Honors `CMA_BENCH_SAMPLES` to override the
//! per-benchmark sample count.

use std::time::{Duration, Instant};

/// Measures closures handed over by benchmark bodies.
#[derive(Debug, Default)]
pub struct Bencher {
    best: Option<Duration>,
    samples: usize,
}

impl Bencher {
    /// Runs `f` repeatedly and records the fastest observed time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One warm-up call, then timed samples.
        std::hint::black_box(f());
        for _ in 0..self.samples.max(1) {
            let start = Instant::now();
            std::hint::black_box(f());
            let elapsed = start.elapsed();
            if self.best.map(|b| elapsed < b).unwrap_or(true) {
                self.best = Some(elapsed);
            }
        }
    }

    /// Lets `f` time `iters` iterations itself and return the elapsed time
    /// (criterion's escape hatch for routines that need untimed set-up
    /// between iterations); records the fastest single-iteration sample.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        f(1);
        for _ in 0..self.samples.max(1) {
            let elapsed = f(1);
            if self.best.map(|b| elapsed < b).unwrap_or(true) {
                self.best = Some(elapsed);
            }
        }
    }
}

/// Identifier of one benchmark within a group (`"name/parameter"`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", name.into(), parameter),
        }
    }
}

fn default_samples() -> usize {
    std::env::var("CMA_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

fn report(label: &str, best: Option<Duration>) {
    match best {
        Some(d) => println!("{label:<50} {:>12.3} ms (best)", d.as_secs_f64() * 1e3),
        None => println!("{label:<50} {:>12}", "no samples"),
    }
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    samples: usize,
}

impl BenchmarkGroup {
    /// Overrides the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            best: None,
            samples: self.samples,
        };
        f(&mut bencher, input);
        report(&format!("{}/{}", self.name, id.label), bencher.best);
        self
    }

    /// Runs one benchmark without an explicit input.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            best: None,
            samples: self.samples,
        };
        f(&mut bencher);
        report(&format!("{}/{name}", self.name), bencher.best);
        self
    }

    /// Ends the group (kept for API compatibility; reporting is immediate).
    pub fn finish(self) {}
}

/// The benchmark driver handed to `criterion_group!` functions.
#[derive(Debug)]
pub struct Criterion {
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            samples: default_samples(),
        }
    }
}

impl Criterion {
    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            best: None,
            samples: self.samples,
        };
        f(&mut bencher);
        report(name, bencher.best);
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            samples: self.samples,
        }
    }
}

/// Bundles benchmark functions under one name (stand-in for criterion's).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_best_time() {
        let mut b = Bencher {
            best: None,
            samples: 3,
        };
        b.iter(|| std::hint::black_box(1 + 1));
        assert!(b.best.is_some());
    }

    #[test]
    fn group_api_is_chainable() {
        let mut c = Criterion { samples: 1 };
        let mut group = c.benchmark_group("g");
        group
            .sample_size(2)
            .bench_with_input(BenchmarkId::new("f", 3), &3, |b, n| {
                b.iter(|| std::hint::black_box(*n * 2))
            });
        group.finish();
        c.bench_function("plain", |b| b.iter(|| std::hint::black_box(2 + 2)));
    }
}
