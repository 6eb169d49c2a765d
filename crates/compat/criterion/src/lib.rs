//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! crate: a small wall-clock micro-benchmark harness with criterion's
//! calling convention (`criterion_group!`/`criterion_main!`, benchmark
//! groups, `Bencher::iter`/`iter_batched`/`iter_custom`). It reports the mean
//! nanoseconds per iteration over a fixed measurement window; it performs
//! no statistical analysis, outlier rejection or HTML reporting.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Prevent the optimiser from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortises setup cost. Only a hint here: every
/// variant runs setup once per iteration, outside the timed section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Drives the timed iterations of one benchmark.
pub struct Bencher {
    /// Total time spent in timed sections.
    elapsed: Duration,
    /// Iterations executed.
    iters: u64,
    /// Measurement window per benchmark.
    window: Duration,
}

impl Bencher {
    fn new(window: Duration) -> Bencher {
        Bencher { elapsed: Duration::ZERO, iters: 0, window }
    }

    /// Time `routine` repeatedly until the measurement window closes.
    /// Calls are timed in batches that double while one batch takes less
    /// than a twentieth of the window: reading the clock around every
    /// call would add its own cost, and its jitter, to a sub-microsecond
    /// routine. `iters` counts every timed call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Untimed warm-up.
        for _ in 0..8 {
            black_box(routine());
        }
        let mut batch = 1u64;
        while self.elapsed < self.window {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let took = start.elapsed();
            self.elapsed += took;
            self.iters += batch;
            if took * 20 < self.window {
                batch *= 2;
            }
        }
    }

    /// Time `routine` over fresh inputs from `setup`; setup runs outside
    /// the timed section.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..8 {
            black_box(routine(setup()));
        }
        while self.elapsed < self.window {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.elapsed += start.elapsed();
            self.iters += 1;
        }
    }

    /// Let `routine` run and time `iters` iterations itself, returning
    /// the time they took — for a cost that only some of the work a
    /// routine must do incurs.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        black_box(routine(8));
        while self.elapsed < self.window {
            self.elapsed += routine(1);
            self.iters += 1;
        }
    }

    fn ns_per_iter(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.elapsed.as_nanos() as f64 / self.iters as f64
        }
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for criterion compatibility; the sample count is governed
    /// by the measurement window here.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        self.criterion.run_one(&full, f);
        self
    }

    pub fn finish(&mut self) {}
}

/// The harness entry point, handed to every benchmark function.
pub struct Criterion {
    window: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // CRITERION_WINDOW_MS overrides the per-benchmark window.
        let ms = std::env::var("CRITERION_WINDOW_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(300);
        Criterion { window: Duration::from_millis(ms) }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into() }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let id = id.into();
        self.run_one(&id, f);
        self
    }

    fn run_one<F: FnOnce(&mut Bencher)>(&mut self, id: &str, f: F) {
        let mut b = Bencher::new(self.window);
        f(&mut b);
        println!("{id:<48} {:>12.1} ns/iter ({} iterations)", b.ns_per_iter(), b.iters);
    }

    pub fn final_summary(&mut self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut b = Bencher::new(Duration::from_millis(5));
        let mut n = 0u64;
        b.iter(|| n += 1);
        assert!(b.iters > 0);
        assert!(b.ns_per_iter() > 0.0);
        assert_eq!(n, b.iters + 8, "every timed call is counted, beside the warm-up");
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut b = Bencher::new(Duration::from_millis(5));
        b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput);
        assert!(b.iters > 0);
    }

    #[test]
    fn iter_custom_sums_the_reported_time() {
        let mut b = Bencher::new(Duration::from_millis(5));
        b.iter_custom(|iters| Duration::from_micros(100) * iters as u32);
        assert_eq!(b.ns_per_iter(), 100_000.0);
    }

    #[test]
    fn groups_run_benchmarks() {
        let mut c = Criterion { window: Duration::from_millis(2) };
        let mut g = c.benchmark_group("g");
        g.sample_size(10);
        let mut ran = false;
        g.bench_function("f", |b| {
            ran = true;
            b.iter(|| 1 + 1)
        });
        g.finish();
        assert!(ran);
    }
}
