//! A minimal, self-contained benchmark harness.
//!
//! The workspace's benches are written against the `criterion` 0.5 API,
//! but the build environment is fully offline, so this crate provides the
//! subset of that API the benches use: [`Criterion`], benchmark groups
//! with [`sample_size`](BenchmarkGroup::sample_size), [`Bencher::iter`]
//! and [`Bencher::iter_batched`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Statistics are simplified relative to upstream: each benchmark runs one
//! warm-up pass and then `sample_size` timed samples, reporting the mean
//! time per iteration and the iteration rate to stdout. Every result is
//! also recorded in `target/criterion-summary.json` (best-effort) so
//! scripts can scrape machine-readable numbers.

#![allow(
    clippy::disallowed_methods,
    reason = "vendored shim: a bench harness reads the clock"
)]

use std::time::{Duration, Instant};

/// Prevents the compiler from optimising away a benchmark's result.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// How `iter_batched` amortises setup cost. The shim re-runs setup for
/// every iteration regardless, so the variants only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many per batch upstream.
    SmallInput,
    /// Large inputs: few per batch upstream.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Times the body of one benchmark.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, called `iters` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
    }

    /// Times `routine` over inputs built by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.elapsed += start.elapsed();
        }
    }
}

#[derive(Debug)]
struct Record {
    name: String,
    mean_ns: f64,
    iters_per_sec: f64,
}

/// The benchmark runner.
#[derive(Debug)]
pub struct Criterion {
    default_sample_size: usize,
    records: Vec<Record>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { default_sample_size: 10, records: Vec::new() }
    }
}

impl Criterion {
    /// Upstream parses CLI flags here; the shim accepts and ignores them.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs one benchmark at the default sample size.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let sample_size = self.default_sample_size;
        self.run_one(name.to_string(), sample_size, f);
        self
    }

    /// Starts a named group of benchmarks sharing a sample size.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.default_sample_size,
            criterion: self,
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: String, sample_size: usize, mut f: F) {
        // One warm-up pass, untimed.
        let mut bencher = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut bencher);

        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..sample_size.max(1) {
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            total += bencher.elapsed;
            iters += bencher.iters;
        }
        let mean_ns = total.as_nanos() as f64 / iters.max(1) as f64;
        let iters_per_sec = if mean_ns > 0.0 { 1e9 / mean_ns } else { f64::INFINITY };
        println!("{name:<48} {:>12.1} ns/iter {:>14.2} iter/s", mean_ns, iters_per_sec);
        self.records.push(Record { name, mean_ns, iters_per_sec });
    }

    /// Writes the collected results to `target/criterion-summary.json`
    /// (best-effort) for machine consumption.
    pub fn final_summary(&self) {
        let mut out = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"name\": {:?}, \"mean_ns\": {:.1}, \"iters_per_sec\": {:.3}}}{}\n",
                r.name,
                r.mean_ns,
                r.iters_per_sec,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write("target/criterion-summary.json", out);
    }
}

/// A set of related benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark in the group takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        let sample_size = self.sample_size;
        self.criterion.run_one(full, sample_size, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Bundles benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

/// Generates `main` running the given groups.
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
    fn bench_function_reports_and_records() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(c.records.len(), 1);
        assert!(c.records[0].mean_ns >= 0.0);
    }

    #[test]
    fn groups_respect_sample_size() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3).bench_function("count", |b| {
            b.iter_batched(|| 21, |x| black_box(x * 2), BatchSize::SmallInput)
        });
        g.finish();
        assert_eq!(c.records.len(), 1);
        assert_eq!(c.records[0].name, "g/count");
    }
}
