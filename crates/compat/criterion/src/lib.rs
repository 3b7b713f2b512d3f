//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no access to crates.io, so the subset of the
//! criterion API used by `sinw-bench` is vendored here under the same package
//! name. The benches in `crates/bench/benches/` compile unchanged against it
//! and still produce wall-clock timings, just without criterion's statistical
//! machinery (outlier analysis, HTML reports, regression detection).
//!
//! Implemented surface:
//!
//! * [`Criterion`] with the builder knobs the benches set
//!   ([`sample_size`](Criterion::sample_size),
//!   [`measurement_time`](Criterion::measurement_time),
//!   [`warm_up_time`](Criterion::warm_up_time)) and
//!   [`bench_function`](Criterion::bench_function);
//! * [`Bencher::iter`];
//! * the [`criterion_group!`] / [`criterion_main!`] macros in both their
//!   short and `name = …; config = …; targets = …` forms;
//! * [`black_box`], re-exported from `std::hint`.
//!
//! Like real criterion, a bench binary only measures when cargo passes it
//! the `--bench` flag (which `cargo bench` does). Invoked any other way —
//! in particular by `cargo test --benches`, which passes no such flag —
//! each routine is executed exactly once as a smoke test, so test runs
//! stay fast.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Timing loop handed to the closure of [`Criterion::bench_function`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` over this sample's iteration batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Minimal benchmark driver mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
            // Real criterion only measures when cargo passes `--bench`
            // (i.e. under `cargo bench`); any other invocation — notably
            // `cargo test --benches`, which passes no flag at all — gets
            // the run-once smoke mode.
            test_mode: !std::env::args().any(|a| a == "--bench"),
        }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Set the measurement-phase budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Set the warm-up budget per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Run one named benchmark and print a mean-time-per-iteration summary.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.test_mode {
            // Smoke-test mode (no `--bench` flag): one iteration, no timing.
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            println!("{id}: ok (test mode)");
            return self;
        }

        // Warm-up, and calibration of the per-sample batch size.
        let mut batch = 1u64;
        let warm_start = Instant::now();
        let mut per_iter = Duration::from_secs(1);
        while warm_start.elapsed() < self.warm_up_time {
            let mut b = Bencher {
                iters: batch,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            per_iter = b.elapsed / batch.max(1) as u32;
            if b.elapsed >= self.warm_up_time / 4 {
                break;
            }
            batch = batch.saturating_mul(2);
        }
        let target = self.measurement_time / self.sample_size as u32;
        let iters =
            (target.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, u64::MAX as u128) as u64;

        let mut total = Duration::ZERO;
        let mut done = 0u64;
        let run_start = Instant::now();
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            total += b.elapsed;
            done += iters;
            if run_start.elapsed() > self.measurement_time * 2 {
                break; // keep pathological benches bounded
            }
        }
        let mean_ns = total.as_nanos() as f64 / done.max(1) as f64;
        println!("{id:<48} time: {} ({done} iters)", format_ns(mean_ns));
        self
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.2} ns/iter")
    } else if ns < 1e6 {
        format!("{:.2} µs/iter", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms/iter", ns / 1e6)
    } else {
        format!("{:.3} s/iter", ns / 1e9)
    }
}

/// Collect benchmark functions into a runnable group, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generate the `main` for a `harness = false` bench target, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine_in_test_mode() {
        let mut c = Criterion {
            test_mode: true,
            ..Criterion::default()
        };
        let mut hits = 0u32;
        c.bench_function("unit/probe", |b| b.iter(|| hits += 1));
        assert_eq!(hits, 1, "test mode must run the routine exactly once");
    }

    #[test]
    fn measurement_mode_times_at_least_one_batch() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        c.test_mode = false;
        let mut hits = 0u64;
        c.bench_function("unit/timed", |b| b.iter(|| hits += 1));
        assert!(hits > 0);
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
        assert!(format_ns(2e9).contains("s/iter"));
    }
}
