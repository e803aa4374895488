//! Minimal, dependency-free stand-in for the `criterion` crate.
//!
//! Supports the `bench_function` / `Bencher::iter` / `criterion_group!` /
//! `criterion_main!` subset the workspace benches use. Instead of
//! criterion's statistical machinery it runs a fixed warm-up then timed
//! batches and reports the best mean per iteration — honest enough to
//! compare hot paths release-to-release in an offline environment.

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Entry point handed to each registered bench function.
pub struct Criterion {
    warm_up_iters: u64,
    batches: u32,
    batch_iters: u64,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            warm_up_iters: 50,
            batches: 15,
            batch_iters: 200,
        }
    }
}

impl Criterion {
    /// Run `f` as a named benchmark and print its best per-iteration time.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            warm_up_iters: self.warm_up_iters,
            batches: self.batches,
            batch_iters: self.batch_iters,
            best: Duration::MAX,
        };
        f(&mut b);
        println!("{name:<40} {:>12} /iter", format_ns(b.best));
        self
    }
}

/// Timer handed to the closure passed to [`Criterion::bench_function`].
pub struct Bencher {
    warm_up_iters: u64,
    batches: u32,
    batch_iters: u64,
    best: Duration,
}

impl Bencher {
    /// Time `routine`, keeping the best mean over several batches.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        for _ in 0..self.warm_up_iters {
            black_box(routine());
        }
        for _ in 0..self.batches {
            let start = Instant::now();
            for _ in 0..self.batch_iters {
                black_box(routine());
            }
            let mean = start.elapsed() / self.batch_iters as u32;
            if mean < self.best {
                self.best = mean;
            }
        }
    }
}

impl Bencher {
    /// Like [`Bencher::iter`], but `routine` runs the iterations it is
    /// asked for itself and returns the time to count for them — for a
    /// measurement with untimed work (an idle gap) between iterations.
    pub fn iter_custom<R>(&mut self, mut routine: R)
    where
        R: FnMut(u64) -> Duration,
    {
        routine(self.warm_up_iters);
        for _ in 0..self.batches {
            let mean = routine(self.batch_iters) / self.batch_iters as u32;
            if mean < self.best {
                self.best = mean;
            }
        }
    }
}

fn format_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Bundle bench functions into a runnable group, like criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running each group, like criterion's macro.
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
    fn bench_function_runs_routine() {
        let mut calls = 0u64;
        Criterion {
            warm_up_iters: 1,
            batches: 1,
            batch_iters: 3,
        }
        .bench_function("smoke", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 4);
    }

    #[test]
    fn format_covers_units() {
        assert_eq!(format_ns(Duration::from_nanos(12)), "12 ns");
        assert!(format_ns(Duration::from_micros(12)).ends_with("µs"));
        assert!(format_ns(Duration::from_millis(12)).ends_with("ms"));
        assert!(format_ns(Duration::from_secs(2)).ends_with(" s"));
    }
}
