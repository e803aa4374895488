//! The closed-loop load generator: one thread per client, one operation
//! outstanding each, for a fixed wall-clock window cut into slices.
//!
//! Closed because DPFS callers are SPMD processes that block on
//! `DPFS_Read/Write`; a slow system therefore receives less load, and the
//! metrics are rates and latencies at a fixed client count, not at a
//! fixed arrival rate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use dpfs_core::trace::now_ns;

use crate::host;
use crate::spans::Recorder;
use crate::workloads::Client;

#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// Host and process counters read at one slice boundary.
#[derive(Debug, Clone, Copy)]
struct Sample {
    t_ns: u64,
    /// CPU time of this process, all threads.
    cpu_ms: f64,
    /// CPU time the hypervisor withheld from the guest, all cores.
    steal_ms: f64,
    /// All CPU time of the guest, idle included.
    total_ms: f64,
}

impl Sample {
    fn now() -> Sample {
        let (steal_ms, total_ms) = host::host_cpu_ms();
        Sample {
            t_ns: now_ns(),
            cpu_ms: host::process_cpu_ms(),
            steal_ms,
            total_ms,
        }
    }
}

pub struct Window {
    pub ops: Vec<OpRecord>,
    samples: Vec<Sample>,
}

/// Slices are one second, except in windows too short to hold four.
fn slice_count(secs: f64) -> usize {
    if secs >= 4.0 {
        secs.round() as usize
    } else {
        4
    }
}

/// Root span of every operation the driver issues.
pub const OP_SPAN: &str = "op";

/// Drive every client for `secs` seconds. Each operation is wrapped in an
/// [`OP_SPAN`] root span (recorded only by an enabled recorder).
pub fn run_window(
    clients: &mut [Box<dyn Client>],
    recorders: &mut [Recorder],
    secs: f64,
) -> Window {
    let slices = slice_count(secs);
    let barrier = Barrier::new(clients.len() + 1);
    let end_ns = AtomicU64::new(u64::MAX);
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(recorders.iter_mut())
            .map(|(client, rec)| {
                let (barrier, end_ns) = (&barrier, &end_ns);
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    barrier.wait();
                    loop {
                        let start_ns = now_ns();
                        if start_ns >= end_ns.load(Ordering::Relaxed) {
                            return ops;
                        }
                        let ok = rec.op(OP_SPAN, |r| client.op(r));
                        ops.push(OpRecord {
                            start_ns,
                            end_ns: now_ns(),
                            ok,
                        });
                    }
                })
            })
            .collect();

        barrier.wait();
        let first = Sample::now();
        // Relaxed: the deadline publishes no other data.
        end_ns.store(first.t_ns + (secs * 1e9) as u64, Ordering::Relaxed);
        let mut samples = vec![first];
        for i in 1..=slices {
            let due = first.t_ns + (secs * 1e9 * i as f64 / slices as f64) as u64;
            std::thread::sleep(Duration::from_nanos(due.saturating_sub(now_ns())));
            samples.push(Sample::now());
        }
        let mut ops = Vec::new();
        for worker in workers {
            // A panicking client is a harness bug; it cannot be counted
            // as a failed operation because its records are gone.
            ops.extend(worker.join().expect("client thread panicked"));
        }
        Window { ops, samples }
    })
}

/// The end-to-end numbers of one window.
#[derive(Debug)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    /// Verified operations per wall-clock second in each slice; an
    /// operation that spans a boundary counts in each slice by its share
    /// of time there.
    pub slice_rates: Vec<f64>,
    /// Verified operations of the whole window per second of it: the mean,
    /// not the median, of the slices. The polling runtime has a slower and
    /// a faster regime and changes between them at unpredictable seconds
    /// of a run; the median of the slices then reads one regime or the
    /// other, the mean the share of each (README, "Noise").
    pub ops_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p95_us: f64,
    /// Median over the slices of process CPU time per verified operation.
    pub cpu_ms_per_op: f64,
    /// Share of the guest's CPU time the hypervisor withheld.
    pub steal_ratio: f64,
    pub slice_iqr: f64,
}

impl Window {
    pub fn summary(&self) -> Summary {
        let n = self.samples.len() - 1;
        let mut slice_ops = vec![0.0f64; n];
        for op in self.ops.iter().filter(|op| op.ok) {
            let span = (op.end_ns - op.start_ns).max(1) as f64;
            for (i, pair) in self.samples.windows(2).enumerate() {
                let lo = op.start_ns.max(pair[0].t_ns);
                let hi = op.end_ns.min(pair[1].t_ns);
                if hi > lo {
                    slice_ops[i] += (hi - lo) as f64 / span;
                }
            }
        }
        let mut slice_rates = Vec::with_capacity(n);
        let mut slice_cpu = Vec::with_capacity(n);
        for (pair, &ops) in self.samples.windows(2).zip(&slice_ops) {
            let secs = (pair[1].t_ns - pair[0].t_ns) as f64 / 1e9;
            slice_rates.push(ops / secs);
            if ops > 0.0 {
                slice_cpu.push((pair[1].cpu_ms - pair[0].cpu_ms) / ops);
            }
        }
        let mut lat: Vec<u64> = self.ops.iter().map(|o| o.end_ns - o.start_ns).collect();
        lat.sort_unstable();
        let (first, last) = (self.samples[0], self.samples[n]);
        let host_total = last.total_ms - first.total_ms;
        Summary {
            attempted: self.ops.len() as u64,
            failed: self.ops.iter().filter(|o| !o.ok).count() as u64,
            ops_per_s: slice_ops.iter().sum::<f64>() * 1e9 / (last.t_ns - first.t_ns) as f64,
            lat_p50_us: host::percentile(&lat, 50.0) as f64 / 1e3,
            lat_p95_us: host::percentile(&lat, 95.0) as f64 / 1e3,
            cpu_ms_per_op: host::median(&slice_cpu),
            steal_ratio: if host_total > 0.0 {
                (last.steal_ms - first.steal_ms) / host_total
            } else {
                0.0
            },
            slice_iqr: detrended_iqr(&slice_rates),
            slice_rates,
        }
    }
}

/// Inter-quartile range of the slice rates about their least-squares
/// line, as a share of the median rate. About the line, because a system
/// that slows down steadily as the run goes on (`meta_churn` does) is not
/// a disturbed host.
fn detrended_iqr(rates: &[f64]) -> f64 {
    let n = rates.len() as f64;
    let median = host::median(rates);
    if rates.len() < 3 || median <= 0.0 {
        return 0.0;
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = rates.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (i, y) in rates.iter().enumerate() {
        sxy += (i as f64 - mean_x) * (y - mean_y);
        sxx += (i as f64 - mean_x).powi(2);
    }
    let slope = sxy / sxx;
    let residuals: Vec<f64> = rates
        .iter()
        .enumerate()
        .map(|(i, y)| y - mean_y - slope * (i as f64 - mean_x))
        .collect();
    host::quartiles(&residuals).map_or(0.0, |(q1, q3)| (q3 - q1) / median)
}

impl Summary {
    /// A disturbed run is recognised instead of believed: stolen CPU above
    /// 5 %, or slices that stray from their trend by more than 15 % of the
    /// median rate.
    pub fn noisy(&self) -> bool {
        self.steal_ratio > 0.05 || self.slice_iqr > 0.15
    }
}

/// Median rate of the last third of `rates` over that of the first third:
/// below 1 when the system slows down as the run goes on.
pub fn decay_ratio(rates: &[f64]) -> f64 {
    let k = (rates.len() / 3).max(1);
    if rates.len() < 2 {
        return 1.0;
    }
    let head = host::median(&rates[..k]);
    let tail = host::median(&rates[rates.len() - k..]);
    if head > 0.0 {
        tail / head
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_s: f64, cpu_ms: f64) -> Sample {
        Sample {
            t_ns: (t_s * 1e9) as u64,
            cpu_ms,
            steal_ms: 0.0,
            total_ms: t_s * 2000.0,
        }
    }

    #[test]
    fn an_op_across_a_boundary_is_shared_between_slices() {
        let window = Window {
            samples: vec![sample(0.0, 0.0), sample(1.0, 100.0), sample(2.0, 300.0)],
            ops: vec![
                OpRecord {
                    start_ns: 500_000_000,
                    end_ns: 1_500_000_000,
                    ok: true,
                },
                OpRecord {
                    start_ns: 1_500_000_000,
                    end_ns: 1_600_000_000,
                    ok: false,
                },
            ],
        };
        let s = window.summary();
        assert_eq!((s.attempted, s.failed), (2, 1));
        assert_eq!(s.slice_rates, vec![0.5, 0.5]);
        assert_eq!(s.ops_per_s, 0.5);
        // 100 ms / 0.5 op and 200 ms / 0.5 op.
        assert_eq!(s.cpu_ms_per_op, 300.0);
        assert_eq!(s.lat_p50_us, 100_000.0);
        assert!(!s.noisy());
    }

    #[test]
    fn stolen_time_marks_the_run_and_changes_no_number() {
        // One second in which the hypervisor withheld 300 of 2000 ms.
        let mut end = sample(1.0, 300.0);
        end.steal_ms = 300.0;
        let window = Window {
            samples: vec![sample(0.0, 0.0), end],
            ops: vec![OpRecord {
                start_ns: 0,
                end_ns: 1_000_000_000,
                ok: true,
            }],
        };
        let s = window.summary();
        assert_eq!(s.ops_per_s, 1.0);
        assert_eq!(s.lat_p50_us, 1_000_000.0);
        assert_eq!(s.cpu_ms_per_op, 300.0);
        assert_eq!(s.steal_ratio, 0.15);
        assert!(s.noisy());
    }

    #[test]
    fn a_steady_decline_is_not_noise_but_a_hiccup_is() {
        let decline: Vec<f64> = (0..10).map(|i| 100.0 - 4.0 * i as f64).collect();
        assert!(detrended_iqr(&decline) < 1e-9);
        let mut hiccups = decline.clone();
        for i in [2, 3, 6, 7] {
            hiccups[i] *= 0.5;
        }
        assert!(detrended_iqr(&hiccups) > 0.15);
    }

    #[test]
    fn decay_compares_the_ends_of_the_run() {
        assert_eq!(decay_ratio(&[10.0, 10.0, 10.0, 7.0, 5.0, 5.0]), 0.5);
        assert_eq!(decay_ratio(&[4.0]), 1.0);
    }
}
