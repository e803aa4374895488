//! `dpfs-load` — the scale-and-scenario bench plane.
//!
//! λFS's critique of metadata benchmarks (PAPERS.md) is that scalability
//! conclusions only hold under bursty, skewed load; FalconFS motivates
//! the shapes that stress a DFS hardest: huge small-file read storms and
//! stat-heavy training epochs. This crate replays those shapes through
//! *thousands of simulated clients* against the in-process
//! [`Testbed`] — each simulated client is a logical
//! actor (its own seeded RNG, its own file set, its own op stream)
//! multiplexed onto a small pool of worker threads that share one real
//! DPFS mount — so op counts reach storm scale while thread counts and
//! connection counts stay sane (connection scale itself is the c10k
//! bench's job).
//!
//! Every scenario reports throughput plus client-observed *and*
//! server-side latency percentiles, both derived from a single
//! [`scrape_cluster`] snapshot taken at scenario end — one measurement
//! window, two vantage points. The `scenarios` binary emits the committed
//! `BENCH_scenarios.json`; `bench-diff` gates CI against it.

#![deny(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use dpfs_cluster::{scrape_cluster, Testbed};
use dpfs_core::trace::{self, ClusterSnapshot, HistSnapshot, Histogram, NodeRole};
use dpfs_core::Dpfs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod report;
pub mod scenarios;

/// A zipfian sampler over `n` ranked items (rank 0 most popular), the
/// standard skew model for tenant file popularity. Weights are
/// `1 / (rank+1)^s`; sampling is a binary search over the precomputed
/// CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` items with exponent `s` (s = 0 is uniform,
    /// s = 1 the classic zipf). Panics if `n` is 0.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Run `op` and record its wall-clock latency into `hist`.
pub fn timed<T>(hist: &Histogram, op: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = op();
    hist.record_duration(t0.elapsed());
    out
}

/// One scenario's result: the numbers committed to BENCH_scenarios.json.
pub struct ScenarioOutcome {
    /// Scenario name (stable key for bench-diff).
    pub name: &'static str,
    /// Logical clients simulated.
    pub sim_clients: usize,
    /// Operations completed (scenario-defined unit).
    pub ops: u64,
    /// Payload bytes moved (0 for metadata-only scenarios).
    pub bytes: u64,
    /// Wall-clock seconds of the storm window.
    pub secs: f64,
    /// Client-observed per-op latency (harness-timed, all workers).
    pub client_lat: HistSnapshot,
    /// The unified scrape taken at scenario end.
    pub snapshot: ClusterSnapshot,
    /// Trace-ring events dropped during this scenario (delta).
    pub trace_dropped: u64,
    /// Slow-op lines emitted during this scenario (delta).
    pub slow_ops: u64,
}

impl ScenarioOutcome {
    /// Aggregate operation throughput.
    pub fn ops_per_sec(&self) -> f64 {
        if self.secs == 0.0 {
            return 0.0;
        }
        self.ops as f64 / self.secs
    }

    /// Server-side service-time distribution for the scenario window:
    /// every iond `lat.*` histogram merged with every metad `meta.*`
    /// histogram, all from the one scrape. (Scenarios run on a fresh
    /// testbed, so cumulative server histograms are scenario-scoped.)
    pub fn server_lat(&self) -> HistSnapshot {
        let mut merged = self
            .snapshot
            .merged_hist(NodeRole::Iond, |n| n.starts_with("lat."));
        merged.merge(
            &self
                .snapshot
                .merged_hist(NodeRole::Metad, |n| n.starts_with("meta.")),
        );
        merged
    }
}

/// Shared per-scenario machinery: a fresh testbed, one shared mount, the
/// client-side latency histogram, and the storm runner.
pub struct Harness {
    /// The cluster under load.
    pub tb: Testbed,
    /// The shared mount every simulated client multiplexes over.
    pub fs: Dpfs,
    /// Client-observed per-op latencies.
    pub hist: Histogram,
    /// Worker threads the simulated clients are multiplexed onto.
    pub workers: usize,
}

/// I/O servers every scenario runs against.
pub const IO_SERVERS: usize = 4;
/// Metadata shards every scenario runs against.
pub const METAD_SHARDS: usize = 2;
/// Worker threads the simulated clients share.
pub const WORKERS: usize = 8;

impl Harness {
    /// A fresh unthrottled cluster (4 ionds, 2 metad shards) and a shared
    /// remote mount configured by `opts`.
    pub fn new(opts: dpfs_core::ClientOptions) -> Harness {
        let tb = Testbed::unthrottled_with_metad_shards(IO_SERVERS, METAD_SHARDS)
            .expect("scenario testbed");
        let fs = tb.remote_client_opts(opts);
        Harness {
            tb,
            fs,
            hist: Histogram::new(),
            workers: WORKERS,
        }
    }

    /// Run the storm and assemble the outcome: workers fan the simulated
    /// clients out, then one [`scrape_cluster`] snapshot closes the
    /// window.
    pub fn storm<F>(self, name: &'static str, sim_clients: usize, client_run: F) -> ScenarioOutcome
    where
        F: Fn(usize, &mut StdRng, &Dpfs, &Histogram) -> (u64, u64) + Sync,
    {
        let ring0 = trace::ring().dropped();
        let slow0 = trace::slowlog().emitted();
        let ops = AtomicU64::new(0);
        let bytes = AtomicU64::new(0);
        let barrier = Barrier::new(self.workers + 1);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..self.workers {
                let (ops, bytes, barrier, client_run) = (&ops, &bytes, &barrier, &client_run);
                let (fs, hist) = (&self.fs, &self.hist);
                scope.spawn(move || {
                    barrier.wait();
                    let (mut o, mut b) = (0u64, 0u64);
                    let mut id = w;
                    while id < sim_clients {
                        let mut rng = StdRng::seed_from_u64(0x10ad ^ ((id as u64) << 8));
                        let (co, cb) = client_run(id, &mut rng, fs, hist);
                        o += co;
                        b += cb;
                        id += self.workers;
                    }
                    ops.fetch_add(o, Ordering::Relaxed);
                    bytes.fetch_add(b, Ordering::Relaxed);
                });
            }
            barrier.wait();
        });
        let secs = start.elapsed().as_secs_f64();
        let snapshot = scrape_cluster(&self.fs);
        ScenarioOutcome {
            name,
            sim_clients,
            ops: ops.load(Ordering::Relaxed),
            bytes: bytes.load(Ordering::Relaxed),
            secs,
            client_lat: self.hist.snapshot(),
            snapshot,
            trace_dropped: trace::ring().dropped().saturating_sub(ring0),
            slow_ops: trace::slowlog().emitted().saturating_sub(slow0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate and the tail must still be reachable.
        assert!(counts[0] > counts[10] && counts[10] > 0);
        assert!(counts[0] > 2_000, "rank 0 drew {}", counts[0]);
        assert!(counts[50..].iter().sum::<u64>() > 0, "tail never sampled");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0u64; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "bucket {i} drew {c}");
        }
    }

    #[test]
    fn timed_records_into_hist() {
        let h = Histogram::new();
        let v = timed(&h, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(h.snapshot().count, 1);
    }
}
