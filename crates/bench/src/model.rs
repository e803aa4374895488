//! The storage cost model, evaluated over the requests the servers
//! received: the figures' bandwidths, computed.
//!
//! A measured phase runs on unthrottled servers, each behind a recording
//! [`FaultProxy`], so its data requests are known exactly. One small
//! deterministic simulation of each server's storage class turns them into
//! time — the cost structure Ching et al. evaluate analytically for
//! noncontiguous I/O through PVFS. A server has [`ServeConfig::default`]'s
//! workers. A worker holds a request for `request_latency`, then the
//! request queues at the server's one FIFO device for `device_time`; the
//! worker is free when the device is done with it. Every client issues its
//! one operation at time 0, so all requests arrive together and queue by
//! (position in the client's issue order to that server, rank). An
//! operation ends at its last reply; bandwidth is useful bytes over the
//! makespan.

use std::collections::HashMap;

use dpfs_cluster::{run_clients, FaultProxy, Testbed};
use dpfs_core::{Dpfs, Granularity};
use dpfs_server::{PerfModel, ServeConfig};

/// A testbed whose clients reach every server through a recording proxy.
pub struct Rig {
    /// The testbed; its clients reach the servers through the proxies.
    pub tb: Testbed,
    proxies: Vec<FaultProxy>,
}

/// The data requests of one measured phase, and the useful bytes it moved.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorded {
    /// Useful payload bytes moved (excludes discarded brick padding).
    pub useful_bytes: u64,
    /// Per server, `(ranges, bytes)` of each request in queue order.
    pub servers: Vec<Vec<(usize, u64)>>,
}

impl Rig {
    /// Put a recording proxy in front of each of `tb`'s servers.
    pub fn new(mut tb: Testbed) -> Rig {
        let proxies: Vec<FaultProxy> = (0..tb.num_servers())
            .map(|i| FaultProxy::recording(tb.server_addr(i)).expect("recording proxy"))
            .collect();
        for (i, proxy) in proxies.iter().enumerate() {
            tb.route_through(i, proxy.addr());
        }
        Rig { tb, proxies }
    }

    /// Run one measured phase: `nclients` ranks in parallel, each issuing
    /// one operation with `op` and returning its useful bytes and the
    /// operation's trace ID (`FileHandle::last_trace_id`).
    pub fn record(
        &self,
        nclients: usize,
        combine: bool,
        granularity: Granularity,
        op: impl Fn(usize, &Dpfs) -> (u64, u64) + Sync,
    ) -> Recorded {
        for proxy in &self.proxies {
            proxy.take_received();
        }
        let done = run_clients(&self.tb, nclients, combine, granularity, op);
        let rank: HashMap<u64, usize> = (0..nclients).map(|r| (done[r].1, r)).collect();
        let servers = self.proxies.iter().map(|proxy| {
            let mut sent: HashMap<u64, usize> = HashMap::new();
            let received = proxy.take_received();
            let mut queue: Vec<_> = received
                .into_iter()
                .map(|req| {
                    let position = sent.entry(req.trace_id).or_default();
                    *position += 1;
                    let rank = rank.get(&req.trace_id).expect("one traced op per rank");
                    ((*position, *rank), (req.ranges, req.bytes))
                })
                .collect();
            queue.sort_by_key(|&(key, _)| key);
            queue.into_iter().map(|(_, req)| req).collect()
        });
        Recorded {
            useful_bytes: done.iter().map(|&(bytes, _)| bytes).sum(),
            servers: servers.collect(),
        }
    }
}

impl Recorded {
    /// Useful MB/s (decimal megabytes, as the paper plots) when server `i`
    /// costs `models[i]`.
    pub fn mbytes_per_sec(&self, models: &[PerfModel]) -> f64 {
        let makespan = self
            .servers
            .iter()
            .zip(models)
            .map(|(reqs, &model)| last_reply_ns(model, reqs))
            .max()
            .unwrap_or(0);
        self.useful_bytes as f64 / 1e6 / (makespan as f64 / 1e9)
    }
}

/// When the last of `reqs` — `(ranges, bytes)` in queue order, all arrived
/// at time 0 — leaves a server of `model`, in nanoseconds.
fn last_reply_ns(model: PerfModel, reqs: &[(usize, u64)]) -> u64 {
    let latency = model.request_latency.as_nanos() as u64;
    let mut free = vec![0u64; ServeConfig::default().workers];
    let (mut start, mut device) = (0u64, 0u64);
    for &(ranges, bytes) in reqs {
        // The queue is FIFO and every request holds its worker for the same
        // latency, so requests reach the device in the order they started.
        let worker = (0..free.len()).min_by_key(|&w| free[w]).unwrap_or(0);
        start = start.max(free[worker]);
        device = device.max(start + latency) + model.device_time(ranges, bytes).as_nanos() as u64;
        free[worker] = device;
    }
    device
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn model(latency_us: u64, seek_us: u64, bandwidth: u64) -> PerfModel {
        PerfModel {
            request_latency: Duration::from_micros(latency_us),
            bandwidth,
            seek_latency: Duration::from_micros(seek_us),
        }
    }

    /// The latency overlaps across workers, the device does not: as many
    /// requests as workers cost one latency plus every device time.
    #[test]
    fn workers_overlap_the_latency_and_the_device_serializes() {
        let m = model(100, 10, 1_000_000);
        let workers = ServeConfig::default().workers;
        // 1000 bytes at 1 MB/s: 1 ms, plus one 10 µs seek.
        let reqs = vec![(1, 1000); workers];
        let want = 100_000 + workers as u64 * 1_010_000;
        assert_eq!(last_reply_ns(m, &reqs), want);
    }

    /// One request more than there are workers waits for the first worker
    /// to be free, then pays its own latency before it reaches the device.
    #[test]
    fn a_request_beyond_the_workers_waits_for_one() {
        let m = model(1000, 1, u64::MAX);
        let workers = ServeConfig::default().workers;
        let reqs = vec![(1, 0); workers + 1];
        // Worker 0 is free at 1001 µs; the extra request reaches the device
        // at 2001 µs, after the other workers' requests are long done.
        assert_eq!(last_reply_ns(m, &reqs), 2_002_000);
        assert_eq!(last_reply_ns(PerfModel::unthrottled(), &reqs), 0);
    }

    /// The slowest server sets the makespan.
    #[test]
    fn the_slowest_server_decides() {
        let rec = Recorded {
            useful_bytes: 2_000_000,
            servers: vec![vec![(1, 1_000_000)], vec![(1, 1_000_000)]],
        };
        let fast = model(0, 0, 2_000_000);
        let slow = model(0, 0, 1_000_000);
        assert_eq!(rec.mbytes_per_sec(&[fast, fast]), 4.0);
        assert_eq!(rec.mbytes_per_sec(&[fast, slow]), 2.0);
    }
}
