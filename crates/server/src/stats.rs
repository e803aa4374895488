//! Per-server statistics counters (lock-free, relaxed ordering — they are
//! monitoring data, not synchronization), per-kind service-time
//! histograms, and the node of the stats document the `Stats` RPC returns.

use std::sync::atomic::{AtomicU64, Ordering};

use dpfs_obs::{HistSnapshot, Histogram, NodeRole, NodeSnapshot};

/// Counters exported by a running server.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Framed requests handled (all kinds).
    pub requests: AtomicU64,
    /// Read requests handled.
    pub reads: AtomicU64,
    /// Write requests handled.
    pub writes: AtomicU64,
    /// Bytes returned to clients.
    pub bytes_read: AtomicU64,
    /// Bytes accepted from clients.
    pub bytes_written: AtomicU64,
    /// Error responses sent.
    pub errors: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Requests currently being serviced (gauge).
    pub in_flight: AtomicU64,
    /// List-I/O reads handled (`ReadList`: one pattern descriptor expanded
    /// server-side instead of an enumerated range list).
    pub list_reads: AtomicU64,
    /// List-I/O writes handled (`WriteList`).
    pub list_writes: AtomicU64,
    /// Service time (dequeue → response ready) of read requests.
    pub hist_read: Histogram,
    /// Service time of write requests.
    pub hist_write: Histogram,
    /// Service time of everything else.
    pub hist_other: Histogram,
}

/// A plain-data snapshot of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub requests: u64,
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub errors: u64,
    pub connections: u64,
    /// Requests being serviced at snapshot time (gauge).
    pub in_flight: u64,
    /// Subfiles re-opened from surviving on-disk data (restart recovery):
    /// the store counts them, `Handler::stats_snapshot` fills this in.
    pub subfiles_reopened: u64,
    /// List-I/O reads served (pattern descriptors expanded server-side).
    pub list_reads: u64,
    /// List-I/O writes served.
    pub list_writes: u64,
    /// Service-time histogram of reads.
    pub read_latency: HistSnapshot,
    /// Service-time histogram of writes.
    pub write_latency: HistSnapshot,
    /// Service-time histogram of all other request kinds.
    pub other_latency: HistSnapshot,
}

impl ServerStats {
    /// Capture a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            subfiles_reopened: 0,
            list_reads: self.list_reads.load(Ordering::Relaxed),
            list_writes: self.list_writes.load(Ordering::Relaxed),
            read_latency: self.hist_read.snapshot(),
            write_latency: self.hist_write.snapshot(),
            other_latency: self.hist_other.snapshot(),
        }
    }

    /// Add `n` to one of this struct's counters.
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// The service-time histogram for one request kind (as named by
    /// `Request::kind_str`).
    pub fn hist_for(&self, kind: &str) -> &Histogram {
        match kind {
            "read" | "read_list" => &self.hist_read,
            "write" | "write_list" => &self.hist_write,
            _ => &self.hist_other,
        }
    }
}

impl StatsSnapshot {
    /// This snapshot as one node of the stats document: the `Stats` RPC
    /// answers `ClusterSnapshot { nodes: vec![node] }`. The I/O server's
    /// metric names are minted here — counters `io.*`, gauge `in_flight`,
    /// service-time histograms `lat.read`, `lat.write`, `lat.other` (list
    /// I/O folds into the read/write ones).
    pub fn node(&self, name: &str) -> NodeSnapshot {
        NodeSnapshot::new(
            name,
            NodeRole::Iond,
            [
                ("io.bytes_read", self.bytes_read),
                ("io.bytes_written", self.bytes_written),
                ("io.connections", self.connections),
                ("io.errors", self.errors),
                ("io.list_reads", self.list_reads),
                ("io.list_writes", self.list_writes),
                ("io.reads", self.reads),
                ("io.requests", self.requests),
                ("io.subfiles_reopened", self.subfiles_reopened),
                ("io.writes", self.writes),
            ],
            [("in_flight", self.in_flight)],
            [
                ("lat.other", self.other_latency),
                ("lat.read", self.read_latency),
                ("lat.write", self.write_latency),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let s = ServerStats::default();
        s.add(&s.requests, 3);
        s.add(&s.bytes_read, 1024);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.bytes_read, 1024);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let s = std::sync::Arc::new(ServerStats::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.add(&s.requests, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().requests, 8000);
    }

    #[test]
    fn hist_for_routes_by_kind() {
        let s = ServerStats::default();
        s.hist_for("read").record(100);
        s.hist_for("write").record(200);
        s.hist_for("ping").record(300);
        let snap = s.snapshot();
        assert_eq!(snap.read_latency.count, 1);
        assert_eq!(snap.write_latency.count, 1);
        assert_eq!(snap.other_latency.count, 1);
    }

    #[test]
    fn node_names_every_counter_and_survives_the_wire() {
        let s = ServerStats::default();
        s.add(&s.requests, 7);
        s.add(&s.reads, 4);
        s.add(&s.list_reads, 3);
        s.add(&s.list_writes, 2);
        s.add(&s.bytes_written, 1 << 30);
        s.in_flight.store(2, Ordering::Relaxed);
        s.hist_for("read_list").record(5_000);
        s.hist_for("write").record(9);
        let snap = StatsSnapshot {
            subfiles_reopened: 5,
            ..s.snapshot()
        };
        let sent = dpfs_obs::ClusterSnapshot {
            nodes: vec![snap.node("ion07")],
        };
        let back = dpfs_obs::ClusterSnapshot::decode(&sent.encode()).unwrap();
        assert_eq!(back, sent);
        let node = &back.nodes[0];
        assert_eq!((node.name.as_str(), node.role), ("ion07", NodeRole::Iond));
        assert_eq!(node.counters.len(), 10);
        assert!(node.counters.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(node.counter("io.requests"), Some(7));
        assert_eq!(node.counter("io.reads"), Some(4));
        assert_eq!(node.counter("io.list_reads"), Some(3));
        assert_eq!(node.counter("io.list_writes"), Some(2));
        assert_eq!(node.counter("io.bytes_written"), Some(1 << 30));
        assert_eq!(node.counter("io.subfiles_reopened"), Some(5));
        assert_eq!(node.gauge("in_flight"), Some(2));
        assert_eq!(node.hist("lat.read").unwrap().count, 1);
        assert_eq!(node.hist("lat.write").unwrap().count, 1);
        assert_eq!(node.hist("lat.other").unwrap().count, 0);
    }
}
