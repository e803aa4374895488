//! One scrape of the whole cluster through a client mount.
//!
//! [`scrape_cluster`] walks every node a [`Dpfs`] client can see — each
//! I/O server from the catalog, each metadata shard from the shard map,
//! and the client's own per-server transport view — issues the existing
//! `Stats` RPC to the remote ones, and flattens everything into one
//! [`ClusterSnapshot`]. Because all nodes are read in one pass, the
//! client-observed and server-side latencies in a scrape describe the
//! same window of traffic: the scenario harness derives both sides of
//! its percentile report from a single scrape rather than stitching
//! together per-component dumps taken at different times.
//!
//! Metric names are dotted, stable, and documented here:
//! - iond counters: `io.requests`, `io.reads`, `io.writes`,
//!   `io.list_reads`, `io.list_writes`, `io.bytes_read`,
//!   `io.bytes_written`, `io.errors`, `io.connections`,
//!   `io.injected_delay_ns`, `io.subfiles_reopened`; gauge `in_flight`;
//!   hists `lat.read`, `lat.write`, `lat.other` (service time; list I/O
//!   folds into the read/write histograms).
//! - metad counters: `meta.requests`, `meta.ops`, `meta.errors`,
//!   `meta.connections`; gauges `in_flight`, `shard_id`, `shards`; hists `meta.<op>` per op label (service time).
//! - client (one node per peer): counters `rpc.submitted`,
//!   `rpc.completed`, `rpc.timed_out`, `rpc.dials`, `rpc.disconnected`,
//!   `rpc.retries`, `rpc.reconstructs`, `rpc.list_io`, `rpc.req_bytes`;
//!   gauges `in_flight`, `in_flight_peak`; hists `lat.read`, `lat.write`,
//!   `lat.other` (round trip). Plus one `client` node carrying process
//!   observability: `trace.recorded`, `trace.dropped`, `slow_ops`.
//! - a node that failed to answer its Stats RPC carries the single
//!   counter `scrape.unreachable = 1` instead of metrics.

use dpfs_core::trace::{self, ClusterSnapshot, NodeRole, NodeSnapshot};
use dpfs_core::Dpfs;
use dpfs_metad::MetadStatsSnapshot;
use dpfs_proto::{Request, Response};
use dpfs_server::StatsSnapshot;

fn unreachable_node(name: String, role: NodeRole) -> NodeSnapshot {
    NodeSnapshot {
        name,
        role,
        counters: vec![("scrape.unreachable".to_string(), 1)],
        gauges: vec![],
        hists: vec![],
    }
}

fn iond_node(name: String, s: &StatsSnapshot) -> NodeSnapshot {
    NodeSnapshot {
        name,
        role: NodeRole::Iond,
        counters: vec![
            ("io.bytes_read".to_string(), s.bytes_read),
            ("io.bytes_written".to_string(), s.bytes_written),
            ("io.connections".to_string(), s.connections),
            ("io.errors".to_string(), s.errors),
            ("io.injected_delay_ns".to_string(), s.injected_delay_ns),
            ("io.list_reads".to_string(), s.list_reads),
            ("io.list_writes".to_string(), s.list_writes),
            ("io.reads".to_string(), s.reads),
            ("io.requests".to_string(), s.requests),
            ("io.subfiles_reopened".to_string(), s.subfiles_reopened),
            ("io.writes".to_string(), s.writes),
        ],
        gauges: vec![("in_flight".to_string(), s.in_flight)],
        hists: vec![
            ("lat.other".to_string(), s.other_latency),
            ("lat.read".to_string(), s.read_latency),
            ("lat.write".to_string(), s.write_latency),
        ],
    }
}

fn metad_node(name: String, s: &MetadStatsSnapshot) -> NodeSnapshot {
    NodeSnapshot {
        name,
        role: NodeRole::Metad,
        counters: vec![
            ("meta.connections".to_string(), s.connections),
            ("meta.errors".to_string(), s.errors),
            ("meta.ops".to_string(), s.meta_ops),
            ("meta.requests".to_string(), s.requests),
        ],
        gauges: vec![
            ("in_flight".to_string(), s.in_flight),
            ("shard_id".to_string(), s.shard_id),
            ("shards".to_string(), s.shards),
        ],
        // Daemon op kinds already carry the `meta.` prefix
        // (`MetaOp::kind`), so the key is used as-is.
        hists: s
            .op_latency
            .iter()
            .map(|(op, h)| (op.clone(), *h))
            .collect(),
    }
}

fn client_node_for(fs: &Dpfs, server: &str) -> Option<NodeSnapshot> {
    let t = fs.pool().transport_stats(server)?;
    Some(NodeSnapshot {
        name: server.to_string(),
        role: NodeRole::Client,
        counters: vec![
            ("rpc.completed".to_string(), t.completed),
            ("rpc.reconstructs".to_string(), t.reconstructs),
            ("rpc.dials".to_string(), t.dials),
            ("rpc.disconnected".to_string(), t.disconnected),
            ("rpc.list_io".to_string(), t.list_io),
            ("rpc.req_bytes".to_string(), t.req_bytes),
            ("rpc.retries".to_string(), t.retries),
            ("rpc.submitted".to_string(), t.submitted),
            ("rpc.timed_out".to_string(), t.timed_out),
        ],
        gauges: vec![
            ("in_flight".to_string(), t.in_flight),
            ("in_flight_peak".to_string(), t.in_flight_peak),
        ],
        hists: vec![
            ("lat.other".to_string(), t.other_latency),
            ("lat.read".to_string(), t.read_latency),
            ("lat.write".to_string(), t.write_latency),
        ],
    })
}

/// Scrape every node reachable through `fs` into one [`ClusterSnapshot`]:
/// all catalog I/O servers, all metadata shards (when remote-mounted),
/// the client's per-peer transport stats, and the client's process-wide
/// trace-ring / slow-op counters.
pub fn scrape_cluster(fs: &Dpfs) -> ClusterSnapshot {
    let mut nodes = Vec::new();
    let mut peers: Vec<String> = Vec::new();

    // I/O servers, in catalog order.
    if let Ok(servers) = fs.meta().list_servers() {
        for s in &servers {
            peers.push(s.name.clone());
            let node = match fs.pool().rpc_ok(&s.name, &Request::Stats) {
                Ok(Response::Stats { payload }) => {
                    StatsSnapshot::decode(&payload).map(|snap| iond_node(s.name.clone(), &snap))
                }
                _ => None,
            };
            nodes.push(node.unwrap_or_else(|| unreachable_node(s.name.clone(), NodeRole::Iond)));
        }
    }

    // Metadata shards, in shard order (embedded-catalog mounts have none).
    if let Some(remote) = fs.remote_meta() {
        for shard in 0..remote.shard_count() {
            let name = remote.shard_server(shard).to_string();
            peers.push(name.clone());
            let node = match fs.pool().rpc_ok(&name, &Request::Stats) {
                Ok(Response::Stats { payload }) => {
                    MetadStatsSnapshot::decode(&payload).map(|snap| metad_node(name.clone(), &snap))
                }
                _ => None,
            };
            nodes.push(node.unwrap_or_else(|| unreachable_node(name.clone(), NodeRole::Metad)));
        }
    }

    // The client's transport view of each peer it actually dialed.
    for peer in &peers {
        if let Some(node) = client_node_for(fs, peer) {
            nodes.push(node);
        }
    }

    // Process-wide client observability: how much tracing survived and
    // how many slow-op lines were emitted.
    nodes.push(NodeSnapshot {
        name: "client".to_string(),
        role: NodeRole::Client,
        counters: vec![
            ("slow_ops".to_string(), trace::slowlog().emitted()),
            ("trace.dropped".to_string(), trace::ring().dropped()),
            ("trace.recorded".to_string(), trace::ring().recorded()),
        ],
        gauges: vec![],
        hists: vec![],
    });

    ClusterSnapshot { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;
    use dpfs_core::Hint;

    #[test]
    fn scrape_covers_ionds_metads_and_client() {
        let tb = Testbed::unthrottled_with_metad_shards(2, 2).expect("testbed");
        let client = tb.remote_client(0, true);
        client
            .create("/scrape.dat", &Hint::linear(4096, 4096))
            .unwrap();
        {
            let mut f = client.open("/scrape.dat").unwrap();
            f.write_bytes(0, &[7u8; 8192]).unwrap();
            assert_eq!(f.read_bytes(0, 8192).unwrap().len(), 8192);
            f.sync().unwrap();
        }

        let snap = scrape_cluster(&client);

        let ionds: Vec<_> = snap.nodes_of(NodeRole::Iond).collect();
        assert_eq!(ionds.len(), 2);
        assert!(
            snap.counter_sum(NodeRole::Iond, "io.requests") > 0,
            "servers saw traffic"
        );
        assert!(snap.counter_sum(NodeRole::Iond, "io.bytes_written") >= 8192);
        // List-I/O counters are present on both planes (this particular
        // traffic is single-range-per-server, so the cost model may have
        // shipped it legacy — presence, not magnitude, is asserted here).
        assert!(ionds[0].counter("io.list_reads").is_some());
        assert!(ionds[0].counter("io.list_writes").is_some());

        let metads: Vec<_> = snap.nodes_of(NodeRole::Metad).collect();
        assert_eq!(metads.len(), 2);
        assert!(snap.counter_sum(NodeRole::Metad, "meta.ops") > 0);
        for m in &metads {
            assert_eq!(m.gauge("shards"), Some(2));
        }

        // Client transport rows exist for at least the I/O servers, and
        // the process node reports the trace ring.
        assert!(snap.nodes_of(NodeRole::Client).count() >= 3);
        assert!(snap.counter_sum(NodeRole::Client, "rpc.req_bytes") > 0);
        assert!(snap
            .nodes_of(NodeRole::Client)
            .any(|n| n.counter("rpc.list_io").is_some()));
        let proc = snap.node("client").unwrap();
        assert!(proc.counter("trace.recorded").unwrap() > 0);
        assert!(proc.counter("trace.dropped").is_some());

        // Server-side and client-side views of the same traffic: both
        // write histograms saw the writes.
        let server_w = snap.merged_hist(NodeRole::Iond, |n| n == "lat.write");
        let client_w = snap.merged_hist(NodeRole::Client, |n| n == "lat.write");
        assert!(server_w.count > 0);
        assert!(client_w.count > 0);

        // The whole scrape survives the wire.
        let back = ClusterSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn embedded_mount_scrapes_without_metad_section() {
        let tb = Testbed::unthrottled(2).expect("testbed");
        let client = tb.client(0, true);
        client.create("/e.dat", &Hint::linear(4096, 4096)).unwrap();
        let snap = scrape_cluster(&client);
        assert_eq!(snap.nodes_of(NodeRole::Iond).count(), 2);
        assert_eq!(snap.nodes_of(NodeRole::Metad).count(), 0);
        assert!(snap.node("client").is_some());
    }
}
