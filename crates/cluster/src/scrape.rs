//! One scrape of the whole cluster through a client mount.
//!
//! [`scrape_cluster`] walks every node a [`Dpfs`] client can see — each
//! I/O server from the catalog, each metadata shard from the shard map,
//! and the client's own per-server transport view — and concatenates
//! them into one [`ClusterSnapshot`]. A daemon's `Stats` reply already is
//! that document, one node long; the scrape keeps the node under the name
//! it dialled. Because all nodes are read in one pass, the client-observed
//! and server-side latencies in a scrape describe the same window of
//! traffic: both sides of a percentile report come from a single scrape
//! rather than from per-component dumps taken at different times.
//!
//! Metric names are dotted and stable; each is minted in one place:
//! - iond nodes: `dpfs-server`'s `StatsSnapshot::node` — counters `io.*`,
//!   gauge `in_flight`, hists `lat.read`, `lat.write`, `lat.other`.
//! - metad nodes: `dpfs-metad`'s `MetadStatsSnapshot::node` — counters
//!   `meta.requests`, `meta.ops`, `meta.errors`, `meta.connections`;
//!   gauges `in_flight`, `shard_id`, `shards`; hists `meta.<op>`.
//! - client nodes, here: one per peer with counters `rpc.submitted`,
//!   `rpc.completed`, `rpc.timed_out`, `rpc.dials`, `rpc.disconnected`,
//!   `rpc.retries`, `rpc.reconstructs`, `rpc.list_io`, `rpc.req_bytes`;
//!   gauges `in_flight`, `in_flight_peak`; hists `lat.read`, `lat.write`,
//!   `lat.other` (round trip). Plus one `client` node carrying process
//!   observability: `trace.recorded`, `trace.dropped`, `slow_ops`.
//! - here too: a node that failed to answer its Stats RPC with one node of
//!   its role carries the single counter `scrape.unreachable = 1` instead
//!   of metrics.

use dpfs_core::trace::{self, ClusterSnapshot, NodeRole, NodeSnapshot};
use dpfs_core::Dpfs;
use dpfs_proto::{Request, Response};

/// The one counter of a node that did not answer its `Stats` RPC.
pub const UNREACHABLE: &str = "scrape.unreachable";

/// Ask the daemon dialled as `name` for its node of the stats document.
/// No reply, a payload that does not decode (a peer that predates the
/// document) or anything but one node of `role` is [`UNREACHABLE`].
fn scrape_node(fs: &Dpfs, name: &str, role: NodeRole) -> NodeSnapshot {
    let mut nodes = match fs.pool().rpc_ok(name, &Request::Stats) {
        Ok(Response::Stats { payload }) => ClusterSnapshot::decode(&payload)
            .map(|s| s.nodes)
            .unwrap_or_default(),
        _ => Vec::new(),
    };
    match nodes.pop() {
        Some(mut node) if nodes.is_empty() && node.role == role => {
            node.name = name.to_string();
            node
        }
        _ => NodeSnapshot::new(name, role, [(UNREACHABLE, 1)], [], []),
    }
}

fn client_node_for(fs: &Dpfs, server: &str) -> Option<NodeSnapshot> {
    let t = fs.pool().transport_stats(server)?;
    Some(NodeSnapshot::new(
        server,
        NodeRole::Client,
        [
            ("rpc.completed", t.completed),
            ("rpc.reconstructs", t.reconstructs),
            ("rpc.dials", t.dials),
            ("rpc.disconnected", t.disconnected),
            ("rpc.list_io", t.list_io),
            ("rpc.req_bytes", t.req_bytes),
            ("rpc.retries", t.retries),
            ("rpc.submitted", t.submitted),
            ("rpc.timed_out", t.timed_out),
        ],
        [
            ("in_flight", t.in_flight),
            ("in_flight_peak", t.in_flight_peak),
        ],
        [
            ("lat.other", t.other_latency),
            ("lat.read", t.read_latency),
            ("lat.write", t.write_latency),
        ],
    ))
}

/// Scrape every node reachable through `fs` into one [`ClusterSnapshot`]:
/// all catalog I/O servers, all metadata shards, the client's per-peer
/// transport stats, and the client's process-wide trace-ring / slow-op
/// counters.
pub fn scrape_cluster(fs: &Dpfs) -> ClusterSnapshot {
    let mut peers: Vec<(String, NodeRole)> = Vec::new();
    // I/O servers in catalog order, then metadata shards in shard order.
    let meta = fs.meta();
    if let Ok(servers) = meta.list_servers() {
        peers.extend(servers.into_iter().map(|s| (s.name, NodeRole::Iond)));
    }
    peers.extend(
        (0..meta.shard_count()).map(|i| (meta.shard_server(i).to_string(), NodeRole::Metad)),
    );
    let mut nodes: Vec<NodeSnapshot> = peers
        .iter()
        .map(|(name, role)| scrape_node(fs, name, *role))
        .collect();
    // The client's transport view of each peer it actually dialed.
    nodes.extend(
        peers
            .iter()
            .filter_map(|(name, _)| client_node_for(fs, name)),
    );
    // Process-wide client observability: how much tracing survived and
    // how many slow-op lines were emitted.
    nodes.push(NodeSnapshot::new(
        "client",
        NodeRole::Client,
        [
            ("slow_ops", trace::slowlog().emitted()),
            ("trace.dropped", trace::ring().dropped()),
            ("trace.recorded", trace::ring().recorded()),
        ],
        [],
        [],
    ));
    ClusterSnapshot { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;
    use dpfs_core::Hint;

    #[test]
    fn scrape_covers_ionds_metads_and_client() {
        let tb = Testbed::unthrottled_sharded(2, 2).expect("testbed");
        let client = tb.client(0, true);
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
        let writes = |role| -> u64 {
            snap.nodes_of(role)
                .filter_map(|n| n.hist("lat.write"))
                .map(|h| h.count)
                .sum()
        };
        assert!(writes(NodeRole::Iond) > 0);
        assert!(writes(NodeRole::Client) > 0);

        // The whole scrape survives the wire.
        let back = ClusterSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
    }
}
