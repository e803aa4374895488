//! The one stats document: a wire-serializable snapshot covering every
//! node of a DPFS deployment.
//!
//! Every node is flattened into the same generic shape — named counters,
//! named gauges, named histograms. A daemon's `Stats` RPC answers a
//! one-node [`ClusterSnapshot`] (`StatsSnapshot::node` in `dpfs-server`,
//! `MetadStatsSnapshot::node` in `dpfs-metad` name the rows), and a
//! cluster scrape is those nodes concatenated with the client's own
//! transport view, so the bench plane, the regression gate, `stats` and
//! `stats --json` all read one document and one encoding.
//!
//! The encoding is a leading version byte, then length-prefixed fields.
//! Decoders return `None` (never panic) on unknown versions or truncation,
//! and ignore trailing bytes, so old readers tolerate blobs from newer
//! writers that append sections.

use crate::hist::HistSnapshot;

/// Which kind of node a [`NodeSnapshot`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeRole {
    /// An I/O server (`dpfs-iond`).
    #[default]
    Iond,
    /// A metadata daemon (`dpfs-metad`), one per shard.
    Metad,
    /// The scraping client's own transport/cache view of one peer.
    Client,
}

impl NodeRole {
    fn to_byte(self) -> u8 {
        match self {
            NodeRole::Iond => 0,
            NodeRole::Metad => 1,
            NodeRole::Client => 2,
        }
    }

    fn from_byte(b: u8) -> Option<NodeRole> {
        match b {
            0 => Some(NodeRole::Iond),
            1 => Some(NodeRole::Metad),
            2 => Some(NodeRole::Client),
            _ => None,
        }
    }

    /// Stable lowercase label (JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            NodeRole::Iond => "iond",
            NodeRole::Metad => "metad",
            NodeRole::Client => "client",
        }
    }
}

/// One node's metrics, flattened to named rows. Counter/gauge/histogram
/// names are dotted paths (`io.reads`, `lat.read`, `meta.mkdir`), unique
/// within their kind on one node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeSnapshot {
    /// Node name (`ion00`, `metad1`, ...). For `Client` rows, the peer the
    /// transport talks to.
    pub name: String,
    /// What produced these metrics.
    pub role: NodeRole,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Latency histograms, sorted by name.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl NodeSnapshot {
    /// A node from rows named by the crate that mints them, in the order
    /// given.
    pub fn new<'a>(
        name: &str,
        role: NodeRole,
        counters: impl IntoIterator<Item = (&'a str, u64)>,
        gauges: impl IntoIterator<Item = (&'a str, u64)>,
        hists: impl IntoIterator<Item = (&'a str, HistSnapshot)>,
    ) -> NodeSnapshot {
        NodeSnapshot {
            name: name.to_string(),
            role,
            counters: counters.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            gauges: gauges.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            hists: hists.into_iter().map(|(k, h)| (k.into(), h)).collect(),
        }
    }

    /// A counter's value, if the node exports it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// A gauge's value, if the node exports it.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A histogram, if the node exports it.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// Version byte of the [`ClusterSnapshot`] wire encoding. The `Stats` RPC
/// used to carry per-daemon blobs led by 1, 2, 3 (I/O server) and 0x4d,
/// 0x4e (metadata daemon); this byte is none of them, so a peer from
/// either side of that change decodes the other's payload to `None`, not
/// to shifted fields.
const CLUSTER_SNAPSHOT_VERSION: u8 = 0x43;

/// One scrape of the whole cluster: every I/O server, every metadata
/// shard, and the scraping client's transport view, in one document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterSnapshot {
    /// All scraped nodes, in scrape order (ionds, then metads, then
    /// client transports).
    pub nodes: Vec<NodeSnapshot>,
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_u32(rest: &mut &[u8]) -> Option<u32> {
    let (head, tail) = rest.split_at_checked(4)?;
    *rest = tail;
    Some(u32::from_le_bytes(head.try_into().ok()?))
}

fn read_u64(rest: &mut &[u8]) -> Option<u64> {
    let (head, tail) = rest.split_at_checked(8)?;
    *rest = tail;
    Some(u64::from_le_bytes(head.try_into().ok()?))
}

fn read_str(rest: &mut &[u8]) -> Option<String> {
    let len = read_u32(rest)? as usize;
    let (head, tail) = rest.split_at_checked(len)?;
    *rest = tail;
    String::from_utf8(head.to_vec()).ok()
}

/// A section's entry count, refused when `rest` could not hold that many
/// entries of at least `min_len` bytes: the count is the peer's word, and
/// what it reserves must not outgrow the blob.
fn read_count(rest: &mut &[u8], min_len: usize) -> Option<usize> {
    let n = read_u32(rest)? as usize;
    (n <= rest.len() / min_len).then_some(n)
}

impl ClusterSnapshot {
    /// A node by name (first match).
    pub fn node(&self, name: &str) -> Option<&NodeSnapshot> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// All nodes of one role.
    pub fn nodes_of(&self, role: NodeRole) -> impl Iterator<Item = &NodeSnapshot> {
        self.nodes.iter().filter(move |n| n.role == role)
    }

    /// Sum of one counter across all nodes of `role` (saturating: the
    /// values are the peers').
    pub fn counter_sum(&self, role: NodeRole, name: &str) -> u64 {
        self.nodes_of(role)
            .filter_map(|n| n.counter(name))
            .fold(0, u64::saturating_add)
    }

    /// Render the snapshot as one JSON document for machine consumers
    /// (`stats --json`): an array of node objects, counters and gauges as
    /// maps, histograms summarized to count/mean/p50/p95/p99 in
    /// microseconds.
    pub fn to_json(&self) -> String {
        use crate::ring::escape_json as esc;
        use std::fmt::Write as _;
        let mut out = String::from("{\"nodes\":[");
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"role\":\"{}\",\"counters\":{{",
                esc(&node.name),
                node.role.as_str()
            );
            for (j, (k, v)) in node.counters.iter().enumerate() {
                let _ = write!(out, "{}\"{}\":{v}", if j > 0 { "," } else { "" }, esc(k));
            }
            out.push_str("},\"gauges\":{");
            for (j, (k, v)) in node.gauges.iter().enumerate() {
                let _ = write!(out, "{}\"{}\":{v}", if j > 0 { "," } else { "" }, esc(k));
            }
            out.push_str("},\"hists\":{");
            for (j, (k, h)) in node.hists.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{}\":{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
                    if j > 0 { "," } else { "" },
                    esc(k),
                    h.count,
                    h.mean() / 1_000,
                    h.p50() / 1_000,
                    h.p95() / 1_000,
                    h.p99() / 1_000,
                );
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Serialize: version byte, node count, then per node the role byte,
    /// name, and the three length-prefixed row sections.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.nodes.len() * 256);
        out.push(CLUSTER_SNAPSHOT_VERSION);
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for node in &self.nodes {
            out.push(node.role.to_byte());
            push_str(&mut out, &node.name);
            out.extend_from_slice(&(node.counters.len() as u32).to_le_bytes());
            for (name, v) in &node.counters {
                push_str(&mut out, name);
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(node.gauges.len() as u32).to_le_bytes());
            for (name, v) in &node.gauges {
                push_str(&mut out, name);
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(node.hists.len() as u32).to_le_bytes());
            for (name, h) in &node.hists {
                push_str(&mut out, name);
                h.encode_into(&mut out);
            }
        }
        out
    }

    /// Decode an [`ClusterSnapshot::encode`] blob. `None` on truncation
    /// or an unknown version byte; trailing bytes after the declared
    /// sections are ignored (a newer writer may append more).
    pub fn decode(buf: &[u8]) -> Option<ClusterSnapshot> {
        let (&version, mut rest) = buf.split_first()?;
        if version != CLUSTER_SNAPSHOT_VERSION {
            return None;
        }
        // A node is at least a role byte, a name and three section counts;
        // a row at least its name's length and its value.
        let n_nodes = read_count(&mut rest, 1 + 4 * 4)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let (&role, tail) = rest.split_first()?;
            rest = tail;
            let role = NodeRole::from_byte(role)?;
            let name = read_str(&mut rest)?;
            let n = read_count(&mut rest, 4 + 8)?;
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                let key = read_str(&mut rest)?;
                counters.push((key, read_u64(&mut rest)?));
            }
            let n = read_count(&mut rest, 4 + 8)?;
            let mut gauges = Vec::with_capacity(n);
            for _ in 0..n {
                let key = read_str(&mut rest)?;
                gauges.push((key, read_u64(&mut rest)?));
            }
            let n = read_count(&mut rest, 4 + HistSnapshot::ENCODED_LEN)?;
            let mut hists = Vec::with_capacity(n);
            for _ in 0..n {
                let key = read_str(&mut rest)?;
                let (h, used) = HistSnapshot::decode_from(rest)?;
                rest = &rest[used..];
                hists.push((key, h));
            }
            nodes.push(NodeSnapshot {
                name,
                role,
                counters,
                gauges,
                hists,
            });
        }
        Some(ClusterSnapshot { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn sample() -> ClusterSnapshot {
        let h = Histogram::new();
        h.record(1_000);
        h.record(1_000_000);
        ClusterSnapshot {
            nodes: vec![
                NodeSnapshot {
                    name: "ion00".into(),
                    role: NodeRole::Iond,
                    counters: vec![("io.reads".into(), 7), ("io.writes".into(), 3)],
                    gauges: vec![("in_flight".into(), 1)],
                    hists: vec![("lat.read".into(), h.snapshot())],
                },
                NodeSnapshot {
                    name: "metad0".into(),
                    role: NodeRole::Metad,
                    counters: vec![("meta.ops".into(), 42)],
                    gauges: vec![],
                    hists: vec![],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample();
        let blob = snap.encode();
        let back = ClusterSnapshot::decode(&blob).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.node("ion00").unwrap().counter("io.reads"), Some(7));
        assert_eq!(back.counter_sum(NodeRole::Iond, "io.reads"), 7);
    }

    #[test]
    fn trailing_bytes_are_tolerated() {
        let mut blob = sample().encode();
        blob.extend_from_slice(b"future section");
        assert_eq!(ClusterSnapshot::decode(&blob).unwrap(), sample());
    }

    #[test]
    fn unknown_version_and_truncation_decode_to_none() {
        let mut blob = sample().encode();
        for cut in [0, 1, 3, blob.len() / 2, blob.len() - 1] {
            assert!(ClusterSnapshot::decode(&blob[..cut]).is_none(), "cut {cut}");
        }
        blob[0] = 99;
        assert!(ClusterSnapshot::decode(&blob).is_none());
    }

    #[test]
    fn json_rendering_is_shaped_and_escaped() {
        let mut snap = sample();
        snap.nodes[0].name = "io\"n".into();
        let json = snap.to_json();
        assert!(json.starts_with("{\"nodes\":["));
        assert!(json.contains("\"name\":\"io\\\"n\""));
        assert!(json.contains("\"role\":\"iond\""));
        assert!(json.contains("\"io.reads\":7"));
        assert!(json.contains("\"lat.read\":{\"count\":2,"));
        assert!(json.contains("\"role\":\"metad\""));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }
}
