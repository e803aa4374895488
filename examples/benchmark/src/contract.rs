//! The names, units and directions this benchmark reports, in output
//! order. `BENCHMARK.json` at the repository root declares the same
//! tables; a test below holds the two together.

/// Every bound is the widest the contract allows, because the reference
/// sandbox is unsteady: the host's speed changes between modes that move
/// the medians by up to a quarter (README, "Noise").
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: 0.25,
    }
}

/// All on the wall clock of the untraced window, nothing corrected.
/// `cpu_ms_per_op` is not among them: on the latency-bound workloads it
/// spreads twice as wide as the rate it is divided by (README, "End-to-end
/// metrics"); it is printed and recorded with every run and reported per
/// layer as `client.cpu_ms_per_op`.
pub const END_TO_END: [EndToEnd; 4] = [
    gated("ops_per_s", "1/s", "higher"),
    gated("lat_p50_us", "us", "lower"),
    gated("setup_s", "s", "lower"),
    gated("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)`. Times are microseconds: the median of spans
/// and replay calls, the mean of histogram deltas (the program's
/// histograms have power-of-two buckets, so only their sums are exact).
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("core.fs.open_us", "us", "lower"),
    ("core.fs.create_us", "us", "lower"),
    ("core.fs.stat_us", "us", "lower"),
    ("core.fs.rename_us", "us", "lower"),
    ("core.fs.unlink_us", "us", "lower"),
    ("core.file.read_us", "us", "lower"),
    ("core.file.write_us", "us", "lower"),
    ("core.file.residual_us", "us", "lower"),
    ("core.layout.map_us", "us", "lower"),
    ("core.plan.plan_us", "us", "lower"),
    ("core.plan.requests_per_op", "count", "lower"),
    ("core.plan.wire_efficiency", "ratio", "higher"),
    ("proto.pattern.compress_us", "us", "lower"),
    ("proto.pattern.expand_us", "us", "lower"),
    ("proto.message.encode_us", "us", "lower"),
    ("proto.message.decode_us", "us", "lower"),
    ("proto.message.server_decode_us", "us", "lower"),
    ("proto.message.server_encode_us", "us", "lower"),
    ("proto.frame.crc_mb_s", "MB/s", "higher"),
    ("core.transport.ping_rtt_us", "us", "lower"),
    ("core.transport.ping_rtt_p95_us", "us", "lower"),
    ("core.transport.rpc_us", "us", "lower"),
    ("core.transport.rpcs_per_op", "count", "lower"),
    ("core.transport.req_bytes_per_op", "B", "lower"),
    ("core.transport.list_io_share", "ratio", "higher"),
    ("core.transport.in_flight_peak", "count", "higher"),
    ("core.transport.retries", "count", "lower"),
    ("core.meta_cache.hit_ratio", "ratio", "higher"),
    ("core.remote_meta.rpcs_per_op", "count", "lower"),
    ("core.remote_meta.rpc_us", "us", "lower"),
    ("server.handler.service_us", "us", "lower"),
    ("server.handler.requests_per_op", "count", "lower"),
    ("server.handler.errors", "count", "lower"),
    ("server.handler.direct_us", "us", "lower"),
    ("server.subfile.read_us", "us", "lower"),
    ("server.subfile.write_us", "us", "lower"),
    ("server.service.rpc_gap_us", "us", "lower"),
    ("metad.handler.service_us", "us", "lower"),
    ("metad.handler.ops_per_op", "count", "lower"),
    ("metad.service.rpc_gap_us", "us", "lower"),
    ("metad.handler.direct_stat_us", "us", "lower"),
    ("metad.handler.direct_create_us", "us", "lower"),
    ("meta.sql.parse_us", "us", "lower"),
    ("meta.db.exec_us", "us", "lower"),
    ("meta.catalog.get_attr_us", "us", "lower"),
    ("meta.catalog.create_delete_us", "us", "lower"),
    ("meta.wal.commit_us", "us", "lower"),
    ("meta.wal.fsync_us", "us", "lower"),
    ("meta.db.decay_ratio", "ratio", "higher"),
    ("obs.trace.dropped", "count", "lower"),
    ("obs.trace.recorded_per_op", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("client.lat_p50_us", "us", "lower"),
    ("client.lat_p95_us", "us", "lower"),
    ("client.lat_p99_us", "us", "lower"),
    ("client.cpu_ms_per_op", "ms", "lower"),
    ("client.fail_ratio", "ratio", "lower"),
    ("host.steal_ratio", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads;

    fn declared(doc: &Json, section: &str) -> Vec<(String, String, String)> {
        doc.get(section)
            .expect("section")
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");

        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        for (m, d) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").unwrap().as_arr())
        {
            assert_eq!(
                d.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);

        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, workloads::NAMES);
    }
}
