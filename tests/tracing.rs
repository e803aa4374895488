//! End-to-end tracing proofs:
//!
//! - one traced `DPFS_Read` spanning several servers produces a single
//!   trace: the client's plan/submit/await phases and every involved
//!   server's queue/device/delay/handle events share one trace ID;
//! - the redundant tail of an operation — the parity rewrite of an
//!   `XorParity` write, the mirror read of a `Replica` reconstruction —
//!   travels under the operation's trace ID like everything before it;
//! - `unlink` and `rename` — no handle, no data — are operations like any
//!   other: one trace ID each, one submit, one await, every server in it;
//! - the `Stats` RPC returns a decodable snapshot with populated latency
//!   histograms;
//! - a v1 (`DPFS`, uncorrelated) frame is refused by both daemons: its
//!   connection is severed, and no other.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dpfs::cluster::{NodeSpec, Testbed};
use dpfs::core::trace::{ring, Side, TraceEvent};
use dpfs::core::{ClientOptions, Hint, RedundancyPolicy, RetryPolicy};
use dpfs::metad::{MetaServer, MetadConfig};
use dpfs::proto::{frame, Request, Response};
use dpfs::server::{IoServer, PerfModel, ServerConfig, StatsSnapshot};

/// Servers with enough injected latency that queue/device/delay spans have
/// visible (nonzero) durations.
fn traced_testbed(n: usize) -> Testbed {
    let model = PerfModel {
        request_latency: Duration::from_millis(2),
        bandwidth: u64::MAX,
        seek_latency: Duration::from_millis(1),
    };
    let specs: Vec<NodeSpec> = (0..n).map(|i| NodeSpec::with_model(i, model)).collect();
    Testbed::start(&specs).unwrap()
}

#[test]
fn one_read_one_trace_across_servers() {
    let tb = traced_testbed(4);
    let client = tb.client_opts(ClientOptions::default());
    // 16 bricks round-robin over 4 servers: every server holds data.
    let file_bytes = 16 * 4096u64;
    client
        .create("/traced", &Hint::linear(4096, file_bytes))
        .unwrap();
    {
        let mut f = client.open("/traced").unwrap();
        f.write_bytes(0, &vec![0xA5; file_bytes as usize]).unwrap();
    }

    let cursor = ring().cursor();
    let mut f = client.open("/traced").unwrap();
    let data = f.read_bytes(0, file_bytes).unwrap();
    assert_eq!(data.len(), file_bytes as usize);
    let trace = f.last_trace_id();
    assert_ne!(trace, 0, "every read must be assigned a trace ID");

    let events: Vec<_> = ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.trace_id == trace)
        .collect();

    // Client phases of the operation, all under the same trace ID.
    let client_phases: HashSet<&str> = events
        .iter()
        .filter(|e| e.side == Side::Client)
        .map(|e| e.phase)
        .collect();
    for phase in ["plan", "submit", "await", "rpc", "op"] {
        assert!(
            client_phases.contains(phase),
            "missing client phase {phase:?}; got {client_phases:?}"
        );
    }

    // The read fanned out: per-server rpc spans name >= 2 distinct servers.
    let rpc_servers: HashSet<&str> = events
        .iter()
        .filter(|e| e.side == Side::Client && e.phase == "rpc")
        .map(|e| e.server.as_str())
        .collect();
    assert!(
        rpc_servers.len() >= 2,
        "read must span multiple servers, got {rpc_servers:?}"
    );

    // Every server the client talked to joined the trace with its own
    // events: queue wait, device time, injected delay, and the handle span.
    for server in &rpc_servers {
        for phase in ["queue", "device", "delay", "handle"] {
            let ev = events
                .iter()
                .find(|e| e.side == Side::Server && e.phase == phase && e.server == *server);
            assert!(
                ev.is_some(),
                "server {server} recorded no {phase:?} event for trace {trace}"
            );
        }
        // The injected request latency (2ms) is visible in the delay span.
        let delay = events
            .iter()
            .find(|e| e.side == Side::Server && e.phase == "delay" && e.server == *server)
            .unwrap();
        assert!(
            delay.dur_ns >= 2_000_000,
            "delay span {}ns below the injected 2ms",
            delay.dur_ns
        );
    }

    // Distinct operations get distinct trace IDs.
    let mut f2 = client.open("/traced").unwrap();
    f2.read_bytes(0, 4096).unwrap();
    assert_ne!(f2.last_trace_id(), trace);
    assert_ne!(f2.last_trace_id(), 0);
}

#[test]
fn stats_rpc_returns_live_histograms() {
    let tb = traced_testbed(2);
    let client = tb.client_opts(ClientOptions::default());
    client.create("/s", &Hint::linear(1024, 8 * 1024)).unwrap();
    {
        let mut f = client.open("/s").unwrap();
        f.write_bytes(0, &vec![1u8; 8 * 1024]).unwrap();
    }
    let mut f = client.open("/s").unwrap();
    f.read_bytes(0, 8 * 1024).unwrap();

    for name in ["ion00", "ion01"] {
        let resp = client.pool().rpc_ok(name, &Request::Stats).unwrap();
        let Response::Stats { payload } = resp else {
            panic!("expected Stats response, got {resp:?}");
        };
        let snap = StatsSnapshot::decode(&payload).expect("decodable snapshot");
        assert!(snap.requests > 0, "{name}: {snap:?}");
        assert!(snap.reads > 0, "{name}: {snap:?}");
        assert!(snap.writes > 0, "{name}: {snap:?}");
        assert!(snap.read_latency.count > 0, "{name}: {snap:?}");
        assert!(snap.write_latency.count > 0, "{name}: {snap:?}");
        // Service time includes the injected 2ms request latency.
        assert!(
            snap.read_latency.p50() >= 2_000_000,
            "{name}: read p50 {}ns below injected delay",
            snap.read_latency.p50()
        );
    }
}

/// The events recorded since `cursor` under `trace`.
fn events_of(trace: u64, cursor: u64) -> Vec<TraceEvent> {
    ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.trace_id == trace)
        .collect()
}

/// `server` answered a `kind` RPC of this trace: the client recorded its
/// `rpc` span and the server its own `handle` event.
fn answered(events: &[TraceEvent], server: &str, kind: &str) -> bool {
    let has = |side: Side, phase: &str| {
        events
            .iter()
            .any(|e| e.side == side && e.phase == phase && e.kind == kind && e.server == server)
    };
    has(Side::Client, "rpc") && has(Side::Server, "handle")
}

#[test]
fn parity_rewrite_joins_the_writes_trace() {
    // Two data servers and the parity server, ion02.
    let tb = Testbed::unthrottled(3).unwrap();
    let client = tb.client_opts(ClientOptions::default());
    let hint = Hint::linear(512, 4 * 512).with_redundancy(RedundancyPolicy::XorParity);
    let mut f = client.create("/xor", &hint).unwrap();

    let cursor = ring().cursor();
    f.write_bytes(0, &[7u8; 4 * 512]).unwrap();
    let events = events_of(f.last_trace_id(), cursor);
    for data_server in ["ion00", "ion01"] {
        assert!(answered(&events, data_server, "write"), "{events:?}");
        // ...and the read-back the parity is recomputed from.
        assert!(answered(&events, data_server, "read"), "{events:?}");
    }
    assert!(
        answered(&events, "ion02", "write"),
        "the parity write left the operation's trace: {events:?}"
    );
}

#[test]
fn mirror_read_joins_the_reads_trace() {
    let mut tb = Testbed::unthrottled(3).unwrap();
    let client = tb.client_opts(ClientOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    });
    let hint = Hint::linear(512, 3 * 512).with_redundancy(RedundancyPolicy::Replica(2));
    let mut f = client.create("/mirrored", &hint).unwrap();
    let data: Vec<u8> = (0..3 * 512).map(|i| (i % 251) as u8).collect();
    f.write_bytes(0, &data).unwrap();

    // Brick 0 lives on ion00 and is mirrored on ion01. With ion00 dead, a
    // read of that brick alone talks to nobody but the mirror.
    tb.kill_server(0);
    let cursor = ring().cursor();
    assert_eq!(f.read_bytes(0, 512).unwrap(), data[..512]);
    let events = events_of(f.last_trace_id(), cursor);
    assert!(
        answered(&events, "ion01", "read"),
        "the mirror read left the operation's trace: {events:?}"
    );
    assert!(events.iter().any(|e| e.phase == "reconstruct"));
}

#[test]
fn unlink_and_rename_are_one_trace_each() {
    let tb = Testbed::unthrottled(4).unwrap();
    let client = tb.client_opts(ClientOptions::default());
    client
        .create("/ns", &Hint::linear(4096, 16 * 4096))
        .unwrap();
    let rename = || client.rename("/ns", "/ns2").unwrap();
    let unlink = || client.unlink("/ns2").unwrap();
    let ops: [(&str, &dyn Fn()); 2] = [("rename", &rename), ("delete", &unlink)];
    for (kind, op) in ops {
        // No other test of this file renames or deletes.
        let cursor = ring().cursor();
        op();
        let events: Vec<TraceEvent> = ring()
            .events_since(cursor)
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect();
        let traces: HashSet<u64> = events.iter().map(|e| e.trace_id).collect();
        assert_eq!(traces.len(), 1, "{kind}: one operation, one trace");
        assert!(!traces.contains(&0));
        let servers = |side: Side, phase: &str| -> Vec<&str> {
            let mut servers: Vec<&str> = events
                .iter()
                .filter(|e| e.side == side && e.phase == phase)
                .map(|e| e.server.as_str())
                .collect();
            servers.sort_unstable();
            servers
        };
        // Submitted together and awaited together, not server by server.
        assert_eq!(servers(Side::Client, "submit"), [""], "{kind}");
        assert_eq!(servers(Side::Client, "await"), [""], "{kind}");
        let all = ["ion00", "ion01", "ion02", "ion03"];
        assert_eq!(servers(Side::Client, "rpc"), all, "{kind}");
        assert_eq!(servers(Side::Server, "handle"), all, "{kind}");
    }
}

/// A v1 frame — `DPFS`, length, CRC, payload; no correlation ID — sent to
/// `addr`: the server must sever that connection without answering, keep
/// serving the v2 connection next to it, and end up holding only that one.
fn v1_frame_is_refused(addr: SocketAddr, open_connections: &dyn Fn() -> usize) {
    let mut neighbour = TcpStream::connect(addr).unwrap();
    let ping = |c: &mut TcpStream, id: u64| {
        frame::write_frame_v2(c, id, &Request::Ping.encode()).unwrap();
        let f = frame::read_frame_any(c).unwrap();
        assert_eq!(f.corr_id, id);
        assert_eq!(Response::decode(f.payload).unwrap(), Response::Pong);
    };
    ping(&mut neighbour, 1);

    let payload = Request::Ping.encode();
    let mut v1 = b"DPFS".to_vec();
    v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v1.extend_from_slice(&frame::crc32(&payload).to_le_bytes());
    v1.extend_from_slice(&payload);
    let mut old_peer = TcpStream::connect(addr).unwrap();
    old_peer.write_all(&v1).unwrap();
    old_peer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = Vec::new();
    // End of stream (or a reset), and not one byte of an answer.
    let _ = old_peer.read_to_end(&mut reply);
    assert!(reply.is_empty(), "a v1 frame was answered: {reply:?}");

    ping(&mut neighbour, 2);
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_connections() != 1 {
        assert!(
            Instant::now() < deadline,
            "{} connections still open",
            open_connections()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn v1_frame_is_refused_by_both_daemons() {
    let root = std::env::temp_dir().join(format!("dpfs-v1-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ion = IoServer::start(ServerConfig::new("ion", &root, PerfModel::unthrottled())).unwrap();
    v1_frame_is_refused(ion.addr(), &|| ion.open_connections());
    let metad = MetaServer::start(MetadConfig::in_memory()).unwrap();
    v1_frame_is_refused(metad.addr(), &|| metad.open_connections());
    drop(ion);
    let _ = std::fs::remove_dir_all(&root);
}
