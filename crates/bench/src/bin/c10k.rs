//! C10K smoke gate: hold many concurrent connections against one I/O
//! server and prove three things end to end — every response arrives
//! (zero drops), every byte round-trips exactly, and the server's thread
//! count stays flat while the connections pile up. Exits nonzero on any
//! violation, so CI can run the real binary.
//!
//! Usage: `c10k [--connections N]` (default 256 — the scaled-down CI
//! gate; the full integration test drives 1024).

use std::io::Write as _;
use std::net::TcpStream;
use std::process::exit;
use std::time::Instant;

use bytes::Bytes;
use dpfs_proto::{frame, Request, Response};
use dpfs_server::{IoServer, PerfModel, ServerConfig};

/// Current thread count of this process, from `/proc/self/status`.
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

fn pattern(i: usize) -> Vec<u8> {
    (0..64u64)
        .map(|b| (b.wrapping_mul(131).wrapping_add(i as u64 * 17) % 251) as u8)
        .collect()
}

fn main() {
    let mut connections = 256usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connections" => {
                connections = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--connections needs a number");
                    exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                exit(2);
            }
        }
    }

    let root = std::env::temp_dir().join(format!("dpfs-c10k-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = IoServer::start(ServerConfig::new("c10k00", &root, PerfModel::unthrottled()))
        .expect("server start");
    let addr = server.addr();
    let budget = server.runtime_threads();
    let start = Instant::now();

    let mut conns: Vec<TcpStream> = (0..connections)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();
    let baseline = process_threads();

    // Every connection writes its own 64-byte pattern, then reads it
    // back; requests are fully pipelined before responses are drained,
    // so the server really serves them concurrently.
    let mut failures = 0usize;
    let mut dropped = 0usize;
    for phase in ["write", "read"] {
        for (i, c) in conns.iter_mut().enumerate() {
            let req = if phase == "write" {
                Request::Write {
                    subfile: "/smoke.dat".into(),
                    ranges: vec![(i as u64 * 64, Bytes::from(pattern(i)))],
                }
            } else {
                Request::Read {
                    subfile: "/smoke.dat".into(),
                    ranges: vec![(i as u64 * 64, 64)],
                }
            };
            frame::write_frame_v2(c, i as u64, &req.encode()).expect("send");
            c.flush().expect("flush");
        }
        for (i, c) in conns.iter_mut().enumerate() {
            let Ok(f) = frame::read_frame_any(c) else {
                dropped += 1;
                continue;
            };
            if f.corr_id != i as u64 {
                eprintln!("conn {i}: bad corr-ID echo {:?}", f.corr_id);
                failures += 1;
                continue;
            }
            match (phase, Response::decode(f.payload)) {
                ("write", Ok(Response::Written { bytes: 64 })) => {}
                ("read", Ok(Response::Data { chunks }))
                    if chunks.len() == 1 && chunks[0][..] == pattern(i)[..] => {}
                (_, resp) => {
                    eprintln!("conn {i}: wrong {phase} response: {resp:?}");
                    failures += 1;
                }
            }
        }
    }

    let under_load = process_threads();
    let open = server.open_connections();
    println!(
        "c10k smoke: {connections} connections, {open} open at peak, \
         runtime budget {budget} threads, process threads {baseline} -> {under_load}, \
         {dropped} dropped, {failures} bad responses, {:?} elapsed",
        start.elapsed()
    );

    let mut bad = false;
    if dropped > 0 {
        eprintln!("FAIL: {dropped} connections never got a response");
        bad = true;
    }
    if failures > 0 {
        eprintln!("FAIL: {failures} wrong responses");
        bad = true;
    }
    if open != connections {
        eprintln!("FAIL: server reports {open} open connections, expected {connections}");
        bad = true;
    }
    if under_load > baseline {
        eprintln!(
            "FAIL: thread count grew with connections ({baseline} -> {under_load}); \
             the serving runtime must stay at its fixed budget"
        );
        bad = true;
    }
    drop(conns);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
    if bad {
        exit(1);
    }
}
