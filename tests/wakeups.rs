//! What a round trip costs in threads: the client reads its own replies, so
//! no client thread sits on a connection, and a request with nothing else
//! outstanding on its connection wakes the thread that asked, straight from
//! the socket. Both are counts of the whole process (client and in-process
//! server alike), taken from `/proc/self`:
//!
//! - dialing servers adds no thread;
//! - a serial round trip costs two voluntary context switches: the caller
//!   blocking on its socket, and the server shard that answers it going
//!   back to `poll`. A reader thread in between — woken by the socket, then
//!   waking the caller — would be a third;
//! - so does a serial read of bytes the page cache holds: the shard reads
//!   them itself, and a server worker woken for it would be a third.

use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;
use dpfs::core::{ConnPool, Resolver, RetryPolicy, DEFAULT_RPC_TIMEOUT};
use dpfs::proto::{Request, Response};
use dpfs::server::{IoServer, PerfModel, ServerConfig};

/// Serializes the tests in this binary: they count every thread of the
/// process.
static SEQUENTIAL: Mutex<()> = Mutex::new(());

fn sequential() -> MutexGuard<'static, ()> {
    SEQUENTIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// The root sits on the disk the build is on, not in a temp dir that may
/// be `tmpfs`: a read the shard answers needs a file system that can tell
/// whether it would wait.
fn start_ion(tag: &str) -> IoServer {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let root = tmp.join(format!("dpfs-wakeups-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    IoServer::start(ServerConfig::new(tag, root, PerfModel::unthrottled())).unwrap()
}

fn pool() -> ConnPool {
    ConnPool::new(
        Arc::new(Resolver::direct()),
        DEFAULT_RPC_TIMEOUT,
        RetryPolicy::disabled(),
    )
}

/// The value of `key` in a `/proc` status file.
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {key} in status"))
}

/// Threads of this process.
fn threads() -> u64 {
    status_field(
        &std::fs::read_to_string("/proc/self/status").unwrap(),
        "Threads:",
    )
}

/// Voluntary context switches summed over every live thread of this
/// process: each is one time a thread blocked and had to be woken.
fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .map(|s| status_field(&s, "voluntary_ctxt_switches:"))
        .sum()
}

#[test]
fn dialing_servers_adds_no_thread() {
    let _guard = sequential();
    let servers: Vec<IoServer> = (0..4).map(|i| start_ion(&format!("dial{i}"))).collect();
    let pool = pool();
    let before = threads();
    for s in &servers {
        assert_eq!(
            pool.rpc(&s.addr().to_string(), &Request::Ping).unwrap(),
            Response::Pong
        );
    }
    let after = threads();
    println!("threads: {before} before dialing 4 servers, {after} after");
    assert!(
        after <= before,
        "dialing 4 servers took the process from {before} to {after} threads: \
         something reads a connection on its own thread"
    );
}

/// Voluntary context switches per round trip over `TRIPS` serial
/// round trips of `req`, after 200 to dial and let every runtime thread
/// reach its idle wait.
fn switches_per_trip(pool: &ConnPool, addr: &str, req: &Request, check: impl Fn(Response)) -> f64 {
    for _ in 0..200 {
        check(pool.rpc(addr, req).unwrap());
    }
    const TRIPS: u64 = 2000;
    let before = voluntary_switches();
    for _ in 0..TRIPS {
        check(pool.rpc(addr, req).unwrap());
    }
    let switches = voluntary_switches() - before;
    let per_trip = switches as f64 / TRIPS as f64;
    println!(
        "{switches} voluntary context switches over {TRIPS} {}s: {per_trip:.2} per round trip",
        req.kind_str()
    );
    per_trip
}

#[test]
fn a_serial_round_trip_wakes_only_the_caller_and_the_shard() {
    let _guard = sequential();
    let server = start_ion("serial");
    let addr = server.addr().to_string();
    let per_trip = switches_per_trip(&pool(), &addr, &Request::Ping, |r| {
        assert_eq!(r, Response::Pong)
    });
    // Two at most, with a margin for whatever else of the process blocks
    // in the window; a third wake-up per trip reads 3.
    assert!(
        per_trip <= 2.5,
        "{per_trip:.2} voluntary context switches per round trip: a thread besides the caller and the shard is woken"
    );
}

#[test]
fn a_serial_cached_read_wakes_only_the_caller_and_the_shard() {
    let _guard = sequential();
    let server = start_ion("read");
    let addr = server.addr().to_string();
    let pool = pool();
    let data = Bytes::from((0..4096u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let write = Request::Write {
        subfile: "/f".into(),
        ranges: vec![(0, data.clone())],
    };
    assert_eq!(
        pool.rpc(&addr, &write).unwrap(),
        Response::Written { bytes: 4096 }
    );
    let read = Request::Read {
        subfile: "/f".into(),
        ranges: vec![(0, 4096)],
    };
    let per_trip = switches_per_trip(&pool, &addr, &read, |r| {
        assert_eq!(r, Response::DataList { data: data.clone() })
    });
    // A worker between the shard and the page cache reads 3.
    assert!(
        per_trip <= 2.5,
        "{per_trip:.2} voluntary context switches per 4 KiB read: a server worker is woken for bytes the page cache holds"
    );
}
