//! The event-driven serving core: every runtime thread sleeps in `poll(2)`
//! until there is work, nothing runs on a timer, and replies leave from the
//! worker that produced them. With no timer behind it a mistake is no
//! longer a late reply but a hang or a spinning core, so these tests pin
//! the new failure modes:
//!
//! - *idle is free*: idle connections, and one whose request is still in
//!   service, cost no CPU — catches a surviving timer and a level-triggered
//!   spin alike;
//! - *no lost wake-ups*: pipelined traffic on one shard and two workers
//!   all finishes;
//! - *cold wake latency*: a request after an idle gap is answered at
//!   context-switch cost, not at a nap's;
//! - *deferred flush*: a reply the socket would not take whole goes out
//!   through the shard, byte-exact, without holding up the shard's other
//!   connections;
//! - `stop()` and wire `Shutdown` reach sleeping threads at once.

use std::collections::HashSet;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dpfs::metad::{MetaServer, MetadConfig};
use dpfs::proto::{frame, AccessPattern, ErrorCode, MetaOp, Request, Response};
use dpfs::server::{IoServer, PerfModel, ServerConfig};

/// Serializes the tests in this binary: they measure process-wide CPU
/// time and wall-clock latency.
static SEQUENTIAL: Mutex<()> = Mutex::new(());

/// One test failing must not fail the rest on a poisoned guard.
fn sequential() -> MutexGuard<'static, ()> {
    SEQUENTIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn start_ion(tag: &str, perf: PerfModel, shards: usize, workers: usize) -> IoServer {
    let root = std::env::temp_dir().join(format!("dpfs-evloop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut config = ServerConfig::new("evloop00", root, perf);
    config.serve.shards = shards;
    config.serve.workers = workers;
    IoServer::start(config).unwrap()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// One correlated round trip.
fn rpc(c: &mut TcpStream, id: u64, req: &Request) -> Response {
    frame::write_frame_v2(c, id, &req.encode()).unwrap();
    let f = frame::read_frame_any(c).unwrap();
    assert_eq!(f.corr_id, id);
    Response::decode(f.payload).unwrap()
}

fn write_subfile(c: &mut TcpStream, subfile: &str, data: &[u8]) {
    let req = Request::Write {
        subfile: subfile.into(),
        ranges: vec![(0, Bytes::from(data.to_vec()))],
    };
    let bytes = data.len() as u64;
    assert_eq!(rpc(c, 0, &req), Response::Written { bytes });
}

fn read_req(subfile: &str, len: u64) -> Request {
    Request::Read {
        subfile: subfile.into(),
        ranges: vec![(0, len)],
    }
}

/// CPU time this process has used so far, user + system, from
/// `/proc/self/stat` (fields 14 and 15, in 10 ms ticks).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // The command name (field 2) may hold spaces; count from its ')'.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let ticks: u64 = rest
        .split(' ')
        .skip(11)
        .take(2)
        .map(|t| t.parse::<u64>().unwrap())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// CPU the whole process burns over one idle second.
fn idle_second_cpu() -> Duration {
    std::thread::sleep(Duration::from_millis(100));
    let before = process_cpu();
    std::thread::sleep(Duration::from_secs(1));
    process_cpu() - before
}

#[test]
fn idle_and_waiting_connections_cost_no_cpu() {
    let _guard = sequential();
    // Every request but a ping is held 1.5 s in service.
    let slow = PerfModel {
        request_latency: Duration::from_millis(1500),
        bandwidth: u64::MAX,
        seek_latency: Duration::ZERO,
    };
    let ion = start_ion("idle", slow, 2, 8);
    let metad = MetaServer::start(MetadConfig::in_memory()).unwrap();
    let mut idle: Vec<TcpStream> = Vec::new();
    for addr in [ion.addr(), metad.addr()] {
        for i in 0..64 {
            let mut c = connect(addr);
            assert_eq!(rpc(&mut c, i, &Request::Ping), Response::Pong);
            idle.push(c);
        }
    }
    // A peer with a request in service for the whole second, and a ping
    // pipelined behind it that overtakes it.
    let mut waiting = connect(ion.addr());
    frame::write_frame_v2(&mut waiting, 1, &read_req("/nothing", 1).encode()).unwrap();
    frame::write_frame_v2(&mut waiting, 2, &Request::Ping.encode()).unwrap();

    let cpu = idle_second_cpu();
    eprintln!("event_loop: 129 quiet connections cost {cpu:?} of CPU in one second");
    assert!(
        cpu < Duration::from_millis(20),
        "128 idle connections and one waiting one burned {cpu:?} of CPU in a second: \
         a timer survived, or poll is spinning on a descriptor nobody reads"
    );

    // Both answers arrive, the quick one first.
    let first = frame::read_frame_any(&mut waiting).unwrap();
    assert_eq!(first.corr_id, 2);
    assert_eq!(Response::decode(first.payload).unwrap(), Response::Pong);
    let second = frame::read_frame_any(&mut waiting).unwrap();
    assert_eq!(second.corr_id, 1);
    let second = Response::decode(second.payload).unwrap();
    assert!(matches!(second, Response::Data { .. }), "got {second:?}");
    assert_eq!(ion.open_connections(), 65);
    assert_eq!(metad.open_connections(), 64);
}

/// Requests per connection in the stress below, at most `DEPTH` of them
/// outstanding.
const PER_CONN: u64 = 10_000;
const DEPTH: u64 = 16;

/// Stress connections alternate pings and small reads.
fn is_ping(n: u64) -> bool {
    n.is_multiple_of(2)
}

fn stress_req(n: u64) -> Request {
    if is_ping(n) {
        Request::Ping
    } else {
        read_req("/stress.dat", 64)
    }
}

fn check_stress_reply(n: u64, payload: Bytes, want: &[u8]) {
    match Response::decode(payload).unwrap() {
        Response::Pong => assert!(is_ping(n), "request {n}: Pong for a read"),
        Response::Data { chunks } => {
            assert!(!is_ping(n), "request {n}: data for a ping");
            assert_eq!(&chunks[0][..], want);
        }
        other => panic!("request {n}: unexpected {other:?}"),
    }
}

#[test]
fn no_wake_up_is_lost_under_contention() {
    let _guard = sequential();
    // One shard and two workers: every connection's reads and replies meet
    // on one poll loop.
    let server = start_ion("stress", PerfModel::unthrottled(), 1, 2);
    let addr = server.addr();
    let want: Vec<u8> = (0..64u8).collect();
    write_subfile(&mut connect(addr), "/stress.dat", &want);

    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let mut conns: Vec<TcpStream> = (0..4).map(|_| connect(addr)).collect();
                // Replies may complete out of order.
                let mut outstanding: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
                let send = |c: &mut TcpStream, n: u64| {
                    frame::write_frame_v2(c, n, &stress_req(n).encode()).unwrap();
                };
                for n in 0..DEPTH {
                    for (k, c) in conns.iter_mut().enumerate() {
                        send(c, n);
                        outstanding[k].insert(n);
                    }
                }
                for done in 0..PER_CONN {
                    for (k, c) in conns.iter_mut().enumerate() {
                        let f = frame::read_frame_any(c)
                            .unwrap_or_else(|e| panic!("conn {k}, reply {done}: {e}"));
                        let n = f.corr_id;
                        assert!(outstanding[k].remove(&n), "conn {k}: stray reply {n}");
                        check_stress_reply(n, f.payload, &want);
                        let next = done + DEPTH;
                        if next < PER_CONN {
                            send(c, next);
                            outstanding[k].insert(next);
                        }
                    }
                }
                assert!(outstanding.iter().all(HashSet::is_empty));
            });
        }
    });
    let took = started.elapsed();
    eprintln!("event_loop: 320 000 requests in {took:?}");
    assert!(
        took < Duration::from_secs(10),
        "320 000 requests took {took:?}"
    );
}

/// Median latency of 50 round trips of `req`, each after 5 ms of silence.
fn cold_rtt(addr: SocketAddr, req: &Request) -> Duration {
    let mut c = connect(addr);
    let mut rtts: Vec<Duration> = (0..50)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(5));
            let t0 = Instant::now();
            rpc(&mut c, i, req);
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    rtts[rtts.len() / 2]
}

#[test]
fn a_request_after_an_idle_gap_is_answered_at_once() {
    let _guard = sequential();
    let ion = start_ion("cold", PerfModel::unthrottled(), 2, 8);
    let metad = MetaServer::start(MetadConfig::in_memory()).unwrap();
    let shard_map = Request::Meta {
        op: MetaOp::GetShardMap,
    };
    for (who, addr, req) in [
        ("iond", ion.addr(), Request::Ping),
        ("metad", metad.addr(), shard_map),
    ] {
        // A server napping between polls takes a millisecond here.
        let median = cold_rtt(addr, &req);
        eprintln!("event_loop: {who} median round trip after a 5 ms gap: {median:?}");
        assert!(
            median < Duration::from_micros(500),
            "{who}: median round trip after a 5 ms gap is {median:?}"
        );
    }
}

#[test]
fn a_stalled_reader_gets_its_reply_through_the_shard() {
    let _guard = sequential();
    const LEN: usize = 4 << 20;
    // More than loopback's socket buffers hold: the replies back up.
    const REPLIES: u64 = 12;
    // One shard: the stalled connection and the lively one share it.
    let server = start_ion("flush", PerfModel::unthrottled(), 1, 2);
    let addr = server.addr();
    let want: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
    let mut reader = connect(addr);
    write_subfile(&mut reader, "/big.dat", &want);

    let req = Request::ReadList {
        subfile: "/big.dat".into(),
        pattern: AccessPattern::from_runs(&[(0, LEN as u64)]),
    };
    for id in 0..REPLIES {
        frame::write_frame_v2(&mut reader, id, &req.encode()).unwrap();
    }
    // Every reply is produced before the clock starts: the pings below
    // are to find a shard and a lock that are free, not an idle pool.
    let mut lively = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    while {
        let stats = server.stats();
        stats.list_reads < REPLIES || stats.in_flight > 0
    } {
        assert!(Instant::now() < deadline, "the replies were never produced");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Nothing is queued behind this ping, so the worker that answers it
    // stays free from here on.
    assert_eq!(rpc(&mut lively, 0, &Request::Ping), Response::Pong);

    // Stall in the middle of the first frame. The worker's short write
    // has handed the rest to the shard, which waits for `POLLOUT`.
    let mut head = vec![0u8; 64 << 10];
    reader.read_exact(&mut head).unwrap();
    let stall = Instant::now();
    let mut slowest = Duration::ZERO;
    let mut id = 1;
    while stall.elapsed() < Duration::from_millis(100) {
        let t0 = Instant::now();
        assert_eq!(rpc(&mut lively, id, &Request::Ping), Response::Pong);
        slowest = slowest.max(t0.elapsed());
        id += 1;
    }
    assert!(
        slowest < Duration::from_millis(5),
        "a ping beside a stalled 4 MiB reply took {slowest:?}"
    );

    // Whole frames, in push order per connection, byte-exact.
    let mut wire = std::io::Cursor::new(head).chain(&mut reader);
    let mut ids = HashSet::new();
    for _ in 0..REPLIES {
        let f = frame::read_frame_any(&mut wire).unwrap();
        assert!(ids.insert(f.corr_id));
        match Response::decode(f.payload).unwrap() {
            Response::DataList { data } => assert!(data[..] == want[..]),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(ids.len() as u64, REPLIES);
}

fn assert_prompt(what: &str, t0: Instant) {
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(200), "{what} took {took:?}");
}

fn idle_connections(addr: SocketAddr) -> Vec<TcpStream> {
    (0..8)
        .map(|i| {
            let mut c = connect(addr);
            assert_eq!(rpc(&mut c, i, &Request::Ping), Response::Pong);
            c
        })
        .collect()
}

#[test]
fn stop_and_wire_shutdown_reach_sleeping_threads_at_once() {
    let _guard = sequential();
    // stop(), then restart on the same port — twice, so the restarted
    // server is stopped the same way.
    let mut ion = start_ion("stop", PerfModel::unthrottled(), 2, 8);
    let mut metad = MetaServer::start(MetadConfig::in_memory()).unwrap();
    for round in 0..2 {
        let idle_ion = idle_connections(ion.addr());
        let idle_metad = idle_connections(metad.addr());
        let t0 = Instant::now();
        ion.stop();
        assert_prompt("IoServer::stop", t0);
        let t0 = Instant::now();
        metad.stop();
        assert_prompt("MetaServer::stop", t0);
        assert_eq!(ion.open_connections() + metad.open_connections(), 0);
        drop((idle_ion, idle_metad));

        let root = std::env::temp_dir().join(format!("dpfs-evloop-stop-{}", std::process::id()));
        let ion_cfg = ServerConfig::new("evloop00", root, PerfModel::unthrottled())
            .bind(&ion.addr().to_string());
        ion = IoServer::start(ion_cfg)
            .unwrap_or_else(|e| panic!("round {round}: iond rebind failed: {e}"));
        let metad_cfg = MetadConfig::in_memory().bind(&metad.addr().to_string());
        metad = MetaServer::start(metad_cfg)
            .unwrap_or_else(|e| panic!("round {round}: metad rebind failed: {e}"));
    }

    // Wire shutdown: acknowledged, then every idle connection is severed
    // and the threads are gone by the time stop() is asked to reap them.
    for (who, addr) in [("iond", ion.addr()), ("metad", metad.addr())] {
        let mut idle = idle_connections(addr);
        let mut c = connect(addr);
        let t0 = Instant::now();
        assert_eq!(rpc(&mut c, 0, &Request::Shutdown), Response::Pong);
        for c in idle.iter_mut() {
            let mut byte = [0u8; 1];
            assert!(
                matches!(c.read(&mut byte), Ok(0) | Err(_)),
                "{who}: idle connection got bytes instead of a close"
            );
        }
        if who == "iond" {
            ion.stop();
        } else {
            metad.stop();
        }
        assert_prompt(&format!("{who}: wire shutdown, sever and stop"), t0);
    }
    // Both ports are free again.
    drop(std::net::TcpListener::bind(ion.addr()).unwrap());
    drop(std::net::TcpListener::bind(metad.addr()).unwrap());
}

/// A 30-byte request must not be able to make an I/O server allocate what
/// its lengths claim: an enumerated `Read` of 64 TiB used to end in a
/// failed allocation and abort the whole process. It is refused where it
/// is decoded, and the connection it came in on keeps working.
#[test]
fn a_read_larger_than_a_frame_is_refused_and_the_server_lives() {
    let _guard = sequential();
    let ion = start_ion("hostile-read", PerfModel::unthrottled(), 1, 2);
    let mut c = connect(ion.addr());
    for (id, ranges) in [
        (1, vec![(0, 1 << 46)]),
        (2, vec![(0, u64::MAX), (0, 2)]),
        (3, vec![(0, frame::MAX_FRAME_LEN as u64), (0, 1)]),
    ] {
        let req = Request::Read {
            subfile: "/f".into(),
            ranges,
        };
        match rpc(&mut c, id, &req) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("request {id}: expected BadRequest, got {other:?}"),
        }
    }
    assert_eq!(rpc(&mut c, 4, &Request::Ping), Response::Pong);
}
