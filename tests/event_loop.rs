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
//! - `stop()` and wire `Shutdown` reach sleeping threads at once;
//! - *the dispatch rule*: a request its service says cannot block is
//!   answered by the shard thread that decoded it — overtaking a blocking
//!   one ahead of it, never waiting for one on another connection, in
//!   submission order, with the same trace events — and nothing else ever
//!   runs there; a peer that pipelines a thousand such requests does not
//!   starve its neighbour on the shard.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dpfs::core::trace::{ring, Side};
use dpfs::metad::{MetaServer, MetadConfig};
use dpfs::proto::{frame, AccessPattern, ErrorCode, MetaOp, Request, Response};
use dpfs::server::{IoServer, PerfModel, ServeConfig, ServeCore, ServerConfig, Service};

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

// ---------------------------------------------------------------------
// The dispatch rule
// ---------------------------------------------------------------------

/// What the test services below do with a request: note its subfile and the
/// thread handling it, in handling order — and, for the subfile `gate`, hold
/// that thread until the test opens the gate.
#[derive(Default)]
struct Recorder {
    log: Mutex<Vec<(String, String)>>,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Recorder {
    fn handle(&self, req: Request) -> Response {
        let subfile = match req {
            Request::Stat { subfile } | Request::Sync { subfile } => subfile,
            other => other.kind_str().to_string(),
        };
        let thread = std::thread::current().name().unwrap_or("").to_string();
        self.log.lock().unwrap().push((subfile.clone(), thread));
        if subfile == "gate" {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }
        Response::Pong
    }

    fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn log(&self) -> Vec<(String, String)> {
        self.log.lock().unwrap().clone()
    }

    /// Block until a thread is held at the gate.
    fn wait_for_gate(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.log().iter().any(|(subfile, _)| subfile == "gate") {
            assert!(Instant::now() < deadline, "nobody reached the gate");
            std::thread::yield_now();
        }
    }
}

/// A service that says nothing about blocking: the trait's default.
struct Unruled(Recorder);

impl Service for Unruled {
    fn name(&self) -> &str {
        "unruled"
    }
    fn handle_traced(&self, req: Request, _trace_id: u64) -> Response {
        self.0.handle(req)
    }
}

/// A service with a rule: a `Sync` may block, nothing else can.
struct Ruled(Recorder);

impl Service for Ruled {
    fn name(&self) -> &str {
        "ruled"
    }
    fn handle_traced(&self, req: Request, _trace_id: u64) -> Response {
        self.0.handle(req)
    }
    fn may_block(&self, req: &Request) -> bool {
        matches!(req, Request::Sync { .. })
    }
}

fn serve(service: Arc<dyn Service>, shards: usize) -> ServeCore {
    let config = ServeConfig { shards, workers: 2 };
    ServeCore::start_with("127.0.0.1:0", service, config).unwrap()
}

fn stat(subfile: &str) -> Request {
    Request::Stat {
        subfile: subfile.into(),
    }
}

fn sync(subfile: &str) -> Request {
    Request::Sync {
        subfile: subfile.into(),
    }
}

fn send(c: &mut TcpStream, id: u64, req: &Request) {
    frame::write_frame_v2(c, id, &req.encode()).unwrap();
}

fn reply_id(c: &mut TcpStream) -> u64 {
    let f = frame::read_frame_any(c).unwrap();
    assert_eq!(Response::decode(f.payload).unwrap(), Response::Pong);
    f.corr_id
}

#[test]
fn a_service_without_a_rule_never_runs_on_a_shard_thread() {
    let _guard = sequential();
    let service = Arc::new(Unruled(Recorder::default()));
    let core = serve(service.clone(), 2);
    let mut conns: Vec<TcpStream> = (0..4).map(|_| connect(core.addr())).collect();
    for (k, c) in conns.iter_mut().enumerate() {
        for (id, req) in [Request::Ping, stat("/f"), sync("/f"), Request::Stats]
            .iter()
            .enumerate()
        {
            assert_eq!(rpc(c, (4 * k + id) as u64, req), Response::Pong);
        }
    }
    let log = service.0.log();
    assert_eq!(log.len(), 16);
    for (subfile, thread) in log {
        assert_eq!(thread, "dpfs-worker-unruled", "{subfile}");
    }
}

#[test]
fn a_non_blocking_request_overtakes_a_blocking_one_and_keeps_its_order() {
    let _guard = sequential();
    let service = Arc::new(Ruled(Recorder::default()));
    let core = serve(service.clone(), 1);
    let mut c = connect(core.addr());
    // A blocking request held in service, three that cannot block behind it.
    send(&mut c, 1, &sync("gate"));
    service.0.wait_for_gate();
    for (id, subfile) in [(2, "a"), (3, "b"), (4, "c")] {
        send(&mut c, id, &stat(subfile));
    }
    // They are answered while it is still held, in the order they were sent,
    // each under its own correlation id...
    assert_eq!(
        [reply_id(&mut c), reply_id(&mut c), reply_id(&mut c)],
        [2, 3, 4]
    );
    service.0.open_gate();
    assert_eq!(reply_id(&mut c), 1);
    // ... by the shard thread; the blocking one by a worker.
    let threads: Vec<(String, String)> = service.0.log();
    let on = |subfile: &str| {
        let (_, thread) = threads.iter().find(|(s, _)| s == subfile).unwrap();
        thread.clone()
    };
    assert_eq!(on("gate"), "dpfs-worker-ruled");
    for subfile in ["a", "b", "c"] {
        assert_eq!(on(subfile), "dpfs-shard-0-ruled");
    }
    let order: Vec<String> = threads.into_iter().map(|(s, _)| s).collect();
    assert_eq!(order, ["gate", "a", "b", "c"]);
}

#[test]
fn a_blocking_request_does_not_delay_its_shards_other_connections() {
    let _guard = sequential();
    let service = Arc::new(Ruled(Recorder::default()));
    // One shard: both connections are its.
    let core = serve(service.clone(), 1);
    let (mut a, mut b) = (connect(core.addr()), connect(core.addr()));
    send(&mut a, 1, &sync("gate"));
    service.0.wait_for_gate();
    // Were the shard the one held at the gate, these would never return.
    assert_eq!(rpc(&mut b, 7, &Request::Ping), Response::Pong);
    assert_eq!(rpc(&mut b, 8, &stat("/b")), Response::Pong);
    assert_eq!(rpc(&mut a, 2, &stat("/a")), Response::Pong);
    service.0.open_gate();
    assert_eq!(reply_id(&mut a), 1);
}

#[test]
fn a_thousand_pipelined_requests_do_not_starve_the_next_connection() {
    let _guard = sequential();
    const BURST: usize = 1000;
    let service = Arc::new(Ruled(Recorder::default()));
    let core = serve(service.clone(), 1);
    let (mut a, mut b) = (connect(core.addr()), connect(core.addr()));
    // Both known to the shard, which is then held inside a request of A's
    // (the test's device: a "non-blocking" request that blocks) while the
    // burst and B's one request arrive.
    assert_eq!(rpc(&mut a, 0, &Request::Ping), Response::Pong);
    assert_eq!(rpc(&mut b, 0, &Request::Ping), Response::Pong);
    send(&mut a, 1, &stat("gate"));
    service.0.wait_for_gate();
    let mut burst = Vec::new();
    for i in 0..BURST {
        frame::write_frame_v2(&mut burst, 2 + i as u64, &stat(&format!("a{i}")).encode()).unwrap();
    }
    a.write_all(&burst).unwrap();
    send(&mut b, 1, &stat("b"));
    service.0.open_gate();
    assert_eq!(reply_id(&mut b), 1);
    for i in 0..=BURST {
        assert_eq!(reply_id(&mut a), 1 + i as u64, "in submission order");
    }
    // All of it ran on the one shard thread, so the log is the order served:
    // B's request came up before A's burst was through.
    let order: Vec<String> = service.0.log().into_iter().map(|(s, _)| s).collect();
    let at = |subfile: &str| order.iter().position(|s| s == subfile).unwrap();
    eprintln!(
        "event_loop: beside a {BURST}-request burst the neighbour's request was served {}th",
        at("b")
    );
    assert!(
        at("b") < at(&format!("a{}", BURST - 1)),
        "B was served at {} of {}, after all of A's burst",
        at("b"),
        order.len()
    );
}

/// The I/O server's rule, request kind by request kind, and the events an
/// inline request leaves.
#[test]
fn names_and_sizes_are_answered_inline_and_file_bytes_are_not() {
    let _guard = sequential();
    let ion = start_ion("rule", PerfModel::unthrottled(), 1, 2);
    let rule = ion.handler().as_ref() as &dyn Service;
    let payload = Bytes::from_static(b"x");
    let inline = [
        Request::Ping,
        Request::Stats,
        stat("/f"),
        Request::Delete {
            subfile: "/f".into(),
        },
        Request::Rename {
            from: "/f".into(),
            to: "/g".into(),
        },
        Request::Truncate {
            subfile: "/f".into(),
            size: 0,
        },
    ];
    let queued = [
        read_req("/f", 1),
        Request::Write {
            subfile: "/f".into(),
            ranges: vec![(0, payload.clone())],
        },
        Request::ReadList {
            subfile: "/f".into(),
            pattern: AccessPattern::from_runs(&[(0, 1)]),
        },
        Request::WriteList {
            subfile: "/f".into(),
            pattern: AccessPattern::from_runs(&[(0, 1)]),
            payload,
        },
        sync("/f"),
        Request::Shutdown,
    ];
    // Even unthrottled, file bytes wait for a device: a real one blocks.
    for req in &inline {
        assert!(!rule.may_block(req), "{}", req.kind_str());
    }
    for req in &queued {
        assert!(rule.may_block(req), "{}", req.kind_str());
    }

    // A traced `Stat` leaves the four events of any request; it waited in
    // no queue.
    let mut c = connect(ion.addr());
    let trace_id = dpfs::core::trace::next_trace_id();
    let cursor = ring().cursor();
    frame::write_frame_v3(&mut c, 1, trace_id, &stat("/f").encode()).unwrap();
    assert_eq!(frame::read_frame_any(&mut c).unwrap().corr_id, 1);
    let events: Vec<_> = ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.trace_id == trace_id && e.side == Side::Server)
        .collect();
    let phases: Vec<&str> = events.iter().map(|e| e.phase).collect();
    assert_eq!(phases, ["decode", "queue", "handle", "respond"]);
    assert!(events.iter().all(|e| e.kind == "stat"));
    assert_eq!(events[1].dur_ns, 0, "an inline request waits in no queue");
}

/// metad answers every op inline — unless commits fsync, when any of them
/// may wait behind one.
#[test]
fn a_metad_whose_commits_fsync_answers_nothing_inline() {
    let _guard = sequential();
    let dir = std::env::temp_dir().join(format!("dpfs-evloop-fsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = MetadConfig {
        sync_on_commit: true,
        ..MetadConfig::in_memory().dir(&dir)
    };
    let requests = [
        Request::Ping,
        Request::Stats,
        Request::Meta {
            op: MetaOp::GetShardMap,
        },
        Request::Meta {
            op: MetaOp::Mkdir { path: "/d".into() },
        },
    ];
    for (config, blocks) in [(MetadConfig::in_memory(), false), (durable, true)] {
        let metad = MetaServer::start(config).unwrap();
        let rule = metad.handler().as_ref() as &dyn Service;
        for req in &requests {
            assert_eq!(rule.may_block(req), blocks, "{}", req.kind_str());
        }
        // On the wire: a request that went through the job queue spent time
        // in it, one answered on the shard none.
        let mut c = connect(metad.addr());
        let trace_id = dpfs::core::trace::next_trace_id();
        let cursor = ring().cursor();
        frame::write_frame_v3(&mut c, 1, trace_id, &requests[2].encode()).unwrap();
        assert_eq!(frame::read_frame_any(&mut c).unwrap().corr_id, 1);
        let queued: Vec<u64> = ring()
            .events_since(cursor)
            .iter()
            .filter(|e| e.trace_id == trace_id && e.phase == "queue")
            .map(|e| e.dur_ns)
            .collect();
        assert_eq!(queued.len(), 1);
        assert_eq!(queued[0] > 0, blocks, "queued for {} ns", queued[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
