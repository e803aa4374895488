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
//!   all finishes — every reply arrives, however long the box takes;
//! - *cold wake cost*: a request after an idle gap is answered by a shard
//!   that slept through the gap in one `poll`, counted in context switches,
//!   not timed;
//! - *deferred flush*: a reply the socket would not take whole goes out
//!   through the shard, byte-exact, without holding up the shard's other
//!   connections;
//! - `stop()` and wire `Shutdown` reach sleeping threads at once;
//! - *the dispatch rule*: a request its service can answer without waiting
//!   is answered by the shard thread that decoded it — overtaking a
//!   handed-back one ahead of it, never waiting for one on another
//!   connection, in submission order, with the same trace events — and
//!   nothing else ever runs there; for the I/O server that is names, sizes
//!   and reads the page cache holds, and a read that would wait
//!   falls back to a worker and is counted once; a peer that pipelines a
//!   thousand such requests does not starve its neighbour on the shard.

mod common;

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dpfs::core::trace::{ring, Side, TraceEvent};
use dpfs::metad::{MetaServer, MetadConfig};
use dpfs::proto::{frame, AccessPattern, ErrorCode, MetaOp, Request, Response};
use dpfs::server::{Attempt, IoServer, PerfModel, ServeConfig, ServeCore, ServerConfig, Service};

use common::Rooted;

/// Serializes the tests in this binary: they measure process-wide CPU
/// time and wall-clock latency.
static SEQUENTIAL: Mutex<()> = Mutex::new(());

/// One test failing must not fail the rest on a poisoned guard.
fn sequential() -> MutexGuard<'static, ()> {
    SEQUENTIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// An I/O server's root, on the disk the build is on rather than in a temp
/// dir that may be `tmpfs`: the reads the shard answers need a file system
/// that can tell whether a read would wait.
fn ion_root(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

fn start_ion(tag: &str, perf: PerfModel, shards: usize, workers: usize) -> Rooted<IoServer> {
    let root = ion_root(&format!("dpfs-evloop-{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    let mut config = ServerConfig::new("evloop00", &root, perf);
    config.serve.shards = shards;
    config.serve.workers = workers;
    Rooted::new(root, IoServer::start(config).unwrap())
}

/// The hang watchdog: a read that waits this long for a reply fails its
/// test. No reply here takes a thousandth of it, even on a loaded box;
/// one that never comes (a lost wake-up) trips it.
const HANG: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(HANG)).unwrap();
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
    let ion = start_ion("idle", PerfModel::unthrottled(), 2, 8);
    let metad = MetaServer::start(MetadConfig::in_memory()).unwrap();
    let mut idle: Vec<TcpStream> = Vec::new();
    for addr in [ion.addr(), metad.addr()] {
        for i in 0..64 {
            let mut c = connect(addr);
            assert_eq!(rpc(&mut c, i, &Request::Ping), Response::Pong);
            idle.push(c);
        }
    }
    // A peer with a request held in service for the whole second (a `Sync`
    // of the subfile `gate`, on a worker, until the gate opens), and a ping
    // pipelined behind it that overtakes it.
    let held = Arc::new(Ruled(Recorder::default()));
    let core = serve(held.clone(), 2);
    let mut waiting = connect(core.addr());
    send(&mut waiting, 1, &sync("gate"));
    send(&mut waiting, 2, &Request::Ping);
    held.0.wait_for_gate();

    let cpu = idle_second_cpu();
    eprintln!("event_loop: 129 quiet connections cost {cpu:?} of CPU in one second");
    assert!(
        cpu < Duration::from_millis(20),
        "128 idle connections and one waiting one burned {cpu:?} of CPU in a second: \
         a timer survived, or poll is spinning on a descriptor nobody reads"
    );

    // Both answers arrive, the quick one first, the held one once the gate
    // opens.
    assert_eq!(reply_id(&mut waiting), 2);
    held.0.open_gate();
    assert_eq!(reply_id(&mut waiting), 1);
    assert_eq!(ion.open_connections(), 64);
    assert_eq!(core.open_connections(), 1);
    assert_eq!(metad.open_connections(), 64);
}

/// Requests per connection in the stress below, at most `DEPTH` of them
/// outstanding.
const PER_CONN: u64 = 10_000;
const DEPTH: u64 = 16;

/// Fails the whole test binary if `answered` stays put for [`HANG`]
/// while it lives: a lost wake-up strands a reply — or a server thread at
/// `stop` — in `poll` for good, and a read timeout alone cannot end a wait
/// that is not a read. Dropping it stops its thread, so a test that
/// unwinds on a failed assertion reports that failure and not a hang.
struct Watchdog {
    stopped: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start(answered: Arc<AtomicU64>) -> Watchdog {
        let stopped = Arc::new(AtomicBool::new(false));
        let stop = stopped.clone();
        let thread = std::thread::spawn(move || {
            let (mut seen, mut since) = (0, Instant::now());
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let now = answered.load(Ordering::SeqCst);
                if now != seen {
                    (seen, since) = (now, Instant::now());
                } else if since.elapsed() > HANG {
                    eprintln!("event_loop: hang: {now} replies, then none for {HANG:?}");
                    std::process::exit(1);
                }
            }
        });
        Watchdog {
            stopped,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

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
        Response::DataList { data } => {
            assert!(!is_ping(n), "request {n}: data for a ping");
            assert_eq!(&data[..], want);
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

    let answered = Arc::new(AtomicU64::new(0));
    let dog = Watchdog::start(answered.clone());
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
                        let f = frame::read_frame_any(c).unwrap_or_else(|e| {
                            panic!(
                                "conn {k}, reply {done}: {e} \
                                 (no reply within {HANG:?} is a lost wake-up)"
                            )
                        });
                        let n = f.corr_id;
                        assert!(outstanding[k].remove(&n), "conn {k}: stray reply {n}");
                        check_stress_reply(n, f.payload, &want);
                        answered.fetch_add(1, Ordering::SeqCst);
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
    let answered = answered.load(Ordering::SeqCst);
    assert_eq!(answered, 8 * 4 * PER_CONN, "every reply arrives");
    // Stopping wakes every server thread; the watchdog covers that too.
    drop(server);
    drop(dog);
}

/// Voluntary context switches summed over every live thread of this
/// process, from `/proc/self`: each is one time a thread blocked.
fn voluntary_switches() -> u64 {
    let field = |status: String| -> Option<u64> {
        let line = status
            .lines()
            .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| field(std::fs::read_to_string(task.ok()?.path().join("status")).ok()?))
        .sum()
}

/// Voluntary context switches of the whole process per round trip of
/// `req`, each taken after 5 ms of silence, the silence included.
fn switches_per_cold_trip(addr: SocketAddr, req: &Request) -> f64 {
    const TRIPS: u64 = 50;
    let mut c = connect(addr);
    // Dial, and let every runtime thread reach its idle wait.
    for i in 0..20 {
        rpc(&mut c, i, req);
    }
    std::thread::sleep(Duration::from_millis(20));
    let before = voluntary_switches();
    for i in 0..TRIPS {
        std::thread::sleep(Duration::from_millis(5));
        rpc(&mut c, i, req);
    }
    (voluntary_switches() - before) as f64 / TRIPS as f64
}

/// A request after an idle gap is answered by a shard that slept through
/// the gap in one `poll` and woke for the request: per gap and round trip
/// the process blocks three times — the caller's sleep, its wait for the
/// reply, the shard's return to `poll` — and no runtime thread wakes in
/// the gap. Measured on a 2-core x86-64 VM: 3.00 for the iond (two shards,
/// eight workers) and 3.00 for metad. Where every shard naps between polls
/// (a `poll` timeout of 1 ms), each wakes about five times per gap, and
/// the same run reads 21.7 for the iond and 21.9 for metad (the count is
/// the whole process's: both servers' shards).
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
        let per_trip = switches_per_cold_trip(addr, &req);
        eprintln!(
            "event_loop: {who}: {per_trip:.2} voluntary context switches per cold round trip"
        );
        assert!(
            per_trip <= 3.5,
            "{who}: {per_trip:.2} voluntary context switches per round trip after a 5 ms gap: \
             a runtime thread wakes while idle"
        );
    }
}

#[test]
fn a_stalled_reader_gets_its_reply_through_the_shard() {
    let _guard = sequential();
    const LEN: usize = 4 << 20;
    // More than loopback's socket buffers hold: the replies back up.
    const REPLIES: u64 = 12;
    // Round trips the lively connection completes beside the stall.
    const PINGS: u64 = 64;
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
    // Every reply is produced before the pings start: they are to find a
    // shard and a lock that are free, not an idle pool.
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

    // The direct write fell short and left the rest queued for the shard,
    // which waits for `POLLOUT`. Read the first reply whole: that frees
    // the socket, so the shard hears `POLLOUT` and flushes until the
    // socket is full again. Then stall in the middle of the second reply.
    let first = frame::read_frame_any(&mut reader).unwrap();
    let mut head = vec![0u8; 64 << 10];
    reader.read_exact(&mut head).unwrap();
    // A shard blocked on the stalled socket answers no ping at all; one
    // that is free answers every one. Counted, not timed: 64 sequential
    // pings come back while the reader stays stalled, and the watchdog
    // fails the test if the count stops moving for `HANG`.
    let answered = Arc::new(AtomicU64::new(0));
    let watchdog = Watchdog::start(answered.clone());
    for id in 1..=PINGS {
        assert_eq!(rpc(&mut lively, id, &Request::Ping), Response::Pong);
        answered.fetch_add(1, Ordering::SeqCst);
    }
    drop(watchdog);
    assert_eq!(answered.load(Ordering::SeqCst), PINGS);

    // Whole frames, in push order per connection, byte-exact.
    let mut wire = std::io::Cursor::new(head).chain(&mut reader);
    let mut first = Some(first);
    let mut ids = HashSet::new();
    for _ in 0..REPLIES {
        let f = first
            .take()
            .map_or_else(|| frame::read_frame_any(&mut wire), Ok);
        let f = f.unwrap();
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

        let ion_cfg = ServerConfig::new("evloop00", &ion.root, PerfModel::unthrottled())
            .bind(&ion.addr().to_string());
        *ion = IoServer::start(ion_cfg)
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

/// A `Write` whose range ends past the offset space is refused where it is
/// decoded, like the oversized `Read` above: a capacity-capped store adds
/// the two to find the write's end, and that overflow used to kill the
/// thread handling the request, which was never answered.
#[test]
fn a_write_past_the_offset_space_is_refused_and_the_server_lives() {
    let _guard = sequential();
    let root = ion_root("dpfs-evloop-wrap");
    let _ = std::fs::remove_dir_all(&root);
    let mut config = ServerConfig::new("evloop00", &root, PerfModel::unthrottled());
    config.capacity = 1 << 20;
    let ion = Rooted::new(root, IoServer::start(config).unwrap());
    let mut c = connect(ion.addr());
    let req = Request::Write {
        subfile: "/f".into(),
        ranges: vec![(u64::MAX - 1, Bytes::from_static(b"xy"))],
    };
    match rpc(&mut c, 1, &req) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(rpc(&mut c, 2, &Request::Ping), Response::Pong);
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

/// A service with a rule: a `Sync` goes to a worker, everything else is
/// answered where it was decoded.
struct Ruled(Recorder);

impl Service for Ruled {
    fn name(&self) -> &str {
        "ruled"
    }
    fn handle_traced(&self, req: Request, _trace_id: u64) -> Response {
        self.0.handle(req)
    }
    fn try_handle(&self, req: Request, _trace_id: u64) -> Attempt {
        match req {
            Request::Sync { .. } => Attempt::HandedBack(req),
            req => Attempt::Answered(self.0.handle(req)),
        }
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

/// The budget counts what the shard answers, not only what it reads: a
/// peer that pipelines megabyte reads the page cache holds gets one of them
/// answered per pass, so a neighbour's ping waits behind a few, not behind
/// the whole pipeline.
#[test]
fn pipelined_cached_reads_do_not_starve_a_pinging_neighbour() {
    let _guard = sequential();
    const MIB: u64 = 1 << 20;
    const PIPELINE: u64 = 32;
    let ion = start_ion("fair", PerfModel::unthrottled(), 1, 2);
    let (mut a, mut b) = (connect(ion.addr()), connect(ion.addr()));
    write_subfile(&mut a, "/big", &vec![7u8; 16 * MIB as usize]);
    assert_eq!(rpc(&mut b, 0, &Request::Ping), Response::Pong);
    // A 16 MiB read and the pipeline behind it arrive at once; the ping
    // arrives while the shard copies the 16 MiB.
    let cursor = ring().cursor();
    let traces: Vec<u64> = (0..=PIPELINE + 1)
        .map(|_| dpfs::core::trace::next_trace_id())
        .collect();
    let trace = |id: u64| traces[id as usize];
    let mut burst = Vec::new();
    frame::write_frame_v3(
        &mut burst,
        0,
        trace(0),
        &read_req("/big", 16 * MIB).encode(),
    )
    .unwrap();
    for id in 1..=PIPELINE {
        frame::write_frame_v3(&mut burst, id, trace(id), &read_req("/big", MIB).encode()).unwrap();
    }
    a.write_all(&burst).unwrap();
    frame::write_frame_v3(&mut b, 1, trace(PIPELINE + 1), &Request::Ping.encode()).unwrap();
    assert_eq!(frame::read_frame_any(&mut b).unwrap().corr_id, 1);
    for id in 0..=PIPELINE {
        let reply = frame::read_frame_any(&mut a).unwrap();
        assert_eq!(reply.corr_id, id, "in submission order");
        let Response::DataList { data } = Response::decode(reply.payload).unwrap() else {
            panic!("read {id} was not answered with its bytes");
        };
        assert!(data.iter().all(|&x| x == 7) && data.len() as u64 >= MIB);
    }
    // All of it ran on the one shard thread: its `handle` spans, by start,
    // are the order served.
    let mut handled: Vec<(u64, u64)> = ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.side == Side::Server && e.phase == "handle")
        .filter(|e| traces.contains(&e.trace_id))
        .map(|e| (e.start_ns, e.trace_id))
        .collect();
    handled.sort();
    let at = |id: u64| handled.iter().position(|&(_, t)| t == trace(id)).unwrap();
    let before = (1..=PIPELINE)
        .filter(|&id| at(id) < at(PIPELINE + 1))
        .count();
    eprintln!(
        "event_loop: beside {PIPELINE} pipelined 1 MiB cached reads the neighbour's ping \
         waited behind {before} of them"
    );
    assert_eq!(handled.len() as u64, PIPELINE + 2, "{handled:?}");
    assert!(
        before < PIPELINE as usize / 2,
        "the ping waited behind {before} of {PIPELINE} pipelined reads"
    );
}

/// The server events of the request traced as `trace_id`, in the order
/// they started, once its `respond` span — recorded after the reply may
/// already have reached the client — is in.
fn server_events(trace_id: u64, cursor: u64) -> Vec<TraceEvent> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut events: Vec<_> = ring()
            .events_since(cursor)
            .into_iter()
            .filter(|e| e.trace_id == trace_id && e.side == Side::Server)
            .collect();
        if events.iter().any(|e| e.phase == "respond") {
            events.sort_by_key(|e| (e.start_ns, e.start_ns + e.dur_ns));
            return events;
        }
        assert!(Instant::now() < deadline, "no respond span: {events:?}");
        std::thread::yield_now();
    }
}

/// Send `req` traced and return how long it waited in the job queue: 0 when
/// the shard that decoded it answered it.
fn queued_ns(c: &mut TcpStream, req: &Request) -> u64 {
    let trace_id = dpfs::core::trace::next_trace_id();
    let cursor = ring().cursor();
    frame::write_frame_v3(c, 1, trace_id, &req.encode()).unwrap();
    let reply = frame::read_frame_any(c).unwrap();
    assert_eq!(reply.corr_id, 1);
    assert!(
        matches!(
            Response::decode(reply.payload).unwrap(),
            Response::DataList { .. }
        ),
        "{}",
        req.kind_str()
    );
    let queued: Vec<u64> = server_events(trace_id, cursor)
        .iter()
        .filter(|e| e.phase == "queue")
        .map(|e| e.dur_ns)
        .collect();
    assert_eq!(
        queued.len(),
        1,
        "one queue span per request, fallen back or not"
    );
    queued[0]
}

/// The I/O server's rule, request kind by request kind, and the events an
/// inline request leaves: names, sizes and a read the page cache holds are
/// answered on the shard; writes and syncs go to a worker.
#[test]
fn resident_reads_names_and_sizes_are_answered_inline_and_the_rest_are_not() {
    let _guard = sequential();
    let ion = start_ion("rule", PerfModel::unthrottled(), 1, 2);
    write_subfile(&mut connect(ion.addr()), "/f", b"resident");
    let rule = ion.handler().as_ref() as &dyn Service;
    let payload = Bytes::from_static(b"x");
    let pattern = AccessPattern::from_runs(&[(0, 1)]);
    let list_read = Request::ReadList {
        subfile: "/f".into(),
        pattern: pattern.clone(),
    };
    let inline = [
        Request::Ping,
        Request::Stats,
        stat("/g"),
        Request::Delete {
            subfile: "/g".into(),
        },
        read_req("/f", 8),
        list_read,
    ];
    let queued = [
        Request::Write {
            subfile: "/f".into(),
            ranges: vec![(0, payload.clone())],
        },
        Request::WriteList {
            subfile: "/f".into(),
            pattern,
            payload,
        },
        sync("/f"),
        Request::Shutdown,
    ];
    // File bytes wait for a device only when the kernel says so: a resident
    // read is answered here, its bytes exact.
    for req in inline {
        let kind = req.kind_str();
        match rule.try_handle(req, 0) {
            Attempt::Answered(Response::DataList { data }) => {
                assert_eq!(&data[..], &b"resident"[..data.len()])
            }
            Attempt::Answered(Response::Error { message, .. }) => panic!("{kind}: {message}"),
            Attempt::Answered(_) => {}
            Attempt::HandedBack(req) => panic!("{kind} was handed back: {req:?}"),
        }
    }
    // Handed back untouched, and nothing was written or flushed.
    for req in queued {
        assert_eq!(rule.try_handle(req.clone(), 0), Attempt::HandedBack(req));
    }
    let snap = ion.stats();
    assert_eq!((snap.writes, snap.list_writes), (1, 0));
    assert_eq!(
        (snap.reads, snap.list_reads),
        (1, 1),
        "each read counted once"
    );

    // A traced `Stat` leaves the four events of any request; it waited in
    // no queue.
    let mut c = connect(ion.addr());
    let trace_id = dpfs::core::trace::next_trace_id();
    let cursor = ring().cursor();
    frame::write_frame_v3(&mut c, 1, trace_id, &stat("/f").encode()).unwrap();
    assert_eq!(frame::read_frame_any(&mut c).unwrap().corr_id, 1);
    let events = server_events(trace_id, cursor);
    let phases: Vec<&str> = events.iter().map(|e| e.phase).collect();
    assert_eq!(phases, ["decode", "queue", "handle", "respond"]);
    assert!(events.iter().all(|e| e.kind == "stat"));
    assert_eq!(events[1].dur_ns, 0, "an inline request waits in no queue");

    // On the wire: a resident read waits in no queue.
    assert_eq!(queued_ns(&mut c, &read_req("/f", 8)), 0);
}

/// A subfile whose descriptor nobody has opened yet — after a restart — is
/// read first by a worker, which opens it; the next read is the shard's.
/// The fallen-back read is counted once.
#[test]
fn the_first_read_after_a_restart_opens_the_subfile_on_a_worker() {
    let _guard = sequential();
    let mut ion = start_ion("reopen", PerfModel::unthrottled(), 1, 2);
    write_subfile(&mut connect(ion.addr()), "/f", b"survives");
    let addr = ion.addr();
    ion.stop();
    *ion = IoServer::start(
        ServerConfig::new("evloop00", &ion.root, PerfModel::unthrottled()).bind(&addr.to_string()),
    )
    .unwrap();
    let mut c = connect(ion.addr());
    assert!(
        queued_ns(&mut c, &read_req("/f", 8)) > 0,
        "opened by a worker"
    );
    assert_eq!(
        queued_ns(&mut c, &read_req("/f", 8)),
        0,
        "then served inline"
    );
    let snap = ion.stats();
    assert_eq!(
        (snap.reads, snap.requests, snap.subfiles_reopened),
        (2, 2, 1)
    );
}

/// metad answers every op inline — unless commits fsync, when any of them
/// may wait behind one.
#[test]
fn a_metad_whose_commits_fsync_answers_nothing_inline() {
    let _guard = sequential();
    let dir = std::env::temp_dir().join(format!("dpfs-evloop-fsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _dir = Rooted::new(dir.clone(), ());
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
            let handed_back = matches!(rule.try_handle(req.clone(), 0), Attempt::HandedBack(_));
            assert_eq!(handed_back, blocks, "{}", req.kind_str());
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
}
