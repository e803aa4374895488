//! Transport-level proofs for the multiplexed wire protocol:
//!
//! - two requests pipelined on ONE server connection are in service at
//!   once: a server that answers neither until both have arrived answers
//!   both — the point of correlation IDs;
//! - a request that exceeds its deadline surfaces a typed `Timeout` within
//!   bound, pending peers on the poisoned connection get transport errors
//!   instead of hanging, and the next RPC redials successfully;
//! - dropping a `Pending` evicts its waiter without poisoning;
//! - callers sharing one connection each get their own reply, whichever of
//!   them reads the socket, and a waiter's deadline fails the one reading;
//! - a connection the peer closed while idle is redialed, not failed on;
//! - `ping` counts any protocol-level answer — including
//!   `Error { ShuttingDown }` — as *reachable*;
//! - a read's reply lands in the caller's buffer exactly — whichever
//!   caller reads it — and a reply that does not fit the landing (wrong
//!   length, `Error`) or fails its CRC never passes for the data.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use dpfs::cluster::{FaultProxy, Testbed};
use dpfs::core::plan::ListPiece;
use dpfs::core::{
    ClientOptions, ConnPool, DpfsError, Hint, Landing, Resolver, RetryPolicy, DEFAULT_RPC_TIMEOUT,
};
use dpfs::proto::{frame, ErrorCode, Request, Response};
use dpfs::server::{ServeConfig, ServeCore, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DELAY: Duration = Duration::from_millis(40);

/// A raw pool dialing names directly: its deadline and retry policy are
/// fixed when it is built.
fn raw_pool(rpc_timeout: Duration, retry: RetryPolicy) -> ConnPool {
    ConnPool::new(Arc::new(Resolver::direct()), rpc_timeout, retry)
}

/// A raw pool that attempts every call exactly once, as the exact-count
/// assertions in this file need.
fn one_shot_pool() -> ConnPool {
    raw_pool(DEFAULT_RPC_TIMEOUT, RetryPolicy::disabled())
}

/// One server behind a proxy that holds every frame `DELAY`, each way.
fn one_delayed_server() -> (Testbed, FaultProxy) {
    let tb = Testbed::unthrottled(1).unwrap();
    let proxy = FaultProxy::start(tb.server_addr(0)).unwrap();
    proxy.knobs().delay_ms.store(
        DELAY.as_millis() as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    (tb, proxy)
}

/// A read of a (missing, hence zero-filled) subfile.
fn delayed_req() -> Request {
    Request::Read {
        subfile: "/probe".into(),
        ranges: vec![(0, 1)],
    }
}

/// A service that answers a `Read` only once two have arrived (zeros, or an
/// `Error` after [`PAIR_HANG`] without a second), and anything else at once.
#[derive(Default)]
struct Pair {
    arrived: Mutex<u32>,
    second: Condvar,
}

/// How long [`Pair`] holds a lone read. The second one arrives within
/// microseconds; a client that awaits the first reply before it sends the
/// second never sends it.
const PAIR_HANG: Duration = Duration::from_secs(10);

impl Service for Pair {
    fn name(&self) -> &str {
        "pair"
    }

    fn handle_traced(&self, req: Request, _trace_id: u64) -> Response {
        let Request::Read { ranges, .. } = req else {
            return Response::Pong;
        };
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.second.notify_all();
        let (arrived, _) = self
            .second
            .wait_timeout_while(arrived, PAIR_HANG, |n| *n < 2)
            .unwrap();
        if *arrived < 2 {
            return Response::Error {
                code: ErrorCode::IoFailure,
                message: "the second read never arrived".into(),
            };
        }
        let len: u64 = ranges.iter().map(|&(_, len)| len).sum();
        Response::DataList {
            data: vec![0u8; len as usize].into(),
        }
    }
}

#[test]
fn two_requests_pipeline_on_one_connection() {
    let server = ServeCore::start_with(
        "127.0.0.1:0",
        Arc::new(Pair::default()),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = server.addr().to_string();
    let pool = one_shot_pool();
    // Warm up: dial once, so both reads below share the connection.
    pool.rpc(&addr, &Request::Ping).unwrap();

    let p1 = pool.submit(&addr, &delayed_req()).unwrap();
    let p2 = pool.submit(&addr, &delayed_req()).unwrap();
    assert_ne!(p1.corr_id(), p2.corr_id(), "correlation IDs must be unique");
    let r1 = p1.wait(PAIR_HANG * 2, None).unwrap();
    let r2 = p2.wait(PAIR_HANG * 2, None).unwrap();
    // Each reply came only once both requests were in service together.
    assert!(matches!(r1, Response::DataList { .. }), "got {r1:?}");
    assert!(matches!(r2, Response::DataList { .. }), "got {r2:?}");

    let stats = pool.transport_stats(&addr).unwrap();
    assert_eq!(stats.dials, 1, "both requests must share one connection");
    assert_eq!(stats.submitted, 3); // ping + two reads
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.disconnected, 0);
    assert!(
        stats.in_flight_peak >= 2,
        "two overlapping reads must register an in-flight peak >= 2, got {}",
        stats.in_flight_peak
    );
    assert_eq!(stats.read_latency.count, 2);
}

/// A server whose FIRST connection swallows requests without ever replying;
/// every later connection answers `Pong` properly. Models a hung server
/// that recovers by the time the client redials.
fn start_stalling_then_healthy_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (i, stream) in listener.incoming().enumerate() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || {
                if i == 0 {
                    swallow(stream)
                } else {
                    serve_pong(stream)
                }
            });
        }
    });
    addr
}

/// Read and discard bytes until the peer severs the socket.
fn swallow(mut stream: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn serve_pong(mut stream: TcpStream) {
    while let Ok(f) = frame::read_frame_any(&mut stream) {
        if Request::decode(f.payload).is_err() {
            return;
        }
        let id = f.corr_id;
        if frame::write_frame_v2(&mut stream, id, &Response::Pong.encode()).is_err() {
            return;
        }
    }
}

#[test]
fn deadline_poisons_connection_and_next_rpc_redials() {
    let addr = start_stalling_then_healthy_server().to_string();
    let timeout = Duration::from_millis(150);
    let pool = raw_pool(timeout, RetryPolicy::disabled());

    // Two requests in flight on the stalled connection.
    let p1 = pool.submit(&addr, &Request::Ping).unwrap();
    let p2 = pool.submit(&addr, &Request::Ping).unwrap();
    assert_eq!(pool.in_flight(&addr), 2);

    // The first hits its deadline: typed Timeout, within bound.
    let start = Instant::now();
    let err = p1.wait(timeout, None).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, DpfsError::Timeout { .. }),
        "expected Timeout, got {err}"
    );
    assert!(elapsed >= timeout, "timed out early: {elapsed:?}");
    assert!(
        elapsed < timeout + Duration::from_secs(2),
        "deadline overshot: {elapsed:?}"
    );

    // The timeout poisoned the connection: the pending peer is completed
    // with a transport error immediately — no hang until its own deadline.
    let start = Instant::now();
    let err = p2.wait(Duration::from_secs(30), None).unwrap_err();
    assert!(
        matches!(err, DpfsError::Disconnected { .. }),
        "expected Disconnected fan-out, got {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "pending peer hung {:?} instead of failing fast",
        start.elapsed()
    );

    // The next RPC redials — and the server is healthy now.
    assert_eq!(pool.rpc(&addr, &Request::Ping).unwrap(), Response::Pong);

    let stats = pool.transport_stats(&addr).unwrap();
    assert_eq!(stats.dials, 2, "recovery must have redialed exactly once");
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(
        stats.disconnected, 1,
        "the poisoned connection must count exactly once"
    );
    assert!(
        stats.in_flight_peak >= 2,
        "two pings were in flight at once"
    );
}

/// Regression: a dropped `Pending` used to leave its waiter in the
/// in-flight table until the response arrived or the connection died —
/// against a server that never answers, forever, with `in_flight`
/// over-reporting every abandoned fan-out sibling.
#[test]
fn dropped_pendings_leave_the_in_flight_table() {
    // Connection 0 swallows everything and never replies.
    let addr = start_stalling_then_healthy_server().to_string();
    let pool = one_shot_pool();
    let pendings: Vec<_> = (0..100)
        .map(|_| pool.submit(&addr, &Request::Ping).unwrap())
        .collect();
    assert_eq!(pool.in_flight(&addr), 100);
    drop(pendings);
    assert_eq!(pool.in_flight(&addr), 0);
    let stats = pool.transport_stats(&addr).unwrap();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.disconnected, 0, "abandoning must not poison");
    assert_eq!(stats.dials, 1);
}

/// A server whose one connection takes `callers` `Stat` requests per round,
/// then answers them last first, each with the size its subfile name
/// spells: a reply's size says whose it is. It keeps the connection open
/// after the last round.
fn start_reversing_server(callers: usize, rounds: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        for _ in 0..rounds {
            let mut round = Vec::with_capacity(callers);
            for _ in 0..callers {
                let f = frame::read_frame_any(&mut stream).unwrap();
                let Request::Stat { subfile } = Request::decode(f.payload).unwrap() else {
                    panic!("expected Stat");
                };
                round.push((f.corr_id, subfile.parse::<u64>().unwrap()));
            }
            for (id, size) in round.into_iter().rev() {
                let resp = Response::Stat { exists: true, size };
                frame::write_frame_v2(&mut stream, id, &resp.encode()).unwrap();
            }
        }
        swallow(stream);
    });
    addr
}

#[test]
fn callers_sharing_a_connection_each_get_their_own_reply() {
    const CALLERS: usize = 8;
    const ROUNDS: usize = 50;
    let addr = start_reversing_server(CALLERS, ROUNDS).to_string();
    let pool = one_shot_pool();
    let barrier = Barrier::new(CALLERS);
    // Every round, the server holds all replies until every caller's
    // request is in, then sends the last caller's first: whoever reads the
    // socket reads the others' replies before its own.
    std::thread::scope(|s| {
        for caller in 0..CALLERS as u64 {
            let (pool, addr, barrier) = (&pool, &addr, &barrier);
            s.spawn(move || {
                for round in 0..ROUNDS as u64 {
                    barrier.wait();
                    let size = round * 100 + caller;
                    let req = Request::Stat {
                        subfile: size.to_string(),
                    };
                    let resp = pool
                        .submit(addr, &req)
                        .unwrap()
                        .wait(DEFAULT_RPC_TIMEOUT, None);
                    assert_eq!(resp.unwrap(), Response::Stat { exists: true, size });
                }
            });
        }
    });
    let stats = pool.transport_stats(&addr).unwrap();
    assert_eq!(stats.dials, 1, "every caller shares one connection");
    assert_eq!(stats.completed, (CALLERS * ROUNDS) as u64);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.disconnected, 0);
}

#[test]
fn callers_pipelining_on_one_connection_lose_no_reply() {
    // Seeded: eight threads on one connection to a real server, each
    // pipelining 1–4 requests, awaiting them in a random order and
    // abandoning some. A reply that reached nobody, or a seat handed to
    // nobody, leaves a caller asleep until its deadline: a timeout here.
    const CALLERS: u64 = 8;
    let tb = Testbed::unthrottled(1).unwrap();
    let client = tb.client_opts(ClientOptions::default());
    let pool = client.pool();
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5eed + caller);
                for _ in 0..300 {
                    let mut pending: Vec<_> = (0..rng.gen_range(1..=4))
                        .map(|_| pool.submit("ion00", &Request::Ping).unwrap())
                        .collect();
                    while !pending.is_empty() {
                        let p = pending.swap_remove(rng.gen_range(0..pending.len()));
                        if rng.gen_range(0..8) == 0 {
                            drop(p);
                        } else {
                            let resp = p.wait(Duration::from_secs(10), None);
                            assert_eq!(resp.unwrap(), Response::Pong);
                        }
                    }
                }
            });
        }
    });
    let stats = pool.transport_stats("ion00").unwrap();
    assert_eq!(stats.dials, 1);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.disconnected, 0);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn a_waiters_deadline_fails_the_caller_reading_the_socket() {
    // Nothing ever answers. Two callers wait on one connection, one for
    // 30 s and one for 100 ms; whichever of them reads the socket, the
    // short deadline poisons the connection and the long wait ends with it.
    let addr = start_stalled_server().to_string();
    let pool = one_shot_pool();
    let long = pool.submit(&addr, &Request::Ping).unwrap();
    let short = pool.submit(&addr, &Request::Ping).unwrap();
    let start = Instant::now();
    let (long_res, short_res) = std::thread::scope(|s| {
        let long = s.spawn(move || long.wait(Duration::from_secs(30), None));
        let short = short.wait(Duration::from_millis(100), None);
        (long.join().unwrap(), short)
    });
    assert!(
        matches!(short_res, Err(DpfsError::Timeout { .. })),
        "got {short_res:?}"
    );
    assert!(
        matches!(long_res, Err(DpfsError::Disconnected { .. })),
        "got {long_res:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the long wait outlived the poisoned connection: {:?}",
        start.elapsed()
    );
}

/// A server that answers the first request of every connection with
/// `Pong`, closes the connection and reports on `closed` that it did.
fn start_answer_once_server() -> (SocketAddr, mpsc::Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            if let Ok(f) = frame::read_frame_any(&mut stream) {
                let _ = frame::write_frame_v2(&mut stream, f.corr_id, &Response::Pong.encode());
            }
            drop(stream);
            if tx.send(()).is_err() {
                return;
            }
        }
    });
    (addr, rx)
}

#[test]
fn a_connection_the_peer_closed_while_idle_is_redialed() {
    // No thread watches an idle connection, so a submission finds out
    // itself: with retries off, the second call must still succeed.
    let (addr, closed) = start_answer_once_server();
    let addr = addr.to_string();
    let pool = one_shot_pool();
    for round in 1..=3 {
        assert_eq!(pool.rpc(&addr, &Request::Ping).unwrap(), Response::Pong);
        closed.recv().unwrap();
        let stats = pool.transport_stats(&addr).unwrap();
        assert_eq!(stats.dials, round, "one dial per server connection");
    }
    let stats = pool.transport_stats(&addr).unwrap();
    assert!(
        stats.disconnected >= 2,
        "each closed connection counts once"
    );
    assert_eq!(stats.retries, 0);
}

/// A server that answers every request with `Error { ShuttingDown }`.
fn start_shutting_down_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                while let Ok(f) = frame::read_frame_any(&mut stream) {
                    let resp = Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "draining".into(),
                    };
                    let id = f.corr_id;
                    if frame::write_frame_v2(&mut stream, id, &resp.encode()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn ping_counts_protocol_errors_as_reachable() {
    // A real I/O server answers Pong: trivially reachable.
    let tb = Testbed::unthrottled(1).unwrap();
    let client = tb.client_opts(ClientOptions::default());
    assert!(client.pool().ping("ion00"));

    // A server draining for shutdown answers Error { ShuttingDown }: it
    // decoded our request and framed a reply, so it is *reachable* — the
    // old ping treated any non-Pong as down.
    let addr = start_shutting_down_server().to_string();
    let pool = one_shot_pool();
    assert!(pool.ping(&addr), "ShuttingDown answer must count as alive");

    // Nothing listening at all: down.
    assert!(!pool.ping("127.0.0.1:1"));
}

/// A server whose first connection accepts exactly one request frame and
/// then drops the socket; every later connection answers Pong. One
/// deterministic transient failure, then health.
fn start_drop_first_request_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (i, stream) in listener.incoming().enumerate() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                if i == 0 {
                    // Take the request, answer nothing, hang up: the client
                    // sees a clean Disconnected only *after* its submit
                    // succeeded, so exactly one retry is provoked.
                    let _ = frame::read_frame_any(&mut stream);
                } else {
                    serve_pong(stream)
                }
            });
        }
    });
    addr
}

#[test]
fn one_transient_failure_counts_exactly_one_retry() {
    let addr = start_drop_first_request_server().to_string();
    let pool = raw_pool(
        DEFAULT_RPC_TIMEOUT,
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
    );

    // The call succeeds despite the first connection dying mid-request.
    assert_eq!(pool.rpc(&addr, &Request::Ping).unwrap(), Response::Pong);

    let stats = pool.transport_stats(&addr).unwrap();
    assert_eq!(
        stats.retries, 1,
        "one transient failure must count exactly one retry: {stats:?}"
    );
    assert_eq!(stats.disconnected, 1, "the dropped connection, once");
    assert_eq!(stats.dials, 2, "original dial + the retry's redial");
    assert_eq!(stats.submitted, 2, "the request went on the wire twice");
    assert_eq!(stats.completed, 1, "but only one attempt got an answer");
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn application_errors_are_answered_not_retried() {
    // The server *answers* — with Error { ShuttingDown }. That is a verdict
    // on a processed request, not a transport failure: the retry layer must
    // stay out of it even when armed with an aggressive policy.
    let addr = start_shutting_down_server().to_string();
    let pool = raw_pool(
        DEFAULT_RPC_TIMEOUT,
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        },
    );

    let resp = pool.rpc(&addr, &Request::Ping).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ),
        "expected the server's verdict back, got {resp:?}"
    );

    let stats = pool.transport_stats(&addr).unwrap();
    assert_eq!(stats.retries, 0, "application errors must not retry");
    assert_eq!(stats.submitted, 1, "exactly one attempt on the wire");
    assert_eq!(stats.dials, 1);
}

#[test]
fn exhausted_retries_surface_the_last_error() {
    // Nothing listens on port 1: every attempt is a connect refusal. The
    // policy's whole budget is spent, each retry is counted, and the caller
    // still gets the typed transport error the no-retry path would return.
    let pool = raw_pool(
        DEFAULT_RPC_TIMEOUT,
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        },
    );

    let err = pool.rpc("127.0.0.1:1", &Request::Ping).unwrap_err();
    assert!(
        matches!(err, DpfsError::Connect { .. }),
        "expected Connect after exhausting retries, got {err}"
    );
    let stats = pool.transport_stats("127.0.0.1:1").unwrap();
    assert_eq!(stats.retries, 2, "max_attempts - 1 retries must be counted");
    assert_eq!(stats.dials, 0, "no dial ever succeeded");
}

#[test]
fn a_disabled_policy_attempts_exactly_once() {
    // `RetryPolicy::disabled()` is the pre-fault-tolerance behaviour:
    // exactly one attempt per call. Every exact-count assertion in this
    // file depends on it.
    let pool = one_shot_pool();
    assert!(!pool.retry_policy().enabled());

    let err = pool.rpc("127.0.0.1:1", &Request::Ping).unwrap_err();
    assert!(matches!(err, DpfsError::Connect { .. }), "got {err}");
    let stats = pool.transport_stats("127.0.0.1:1").unwrap();
    assert_eq!(stats.retries, 0);
}

/// A server that accepts every connection and answers nothing, ever.
fn start_stalled_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || swallow(stream));
        }
    });
    addr
}

/// Regression: a handle opened with its own deadline waited that deadline
/// on the first attempt only — every retry waited the *mount's*. A 100 ms
/// handle on a 30 s mount, three attempts against a stalled server: all
/// three must expire under the handle's deadline.
#[test]
fn retries_wait_the_handles_deadline_not_the_mounts() {
    // One registered server whose name dials a listener that answers
    // nothing, on a mount with the default 30 s deadline.
    let mut tb = Testbed::unthrottled(1).unwrap();
    tb.route_through(0, start_stalled_server());
    let stalled = tb.client_opts(ClientOptions::default());
    assert_eq!(stalled.pool().rpc_timeout(), DEFAULT_RPC_TIMEOUT);
    drop(stalled.create("/stall", &Hint::linear(4096, 4096)).unwrap());

    let deadline = Duration::from_millis(100);
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    let mut f = stalled
        .open_with(
            "/stall",
            ClientOptions {
                rpc_timeout: deadline,
                retry,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    let start = Instant::now();
    let err = f.read_bytes(0, 4096).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, DpfsError::Timeout { timeout, .. } if timeout == deadline),
        "expected the handle's Timeout, got {err}"
    );
    let stats = stalled.pool().transport_stats("ion00").unwrap();
    assert_eq!(stats.timed_out, 3, "three attempts, three expiries");
    assert_eq!(stats.retries, 2);
    assert!(elapsed >= deadline * 3, "expired early: {elapsed:?}");
    assert!(
        elapsed < deadline * 3 + retry.max_backoff * 2 + Duration::from_secs(2),
        "3 attempts took {elapsed:?}: a retry waited the mount's deadline"
    );
}

/// Run `wait` on a thread of its own while this one sends that thread
/// `SIGUSR1` every 5 ms (a no-op handler, installed with `SA_RESTART` by
/// `signal`), for at most `limit`: each `recv` it sits in fails `EINTR`,
/// `SO_RCVTIMEO` being set. What `wait` returned, and how long it took.
fn wait_under_signals(
    wait: impl FnOnce() -> Result<Response, DpfsError> + Send + 'static,
    limit: Duration,
) -> (Result<Response, DpfsError>, Duration) {
    use std::os::raw::c_int;
    use std::os::unix::thread::{JoinHandleExt, RawPthread};
    const SIGUSR1: c_int = 10;
    extern "C" fn ignore(_: c_int) {}
    extern "C" {
        fn signal(sig: c_int, handler: extern "C" fn(c_int)) -> usize;
        fn pthread_kill(thread: RawPthread, sig: c_int) -> c_int;
    }
    // SAFETY: the handler does nothing, so it is async-signal-safe.
    unsafe { signal(SIGUSR1, ignore) };
    let start = Instant::now();
    let waiter = std::thread::spawn(wait);
    while !waiter.is_finished() && start.elapsed() < limit {
        // SAFETY: the thread is not joined yet, so its handle is live.
        unsafe { pthread_kill(waiter.as_pthread_t(), SIGUSR1) };
        std::thread::sleep(Duration::from_millis(5));
    }
    let got = waiter.join().unwrap();
    (got, start.elapsed())
}

/// A signal must neither fail a wait nor stretch it. A `recv` under
/// `SO_RCVTIMEO` fails `EINTR` even with `SA_RESTART`: a waiter that passed
/// the error up lost a healthy connection to any signal handler, and one
/// that retried with the whole timeout again never timed out while
/// signals kept coming.
#[test]
fn signals_neither_fail_a_wait_nor_hold_it_past_its_deadline() {
    let (_tb, proxy) = one_delayed_server();
    let addr = proxy.addr().to_string();
    let pool = Arc::new(one_shot_pool());
    let p = Arc::clone(&pool);
    let a = addr.clone();
    let (got, took) = wait_under_signals(
        move || {
            p.submit(&a, &delayed_req())?
                .wait(DEFAULT_RPC_TIMEOUT, None)
        },
        Duration::from_secs(10),
    );
    assert!(matches!(got, Ok(Response::DataList { .. })), "got {got:?}");
    assert!(took >= DELAY, "answered in {took:?}");
    assert_eq!(pool.transport_stats(&addr).unwrap().disconnected, 0);

    let addr = start_stalled_server().to_string();
    let deadline = Duration::from_millis(200);
    let pool = one_shot_pool();
    let (got, took) = wait_under_signals(
        move || pool.submit(&addr, &Request::Ping)?.wait(deadline, None),
        Duration::from_secs(3),
    );
    assert!(matches!(got, Err(DpfsError::Timeout { .. })), "got {got:?}");
    assert!(
        took < deadline + Duration::from_secs(1),
        "a {deadline:?} wait took {took:?} under signals"
    );
}

/// The byte a landing test's server holds at subfile offset `off`.
fn pattern(off: u64) -> u8 {
    (off * 7 + off / 251) as u8
}

/// What an honest server answers to a `Read` of `ranges`.
fn honest_data(ranges: &[(u64, u64)]) -> Vec<u8> {
    ranges
        .iter()
        .flat_map(|&(off, len)| (off..off + len).map(pattern))
        .collect()
}

/// A read of `len` bytes from offset `off`, and the pieces that land its
/// reply in a buffer of `len + 64` bytes: the second half first, the
/// first half behind it, the last 64 bytes of the buffer untouched.
fn swapped_read(off: u64, len: u64) -> (Request, Vec<ListPiece>) {
    let half = len / 2;
    let read = Request::Read {
        subfile: "/land".into(),
        ranges: vec![(off, len)],
    };
    let pieces = vec![
        ListPiece {
            payload_off: 0,
            buf_off: len - half,
            len: half,
        },
        ListPiece {
            payload_off: half,
            buf_off: 0,
            len: len - half,
        },
    ];
    (read, pieces)
}

/// What [`swapped_read`]'s buffer holds once its reply landed.
fn swapped_want(off: u64, len: u64) -> Vec<u8> {
    let half = len / 2;
    let mut want = honest_data(&[(off + half, len - half), (off, half)]);
    want.resize(len as usize + 64, 0xEE);
    want
}

/// A server that answers every `Read` with the raw frame bytes `forge`
/// makes of its correlation ID and the honest reply's data, and
/// everything else with `Pong`.
fn start_forging_server(forge: fn(u64, Vec<u8>) -> Vec<u8>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                while let Ok(f) = frame::read_frame_any(&mut stream) {
                    let wire = match Request::decode(f.payload) {
                        Ok(Request::Read { ranges, .. }) => forge(f.corr_id, honest_data(&ranges)),
                        _ => {
                            let mut w = Vec::new();
                            frame::write_frame_v2(&mut w, f.corr_id, &Response::Pong.encode())
                                .unwrap();
                            w
                        }
                    };
                    if std::io::Write::write_all(&mut stream, &wire).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// One frame carrying `resp` under `corr_id`.
fn framed(corr_id: u64, resp: &Response) -> Vec<u8> {
    let mut wire = Vec::new();
    frame::write_frame_v2(&mut wire, corr_id, &resp.encode()).unwrap();
    wire
}

#[test]
fn a_read_reply_whose_crc_fails_after_its_bytes_landed_is_an_error() {
    // Honest data, one bit of the header's CRC flipped: the reply streams
    // into the buffer chunk by chunk and only its last chunk finds out.
    let addr = start_forging_server(|id, data| {
        let mut wire = framed(id, &Response::DataList { data: data.into() });
        wire[16] ^= 1;
        wire
    })
    .to_string();
    let pool = one_shot_pool();
    const LEN: u64 = 4 << 20;
    let (read, pieces) = swapped_read(0, LEN);
    let mut buf = vec![0xEEu8; LEN as usize + 64];
    let mut landing = Landing::new(&pieces, LEN, &mut buf);
    let res = pool
        .submit(&addr, &read)
        .unwrap()
        .wait(DEFAULT_RPC_TIMEOUT, Some(&mut landing));
    assert!(!landing.landed());
    match res {
        Err(DpfsError::Disconnected { reason, .. }) => {
            assert!(reason.contains("checksum"), "{reason}")
        }
        other => panic!("expected Disconnected, got {other:?}"),
    }
    let want = swapped_want(0, LEN);
    assert!(
        buf.iter().zip(&want).any(|(a, b)| a == b && *a != 0xEE),
        "no byte landed before the CRC failed: the test tests nothing"
    );
    assert_eq!(buf[LEN as usize..], [0xEE; 64], "written past the pieces");
    let stats = pool.transport_stats(&addr).unwrap();
    assert_eq!(stats.disconnected, 1, "the connection is poisoned");
}

#[test]
fn a_data_list_one_byte_off_is_a_short_read_and_lands_nothing() {
    for (forge, got) in [
        (
            (|id, mut data: Vec<u8>| {
                data.pop();
                framed(id, &Response::DataList { data: data.into() })
            }) as fn(u64, Vec<u8>) -> Vec<u8>,
            4095,
        ),
        (
            |id, mut data: Vec<u8>| {
                data.push(9);
                framed(id, &Response::DataList { data: data.into() })
            },
            4097,
        ),
    ] {
        let addr = start_forging_server(forge).to_string();
        let pool = one_shot_pool();
        let (read, pieces) = swapped_read(100, 4096);
        let mut buf = vec![0xEEu8; 4096 + 64];
        let mut landing = Landing::new(&pieces, 4096, &mut buf);
        let resp = pool
            .submit(&addr, &read)
            .unwrap()
            .wait(DEFAULT_RPC_TIMEOUT, Some(&mut landing))
            .unwrap();
        assert!(!landing.landed());
        let err = landing.complete(resp, &addr).unwrap_err();
        assert!(
            matches!(err, DpfsError::ShortRead { expected: 4096, got: g, .. } if g == got),
            "expected ShortRead of {got}, got {err}"
        );
        assert!(buf.iter().all(|&b| b == 0xEE), "a refused reply wrote");
        assert_eq!(pool.transport_stats(&addr).unwrap().disconnected, 0);
    }
}

#[test]
fn an_error_reply_to_a_landing_read_is_the_servers_error() {
    let addr = start_forging_server(|id, _| {
        framed(
            id,
            &Response::Error {
                code: ErrorCode::IoFailure,
                message: "no such subfile".into(),
            },
        )
    })
    .to_string();
    let pool = one_shot_pool();
    let (read, pieces) = swapped_read(0, 4096);
    let mut buf = vec![0xEEu8; 4096 + 64];
    let mut landing = Landing::new(&pieces, 4096, &mut buf);
    let resp = pool
        .submit(&addr, &read)
        .unwrap()
        .wait(DEFAULT_RPC_TIMEOUT, Some(&mut landing))
        .unwrap();
    let err = landing.complete(resp, &addr).unwrap_err();
    assert!(
        matches!(
            err,
            DpfsError::Server {
                code: ErrorCode::IoFailure,
                ..
            }
        ),
        "got {err}"
    );
    assert!(buf.iter().all(|&b| b == 0xEE), "an Error reply wrote");
}

/// [`start_reversing_server`] for reads: each round takes `callers`
/// `Read`s, then answers them last first with the honest data.
fn start_reversing_read_server(callers: usize, rounds: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        for _ in 0..rounds {
            let mut round = Vec::with_capacity(callers);
            for _ in 0..callers {
                let f = frame::read_frame_any(&mut stream).unwrap();
                let Request::Read { ranges, .. } = Request::decode(f.payload).unwrap() else {
                    panic!("expected Read");
                };
                round.push((f.corr_id, honest_data(&ranges)));
            }
            for (id, data) in round.into_iter().rev() {
                let resp = Response::DataList { data: data.into() };
                frame::write_frame_v2(&mut stream, id, &resp.encode()).unwrap();
            }
        }
        swallow(stream);
    });
    addr
}

#[test]
fn two_waiters_whose_read_replies_arrive_reversed_get_exact_bytes() {
    const ROUNDS: usize = 20;
    let addr = start_reversing_read_server(2, ROUNDS).to_string();
    let pool = one_shot_pool();
    let barrier = Barrier::new(2);
    let landed: u32 = std::thread::scope(|s| {
        let callers: Vec<_> = (0..2u64)
            .map(|caller| {
                let (pool, addr, barrier) = (&pool, &addr, &barrier);
                s.spawn(move || {
                    let mut landed = 0;
                    for round in 0..ROUNDS as u64 {
                        // Different lengths, so a reply landed in the
                        // wrong buffer cannot fit it.
                        let (off, len) = (round * 4096 + caller * 1000, 300_000 + caller * 4096);
                        let (read, pieces) = swapped_read(off, len);
                        let mut buf = vec![0xEEu8; len as usize + 64];
                        let mut landing = Landing::new(&pieces, len, &mut buf);
                        barrier.wait();
                        let resp = pool
                            .submit(addr, &read)
                            .unwrap()
                            .wait(DEFAULT_RPC_TIMEOUT, Some(&mut landing))
                            .unwrap();
                        landed += landing.landed() as u32;
                        landing.complete(resp, addr).unwrap();
                        assert!(
                            buf == swapped_want(off, len),
                            "round {round} caller {caller}"
                        );
                    }
                    landed
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).sum()
    });
    // Every round, whoever reads takes the other's reply first (handed
    // over whole) and lands its own.
    assert!(
        landed >= ROUNDS as u32,
        "{landed} landings in {ROUNDS} rounds"
    );
    let stats = pool.transport_stats(&addr).unwrap();
    assert_eq!((stats.dials, stats.disconnected), (1, 0));
}
