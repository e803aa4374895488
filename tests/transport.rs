//! Transport-level proofs for the multiplexed wire protocol:
//!
//! - two requests pipelined on ONE server connection overlap their service
//!   time (~D, not ~2D) — the point of correlation IDs;
//! - a request that exceeds its deadline surfaces a typed `Timeout` within
//!   bound, pending peers on the poisoned connection get transport errors
//!   instead of hanging, and the next RPC redials successfully;
//! - dropping a `Pending` evicts its waiter without poisoning;
//! - callers sharing one connection each get their own reply, whichever of
//!   them reads the socket, and a waiter's deadline fails the one reading;
//! - a connection the peer closed while idle is redialed, not failed on;
//! - `ping` counts any protocol-level answer — including
//!   `Error { ShuttingDown }` — as *reachable*.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use dpfs::cluster::{NodeSpec, Testbed};
use dpfs::core::{
    ClientOptions, ConnPool, DpfsError, Hint, Resolver, RetryPolicy, DEFAULT_RPC_TIMEOUT,
};
use dpfs::proto::{frame, ErrorCode, Request, Response};
use dpfs::server::PerfModel;
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

/// One server injecting `DELAY` of per-request (overlappable) latency.
fn one_delayed_server() -> Testbed {
    let model = PerfModel {
        request_latency: DELAY,
        bandwidth: u64::MAX,
        seek_latency: Duration::ZERO,
    };
    Testbed::start(&[NodeSpec::with_model(0, model)]).unwrap()
}

/// A read of a (missing, hence zero-filled) subfile: unlike `Ping`, it pays
/// the injected per-request delay.
fn delayed_req() -> Request {
    Request::Read {
        subfile: "/probe".into(),
        ranges: vec![(0, 1)],
    }
}

#[test]
fn two_requests_pipeline_on_one_connection() {
    let tb = one_delayed_server();
    let client = tb.client_opts(ClientOptions::default());
    let pool = client.pool();
    // Warm up: dial once so the measurement below is pure service time.
    // Ping pays no injected delay.
    pool.rpc("ion00", &Request::Ping).unwrap();

    let start = Instant::now();
    let p1 = pool.submit("ion00", &delayed_req()).unwrap();
    let p2 = pool.submit("ion00", &delayed_req()).unwrap();
    assert_ne!(p1.corr_id(), p2.corr_id(), "correlation IDs must be unique");
    let r1 = p1.wait(Duration::from_secs(10)).unwrap();
    let r2 = p2.wait(Duration::from_secs(10)).unwrap();
    let elapsed = start.elapsed();

    assert!(matches!(r1, Response::DataList { .. }), "got {r1:?}");
    assert!(matches!(r2, Response::DataList { .. }), "got {r2:?}");
    assert!(
        elapsed >= DELAY,
        "two delayed requests finished in {elapsed:?}, below one delay {DELAY:?}?"
    );
    assert!(
        elapsed < DELAY * 2,
        "two pipelined requests on one connection took {elapsed:?}; \
         overlapped service must stay under {:?}",
        DELAY * 2
    );

    let stats = pool.transport_stats("ion00").unwrap();
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
    // Both delayed reads landed in the read-latency histogram, and each
    // took at least the injected delay.
    assert_eq!(stats.read_latency.count, 2);
    assert!(
        stats.read_latency.p50() >= DELAY.as_nanos() as u64,
        "read p50 {}ns below injected delay",
        stats.read_latency.p50()
    );
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
    let err = p1.wait(timeout).unwrap_err();
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
    let err = p2.wait(Duration::from_secs(30)).unwrap_err();
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
                    let resp = pool.submit(addr, &req).unwrap().wait(DEFAULT_RPC_TIMEOUT);
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
                            let resp = p.wait(Duration::from_secs(10));
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
        let long = s.spawn(move || long.wait(Duration::from_secs(30)));
        let short = short.wait(Duration::from_millis(100));
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
    let tb = Testbed::unthrottled(1).unwrap();
    let mut resolver = tb.resolver();
    resolver.alias("ion00", &start_stalled_server().to_string());
    let stalled = dpfs::core::Dpfs::mount(tb.db(), resolver, ClientOptions::default()).unwrap();
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
