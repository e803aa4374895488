//! Parallel per-server dispatch, counted: a combined access touching four
//! servers has every request on the wire before it awaits any, so a server
//! that withholds its reply until the other three have received theirs is
//! answered. And the shape of the paper's general approach (`combine =
//! false`): one request per touched brick, submitted in ascending brick
//! order whatever the client's rank.

mod common;

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dpfs::cluster::Testbed;
use dpfs::core::trace::{ring, Side};
use dpfs::core::{ClientOptions, FileHandle, Hint};
use dpfs::proto::{Request, Response};
use dpfs::server::{Handler, ServeConfig, ServeCore, Service, SubfileStore};

use common::Rooted;

const SERVERS: usize = 4;

/// The hang watchdog: how long the other servers may take to receive their
/// requests while ion00 withholds its reply. They take microseconds; a
/// client that awaits ion00's reply before it submits theirs never sends
/// them.
const HANG: Duration = Duration::from_secs(10);

/// ion00's service: a subfile handler of its own that holds every data
/// request at a gate until the test opens it.
struct Gated {
    handler: Handler,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Service for Gated {
    fn name(&self) -> &str {
        self.handler.name()
    }

    fn handle_traced(&self, req: Request, trace_id: u64) -> Response {
        if req.payload_bytes() > 0 {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }
        self.handler.handle_traced(req, trace_id)
    }
}

impl Gated {
    fn set(&self, open: bool) {
        *self.open.lock().unwrap() = open;
        self.opened.notify_all();
    }
}

#[test]
fn combined_access_overlaps_server_delays() {
    let mut tb = Testbed::unthrottled(SERVERS).unwrap();
    let root = std::env::temp_dir().join(format!("dpfs-gated-ion00-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let gated = Arc::new(Gated {
        handler: Handler::new("ion00", SubfileStore::open(&root, 0).unwrap()),
        open: Mutex::new(false),
        opened: Condvar::new(),
    });
    let ion00 = Rooted::new(
        root,
        ServeCore::start_with("127.0.0.1:0", gated.clone(), ServeConfig::default()).unwrap(),
    );
    tb.route_through(0, ion00.addr());
    let client = tb.client_opts(ClientOptions::default());
    // 64-byte bricks, one brick per server: each combined access becomes
    // exactly one request to each of the four servers, ion00's first.
    let mut f = client.create("/par", &Hint::linear(64, 0)).unwrap();
    let data: Vec<u8> = (0..64 * SERVERS).map(|x| x as u8).collect();
    let others = || -> Vec<u64> {
        tb.server_stats()[1..]
            .iter()
            .map(|(_, s)| s.requests)
            .collect()
    };

    for op in ["write", "read"] {
        let before = others();
        gated.set(false);
        std::thread::scope(|scope| {
            let f = &mut f;
            let data = &data;
            let issued = scope.spawn(move || match op {
                "write" => f.write_bytes(0, data),
                _ => f
                    .read_bytes(0, data.len() as u64)
                    .map(|back| assert_eq!(&back, data)),
            });
            let deadline = Instant::now() + HANG;
            while others().iter().zip(&before).any(|(now, was)| now == was) {
                if Instant::now() > deadline {
                    let stuck = others();
                    gated.set(true);
                    let _ = issued.join();
                    panic!(
                        "{op}: ion00 held its request for {HANG:?} and the other servers' \
                         request counts stayed {before:?} -> {stuck:?}: the client awaits \
                         one server before it submits to the next"
                    );
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            gated.set(true);
            issued.join().unwrap().unwrap();
        });
    }
    assert_eq!(
        gated.handler.stats().snapshot().requests,
        2,
        "ion00 served both"
    );
}

/// The servers of the client `rpc` spans of `f`'s last operation, in the
/// order the requests were awaited — which is the order they were planned
/// and submitted in.
fn rpc_order(f: &FileHandle, cursor: u64) -> Vec<String> {
    ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.trace_id == f.last_trace_id() && e.side == Side::Client && e.phase == "rpc")
        .map(|e| e.server)
        .collect()
}

#[test]
fn general_approach_issues_one_request_per_brick_in_brick_order() {
    let tb = Testbed::unthrottled(SERVERS).unwrap();
    // Rank 2: a combined access would start at server 2. Each brick planned
    // alone has nothing to stagger.
    let client = tb.client_opts(ClientOptions {
        combine: false,
        rank: 2,
        ..ClientOptions::default()
    });
    const BRICKS: usize = 8;
    let mut f = client.create("/general", &Hint::linear(64, 0)).unwrap();
    let data: Vec<u8> = (0..64 * BRICKS).map(|x| (x % 251) as u8).collect();
    let brick_order: Vec<String> = (0..BRICKS)
        .map(|b| format!("ion{:02}", b % SERVERS))
        .collect();

    let cursor = ring().cursor();
    f.write_bytes(0, &data).unwrap();
    assert_eq!(f.stats().requests, BRICKS as u64);
    assert_eq!(rpc_order(&f, cursor), brick_order);

    let cursor = ring().cursor();
    let back = f.read_bytes(0, data.len() as u64).unwrap();
    assert_eq!(back, data);
    assert_eq!(f.stats().requests, 2 * BRICKS as u64);
    assert_eq!(rpc_order(&f, cursor), brick_order);

    // A partial access touches (and asks for) only its own bricks: bytes
    // 100..300 live in bricks 1..=4.
    let before = f.stats().requests;
    assert_eq!(f.read_bytes(100, 200).unwrap(), data[100..300]);
    assert_eq!(f.stats().requests - before, 4);
}
