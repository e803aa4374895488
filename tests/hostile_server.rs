//! Hostile-server regression tests: a peer that speaks the frame protocol
//! perfectly but lies in the payload must produce a *typed error*, never a
//! client panic.
//!
//! Every read is answered by one coalesced `DataList` whose length the
//! client knows from the ranges it sent. A payload shorter (or longer) than
//! that used to slide through to the scatter copy in `file.rs`, which
//! panicked slicing past its end; now the reply is rejected first and the
//! client returns [`DpfsError::ShortRead`] with the server's name attached.
//! A reply in a retired shape does not decode at all.
//!
//! A read reply streams into the caller's buffer as it arrives, so a lie
//! found only at the end of the frame — a CRC that does not match — must
//! still fail the read, and an attempt cut off half-landed must not leave
//! its bytes behind when a retry succeeds.
//!
//! A `Stats` reply is a peer's word too: one that is not the stats document
//! — a retired format, or a section count the blob cannot hold — scrapes as
//! unreachable instead of being read as one.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use dpfs::cluster::scrape_cluster;
use dpfs::core::trace::{ClusterSnapshot, NodeRole, NodeSnapshot};
use dpfs::core::{
    ClientOptions, Datatype, Dpfs, DpfsError, Granularity, Hint, Resolver, RetryPolicy,
};
use dpfs::meta::{Database, ServerInfo};
use dpfs::proto::{frame, AccessPattern, Request, Response};
use dpfs::server::{ServeCore, Service};

/// How the hostile server answers an enumerated `Read` for `ranges`: the
/// encoded reply, so it can be one no honest server sends.
type ReadForge = fn(&[(u64, u64)]) -> Bytes;

/// A protocol-correct server whose `Read` replies are forged by `forge`.
/// Writes and everything else are answered honestly enough for the
/// client's metadata path to proceed.
fn start_hostile_server(forge: ReadForge) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                while let Ok(f) = frame::read_frame_any(&mut stream) {
                    let Ok(req) = Request::decode(f.payload) else {
                        return;
                    };
                    let reply = match req {
                        Request::Read { ranges, .. } => forge(&ranges),
                        Request::Write { ranges, .. } => Response::Written {
                            bytes: ranges.iter().map(|(_, d)| d.len() as u64).sum(),
                        }
                        .encode(),
                        _ => Response::Pong.encode(),
                    };
                    let id = f.corr_id;
                    if frame::write_frame_v2(&mut stream, id, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A `DataList` reply carrying `len` bytes of `fill`.
fn data_list(len: u64, fill: u8) -> Bytes {
    Response::DataList {
        data: Bytes::from(vec![fill; len as usize]),
    }
    .encode()
}

/// The bytes `ranges` ask for.
fn wanted(ranges: &[(u64, u64)]) -> u64 {
    ranges.iter().map(|&(_, len)| len).sum()
}

/// How a list-speaking hostile server answers a `ReadList` pattern.
/// `None` slams the connection shut — the observable behaviour of an
/// older peer whose decoder has never heard of the list tags.
type ListForge = fn(&AccessPattern) -> Option<Response>;

/// Like [`start_hostile_server`], but scripting the *list* path: legacy
/// requests are answered honestly (zeros, matching lengths), `ReadList`
/// goes through `forge`.
fn start_list_server(forge: ListForge) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                while let Ok(f) = frame::read_frame_any(&mut stream) {
                    let Ok(req) = Request::decode(f.payload) else {
                        return;
                    };
                    let resp = match req {
                        Request::ReadList { pattern, .. } => match forge(&pattern) {
                            Some(resp) => resp,
                            None => return,
                        },
                        Request::Read { ranges, .. } => Response::DataList {
                            data: Bytes::from(vec![0u8; wanted(&ranges) as usize]),
                        },
                        Request::Write { ranges, .. } => Response::Written {
                            bytes: ranges.iter().map(|(_, d)| d.len() as u64).sum(),
                        },
                        Request::WriteList { pattern, .. } => Response::Written {
                            bytes: pattern.total_bytes(),
                        },
                        _ => Response::Pong,
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

/// A client whose only I/O server is the hostile one.
fn hostile_client(tag: &str, addr: SocketAddr) -> Dpfs {
    hostile_client_opts(tag, addr, ClientOptions::default())
}

/// Same, with caller-chosen options (the list-path tests need `Exact`
/// granularity so a strided read stays strided on the wire, and tight
/// retries so a connection-slamming peer fails fast).
fn hostile_client_opts(tag: &str, addr: SocketAddr, opts: ClientOptions) -> Dpfs {
    let dir = std::env::temp_dir().join(format!("dpfs-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(Database::open(&dir).unwrap());
    let mut resolver = Resolver::direct();
    resolver.alias("hostile00", &addr.to_string());
    let client = Dpfs::mount(db, resolver, opts).unwrap();
    client
        .register_server(&ServerInfo {
            name: "hostile00".into(),
            capacity: i64::MAX,
            performance: 1,
        })
        .unwrap();
    client
}

#[test]
fn short_chunk_is_a_typed_error_not_a_panic() {
    // The one payload comes back one byte short of the ranges' sum.
    let addr = start_hostile_server(|ranges| data_list(wanted(ranges) - 1, 7));
    let client = hostile_client("short", addr);
    let mut f = client.create("/lie.dat", &Hint::linear(256, 256)).unwrap();
    let err = f.read_bytes(0, 256).unwrap_err();
    match err {
        DpfsError::ShortRead {
            server,
            expected,
            got,
        } => {
            assert_eq!(server, "hostile00");
            assert_eq!((expected, got), (256, 255));
        }
        other => panic!("expected ShortRead, got {other}"),
    }
}

#[test]
fn oversized_chunk_is_rejected_too() {
    // A payload *longer* than its ranges is just as much of a lie — and
    // silently truncating it would mask server bugs.
    let addr = start_hostile_server(|ranges| data_list(wanted(ranges) + 9, 7));
    let client = hostile_client("long", addr);
    let mut f = client.create("/pad.dat", &Hint::linear(256, 256)).unwrap();
    let err = f.read_bytes(0, 256).unwrap_err();
    assert!(
        matches!(err, DpfsError::ShortRead { got: 265, .. }),
        "expected ShortRead {{ got: 265 }}, got {err}"
    );
}

#[test]
fn a_peer_answering_a_read_with_retired_tag_3_is_a_typed_error_not_a_panic() {
    // An older peer's reply to an enumerated `Read`: response tag 3, one
    // length-prefixed chunk per range, every length honest. The tag is
    // retired, so the reply does not decode; the connection is dropped and
    // the read fails with a transport error once the retries are spent.
    let addr = start_hostile_server(|ranges| {
        let mut reply = BytesMut::new();
        reply.put_u8(3);
        reply.put_u32_le(ranges.len() as u32);
        for &(_, len) in ranges {
            reply.put_u64_le(len);
            reply.put_slice(&vec![0u8; len as usize]);
        }
        reply.freeze()
    });
    let client = hostile_client_opts("tag3", addr, list_opts());
    let mut f = client.create("/old.dat", &Hint::linear(128, 512)).unwrap();
    let err = f.read_bytes(0, 512).unwrap_err();
    match err {
        DpfsError::Disconnected { server, reason } => {
            assert_eq!(server, "hostile00");
            assert!(reason.contains("bad response tag 3"), "{reason}");
        }
        other => panic!("expected Disconnected, got {other}"),
    }
}

#[test]
fn honest_chunks_still_round_trip() {
    // Control: the same raw-server scaffolding answering honestly (zeros,
    // the exact length) passes validation — the check rejects lies, not
    // well-formed replies.
    let addr = start_hostile_server(|ranges| data_list(wanted(ranges), 0));
    let client = hostile_client("honest", addr);
    let mut f = client.create("/ok.dat", &Hint::linear(256, 256)).unwrap();
    assert_eq!(f.read_bytes(0, 256).unwrap(), vec![0u8; 256]);
    let t = client.pool().transport_stats("hostile00").unwrap();
    assert_eq!(
        t.list_io, 0,
        "the read should have gone out as an enumerated Read"
    );
}

/// Exact-granularity options with tight retries, for the list-path tests.
fn list_opts() -> ClientOptions {
    ClientOptions {
        granularity: Granularity::Exact,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    }
}

/// A strided read that the cost model ships as one `ReadList` pattern.
fn strided() -> Datatype {
    Datatype::vector(8, 16, 32)
}

#[test]
fn short_list_payload_is_a_typed_error_not_a_panic() {
    // The DataList payload comes back one byte short of the pattern's
    // total; the reply must be rejected before any scatter copy.
    let addr = start_list_server(|pattern| {
        Some(Response::DataList {
            data: Bytes::from(vec![7u8; pattern.total_bytes() as usize - 1]),
        })
    });
    let client = hostile_client_opts("list-short", addr, list_opts());
    let mut f = client.create("/ls.dat", &Hint::linear(256, 256)).unwrap();
    let err = f.read_datatype(0, &strided()).unwrap_err();
    match err {
        DpfsError::ShortRead {
            server,
            expected,
            got,
            ..
        } => {
            assert_eq!(server, "hostile00");
            assert_eq!((expected, got), (128, 127));
        }
        other => panic!("expected ShortRead, got {other}"),
    }
}

#[test]
fn oversized_list_payload_is_rejected_too() {
    let addr = start_list_server(|pattern| {
        Some(Response::DataList {
            data: Bytes::from(vec![7u8; pattern.total_bytes() as usize + 9]),
        })
    });
    let client = hostile_client_opts("list-long", addr, list_opts());
    let mut f = client.create("/ll.dat", &Hint::linear(256, 256)).unwrap();
    let err = f.read_datatype(0, &strided()).unwrap_err();
    assert!(
        matches!(err, DpfsError::ShortRead { got: 137, .. }),
        "expected ShortRead {{ got: 137 }}, got {err}"
    );
}

#[test]
fn old_peer_slamming_list_requests_is_a_typed_error() {
    // An older peer can't decode tag 11 at all; its framing layer drops
    // the connection. The client must surface a typed transport error
    // after its retries — never hang or panic.
    let addr = start_list_server(|_| None);
    let client = hostile_client_opts("list-old", addr, list_opts());
    let mut f = client.create("/old.dat", &Hint::linear(256, 256)).unwrap();
    let err = f.read_datatype(0, &strided()).unwrap_err();
    assert!(
        matches!(
            err,
            DpfsError::Disconnected { .. } | DpfsError::Connect { .. } | DpfsError::Timeout { .. }
        ),
        "expected a transport error, got {err}"
    );
}

#[test]
fn old_peer_erroring_list_requests_is_a_typed_error() {
    // A peer that *answers* unknown tags with a protocol error (rather
    // than dropping the link) surfaces as a Server error, unretried.
    let addr = start_list_server(|_| {
        Some(Response::Error {
            code: dpfs::proto::ErrorCode::BadRequest,
            message: "unknown request tag".into(),
        })
    });
    let client = hostile_client_opts("list-err", addr, list_opts());
    let mut f = client.create("/err.dat", &Hint::linear(256, 256)).unwrap();
    let err = f.read_datatype(0, &strided()).unwrap_err();
    assert!(
        matches!(err, DpfsError::Server { .. }),
        "expected Server error, got {err}"
    );
}

#[test]
fn honest_list_replies_still_round_trip() {
    // Control: an honest DataList (zeros, exact length) passes validation
    // and the client really did ship the pattern shape.
    let addr = start_list_server(|pattern| {
        Some(Response::DataList {
            data: Bytes::from(vec![0u8; pattern.total_bytes() as usize]),
        })
    });
    let client = hostile_client_opts("list-honest", addr, list_opts());
    let mut f = client.create("/lok.dat", &Hint::linear(256, 256)).unwrap();
    assert_eq!(f.read_datatype(0, &strided()).unwrap(), vec![0u8; 128]);
    let t = client.pool().transport_stats("hostile00").unwrap();
    assert!(t.list_io >= 1, "the read should have gone out as ReadList");
}

/// A daemon whose `Stats` reply carries whatever payload the test sets.
struct StatsForger(Mutex<Bytes>);

impl Service for StatsForger {
    fn name(&self) -> &str {
        "forger"
    }

    fn handle_traced(&self, req: Request, _trace_id: u64) -> Response {
        match req {
            Request::Stats => Response::Stats {
                payload: self.0.lock().unwrap().clone(),
            },
            _ => Response::Pong,
        }
    }
}

#[test]
fn a_stats_payload_in_a_retired_format_scrapes_as_unreachable() {
    let forger = Arc::new(StatsForger(Mutex::new(Bytes::new())));
    let core = ServeCore::start("127.0.0.1:0", forger.clone()).unwrap();
    let client = hostile_client("stats", core.addr());
    let honest = ClusterSnapshot {
        nodes: vec![NodeSnapshot::new(
            "whatever-it-calls-itself",
            NodeRole::Iond,
            [("io.requests", 7)],
            [],
            [],
        )],
    }
    .encode();
    let scrape = |payload: Vec<u8>| {
        *forger.0.lock().unwrap() = Bytes::from(payload);
        let snap = scrape_cluster(&client);
        snap.nodes_of(NodeRole::Iond).cloned().collect::<Vec<_>>()
    };

    // Control: one node of the document is kept under the dialled name.
    let [node] = &scrape(honest.clone())[..] else {
        panic!("one iond node");
    };
    assert_eq!(node.name, "hostile00");
    assert_eq!(node.counters, vec![("io.requests".to_string(), 7)]);

    // The leading bytes of the per-daemon blobs the `Stats` RPC used to
    // carry (I/O server v1-v3, metadata daemon 0x4d/0x4e), in front of a
    // body that would otherwise decode: refused, never read shifted.
    for retired in [1u8, 2, 3, 0x4d, 0x4e] {
        let mut old = honest.clone();
        old[0] = retired;
        let [node] = &scrape(old)[..] else {
            panic!("one iond node for {retired:#x}");
        };
        assert_eq!(
            node.counters,
            vec![("scrape.unreachable".to_string(), 1)],
            "{retired:#x}"
        );
        assert!(
            node.hists.is_empty() && node.gauges.is_empty(),
            "{retired:#x}"
        );
    }
}

/// The current version byte, but a histogram count a 64 KiB reply cannot
/// hold: refused before anything is reserved for it (the count used to
/// reserve 552 bytes per claimed histogram, ~36 MB here).
#[test]
fn a_stats_reply_counting_more_rows_than_it_carries_scrapes_as_unreachable() {
    let mut lying = ClusterSnapshot {
        nodes: vec![NodeSnapshot::new("liar", NodeRole::Iond, [], [], [])],
    }
    .encode();
    // A node's histogram count is its last four bytes.
    let at = lying.len() - 4;
    lying[at..].copy_from_slice(&65_000u32.to_le_bytes());
    lying.resize(64 << 10, 0);
    let forger = Arc::new(StatsForger(Mutex::new(Bytes::from(lying))));
    let core = ServeCore::start("127.0.0.1:0", forger).unwrap();
    let client = hostile_client("stats-count", core.addr());
    let snap = scrape_cluster(&client);
    let [node] = &snap.nodes_of(NodeRole::Iond).collect::<Vec<_>>()[..] else {
        panic!("one iond node");
    };
    assert_eq!(node.counters, vec![("scrape.unreachable".to_string(), 1)]);
    assert!(node.hists.is_empty() && node.gauges.is_empty());
}

/// The byte the raw server holds at subfile offset `off`.
fn pattern(off: u64) -> u8 {
    (off * 13 + off / 509) as u8
}

/// What the raw server sends for one `Read`: the frame bytes, and whether
/// to go silent after them (holding the connection open).
type RawForge = fn(conn: usize, corr_id: u64, data: Vec<u8>) -> (Vec<u8>, bool);

/// A server that answers each `Read` with raw frame bytes `forge` makes
/// of the connection's number, the correlation ID and the honest data;
/// everything else as [`start_hostile_server`] does.
fn start_raw_server(forge: RawForge) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (conn, stream) in listener.incoming().enumerate() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                while let Ok(f) = frame::read_frame_any(&mut stream) {
                    let Ok(req) = Request::decode(f.payload) else {
                        return;
                    };
                    let (wire, stall) = match req {
                        Request::Read { ranges, .. } => {
                            let data = ranges
                                .iter()
                                .flat_map(|&(off, len)| (off..off + len).map(pattern))
                                .collect();
                            forge(conn, f.corr_id, data)
                        }
                        _ => {
                            let mut wire = Vec::new();
                            frame::write_frame_v2(&mut wire, f.corr_id, &Response::Pong.encode())
                                .unwrap();
                            (wire, false)
                        }
                    };
                    if std::io::Write::write_all(&mut stream, &wire).is_err() {
                        return;
                    }
                    if stall {
                        // Silent until the client severs the connection.
                        let mut sink = [0u8; 4096];
                        while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0)
                        {
                        }
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// `data` as one `DataList` frame under `corr_id`.
fn data_list_frame(corr_id: u64, data: Vec<u8>) -> Vec<u8> {
    let mut wire = Vec::new();
    let reply = Response::DataList { data: data.into() }.encode();
    frame::write_frame_v2(&mut wire, corr_id, &reply).unwrap();
    wire
}

#[test]
fn a_read_reply_whose_crc_fails_at_the_end_is_an_error_never_ok() {
    // The right length and the right bytes under a wrong CRC: a reply that
    // lands chunk by chunk before the mismatch shows.
    let addr = start_raw_server(|_, id, data| {
        let mut wire = data_list_frame(id, data);
        wire[17] ^= 0x80;
        (wire, false)
    });
    let client = hostile_client_opts("crc-late", addr, list_opts());
    const LEN: u64 = 2 << 20;
    let mut f = client.create("/crc.dat", &Hint::linear(LEN, LEN)).unwrap();
    let err = f.read_bytes(0, LEN).unwrap_err();
    match err {
        DpfsError::Disconnected { server, reason } => {
            assert_eq!(server, "hostile00");
            assert!(reason.contains("checksum"), "{reason}");
        }
        other => panic!("expected Disconnected, got {other}"),
    }
    let t = client.pool().transport_stats("hostile00").unwrap();
    assert_eq!(t.retries, 1, "the retry landed the same lie");
    assert_eq!(t.disconnected, 2, "each attempt's connection is poisoned");
}

#[test]
fn a_read_that_landed_then_timed_out_retries_to_the_exact_bytes() {
    // The first connection sends the header and half the payload, then
    // goes silent; every later one answers honestly. The first attempt
    // lands half its bytes, times out; the retry lands them all again.
    let addr = start_raw_server(|conn, id, data| {
        let wire = data_list_frame(id, data);
        if conn == 0 {
            (wire[..wire.len() / 2].to_vec(), true)
        } else {
            (wire, false)
        }
    });
    let deadline = Duration::from_millis(300);
    let opts = ClientOptions {
        rpc_timeout: deadline,
        ..list_opts()
    };
    let client = hostile_client_opts("landed-timeout", addr, opts);
    const LEN: u64 = 2 << 20;
    let mut f = client.create("/half.dat", &Hint::linear(LEN, LEN)).unwrap();
    let got = f.read_bytes(0, LEN).unwrap();
    let want: Vec<u8> = (0..LEN).map(pattern).collect();
    assert!(got == want, "the retried read returned other bytes");
    let t = client.pool().transport_stats("hostile00").unwrap();
    assert_eq!((t.timed_out, t.retries), (1, 1));
}
