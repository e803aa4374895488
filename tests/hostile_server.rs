//! Hostile-server regression tests: a peer that speaks the frame protocol
//! perfectly but lies in the payload must produce a *typed error*, never a
//! client panic.
//!
//! Before the fix, the client validated only the chunk *count* of a read
//! reply; a chunk shorter than its requested range slid through to the
//! scatter copy in `file.rs`, which panicked slicing past the chunk's end.
//! Now every chunk's length is checked against its range and the client
//! returns [`DpfsError::ShortRead`] with the server's name attached.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use dpfs::core::{
    ClientOptions, Datatype, Dpfs, DpfsError, Granularity, Hint, Resolver, RetryPolicy,
};
use dpfs::meta::{Database, ServerInfo};
use dpfs::proto::{frame, AccessPattern, Request, Response};

/// How the hostile server answers a `Read` for `ranges`.
type ChunkForge = fn(&[(u64, u64)]) -> Vec<Bytes>;

/// A protocol-correct server whose read replies carry chunks forged by
/// `forge`. Writes and everything else are answered honestly enough for
/// the client's metadata path to proceed.
fn start_hostile_server(forge: ChunkForge) -> SocketAddr {
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
                        Request::Read { ranges, .. } => Response::Data {
                            chunks: forge(&ranges),
                        },
                        Request::Write { ranges, .. } => Response::Written {
                            bytes: ranges.iter().map(|(_, d)| d.len() as u64).sum(),
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
                        Request::Read { ranges, .. } => Response::Data {
                            chunks: ranges
                                .iter()
                                .map(|&(_, len)| Bytes::from(vec![0u8; len as usize]))
                                .collect(),
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
    // Every chunk comes back one byte short of its promised range.
    let addr = start_hostile_server(|ranges| {
        ranges
            .iter()
            .map(|&(_, len)| Bytes::from(vec![7u8; len.saturating_sub(1) as usize]))
            .collect()
    });
    let client = hostile_client("short", addr);
    let mut f = client.create("/lie.dat", &Hint::linear(256, 256)).unwrap();
    let err = f.read_bytes(0, 256).unwrap_err();
    match err {
        DpfsError::ShortRead {
            server,
            chunk,
            expected,
            got,
        } => {
            assert_eq!(server, "hostile00");
            assert_eq!(chunk, 0);
            assert_eq!((expected, got), (256, 255));
        }
        other => panic!("expected ShortRead, got {other}"),
    }
}

#[test]
fn oversized_chunk_is_rejected_too() {
    // A chunk *longer* than its range is just as much of a lie — and
    // silently truncating it would mask server bugs.
    let addr = start_hostile_server(|ranges| {
        ranges
            .iter()
            .map(|&(_, len)| Bytes::from(vec![7u8; len as usize + 9]))
            .collect()
    });
    let client = hostile_client("long", addr);
    let mut f = client.create("/pad.dat", &Hint::linear(256, 256)).unwrap();
    let err = f.read_bytes(0, 256).unwrap_err();
    assert!(
        matches!(err, DpfsError::ShortRead { got: 265, .. }),
        "expected ShortRead {{ got: 265 }}, got {err}"
    );
}

#[test]
fn wrong_chunk_count_is_rejected() {
    // The server answers every read with zero chunks, whatever was asked.
    let addr = start_hostile_server(|_| Vec::new());
    let client = hostile_client("count", addr);
    let mut f = client
        .create("/count.dat", &Hint::linear(128, 512))
        .unwrap();
    let err = f.read_bytes(0, 512).unwrap_err();
    assert!(
        matches!(err, DpfsError::InvalidArgument(_)),
        "expected InvalidArgument, got {err}"
    );
}

#[test]
fn honest_chunks_still_round_trip() {
    // Control: the same raw-server scaffolding answering honestly (zeros,
    // matching lengths) passes validation — the checks reject lies, not
    // well-formed replies.
    let addr = start_hostile_server(|ranges| {
        ranges
            .iter()
            .map(|&(_, len)| Bytes::from(vec![0u8; len as usize]))
            .collect()
    });
    let client = hostile_client("honest", addr);
    let mut f = client.create("/ok.dat", &Hint::linear(256, 256)).unwrap();
    assert_eq!(f.read_bytes(0, 256).unwrap(), vec![0u8; 256]);
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
