//! Encoding stability: the exact bytes of one sample of every request,
//! every reply, an unknown error code, both pattern segments and a metadata
//! op and result, as hex literals. A codec change that moves any byte —
//! a tag, a field's order or width, a length prefix — fails here, whatever
//! it does to round trips.

use bytes::{Bytes, BytesMut};
use dpfs_meta::{Distribution, FileAttrRow, FileEntry};
use dpfs_proto::{AccessPattern, ErrorCode, MetaOp, MetaResult, PatternSeg, Request, Response};

/// Hex digits to bytes; whitespace between them is ignored.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

fn to_hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// The 1 KiB range of the sample `Write`: long enough to ride as its own
/// part on the scatter-gather path.
fn kib() -> Bytes {
    Bytes::from((0..1024u32).map(|i| (i % 251) as u8).collect::<Vec<_>>())
}

/// A run, then a three-block vector.
fn pattern() -> AccessPattern {
    AccessPattern::new(vec![
        PatternSeg::Run {
            offset: 5,
            len: 100,
        },
        PatternSeg::Vector {
            start: 200,
            count: 3,
            blocklen: 10,
            stride: 50,
        },
    ])
    .unwrap()
}

fn attr() -> FileAttrRow {
    FileAttrRow {
        filename: "/f".into(),
        owner: "o".into(),
        permission: 0o644,
        size: 4096,
        filelevel: "linear".into(),
        dims: 1,
        dimsize: vec![4096],
        stripe_dims: vec![],
        stripe_size: 1024,
        pattern: "".into(),
        placement: "rr".into(),
        redundancy: "none".into(),
    }
}

fn dist() -> Vec<Distribution> {
    vec![Distribution {
        server: "s0".into(),
        filename: "/f".into(),
        bricklist: vec![0, 2],
    }]
}

/// The file id 0x0001_0000_0000_0007 (shard 1, sequence value 7), then
/// [`attr`] and [`dist`].
fn entry() -> FileEntry {
    FileEntry {
        id: 1 << 48 | 7,
        attr: attr(),
        dist: dist(),
    }
}

/// [`entry`]'s encoding: the id leads, eight bytes little-endian.
const ENTRY: &str = "0700000000000100
    02000000 2f66 01000000 6f a401000000000000 0010000000000000
    06000000 6c696e656172 0100000000000000
    01000000 0010000000000000 00000000 0004000000000000
    00000000 02000000 7272 04000000 6e6f6e65
    01000000 02000000 7330 02000000 2f66
    02000000 0000000000000000 0200000000000000";

fn requests() -> Vec<(&'static str, Request, Vec<u8>)> {
    vec![
        ("Ping", Request::Ping, hex("01")),
        (
            "Write",
            Request::Write {
                subfile: "/d".into(),
                ranges: vec![(7, Bytes::from_static(b"abc")), (4096, kib())],
            },
            [
                hex("02 02000000 2f64 02000000
                     0700000000000000 0300000000000000 616263
                     0010000000000000 0004000000000000"),
                kib().to_vec(),
            ]
            .concat(),
        ),
        (
            "Read",
            Request::Read {
                subfile: "/d".into(),
                ranges: vec![(0, 10), (100, 20)],
            },
            hex("03 02000000 2f64 02000000
                 0000000000000000 0a00000000000000
                 6400000000000000 1400000000000000"),
        ),
        (
            "Delete",
            Request::Delete {
                subfile: "/d".into(),
            },
            hex("04 02000000 2f64"),
        ),
        (
            "Stat",
            Request::Stat {
                subfile: "/d".into(),
            },
            hex("05 02000000 2f64"),
        ),
        (
            "Sync",
            Request::Sync {
                subfile: "/d".into(),
            },
            hex("07 02000000 2f64"),
        ),
        ("Shutdown", Request::Shutdown, hex("08")),
        ("Stats", Request::Stats, hex("09")),
        (
            "Meta",
            Request::Meta {
                op: MetaOp::ExtendDistribution {
                    filename: "/f".into(),
                    bricks: 4,
                },
            },
            hex("0a 21 02000000 2f66 0400000000000000"),
        ),
        (
            "ReadList",
            Request::ReadList {
                subfile: "/d".into(),
                pattern: pattern(),
            },
            hex("0b 02000000 2f64 02000000
                 01 0500000000000000 6400000000000000
                 02 c800000000000000 03000000 0a000000 3200000000000000"),
        ),
        (
            "WriteList",
            Request::WriteList {
                subfile: "/d".into(),
                pattern: pattern(),
                payload: Bytes::from(vec![0xee; 130]),
            },
            [
                hex("0c 02000000 2f64 02000000
                     01 0500000000000000 6400000000000000
                     02 c800000000000000 03000000 0a000000 3200000000000000
                     8200000000000000"),
                vec![0xee; 130],
            ]
            .concat(),
        ),
        (
            "Meta(RenameCommit)",
            Request::Meta {
                op: MetaOp::RenameCommit {
                    entry: entry(),
                    tags: vec![("k".into(), "v".into())],
                },
            },
            hex(&format!("0a 1a {ENTRY} 01000000 01000000 6b 01000000 76")),
        ),
    ]
}

fn responses() -> Vec<(&'static str, Response, Vec<u8>)> {
    vec![
        ("Pong", Response::Pong, hex("01")),
        (
            "Written",
            Response::Written { bytes: 4096 },
            hex("02 0010000000000000"),
        ),
        ("Deleted", Response::Deleted { existed: true }, hex("04 01")),
        (
            "Stat",
            Response::Stat {
                exists: true,
                size: 300,
            },
            hex("05 01 2c01000000000000"),
        ),
        (
            "Error",
            Response::Error {
                code: ErrorCode::NoSuchSubfile,
                message: "no".into(),
            },
            hex("07 01 02000000 6e6f"),
        ),
        (
            "Error(Unknown(0x42))",
            Response::Error {
                code: ErrorCode::Unknown(0x42),
                message: "?".into(),
            },
            hex("07 42 01000000 3f"),
        ),
        (
            "Stats",
            Response::Stats {
                payload: Bytes::from_static(&[0x43, 1, 2]),
            },
            hex("08 0300000000000000 430102"),
        ),
        (
            "Meta",
            Response::Meta {
                shard: 3,
                result: MetaResult::MaybeEntry(Some(entry())),
            },
            hex(&format!("09 03000000 10 01 {ENTRY}")),
        ),
        (
            "Meta(RenamePrepared)",
            Response::Meta {
                shard: 3,
                result: MetaResult::RenamePrepared {
                    intent: 9,
                    entry: entry(),
                    tags: vec![],
                },
            },
            hex(&format!("09 03000000 0e 0900000000000000 {ENTRY} 00000000")),
        ),
        (
            "DataList",
            Response::DataList {
                data: Bytes::from_static(b"xyz"),
            },
            hex("0a 0300000000000000 78797a"),
        ),
    ]
}

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    let mut wrong = Vec::new();
    for (name, req, want) in requests() {
        let whole = req.encode();
        let parts: Vec<u8> = req.encode_parts().concat();
        if whole[..] != want[..] || parts != want {
            wrong.push(format!("request {name}: {}", to_hex(&whole)));
        }
        assert_eq!(Request::decode(Bytes::from(want)).unwrap(), req, "{name}");
    }
    for (name, resp, want) in responses() {
        let whole = resp.encode();
        let parts: Vec<u8> = resp.encode_parts().concat();
        if whole[..] != want[..] || parts != want {
            wrong.push(format!("response {name}: {}", to_hex(&whole)));
        }
        assert_eq!(Response::decode(Bytes::from(want)).unwrap(), resp, "{name}");
    }
    assert!(wrong.is_empty(), "encodings moved:\n{}", wrong.join("\n"));
}

#[test]
fn every_request_and_reply_kind_has_a_sample() {
    // One sample per kind, so a kind added without a pinned encoding is
    // noticed here: 12 requests, 9 replies (`Error` twice).
    assert_eq!(requests().len(), 12);
    let kinds: std::collections::HashSet<_> =
        requests().iter().map(|(_, r, _)| r.kind_str()).collect();
    assert_eq!(kinds.len(), 12);
    assert_eq!(responses().len(), 10);
}

#[test]
fn a_pattern_encodes_to_its_pinned_bytes() {
    let want = hex("02000000
                    01 0500000000000000 6400000000000000
                    02 c800000000000000 03000000 0a000000 3200000000000000");
    let mut buf = BytesMut::new();
    pattern().encode_into(&mut buf);
    assert_eq!(to_hex(&buf), to_hex(&want));
    assert_eq!(pattern().encoded_len(), want.len());
    let mut bytes = Bytes::from(want);
    assert_eq!(AccessPattern::decode_from(&mut bytes).unwrap(), pattern());
    assert!(bytes.is_empty());
}
