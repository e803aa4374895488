//! Microbenchmarks: wire-protocol encode/decode and framing.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpfs_proto::{frame, Request, Response};

fn bench_codec(c: &mut Criterion) {
    let write_req = Request::Write {
        subfile: "/home/xhshen/dpfs.test".into(),
        ranges: (0..64)
            .map(|i| (i * 4096, Bytes::from(vec![0xABu8; 4096])))
            .collect(),
    };
    c.bench_function("encode_combined_write_64x4k", |b| {
        b.iter(|| black_box(&write_req).encode().len())
    });
    let encoded = write_req.encode();
    c.bench_function("decode_combined_write_64x4k", |b| {
        b.iter(|| Request::decode(black_box(encoded.clone())).unwrap())
    });
    let payload = vec![0x5Au8; 256 * 1024];
    c.bench_function("frame_roundtrip_256k", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(payload.len() + 16);
            frame::write_frame_v2(&mut buf, 1, black_box(&payload)).unwrap();
            frame::read_frame_any(&mut std::io::Cursor::new(&buf))
                .unwrap()
                .payload
                .len()
        })
    });
    // Floor references for the byte path: what one checksum pass and one
    // trip through the framing layer cost per payload size. 64 B is where
    // `crc32_update` switches from its tables to the carry-less-multiply
    // kernel; WAL records and metadata frames sit around that size.
    for (name, len) in [
        ("crc32_64", 64),
        ("crc32_256", 256),
        ("crc32_4k", 4 << 10),
        ("crc32_1m", 1 << 20),
    ] {
        let block = vec![0xA5u8; len];
        c.bench_function(name, |b| b.iter(|| frame::crc32(black_box(&block))));
    }
    let payload = vec![0x5Au8; 1 << 20];
    c.bench_function("frame_write_read_1m", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(payload.len() + 32);
            frame::write_frame_v2(&mut buf, 7, black_box(&payload)).unwrap();
            frame::read_frame_any(&mut &buf[..]).unwrap().payload.len()
        })
    });
    // A 1 MiB list-read reply as the server sends it (parts, one CRC pass,
    // gathered write) and as the client takes it apart again.
    let reply = Response::DataList {
        data: Bytes::from(payload),
    };
    c.bench_function("datalist_encode_decode_1m", |b| {
        b.iter(|| {
            let parts = black_box(&reply).encode_parts();
            let refs: Vec<&[u8]> = parts.iter().map(|p| &p[..]).collect();
            let mut wire = Vec::with_capacity((1 << 20) + 64);
            frame::write_frame_v2_parts(&mut wire, 7, &refs).unwrap();
            let frame = frame::read_frame_any(&mut &wire[..]).unwrap();
            Response::decode(frame.payload).unwrap()
        })
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
