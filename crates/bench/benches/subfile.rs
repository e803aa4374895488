//! Microbenchmarks: the server subfile store, dense and strided.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpfs_server::SubfileStore;

fn bench_subfile(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("dpfs-bench-subfile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SubfileStore::open(&dir, 0).unwrap();
    let payload = Bytes::from(vec![0xAAu8; 64 * 1024]);
    store
        .write_ranges("/bench", &[(0, Bytes::from(vec![0u8; 1 << 20]))])
        .unwrap();

    c.bench_function("subfile_write_64k", |b| {
        let mut off = 0u64;
        b.iter(|| {
            off = (off + 64 * 1024) % (1 << 20);
            store
                .write_ranges("/bench", &[(off, payload.clone())])
                .unwrap()
        })
    });

    c.bench_function("subfile_read_64k", |b| {
        let mut off = 0u64;
        b.iter(|| {
            off = (off + 64 * 1024) % (1 << 20);
            store
                .read_ranges_coalesced("/bench", &[(off, 64 * 1024)])
                .unwrap()
                .len()
        })
    });

    c.bench_function("subfile_scatter_read_16x4k", |b| {
        let ranges: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 65536, 4096)).collect();
        b.iter(|| {
            store
                .read_ranges_coalesced("/bench", black_box(&ranges))
                .unwrap()
                .len()
        })
    });
}

/// Strided reads of the store: 1024 ranges of 64 B at strides 128 to
/// 16384 (density 1/2 to 1/256; 4096 is the `strided_read` per-server
/// list). Up to stride 4096 every gap lies in a page a range touches, so the
/// store reads the ranges in runs of page-adjacent ranges, one call per run
/// (`page_runs`); from 8192 a gap would skip a whole page, and each range
/// is its own call (`per_range`).
fn bench_sieve(c: &mut Criterion) {
    const COUNT: u64 = 1024;
    const PIECE: u64 = 64;
    let dir = std::env::temp_dir().join(format!("dpfs-bench-sieve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SubfileStore::open(&dir, 0).unwrap();
    store
        .write_ranges(
            "/sieve",
            &[(0, Bytes::from(vec![0x5Au8; (COUNT * 16384) as usize]))],
        )
        .unwrap();
    for (stride, reads) in [
        (128u64, "page_runs"),
        (256, "page_runs"),
        (1024, "page_runs"),
        (2048, "page_runs"),
        (4096, "page_runs"),
        (8192, "per_range"),
        (16384, "per_range"),
    ] {
        let ranges: Vec<(u64, u64)> = (0..COUNT).map(|i| (i * stride, PIECE)).collect();
        c.bench_function(
            &format!("store_read_1024x64_stride_{stride}_{reads}"),
            |b| {
                b.iter(|| {
                    store
                        .read_ranges_coalesced("/sieve", black_box(&ranges))
                        .unwrap()
                        .len()
                })
            },
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_subfile, bench_sieve);
criterion_main!(benches);
