//! Microbenchmarks: the server subfile store, and sieving against it.

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
                .read_ranges("/bench", &[(off, 64 * 1024)])
                .unwrap()
                .len()
        })
    });

    c.bench_function("subfile_scatter_read_16x4k", |b| {
        let ranges: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 65536, 4096)).collect();
        b.iter(|| {
            store
                .read_ranges("/bench", black_box(&ranges))
                .unwrap()
                .len()
        })
    });
}

/// Data sieving, measured not built (ROADMAP item 4(b)): 1024 ranges of
/// 64 B read one `pread` each — what the store does — against one `pread`
/// of their hull plus an in-memory gather, at stride 4096 (density 1/64,
/// the `strided_read` per-server list) and at densities 1/32, 1/16, 1/4, 1/2.
/// The hull read needs a scratch buffer of `1023 * stride + 64` bytes.
fn bench_sieve(c: &mut Criterion) {
    use std::os::unix::fs::FileExt;

    const COUNT: u64 = 1024;
    const PIECE: u64 = 64;
    let dir = std::env::temp_dir().join(format!("dpfs-bench-sieve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SubfileStore::open(&dir, 0).unwrap();
    store
        .write_ranges(
            "/sieve",
            &[(0, Bytes::from(vec![0x5Au8; (COUNT * 4096) as usize]))],
        )
        .unwrap();
    // The hull side reads the same local file the store wrote.
    let file = std::fs::File::open(
        std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path(),
    )
    .unwrap();
    for (label, stride) in [
        ("1_64", 4096u64),
        ("1_32", 2048),
        ("1_16", 1024),
        ("1_4", 256),
        ("1_2", 128),
    ] {
        let ranges: Vec<(u64, u64)> = (0..COUNT).map(|i| (i * stride, PIECE)).collect();
        c.bench_function(&format!("sieve_per_range_1024x64_density_{label}"), |b| {
            b.iter(|| {
                store
                    .read_ranges_coalesced("/sieve", black_box(&ranges))
                    .unwrap()
                    .len()
            })
        });
        let hull = ((COUNT - 1) * stride + PIECE) as usize;
        c.bench_function(&format!("sieve_hull_gather_1024x64_density_{label}"), |b| {
            b.iter(|| {
                let mut scratch = vec![0u8; hull];
                file.read_exact_at(&mut scratch, 0).unwrap();
                let mut out = Vec::with_capacity((COUNT * PIECE) as usize);
                for &(off, len) in black_box(&ranges) {
                    out.extend_from_slice(&scratch[off as usize..(off + len) as usize]);
                }
                out.len()
            })
        });
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_subfile, bench_sieve);
criterion_main!(benches);
