//! Microbenchmarks: the server subfile store, dense and strided.

use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, Ordering};

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpfs_server::sieve::{gather_run, preadv_run, Mapping};
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
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strided reads of the store: 1024 ranges of 64 B at strides 128 to
/// 16384 (density 1/2 to 1/256; 4096 is the `strided_read` per-server
/// list). Up to stride 4096 every gap lies in a page a range touches, so
/// the store reads the ranges in runs of page-adjacent ranges; from 8192 a
/// gap would skip a whole page, and each range is its own run. A run with
/// gaps whose hull spans `GATHER_MIN_PAGES` pages or more is gathered from
/// the subfile's mapping, any other run read with one vectored read.
///
/// `store_read_*` is what the store picks; beside it, at each stride, both
/// ways forced over the same runs: `*_read` (one vectored read per run, gaps
/// into a discard buffer) and `*_gathered` (the shard's gather: `mincore`,
/// copy, release, per window; `*_populate` is the worker's, with
/// `MADV_POPULATE_READ`). `sieve_run_*p` sweeps one run of 1 to 256 pages
/// at 64 B per page through both ways — the crossover sets
/// `GATHER_MIN_PAGES` — each iteration at the next run's place in the
/// file, so that no run reads pages the one before left in the core's
/// cache, as an iond serving many requests does not. `*_busy` repeats an
/// arm while another thread of the process spins, so that each window's
/// release interrupts it to flush its TLB, as it does a serving iond's
/// other threads. Both files are written a page per `pwrite`, as an iond
/// writes a linearly striped subfile (one brick per row); the page cache
/// then holds single-page folios, each mapped and released on its own.
fn bench_sieve(c: &mut Criterion) {
    const COUNT: u64 = 1024;
    const PIECE: u64 = 64;
    const SIZE: u64 = COUNT * 16384;
    let dir = std::env::temp_dir().join(format!("dpfs-bench-sieve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SubfileStore::open(&dir, 0).unwrap();
    let data = Bytes::from(vec![0x5Au8; SIZE as usize]);
    let pages: Vec<(u64, Bytes)> = (0..SIZE / 4096)
        .map(|i| {
            (
                i * 4096,
                data.slice(i as usize * 4096..(i as usize + 1) * 4096),
            )
        })
        .collect();
    store.write_ranges("/sieve", &pages).unwrap();
    let path = dir.join("arms");
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)
        .unwrap();
    for (off, page) in &pages {
        file.write_all_at(page, *off).unwrap();
    }
    let map = Mapping::new(&file, SIZE).unwrap();
    // Every run of `ranges` one way, into one reply, as the store does.
    let each_run = |ranges: &[(u64, u64)], way: &str| {
        let mut reply = Vec::with_capacity(ranges.len() * PIECE as usize);
        let mut rest = ranges;
        while !rest.is_empty() {
            let n = match way {
                "read" => preadv_run(&file, rest, SIZE, &mut reply, true),
                "gathered" => gather_run(&map, rest, SIZE, &mut reply, true),
                _ => gather_run(&map, rest, SIZE, &mut reply, false),
            };
            rest = &rest[n.unwrap()..];
        }
        reply.len()
    };
    let strided = |stride: u64, count: u64| -> Vec<(u64, u64)> {
        (0..count).map(|i| (i * stride, PIECE)).collect()
    };
    for stride in [128u64, 256, 1024, 2048, 4096, 8192, 16384] {
        let ranges = strided(stride, COUNT);
        c.bench_function(&format!("store_read_1024x64_stride_{stride}"), |b| {
            b.iter(|| {
                store
                    .read_ranges_coalesced("/sieve", black_box(&ranges))
                    .unwrap()
                    .len()
            })
        });
        for way in ["read", "gathered"] {
            c.bench_function(&format!("sieve_1024x64_stride_{stride}_{way}"), |b| {
                b.iter(|| each_run(black_box(&ranges), way))
            });
        }
    }
    c.bench_function("sieve_1024x64_stride_4096_populate", |b| {
        b.iter(|| each_run(black_box(&strided(4096, COUNT)), "populate"))
    });
    let sweep = [1u64, 2, 4, 8, 16, 32, 48, 64, 96, 128, 256];
    for busy in [false, true] {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            if busy {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            }
            let tag = if busy { "_busy" } else { "" };
            for pages in sweep {
                let runs: Vec<Vec<(u64, u64)>> = (0..SIZE / 4096 / pages)
                    .map(|run| {
                        let first = run * pages * 4096;
                        (0..pages).map(|i| (first + i * 4096, PIECE)).collect()
                    })
                    .collect();
                for way in ["read", "gathered"] {
                    c.bench_function(&format!("sieve_run_{pages}p_{way}{tag}"), |b| {
                        let mut next = runs.iter().cycle();
                        b.iter(|| each_run(black_box(next.next().unwrap()), way))
                    });
                }
            }
            if busy {
                for way in ["read", "gathered"] {
                    c.bench_function(&format!("sieve_1024x64_stride_4096_{way}{tag}"), |b| {
                        b.iter(|| each_run(black_box(&strided(4096, COUNT)), way))
                    });
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
    drop((store, map));
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_subfile, bench_sieve);
criterion_main!(benches);
