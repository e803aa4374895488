//! The scenario catalog: five workload shapes the bench plane tracks.
//!
//! Each scenario builds a *fresh* cluster (so the scrape's cumulative
//! server histograms describe exactly this scenario's window), replays
//! its storm through simulated clients, and returns a
//! [`ScenarioOutcome`]. Scale constants come in full and `--quick`
//! (CI smoke) variants: quick cuts simulated-client and op counts but
//! keeps the concurrency structure, so throughput stays comparable
//! within a generous tolerance band.

use dpfs_core::{ClientOptions, Dpfs, Hint, RedundancyPolicy, RetryPolicy};
use rand::Rng;

use crate::{timed, Harness, ScenarioOutcome, Zipf};

/// Names of every scenario, in run order.
pub const SCENARIO_NAMES: [&str; 7] = [
    "small_file_read_storm",
    "stat_epoch",
    "checkpoint_burst",
    "create_rename_storm",
    "zipfian_mixed",
    "degraded_read_storm",
    "strided_column_scan",
];

/// Run one scenario by name (`quick` shrinks it to CI scale).
pub fn run(name: &str, quick: bool) -> ScenarioOutcome {
    match name {
        "small_file_read_storm" => small_file_read_storm(quick),
        "stat_epoch" => stat_epoch(quick),
        "checkpoint_burst" => checkpoint_burst(quick),
        "create_rename_storm" => create_rename_storm(quick),
        "zipfian_mixed" => zipfian_mixed(quick),
        "degraded_read_storm" => degraded_read_storm(quick),
        "strided_column_scan" => strided_column_scan(quick),
        other => panic!("unknown scenario {other}"),
    }
}

const SMALL_FILE_BYTES: u64 = 8 * 1024;
const SMALL_FILE_DIRS: usize = 8;
const SMALL_FILES_PER_DIR: usize = 12;

/// Pre-create the shared small-file population (outside the timed
/// window) and return the path list.
fn seed_small_files(fs: &Dpfs, payload: u64) -> Vec<String> {
    let mut paths = Vec::with_capacity(SMALL_FILE_DIRS * SMALL_FILES_PER_DIR);
    let data = vec![0xABu8; payload as usize];
    for d in 0..SMALL_FILE_DIRS {
        fs.mkdir(&format!("/d{d}")).expect("seed mkdir");
        for f in 0..SMALL_FILES_PER_DIR {
            let path = format!("/d{d}/f{f}");
            let mut h = fs
                .create(&path, &Hint::linear(4096, 4096))
                .expect("seed create");
            h.write_bytes(0, &data).expect("seed write");
            h.sync().expect("seed sync");
            paths.push(path);
        }
    }
    paths
}

/// FalconFS-style small-file read storm: a large simulated-client fleet
/// whole-file-reads a zipf-popular population of 8 KiB files. Every read
/// re-opens the file, so the metadata plane is on the hot path alongside
/// the I/O servers.
pub fn small_file_read_storm(quick: bool) -> ScenarioOutcome {
    let sim_clients = if quick { 200 } else { 1000 };
    let reads_each = if quick { 2 } else { 4 };
    let h = Harness::new(ClientOptions::default());
    let paths = seed_small_files(&h.fs, SMALL_FILE_BYTES);
    let zipf = Zipf::new(paths.len(), 1.0);
    h.storm(
        "small_file_read_storm",
        sim_clients,
        |_id, rng, fs, hist| {
            let (mut ops, mut bytes) = (0u64, 0u64);
            for _ in 0..reads_each {
                let path = &paths[zipf.sample(rng)];
                let n = timed(hist, || {
                    let mut f = fs.open(path).expect("storm open");
                    f.read_bytes(0, SMALL_FILE_BYTES).expect("storm read").len() as u64
                });
                ops += 1;
                bytes += n;
            }
            (ops, bytes)
        },
    )
}

/// Stat-heavy training epoch: every simulated client walks the file list
/// from its own offset, stat-ing each entry. Each stat is one attribute
/// fetch from the shard owning the path — the λFS-style metadata burst.
pub fn stat_epoch(quick: bool) -> ScenarioOutcome {
    let sim_clients = if quick { 400 } else { 2000 };
    let stats_each = if quick { 3 } else { 6 };
    let h = Harness::new(ClientOptions::default());
    let paths = seed_small_files(&h.fs, 1024);
    h.storm("stat_epoch", sim_clients, |id, _rng, fs, hist| {
        let mut ops = 0u64;
        for k in 0..stats_each {
            let path = &paths[(id * 7 + k) % paths.len()];
            timed(hist, || fs.stat(path).expect("epoch stat"));
            ops += 1;
        }
        (ops, 0)
    })
}

/// Checkpoint/restore burst (`examples/checkpoint.rs` at scale): a wave
/// of writers each dumps a checkpoint file, syncs it durable, then
/// restores it with a whole-file read-back. Ops are checkpoint halves
/// (write+sync, reopen+read), so throughput counts completed phases.
pub fn checkpoint_burst(quick: bool) -> ScenarioOutcome {
    let sim_clients = if quick { 16 } else { 64 };
    let ckpt_bytes: u64 = if quick { 256 * 1024 } else { 1024 * 1024 };
    let h = Harness::new(ClientOptions::default());
    h.fs.mkdir("/ckpt").expect("ckpt mkdir");
    h.storm("checkpoint_burst", sim_clients, |id, _rng, fs, hist| {
        let path = format!("/ckpt/rank{id}");
        let data = vec![(id % 251) as u8; ckpt_bytes as usize];
        timed(hist, || {
            let mut f = fs
                .create(&path, &Hint::linear(64 * 1024, 64 * 1024))
                .expect("ckpt create");
            f.write_bytes(0, &data).expect("ckpt write");
            f.sync().expect("ckpt sync");
        });
        let back = timed(hist, || {
            let mut f = fs.open(&path).expect("restore open");
            f.read_bytes(0, ckpt_bytes).expect("restore read")
        });
        assert_eq!(back.len() as u64, ckpt_bytes, "restore mismatch");
        assert_eq!(back[0], (id % 251) as u8, "restore corruption");
        (2, ckpt_bytes * 2)
    })
}

/// Metadata create/rename storm: every simulated client registers a run
/// of files and promotes every fourth one with a rename — half of which
/// land in a different directory, exercising the cross-shard two-phase
/// rename path on a sharded metadata plane.
pub fn create_rename_storm(quick: bool) -> ScenarioOutcome {
    let sim_clients = if quick { 100 } else { 500 };
    let creates_each = if quick { 2 } else { 4 };
    let h = Harness::new(ClientOptions::default());
    for d in 0..SMALL_FILE_DIRS {
        h.fs.mkdir(&format!("/s{d}")).expect("storm mkdir");
    }
    h.storm("create_rename_storm", sim_clients, |id, _rng, fs, hist| {
        let mut ops = 0u64;
        for k in 0..creates_each {
            let dir = (id + k) % SMALL_FILE_DIRS;
            let path = format!("/s{dir}/c{id}-{k}");
            timed(hist, || {
                fs.create(&path, &Hint::linear(4096, 4096))
                    .expect("storm create")
            });
            ops += 1;
            if k % 4 == 3 {
                // Odd clients rename across directories (cross-shard on a
                // sharded plane), even ones within their directory.
                let to = if id % 2 == 1 {
                    format!("/s{}/r{id}-{k}", (dir + 1) % SMALL_FILE_DIRS)
                } else {
                    format!("/s{dir}/r{id}-{k}")
                };
                timed(hist, || fs.rename(&path, &to).expect("storm rename"));
                ops += 1;
            }
        }
        (ops, 0)
    })
}

const MIXED_FILES: usize = 64;
const MIXED_FILE_BYTES: u64 = 64 * 1024;
const MIXED_IO_BYTES: u64 = 16 * 1024;

/// Zipfian mixed tenant load: 70% whole-range reads / 30% in-place
/// writes over a shared zipf-popular population — the multi-tenant
/// steady state where hot files absorb most traffic from both sides.
pub fn zipfian_mixed(quick: bool) -> ScenarioOutcome {
    let sim_clients = if quick { 100 } else { 400 };
    let ops_each = if quick { 3 } else { 6 };
    let h = Harness::new(ClientOptions::default());
    let data = vec![0x5Au8; MIXED_FILE_BYTES as usize];
    let paths: Vec<String> = (0..MIXED_FILES).map(|i| format!("/mix{i}")).collect();
    for path in &paths {
        let mut f =
            h.fs.create(path, &Hint::linear(16 * 1024, 16 * 1024))
                .expect("mix create");
        f.write_bytes(0, &data).expect("mix seed write");
        f.sync().expect("mix seed sync");
    }
    let zipf = Zipf::new(MIXED_FILES, 1.0);
    h.storm("zipfian_mixed", sim_clients, |_id, rng, fs, hist| {
        let (mut ops, mut bytes) = (0u64, 0u64);
        for _ in 0..ops_each {
            let path = &paths[zipf.sample(rng)];
            let slot = rng.gen_range(0..(MIXED_FILE_BYTES / MIXED_IO_BYTES));
            let off = slot * MIXED_IO_BYTES;
            if rng.gen_bool(0.7) {
                let n = timed(hist, || {
                    let mut f = fs.open(path).expect("mix open");
                    f.read_bytes(off, MIXED_IO_BYTES).expect("mix read").len() as u64
                });
                bytes += n;
            } else {
                let chunk = vec![0xC3u8; MIXED_IO_BYTES as usize];
                timed(hist, || {
                    let mut f = fs.open(path).expect("mix open w");
                    f.write_bytes(off, &chunk).expect("mix write");
                });
                bytes += MIXED_IO_BYTES;
            }
            ops += 1;
        }
        (ops, bytes)
    })
}

const DEGRADED_FILES: usize = 24;
const DEGRADED_FILE_BYTES: u64 = 64 * 1024;

/// Reconstruction read storm (the row keeps the name `bench-diff` keys on):
/// a population of redundant files (alternating `Replica(2)` and
/// `XorParity`) striped across four servers, one of which is killed
/// *before* the storm. Every read that lands a range on the dead server
/// rebuilds it — from the mirror or from peers + parity — so this row
/// prices the rebuild path under fan-in, next to the healthy-cluster
/// scenarios: the one committed number that runs it under load. Retries are
/// tight (a dead server refuses connections immediately). A read returns
/// the file's bytes or an error, so a failed rebuild panics the `expect`
/// and a wrong one the byte-exact check over the zero-free payload.
pub fn degraded_read_storm(quick: bool) -> ScenarioOutcome {
    let sim_clients = if quick { 100 } else { 400 };
    let reads_each = if quick { 2 } else { 5 };
    let mut h = Harness::new(ClientOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    });
    let paths: Vec<String> = (0..DEGRADED_FILES).map(|i| format!("/red{i}")).collect();
    for (i, path) in paths.iter().enumerate() {
        let policy = if i % 2 == 0 {
            RedundancyPolicy::Replica(2)
        } else {
            RedundancyPolicy::XorParity
        };
        let data: Vec<u8> = (0..DEGRADED_FILE_BYTES as usize)
            .map(|j| ((i + j) % 251) as u8 + 1)
            .collect();
        let mut f =
            h.fs.create(
                path,
                &Hint::linear(8 * 1024, DEGRADED_FILE_BYTES).with_redundancy(policy),
            )
            .expect("degraded create");
        f.write_bytes(0, &data).expect("degraded seed write");
        f.sync().expect("degraded seed sync");
    }
    // The outage: one of the four I/O servers goes dark for the whole
    // storm. The scrape tolerates it (unreachable-node fallback).
    h.tb.kill_server(1);
    let zipf = Zipf::new(DEGRADED_FILES, 1.0);
    h.storm("degraded_read_storm", sim_clients, |_id, rng, fs, hist| {
        let (mut ops, mut bytes) = (0u64, 0u64);
        for _ in 0..reads_each {
            let i = zipf.sample(rng);
            let back = timed(hist, || {
                let mut f = fs.open(&paths[i]).expect("degraded open");
                f.read_bytes(0, DEGRADED_FILE_BYTES).expect("degraded read")
            });
            assert_eq!(back.len() as u64, DEGRADED_FILE_BYTES);
            for (j, &b) in back.iter().enumerate() {
                let want = ((i + j) % 251) as u8 + 1;
                assert_eq!(b, want, "byte {j} of {} not reconstructed", paths[i]);
            }
            ops += 1;
            bytes += DEGRADED_FILE_BYTES;
        }
        (ops, bytes)
    })
}

const COLUMN_ROWS: u64 = 256;
const COLUMN_COLS: u64 = 64;
const COLUMN_ELEM: u64 = 16;

/// Strided column scan: a shared row-major matrix file, every simulated
/// client reading whole columns through a vector datatype at exact
/// granularity. Each column read is a dense stride (one 16-byte element
/// per kilobyte row), the shape the list-I/O wire path exists for: the
/// client ships one `AccessPattern` descriptor per server instead of
/// enumerating all 256 ranges, and each server returns one coalesced
/// payload. Reads are verified byte-exact against the seeded matrix.
pub fn strided_column_scan(quick: bool) -> ScenarioOutcome {
    let sim_clients = if quick { 100 } else { 400 };
    let scans_each = if quick { 2 } else { 5 };
    let h = Harness::new(ClientOptions {
        granularity: dpfs_core::Granularity::Exact,
        ..ClientOptions::default()
    });
    let row_bytes = COLUMN_COLS * COLUMN_ELEM;
    let file_bytes = COLUMN_ROWS * row_bytes;
    let data: Vec<u8> = (0..file_bytes).map(|i| (i % 251) as u8 + 1).collect();
    {
        let mut f =
            h.fs.create("/matrix", &Hint::linear(32 * 1024, file_bytes))
                .expect("matrix create");
        f.write_bytes(0, &data).expect("matrix seed write");
        f.sync().expect("matrix seed sync");
    }
    h.storm("strided_column_scan", sim_clients, |id, _rng, fs, hist| {
        let (mut ops, mut bytes) = (0u64, 0u64);
        for k in 0..scans_each {
            let col = (id + k) as u64 % COLUMN_COLS;
            let base = col * COLUMN_ELEM;
            let dt = dpfs_core::Datatype::vector(COLUMN_ROWS, COLUMN_ELEM, row_bytes);
            let back = timed(hist, || {
                let mut f = fs.open("/matrix").expect("column open");
                f.read_datatype(base, &dt).expect("column read")
            });
            for (j, &b) in back.iter().enumerate() {
                let row = j as u64 / COLUMN_ELEM;
                let src = row * row_bytes + base + j as u64 % COLUMN_ELEM;
                assert_eq!(b, (src % 251) as u8 + 1, "column {col} byte {j} corrupt");
            }
            ops += 1;
            bytes += back.len() as u64;
        }
        (ops, bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfs_core::trace::NodeRole;

    // One quick scenario end-to-end in tests; the full catalog runs in
    // the `scenarios` binary (ci.sh).
    #[test]
    fn quick_small_file_storm_produces_two_sided_percentiles() {
        let out = small_file_read_storm(true);
        assert_eq!(out.name, "small_file_read_storm");
        assert_eq!(out.ops, 200 * 2);
        assert_eq!(out.bytes, out.ops * SMALL_FILE_BYTES);
        assert!(out.ops_per_sec() > 0.0);
        // Client-observed and server-side views both populated, from the
        // same scrape window.
        assert!(out.client_lat.count >= out.ops);
        let server = out.server_lat();
        assert!(server.count > 0, "server-side histograms empty");
        assert!(server.p99() >= server.p50());
        // The scrape saw every node class.
        assert!(out.snapshot.nodes_of(NodeRole::Iond).count() == crate::IO_SERVERS);
        assert!(out.snapshot.nodes_of(NodeRole::Metad).count() == crate::METAD_SHARDS);
    }

    // Byte-exactness through the dead server is asserted inside the storm
    // closure (zero-free payload); here we check the measurement shape.
    #[test]
    fn quick_degraded_storm_produces_full_measurement() {
        let out = degraded_read_storm(true);
        assert_eq!(out.name, "degraded_read_storm");
        assert_eq!(out.ops, 100 * 2);
        assert_eq!(out.bytes, out.ops * DEGRADED_FILE_BYTES);
        assert!(out.client_lat.count >= out.ops);
    }

    #[test]
    fn quick_strided_column_scan_ships_patterns() {
        let out = strided_column_scan(true);
        assert_eq!(out.name, "strided_column_scan");
        assert_eq!(out.ops, 100 * 2);
        assert_eq!(out.bytes, out.ops * COLUMN_ROWS * COLUMN_ELEM);
        // The scrape proves the wire shape: the client's transport rows
        // counted pattern-shaped submissions.
        assert!(
            out.snapshot.counter_sum(NodeRole::Client, "rpc.list_io") > 0,
            "strided columns should ride ReadList"
        );
        assert!(out.snapshot.counter_sum(NodeRole::Iond, "io.list_reads") > 0);
    }

    #[test]
    fn quick_create_rename_storm_hits_every_shard() {
        let out = create_rename_storm(true);
        assert!(out.ops > 0);
        let metads: Vec<_> = out.snapshot.nodes_of(NodeRole::Metad).collect();
        assert_eq!(metads.len(), crate::METAD_SHARDS);
        for m in &metads {
            assert!(
                m.counter("meta.ops").unwrap_or(0) > 0,
                "shard {} idle",
                m.name
            );
        }
    }
}
