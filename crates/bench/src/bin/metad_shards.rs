//! Metadata-plane sharding ablation: a create+stat storm from concurrent
//! clients against 1, 2 and 4 `dpfs-metad` shards, reporting ops/sec per
//! shard count. The workload is metadata-only (create registers the file
//! and its layout; stat revalidates it), so daemon throughput is the
//! bottleneck and the scaling curve isolates what partitioning the
//! namespace buys.
//!
//! Usage: `metad_shards [--quick] [--out PATH]`
//!
//! `--quick` shrinks the per-thread op count to a CI-sized smoke (the
//! result still must show every shard serving traffic). `--out` writes
//! the JSON report to a file instead of stdout; either way the last
//! stdout line is the JSON document.

use std::fmt::Write as _;
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dpfs_cluster::Testbed;
use dpfs_core::Hint;

const CLIENTS: usize = 4;
const DIRS_PER_CLIENT: usize = 8;

struct Run {
    shards: usize,
    ops: u64,
    secs: f64,
    per_shard_meta_ops: Vec<u64>,
}

fn storm(shards: usize, per_thread: usize) -> Run {
    let tb = Testbed::unthrottled_with_metad_shards(2, shards).expect("testbed");
    // Pre-create each thread's directories outside the timed window
    // (mkdir broadcasts to every shard; the storm itself is per-shard).
    let clients: Vec<_> = (0..CLIENTS).map(|t| tb.remote_client(t, true)).collect();
    for (t, c) in clients.iter().enumerate() {
        for d in 0..DIRS_PER_CLIENT {
            c.mkdir(&format!("/c{t}-d{d}")).expect("mkdir");
        }
    }

    let total_ops = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, c) in clients.iter().enumerate() {
            let total_ops = &total_ops;
            s.spawn(move || {
                let mut ops = 0u64;
                for i in 0..per_thread {
                    let name = format!("/c{t}-d{}/f{i}", i % DIRS_PER_CLIENT);
                    c.create(&name, &Hint::linear(4096, 4096)).expect("create");
                    ops += 1;
                    // Stat a recent file: a validated lookup against the
                    // same shard the create just bumped.
                    let probe = format!("/c{t}-d{}/f{}", i % DIRS_PER_CLIENT, i.saturating_sub(1));
                    if c.exists(&probe).expect("stat") {
                        ops += 1;
                    } else {
                        ops += 1; // absent probes are metadata ops too
                    }
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    Run {
        shards,
        ops: total_ops.load(Ordering::Relaxed),
        secs,
        per_shard_meta_ops: tb.metad_stats_all().iter().map(|s| s.meta_ops).collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args.iter().position(|a| a == "--out").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--out needs a path");
            exit(2);
        })
    });
    let per_thread = if quick { 80 } else { 400 };

    let mut runs = Vec::new();
    for shards in [1usize, 2, 4] {
        let run = storm(shards, per_thread);
        eprintln!(
            "shards={}: {} ops in {:.2}s = {:.0} ops/sec (per-shard daemon meta_ops {:?})",
            run.shards,
            run.ops,
            run.secs,
            run.ops as f64 / run.secs,
            run.per_shard_meta_ops
        );
        runs.push(run);
    }

    // Every shard must have served real traffic in every run.
    for run in &runs {
        if run.per_shard_meta_ops.contains(&0) {
            eprintln!(
                "FAIL: shards={} left a daemon idle: {:?}",
                run.shards, run.per_shard_meta_ops
            );
            exit(1);
        }
    }

    let mut json = String::from("{\"bench\":\"metad_shards\",");
    let _ = write!(
        json,
        "\"io_servers\":2,\"clients\":{CLIENTS},\"ops_per_client\":{per_thread},\"results\":["
    );
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"shards\":{},\"ops\":{},\"secs\":{:.3},\"ops_per_sec\":{:.0},\"per_shard_meta_ops\":{:?}}}",
            run.shards,
            run.ops,
            run.secs,
            run.ops as f64 / run.secs,
            run.per_shard_meta_ops
        );
    }
    json.push_str("]}");
    if let Some(path) = out_path {
        std::fs::write(&path, &json).expect("write --out");
        eprintln!("wrote {path}");
    }
    println!("{json}");
}
