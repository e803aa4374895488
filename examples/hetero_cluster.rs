//! Heterogeneous storage and the greedy striping algorithm (paper §4.1,
//! §8.2): when half the servers are ~3× slower, round-robin load-balances
//! brick *counts* but unbalances *time*; the greedy algorithm gives fast
//! servers proportionally more bricks and wins.
//!
//! The servers run unthrottled; what each placement costs is the storage
//! classes' cost model evaluated over the bricks it put on each server.
//!
//! Run with: `cargo run --release --example hetero_cluster`

use std::time::Duration;

use dpfs::cluster::Testbed;
use dpfs::core::{Hint, Placement};
use dpfs::server::StorageClass;

const FILE_BYTES: u64 = 1 << 20; // 1 MiB
const BRICK: u64 = 4096;

/// One server's share of the file: name, class, bricks, and the modelled
/// device time for those bricks.
type Share = (String, StorageClass, usize, Duration);

/// Write and read back the file under `placement`; return each server's
/// share.
fn run(placement: Placement) -> Result<Vec<Share>, Box<dyn std::error::Error>> {
    // 4 servers: two class-1 (fast LAN) and two class-3 (metro ATM, ~3x
    // slower per brick) — the paper's §8.2 mix.
    let testbed = Testbed::mixed(4, &[StorageClass::Class1, StorageClass::Class3])?;
    let client = testbed.client(0, /*combine=*/ true);

    let hint = Hint::linear(BRICK, FILE_BYTES).with_placement(placement);
    let mut f = client.create("/data", &hint)?;
    let data = vec![0xC3u8; FILE_BYTES as usize];
    f.write_bytes(0, &data)?;
    assert_eq!(f.read_bytes(0, FILE_BYTES)?, data);

    Ok(f.servers()
        .iter()
        .zip(testbed.specs())
        .zip(f.brick_map().loads())
        .map(|((name, spec), bricks)| {
            let device = spec
                .class
                .model()
                .device_time(bricks, bricks as u64 * BRICK);
            (name.clone(), spec.class, bricks, device)
        })
        .collect())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("storage: ion00/ion02 = class1 (fast), ion01/ion03 = class3 (~3x slower)\n");
    let mut slowest = Vec::new();
    for (label, placement) in [
        ("round-robin", Placement::RoundRobin),
        ("greedy", Placement::Greedy),
    ] {
        println!("{label}:");
        let servers = run(placement)?;
        for (name, class, bricks, device) in &servers {
            println!(
                "  {name} ({}): {bricks} bricks, device time {device:?}",
                class.name()
            );
        }
        let max = servers.iter().map(|s| s.3).max().unwrap_or_default();
        println!("  the slowest server's device time: {max:?}\n");
        slowest.push(max);
    }
    println!(
        "greedy assigns fast servers ~3x the bricks and finishes {:.2}x sooner on the device",
        slowest[0].as_secs_f64() / slowest[1].as_secs_f64()
    );
    Ok(())
}
