//! Out-of-core matrix transpose — the data-intensive workload class the
//! paper's introduction motivates: the matrix does not fit in (per-worker)
//! memory, so workers stream tiles through DPFS.
//!
//! A 1024×1024 f32 matrix lives in a multidim-striped file (64×64 bricks).
//! Four workers transpose it tile by tile into a second file: each reads
//! tile (i, j), transposes in memory, and writes tile (j, i). Brick-aligned
//! tiles mean every tile access is a handful of whole-brick requests.
//!
//! Run with: `cargo run --release --example out_of_core`

use std::time::Instant;

use dpfs::cluster::{run_clients, Testbed};
use dpfs::core::{Granularity, Hint, Region, Shape};

const N: u64 = 1024;
const TILE: u64 = 128;
const ELEM: u64 = 4; // f32

fn value_at(row: u64, col: u64) -> f32 {
    (row * N + col) as f32
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let testbed = Testbed::unthrottled(4)?;
    let shape = Shape::new(vec![N, N])?;
    let brick = Shape::new(vec![64, 64])?;

    // Create source and destination matrices.
    let client = testbed.client(0, true);
    client.create("/A", &Hint::multidim(shape.clone(), brick.clone(), ELEM))?;
    client.create("/At", &Hint::multidim(shape.clone(), brick, ELEM))?;

    // Fill A in parallel row bands.
    let nworkers = 4usize;
    let rows_per = N / nworkers as u64;
    run_clients(&testbed, nworkers, true, Granularity::Brick, |rank, c| {
        let mut f = c.open("/A").unwrap();
        let r0 = rank as u64 * rows_per;
        let mut band = Vec::with_capacity((rows_per * N * ELEM) as usize);
        for row in r0..r0 + rows_per {
            for col in 0..N {
                band.extend_from_slice(&value_at(row, col).to_le_bytes());
            }
        }
        f.write_region(&Region::new(vec![r0, 0], vec![rows_per, N]).unwrap(), &band)
            .unwrap();
    });
    println!(
        "filled /A: {}x{} f32 ({} MB)",
        N,
        N,
        N * N * ELEM / (1 << 20)
    );

    // Transpose tile by tile; worker k owns tile-rows k, k+4, k+8, ...
    let tiles = N / TILE;
    let start = Instant::now();
    let moved = run_clients(&testbed, nworkers, true, Granularity::Brick, |rank, c| {
        let mut src = c.open("/A").unwrap();
        let mut dst = c.open("/At").unwrap();
        let mut moved = 0u64;
        let mut ti = rank as u64;
        while ti < tiles {
            for tj in 0..tiles {
                let in_region = Region::new(vec![ti * TILE, tj * TILE], vec![TILE, TILE]).unwrap();
                let tile = src.read_region(&in_region).unwrap();
                // transpose the tile in memory
                let mut out = vec![0u8; tile.len()];
                for r in 0..TILE as usize {
                    for col in 0..TILE as usize {
                        let s = (r * TILE as usize + col) * ELEM as usize;
                        let d = (col * TILE as usize + r) * ELEM as usize;
                        out[d..d + ELEM as usize].copy_from_slice(&tile[s..s + ELEM as usize]);
                    }
                }
                let out_region = Region::new(vec![tj * TILE, ti * TILE], vec![TILE, TILE]).unwrap();
                dst.write_region(&out_region, &out).unwrap();
                moved += 2 * tile.len() as u64;
            }
            ti += nworkers as u64;
        }
        moved
    });
    let elapsed = start.elapsed();
    println!(
        "transposed in {elapsed:?} ({:.1} MB/s through DPFS)",
        moved.iter().sum::<u64>() as f64 / 1e6 / elapsed.as_secs_f64()
    );

    // Spot-verify At[i][j] == A[j][i] on random-ish samples.
    let mut at = client.open("/At")?;
    for (row, col) in [(0u64, 0u64), (1, 999), (511, 256), (1023, 1), (777, 777)] {
        let got = at.read_region(&Region::new(vec![row, col], vec![1, 1])?)?;
        let val = f32::from_le_bytes(got.try_into().unwrap());
        assert_eq!(val, value_at(col, row), "At[{row}][{col}]");
    }
    println!("verified: At[i][j] == A[j][i]");

    // Show per-server byte counts — the transpose spread over all servers.
    for (name, stats) in testbed.server_stats() {
        println!(
            "  {name}: {} MB read, {} MB written",
            stats.bytes_read / (1 << 20),
            stats.bytes_written / (1 << 20)
        );
    }
    Ok(())
}
