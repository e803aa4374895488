//! Checkpoint/restart with array-level striping (paper §3.3): "many
//! large-scale scientific applications periodically dump check-pointing
//! data. Each processor writes the data it holds to storage and simply
//! reads it back later when the application resumes."
//!
//! Four workers hold a `(BLOCK, BLOCK)`-distributed 512×512 grid of f32
//! cells. Each dumps its chunk as one brick = one request; after a
//! simulated crash, fresh workers restore their chunks and the simulation
//! state matches exactly.
//!
//! Run with: `cargo run --example checkpoint`

use dpfs::cluster::{run_clients, Testbed};
use dpfs::core::{Granularity, Hint, HpfPattern, Shape};

const N: u64 = 512;
const GRID: u64 = 2; // 2x2 processor grid

/// Worker `rank`'s deterministic simulation state.
fn state_of(rank: usize, cells: u64) -> Vec<u8> {
    (0..cells * 4)
        .map(|i| ((i as usize * 31 + rank * 97) % 251) as u8)
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let testbed = Testbed::unthrottled(4)?;
    let nworkers = (GRID * GRID) as usize;

    // Create the checkpoint file: array level, (BLOCK, BLOCK) over 2x2.
    let client = testbed.client(0, true);
    client.mkdir("/ckpt")?;
    let hint = Hint::array(
        Shape::new(vec![N, N])?,
        HpfPattern::block_block(GRID, GRID),
        4, // f32 cells
    );
    client.create("/ckpt/step_000042", &hint)?;

    // --- dump phase: each worker writes its own chunk ---
    let bw = run_clients(&testbed, nworkers, true, Granularity::Brick, |rank, c| {
        let mut f = c.open("/ckpt/step_000042").unwrap();
        let chunk = f.chunk_region(rank as u64).unwrap();
        let data = state_of(rank, chunk.volume());
        f.write_chunk(rank as u64, &data).unwrap();
        let reqs = f.stats().requests;
        assert_eq!(reqs, 1, "one chunk = one brick = one request");
        data.len() as u64
    });
    println!(
        "checkpoint dumped: {} bytes from {} workers in {:?}",
        bw.useful_bytes, nworkers, bw.elapsed
    );

    // --- crash & restart: fresh clients read their chunks back ---
    let bw = run_clients(&testbed, nworkers, true, Granularity::Brick, |rank, c| {
        let mut f = c.open("/ckpt/step_000042").unwrap();
        let data = f.read_chunk(rank as u64).unwrap();
        let chunk = f.chunk_region(rank as u64).unwrap();
        assert_eq!(
            data,
            state_of(rank, chunk.volume()),
            "restored state differs!"
        );
        assert_eq!(f.stats().requests, 1);
        data.len() as u64
    });
    println!(
        "checkpoint restored and verified: {} bytes in {:?}",
        bw.useful_bytes, bw.elapsed
    );

    // Show where the chunks physically live.
    let entry = client.meta().open_file("/ckpt/step_000042")?;
    for d in entry.map(|(_, dist)| dist).unwrap_or_default() {
        println!("  {} stores chunk(s) {:?}", d.server, d.bricklist);
    }
    Ok(())
}
