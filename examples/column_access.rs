//! The paper's core argument (§3.2), live: columnar `(*, BLOCK)` access on
//! a 2-D array is catastrophic under linear striping and cheap under
//! multidimensional striping.
//!
//! Reproduces the 8×8/Figure-5-and-6 reasoning at a realistic scale: a
//! 1024×1024 byte array striped over 4 servers, reading the first 128
//! columns, comparing request counts and wire traffic for the two levels.
//!
//! Run with: `cargo run --example column_access`

use dpfs::cluster::Testbed;
use dpfs::core::{ClientOptions, Datatype, Dpfs, Granularity, Hint, Region, Shape};

const N: u64 = 1024;
const COLS: u64 = 128;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let testbed = Testbed::unthrottled(4)?;
    let shape = Shape::new(vec![N, N])?;

    // Fill both files with the same array.
    let data: Vec<u8> = (0..N * N).map(|i| (i % 251) as u8).collect();

    // linear level: brick = one row (N bytes)
    let client = testbed.client(0, /*combine=*/ false);
    let mut lin = client.create("/lin", &Hint::linear(N, N * N))?;
    lin.write_bytes(0, &data)?;

    // multidim level: 64x64 bricks
    let mut md = client.create(
        "/md",
        &Hint::multidim(shape.clone(), Shape::new(vec![64, 64])?, 1),
    )?;
    md.write_region(&shape.full_region(), &data)?;

    // Expected answer: first COLS columns of the row-major array.
    let region = Region::new(vec![0, 0], vec![N, COLS])?;
    let mut expected = Vec::with_capacity((N * COLS) as usize);
    for row in 0..N {
        let start = (row * N) as usize;
        expected.extend_from_slice(&data[start..start + COLS as usize]);
    }

    // --- linear file, via a subarray datatype (one run per row) ---
    let mut lin = client.open("/lin")?;
    let dt = Datatype::subarray(shape.clone(), region.clone(), 1)?;
    let got = lin.read_datatype(0, &dt)?;
    assert_eq!(got, expected);
    let ls = lin.stats();
    println!(
        "linear   : {:>6} requests, {:>9} wire bytes, {:>7} useful bytes ({:.1}% efficient)",
        ls.requests,
        ls.wire_read,
        ls.useful_read,
        100.0 * ls.useful_read as f64 / ls.wire_read as f64
    );

    // --- multidim file, same region ---
    let mut md = client.open("/md")?;
    let got = md.read_region(&region)?;
    assert_eq!(got, expected);
    let ms = md.stats();
    println!(
        "multidim : {:>6} requests, {:>9} wire bytes, {:>7} useful bytes ({:.1}% efficient)",
        ms.requests,
        ms.wire_read,
        ms.useful_read,
        100.0 * ms.useful_read as f64 / ms.wire_read as f64
    );

    println!(
        "\nmultidim needs {}x fewer requests and {}x less wire traffic",
        ls.requests / ms.requests,
        ls.wire_read / ms.wire_read
    );

    // With request combination the request count drops to one per server.
    let combined = testbed.client(1, /*combine=*/ true);
    let mut md2 = combined.open("/md")?;
    let _ = md2.read_region(&region)?;
    println!(
        "multidim + request combination: {} requests (one per touched server)",
        md2.stats().requests
    );

    // Even on the hostile linear layout, the *request* side of the wire
    // collapses once the column access ships as a pattern descriptor:
    // N strided runs per server become one Vector segment, and the
    // server answers with one coalesced payload.
    let req_bytes = |c: &Dpfs| -> u64 {
        (0..4)
            .filter_map(|i| c.pool().transport_stats(&format!("ion{i:02}")))
            .map(|t| t.req_bytes)
            .sum()
    };
    println!("\nlinear file, exact-granularity column read, request wire bytes:");
    let c = testbed.client_opts(ClientOptions {
        granularity: Granularity::Exact,
        ..ClientOptions::default()
    });
    let mut f = c.open("/lin")?;
    let before = req_bytes(&c);
    let got = f.read_datatype(0, &dt)?;
    assert_eq!(got, expected);
    let sent = req_bytes(&c) - before;
    // What the same ranges cost enumerated: one (offset, len) pair per row.
    let enumerated = 16 * N;
    println!("  pattern descriptors {sent:>9} request bytes (sent)");
    println!("  enumerated ranges   {enumerated:>9} request bytes (16 per row)");
    println!(
        "the descriptor shrinks the request stream {}x for this access",
        enumerated / sent
    );
    Ok(())
}
