//! Quickstart: bring up a 4-server DPFS, create a striped file, write it in
//! parallel-friendly pieces, read it back, and inspect the metadata.
//!
//! Run with: `cargo run --example quickstart`

use dpfs::cluster::Testbed;
use dpfs::core::Hint;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Start four I/O servers on localhost (unthrottled: no simulated
    //    device delays) and register them in the metadata database.
    let testbed = Testbed::unthrottled(4)?;
    let client = testbed.client(0, /*combine=*/ true);
    println!("started {} I/O servers", testbed.num_servers());

    // 2. Create a linear-level file: 4 KiB bricks, 1 MiB declared size.
    //    Bricks are assigned to servers round-robin at creation, exactly as
    //    in Figure 3 of the paper.
    client.mkdir("/home")?;
    let hint = Hint::linear(4096, 1 << 20).with_owner("quickstart");
    let mut file = client.create("/home/hello.dat", &hint)?;
    println!(
        "created /home/hello.dat with {} bricks",
        file.brick_map().num_bricks()
    );

    // 3. Write a pattern and read it back.
    let payload: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    file.write_bytes(0, &payload)?;
    let back = file.read_bytes(0, payload.len() as u64)?;
    assert_eq!(back, payload);
    println!("wrote and verified {} bytes", payload.len());

    // 4. Inspect metadata: the catalog answers with the paper's four tables.
    let attr = client.stat("/home/hello.dat")?;
    println!(
        "stat: owner={} size={} level={} brick_bytes={}",
        attr.owner, attr.size, attr.filelevel, attr.stripe_size
    );
    let entry = client.meta().open_file("/home/hello.dat")?;
    for d in entry.map(|(_, dist)| dist).unwrap_or_default() {
        println!("  {} holds {} bricks", d.server, d.bricklist.len());
    }

    // 5. Client-side I/O statistics: with request combination on, the whole
    //    read needed only one request per server.
    let stats = file.stats();
    println!(
        "client stats: {} requests, {} bytes over the wire",
        stats.requests,
        stats.wire_read + stats.wire_written
    );
    file.close()?;
    Ok(())
}
