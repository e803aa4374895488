//! The database side of DPFS (paper §5): all file-system metadata lives in
//! four SQL tables, and "the database access interface is standard SQL."
//! This example creates files through the DPFS API and then inspects —
//! and queries — the catalog with raw SQL, exactly as an administrator
//! would against the paper's POSTGRES instance.
//!
//! Run with: `cargo run --example metadata_sql`

use dpfs::cluster::Testbed;
use dpfs::core::{Hint, HpfPattern, Placement, Shape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let testbed = Testbed::unthrottled(4)?;
    let client = testbed.client(0, true);

    // Make some files of each level.
    client.mkdir("/home")?;
    client.mkdir("/home/xhshen")?;
    client.create("/home/xhshen/dpfs.test", &Hint::linear(65536, 2_097_152))?;
    client.create(
        "/home/xhshen/matrix",
        &Hint::multidim(
            Shape::new(vec![1024, 1024])?,
            Shape::new(vec![256, 256])?,
            4,
        ),
    )?;
    client.create(
        "/home/xhshen/ckpt",
        &Hint::array(
            Shape::new(vec![512, 512])?,
            HpfPattern::block_block(2, 2),
            8,
        )
        .with_placement(Placement::Greedy),
    )?;

    // The database the testbed's metadata daemon serves.
    let db = testbed.db();

    // The four tables of Figure 10, via standard SQL.
    println!("== DPFS-SERVER ==");
    let rs = db.execute(
        "SELECT server_name, capacity, performance FROM dpfs_server ORDER BY server_name",
    )?;
    for row in &rs.rows {
        println!("  {row:?}");
    }

    println!("\n== DPFS-FILE-ATTR (files over 1 MB, largest first) ==");
    let rs = db.execute(
        "SELECT filename, size, filelevel FROM dpfs_file_attr WHERE size > 1000000 ORDER BY size DESC",
    )?;
    for row in &rs.rows {
        println!("  {row:?}");
    }

    println!("\n== DPFS-FILE-DISTRIBUTION: who stores brick 0 of each file? ==");
    let rs = db.execute(
        "SELECT filename, server FROM dpfs_file_distribution WHERE contains(bricklist, 0) ORDER BY filename",
    )?;
    for row in &rs.rows {
        println!("  {row:?}");
    }

    println!("\n== DPFS-DIRECTORY: one dpfs_dirent row per entry ==");
    let rs = db.execute("SELECT parent, path, kind FROM dpfs_dirent ORDER BY path")?;
    for row in &rs.rows {
        println!("  {row:?}");
    }

    println!("\n== aggregates: total bytes and file count under /home/xhshen ==");
    let rs = db.execute(
        "SELECT COUNT(*), SUM(size) FROM dpfs_file_attr WHERE filename LIKE '/home/xhshen/%'",
    )?;
    println!("  files={}, bytes={}", rs.rows[0][0], rs.rows[0][1]);

    // Transactions guard multi-table consistency (the paper's §5 argument):
    // a failed transaction leaves nothing behind.
    let result: Result<(), dpfs::meta::MetaError> = db.transaction(|txn| {
        txn.execute(
            "UPDATE dpfs_file_attr SET owner = 'nobody' WHERE filename = '/home/xhshen/dpfs.test'",
        )?;
        // ... simulated failure before the second statement commits
        Err(dpfs::meta::MetaError::Txn("simulated crash".into()))
    });
    assert!(result.is_err());
    let rs =
        db.execute("SELECT owner FROM dpfs_file_attr WHERE filename = '/home/xhshen/dpfs.test'")?;
    println!(
        "\nafter rolled-back transaction, owner is still {:?}",
        rs.rows[0][0]
    );
    Ok(())
}
