//! What a mutation logs does not depend on the size of the directory it
//! changes: each entry is a `dpfs_dirent` row of its own, so creating and
//! unlinking a file writes the same log records beside 16 384 siblings as
//! beside 64. (When a directory's entries were one `\n`-joined TEXT value,
//! both logged the whole listing: ≈ 330 KB each at 16 384.) A count, not a
//! clock: the bytes appended to `wal.log`.

use std::path::PathBuf;
use std::sync::Arc;

use dpfs_meta::{Catalog, Database, Distribution, FileAttrRow, ServerInfo};

fn attr(name: &str) -> FileAttrRow {
    FileAttrRow {
        filename: name.to_string(),
        owner: "bench".into(),
        permission: 0o644,
        size: 8192,
        filelevel: "linear".into(),
        dims: 0,
        dimsize: vec![],
        stripe_dims: vec![],
        stripe_size: 4096,
        pattern: String::new(),
        placement: "round_robin".into(),
        redundancy: String::new(),
    }
}

fn dist(name: &str) -> Vec<Distribution> {
    (0..4)
        .map(|i| Distribution {
            server: format!("ion{i:02}"),
            filename: name.to_string(),
            bricklist: vec![i, i + 4],
        })
        .collect()
}

/// Bytes the WAL grows by for one `create_file` + `delete_file` pair in a
/// directory that already holds `entries` files.
fn pair_bytes(entries: usize) -> u64 {
    let dir = std::env::temp_dir().join(format!("dpfs-flat-wal-{}-{entries}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = dir.join("wal.log");
    let wal_len = |wal: &PathBuf| std::fs::metadata(wal).unwrap().len();
    let c = Catalog::new(Arc::new(Database::open_with_sync(&dir, false).unwrap())).unwrap();
    c.mkdir("/d").unwrap();
    // The seeded files name no server: the catalog places them on this one.
    let ion = ServerInfo {
        name: "ion00".into(),
        capacity: 1 << 30,
        performance: 1,
    };
    c.register_server(&ion).unwrap();
    for k in 0..entries {
        c.create_file(&attr(&format!("/d/f{k:05}")), &[]).unwrap();
        // Keep the log short while seeding, whatever a create costs.
        if k % 256 == 255 && wal_len(&wal) > 8 << 20 {
            c.db().checkpoint().unwrap();
        }
    }
    assert_eq!(c.get_dir("/d").unwrap().unwrap().files.len(), entries);
    let before = wal_len(&wal);
    c.create_file(&attr("/d/probe"), &dist("/d/probe")).unwrap();
    assert_eq!(c.delete_file("/d/probe").unwrap().dist.len(), 4);
    let bytes = wal_len(&wal) - before;
    drop(c);
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

#[test]
fn a_create_and_unlink_log_the_same_bytes_beside_64_and_16384_entries() {
    let (small, large) = (pair_bytes(64), pair_bytes(16_384));
    println!("create + unlink: {small} WAL bytes beside 64 entries, {large} beside 16 384");
    assert_eq!(small, large);
}
