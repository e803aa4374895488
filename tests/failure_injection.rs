//! Failure injection: dead servers, corrupt WALs, capacity exhaustion,
//! and metadata consistency under failed operations.

use std::sync::Arc;

use dpfs::cluster::Testbed;
use dpfs::core::{DpfsError, Hint, Shape};
use dpfs::meta::Database;
use dpfs::proto::ErrorCode;

#[test]
fn dead_server_fails_io_but_namespace_survives() {
    let mut tb = Testbed::unthrottled(3).unwrap();
    let client = tb.client(0, true);
    let mut f = client.create("/victim", &Hint::linear(512, 8192)).unwrap();
    f.write_bytes(0, &[1u8; 8192]).unwrap();

    tb.kill_server(1);

    // reads spanning the dead server fail with a connection error...
    let err = f.read_bytes(0, 8192).unwrap_err();
    assert!(
        matches!(err, DpfsError::Connect { .. } | DpfsError::Frame(_)),
        "unexpected error {err}"
    );
    // ...but metadata operations still work
    assert_eq!(client.stat("/victim").unwrap().size, 8192);
    client.mkdir("/still-works").unwrap();
    // and unlink succeeds despite the dead server (best-effort cleanup)
    client.unlink("/victim").unwrap();
    assert!(!client.exists("/victim").unwrap());
}

#[test]
fn failed_create_leaves_no_metadata_residue() {
    let tb = Testbed::unthrottled(2).unwrap();
    let client = tb.client(0, true);
    // creating under a missing parent fails...
    let hint = Hint::linear(512, 1024);
    assert!(client.create("/no/such/dir/f", &hint).err().is_some());
    // ...and leaves no attr/distribution rows behind
    let db = client.catalog().unwrap().db();
    let rs = db.execute("SELECT COUNT(*) FROM dpfs_file_attr").unwrap();
    assert_eq!(rs.rows[0][0], dpfs::meta::Value::Int(0));
    let rs = db
        .execute("SELECT COUNT(*) FROM dpfs_file_distribution")
        .unwrap();
    assert_eq!(rs.rows[0][0], dpfs::meta::Value::Int(0));
}

#[test]
fn capacity_exhaustion_surfaces_as_no_space() {
    let tb = Testbed::start(&[
        dpfs::cluster::NodeSpec {
            name: "ion00".into(),
            class: dpfs::server::StorageClass::Unthrottled,
            capacity: 10_000,
            model: None,
        },
        dpfs::cluster::NodeSpec {
            name: "ion01".into(),
            class: dpfs::server::StorageClass::Unthrottled,
            capacity: 10_000,
            model: None,
        },
    ])
    .unwrap();
    let client = tb.client(0, true);
    let mut f = client.create("/big", &Hint::linear(1024, 0)).unwrap();
    // 2 servers x 10 KB: a 64 KB write must hit the cap
    let err = f.write_bytes(0, &vec![9u8; 64 * 1024]).unwrap_err();
    match err {
        DpfsError::Server { code, .. } => assert_eq!(code, ErrorCode::NoSpace),
        other => panic!("expected NoSpace, got {other}"),
    }
}

#[test]
fn wal_torn_tail_loses_only_uncommitted_txn() {
    let dir = std::env::temp_dir().join(format!("dpfs-fi-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    }
    // corrupt the last few bytes of the WAL (torn final record)
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let n = bytes.len();
    bytes.truncate(n - 3);
    std::fs::write(&wal, &bytes).unwrap();
    {
        let db = Database::open(&dir).unwrap();
        // the torn record was part of the INSERT txn's commit; that whole
        // txn is rolled back, but the CREATE TABLE (earlier txn) survives
        let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rs.rows[0][0], dpfs::meta::Value::Int(0));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_corruption_is_detected_not_misread() {
    let dir = std::env::temp_dir().join(format!("dpfs-fi-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
        for k in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
        }
        db.checkpoint().unwrap();
    }
    // flip a byte in the snapshot body
    let snap = dir.join("snapshot.db");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    let err = Database::open(&dir);
    assert!(err.is_err(), "corrupt snapshot must not open silently");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn double_create_and_double_unlink() {
    let tb = Testbed::unthrottled(2).unwrap();
    let client = tb.client(0, true);
    let hint = Hint::multidim(
        Shape::new(vec![16, 16]).unwrap(),
        Shape::new(vec![4, 4]).unwrap(),
        1,
    );
    client.create("/dup", &hint).unwrap();
    let err = client
        .create("/dup", &hint)
        .err()
        .expect("duplicate create must fail");
    assert!(matches!(err, DpfsError::FileExists(_)), "{err}");
    client.unlink("/dup").unwrap();
    let err = client.unlink("/dup").unwrap_err();
    assert!(matches!(err, DpfsError::NoSuchFile(_)), "{err}");
}

#[test]
fn checkpoint_then_recover_under_load() {
    let dir = std::env::temp_dir().join(format!("dpfs-fi-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            .unwrap();
        for k in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * k))
                .unwrap();
        }
        db.checkpoint().unwrap();
        // more work after the checkpoint, living only in the WAL
        for k in 50..80 {
            db.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * k))
                .unwrap();
        }
        db.execute("DELETE FROM t WHERE k < 10").unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        let rs = db
            .execute("SELECT COUNT(*), MIN(k), MAX(k) FROM t")
            .unwrap();
        assert_eq!(rs.rows[0][0], dpfs::meta::Value::Int(70));
        assert_eq!(rs.rows[0][1], dpfs::meta::Value::Int(10));
        assert_eq!(rs.rows[0][2], dpfs::meta::Value::Int(79));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill a server, restart it on its original port, and open the file FRESH
/// (new handle, new connections): the bytes written before the kill must
/// round-trip intact. Complements the chaos test that reuses the old
/// handle — this one proves the on-disk subfiles and the catalog agree
/// after recovery.
#[test]
fn dead_server_then_restart_round_trip_preserves_bytes() {
    let mut tb = Testbed::unthrottled(3).unwrap();
    const TOTAL: usize = 96 * 1024;
    let data: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8 + 1).collect();
    {
        let client = tb.client(0, true);
        let mut f = client
            .create("/lazarus", &Hint::linear(1024, TOTAL as u64))
            .unwrap();
        f.write_bytes(0, &data).unwrap();
        f.sync().unwrap();
    }

    tb.kill_server(0);
    tb.restart_server(0).unwrap();

    let client = tb.client(1, true);
    let mut f = client.open("/lazarus").unwrap();
    let back = f.read_bytes(0, TOTAL as u64).unwrap();
    assert!(back == data, "restarted server served different bytes");
}
