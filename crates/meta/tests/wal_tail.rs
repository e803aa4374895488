//! The log keeps what it acknowledged across a torn tail. A crash in the
//! middle of an append leaves a record the next open cannot read; that open
//! replays up to it. What it commits next must land where the next open
//! reads it — not behind the torn bytes, where every later open would stop
//! in front of it and drop it.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use dpfs_meta::Database;

fn count(db: &Database) -> i64 {
    let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
    rs.scalar().unwrap().as_int().unwrap()
}

fn torn_then_committed(dir: &Path, sync_on_commit: bool) {
    let _ = std::fs::remove_dir_all(dir);
    let open = || Database::open_with_sync(dir, sync_on_commit).unwrap();
    {
        let db = open();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    let wal = dir.join("wal.log");
    let acknowledged = std::fs::metadata(&wal).unwrap().len();
    // The crash: a record header that promises 100 bytes, and 3 of them.
    let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&100u32.to_le_bytes()).unwrap();
    f.write_all(&0u32.to_le_bytes()).unwrap();
    f.write_all(&[1, 2, 3]).unwrap();
    drop(f);
    {
        let db = open();
        assert_eq!(count(&db), 1);
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), acknowledged);
        db.execute("INSERT INTO t VALUES (2)").unwrap();
    }
    assert_eq!(count(&open()), 2, "sync_on_commit = {sync_on_commit}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_commit_after_a_torn_tail_survives_the_next_open() {
    let dir = std::env::temp_dir().join(format!("dpfs-wal-tail-{}", std::process::id()));
    for sync_on_commit in [false, true] {
        torn_then_committed(&dir, sync_on_commit);
    }
}
