//! Transactions on the engine: a transaction of several statements is a
//! `Database::transaction` closure, committed when it returns `Ok` and
//! rolled back when it returns `Err`; any other statement is a transaction
//! of its own. Covers DDL rollback, WAL replay of a committed transaction,
//! WAL economy for read-only transactions, and that the SQL has no
//! transaction control of its own.

use std::sync::Arc;

use dpfs_meta::{Catalog, Database, MetaError, Value};

/// The `Err` a closure returns to roll its transaction back.
fn roll_back<T>() -> Result<T, MetaError> {
    Err(MetaError::Txn("rolled back by the test".into()))
}

#[test]
fn rollback_undoes_drop_table() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let outcome = db.transaction(|txn| {
        txn.execute("DROP TABLE t")?;
        assert!(
            txn.execute("SELECT * FROM t").is_err(),
            "dropped inside txn"
        );
        roll_back::<()>()
    });
    assert!(matches!(outcome, Err(MetaError::Txn(_))), "{outcome:?}");
    let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2), "rows restored with the table");
}

#[test]
fn rollback_undoes_create_table() {
    let db = Database::in_memory();
    let outcome = db.transaction(|txn| {
        txn.execute("CREATE TABLE ephemeral (k INT PRIMARY KEY)")?;
        txn.execute("INSERT INTO ephemeral VALUES (9)")?;
        roll_back::<()>()
    });
    assert!(outcome.is_err());
    assert!(db.execute("SELECT * FROM ephemeral").is_err());
    // creating it again works (no phantom name)
    db.execute("CREATE TABLE ephemeral (k INT PRIMARY KEY)")
        .unwrap();
}

/// `BEGIN`, `COMMIT` and `ROLLBACK` are not statements: the engine has no
/// sessions, so a `BEGIN` would open one transaction for every caller of
/// the database at once.
#[test]
fn txn_control_misuse_is_rejected() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
    for sql in ["BEGIN", "BEGIN TRANSACTION", "COMMIT", "ROLLBACK"] {
        assert!(matches!(db.execute(sql), Err(MetaError::Parse(_))), "{sql}");
        let inside = db.transaction(|txn| txn.execute(sql));
        assert!(matches!(inside, Err(MetaError::Parse(_))), "{sql}");
    }
    // nothing was left open: a statement and a transaction still commit
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.transaction(|txn| txn.execute("INSERT INTO t VALUES (2)"))
        .unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2));
}

/// A `BEGIN` on the catalog's database leaves every catalog call working.
/// (When it opened a database-wide transaction, the next `mkdir` failed
/// with "nested BEGIN", and a `ROLLBACK` would have discarded whatever any
/// caller wrote in between.)
#[test]
fn a_begin_statement_leaves_the_catalog_usable() {
    let catalog = Catalog::new(Arc::new(Database::in_memory())).unwrap();
    let begin = catalog.db().execute("BEGIN");
    catalog.mkdir("/after-begin").unwrap();
    let root = catalog.get_dir("/").unwrap().unwrap();
    assert!(
        root.sub_dirs.iter().any(|d| d.contains("after-begin")),
        "{root:?}"
    );
    assert!(catalog.get_dir("/after-begin").unwrap().is_some());
    assert!(matches!(begin, Err(MetaError::Parse(_))), "{begin:?}");
    assert!(catalog.db().execute("ROLLBACK").is_err());
    assert!(catalog.get_dir("/after-begin").unwrap().is_some());
}

#[test]
fn explicit_txn_spans_multiple_statements_atomically() {
    let dir = std::env::temp_dir().join(format!("dpfs-txn-span-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open_with_sync(&dir, false).unwrap();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            .unwrap();
        db.transaction(|txn| {
            for k in 0..10 {
                txn.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * 10))?;
            }
            txn.execute("UPDATE t SET v = v + 1 WHERE k < 5")
        })
        .unwrap();
        // a second transaction that deletes everything is rolled back
        let outcome = db.transaction(|txn| {
            txn.execute("DELETE FROM t WHERE k >= 0")?;
            roll_back::<()>()
        });
        assert!(outcome.is_err());
    }
    {
        let db = Database::open_with_sync(&dir, false).unwrap();
        let rs = db.execute("SELECT COUNT(*), SUM(v) FROM t").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(10), "committed txn survived");
        // sum: (1+11+21+31+41) + (50+60+70+80+90) = 105 + 350 = 455
        assert_eq!(rs.rows[0][1], Value::Int(455));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_only_transactions_write_nothing_to_the_wal() {
    let dir = std::env::temp_dir().join(format!("dpfs-txn-ro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open_with_sync(&dir, false).unwrap();
    db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let wal = dir.join("wal.log");
    let before = std::fs::metadata(&wal).unwrap().len();
    for _ in 0..20 {
        db.execute("SELECT * FROM t WHERE k = 1").unwrap();
    }
    db.transaction(|txn| {
        txn.execute("SELECT COUNT(*) FROM t")?;
        txn.execute("SELECT * FROM t WHERE k = 1")
    })
    .unwrap();
    let after = std::fs::metadata(&wal).unwrap().len();
    assert_eq!(before, after, "reads must not grow the WAL");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_statement_inside_explicit_txn_keeps_txn_usable() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
    db.transaction(|txn| {
        txn.execute("INSERT INTO t VALUES (1)")?;
        // duplicate key fails the statement, not the transaction
        assert!(txn.execute("INSERT INTO t VALUES (1)").is_err());
        txn.execute("INSERT INTO t VALUES (2)")
    })
    .unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2));
}

#[test]
fn checkpoint_inside_txn_refused_but_fine_after() {
    let dir = std::env::temp_dir().join(format!("dpfs-txn-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open_with_sync(&dir, false).unwrap();
    db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
    db.transaction(|txn| {
        txn.execute("INSERT INTO t VALUES (1)")?;
        assert!(
            db.checkpoint().is_err(),
            "checkpoint with open txn must fail"
        );
        Ok(())
    })
    .unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open_with_sync(&dir, false).unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(1));
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
