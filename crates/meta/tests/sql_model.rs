//! Model-based property tests: the SQL engine vs. a trivial in-memory
//! model, plus WAL-recovery equivalence.

use proptest::prelude::*;

use dpfs_meta::{Database, MetaError, Value};

/// Operations the model understands.
#[derive(Debug, Clone)]
enum Op {
    Insert { k: i64, v: i64 },
    UpdateWhere { lo: i64, add: i64 },
    DeleteWhere { lo: i64 },
    Rollback(Vec<(i64, i64)>), // inserts inside a rolled-back txn
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..200, 0i64..1000).prop_map(|(k, v)| Op::Insert { k, v }),
        (0i64..200, 1i64..50).prop_map(|(lo, add)| Op::UpdateWhere { lo, add }),
        (0i64..200).prop_map(|lo| Op::DeleteWhere { lo }),
        proptest::collection::vec((0i64..200, 0i64..1000), 1..4).prop_map(Op::Rollback),
    ]
}

/// Apply ops to both the engine and a BTreeMap model; they must agree.
fn run_ops(db: &Database, ops: &[Op]) -> std::collections::BTreeMap<i64, i64> {
    let mut model = std::collections::BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert { k, v } => {
                let res = db.execute(&format!("INSERT INTO t VALUES ({k}, {v})"));
                if model.contains_key(k) {
                    assert!(res.is_err(), "duplicate insert of {k} must fail");
                } else {
                    res.unwrap();
                    model.insert(*k, *v);
                }
            }
            Op::UpdateWhere { lo, add } => {
                let rs = db
                    .execute(&format!("UPDATE t SET v = v + {add} WHERE k >= {lo}"))
                    .unwrap();
                let mut n = 0;
                for (k, v) in model.iter_mut() {
                    if *k >= *lo {
                        *v += add;
                        n += 1;
                    }
                }
                assert_eq!(rs.scalar().unwrap(), &Value::Int(n));
            }
            Op::DeleteWhere { lo } => {
                let rs = db
                    .execute(&format!("DELETE FROM t WHERE k >= {lo}"))
                    .unwrap();
                let before = model.len();
                model.retain(|k, _| *k < *lo);
                assert_eq!(
                    rs.scalar().unwrap(),
                    &Value::Int((before - model.len()) as i64)
                );
            }
            Op::Rollback(inserts) => {
                let outcome = db.transaction(|txn| {
                    for (k, v) in inserts {
                        // may fail on duplicates; either way the rollback wipes it
                        let _ = txn.execute(&format!("INSERT INTO t VALUES ({k}, {v})"));
                    }
                    Err::<(), _>(MetaError::Txn("roll back".into()))
                });
                assert!(outcome.is_err());
                // model unchanged
            }
        }
    }
    model
}

fn check_matches_model(db: &Database, model: &std::collections::BTreeMap<i64, i64>) {
    let rs = db.execute("SELECT k, v FROM t ORDER BY k").unwrap();
    let got: Vec<(i64, i64)> = rs
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    let want: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-memory engine matches the model under arbitrary op sequences,
    /// including rolled-back transactions.
    #[test]
    fn engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)").unwrap();
        let model = run_ops(&db, &ops);
        check_matches_model(&db, &model);
    }

    /// Durability: state after crash-reopen (WAL replay) equals state
    /// before, and equals the model.
    #[test]
    fn wal_replay_matches_model(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        let dir = std::env::temp_dir().join(format!(
            "dpfs-sqlmodel-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let model = {
            let db = Database::open_with_sync(&dir, false).unwrap();
            db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)").unwrap();
            run_ops(&db, &ops)
            // dropped without checkpoint: recovery must come from the WAL
        };
        {
            let db = Database::open_with_sync(&dir, false).unwrap();
            check_matches_model(&db, &model);
        }
        // checkpoint, then recover from snapshot alone
        {
            let db = Database::open_with_sync(&dir, false).unwrap();
            db.checkpoint().unwrap();
        }
        {
            let db = Database::open_with_sync(&dir, false).unwrap();
            check_matches_model(&db, &model);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// SELECT with ORDER BY + LIMIT agrees with sorting the model.
    #[test]
    fn order_by_limit_matches_model(
        rows in proptest::collection::btree_map(0i64..500, 0i64..100, 1..60),
        limit in 1usize..20,
        desc in proptest::bool::ANY,
    ) {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)").unwrap();
        for (k, v) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({k}, {v})")).unwrap();
        }
        let dir = if desc { "DESC" } else { "ASC" };
        let rs = db.execute(&format!("SELECT v FROM t ORDER BY v {dir}, k {dir} LIMIT {limit}")).unwrap();
        let mut pairs: Vec<(i64, i64)> = rows.iter().map(|(&k, &v)| (v, k)).collect();
        pairs.sort();
        if desc { pairs.reverse(); }
        let want: Vec<i64> = pairs.into_iter().take(limit).map(|(v, _)| v).collect();
        let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        prop_assert_eq!(got, want);
    }

    /// Aggregates agree with the model.
    #[test]
    fn aggregates_match_model(
        rows in proptest::collection::btree_map(0i64..500, -50i64..50, 0..40),
    ) {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)").unwrap();
        for (k, v) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({k}, {v})")).unwrap();
        }
        let rs = db.execute("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t").unwrap();
        let row = &rs.rows[0];
        prop_assert_eq!(&row[0], &Value::Int(rows.len() as i64));
        if rows.is_empty() {
            prop_assert_eq!(&row[1], &Value::Null);
            prop_assert_eq!(&row[2], &Value::Null);
            prop_assert_eq!(&row[3], &Value::Null);
        } else {
            prop_assert_eq!(&row[1], &Value::Int(rows.values().sum::<i64>()));
            prop_assert_eq!(&row[2], &Value::Int(*rows.values().min().unwrap()));
            prop_assert_eq!(&row[3], &Value::Int(*rows.values().max().unwrap()));
        }
    }

    /// LIKE filtering agrees with a reference matcher over random text.
    #[test]
    fn like_matches_reference(
        names in proptest::collection::vec("[a-c]{0,6}", 1..25),
        pattern in "[a-c%_]{0,5}",
    ) {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)").unwrap();
        for (i, n) in names.iter().enumerate() {
            db.execute(&format!("INSERT INTO t VALUES ({i}, '{n}')")).unwrap();
        }
        let rs = db.execute(&format!("SELECT id FROM t WHERE name LIKE '{pattern}'")).unwrap();
        let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let want: Vec<i64> = names.iter().enumerate()
            .filter(|(_, n)| reference_like(&pattern, n))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// Reference LIKE via recursion (exponential but inputs are tiny).
fn reference_like(pattern: &str, text: &str) -> bool {
    fn go(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|i| go(rest, &t[i..])),
            Some(('_', rest)) => !t.is_empty() && go(rest, &t[1..]),
            Some((c, rest)) => t.first() == Some(c) && go(rest, &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    go(&p, &t)
}
