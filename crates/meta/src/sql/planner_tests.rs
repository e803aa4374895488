//! Planner equivalence: whatever access path a statement takes, it returns
//! and changes exactly what a full scan would.
//!
//! Two on-disk databases receive the same random history — one planned, one
//! with the executor's `FORCE_SCAN` oracle switch set around every call —
//! over a random schema (with or without a primary key and secondary
//! indexes). After every step the statement's result, the table contents
//! and the indexes (against a rebuild from the rows) are compared; the
//! history includes transactions of several statements, committed or rolled
//! back (each a `Database::transaction` closure on each side, the closure
//! returning `Err` to roll back), primary-key-changing updates, NULL and
//! duplicate index keys, parameters and literals, and reopening both
//! databases through WAL replay and snapshot load.

use std::path::PathBuf;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use crate::db::{Database, ResultSet};
use crate::error::{MetaError, Result};
use crate::sql::exec::FORCE_SCAN;
use crate::value::Value;

/// One random schema and the two databases living under it.
struct Pair {
    rng: TestRng,
    text_key: bool,
    ddl: Vec<String>,
    dirs: [PathBuf; 2],
    /// `[planned, oracle]`; `None` only while reopening.
    dbs: [Option<Database>; 2],
}

fn forced<T>(f: impl FnOnce() -> T) -> T {
    FORCE_SCAN.with(|s| s.set(true));
    let out = f();
    FORCE_SCAN.with(|s| s.set(false));
    out
}

impl Pair {
    fn new(seed: u64) -> Pair {
        let mut rng = TestRng::new(seed);
        let text_key = rng.below(2) == 0;
        let pk = if rng.below(3) > 0 { " PRIMARY KEY" } else { "" };
        let key_type = if text_key { "TEXT" } else { "INT" };
        let mut ddl = vec![format!(
            "CREATE TABLE IF NOT EXISTS t (k {key_type}{pk}, g INT, s TEXT, n INT NOT NULL)"
        )];
        for col in ["g", "s", "k"] {
            if rng.below(2) == 0 {
                ddl.push(format!(
                    "CREATE INDEX IF NOT EXISTS t_by_{col} ON t ({col})"
                ));
            }
        }
        let dirs = ["planned", "oracle"].map(|side| {
            let dir = std::env::temp_dir().join(format!(
                "dpfs-meta-planner-{}-{seed:016x}-{side}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let mut pair = Pair {
            rng,
            text_key,
            ddl,
            dirs,
            dbs: [None, None],
        };
        pair.open();
        pair
    }

    /// Open both directories and declare the schema, as a catalog does on
    /// every start: tables come back from disk, indexes are rebuilt.
    fn open(&mut self) {
        for (slot, dir) in self.dbs.iter_mut().zip(&self.dirs) {
            let db = Database::open_with_sync(dir, false).unwrap();
            for ddl in &self.ddl {
                db.execute(ddl).unwrap();
            }
            *slot = Some(db);
        }
    }

    fn reopen(&mut self, checkpoint: bool) {
        for db in self.dbs.iter_mut() {
            let db = db.take().unwrap();
            if checkpoint {
                db.checkpoint().unwrap();
            }
        }
        self.open();
    }

    fn db(&self, side: usize) -> &Database {
        self.dbs[side].as_ref().unwrap()
    }

    /// Run one statement on both sides and hold them to the same outcome.
    fn both(&self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        same(sql, params, |side, sql, params| {
            self.db(side).execute_with(sql, params)
        })
    }

    fn check_state(&self) {
        let _ = self.both("SELECT * FROM t", &[]);
        self.check_indexes();
    }

    fn check_indexes(&self) {
        for db in self.dbs.iter().flatten() {
            db.assert_indexes_match_rows();
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn key(&mut self) -> Value {
        let n = self.below(12) as i64;
        if self.text_key {
            Value::Text(format!("k{n}"))
        } else {
            Value::Int(n)
        }
    }

    /// A value for column `col`: small domains, so keys repeat; NULLs where
    /// the column allows them.
    fn value_of(&mut self, col: &str) -> Value {
        match col {
            "k" => self.key(),
            "n" => Value::Int(self.below(100) as i64),
            _ if self.below(5) == 0 => Value::Null,
            "g" => Value::Int(self.below(4) as i64),
            _ => Value::Text(["", "a", "ab", "b", "ba"][self.below(5) as usize].into()),
        }
    }

    /// Write `v` into `sql` as a literal or as a `?` bound through `params`.
    fn operand(&mut self, v: Value, sql: &mut String, params: &mut Vec<Value>) {
        if self.below(2) == 0 {
            sql.push('?');
            params.push(v);
        } else {
            sql.push_str(&v.to_string());
        }
    }

    fn atom(&mut self, sql: &mut String, params: &mut Vec<Value>) {
        let col = ["k", "g", "s"][self.below(3) as usize];
        let v = if self.below(12) == 0 {
            Value::Null
        } else {
            self.value_of(col)
        };
        match self.below(8) {
            0 => {
                self.operand(v, sql, params);
                sql.push_str(&format!(" = {col}"));
            }
            1 => {
                sql.push_str(&format!("{col} IN ("));
                self.operand(v, sql, params);
                sql.push_str(", ");
                let w = self.value_of(col);
                self.operand(w, sql, params);
                sql.push(')');
            }
            2 => sql.push_str(&format!("{col} IS NULL")),
            3 => sql.push_str(&format!("{col} IS NOT NULL")),
            4 => {
                sql.push_str("s LIKE ");
                let pattern = ["a%", "%b", "_", "%"][self.below(4) as usize];
                self.operand(Value::Text(pattern.into()), sql, params);
            }
            5 => {
                sql.push_str(&format!(
                    "{col} {} ",
                    ["!=", "<", ">="][self.below(3) as usize]
                ));
                self.operand(v, sql, params);
            }
            _ => {
                sql.push_str(&format!("{col} = "));
                self.operand(v, sql, params);
            }
        }
    }

    fn filter(&mut self, depth: u32, sql: &mut String, params: &mut Vec<Value>) {
        if depth == 0 || self.below(3) == 0 {
            return self.atom(sql, params);
        }
        match self.below(5) {
            0 => {
                sql.push_str("NOT (");
                self.filter(depth - 1, sql, params);
                sql.push(')');
            }
            1 => {
                sql.push('(');
                self.filter(depth - 1, sql, params);
                sql.push_str(") OR (");
                self.filter(depth - 1, sql, params);
                sql.push(')');
            }
            _ => {
                sql.push('(');
                self.filter(depth - 1, sql, params);
                sql.push_str(") AND (");
                self.filter(depth - 1, sql, params);
                sql.push(')');
            }
        }
    }

    /// A `WHERE` clause. One in eight compares an indexable column with a
    /// key of the wrong type and nothing else: a type error on the first
    /// row either path compares, so the index must not swallow it. (Inside
    /// a larger filter such a comparison fails only on the rows that reach
    /// it, which is why narrowing the candidates may skip the error —
    /// DESIGN.md "Access paths" — and why it is generated alone.)
    fn where_clause(&mut self, sql: &mut String, params: &mut Vec<Value>) {
        if self.below(8) > 0 {
            return self.filter(2, sql, params);
        }
        let col = ["k", "g"][self.below(2) as usize];
        let wrong = match (col, self.text_key) {
            ("k", true) => Value::Int(7),
            _ => Value::Text("x".into()),
        };
        sql.push_str(&format!("{col} = "));
        self.operand(wrong, sql, params);
    }

    fn mutation(&mut self) {
        let (sql, params) = self.mutation_sql();
        let _ = self.both(&sql, &params);
    }

    /// One random `INSERT`, `UPDATE` or `DELETE` and its bound values.
    fn mutation_sql(&mut self) -> (String, Vec<Value>) {
        let (mut sql, mut params) = (String::new(), Vec::new());
        match self.below(4) {
            0 | 1 => {
                sql.push_str("INSERT INTO t VALUES (");
                for (i, col) in ["k", "g", "s", "n"].into_iter().enumerate() {
                    if i > 0 {
                        sql.push_str(", ");
                    }
                    let v = self.value_of(col);
                    self.operand(v, &mut sql, &mut params);
                }
                sql.push(')');
            }
            2 => {
                let col = ["k", "g", "s", "n"][self.below(4) as usize];
                sql.push_str(&format!("UPDATE t SET {col} = "));
                let v = self.value_of(col);
                self.operand(v, &mut sql, &mut params);
                sql.push_str(" WHERE ");
                self.where_clause(&mut sql, &mut params);
            }
            _ => {
                sql.push_str("DELETE FROM t WHERE ");
                self.where_clause(&mut sql, &mut params);
            }
        }
        (sql, params)
    }

    fn query(&mut self) {
        let (mut sql, mut params) = (String::new(), Vec::new());
        sql.push_str(
            [
                "SELECT * FROM t WHERE ",
                "SELECT n, k FROM t WHERE ",
                "SELECT COUNT(*), MAX(n) FROM t WHERE ",
            ][self.below(3) as usize],
        );
        let aggregate = sql.contains("COUNT");
        self.where_clause(&mut sql, &mut params);
        if !aggregate && self.below(3) == 0 {
            sql.push_str(" ORDER BY n DESC, k LIMIT 3");
        }
        let _ = self.both(&sql, &params);
    }

    /// Run `mutations` as one `Database::transaction` closure on each side,
    /// comparing the sides after every statement; the closures return `Err`
    /// to roll back unless `commit`.
    fn transaction(&self, mutations: &[(String, Vec<Value>)], commit: bool) {
        let outcome = self.db(0).transaction(|planned| {
            self.db(1).transaction(|oracle| {
                let txns = [planned, oracle];
                let run =
                    |side: usize, sql: &str, params: &[Value]| txns[side].execute_with(sql, params);
                for (sql, params) in mutations {
                    let _ = same(sql, params, run);
                    let _ = same("SELECT * FROM t", &[], run);
                    self.check_indexes();
                }
                if commit {
                    Ok(())
                } else {
                    Err(MetaError::Txn("roll back".into()))
                }
            })
        });
        assert_eq!(outcome.is_ok(), commit, "{outcome:?}");
    }

    fn step(&mut self) {
        match self.below(12) {
            0..=4 => self.mutation(),
            5..=8 => self.query(),
            9 | 10 => {
                let n = self.below(4);
                let mutations: Vec<_> = (0..n).map(|_| self.mutation_sql()).collect();
                let commit = self.below(3) == 0;
                self.transaction(&mutations, commit);
            }
            _ => {
                let checkpoint = self.below(2) == 0;
                self.reopen(checkpoint);
            }
        }
        self.check_state();
    }
}

/// Run one statement through `run` on the planned side (0) and, with the
/// scan forced, on the oracle side (1), and hold them to the same outcome.
fn same(
    sql: &str,
    params: &[Value],
    run: impl Fn(usize, &str, &[Value]) -> Result<ResultSet>,
) -> Result<ResultSet> {
    let planned = run(0, sql, params);
    let oracle = forced(|| run(1, sql, params));
    match (&planned, &oracle) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{sql} {params:?}"),
        (Err(a), Err(b)) => assert_eq!(a.wire_code(), b.wire_code(), "{sql} {params:?}"),
        _ => panic!("{sql} {params:?}: planned {planned:?}, scan {oracle:?}"),
    }
    planned
}

impl Drop for Pair {
    fn drop(&mut self) {
        self.dbs = [None, None];
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_execution_equals_a_forced_scan(seed in any::<u64>()) {
        let mut pair = Pair::new(seed);
        for _ in 0..40 {
            pair.step();
        }
    }
}

/// The rule table of DESIGN.md "Access paths", statement by statement.
#[test]
fn explain_names_the_access_path() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, g INT, s TEXT)")
        .unwrap();
    db.execute("CREATE TABLE u (k TEXT PRIMARY KEY, g INT)")
        .unwrap();
    db.execute("CREATE INDEX t_by_g ON t (g)").unwrap();
    let path = |sql: &str, params: &[Value]| -> String {
        let rs = db.execute_with(&format!("EXPLAIN {sql}"), params).unwrap();
        assert_eq!(rs.columns, vec!["access_path"]);
        rs.scalar().unwrap().as_text().unwrap().to_string()
    };
    let bound = [Value::from("a")];
    assert_eq!(path("SELECT * FROM t WHERE k = 'a'", &[]), "pk-point t.k");
    assert_eq!(path("SELECT * FROM t WHERE k = ?", &bound), "pk-point t.k");
    assert_eq!(
        path("SELECT * FROM t WHERE k = ?", &[]),
        "pk-point t.k",
        "unbound"
    );
    assert_eq!(
        path("UPDATE t SET s = 'x' WHERE 'a' = k AND g > 1", &[]),
        "pk-point t.k"
    );
    assert_eq!(path("DELETE FROM t WHERE g = 3", &[]), "index-eq t.g");
    assert_eq!(
        path("DELETE FROM t WHERE s = 'x' AND g = 3", &[]),
        "index-eq t.g"
    );
    assert_eq!(
        path("SELECT * FROM t WHERE g = 3 AND k = 'a'", &[]),
        "pk-point t.k",
        "pk wins"
    );
    assert_eq!(path("SELECT * FROM t WHERE t.g = 3", &[]), "index-eq t.g");
    for scan in [
        "SELECT * FROM t",
        "SELECT * FROM t WHERE s = 'x'",
        "SELECT * FROM t WHERE k = 'a' OR g = 3",
        "SELECT * FROM t WHERE NOT (k = 'a')",
        "SELECT * FROM t WHERE k > 'a'",
        "SELECT * FROM t WHERE k IN ('a')",
        "SELECT * FROM t WHERE k = 7",
        "SELECT * FROM t WHERE g = g",
    ] {
        assert_eq!(path(scan, &[]), "scan t", "{scan}");
    }
    assert_eq!(
        path("SELECT * FROM t WHERE k = ?", &[Value::Int(7)]),
        "scan t"
    );
    assert_eq!(path("SELECT * FROM t WHERE k = NULL", &[]), "pk-point t.k");
    // a join plans its base table; the joined table's columns do not count
    let join = "SELECT * FROM t JOIN u ON t.k = u.k WHERE";
    assert_eq!(path(&format!("{join} t.g = 3"), &[]), "index-eq t.g");
    assert_eq!(path(&format!("{join} u.k = 'a'"), &[]), "scan t");
    assert!(db
        .execute("EXPLAIN INSERT INTO t VALUES ('a', 1, 'x')")
        .is_err());
    assert!(db.execute("EXPLAIN SELECT * FROM missing").is_err());
    // derived state: declaring twice is refused or ignored, as asked
    assert!(db.execute("CREATE INDEX again ON t (g)").is_err());
    assert!(db.execute("CREATE INDEX on_pk ON t (k)").is_err());
    db.execute("CREATE INDEX IF NOT EXISTS again ON t (g)")
        .unwrap();
    assert!(db.execute("CREATE INDEX i ON t (missing)").is_err());
    assert!(db.execute("CREATE INDEX i ON missing (g)").is_err());
}
