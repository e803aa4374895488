//! The embedded database engine: tables + WAL + snapshot + transactions.
//!
//! The paper stores DPFS metadata in POSTGRES "since SQL is a very high level
//! and reliable interface" and relies on its transactions for consistency.
//! This module provides the same contract in-process: SQL text in, result
//! sets out, atomic durable transactions underneath.
//!
//! Concurrency model: the engine serializes all statements behind one lock
//! (single-writer, like a single POSTGRES session). A transaction of several
//! statements is a `transaction()` closure; any other statement is a
//! transaction of its own. The SQL has no `BEGIN`/`COMMIT`/`ROLLBACK`: the
//! engine has no sessions, so a transaction opened by one statement would
//! belong to every caller of the database at once.
//!
//! Values travel beside the SQL text, not inside it: `execute_with(sql,
//! params)` binds `params` to the statement's `?` placeholders. Each
//! statement text is parsed once and kept in a bounded cache on the
//! `Database`, so a hot statement costs a map lookup, not a parse.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::codec::{self, Reader};
use crate::error::{MetaError, Result};
use crate::schema::Schema;
use crate::sql::ast::Statement;
use crate::sql::exec;
use crate::sql::parser;
use crate::table::{RowId, Table};
use crate::value::Value;
use crate::wal::{self, Redo, WalRecord, WalWriter};

const SNAP_MAGIC: &[u8; 8] = b"DPFSSNAP";
const SNAP_VERSION: u32 = 1;
const SNAPSHOT_FILE: &str = "snapshot.db";
const WAL_FILE: &str = "wal.log";

/// Result of a statement: column headers plus rows. Mutating statements
/// report the affected-row count in a single `rows_affected` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Column names, one per projected value.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Empty result (DDL).
    pub fn empty() -> Self {
        ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Result carrying an affected-row count.
    pub fn affected(n: usize) -> Self {
        ResultSet {
            columns: vec!["rows_affected".into()],
            rows: vec![vec![Value::Int(n as i64)]],
        }
    }

    /// The single value of a single-row, single-column result.
    pub fn scalar(&self) -> Result<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Ok(&self.rows[0][0])
        } else {
            Err(MetaError::TypeError(format!(
                "expected scalar result, got {}x{}",
                self.rows.len(),
                self.columns.len()
            )))
        }
    }
}

/// Undo record for in-memory rollback.
pub(crate) enum UndoOp {
    Insert {
        table: String,
        id: RowId,
    },
    Update {
        table: String,
        id: RowId,
        old: Vec<Value>,
    },
    Delete {
        table: String,
        id: RowId,
        old: Vec<Value>,
    },
    Create {
        name: String,
    },
    Drop {
        name: String,
        table: Box<Table>,
    },
}

struct TxnState {
    id: u64,
    /// The transaction's log records, encoded as they are made; `None`
    /// when the database keeps no log.
    redo: Option<Redo>,
    undo: Vec<UndoOp>,
}

pub(crate) struct Inner {
    tables: BTreeMap<String, Table>,
    dir: Option<PathBuf>,
    wal: Option<WalWriter>,
    next_txn: u64,
    txn: Option<TxnState>,
    sync_on_commit: bool,
    /// Log records of committed [`Database::transaction_deferred`]
    /// transactions, written ahead of the next transaction that writes.
    deferred: Redo,
    /// The buffer the next transaction encodes its log records into.
    spare: Redo,
}

/// A parsed statement and the number of `?` placeholders it binds.
struct Prepared {
    stmt: Statement,
    params: usize,
}

/// Most statement texts the cache holds. The catalog issues a few dozen
/// distinct texts; the bound only keeps ad-hoc SQL with inlined literals
/// (every text different) from growing the map forever.
const STATEMENT_CACHE_CAP: usize = 256;

#[derive(Default)]
struct StatementCache {
    by_text: HashMap<String, Arc<Prepared>>,
    hits: u64,
    misses: u64,
}

/// Counters of the parsed-statement cache ([`Database::statement_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementCacheStats {
    /// Executions served by an already parsed statement.
    pub hits: u64,
    /// Executions that had to parse their text.
    pub misses: u64,
    /// Statement texts held now.
    pub entries: usize,
}

/// The embedded metadata database.
pub struct Database {
    inner: Mutex<Inner>,
    /// Serializes whole transactions (and autocommit statements) across
    /// threads. The `inner` lock alone is not enough: [`Database::transaction`]
    /// releases it between statements, so without this gate a concurrent
    /// autocommit statement would observe the open transaction and silently
    /// join its undo scope — a rollback would then discard the other
    /// thread's acknowledged write. Concurrent writers (metad's
    /// per-connection workers, racing in-process callers) block here instead.
    txn_gate: Mutex<()>,
    statements: Mutex<StatementCache>,
}

impl Database {
    /// Purely in-memory database (no durability); used by tests and by the
    /// simulation harness where metadata persistence is irrelevant.
    pub fn in_memory() -> Database {
        Database::from_inner(Inner {
            tables: BTreeMap::new(),
            dir: None,
            wal: None,
            next_txn: 1,
            txn: None,
            sync_on_commit: false,
            deferred: Redo::default(),
            spare: Redo::default(),
        })
    }

    fn from_inner(inner: Inner) -> Database {
        Database {
            inner: Mutex::new(inner),
            txn_gate: Mutex::new(()),
            statements: Mutex::new(StatementCache::default()),
        }
    }

    /// Open (or create) a durable database in directory `dir`. Loads the
    /// snapshot, replays the WAL's committed transactions, and checkpoints
    /// if the WAL has grown past 1 MiB.
    pub fn open(dir: &Path) -> Result<Database> {
        Self::open_with_sync(dir, true)
    }

    /// Like [`Database::open`] but allowing fsync-on-commit to be disabled
    /// (faster; used by benchmarks).
    pub fn open_with_sync(dir: &Path, sync_on_commit: bool) -> Result<Database> {
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let (mut tables, mut next_txn) = if snap_path.exists() {
            load_snapshot(&snap_path)?
        } else {
            (BTreeMap::new(), 1)
        };

        // Replay committed WAL transactions in log order, and append behind
        // the last intact record, not behind a torn tail.
        let (records, intact) = wal::read_intact(&wal_path)?;
        if wal_path.exists() {
            wal::cut_torn_tail(&wal_path, intact)?;
        }
        let committed = wal::committed_txns(&records);
        for rec in &records {
            next_txn = next_txn.max(rec.txn() + 1);
            if committed.contains(&rec.txn()) {
                apply_record(&mut tables, rec)?;
            }
        }

        let wal_len = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
        let mut inner = Inner {
            tables,
            dir: Some(dir.to_path_buf()),
            wal: Some(WalWriter::open(&wal_path, sync_on_commit)?),
            next_txn,
            txn: None,
            sync_on_commit,
            deferred: Redo::default(),
            spare: Redo::default(),
        };
        if wal_len > 1 << 20 {
            inner.checkpoint()?;
        }
        Ok(Database::from_inner(inner))
    }

    /// Whether a commit waits for its WAL record to reach the disk.
    pub fn syncs_on_commit(&self) -> bool {
        self.inner.lock().unwrap().sync_on_commit
    }

    /// Execute one SQL statement that binds no parameters, as a transaction
    /// of its own.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        self.execute_with(sql, &[])
    }

    /// Execute one SQL statement with `params` bound, in order, to its `?`
    /// placeholders. The text is parsed on first use and cached; binding
    /// fewer or more values than the statement has placeholders is an
    /// error. Autocommits like [`Database::execute`].
    pub fn execute_with(&self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let prepared = self.prepare(sql, params)?;
        self.run(&prepared.stmt, params)
    }

    /// The parsed form of `sql`, from the cache or parsed now, checked
    /// against the number of `params` about to be bound.
    fn prepare(&self, sql: &str, params: &[Value]) -> Result<Arc<Prepared>> {
        let mut cache = self.statements.lock().unwrap();
        let prepared = match cache.by_text.get(sql).cloned() {
            Some(p) => {
                cache.hits += 1;
                p
            }
            None => {
                let (stmt, n) = parser::parse_counted(sql)?;
                cache.misses += 1;
                if cache.by_text.len() >= STATEMENT_CACHE_CAP {
                    // Hot statements are back after one parse each.
                    cache.by_text.clear();
                }
                let p = Arc::new(Prepared { stmt, params: n });
                cache.by_text.insert(sql.to_string(), p.clone());
                p
            }
        };
        drop(cache);
        // EXPLAIN may leave its statement's parameters unbound.
        let explain_unbound = params.is_empty() && matches!(prepared.stmt, Statement::Explain(_));
        if params.len() != prepared.params && !explain_unbound {
            return Err(MetaError::TypeError(format!(
                "statement has {} parameters, {} bound",
                prepared.params,
                params.len()
            )));
        }
        Ok(prepared)
    }

    /// Hit, miss and size counters of the parsed-statement cache.
    pub fn statement_cache_stats(&self) -> StatementCacheStats {
        let cache = self.statements.lock().unwrap();
        StatementCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            entries: cache.by_text.len(),
        }
    }

    /// Panic unless every index of every table equals a rebuild from rows.
    #[cfg(test)]
    pub(crate) fn assert_indexes_match_rows(&self) {
        for table in self.inner.lock().unwrap().tables.values() {
            table.assert_indexes_match_rows();
        }
    }

    /// The statement texts the cache holds, sorted.
    #[cfg(test)]
    pub(crate) fn cached_statements(&self) -> Vec<String> {
        let cache = self.statements.lock().unwrap();
        let mut texts: Vec<String> = cache.by_text.keys().cloned().collect();
        texts.sort();
        texts
    }

    /// Execute a pre-parsed statement that binds no parameters.
    pub fn execute_stmt(&self, stmt: Statement) -> Result<ResultSet> {
        self.run(&stmt, &[])
    }

    /// Run `stmt` as a transaction of its own, after any in-flight
    /// `transaction()` so it cannot land inside another thread's atomic
    /// section.
    fn run(&self, stmt: &Statement, params: &[Value]) -> Result<ResultSet> {
        let _gate = self.txn_gate.lock().unwrap();
        let mut inner = self.inner.lock().unwrap();
        inner.begin();
        let result = exec::execute(&mut inner, stmt, params);
        match &result {
            Ok(_) => inner.commit(false)?,
            Err(_) => inner.rollback(),
        }
        result
    }

    /// Run `f` inside a transaction: committed if it returns `Ok`, rolled
    /// back (all statements undone) if it returns `Err`. The closure issues
    /// SQL through the [`Txn`] handle.
    ///
    /// Transactions from different threads serialize on a database-wide
    /// gate (two-phase locking degenerated to one big lock — the paper
    /// delegates this to POSTGRES; our embedded stand-in is coarser).
    /// The closure must issue statements through `txn` only: calling
    /// [`Database::execute`] on the same database from inside the closure
    /// deadlocks by design rather than corrupting the transaction.
    pub fn transaction<T>(&self, f: impl FnOnce(&Txn<'_>) -> Result<T>) -> Result<T> {
        self.run_transaction(false, f)
    }

    /// [`Database::transaction`] for a change derived wholly from what the
    /// directory already holds, such as a format migration: its log records
    /// are written ahead of the next transaction that writes (or folded into
    /// the next checkpoint), not at its own commit. Opening and reading a
    /// directory therefore writes nothing to it; a crash before the next
    /// write loses only what the next open derives again.
    pub(crate) fn transaction_deferred<T>(
        &self,
        f: impl FnOnce(&Txn<'_>) -> Result<T>,
    ) -> Result<T> {
        self.run_transaction(true, f)
    }

    fn run_transaction<T>(
        &self,
        deferred: bool,
        f: impl FnOnce(&Txn<'_>) -> Result<T>,
    ) -> Result<T> {
        let _gate = self.txn_gate.lock().unwrap();
        let mut inner = self.inner.lock().unwrap();
        inner.begin();
        drop(inner);
        let txn = Txn { db: self };
        match f(&txn) {
            Ok(v) => {
                self.inner.lock().unwrap().commit(deferred)?;
                Ok(v)
            }
            Err(e) => {
                self.inner.lock().unwrap().rollback();
                Err(e)
            }
        }
    }

    /// Write a snapshot and truncate the WAL. Fails if a transaction is open.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.lock().unwrap().checkpoint()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.lock().unwrap().tables.keys().cloned().collect()
    }

    /// Whether `table` has a column named `column`.
    pub(crate) fn has_column(&self, table: &str, column: &str) -> bool {
        let inner = self.inner.lock().unwrap();
        let table = inner.tables.get(table);
        table.is_some_and(|t| t.schema().column_index(column).is_ok())
    }
}

/// Handle passed to [`Database::transaction`] closures.
pub struct Txn<'a> {
    db: &'a Database,
}

impl Txn<'_> {
    /// Execute a statement inside the enclosing transaction.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        self.execute_with(sql, &[])
    }

    /// Execute a statement with bound parameters (see
    /// [`Database::execute_with`]) inside the enclosing transaction.
    pub fn execute_with(&self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let prepared = self.db.prepare(sql, params)?;
        let mut inner = self.db.inner.lock().unwrap();
        exec::execute(&mut inner, &prepared.stmt, params)
    }
}

impl Inner {
    /// Open a transaction. Callers hold the database's `txn_gate`, so none
    /// is open yet.
    fn begin(&mut self) {
        debug_assert!(self.txn.is_none(), "nested transaction");
        let id = self.next_txn;
        self.next_txn += 1;
        let redo = self.wal.is_some().then(|| {
            let mut redo = std::mem::take(&mut self.spare);
            redo.begin(id);
            redo
        });
        self.txn = Some(TxnState {
            id,
            redo,
            undo: Vec::new(),
        });
    }

    /// Commit the open transaction; a `deferred` one joins the records
    /// held for the next write instead of being appended now.
    fn commit(&mut self, deferred: bool) -> Result<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| MetaError::Txn("commit without a transaction".into()))?;
        let (Some(wal), Some(mut redo)) = (&mut self.wal, txn.redo) else {
            return Ok(());
        };
        // Skip writing read-only transactions: every logged change has an
        // undo entry.
        let mut written = Ok(());
        if !txn.undo.is_empty() {
            redo.commit(txn.id);
            if deferred || !self.deferred.is_empty() {
                self.deferred.extend(&redo);
            }
            if !deferred {
                written = match self.deferred.is_empty() {
                    true => wal.append(&redo),
                    false => wal.append(&self.deferred),
                };
                self.deferred.clear();
            }
        }
        redo.clear();
        self.spare = redo;
        written
    }

    fn rollback(&mut self) {
        let Some(mut txn) = self.txn.take() else {
            return;
        };
        if let Some(mut redo) = txn.redo.take() {
            redo.clear();
            self.spare = redo;
        }
        for op in txn.undo.into_iter().rev() {
            match op {
                UndoOp::Insert { table, id } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        let _ = t.delete(id);
                    }
                }
                UndoOp::Update { table, id, old } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        let _ = t.update(id, old);
                    }
                }
                UndoOp::Delete { table, id, old } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        let _ = t.insert_with_id(id, old);
                    }
                }
                UndoOp::Create { name } => {
                    self.tables.remove(&name);
                }
                UndoOp::Drop { name, table } => {
                    self.tables.insert(name, *table);
                }
            }
        }
    }

    // ---- primitive mutations, called by the executor ----

    pub(crate) fn get_table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| MetaError::NoSuchTable(name.to_string()))
    }

    pub(crate) fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub(crate) fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(MetaError::TableExists(name.to_string()));
        }
        let txn = self.txn.as_mut().ok_or_else(no_txn)?;
        if let Some(redo) = &mut txn.redo {
            redo.create_table(txn.id, name, &schema);
        }
        txn.undo.push(UndoOp::Create {
            name: name.to_string(),
        });
        self.tables.insert(name.to_string(), Table::new(schema));
        Ok(())
    }

    /// Declare a secondary index. Derived state: nothing is logged, and a
    /// rollback leaves the (always consistent) index in place.
    pub(crate) fn create_index(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
        if_not_exists: bool,
    ) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| MetaError::NoSuchTable(table.to_string()))?;
        let col = t.schema().column_index(column)?;
        if t.schema().pk_index() == Some(col) || t.has_index(col) {
            if if_not_exists {
                return Ok(());
            }
            return Err(MetaError::SchemaViolation(format!(
                "index {name}: {table}.{column} is already indexed"
            )));
        }
        t.create_index(col);
        Ok(())
    }

    pub(crate) fn drop_table(&mut self, name: &str) -> Result<()> {
        let txn = self.txn.as_mut().ok_or_else(no_txn)?;
        let (name, table) = self
            .tables
            .remove_entry(name)
            .ok_or_else(|| MetaError::NoSuchTable(name.to_string()))?;
        if let Some(redo) = &mut txn.redo {
            redo.drop_table(txn.id, &name);
        }
        txn.undo.push(UndoOp::Drop {
            name,
            table: Box::new(table),
        });
        Ok(())
    }

    // A row operation names its table once, for the undo log, and keeps one
    // owned copy of a row, the table's: the redo record is encoded from it
    // in place.

    pub(crate) fn insert_row(&mut self, table: &str, values: Vec<Value>) -> Result<RowId> {
        let txn = self.txn.as_mut().ok_or_else(no_txn)?;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| MetaError::NoSuchTable(table.to_string()))?;
        let row_id = t.insert(values)?;
        if let Some(redo) = &mut txn.redo {
            redo.insert(txn.id, table, row_id, t.get(row_id).expect("just inserted"));
        }
        txn.undo.push(UndoOp::Insert {
            table: table.to_string(),
            id: row_id,
        });
        Ok(row_id)
    }

    pub(crate) fn update_row(
        &mut self,
        table: &str,
        row_id: RowId,
        values: Vec<Value>,
    ) -> Result<()> {
        let txn = self.txn.as_mut().ok_or_else(no_txn)?;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| MetaError::NoSuchTable(table.to_string()))?;
        let old = t.update(row_id, values)?;
        if let Some(redo) = &mut txn.redo {
            redo.update(txn.id, table, row_id, t.get(row_id).expect("just updated"));
        }
        txn.undo.push(UndoOp::Update {
            table: table.to_string(),
            id: row_id,
            old,
        });
        Ok(())
    }

    pub(crate) fn delete_row(&mut self, table: &str, row_id: RowId) -> Result<()> {
        let txn = self.txn.as_mut().ok_or_else(no_txn)?;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| MetaError::NoSuchTable(table.to_string()))?;
        let old = t.delete(row_id)?;
        if let Some(redo) = &mut txn.redo {
            redo.delete(txn.id, table, row_id);
        }
        txn.undo.push(UndoOp::Delete {
            table: table.to_string(),
            id: row_id,
            old,
        });
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(MetaError::Txn("checkpoint with open transaction".into()));
        }
        let Some(dir) = self.dir.clone() else {
            return Ok(()); // in-memory: nothing to do
        };
        let tmp = dir.join("snapshot.tmp");
        write_snapshot(&tmp, &self.tables, self.next_txn)?;
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
        // Truncate the WAL: all its effects are in the snapshot now.
        let wal_path = dir.join(WAL_FILE);
        std::fs::write(&wal_path, b"")?;
        self.wal = Some(WalWriter::open(&wal_path, self.sync_on_commit)?);
        self.deferred.clear();
        Ok(())
    }
}

fn no_txn() -> MetaError {
    MetaError::Txn("no active transaction".into())
}

fn apply_record(tables: &mut BTreeMap<String, Table>, rec: &WalRecord) -> Result<()> {
    match rec {
        WalRecord::Begin { .. } | WalRecord::Commit { .. } => Ok(()),
        WalRecord::CreateTable { name, schema, .. } => {
            tables.insert(name.clone(), Table::new(schema.clone()));
            Ok(())
        }
        WalRecord::DropTable { name, .. } => {
            tables.remove(name);
            Ok(())
        }
        WalRecord::Insert {
            table,
            row_id,
            values,
            ..
        } => {
            let t = tables.get_mut(table).ok_or_else(|| {
                MetaError::Storage(format!("wal refers to missing table {table}"))
            })?;
            t.insert_with_id(*row_id, values.clone())
        }
        WalRecord::Update {
            table,
            row_id,
            values,
            ..
        } => {
            let t = tables.get_mut(table).ok_or_else(|| {
                MetaError::Storage(format!("wal refers to missing table {table}"))
            })?;
            t.update(*row_id, values.clone()).map(|_| ())
        }
        WalRecord::Delete { table, row_id, .. } => {
            let t = tables.get_mut(table).ok_or_else(|| {
                MetaError::Storage(format!("wal refers to missing table {table}"))
            })?;
            t.delete(*row_id).map(|_| ())
        }
    }
}

fn write_snapshot(path: &Path, tables: &BTreeMap<String, Table>, next_txn: u64) -> Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAP_MAGIC);
    codec::put_u32(&mut buf, SNAP_VERSION);
    codec::put_u64(&mut buf, next_txn);
    codec::put_u32(&mut buf, tables.len() as u32);
    for (name, table) in tables {
        codec::put_str(&mut buf, name);
        codec::put_schema(&mut buf, table.schema());
        codec::put_u64(&mut buf, table.len() as u64);
        for (id, row) in table.scan() {
            codec::put_u64(&mut buf, id.0);
            codec::put_row(&mut buf, row);
        }
    }
    let crc = codec::crc32(&buf);
    codec::put_u32(&mut buf, crc);
    let mut f = File::create(path)?;
    f.write_all(&buf)?;
    f.sync_data()?;
    Ok(())
}

#[allow(clippy::type_complexity)]
fn load_snapshot(path: &Path) -> Result<(BTreeMap<String, Table>, u64)> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < SNAP_MAGIC.len() + 8 {
        return Err(MetaError::Storage("snapshot too short".into()));
    }
    let (body, crc_bytes) = raw.split_at(raw.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if codec::crc32(body) != stored_crc {
        return Err(MetaError::Storage("snapshot checksum mismatch".into()));
    }
    if &body[..8] != SNAP_MAGIC {
        return Err(MetaError::Storage("bad snapshot magic".into()));
    }
    let mut r = Reader::new(&body[8..]);
    let version = r.u32()?;
    if version != SNAP_VERSION {
        return Err(MetaError::Storage(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let next_txn = r.u64()?;
    let ntables = r.u32()? as usize;
    let mut tables = BTreeMap::new();
    for _ in 0..ntables {
        let name = r.string()?;
        let schema = codec::get_schema(&mut r)?;
        let nrows = r.u64()? as usize;
        let mut table = Table::new(schema);
        for _ in 0..nrows {
            let id = RowId(r.u64()?);
            let row = codec::get_row(&mut r)?;
            table.insert_with_id(id, row)?;
        }
        tables.insert(name, table);
    }
    Ok((tables, next_txn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32_bitwise;

    /// A deferred transaction takes effect at once but reaches the log only
    /// ahead of the next transaction that writes, or in a checkpoint: a
    /// reopen before either finds it undone, one after finds it whole.
    #[test]
    fn a_deferred_transaction_is_logged_with_the_next_write() {
        let dir = std::env::temp_dir().join(format!("dpfs-meta-deferred-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || Database::open_with_sync(&dir, false).unwrap();
        let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let keys = |db: &Database| -> Vec<Value> {
            let rs = db.execute("SELECT k FROM t ORDER BY k").unwrap();
            rs.rows.into_iter().map(|r| r[0].clone()).collect()
        };
        let defer = |db: &Database, k: i64| {
            db.transaction_deferred(|txn| {
                txn.execute_with("INSERT INTO t VALUES (?)", &[k.into()])
            })
            .unwrap();
        };
        let db = open();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
        let created = wal_len();
        defer(&db, 1);
        assert_eq!(keys(&db), [Value::Int(1)]);
        db.execute("SELECT k FROM t").unwrap();
        assert_eq!(
            wal_len(),
            created,
            "a deferred commit and a read write nothing"
        );
        drop(db);
        let db = open();
        assert!(keys(&db).is_empty(), "never logged: undone");

        defer(&db, 1);
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        defer(&db, 3);
        db.checkpoint().unwrap();
        defer(&db, 4);
        drop(db);
        let db = open();
        assert_eq!(keys(&db), [Value::Int(1), Value::Int(2), Value::Int(3)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The on-disk format is frozen: a WAL and a snapshot whose checksums
    /// were stamped by the bit-at-a-time CRC (the implementation every
    /// existing file was written with) replay and open under the table
    /// version.
    #[test]
    fn files_checksummed_by_the_bitwise_oracle_open_cleanly() {
        let dir = std::env::temp_dir().join(format!("dpfs-meta-oracle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rows = |db: &Database| {
            db.execute("SELECT v FROM t WHERE k = 'b'")
                .unwrap()
                .scalar()
                .cloned()
        };

        // A WAL of committed work, never checkpointed.
        {
            let db = Database::open_with_sync(&dir, false).unwrap();
            db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v INT)")
                .unwrap();
            db.execute("INSERT INTO t VALUES ('a', 1)").unwrap();
            db.execute("INSERT INTO t VALUES ('b', 2)").unwrap();
        }
        let wal_path = dir.join(WAL_FILE);
        let mut wal = std::fs::read(&wal_path).unwrap();
        let (mut pos, mut records) = (0usize, 0);
        while pos < wal.len() {
            let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = crc32_bitwise(&wal[pos + 8..pos + 8 + len]);
            wal[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
            pos += 8 + len;
            records += 1;
        }
        assert!(
            records >= 9,
            "3 transactions of >= 3 records, got {records}"
        );
        std::fs::write(&wal_path, &wal).unwrap();
        {
            let db = Database::open_with_sync(&dir, false).unwrap();
            assert_eq!(rows(&db).unwrap(), Value::Int(2));
            db.checkpoint().unwrap();
        }

        // The snapshot that checkpoint wrote, re-stamped the same way.
        let snap_path = dir.join(SNAPSHOT_FILE);
        let mut snap = std::fs::read(&snap_path).unwrap();
        let body = snap.len() - 4;
        let crc = crc32_bitwise(&snap[..body]);
        snap[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&snap_path, &snap).unwrap();
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 0);
        let db = Database::open_with_sync(&dir, false).unwrap();
        assert_eq!(rows(&db).unwrap(), Value::Int(2));
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_statement_text_is_parsed_once_and_the_cache_is_bounded() {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
            .unwrap();
        let insert = "INSERT INTO t VALUES (?, ?)";
        let before = db.statement_cache_stats();
        for k in 0..10 {
            db.execute_with(insert, &[Value::Int(k), "v".into()])
                .unwrap();
        }
        // transactions share the database's cache
        db.transaction(|txn| txn.execute_with(insert, &[Value::Int(10), "v".into()]))
            .unwrap();
        let after = db.statement_cache_stats();
        assert_eq!(after.misses, before.misses + 1, "parsed on first use only");
        assert_eq!(after.hits, before.hits + 10);
        assert_eq!(after.entries, before.entries + 1);

        // Text that does not parse is not remembered.
        assert!(db.execute("SELEKT 1").is_err());
        assert_eq!(db.statement_cache_stats().entries, after.entries);

        // Ad-hoc SQL with inlined literals is a new text every time; the
        // cache stays bounded and the hot statement keeps working.
        for k in 0..4 * STATEMENT_CACHE_CAP as i64 {
            let rs = db
                .execute(&format!("SELECT v FROM t WHERE k = {}", k % 11))
                .unwrap();
            assert_eq!(rs.rows.len(), 1);
            let _ = db.execute(&format!("SELECT v FROM t WHERE k = {}", 1000 + k));
            assert!(db.statement_cache_stats().entries <= STATEMENT_CACHE_CAP);
        }
        db.execute_with(insert, &[Value::Int(11), "v".into()])
            .unwrap();
    }

    #[test]
    fn binding_the_wrong_number_or_type_of_parameters_is_an_error() {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
            .unwrap();
        let insert = "INSERT INTO t VALUES (?, ?)";
        db.execute_with(insert, &[Value::Int(1), "one".into()])
            .unwrap();
        // arity, both ways, also inside a transaction
        for params in [vec![], vec![Value::Int(2)], vec![Value::Int(2); 3]] {
            let err = db.execute_with(insert, &params).unwrap_err();
            assert!(matches!(err, MetaError::TypeError(_)), "{err}");
            assert!(db.transaction(|t| t.execute_with(insert, &params)).is_err());
        }
        assert!(db.execute_with("SELECT * FROM t", &[Value::Null]).is_err());
        // type: into a column, against an indexed key, into LIKE
        let err = db
            .execute_with(insert, &["two".into(), Value::Int(2)])
            .unwrap_err();
        assert!(matches!(err, MetaError::SchemaViolation(_)), "{err}");
        let by_key = "SELECT v FROM t WHERE k = ?";
        assert!(db.execute_with(by_key, &["1".into()]).is_err());
        assert!(db
            .execute_with("SELECT k FROM t WHERE v LIKE ?", &[Value::Int(1)])
            .is_err());
        // a pre-parsed statement has nothing bound: an error, not a panic
        let stmt = parser::parse(by_key).unwrap();
        assert!(db.execute_stmt(stmt).is_err());
        // none of the refusals left anything behind
        let rs = db.execute_with(by_key, &[Value::Int(1)]).unwrap();
        assert_eq!(rs.scalar().unwrap(), &Value::from("one"));
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
    }
}
