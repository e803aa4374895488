//! `dpfs-meta` — embedded SQL metadata database for DPFS.
//!
//! The DPFS paper (§5) keeps all file-system metadata in a relational
//! database (POSTGRES) accessed over SQL, arguing that SQL "saves
//! programming efforts" and that database transactions "help maintain
//! meta data consistency easily, especially in a distributed environment".
//!
//! This crate is the substrate standing in for POSTGRES: a small embedded
//! relational engine with
//!
//! - a SQL subset (`CREATE/DROP TABLE`, `CREATE INDEX`, `INSERT`, `SELECT`
//!   with `WHERE`/`ORDER BY`/`LIMIT`, aggregates and one inner join,
//!   `UPDATE`, `DELETE`, `EXPLAIN`, `BEGIN`/`COMMIT`/`ROLLBACK`),
//! - bound parameters (`?`) with each statement text parsed once,
//! - an access-path planner: a primary-key or secondary-index lookup where
//!   the `WHERE` clause pins an indexed column, a scan otherwise,
//! - typed columns including `INTLIST` for the paper's brick lists,
//! - write-ahead logging with CRC-protected records and crash recovery,
//! - snapshot checkpointing,
//! - atomic transactions with in-memory rollback,
//!
//! plus [`catalog::Catalog`], the typed facade over the paper's four DPFS
//! tables (Figure 10): `DPFS-SERVER`, `DPFS-FILE-DISTRIBUTION`,
//! `DPFS-DIRECTORY` and `DPFS-FILE-ATTR`.
//!
//! # Example
//!
//! ```
//! use dpfs_meta::db::Database;
//!
//! let db = Database::in_memory();
//! db.execute("CREATE TABLE servers (name TEXT PRIMARY KEY, perf INT)").unwrap();
//! db.execute("INSERT INTO servers VALUES ('ccn60.mcs.anl.gov', 1), ('aruba.ece.nwu.edu', 3)").unwrap();
//! let rs = db.execute("SELECT name FROM servers WHERE perf = 1").unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! // values travel beside the text, not in it
//! let rs = db
//!     .execute_with("SELECT perf FROM servers WHERE name = ?", &["aruba.ece.nwu.edu".into()])
//!     .unwrap();
//! assert_eq!(rs.scalar().unwrap().as_int().unwrap(), 3);
//! ```

#![deny(unsafe_code)]

pub mod catalog;
mod clmul;
pub mod codec;
pub mod db;
pub mod error;
pub mod schema;
pub mod shard;
pub mod sql;
pub mod store;
pub mod table;
pub mod value;
pub mod wal;

pub use catalog::{
    Catalog, DirEntry, Distribution, FileAttrRow, FileEntry, RenameIntent, ServerInfo,
};
pub use db::{Database, ResultSet};
pub use error::{MetaError, Result};
pub use shard::ShardMap;
pub use store::MetaStore;
pub use value::{DataType, Value};
