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
//!   `UPDATE`, `DELETE`, `EXPLAIN`),
//! - bound parameters (`?`) with each statement text parsed once,
//! - an access-path planner: a primary-key or secondary-index lookup where
//!   the `WHERE` clause pins an indexed column, a scan otherwise,
//! - typed columns including `INTLIST` for the paper's brick lists,
//! - write-ahead logging with CRC-protected records and crash recovery,
//! - snapshot checkpointing,
//! - atomic transactions with in-memory rollback: a transaction of several
//!   statements is a [`db::Database::transaction`] closure, and any other
//!   statement is a transaction of its own,
//!
//! plus [`catalog::Catalog`], the typed facade over the paper's four DPFS
//! tables (Figure 10): `DPFS-SERVER`, `DPFS-FILE-DISTRIBUTION`,
//! `DPFS-DIRECTORY` and `DPFS-FILE-ATTR`, with a directory's entries kept
//! as rows of their own (`dpfs_dirent`).
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
pub mod placement;
pub mod schema;
pub mod shard;
pub mod sql;
pub mod table;
pub mod value;
pub mod wal;

pub use catalog::{
    Audit, Catalog, DirEntry, Distribution, FileAttrRow, FileEntry, Issue, RenameIntent, ServerInfo,
};
pub use db::{Database, ResultSet};
pub use error::{MetaError, Result};
pub use shard::ShardMap;
pub use value::{DataType, Value};
