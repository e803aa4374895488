//! Error type for the metadata engine.

use std::fmt;

/// Errors produced by the embedded metadata database.
#[derive(Debug)]
pub enum MetaError {
    /// Lexical error in a SQL string (bad character, unterminated literal).
    Lex(String),
    /// Syntax error while parsing SQL.
    Parse(String),
    /// The named table does not exist.
    NoSuchTable(String),
    /// The named column does not exist in the table it was looked up in.
    NoSuchColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A row violates the table schema (arity or type mismatch).
    SchemaViolation(String),
    /// Uniqueness violation on the primary-key column.
    DuplicateKey(String),
    /// Type error while evaluating an expression.
    TypeError(String),
    /// Error in the write-ahead log or snapshot files (corruption, short read).
    Storage(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Transaction misuse (commit without begin, nested begin, ...).
    Txn(String),
    /// A remote metadata server failed to answer (transport-level failure
    /// surfaced through a networked `MetaStore` backend).
    Remote(String),
    /// A path that cannot name a file or directory: relative, holding a
    /// control character, or shaped like a derived subfile name.
    InvalidName(String),
}

impl MetaError {
    /// Stable wire code for this error's variant, used by the metadata RPC
    /// layer to carry errors across the network and reconstruct the same
    /// variant on the client (`from_wire`).
    pub fn wire_code(&self) -> u8 {
        match self {
            MetaError::Lex(_) => 1,
            MetaError::Parse(_) => 2,
            MetaError::NoSuchTable(_) => 3,
            MetaError::NoSuchColumn(_) => 4,
            MetaError::TableExists(_) => 5,
            MetaError::SchemaViolation(_) => 6,
            MetaError::DuplicateKey(_) => 7,
            MetaError::TypeError(_) => 8,
            MetaError::Storage(_) => 9,
            MetaError::Io(_) => 10,
            MetaError::Txn(_) => 11,
            MetaError::Remote(_) => 12,
            MetaError::InvalidName(_) => 13,
        }
    }

    /// Rebuild an error from its wire code + message. Unknown codes land in
    /// [`MetaError::Remote`] so future variants degrade gracefully.
    pub fn from_wire(code: u8, message: String) -> MetaError {
        match code {
            1 => MetaError::Lex(message),
            2 => MetaError::Parse(message),
            3 => MetaError::NoSuchTable(message),
            4 => MetaError::NoSuchColumn(message),
            5 => MetaError::TableExists(message),
            6 => MetaError::SchemaViolation(message),
            7 => MetaError::DuplicateKey(message),
            8 => MetaError::TypeError(message),
            9 => MetaError::Storage(message),
            10 => MetaError::Io(std::io::Error::other(message)),
            11 => MetaError::Txn(message),
            13 => MetaError::InvalidName(message),
            _ => MetaError::Remote(message),
        }
    }
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::Lex(m) => write!(f, "lex error: {m}"),
            MetaError::Parse(m) => write!(f, "parse error: {m}"),
            MetaError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            MetaError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            MetaError::TableExists(t) => write!(f, "table already exists: {t}"),
            MetaError::SchemaViolation(m) => write!(f, "schema violation: {m}"),
            MetaError::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            MetaError::TypeError(m) => write!(f, "type error: {m}"),
            MetaError::Storage(m) => write!(f, "storage error: {m}"),
            MetaError::Io(e) => write!(f, "io error: {e}"),
            MetaError::Txn(m) => write!(f, "transaction error: {m}"),
            MetaError::Remote(m) => write!(f, "remote metadata error: {m}"),
            MetaError::InvalidName(m) => write!(f, "invalid name: {m}"),
        }
    }
}

impl std::error::Error for MetaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MetaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MetaError {
    fn from(e: std::io::Error) -> Self {
        MetaError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MetaError>;
