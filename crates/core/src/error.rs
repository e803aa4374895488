//! Error type for the DPFS client library.

use std::fmt;

use dpfs_meta::MetaError;
use dpfs_proto::{ErrorCode, FrameError};

/// Errors surfaced by the DPFS API.
#[derive(Debug)]
pub enum DpfsError {
    /// Metadata-database failure.
    Meta(MetaError),
    /// Wire-protocol failure talking to a server.
    Frame(FrameError),
    /// A server answered with a protocol-level error.
    Server { code: ErrorCode, message: String },
    /// Could not connect to a server.
    Connect {
        server: String,
        source: std::io::Error,
    },
    /// An RPC did not complete within its deadline. The connection is
    /// poisoned and will be redialed on next use.
    Timeout {
        server: String,
        timeout: std::time::Duration,
    },
    /// The transport connection died while requests were in flight; every
    /// pending waiter on that connection receives this error.
    Disconnected { server: String, reason: String },
    /// A server acknowledged a write with fewer (or more) bytes than the
    /// request carried.
    ShortWrite {
        server: String,
        expected: u64,
        written: u64,
    },
    /// A server answered a read with a payload whose length is not the sum
    /// of the request's ranges. The response is rejected before any byte
    /// lands in the caller's buffer — a hostile or buggy server must
    /// surface as an error, never as an out-of-bounds scatter copy.
    ShortRead {
        server: String,
        /// Bytes the ranges asked for.
        expected: u64,
        /// Bytes the server returned.
        got: u64,
    },
    /// Several per-server failures from one logical operation that must
    /// reach every server (e.g. `sync`).
    Aggregate {
        op: &'static str,
        failures: Vec<(String, DpfsError)>,
    },
    /// The named file does not exist.
    NoSuchFile(String),
    /// The named file already exists.
    FileExists(String),
    /// The named directory does not exist.
    NoSuchDirectory(String),
    /// Invalid argument (shape mismatch, out-of-bounds region, bad hint...).
    InvalidArgument(String),
    /// The operation is not valid for the file's level.
    WrongLevel {
        expected: &'static str,
        actual: String,
    },
    /// Local I/O error (import/export of sequential files).
    Io(std::io::Error),
}

impl fmt::Display for DpfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpfsError::Meta(e) => write!(f, "metadata error: {e}"),
            DpfsError::Frame(e) => write!(f, "protocol error: {e}"),
            DpfsError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            DpfsError::Connect { server, source } => {
                write!(f, "cannot connect to server {server}: {source}")
            }
            DpfsError::Timeout { server, timeout } => {
                write!(f, "rpc to server {server} timed out after {timeout:?}")
            }
            DpfsError::Disconnected { server, reason } => {
                write!(f, "connection to server {server} lost: {reason}")
            }
            DpfsError::ShortWrite {
                server,
                expected,
                written,
            } => {
                write!(
                    f,
                    "short write on server {server}: sent {expected} bytes, \
                     server acknowledged {written}"
                )
            }
            DpfsError::ShortRead {
                server,
                expected,
                got,
            } => {
                write!(
                    f,
                    "short read on server {server}: {got} bytes for {expected} requested"
                )
            }
            DpfsError::Aggregate { op, failures } => {
                write!(f, "{op} failed on {} server(s):", failures.len())?;
                for (server, err) in failures {
                    write!(f, " [{server}: {err}]")?;
                }
                Ok(())
            }
            DpfsError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            DpfsError::FileExists(p) => write!(f, "file exists: {p}"),
            DpfsError::NoSuchDirectory(p) => write!(f, "no such directory: {p}"),
            DpfsError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            DpfsError::WrongLevel { expected, actual } => {
                write!(f, "operation requires a {expected} file, found {actual}")
            }
            DpfsError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for DpfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DpfsError::Meta(e) => Some(e),
            DpfsError::Frame(e) => Some(e),
            DpfsError::Connect { source, .. } => Some(source),
            DpfsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MetaError> for DpfsError {
    fn from(e: MetaError) -> Self {
        match e {
            MetaError::InvalidName(m) | MetaError::InvalidArgument(m) => {
                DpfsError::InvalidArgument(m)
            }
            other => DpfsError::Meta(other),
        }
    }
}

impl From<FrameError> for DpfsError {
    fn from(e: FrameError) -> Self {
        DpfsError::Frame(e)
    }
}

impl From<std::io::Error> for DpfsError {
    fn from(e: std::io::Error) -> Self {
        DpfsError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DpfsError>;
