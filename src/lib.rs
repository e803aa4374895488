//! DPFS — a Distributed Parallel File System.
//!
//! Umbrella crate re-exporting the DPFS workspace. See [`dpfs_core`] for the
//! client library (the paper's primary contribution), [`dpfs_server`] for the
//! I/O node server, [`dpfs_meta`] for the embedded SQL metadata database,
//! [`dpfs_shell`] for the user interface, and [`dpfs_cluster`] for the
//! in-process testbed harness.

#![deny(unsafe_code)]

pub use dpfs_cluster as cluster;
pub use dpfs_core as core;
pub use dpfs_meta as meta;
pub use dpfs_metad as metad;
pub use dpfs_proto as proto;
pub use dpfs_server as server;
pub use dpfs_shell as shell;
