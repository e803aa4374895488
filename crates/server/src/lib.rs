//! `dpfs-server` — the DPFS I/O-node server.
//!
//! One server runs on each storage resource (paper §2). It listens on
//! TCP — a fixed set of readiness-driven I/O shards plus a shared worker
//! pool, so thread count is independent of connection count (see
//! [`service`]) — and services scatter/gather read/write requests against
//! *subfiles* — local files, one per DPFS file, holding the bricks this
//! server owns. Building on the local file system means DPFS inherits its
//! caching and prefetching for free (paper §2, footnote 1).
//!
//! The [`perf`] module provides the calibrated storage-class delay model
//! that stands in for the paper's heterogeneous 2001 testbed (classes 1-3);
//! see DESIGN.md for the substitution argument.
//!
//! # Example
//!
//! ```no_run
//! use dpfs_server::{IoServer, ServerConfig, PerfModel};
//!
//! let server = IoServer::start(ServerConfig::new(
//!     "aruba.ece.nwu.edu",
//!     "/tmp/dpfs-aruba",
//!     PerfModel::unthrottled(),
//! )).unwrap();
//! println!("serving on {}", server.addr());
//! ```

#![deny(unsafe_code)]

pub mod handler;
pub mod perf;
pub mod server;
pub mod service;
pub mod stats;
pub mod subfile;
mod sys;

pub use dpfs_obs::HistSnapshot;
pub use handler::Handler;
pub use perf::{PerfModel, StorageClass};
pub use server::{IoServer, ServerConfig};
pub use service::{ServeConfig, ServeCore, Service};
pub use stats::{ServerStats, StatsSnapshot};
pub use subfile::{StoreError, SubfileStore};
