//! `dpfs-cluster` — the in-process DPFS testbed.
//!
//! Stands in for the paper's experimental platform (§8): an IBM SP2 at
//! Argonne whose compute nodes talk to workstation I/O servers in three
//! hardware classes. Here, compute nodes are OS threads each holding its own
//! DPFS client, and I/O servers are real [`dpfs_server::IoServer`]s on
//! localhost, each registered with its class's performance number; the
//! classes' cost model is evaluated over the requests the servers received
//! (`dpfs-bench`), the substitution argued in DESIGN.md.

#![deny(unsafe_code)]

pub mod faultproxy;
pub mod scrape;
pub mod testbed;
pub mod workload;

pub use faultproxy::{FaultProxy, Received};
pub use scrape::{scrape_cluster, UNREACHABLE};
pub use testbed::{metad_name, NodeSpec, Testbed, METAD_NAME};
pub use workload::run_clients;
