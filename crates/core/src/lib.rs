//! `dpfs-core` — the DPFS client library: the paper's primary contribution.
//!
//! DPFS (Shen & Choudhary, ICPP 2001) is a Distributed Parallel File
//! System: it aggregates unused distributed storage into a striped parallel
//! file system. This crate implements the client side:
//!
//! - **Three file levels** ([`hints::FileLevel`], [`layout`]): linear
//!   striping, the novel *multidimensional* striping (N-d tile bricks), and
//!   *array* striping (whole HPF chunks) — paper §3.
//! - **Striping algorithms** ([`placement`]): round-robin and the
//!   heterogeneity-aware greedy algorithm (Figure 8/9) — paper §4.1.
//! - **Request combination** ([`plan`]): coalescing a client's bricks per
//!   server into single requests with a staggered schedule — paper §4.2.
//! - **Derived datatypes** ([`datatype`]): MPI-IO-style non-contiguous
//!   access — paper §6.
//! - **The DPFS API** ([`fs::Dpfs`], [`file::FileHandle`], and the
//!   paper-style wrappers in [`api`]).
//!
//! Metadata lives in the SQL database provided by `dpfs-meta` (paper §5);
//! data moves over the TCP protocol of `dpfs-proto` to `dpfs-server` I/O
//! nodes (paper §2). Every operation is traced end to end ([`trace`]):
//! client phase spans and server-side events share a per-operation trace
//! ID carried in v3 frames, and per-kind latency histograms accumulate in
//! [`TransportStats`].

#![deny(unsafe_code)]

pub mod api;
pub mod collective;
pub mod conn;
pub mod datatype;
pub mod error;
pub mod file;
pub mod fs;
pub mod fsck;
pub mod geometry;
pub mod hints;
pub mod layout;
pub mod meta_client;
pub mod placement;
pub mod plan;
pub mod retry;
pub mod trace;
pub mod transport;

pub use collective::{Collective, CollectiveGroup};
pub use conn::{ConnPool, Resolver};
pub use datatype::Datatype;
pub use error::{DpfsError, Result};
pub use file::{ClientOptions, ClientStats, FileHandle};
pub use fs::Dpfs;
pub use geometry::{Region, Shape};
pub use hints::{
    mirror_subfile, parity_subfile, primary_subfile, Dist, FileLevel, Hint, HpfPattern, Placement,
    RedundancyPolicy, Striping,
};
pub use layout::{ArrayLayout, BrickRun, Layout, LinearLayout, MultidimLayout};
pub use meta_client::MetaClient;
pub use placement::{greedy, round_robin, BrickMap};
pub use plan::Granularity;
pub use retry::RetryPolicy;
pub use transport::{Landing, Pending, Transport, TransportStats, DEFAULT_RPC_TIMEOUT};
