//! `dpfs-bench` — regenerates every figure of the paper's evaluation (§8).
//!
//! The evaluation has four figures and no tables:
//!
//! - **Figure 11** — file-level comparison, 8 compute nodes, 4 I/O nodes,
//!   per storage class: `cargo run -p dpfs-bench --release --bin figures 11`
//! - **Figure 12** — same, 16 compute nodes, 8 I/O nodes: `figures 12`
//! - **Figure 13** — striping-algorithm comparison (round-robin vs greedy)
//!   on half class-1 / half class-3 storage, 8/8: `figures 13`
//! - **Figure 14** — same, 16/16: `figures 14`
//!
//! `--bin figures` alone runs all four. Set `DPFS_BENCH_SCALE=quick` for a
//! fast smoke-scale run (CI); the default `full` scale reproduces the
//! paper's request-count ratios faithfully (scaled ~100× in wall-clock,
//! see `dpfs-server::perf`).

#![deny(unsafe_code)]

pub mod ablation;
pub mod figures;
pub mod report;
pub mod tracesum;

pub use figures::{file_level_figure, striping_figure, FigScale, LevelRow, StripingRow};
pub use report::{print_file_level_table, print_striping_table};
pub use tracesum::{summarize_jsonl, summarize_jsonl_requiring, TraceSummary};
