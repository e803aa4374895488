//! Ablation studies: brick size, read granularity, staggered schedule,
//! I/O-node scaling, metadata placement. Not paper figures — these probe
//! the design choices DESIGN.md calls out. (Rows 5, 6, 7 and 9 compared
//! code paths that no longer exist; their last numbers are frozen in
//! EXPERIMENTS.md.)
//!
//! `--quick` forces the small workload scale, so CI can run the real
//! binary end to end as a smoke test.

use dpfs_bench::ablation::*;
use dpfs_bench::{FigScale, TraceSummary};
use dpfs_core::trace::{export_jsonl_to, ring};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        FigScale::Quick
    } else {
        FigScale::from_env()
    };
    // Scope trace export and the phase table to this run's events.
    let trace_cursor = ring().cursor();

    print_points(
        "Ablation 1: linear brick-size sweep (8 clients, 4 class-3 servers, combined)",
        &brick_size_sweep(scale),
    );
    print_points(
        "Ablation 2: read granularity on (*, BLOCK) over a linear file",
        &granularity_ablation(scale),
    );
    print_points(
        "Ablation 3: staggered schedule vs convoy (8 clients, 8 servers)",
        &stagger_ablation(scale),
    );
    print_points(
        "Ablation 4: I/O-node scaling (8 clients, multidim (*, BLOCK) read)",
        &io_node_scaling(scale),
    );
    print_ops_points(
        "Ablation 8: metadata placement on an open/stat-heavy workload",
        &metadata_ablation(scale),
    );

    // Per-phase latency table from the spans the run just recorded. The
    // global ring keeps the last 65536 events, so at full scale this is
    // the tail of the run, not the whole of it.
    let events = ring().events_since(trace_cursor);
    let mut summary = TraceSummary::new();
    summary.add_events(&events);
    println!(
        "Phase latency summary ({} traced spans retained):",
        events.len()
    );
    print!("{}", summary.render());
    println!();

    if let Some(path) = std::env::var_os("DPFS_TRACE_OUT") {
        let path = std::path::PathBuf::from(path);
        match export_jsonl_to(&path, trace_cursor) {
            Ok(n) => println!("exported {n} trace events to {}", path.display()),
            Err(e) => {
                eprintln!("ablation: trace export to {} failed: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
