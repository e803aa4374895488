//! Ablation studies: brick size, read granularity, staggered schedule,
//! I/O-node scaling. Not paper figures — these probe the design choices
//! DESIGN.md calls out. (Rows 5–9 compared code paths or metadata modes
//! that no longer exist; their last numbers are frozen in EXPERIMENTS.md.)
//! Every row is computed, so the output is the same on every run.
//!
//! `--quick` forces the small workload scale, so CI can run the real
//! binary end to end as a smoke test.

use dpfs_bench::ablation::*;
use dpfs_bench::FigScale;
use dpfs_core::trace::{export_jsonl_to, ring};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        FigScale::Quick
    } else {
        FigScale::from_env()
    };
    // Scope the trace export to this run's events.
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
