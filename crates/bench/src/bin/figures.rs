//! The four evaluation figures. `figures` runs all of them in order;
//! `figures 13` (or `figures 11 14`) runs the ones named.

use dpfs_bench::{
    file_level_figure, print_file_level_table, print_striping_table, striping_figure, FigScale,
};

fn main() {
    let scale = FigScale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() {
        vec!["11", "12", "13", "14"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for figure in wanted {
        match figure {
            "11" => print_file_level_table(
                "Figure 11: File Level Comparisons (8 compute nodes, 4 I/O nodes) — MB/s",
                &file_level_figure(8, 4, scale),
            ),
            "12" => print_file_level_table(
                "Figure 12: File Level Comparisons (16 compute nodes, 8 I/O nodes) — MB/s",
                &file_level_figure(16, 8, scale),
            ),
            "13" => print_striping_table(
                "Figure 13: Striping Algorithm Comparison (8/8, class1+class3) — MB/s",
                &striping_figure(8, 8, scale),
            ),
            "14" => print_striping_table(
                "Figure 14: Striping Algorithm Comparison (16/16, class1+class3) — MB/s",
                &striping_figure(16, 16, scale),
            ),
            other => {
                eprintln!(
                    "figures: no figure {other:?} (the paper's evaluation has 11, 12, 13, 14)"
                );
                std::process::exit(2);
            }
        }
    }
}
