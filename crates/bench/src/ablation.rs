//! Ablation studies on DPFS design choices beyond the paper's figures:
//! brick-size sweep, read granularity (brick vs exact), the staggered
//! schedule, I/O-node scaling, and metadata placement.

use std::sync::Barrier;
use std::time::Instant;

use dpfs_cluster::{run_clients, Testbed};
use dpfs_core::{Granularity, Hint, Region, Shape};
use dpfs_server::StorageClass;

use crate::figures::FigScale;

/// One `(label, mbytes_per_sec)` data point.
pub type Point = (String, f64);

/// Brick-size sweep: contiguous block-per-client read over a linear file,
/// combined requests, class-3 storage. Small bricks drown in per-request
/// and per-seek overhead; huge bricks lose parallelism (fewer bricks than
/// servers).
pub fn brick_size_sweep(scale: FigScale) -> Vec<Point> {
    let n = scale.array_side();
    let file_bytes = n * n / 2;
    let clients = 8;
    let block = file_bytes / clients as u64;
    let mut out = Vec::new();
    for brick in [
        file_bytes / 2048,
        file_bytes / 512,
        file_bytes / 128,
        file_bytes / 32,
        file_bytes / 8,
    ] {
        let tb = Testbed::homogeneous(4, StorageClass::Class3).unwrap();
        let client0 = tb.client(0, true);
        client0
            .create("/sweep", &Hint::linear(brick, file_bytes))
            .unwrap();
        run_clients(&tb, clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/sweep").unwrap();
            f.write_bytes(rank as u64 * block, &vec![rank as u8; block as usize])
                .unwrap();
            block
        });
        let bw = run_clients(&tb, clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/sweep").unwrap();
            f.read_bytes(rank as u64 * block, block).unwrap();
            block
        });
        out.push((format!("brick={brick}B"), bw.mbytes_per_sec()));
    }
    out
}

/// Granularity ablation: `(*, BLOCK)` read on a *linear* file where whole
/// bricks are mostly waste. Exact ranges (data-sieving style) trade
/// request count for useful-byte efficiency.
pub fn granularity_ablation(scale: FigScale) -> Vec<Point> {
    let n = scale.array_side();
    let mut out = Vec::new();
    for (label, granularity) in [
        ("brick-granularity", Granularity::Brick),
        ("exact-ranges", Granularity::Exact),
    ] {
        let tb = Testbed::homogeneous(4, StorageClass::Class3).unwrap();
        let client0 = tb.client(0, true);
        client0.create("/g", &Hint::linear(n, n * n)).unwrap();
        {
            let mut f = client0.open("/g").unwrap();
            // fill in row bands to keep setup fast
            let band = vec![7u8; (n * n / 8) as usize];
            for i in 0..8 {
                f.write_bytes(i * n * n / 8, &band).unwrap();
            }
        }
        let clients = 8;
        let cols = n / clients as u64;
        let shape = Shape::new(vec![n, n]).unwrap();
        let bw = run_clients(&tb, clients, true, granularity, |rank, c| {
            let mut f = c.open("/g").unwrap();
            let dt = dpfs_core::Datatype::subarray(
                shape.clone(),
                Region::new(vec![0, rank as u64 * cols], vec![n, cols]).unwrap(),
                1,
            )
            .unwrap();
            f.read_datatype(0, &dt).unwrap().len() as u64
        });
        out.push((label.to_string(), bw.mbytes_per_sec()));
    }
    out
}

/// Staggered-schedule ablation: combined reads with the paper's staggered
/// start (client k begins at server k) vs every client starting at server
/// 0 (convoy).
pub fn stagger_ablation(scale: FigScale) -> Vec<Point> {
    let n = scale.array_side();
    let file_bytes = n * n / 2;
    let clients = 8usize;
    let block = file_bytes / clients as u64;
    let mut out = Vec::new();
    for (label, stagger) in [
        ("staggered", true),
        ("convoy (all start at server 0)", false),
    ] {
        let tb = Testbed::homogeneous(8, StorageClass::Class3).unwrap();
        let client0 = tb.client(0, true);
        client0
            .create("/st", &Hint::linear(file_bytes / 256, file_bytes))
            .unwrap();
        run_clients(&tb, clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/st").unwrap();
            f.write_bytes(rank as u64 * block, &vec![1u8; block as usize])
                .unwrap();
            block
        });
        // manual client pool so we control the rank used for staggering
        let barrier = Barrier::new(clients + 1);
        let mut elapsed = std::time::Duration::ZERO;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for rank in 0..clients {
                let effective_rank = if stagger { rank } else { 0 };
                let client = tb.client_with(effective_rank, true, Granularity::Brick);
                let barrier = &barrier;
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    let mut f = client.open("/st").unwrap();
                    f.read_bytes(rank as u64 * block, block).unwrap();
                }));
            }
            barrier.wait();
            let start = Instant::now();
            for h in handles {
                h.join().unwrap();
            }
            elapsed = start.elapsed();
        });
        let mbps = (block * clients as u64) as f64 / 1e6 / elapsed.as_secs_f64();
        out.push((label.to_string(), mbps));
    }
    out
}

/// I/O-node scaling: `(*, BLOCK)` multidim read bandwidth as servers
/// double, fixed 8 clients.
pub fn io_node_scaling(scale: FigScale) -> Vec<Point> {
    let n = scale.array_side();
    let md = scale.md_brick_side();
    let shape = Shape::new(vec![n, n]).unwrap();
    let mut out = Vec::new();
    for servers in [1usize, 2, 4, 8] {
        let tb = Testbed::homogeneous(servers, StorageClass::Class3).unwrap();
        let client0 = tb.client(0, true);
        client0
            .create(
                "/scale",
                &Hint::multidim(shape.clone(), Shape::new(vec![md, md]).unwrap(), 1),
            )
            .unwrap();
        let clients = 8;
        let rows = n / clients as u64;
        run_clients(&tb, clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/scale").unwrap();
            let region = Region::new(vec![rank as u64 * rows, 0], vec![rows, n]).unwrap();
            f.write_region(&region, &vec![3u8; (rows * n) as usize])
                .unwrap();
            rows * n
        });
        let cols = n / clients as u64;
        let bw = run_clients(&tb, clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/scale").unwrap();
            let region = Region::new(vec![0, rank as u64 * cols], vec![n, cols]).unwrap();
            f.read_region(&region).unwrap().len() as u64
        });
        out.push((format!("{servers} server(s)"), bw.mbytes_per_sec()));
    }
    out
}

/// Metadata-service ablation: an open/stat-heavy workload (tiny files, no
/// meaningful data transfer) against (a) the embedded in-process catalog
/// and (b) a networked `dpfs-metad` — every open costs an attr and a
/// distribution RPC, every stat an attr RPC. (A third row, the remote
/// mount behind a client-side metadata cache, is frozen in EXPERIMENTS.md
/// "Stateless metadata client".) Reported in metadata operations per
/// second.
pub fn metadata_ablation(scale: FigScale) -> Vec<Point> {
    let files = match scale {
        FigScale::Full => 24usize,
        FigScale::Quick => 6,
    };
    let rounds = match scale {
        FigScale::Full => 40u64,
        FigScale::Quick => 12,
    };
    let stats_per_open = 8u64;
    let mut out = Vec::new();
    for (label, remote) in [
        ("embedded catalog (in-process)", false),
        ("remote metad", true),
    ] {
        let tb = if remote {
            Testbed::unthrottled_with_metad(2).unwrap()
        } else {
            Testbed::unthrottled(2).unwrap()
        };
        let client = if remote {
            tb.remote_client(0, true)
        } else {
            tb.client(0, true)
        };
        for i in 0..files {
            let mut f = client
                .create(&format!("/m{i}"), &Hint::linear(4096, 4096))
                .unwrap();
            f.write_bytes(0, &[1u8; 64]).unwrap();
            f.close().unwrap();
        }
        let start = Instant::now();
        let mut ops = 0u64;
        for _ in 0..rounds {
            for i in 0..files {
                let path = format!("/m{i}");
                client.open(&path).unwrap();
                for _ in 0..stats_per_open {
                    client.stat(&path).unwrap();
                }
                ops += 1 + stats_per_open;
            }
        }
        let per_sec = ops as f64 / start.elapsed().as_secs_f64();
        out.push((label.to_string(), per_sec));
    }
    out
}

/// Render a list of points as an aligned table.
pub fn print_points(title: &str, points: &[Point]) {
    println!("{title}");
    let width = points.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, mbps) in points {
        println!("  {label:<width$}  {mbps:>8.2} MB/s");
    }
    println!();
}

/// Render a list of points whose values are operations per second.
pub fn print_ops_points(title: &str, points: &[Point]) {
    println!("{title}");
    let width = points.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, ops) in points {
        println!("  {label:<width$}  {ops:>10.0} ops/s");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_ablation_runs() {
        let pts = granularity_ablation(FigScale::Quick);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|(_, v)| *v > 0.0));
    }

    #[test]
    fn metadata_ablation_runs() {
        let pts = metadata_ablation(FigScale::Quick);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|(_, v)| *v > 0.0));
    }
}
