//! Ablation studies on DPFS design choices beyond the paper's figures:
//! brick-size sweep, read granularity (brick vs exact), the staggered
//! schedule and I/O-node scaling — computed by the class-3 cost model over
//! the requests the servers received ([`crate::model`]).

use dpfs_cluster::{run_clients, Testbed};
use dpfs_core::{Granularity, Hint, Region, Shape};
use dpfs_server::StorageClass;

use crate::figures::FigScale;
use crate::model::{Recorded, Rig};

/// One `(label, value)` data point.
pub type Point = (String, f64);

/// Computed MB/s of `recorded` on class-3 servers.
fn class3(recorded: &Recorded) -> f64 {
    recorded.mbytes_per_sec(&vec![StorageClass::Class3.model(); recorded.servers.len()])
}

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
        let tb = Testbed::unthrottled(4).unwrap();
        let client0 = tb.client(0, true);
        client0
            .create("/sweep", &Hint::linear(brick, file_bytes))
            .unwrap();
        run_clients(&tb, clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/sweep").unwrap();
            f.write_bytes(rank as u64 * block, &vec![rank as u8; block as usize])
                .unwrap();
        });
        let rig = Rig::new(tb);
        let read = rig.record(clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/sweep").unwrap();
            let data = f.read_bytes(rank as u64 * block, block).unwrap();
            assert_eq!(data, vec![rank as u8; block as usize]);
            (block, f.last_trace_id())
        });
        out.push((format!("brick={brick}B"), class3(&read)));
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
        let tb = Testbed::unthrottled(4).unwrap();
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
        let rig = Rig::new(tb);
        let read = rig.record(clients, true, granularity, |rank, c| {
            let mut f = c.open("/g").unwrap();
            let dt = dpfs_core::Datatype::subarray(
                shape.clone(),
                Region::new(vec![0, rank as u64 * cols], vec![n, cols]).unwrap(),
                1,
            )
            .unwrap();
            let data = f.read_datatype(0, &dt).unwrap();
            assert!(data.iter().all(|&b| b == 7));
            (data.len() as u64, f.last_trace_id())
        });
        out.push((label.to_string(), class3(&read)));
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
        let tb = Testbed::unthrottled(8).unwrap();
        let client0 = tb.client(0, true);
        client0
            .create("/st", &Hint::linear(file_bytes / 256, file_bytes))
            .unwrap();
        run_clients(&tb, clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/st").unwrap();
            f.write_bytes(rank as u64 * block, &vec![1u8; block as usize])
                .unwrap();
        });
        let rig = Rig::new(tb);
        let read = rig.record(clients, true, Granularity::Brick, |rank, staggered| {
            // A convoy client plans as rank 0 does: it starts at server 0.
            let convoy = (!stagger).then(|| rig.tb.client(0, true));
            let mut f = convoy.as_ref().unwrap_or(staggered).open("/st").unwrap();
            let data = f.read_bytes(rank as u64 * block, block).unwrap();
            assert_eq!(data, vec![1u8; block as usize]);
            (block, f.last_trace_id())
        });
        out.push((label.to_string(), class3(&read)));
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
        let tb = Testbed::unthrottled(servers).unwrap();
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
        });
        let cols = n / clients as u64;
        let rig = Rig::new(tb);
        let read = rig.record(clients, true, Granularity::Brick, |rank, c| {
            let mut f = c.open("/scale").unwrap();
            let region = Region::new(vec![0, rank as u64 * cols], vec![n, cols]).unwrap();
            let data = f.read_region(&region).unwrap();
            assert!(data.iter().all(|&b| b == 3));
            (data.len() as u64, f.last_trace_id())
        });
        out.push((format!("{servers} server(s)"), class3(&read)));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_ablation_runs() {
        let pts = granularity_ablation(FigScale::Quick);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|(_, v)| *v > 0.0));
    }
}
