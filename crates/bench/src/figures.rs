//! Workloads reproducing the paper's Figures 11–14, their bandwidths
//! computed by the storage-class cost model over the requests the servers
//! received ([`crate::model`]).

use dpfs_cluster::{run_clients, Testbed};
use dpfs_core::{Granularity, Hint, HpfPattern, Placement, Region, Shape};
use dpfs_server::StorageClass;

use crate::model::{Recorded, Rig};

/// Workload scale. `Full` mirrors the paper's request-count structure
/// (thousands of linear bricks); `Quick` shrinks everything for smoke
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigScale {
    Full,
    Quick,
}

impl FigScale {
    /// Read from `DPFS_BENCH_SCALE` (`quick` ⇒ Quick, anything else Full).
    pub fn from_env() -> FigScale {
        match std::env::var("DPFS_BENCH_SCALE").as_deref() {
            Ok("quick") => FigScale::Quick,
            _ => FigScale::Full,
        }
    }

    /// Array side length `n` (the paper's 32K×32K array, scaled).
    pub fn array_side(self) -> u64 {
        match self {
            FigScale::Full => 2048,
            FigScale::Quick => 256,
        }
    }

    /// Multidim brick side (the paper's 256×256 striping unit, scaled).
    pub fn md_brick_side(self) -> u64 {
        match self {
            FigScale::Full => 64,
            FigScale::Quick => 32,
        }
    }
}

/// One row of the Figure 11/12 table: computed bandwidth in MB/s per
/// configuration for one storage class.
#[derive(Debug, Clone)]
pub struct LevelRow {
    pub class: StorageClass,
    pub linear: f64,
    pub combined_linear: f64,
    pub multidim: f64,
    pub combined_multidim: f64,
    pub array: f64,
    pub combined_array: f64,
}

/// One row of the Figure 13/14 table.
#[derive(Debug, Clone)]
pub struct StripingRow {
    pub algorithm: &'static str,
    pub write: f64,
    pub combined_write: f64,
    pub read: f64,
    pub combined_read: f64,
}

/// Populate a file of `level` for the figure workload and return its path.
///
/// The data file is an `n×n` byte array (the paper's 32K×32K array). For
/// linear and multidim levels the writers fill row bands (the natural
/// generation order, `(BLOCK, *)`); for the array level the file is
/// chunked `(*, BLOCK(compute))` per the user's hint, each writer dumping
/// its own chunk.
fn create_level_file(
    tb: &Testbed,
    level: &str,
    compute: usize,
    scale: FigScale,
    combine: bool,
) -> String {
    let n = scale.array_side();
    let path = format!("/fig/{level}");
    let shape = Shape::new(vec![n, n]).unwrap();
    let hint = match level {
        "linear" => Hint::linear(n, n * n), // brick = one row of bytes
        "multidim" => Hint::multidim(
            shape.clone(),
            Shape::new(vec![scale.md_brick_side(), scale.md_brick_side()]).unwrap(),
            1,
        ),
        "array" => Hint::array(shape.clone(), HpfPattern::star_block(compute as u64, 2), 1),
        other => panic!("unknown level {other}"),
    };
    let creator = tb.client(0, combine);
    if !creator.dir_exists("/fig").unwrap() {
        creator.mkdir("/fig").unwrap();
    }
    if creator.exists(&path).unwrap() {
        creator.unlink(&path).unwrap();
    }
    creator.create(&path, &hint).unwrap();

    // parallel write
    let rows_per = n / compute as u64;
    run_clients(tb, compute, combine, Granularity::Brick, |rank, client| {
        let mut f = client.open(&path).unwrap();
        let data = vec![(rank % 251) as u8; (rows_per * n) as usize];
        match level {
            "linear" => {
                f.write_bytes(rank as u64 * rows_per * n, &data).unwrap();
            }
            "multidim" => {
                let region =
                    Region::new(vec![rank as u64 * rows_per, 0], vec![rows_per, n]).unwrap();
                f.write_region(&region, &data).unwrap();
            }
            "array" => {
                // checkpoint dump: each processor writes its own chunk
                let chunk = f.chunk_region(rank as u64).unwrap();
                let data = vec![(rank % 251) as u8; (chunk.volume()) as usize];
                f.write_chunk(rank as u64, &data).unwrap();
            }
            _ => unreachable!(),
        }
    });
    path
}

/// Record the `(*, BLOCK)` read of the populated file: rank `r` reads
/// column band `r`.
fn record_star_block_read(
    rig: &Rig,
    path: &str,
    level: &str,
    compute: usize,
    scale: FigScale,
    combine: bool,
) -> Recorded {
    let n = scale.array_side();
    let cols_per = n / compute as u64;
    rig.record(compute, combine, Granularity::Brick, |rank, client| {
        let mut f = client.open(path).unwrap();
        let data = match level {
            // a column band of a row-major byte array: one run per row
            "linear" => {
                let dt = dpfs_core::Datatype::subarray(
                    Shape::new(vec![n, n]).unwrap(),
                    Region::new(vec![0, rank as u64 * cols_per], vec![n, cols_per]).unwrap(),
                    1,
                )
                .unwrap();
                f.read_datatype(0, &dt).unwrap()
            }
            "multidim" | "array" => {
                let region =
                    Region::new(vec![0, rank as u64 * cols_per], vec![n, cols_per]).unwrap();
                f.read_region(&region).unwrap()
            }
            _ => unreachable!(),
        };
        (data.len() as u64, f.last_trace_id())
    })
}

/// Figure 11/12: file-level comparison, one row per storage class. A
/// homogeneous testbed sends the same requests whatever its class, so each
/// configuration runs once and is evaluated under each class's model.
pub fn file_level_figure(compute: usize, io: usize, scale: FigScale) -> Vec<LevelRow> {
    let recorded: Vec<Recorded> = [
        ("linear", false),
        ("linear", true),
        ("multidim", false),
        ("multidim", true),
        ("array", false),
        ("array", true),
    ]
    .into_iter()
    .map(|(level, combine)| {
        let tb = Testbed::unthrottled(io).unwrap();
        let path = create_level_file(&tb, level, compute, scale, true);
        record_star_block_read(&Rig::new(tb), &path, level, compute, scale, combine)
    })
    .collect();
    [
        StorageClass::Class1,
        StorageClass::Class2,
        StorageClass::Class3,
    ]
    .into_iter()
    .map(|class| {
        let v: Vec<f64> = recorded
            .iter()
            .map(|r| r.mbytes_per_sec(&vec![class.model(); io]))
            .collect();
        LevelRow {
            class,
            linear: v[0],
            combined_linear: v[1],
            multidim: v[2],
            combined_multidim: v[3],
            array: v[4],
            combined_array: v[5],
        }
    })
    .collect()
}

/// Figure 13/14 workload: linear-level file over half class-1 / half
/// class-3 storage; each client writes then reads a contiguous block.
pub fn striping_figure(compute: usize, io: usize, scale: FigScale) -> Vec<StripingRow> {
    let n = scale.array_side();
    let file_bytes = n * n; // same volume as the level figure
    let brick = n * 2; // paper-style fine-grained linear bricks
    let block = file_bytes / compute as u64;

    let mut rows = Vec::new();
    for (algorithm, placement) in [
        ("round-robin", Placement::RoundRobin),
        ("greedy", Placement::Greedy),
    ] {
        let mut vals = [0f64; 4]; // write, comb write, read, comb read
        for (i, combine) in [false, true].into_iter().enumerate() {
            let tb = Testbed::mixed(io, &[StorageClass::Class1, StorageClass::Class3]).unwrap();
            let rig = Rig::new(tb);
            let path = "/fig/stripe";
            let client0 = rig.tb.client(0, combine);
            client0.mkdir("/fig").unwrap();
            let hint = Hint::linear(brick, file_bytes).with_placement(placement);
            client0.create(path, &hint).unwrap();

            let write = rig.record(compute, combine, Granularity::Brick, |rank, client| {
                let mut f = client.open(path).unwrap();
                let data = vec![rank as u8; block as usize];
                f.write_bytes(rank as u64 * block, &data).unwrap();
                (block, f.last_trace_id())
            });
            let read = rig.record(compute, combine, Granularity::Brick, |rank, client| {
                let mut f = client.open(path).unwrap();
                let data = f.read_bytes(rank as u64 * block, block).unwrap();
                assert_eq!(data, vec![rank as u8; block as usize]);
                (data.len() as u64, f.last_trace_id())
            });
            let models: Vec<_> = rig.tb.specs().iter().map(|s| s.class.model()).collect();
            vals[i] = write.mbytes_per_sec(&models);
            vals[i + 2] = read.mbytes_per_sec(&models);
        }
        rows.push(StripingRow {
            algorithm,
            write: vals[0],
            combined_write: vals[1],
            read: vals[2],
            combined_read: vals[3],
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quick-scale Figure 11 on 4 clients and 2 servers. Computed, so the
    /// orderings hold exactly: multidim beats linear and array beats
    /// multidim on every class; combining requests helps linear, and a
    /// multidim or array read is bound by the device, which combining does
    /// not shorten (multidim's two sides differ only in how the per-request
    /// device times round to nanoseconds); class 1 beats class 3 beats
    /// class 2 in every column.
    #[test]
    fn quick_scale_level_shape() {
        let rows = file_level_figure(4, 2, FigScale::Quick);
        for r in &rows {
            assert!(r.multidim > r.linear, "{r:?}");
            assert!(r.array > r.multidim, "{r:?}");
            assert!(r.combined_linear > r.linear, "{r:?}");
            assert!(
                (r.combined_multidim / r.multidim - 1.0).abs() < 1e-5,
                "{r:?}"
            );
            assert_eq!(r.combined_array, r.array, "{r:?}");
        }
        let [c1, c2, c3] = &rows[..] else {
            panic!("three classes: {rows:?}");
        };
        let columns = |r: &LevelRow| {
            [
                r.linear,
                r.combined_linear,
                r.multidim,
                r.combined_multidim,
                r.array,
                r.combined_array,
            ]
        };
        for ((one, two), three) in columns(c1).into_iter().zip(columns(c2)).zip(columns(c3)) {
            assert!(one > three && three > two, "{rows:?}");
        }
    }

    #[test]
    fn quick_scale_striping_runs() {
        let [rr, greedy] = &striping_figure(4, 4, FigScale::Quick)[..] else {
            panic!("two rows");
        };
        assert!(greedy.write > rr.write, "{greedy:?} vs {rr:?}");
        assert!(greedy.combined_write > rr.combined_write);
        assert!(greedy.read > rr.read);
        assert!(greedy.combined_read > rr.combined_read);
    }
}
