//! Microbenchmarks: layout math (region -> brick runs) for the three file
//! levels, and planning the runs into per-server requests. These are the
//! client-side CPU costs of the striping methods.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpfs_core::file::datatype_runs;
use dpfs_core::plan::{plan_list, Granularity};
use dpfs_core::{
    round_robin, ArrayLayout, BrickMap, Datatype, HpfPattern, Layout, LinearLayout, MultidimLayout,
    Region, Shape,
};

fn bench_layouts(c: &mut Criterion) {
    let shape = Shape::new(vec![2048, 2048]).unwrap();

    let lin = LinearLayout::new(2048, 2048 * 2048).unwrap();
    c.bench_function("linear_map_column_band", |b| {
        b.iter(|| {
            // 2048 strided row segments
            let mut total = 0u64;
            for row in 0..2048u64 {
                for r in lin.map_bytes(black_box(row * 2048), 256, 0) {
                    total += r.len;
                }
            }
            total
        })
    });

    let md = MultidimLayout::new(shape.clone(), Shape::new(vec![64, 64]).unwrap(), 1).unwrap();
    let col_band = Region::new(vec![0, 0], vec![2048, 256]).unwrap();
    c.bench_function("multidim_map_column_band", |b| {
        b.iter(|| md.map_region(black_box(&col_band)).unwrap().len())
    });

    let ar = ArrayLayout::new(shape, HpfPattern::star_block(8, 2), 1).unwrap();
    c.bench_function("array_map_chunk", |b| {
        b.iter(|| {
            ar.map_region(black_box(&ar.chunk_region(3).unwrap()))
                .unwrap()
                .len()
        })
    });
}

/// The two range-count-bound accesses of the repository benchmark
/// (`examples/benchmark`): `array_read`'s 4096x512 block of a 4096x4096
/// array in 256x256 bricks (8192 row segments) and `strided_read`'s
/// 4096 x 64 B vector over one-row bricks — mapped, then planned over 4
/// servers.
fn bench_benchmark_accesses(c: &mut Criterion) {
    let dim = 4096u64;
    let round_robin_over_4 =
        |layout: &Layout| BrickMap::from_assignment(round_robin(layout.num_bricks(), 4), 4);

    let md = MultidimLayout::new(
        Shape::new(vec![dim, dim]).unwrap(),
        Shape::new(vec![256, 256]).unwrap(),
        1,
    )
    .unwrap();
    let block = Region::new(vec![0, 512], vec![dim, 512]).unwrap();
    c.bench_function("multidim_map_block_4096x512", |b| {
        b.iter(|| md.map_region(black_box(&block)).unwrap().len())
    });
    let runs = md.map_region(&block).unwrap();
    let layout = Layout::Multidim(md);
    let map = round_robin_over_4(&layout);
    c.bench_function("plan_list_brick_8192", |b| {
        b.iter(|| {
            plan_list(black_box(&runs), &map, &layout, Granularity::Brick, 1).map(|r| r.len())
        })
    });

    let lin = LinearLayout::new(dim, dim * dim).unwrap();
    let column = Datatype::vector(dim, 64, dim);
    c.bench_function("linear_map_vector_4096x64", |b| {
        b.iter(|| datatype_runs(&lin, black_box(7 * 64), &column).len())
    });
    let runs = datatype_runs(&lin, 7 * 64, &column);
    let layout = Layout::Linear(lin);
    let map = round_robin_over_4(&layout);
    c.bench_function("plan_list_exact_4096", |b| {
        b.iter(|| {
            plan_list(black_box(&runs), &map, &layout, Granularity::Exact, 1).map(|r| r.len())
        })
    });
}

criterion_group!(benches, bench_layouts, bench_benchmark_accesses);
criterion_main!(benches);
