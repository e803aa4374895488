//! Allocation budget of the client's map → plan stage, counted at the
//! allocator.
//!
//! Mapping an access to brick runs and planning the runs into per-server
//! requests is address arithmetic; what made it cost more client CPU than
//! the frame CRC was `malloc` — a `Vec` per brick, five per row segment,
//! one per datatype range. The budgets here are the benchmark's own plans
//! (`strided_read`: 4096 exact 64-byte runs over 4 servers; `array_read`:
//! a 4096×512 block of a 4096² array in 256² bricks, 8192 runs) and they
//! count allocator *calls*, which repeat exactly: a regression test, not a
//! timing.
//!
//! Own test binary: the counting `#[global_allocator]` is process-wide
//! (the count itself is per thread, so the tests may run in parallel).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpfs::core::file::datatype_runs;
use dpfs::core::plan::{plan_list, Granularity};
use dpfs::core::{
    round_robin, BrickMap, BrickRun, Datatype, LinearLayout, MultidimLayout, Region, Shape,
};

/// Counts this thread's calls into the system allocator; a `realloc`
/// counts as one.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor
// re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(|c| c.get());
    let out = f();
    (out, CALLS.with(|c| c.get()) - before)
}

const SERVERS: usize = 4;
const DIM: u64 = 4096;

/// The `strided_read` access: column `col` of a 4096×4096-byte array
/// striped linearly, one row per brick, 64 bytes of every row.
fn strided_runs() -> (dpfs::core::Layout, Vec<BrickRun>) {
    let lin = LinearLayout::new(DIM, DIM * DIM).unwrap();
    let runs = datatype_runs(&lin, 7 * 64, &Datatype::vector(DIM, 64, DIM));
    (dpfs::core::Layout::Linear(lin), runs)
}

/// The `array_read` layout and access: a `(*, BLOCK)` block of 512 columns
/// of the same array in 256×256 bricks.
fn array_block() -> (MultidimLayout, Region) {
    let md = MultidimLayout::new(
        Shape::new(vec![DIM, DIM]).unwrap(),
        Shape::new(vec![256, 256]).unwrap(),
        1,
    )
    .unwrap();
    (md, Region::new(vec![0, 512], vec![DIM, 512]).unwrap())
}

#[test]
fn plan_list_allocates_per_server_not_per_brick() {
    let (layout, runs) = strided_runs();
    assert_eq!(runs.len(), 4096);
    let map = BrickMap::from_assignment(round_robin(layout.num_bricks(), SERVERS), SERVERS);
    let (reqs, calls) =
        allocations(|| plan_list(&runs, &map, &layout, Granularity::Exact, 1).unwrap());
    assert_eq!(reqs.len(), SERVERS);
    assert!(reqs.iter().all(|r| r.ranges.len() == 1024));
    println!("plan_list, 4096 exact runs over {SERVERS} servers: {calls} allocations");
    assert!(
        calls <= 8 * SERVERS as u64,
        "strided plan: {calls} allocations for 4096 runs over {SERVERS} servers"
    );

    let (md, region) = array_block();
    let runs = md.map_region(&region).unwrap();
    assert_eq!(runs.len(), 8192);
    let layout = dpfs::core::Layout::Multidim(md);
    let map = BrickMap::from_assignment(round_robin(layout.num_bricks(), SERVERS), SERVERS);
    let (reqs, calls) =
        allocations(|| plan_list(&runs, &map, &layout, Granularity::Brick, 0).unwrap());
    assert_eq!(reqs.len(), 2);
    assert_eq!(
        reqs.iter().map(|r| r.wire_bytes()).sum::<u64>(),
        32 * 256 * 256,
        "32 whole bricks on the wire"
    );
    println!("plan_list, 8192 brick runs in 32 bricks: {calls} allocations");
    // What the plan measures (19 while every request also listed its
    // bricks): the counts, the buckets, and per touched server its pieces
    // and the doublings of its range list.
    assert!(
        calls <= 13,
        "array plan: {calls} allocations for 8192 runs in 32 bricks"
    );
}

#[test]
fn multidim_map_region_allocates_per_brick_not_per_row() {
    let (md, region) = array_block();
    let bricks = md.bricks_of_region(&region).len() as u64;
    assert_eq!(bricks, 32);
    let (runs, calls) = allocations(|| md.map_region(&region).unwrap());
    assert_eq!(runs.len(), 8192);
    println!("map_region, 8192 row segments of {bricks} bricks: {calls} allocations");
    assert!(
        calls <= 16 * bricks,
        "{calls} allocations mapping 8192 row segments of {bricks} bricks"
    );
}

#[test]
fn datatype_runs_allocate_a_constant_number_of_times() {
    let lin = LinearLayout::new(DIM, DIM * DIM).unwrap();
    let calls_for = |count: u64| {
        let dtype = Datatype::vector(count, 64, DIM);
        let (runs, calls) = allocations(|| datatype_runs(&lin, 0, &dtype));
        assert_eq!(runs.len() as u64, count);
        calls
    };
    let (few, many) = (calls_for(64), calls_for(4096));
    println!("datatype_runs, 64 / 4096 ranges: {few} / {many} allocations");
    assert!(many <= 4, "{many} allocations for a 4096-range datatype");
    assert_eq!(few, many, "allocations grow with the range count");
}
