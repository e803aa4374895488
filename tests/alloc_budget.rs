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
//!
//! A live read is counted in bytes as well: besides its output and its own
//! map → plan, a (*,BLOCK) column-block read through four I/O servers may
//! allocate one landing chunk and 64 KiB — its replies land in the output
//! as they come off the sockets, not in reply buffers of their own.
//!
//! A trace span, recorded on every op at the default sampling, allocates
//! nothing once its names are interned.
//!
//! Own test binary: the counting `#[global_allocator]` is process-wide
//! (the count itself is per thread, so the tests may run in parallel).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpfs::cluster::Testbed;
use dpfs::core::file::datatype_runs;
use dpfs::core::plan::{plan_list, Granularity};
use dpfs::core::trace::{next_trace_id, record_span, Side};
use dpfs::core::{
    round_robin, BrickMap, BrickRun, ClientOptions, Datatype, Hint, LinearLayout, MultidimLayout,
    Region, Shape,
};

/// Counts this thread's calls into the system allocator, and the bytes
/// they ask for; a `realloc` counts as one call and its growth.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell`s with no destructor, so touching them neither allocates nor
// re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
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

/// Bytes this thread asks the allocator for while `f` runs.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(|c| c.get());
    let out = f();
    (out, BYTES.with(|c| c.get()) - before)
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

/// The most one read's landing chunk holds (the transport's constant).
const LANDING_CHUNK: u64 = 128 << 10;

#[test]
fn a_live_block_read_allocates_its_output_and_no_reply_buffers() {
    let tb = Testbed::unthrottled(SERVERS).unwrap();
    let client = tb.client_opts(ClientOptions::default());
    let (md, region) = array_block();
    let hint = Hint::multidim(md.array.clone(), md.brick.clone(), 1);
    let mut f = client.create("/block", &hint).unwrap();
    let block: Vec<u8> = (0..region.volume()).map(|i| (i * 7 % 251) as u8).collect();
    f.write_region(&region, &block).unwrap();
    // Warm: every connection dialed, the reading thread's chunk in place.
    assert!(f.read_region(&region).unwrap() == block);

    // What the read's own map and plan allocate (bounded by call count
    // above), measured the way the read runs them.
    let layout = f.layout().clone();
    let map = f.brick_map().clone();
    let ((), plan) = bytes_allocated(|| {
        let runs = md.map_region(&region).unwrap();
        drop(plan_list(&runs, &map, &layout, Granularity::Brick, 0).unwrap());
    });
    let (got, bytes) = bytes_allocated(|| f.read_region(&region).unwrap());
    assert!(got == block, "the read returned other bytes");
    let output = got.len() as u64;
    println!(
        "2 MiB block read: {bytes} bytes allocated ({output} output, {plan} map + plan, {} else)",
        bytes.saturating_sub(output + plan)
    );
    assert!(
        bytes <= output + plan + LANDING_CHUNK + (64 << 10),
        "{bytes} bytes for a {output}-byte read planned in {plan}: reply buffers are back"
    );
}

#[test]
fn a_recorded_span_allocates_nothing_once_its_names_are_interned() {
    let id = next_trace_id();
    // A server name lives in its daemon, not in the binary: pass one from
    // the heap, as the daemons pass `&self.name`.
    let server = String::from("ion07");
    record_span(Side::Server, id, "handle", "read", &server, 0, 1, 64);
    let ((), bytes) = bytes_allocated(|| {
        for i in 0..10_000 {
            record_span(Side::Server, id, "handle", "read", &server, i, 1, 64);
        }
    });
    assert_eq!(bytes, 0, "10 000 spans allocated {bytes} bytes");
}
