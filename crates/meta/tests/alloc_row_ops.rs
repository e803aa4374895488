//! Allocator calls of the catalog's hot mutation: one `create_file` and one
//! `delete_file` on a WAL-backed catalog, the pair the metadata daemon runs
//! for every create and unlink. A row operation names its table once (for
//! the undo log; the redo record is encoded where it is made, straight into
//! the transaction's log bytes) and keeps one owned copy of a row: the
//! table's. Counts, not a clock: they repeat exactly, so this is a
//! regression test.
//!
//! Own test binary: the counting `#[global_allocator]` is process-wide (the
//! count itself is per thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dpfs_meta::{Catalog, Database, Distribution, FileAttrRow};

/// Counts this thread's calls into the system allocator; a `realloc`
/// counts as one.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor
// re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(|c| c.get());
    f();
    CALLS.with(|c| c.get()) - before
}

fn attr(name: &str) -> FileAttrRow {
    FileAttrRow {
        filename: name.to_string(),
        owner: "dpfs".into(),
        permission: 0o644,
        size: 4096,
        filelevel: "linear".into(),
        dims: 0,
        dimsize: Vec::new(),
        stripe_dims: Vec::new(),
        stripe_size: 4096,
        pattern: String::new(),
        placement: "round_robin".into(),
        redundancy: String::new(),
    }
}

/// Four named rows, one brick on the first: a one-brick file striped over
/// four servers.
fn dist(name: &str) -> Vec<Distribution> {
    (0..4)
        .map(|i| Distribution {
            server: format!("ion{i:02}"),
            filename: name.to_string(),
            bricklist: if i == 0 { vec![0] } else { Vec::new() },
        })
        .collect()
}

#[test]
fn a_create_and_a_delete_stay_within_their_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("dpfs-alloc-row-ops-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let c = Catalog::new(Arc::new(Database::open_with_sync(&dir, false).unwrap())).unwrap();
    c.mkdir("/d").unwrap();
    let (a, d) = (attr("/d/f"), dist("/d/f"));
    let pair = || {
        c.create_file(&a, &d).unwrap();
        c.delete_file("/d/f").unwrap();
    };
    // The first pair parses and caches the statements both run.
    pair();
    let counts: Vec<u64> = (0..5).map(|_| allocations(pair)).collect();
    println!("create_file + delete_file: {counts:?} allocator calls");
    for calls in counts {
        assert!(calls <= BUDGET, "{calls} allocator calls, budget {BUDGET}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The pair's allocator calls. With a second owned row and two table names
/// per row operation kept for the log, the pair made 309.
const BUDGET: u64 = 236;
