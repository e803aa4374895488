//! A `Stats` reply is whatever the dialled peer sends, and its section
//! counts are the peer's word: decoding one must not reserve what a count
//! claims, only what the blob could hold. Counted at the allocator — a
//! 64 KiB blob claiming 65 000 histograms used to reserve ~36 MB before its
//! first truncation check.
//!
//! Own test binary: the counting `#[global_allocator]` is process-wide
//! (the count itself is per thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpfs_obs::{ClusterSnapshot, HistSnapshot, NodeRole, NodeSnapshot};

/// Counts the bytes this thread asks the system allocator for; a `realloc`
/// counts its new size.
struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor
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
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocates while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(|c| c.get());
    let out = f();
    (out, BYTES.with(|c| c.get()) - before)
}

/// A 64 KiB blob: one empty iond node whose `section`-th count (0
/// counters, 1 gauges, 2 histograms) claims one entry per remaining byte,
/// the most a "no more entries than bytes" check lets through, the rest
/// zeros.
fn lying_blob(section: usize) -> Vec<u8> {
    let header = ClusterSnapshot {
        nodes: vec![NodeSnapshot::new("", NodeRole::Iond, [], [], [])],
    }
    .encode();
    // The three section counts are the header's last 12 bytes.
    let mut blob = header.clone();
    blob.resize(64 << 10, 0);
    let at = header.len() - 12 + 4 * section;
    let claimed = (blob.len() - at - 4) as u32;
    blob[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
    blob
}

#[test]
fn a_section_count_reserves_no_more_than_the_blob_could_hold() {
    for (section, what) in ["counters", "gauges", "hists"].iter().enumerate() {
        let blob = lying_blob(section);
        let (decoded, bytes) = allocated(|| ClusterSnapshot::decode(&blob));
        assert!(decoded.is_none(), "{what}: the blob cannot hold its count");
        assert!(
            bytes <= 8 * blob.len(),
            "{what}: decoding a {} B blob allocated {bytes} B",
            blob.len()
        );
    }
}

#[test]
fn an_honest_blob_still_decodes() {
    let h = HistSnapshot {
        count: 1,
        ..HistSnapshot::default()
    };
    let snap = ClusterSnapshot {
        nodes: vec![NodeSnapshot::new(
            "ion00",
            NodeRole::Iond,
            [("io.reads", 7)],
            [("in_flight", 1)],
            [("lat.read", h)],
        )],
    };
    assert_eq!(ClusterSnapshot::decode(&snap.encode()), Some(snap));
}
