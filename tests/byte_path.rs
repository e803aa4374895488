//! Copy budget of the data path, counted at the allocator.
//!
//! A payload byte may be held in user space once per side: the server
//! reads a subfile range into one buffer and queues *that buffer* on the
//! socket; the client reads the reply into one buffer and hands *that
//! buffer* to the caller (and the mirror image for writes). Every hidden
//! copy — a `Bytes::from(Vec)` that memcpys, a reply glued into a frame
//! buffer, a bounce buffer on the way in — allocates another payload-sized
//! block, so the bytes allocated process-wide during one 1 MiB round trip
//! count the copies. The count repeats, which makes it a regression test
//! rather than a benchmark: before the copy-free frame pipeline a warm
//! 1 MiB `ReadList` allocated 6.3 MB (now 2.1 MB), and a `WriteList` kept
//! a payload-sized read buffer per connection on top of its copy.
//!
//! Own test binary: the counting `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use dpfs::core::{ConnPool, Resolver, RetryPolicy, DEFAULT_RPC_TIMEOUT};
use dpfs::proto::{AccessPattern, Request, Response};
use dpfs::server::{IoServer, PerfModel, ServerConfig};

/// Counts every byte requested from the system allocator. A `realloc`
/// counts in full: it may move the block, which is a copy.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1 << 20;

/// Bytes allocated by the whole process (client, server shards and
/// workers) while `f` runs.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

// One test function: the counter is process-wide, so the two measurements
// must not run on parallel test threads.
#[test]
fn one_mib_list_round_trips_stay_within_the_copy_budget() {
    let root = std::env::temp_dir().join(format!("dpfs-byte-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut server =
        IoServer::start(ServerConfig::new("ion00", &root, PerfModel::unthrottled())).unwrap();
    let mut resolver = Resolver::direct();
    resolver.alias("ion00", &server.addr().to_string());
    let pool = ConnPool::new(
        Arc::new(resolver),
        DEFAULT_RPC_TIMEOUT,
        RetryPolicy::disabled(),
    );

    let pattern = AccessPattern::from_runs(&[(0, MIB as u64)]);
    let payload = Bytes::from((0..MIB).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>());
    let write = Request::WriteList {
        subfile: "/f".into(),
        pattern: pattern.clone(),
        payload: payload.clone(),
    };
    let read = Request::ReadList {
        subfile: "/f".into(),
        pattern,
    };
    // Warm up: dial, create the subfile, grow every lazily-sized
    // structure on the way.
    for _ in 0..2 {
        pool.rpc("ion00", &write).unwrap();
        pool.rpc("ion00", &read).unwrap();
    }

    let (resp, wrote) = allocated_during(|| pool.rpc("ion00", &write).unwrap());
    assert_eq!(resp, Response::Written { bytes: MIB as u64 });
    let (resp, read_back) = allocated_during(|| pool.rpc("ion00", &read).unwrap());
    let Response::DataList { data } = resp else {
        panic!("expected DataList, got {resp:?}");
    };
    assert_eq!(data, payload);

    // The same mebibyte read enumerated, 4096 ranges of 256 B in shuffled
    // order: the reply is one payload too, not a length-prefixed chunk per
    // range copied into a message buffer.
    let ranges: Vec<(u64, u64)> = (0..4096u64)
        .map(|i| ((i * 1031 % 4096) * 256, 256))
        .collect();
    let enumerated = Request::Read {
        subfile: "/f".into(),
        ranges: ranges.clone(),
    };
    pool.rpc("ion00", &enumerated).unwrap();
    let (resp, read_enumerated) = allocated_during(|| pool.rpc("ion00", &enumerated).unwrap());
    let Response::DataList { data } = resp else {
        panic!("expected DataList, got {resp:?}");
    };
    let want: Vec<u8> = ranges
        .iter()
        .flat_map(|&(off, len)| payload[off as usize..(off + len) as usize].iter().copied())
        .collect();
    assert!(data[..] == want[..], "enumerated read returned other bytes");

    // Write: the caller's payload goes out by reference; the server's read
    // buffer is the only payload-sized block. Read: one block per side.
    println!(
        "1 MiB WriteList allocated {wrote} bytes, 1 MiB ReadList {read_back} bytes, \
         1 MiB Read of 4096 ranges {read_enumerated} bytes"
    );
    assert!(
        wrote < 2 * MIB,
        "1 MiB WriteList round trip allocated {wrote} bytes: a payload copy crept back in"
    );
    assert!(
        read_back < 3 * MIB,
        "1 MiB ReadList round trip allocated {read_back} bytes: a payload copy crept back in"
    );
    assert!(
        read_enumerated < 3 * MIB,
        "1 MiB enumerated Read round trip allocated {read_enumerated} bytes: a payload copy crept back in"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}
