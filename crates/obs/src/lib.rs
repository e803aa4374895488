//! `dpfs-obs` — shared observability primitives for DPFS.
//!
//! Every layer of DPFS — client library, wire transport, I/O server, bench
//! harness — reports into the same three primitives:
//!
//! - [`Histogram`]: fixed-bucket (power-of-two, HDR-style) latency
//!   histograms with lock-free recording and percentile snapshots
//!   ([`HistSnapshot`]), the unit both `TransportStats` and `ServerStats`
//!   aggregate per request kind.
//! - [`TraceRing`]: a process-global, lock-free ring buffer of
//!   [`TraceEvent`]s. Client operations record phase spans (plan, submit,
//!   await, per-server rpc), servers record service-side events (decode,
//!   queue wait, device-lock hold, injected delay, response write), all
//!   keyed by a per-operation *trace ID* that travels in the wire frame.
//!   [`export_jsonl`] turns the ring into a JSONL stream for the bench and
//!   ablation harness.
//! - [`log`]: a tiny leveled logger controlled by `DPFS_LOG`
//!   (`error|info|debug`), for daemons that used to `println!` freely.
//!
//! This crate sits below `dpfs-core` and `dpfs-server` in the dependency
//! graph so both sides of the wire share one event vocabulary; `dpfs-core`
//! re-exports it as `dpfs_core::trace`.

#![deny(unsafe_code)]

pub mod hist;
pub mod log;
pub mod ring;
pub mod slowlog;
pub mod snapshot;

pub use hist::{HistSnapshot, Histogram, HIST_BUCKETS};
pub use ring::{export_jsonl, export_jsonl_to, ring, Side, TraceEvent, TraceRing};
pub use slowlog::{slowlog, SlowLog};
pub use snapshot::{ClusterSnapshot, NodeRole, NodeSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since this process first touched the tracing
/// layer. All [`TraceEvent`] start timestamps use this epoch, so events
/// from every thread in one process order consistently.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh, process-unique, never-zero trace ID. Seeded from wall clock
/// and PID so IDs from different client processes against one server are
/// unlikely to collide.
pub fn next_trace_id() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let salt = *SALT.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        (nanos << 20) ^ ((std::process::id() as u64) << 8)
    });
    let id = salt.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Trace every Nth operation: `set_trace_sample_every(n)`, or env
/// `DPFS_TRACE_SAMPLE` read on first use. 1 (the default) traces
/// everything; 0 is treated as 1.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0); // 0 = not yet initialized

fn sample_every() -> u64 {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every != 0 {
        return every;
    }
    let every = std::env::var("DPFS_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
    every
}

/// Set the trace sampling rate: one in `every` operations gets a trace
/// ID, the rest run untraced (ID 0, which every recording hook treats as
/// "skip"). Storm-scale runs drop this to 1-in-N so the ring holds a
/// representative slice instead of wrapping thousands of times.
pub fn set_trace_sample_every(every: u64) {
    SAMPLE_EVERY.store(every.max(1), Ordering::Relaxed);
}

/// A trace ID for a new operation, honoring the sampling rate: returns a
/// fresh [`next_trace_id`] for one in N calls and 0 (untraced) otherwise.
pub fn sampled_trace_id() -> u64 {
    static TICK: AtomicU64 = AtomicU64::new(0);
    let every = sample_every();
    if every <= 1 {
        return next_trace_id();
    }
    if TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(every) {
        next_trace_id()
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        // Tests share the process-global knob; restore it afterwards so
        // always-trace tests elsewhere stay deterministic.
        set_trace_sample_every(4);
        let traced = (0..400).filter(|_| sampled_trace_id() != 0).count();
        set_trace_sample_every(1);
        assert_eq!(traced, 100);
        // Rate 1 means every op is traced.
        assert!((0..50).all(|_| sampled_trace_id() != 0));
    }
}
