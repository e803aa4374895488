//! Slow-operation structured log: any op whose duration crosses a
//! threshold emits one JSONL line carrying its trace ID.
//!
//! Percentile histograms say *that* a tail exists; the slow log says
//! *which* operations were in it, with enough identity (side, kind,
//! server, trace ID) to pull the matching spans out of the trace ring.
//! The check is one relaxed atomic load on the fast path, so the hook can
//! sit on every RPC completion and every server handle path.
//!
//! Configuration:
//! - threshold: [`SlowLog::set_threshold_us`], or env `DPFS_SLOW_OP_US`
//!   read on first use. Unset means disabled (threshold `u64::MAX`).
//! - sink: env `DPFS_SLOW_OP_OUT` (a file path, appended) — otherwise
//!   lines go to stderr.

use parking_lot::Mutex;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
}

/// The slow-op logger. One global instance per process ([`slowlog`]).
pub struct SlowLog {
    threshold_ns: AtomicU64,
    emitted: AtomicU64,
    sink: OnceLock<Sink>,
}

impl SlowLog {
    fn new() -> SlowLog {
        let threshold_ns = std::env::var("DPFS_SLOW_OP_US")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|us| us.saturating_mul(1_000))
            .unwrap_or(u64::MAX);
        SlowLog {
            threshold_ns: AtomicU64::new(threshold_ns),
            emitted: AtomicU64::new(0),
            sink: OnceLock::new(),
        }
    }

    fn sink(&self) -> &Sink {
        self.sink
            .get_or_init(|| match std::env::var("DPFS_SLOW_OP_OUT") {
                Ok(path) if !path.is_empty() => {
                    match std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&path)
                    {
                        Ok(f) => Sink::File(Mutex::new(f)),
                        Err(e) => {
                            crate::log_error!("slowlog: cannot open {path}: {e}");
                            Sink::Stderr
                        }
                    }
                }
                _ => Sink::Stderr,
            })
    }

    /// Set the slow threshold in microseconds. Zero logs every noted op;
    /// `u64::MAX / 1000` or higher effectively disables.
    pub fn set_threshold_us(&self, us: u64) {
        self.threshold_ns
            .store(us.saturating_mul(1_000), Ordering::Relaxed);
    }

    /// Current threshold in nanoseconds (`u64::MAX` = disabled).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// How many slow-op lines this process has emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Note a completed operation; emits one JSONL line iff `dur_ns`
    /// meets the threshold. Fast path (under threshold) is a single
    /// relaxed load and compare.
    pub fn note(
        &self,
        side: crate::Side,
        kind: &str,
        server: &str,
        trace_id: u64,
        dur_ns: u64,
        bytes: u64,
    ) {
        if dur_ns < self.threshold_ns.load(Ordering::Relaxed) {
            return;
        }
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let line = format!(
            "{{\"slow_op\":true,\"side\":\"{}\",\"kind\":\"{}\",\"server\":\"{}\",\"trace\":{},\"dur_us\":{},\"bytes\":{}}}\n",
            match side {
                crate::Side::Client => "client",
                crate::Side::Server => "server",
            },
            crate::ring::escape_json(kind),
            crate::ring::escape_json(server),
            trace_id,
            dur_ns / 1_000,
            bytes,
        );
        match self.sink() {
            Sink::Stderr => {
                let _ = std::io::stderr().write_all(line.as_bytes());
            }
            Sink::File(f) => {
                let _ = f.lock().write_all(line.as_bytes());
            }
        }
    }
}

/// The process-global slow-op log.
pub fn slowlog() -> &'static SlowLog {
    static LOG: OnceLock<SlowLog> = OnceLock::new();
    LOG.get_or_init(SlowLog::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Side;

    #[test]
    fn disabled_by_default_and_threshold_gates() {
        let log = SlowLog::new();
        // The default-disabled assertion holds only with the env knob
        // unset.
        if std::env::var("DPFS_SLOW_OP_US").is_err() {
            assert_eq!(log.threshold_ns(), u64::MAX);
            log.note(Side::Client, "read", "ion0", 7, u64::MAX - 1, 0);
            assert_eq!(log.emitted(), 0);
        }
        log.set_threshold_us(100);
        log.note(Side::Client, "read", "ion0", 7, 50_000, 0); // 50us: fast
        assert_eq!(log.emitted(), 0);
        log.sink.set(Sink::Stderr).ok(); // keep test output off real files
        log.note(Side::Server, "write", "ion1", 8, 250_000, 4096); // 250us
        assert_eq!(log.emitted(), 1);
    }

    #[test]
    fn zero_threshold_logs_everything() {
        let log = SlowLog::new();
        log.sink.set(Sink::Stderr).ok();
        log.set_threshold_us(0);
        for i in 0..5 {
            log.note(Side::Client, "stat", "metad0", i, 1, 0);
        }
        assert_eq!(log.emitted(), 5);
    }
}
