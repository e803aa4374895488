//! A process-global, fixed-capacity ring buffer of trace events.
//!
//! Recording must be cheap enough to leave on in benchmarks: claiming a
//! slot is one `fetch_add`, then a short per-slot mutex guards the write
//! (writers only contend on a slot after the ring wraps a full lap).
//! Readers snapshot by sequence number, so the bench harness can export
//! only the events generated by a given run via [`TraceRing::cursor`] +
//! [`TraceRing::events_since`].

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Which side of the wire produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Client library (`dpfs-core`): op phases and per-RPC spans.
    Client,
    /// I/O server (`dpfs-server`): decode, queue, device, delay, respond.
    Server,
}

impl Side {
    fn as_str(self) -> &'static str {
        match self {
            Side::Client => "client",
            Side::Server => "server",
        }
    }
}

/// One timed span within a traced operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number assigned at record time (export ordering).
    pub seq: u64,
    /// The operation's trace ID; links client phases to server events.
    pub trace_id: u64,
    /// Which side of the wire recorded this.
    pub side: Side,
    /// Phase name: client `plan|submit|await|rpc|op`, server
    /// `decode|queue|device|delay|respond|handle`.
    pub phase: &'static str,
    /// Request kind the span belongs to (`read`, `write`, `sync`, ...).
    pub kind: &'static str,
    /// Node the event is about: server name on both sides (empty when the
    /// span covers the whole operation).
    pub server: String,
    /// Span start, nanoseconds on the process-local monotonic epoch
    /// ([`crate::now_ns`]).
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Payload bytes involved, when meaningful (0 otherwise).
    pub bytes: u64,
}

impl TraceEvent {
    /// Render as one JSON object (no trailing newline). Field names are
    /// stable; `server` is the only string field that needs escaping and
    /// server names in this codebase are ASCII identifiers, but escape
    /// defensively anyway.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"trace\":{},\"side\":\"{}\",\"phase\":\"{}\",\"kind\":\"{}\",\"server\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"bytes\":{}}}",
            self.seq,
            self.trace_id,
            self.side.as_str(),
            self.phase,
            self.kind,
            escape_json(&self.server),
            self.start_ns,
            self.dur_ns,
            self.bytes,
        )
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

const RING_CAPACITY: usize = 1 << 16;

/// Lock-free-claim ring buffer of [`TraceEvent`]s. Capacity is fixed
/// (65536 events); old events are overwritten once the ring laps.
pub struct TraceRing {
    slots: Vec<Mutex<Option<TraceEvent>>>,
    next: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    fn new() -> TraceRing {
        TraceRing {
            slots: (0..RING_CAPACITY).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record an event; assigns and returns its sequence number. Once the
    /// ring has wrapped, every record evicts the event one lap behind it —
    /// that eviction is counted in [`TraceRing::dropped`], so exported
    /// snapshots can say how much history a storm overwrote instead of
    /// silently looking like a quiet system.
    pub fn record(&self, mut ev: TraceEvent) -> u64 {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        if seq >= RING_CAPACITY as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ev.seq = seq;
        *self.slots[(seq as usize) % RING_CAPACITY].lock() = Some(ev);
        seq
    }

    /// Total events ever recorded into this ring.
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around (overwritten by a later lap).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The sequence number the *next* recorded event will get. Take a
    /// cursor before a run, then [`TraceRing::events_since`] it to export
    /// just that run's events.
    pub fn cursor(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// All retained events with `seq >= cursor`, in sequence order.
    /// Events older than one ring lap are gone; events recorded while
    /// this runs may or may not appear.
    pub fn events_since(&self, cursor: u64) -> Vec<TraceEvent> {
        let end = self.next.load(Ordering::Relaxed);
        let lo = cursor.max(end.saturating_sub(RING_CAPACITY as u64));
        let mut out = Vec::new();
        for seq in lo..end {
            let slot = self.slots[(seq as usize) % RING_CAPACITY].lock();
            if let Some(ev) = slot.as_ref() {
                // A racing writer may have lapped this slot already;
                // keep only the event that actually has this seq.
                if ev.seq == seq {
                    out.push(ev.clone());
                }
            }
        }
        out
    }

    /// All currently retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events_since(0)
    }
}

/// The process-global trace ring. Client, in-process testbed servers, and
/// the bench harness all record here, so one export holds both sides of
/// every traced operation.
pub fn ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(TraceRing::new)
}

/// Record one span into the global ring — a client phase or a daemon's
/// service event alike, told apart by `side`. No-op when `trace_id` is 0
/// (an untraced operation), so call sites need no branches.
#[allow(clippy::too_many_arguments)]
pub fn record_span(
    side: Side,
    trace_id: u64,
    phase: &'static str,
    kind: &'static str,
    server: &str,
    start_ns: u64,
    dur_ns: u64,
    bytes: u64,
) {
    if trace_id == 0 {
        return;
    }
    ring().record(TraceEvent {
        seq: 0,
        trace_id,
        side,
        phase,
        kind,
        server: server.to_string(),
        start_ns,
        dur_ns,
        bytes,
    });
}

/// Serialize `events` as JSONL (one JSON object per line).
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// Write all global-ring events with `seq >= cursor` to `path` as JSONL.
/// Returns the number of events written.
pub fn export_jsonl_to(path: &std::path::Path, cursor: u64) -> std::io::Result<usize> {
    let events = ring().events_since(cursor);
    std::fs::write(path, export_jsonl(&events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace_id: u64, phase: &'static str) -> TraceEvent {
        TraceEvent {
            seq: 0,
            trace_id,
            side: Side::Client,
            phase,
            kind: "read",
            server: "ion0".to_string(),
            start_ns: 1,
            dur_ns: 2,
            bytes: 3,
        }
    }

    #[test]
    fn record_and_read_back_in_order() {
        let ring = TraceRing::new();
        let cursor = ring.cursor();
        for i in 0..10 {
            ring.record(ev(i, "plan"));
        }
        let events = ring.events_since(cursor);
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.trace_id, i as u64);
            assert_eq!(e.seq, cursor + i as u64);
        }
    }

    #[test]
    fn cursor_scopes_a_run() {
        let ring = TraceRing::new();
        ring.record(ev(1, "plan"));
        let cursor = ring.cursor();
        ring.record(ev(2, "submit"));
        let events = ring.events_since(cursor);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, 2);
    }

    #[test]
    fn wraparound_keeps_only_last_lap() {
        let ring = TraceRing::new();
        let n = (RING_CAPACITY + 100) as u64;
        for i in 0..n {
            ring.record(ev(i, "rpc"));
        }
        let events = ring.events_since(0);
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(events.first().unwrap().trace_id, 100);
        assert_eq!(events.last().unwrap().trace_id, n - 1);
    }

    #[test]
    fn wraparound_counts_dropped_events() {
        let ring = TraceRing::new();
        for i in 0..100 {
            ring.record(ev(i, "rpc"));
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.recorded(), 100);
        let n = (RING_CAPACITY + 250) as u64;
        for i in 100..n {
            ring.record(ev(i, "rpc"));
        }
        assert_eq!(ring.recorded(), n);
        assert_eq!(ring.dropped(), 250);
    }

    #[test]
    fn concurrent_recording_assigns_unique_seqs() {
        let ring = std::sync::Arc::new(TraceRing::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let ring = ring.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000 {
                    ring.record(ev(t * 10_000 + i, "rpc"));
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        let events = ring.events_since(0);
        assert_eq!(events.len(), 8 * 1_000);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 8 * 1_000);
    }

    #[test]
    fn a_span_lands_in_the_global_ring_unless_untraced() {
        let cursor = ring().cursor();
        record_span(Side::Client, 0, "plan", "read", "", 0, 1, 0);
        assert_eq!(ring().cursor(), cursor);
        let id = crate::next_trace_id();
        record_span(Side::Server, id, "handle", "read", "ion0", 5, 6, 64);
        let events: Vec<_> = ring()
            .events_since(cursor)
            .into_iter()
            .filter(|e| e.trace_id == id)
            .collect();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(
            (e.side, e.phase, e.server.as_str()),
            (Side::Server, "handle", "ion0")
        );
        assert_eq!((e.start_ns, e.dur_ns, e.bytes), (5, 6, 64));
    }

    #[test]
    fn jsonl_escapes_and_round_trips_shape() {
        let mut e = ev(42, "await");
        e.server = "io\"n\\1".to_string();
        let line = e.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"trace\":42"));
        assert!(line.contains("io\\\"n\\\\1"));
        let text = export_jsonl(&[e.clone(), e]);
        assert_eq!(text.lines().count(), 2);
    }
}
