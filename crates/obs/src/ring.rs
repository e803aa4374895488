//! A process-global, fixed-capacity ring buffer of trace events.
//!
//! Recording must be cheap enough to leave on everywhere, so it allocates
//! nothing and takes no lock. Claiming a slot is one `fetch_add`; the
//! slot is six atomic words (48 bytes) written under a seqlock stamp.
//! Names are stored as ids into a bounded, process-wide intern table,
//! looked up through a small per-thread cache. Two writers only meet on a
//! slot after the ring wraps a full lap, and then the later lap wins.
//! Readers snapshot by sequence number, so the bench harness can export
//! only the events generated by a given run via [`TraceRing::cursor`] +
//! [`TraceRing::events_since`].

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
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

// ------------------------------------------------------------ the record path

const RING_CAPACITY: usize = 1 << 16;

/// Distinct names (phases, kinds and server names together) the process
/// interns. The names in this codebase number a few dozen; the bound
/// keeps a stream of made-up names from growing the table without end.
const MAX_NAMES: usize = 1024;
const _: () = assert!(MAX_NAMES < 1 << 16, "a name id is 16 bits");

/// What every name past [`MAX_NAMES`] is recorded (and exported) as.
const OVERFLOW_NAME: &str = "?";

/// A bounded, append-only table of names; a name's id is its index.
struct Interner<const N: usize> {
    names: [OnceLock<&'static str>; N],
}

impl<const N: usize> Interner<N> {
    const fn new() -> Self {
        Interner {
            names: [const { OnceLock::new() }; N],
        }
    }

    /// The id of `s`: the first entry equal to it, or the first empty one,
    /// filled with a copy of `s`. Entries fill in order and never change,
    /// so threads interning one new name meet at the same entry. `N` (no
    /// entry) once the table is full.
    fn intern(&self, s: &str) -> u16 {
        for (id, entry) in self.names.iter().enumerate() {
            if *entry.get_or_init(|| Box::leak(Box::from(s))) == s {
                return id as u16;
            }
        }
        N as u16
    }

    /// The name `intern` gave `id`.
    fn name(&self, id: u16) -> &'static str {
        let entry = self.names.get(id as usize).and_then(OnceLock::get);
        entry.copied().unwrap_or(OVERFLOW_NAME)
    }
}

static NAMES: Interner<MAX_NAMES> = Interner::new();

thread_local! {
    /// This thread's 64-way name cache: the address a name was passed at,
    /// the interned name and its id.
    static CACHE: [Cell<(usize, &'static str, u16)>; 64] = const {
        [const { Cell::new((0, "", 0)) }; 64]
    };
}

/// The intern id of `s`, from this thread's cache when `s` was passed at
/// the same address before. The cached name is compared too, so a freed
/// and reused address cannot return another name's id.
fn name_id(s: &str) -> u16 {
    let addr = s.as_ptr() as usize;
    let way = ((addr ^ s.len()) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58;
    CACHE
        .try_with(|cache| {
            let (at, name, id) = cache[way as usize].get();
            if at == addr && name == s {
                return id;
            }
            let id = NAMES.intern(s);
            cache[way as usize].set((addr, NAMES.name(id), id));
            id
        })
        .unwrap_or_else(|_| NAMES.intern(s))
}

/// `side` and the three name ids in one word.
fn pack(side: Side, phase: &str, kind: &str, server: &str) -> u64 {
    (side == Side::Server) as u64
        | (name_id(phase) as u64) << 16
        | (name_id(kind) as u64) << 32
        | (name_id(server) as u64) << 48
}

/// One event in the ring: plain atomics, no lock, no heap.
#[derive(Default)]
struct Slot {
    /// `2·(seq+1)` once event `seq` is in the slot, `2·seq+1` while it is
    /// being written, 0 before the first. Only ever rises.
    stamp: AtomicU64,
    /// `trace_id`, `start_ns`, `dur_ns`, `bytes`, and the [`pack`]ed side
    /// and names.
    fields: [AtomicU64; 5],
}

/// Lock-free ring buffer of trace events. Capacity is fixed (65536
/// events, 3 MiB); old events are overwritten once the ring laps.
pub struct TraceRing {
    slots: Box<[Slot]>,
    next: AtomicU64,
}

impl TraceRing {
    fn new() -> TraceRing {
        TraceRing::with_capacity(RING_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> TraceRing {
        assert!(capacity.is_power_of_two());
        TraceRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            next: AtomicU64::new(0),
        }
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[seq as usize & (self.slots.len() - 1)]
    }

    /// Record an event; assigns and returns its sequence number. Once the
    /// ring has wrapped, every record evicts the event one lap behind it —
    /// that eviction is counted in [`TraceRing::dropped`], so exported
    /// snapshots can say how much history a storm overwrote instead of
    /// silently looking like a quiet system.
    pub fn record(&self, ev: TraceEvent) -> u64 {
        let names = pack(ev.side, ev.phase, ev.kind, &ev.server);
        self.put(ev.trace_id, names, ev.start_ns, ev.dur_ns, ev.bytes)
    }

    fn put(&self, trace_id: u64, names: u64, start_ns: u64, dur_ns: u64, bytes: u64) -> u64 {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        self.write(seq, [trace_id, start_ns, dur_ns, bytes, names]);
        seq
    }

    /// Write event `seq`'s fields into its slot. A writer a lap behind waits
    /// for one mid-write a lap before it, and gives up when a later lap
    /// has already claimed the slot: its event is one the later lap evicts.
    fn write(&self, seq: u64, fields: [u64; 5]) {
        let slot = self.slot(seq);
        let writing = 2 * seq + 1;
        let mut stamp = slot.stamp.load(Ordering::Relaxed);
        loop {
            if stamp > writing {
                return;
            }
            if stamp & 1 == 1 {
                std::thread::yield_now();
                stamp = slot.stamp.load(Ordering::Relaxed);
                continue;
            }
            match slot.stamp.compare_exchange_weak(
                stamp,
                writing,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => stamp = now,
            }
        }
        // The compare-and-swap's Acquire pairs with the Release store that
        // ended the lap before, so these stores follow that writer's. This
        // fence pairs with the Acquire fence in `read`: a reader whose loads
        // see any store below then sees this odd stamp, or a later one.
        fence(Ordering::Release);
        for (field, value) in slot.fields.iter().zip(fields) {
            field.store(value, Ordering::Relaxed);
        }
        slot.stamp.store(writing + 1, Ordering::Release);
    }

    /// Total events ever recorded into this ring.
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around (overwritten by a later lap).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// The sequence number the *next* recorded event will get. Take a
    /// cursor before a run, then [`TraceRing::events_since`] it to export
    /// just that run's events.
    pub fn cursor(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
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
    let names = pack(side, phase, kind, server);
    ring().put(trace_id, names, start_ns, dur_ns, bytes);
}

// -------------------------------------------------------------- the read path

impl TraceRing {
    /// All retained events with `seq >= cursor`, in sequence order.
    /// Events older than one ring lap are gone; events recorded while
    /// this runs may or may not appear.
    pub fn events_since(&self, cursor: u64) -> Vec<TraceEvent> {
        let end = self.next.load(Ordering::Relaxed);
        let lo = cursor.max(end.saturating_sub(self.slots.len() as u64));
        (lo..end).filter_map(|seq| self.read(seq)).collect()
    }

    /// Event `seq`, if its slot still holds it. A read the stamp shows
    /// was overlapped by a write (a racing writer lapped the slot) is
    /// skipped; one that finds `seq` itself mid-write waits for it.
    fn read(&self, seq: u64) -> Option<TraceEvent> {
        let slot = self.slot(seq);
        let written = 2 * seq + 2;
        // Pairs with the Release store that ends `write`: the loads below
        // see at least that write's fields.
        let mut stamp = slot.stamp.load(Ordering::Acquire);
        while stamp == written - 1 {
            std::thread::yield_now();
            stamp = slot.stamp.load(Ordering::Acquire);
        }
        if stamp != written {
            return None;
        }
        let [trace_id, start_ns, dur_ns, bytes, names] = slot
            .fields
            .each_ref()
            .map(|field| field.load(Ordering::Relaxed));
        // Pairs with the Release fence in `write` (see there).
        fence(Ordering::Acquire);
        if slot.stamp.load(Ordering::Relaxed) != written {
            return None;
        }
        Some(TraceEvent {
            seq,
            trace_id,
            side: [Side::Client, Side::Server][names as usize & 1],
            phase: NAMES.name((names >> 16) as u16),
            kind: NAMES.name((names >> 32) as u16),
            server: NAMES.name((names >> 48) as u16).to_string(),
            start_ns,
            dur_ns,
            bytes,
        })
    }

    /// All currently retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events_since(0)
    }
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

    /// Records event `i` the way [`record_span`] does, with `i` in every
    /// field: the numbers, the side and the three names.
    fn record_i(ring: &TraceRing, i: u64) {
        const LETTERS: [&str; 8] = ["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"];
        let name = LETTERS[i as usize % LETTERS.len()];
        let side = [Side::Client, Side::Server][i as usize % 2];
        ring.put(i, pack(side, name, name, name), i, i, i);
    }

    /// Whether `e` is one whole event written by [`record_i`].
    fn whole(e: &TraceEvent) -> bool {
        let i = e.trace_id;
        let name = format!("n{}", i % 8);
        let side = [Side::Client, Side::Server][i as usize % 2];
        (e.start_ns, e.dur_ns, e.bytes) == (i, i, i)
            && e.side == side
            && (e.phase, e.kind, e.server.as_str()) == (&name, &name, &name)
    }

    /// Four writers lap a `capacity`-slot ring while this thread exports it
    /// over and over; every export must hold whole events with unique,
    /// rising `seq`s. Returns how many events the exports held.
    fn lap_while_exporting(capacity: usize) -> usize {
        let ring = TraceRing::with_capacity(capacity);
        let done = std::sync::atomic::AtomicUsize::new(0);
        let mut exported = 0;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (ring, done) = (&ring, &done);
                s.spawn(move || {
                    for i in (t..200_000).step_by(4) {
                        record_i(ring, i);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            loop {
                let finished = done.load(Ordering::Relaxed) == 4;
                let events = ring.events_since(0);
                assert!(events.len() <= capacity);
                assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
                for e in &events {
                    assert!(whole(e), "an export mixed two writes: {e:?}");
                }
                exported += events.len();
                if finished {
                    break;
                }
            }
        });
        assert_eq!(ring.recorded(), 200_000);
        assert_eq!(ring.dropped(), 200_000 - capacity as u64);
        exported
    }

    #[test]
    fn lapping_writers_export_only_whole_events_with_unique_seqs() {
        assert!(lap_while_exporting(8) > 0);
    }

    #[test]
    fn writers_a_lap_apart_on_one_slot_never_mix_their_fields() {
        lap_while_exporting(1);
    }

    #[test]
    fn a_write_a_lap_late_leaves_the_later_lap_in_place() {
        let ring = TraceRing::with_capacity(4);
        ring.write(5, [7, 7, 7, 7, 0]);
        ring.write(1, [3, 3, 3, 3, 0]);
        assert_eq!(ring.read(1), None);
        let e = ring.read(5).unwrap();
        assert_eq!((e.seq, e.trace_id, e.bytes), (5, 7, 7));
    }

    #[test]
    fn a_write_a_lap_later_waits_for_the_write_in_progress() {
        let ring = TraceRing::with_capacity(4);
        let slot = ring.slot(1);
        slot.stamp.store(3, Ordering::Relaxed); // seq 1 is being written
        std::thread::scope(|s| {
            let later = s.spawn(|| ring.write(5, [9; 5]));
            for _ in 0..10_000 {
                assert_eq!(slot.stamp.load(Ordering::Relaxed), 3);
                assert!(slot.fields.iter().all(|f| f.load(Ordering::Relaxed) == 0));
                std::thread::yield_now();
            }
            for field in &slot.fields {
                field.store(1, Ordering::Relaxed);
            }
            slot.stamp.store(4, Ordering::Release); // seq 1 is written
            later.join().unwrap();
        });
        assert_eq!(ring.read(1), None);
        let e = ring.read(5).unwrap();
        assert_eq!((e.trace_id, e.start_ns, e.dur_ns, e.bytes), (9, 9, 9, 9));
    }

    #[test]
    fn a_read_waits_out_the_write_of_its_own_event() {
        let ring = TraceRing::with_capacity(4);
        let slot = ring.slot(1);
        slot.stamp.store(3, Ordering::Relaxed); // seq 1 is being written
        let read = std::thread::scope(|s| {
            let reader = s.spawn(|| ring.read(1));
            for _ in 0..10_000 {
                std::thread::yield_now();
            }
            for field in &slot.fields {
                field.store(7, Ordering::Relaxed);
            }
            slot.stamp.store(4, Ordering::Release); // seq 1 is written
            reader.join().unwrap()
        });
        assert_eq!(read.map(|e| (e.seq, e.bytes)), Some((1, 7)));
    }

    #[test]
    fn a_slot_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 48);
    }

    #[test]
    fn the_intern_table_is_bounded_and_names_past_it_read_as_overflow() {
        let table = Interner::<4>::new();
        let ids: Vec<u16> = ["a", "b", "c", "d"].map(|n| table.intern(n)).to_vec();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(
            table.intern(&String::from("b")),
            1,
            "by content, not address"
        );
        assert_eq!(table.intern("e"), 4);
        assert_eq!(table.intern("f"), 4);
        assert_eq!(table.name(4), OVERFLOW_NAME);
        assert_eq!(table.name(u16::MAX), OVERFLOW_NAME);
        assert_eq!([0, 1, 2, 3].map(|id| table.name(id)), ["a", "b", "c", "d"]);
    }

    #[test]
    fn threads_interning_the_same_new_names_agree_on_their_ids() {
        let table = Interner::<16>::new();
        let names = ["p", "q", "r", "s", "t", "u", "v", "w"];
        let seen: Vec<Vec<(&str, u16)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let table = &table;
                    s.spawn(move || {
                        let mut ids: Vec<_> = (0..names.len())
                            .map(|k| names[(k + 3 * t) % names.len()])
                            .map(|n| (n, table.intern(n)))
                            .collect();
                        ids.sort();
                        ids
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|ids| *ids == seen[0]));
        let mut ids: Vec<u16> = seen[0].iter().map(|&(_, id)| id).collect();
        ids.sort();
        assert_eq!(ids, (0..8).collect::<Vec<u16>>());
    }

    #[test]
    fn a_reused_address_does_not_return_the_cached_name() {
        let a = String::from("cached-a");
        let id = name_id(&a);
        assert_eq!(name_id(&a), id);
        drop(a);
        let b = String::from("cached-b");
        assert_eq!(NAMES.name(name_id(&b)), "cached-b");
    }
}
