//! Multiplexed RPC transport: pipelined per-server connections.
//!
//! The paper's client "invokes system communication API such as socket"
//! per request (§2). Here each server gets one persistent connection that
//! carries many requests at once:
//!
//! - **Writer path**: [`Transport::submit`] stamps the request with a fresh
//!   correlation ID, registers a waiter in the in-flight table, writes the
//!   frame under a short writer lock, and returns a [`Pending`] without
//!   waiting for the response. Many requests can be on the wire at once.
//! - **Demux reader**: one dedicated thread per connection reads response
//!   frames, looks the correlation ID up in the in-flight table, and
//!   completes that waiter — responses may arrive out of order.
//! - **Deadlines**: [`Pending::wait`] bounds the wait. A timeout evicts the
//!   waiter, poisons the connection (everything behind a stalled response
//!   is suspect), and surfaces [`DpfsError::Timeout`]; the next submission
//!   redials.
//! - **Error fan-out**: when a connection dies — read error, write error,
//!   undecodable response, peer close — every in-flight waiter is completed
//!   with [`DpfsError::Disconnected`]. Nothing hangs.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use dpfs_obs::{HistSnapshot, Histogram};
use dpfs_proto::{frame, Request, Response};
use parking_lot::Mutex;

use crate::conn::Resolver;
use crate::error::{DpfsError, Result};
use crate::trace;

/// Default per-request deadline. Generous: it exists to catch hung servers
/// and dead TCP peers, not to race healthy ones. Tighten per mount or per
/// handle with [`crate::file::ClientOptions::rpc_timeout`].
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// What the demux reader delivers to a waiter: the decoded response, or the
/// reason the connection died.
type WireResult = std::result::Result<Response, String>;

/// In-flight table of one connection: correlation ID → waiter.
struct Inflight {
    waiters: HashMap<u64, mpsc::Sender<WireResult>>,
    /// Set (with the reason) once the connection is poisoned. New
    /// submissions seeing this redial instead.
    dead: Option<String>,
}

/// One live connection: the shared state between submitters, the demux
/// reader thread, and timed-out waiters.
struct Conn {
    server: String,
    /// Handle used to sever the socket when poisoning; the reader thread
    /// and the writer hold their own clones.
    stream: TcpStream,
    /// Writer half. Held only for the duration of one frame write.
    writer: Mutex<TcpStream>,
    inflight: Mutex<Inflight>,
    /// The owning transport's counters, so poisoning can account the
    /// disconnect even after the transport dropped this connection.
    counters: Arc<Counters>,
}

impl Conn {
    /// Poison this connection: record `reason`, sever the socket (which
    /// unblocks the reader thread), and fan the error out to every
    /// in-flight waiter. Idempotent — the first reason wins (and is the
    /// only one counted).
    fn poison(&self, reason: &str) {
        let waiters = {
            let mut infl = self.inflight.lock();
            if infl.dead.is_none() {
                infl.dead = Some(reason.to_string());
                self.counters.disconnected.fetch_add(1, Ordering::Relaxed);
            }
            std::mem::take(&mut infl.waiters)
        };
        let _ = self.stream.shutdown(Shutdown::Both);
        for tx in waiters.into_values() {
            let _ = tx.send(Err(reason.to_string()));
        }
    }

    fn is_dead(&self) -> bool {
        self.inflight.lock().dead.is_some()
    }
}

/// Running totals for one server's transport (monotonic counters, the
/// current in-flight gauge, and per-kind latency histograms).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Requests successfully written to the wire.
    pub submitted: u64,
    /// Responses delivered to waiters.
    pub completed: u64,
    /// Waits that hit their deadline.
    pub timed_out: u64,
    /// Connections established (1 = never redialed).
    pub dials: u64,
    /// Requests currently awaiting a response.
    pub in_flight: u64,
    /// Connections poisoned (timeout, write/read failure, peer close,
    /// explicit disconnect). Each poisoned connection counts once.
    pub disconnected: u64,
    /// Highest number of requests simultaneously in flight on one
    /// connection — the pipelining depth actually achieved.
    pub in_flight_peak: u64,
    /// Retry attempts issued after transient (transport-class) failures.
    /// Application errors never count here.
    pub retries: u64,
    /// Per-server read requests that failed terminally and were rebuilt
    /// byte-exact from this server's mirrors or XOR peers + parity.
    pub reconstructs: u64,
    /// List-I/O RPCs submitted (`ReadList`/`WriteList`: one access-pattern
    /// descriptor on the wire instead of an enumerated range list).
    pub list_io: u64,
    /// Total encoded request bytes written to this server (wire payloads,
    /// excluding frame headers). The denominator of the list-I/O request
    /// shrink ratio.
    pub req_bytes: u64,
    /// Round-trip latency of completed `Read` RPCs (submit → response).
    pub read_latency: HistSnapshot,
    /// Round-trip latency of completed `Write` RPCs.
    pub write_latency: HistSnapshot,
    /// Round-trip latency of everything else (ping, stat, sync, ...).
    pub other_latency: HistSnapshot,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    timed_out: AtomicU64,
    dials: AtomicU64,
    disconnected: AtomicU64,
    in_flight_peak: AtomicU64,
    retries: AtomicU64,
    reconstructs: AtomicU64,
    list_io: AtomicU64,
    req_bytes: AtomicU64,
    hist_read: Histogram,
    hist_write: Histogram,
    hist_other: Histogram,
}

impl Counters {
    /// The latency histogram for one request kind (as named by
    /// [`Request::kind_str`]).
    fn hist_for(&self, kind: &str) -> &Histogram {
        match kind {
            "read" | "read_list" => &self.hist_read,
            "write" | "write_list" => &self.hist_write,
            _ => &self.hist_other,
        }
    }
}

/// The multiplexed transport to one server. Owned by the pool; shared by
/// every handle of one client.
pub struct Transport {
    server: String,
    resolver: Arc<Resolver>,
    /// Current connection; `None` before first use and after poisoning is
    /// observed. Held only to look up / replace the `Arc`.
    slot: Mutex<Option<Arc<Conn>>>,
    next_id: AtomicU64,
    counters: Arc<Counters>,
}

impl Transport {
    /// Transport for `server`, dialing through `resolver` on first use.
    pub fn new(server: String, resolver: Arc<Resolver>) -> Transport {
        Transport {
            server,
            resolver,
            slot: Mutex::new(None),
            next_id: AtomicU64::new(1),
            counters: Arc::new(Counters::default()),
        }
    }

    /// The current (or fresh) connection. Dials and spawns the demux reader
    /// when the slot is empty or holds a poisoned connection.
    fn conn(&self) -> Result<Arc<Conn>> {
        let mut slot = self.slot.lock();
        if let Some(c) = slot.as_ref() {
            if !c.is_dead() {
                return Ok(c.clone());
            }
            *slot = None;
        }
        let addr = self.resolver.resolve(&self.server);
        let connect = |e: std::io::Error| DpfsError::Connect {
            server: self.server.clone(),
            source: e,
        };
        let stream = TcpStream::connect(addr).map_err(connect)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(connect)?;
        let reader = stream.try_clone().map_err(connect)?;
        let conn = Arc::new(Conn {
            server: self.server.clone(),
            stream,
            writer: Mutex::new(writer),
            inflight: Mutex::new(Inflight {
                waiters: HashMap::new(),
                dead: None,
            }),
            counters: self.counters.clone(),
        });
        let reader_conn = conn.clone();
        std::thread::Builder::new()
            .name(format!("dpfs-demux-{}", self.server))
            .spawn(move || demux_loop(reader, reader_conn))
            .map_err(connect)?;
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        *slot = Some(conn.clone());
        Ok(conn)
    }

    /// Enqueue `req` on the wire and return a handle to await the response.
    /// Does not block on the server: the frame is written (short writer
    /// lock) and the call returns with the request in flight.
    pub fn submit(&self, req: &Request) -> Result<Pending> {
        self.submit_traced(req, 0)
    }

    /// [`Transport::submit`], stamping the frame with `trace_id` so the
    /// server's events join the operation's trace. `trace_id == 0` means
    /// untraced (plain v2 frame on the wire).
    pub fn submit_traced(&self, req: &Request, trace_id: u64) -> Result<Pending> {
        // One retry: the slot can hand out a connection that a concurrent
        // poison killed between the lookup and our registration.
        match self.try_submit(req, trace_id) {
            Err(DpfsError::Disconnected { .. }) => self.try_submit(req, trace_id),
            other => other,
        }
    }

    fn try_submit(&self, req: &Request, trace_id: u64) -> Result<Pending> {
        let conn = self.conn()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        {
            let mut infl = conn.inflight.lock();
            if let Some(reason) = &infl.dead {
                return Err(DpfsError::Disconnected {
                    server: self.server.clone(),
                    reason: reason.clone(),
                });
            }
            infl.waiters.insert(id, tx);
            let depth = infl.waiters.len() as u64;
            self.counters
                .in_flight_peak
                .fetch_max(depth, Ordering::Relaxed);
        }
        // Scatter-gather framing: `encode_parts` hands back the header and
        // (for `WriteList`) the caller's refcounted payload as separate
        // slices, which the vectored frame writers push to the socket
        // without gluing them into one intermediate buffer.
        let parts = req.encode_parts();
        let part_refs: Vec<&[u8]> = parts.iter().map(|p| &p[..]).collect();
        let wire_len: u64 = parts.iter().map(|p| p.len() as u64).sum();
        let wrote = {
            let mut w = conn.writer.lock();
            if trace_id != 0 {
                frame::write_frame_v3_parts(&mut *w, id, trace_id, &part_refs)
            } else {
                frame::write_frame_v2_parts(&mut *w, id, &part_refs)
            }
        };
        if let Err(e) = wrote {
            conn.inflight.lock().waiters.remove(&id);
            conn.poison(&format!("request write failed: {e}"));
            return Err(e.into());
        }
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.counters
            .req_bytes
            .fetch_add(wire_len, Ordering::Relaxed);
        let kind = req.kind_str();
        if kind == "read_list" || kind == "write_list" {
            self.counters.list_io.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Pending {
            server: self.server.clone(),
            id,
            rx,
            conn,
            counters: self.counters.clone(),
            trace_id,
            kind,
            bytes: req.payload_bytes(),
            submitted_ns: trace::now_ns(),
        })
    }

    /// Poison the current connection (if any) and empty the slot, so the
    /// next submission redials. In-flight waiters get transport errors.
    pub fn disconnect(&self, reason: &str) {
        let conn = self.slot.lock().take();
        if let Some(conn) = conn {
            conn.poison(reason);
        }
    }

    /// Number of requests currently awaiting responses.
    pub fn in_flight(&self) -> u64 {
        let slot = self.slot.lock();
        slot.as_ref()
            .map(|c| c.inflight.lock().waiters.len() as u64)
            .unwrap_or(0)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            timed_out: self.counters.timed_out.load(Ordering::Relaxed),
            dials: self.counters.dials.load(Ordering::Relaxed),
            in_flight: self.in_flight(),
            disconnected: self.counters.disconnected.load(Ordering::Relaxed),
            in_flight_peak: self.counters.in_flight_peak.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            reconstructs: self.counters.reconstructs.load(Ordering::Relaxed),
            list_io: self.counters.list_io.load(Ordering::Relaxed),
            req_bytes: self.counters.req_bytes.load(Ordering::Relaxed),
            read_latency: self.counters.hist_read.snapshot(),
            write_latency: self.counters.hist_write.snapshot(),
            other_latency: self.counters.hist_other.snapshot(),
        }
    }

    /// Count one retry attempt against this server (the fault-tolerance
    /// layer calls this right before reissuing a request).
    pub fn note_retry(&self) {
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one reconstructed (redundancy-rebuilt) per-server read.
    pub fn note_reconstruct(&self) {
        self.counters.reconstructs.fetch_add(1, Ordering::Relaxed);
    }
}

/// A submitted request awaiting its response.
///
/// Dropping a `Pending` abandons the response: its waiter leaves the
/// in-flight table with it and the demux reader discards the response on
/// arrival. The connection is not poisoned — that stays [`Pending::wait`]'s
/// deadline behaviour.
pub struct Pending {
    server: String,
    id: u64,
    rx: mpsc::Receiver<WireResult>,
    conn: Arc<Conn>,
    counters: Arc<Counters>,
    trace_id: u64,
    kind: &'static str,
    bytes: u64,
    submitted_ns: u64,
}

impl Pending {
    /// Await the response for at most `timeout`.
    ///
    /// On deadline: the waiter is evicted (a late response is discarded),
    /// the connection is poisoned — in-order framing means everything
    /// behind a stalled response is also stalled, and pending peers must
    /// get errors rather than hangs — and [`DpfsError::Timeout`] is
    /// returned. The next submission on this transport redials.
    pub fn wait(self, timeout: Duration) -> Result<Response> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(resp)) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                let dur = trace::now_ns().saturating_sub(self.submitted_ns);
                self.counters.hist_for(self.kind).record(dur);
                trace::client_event(
                    self.trace_id,
                    "rpc",
                    self.kind,
                    &self.server,
                    self.submitted_ns,
                    dur,
                    self.bytes,
                );
                trace::slowlog().note(
                    trace::Side::Client,
                    self.kind,
                    &self.server,
                    self.trace_id,
                    dur,
                    self.bytes,
                );
                Ok(resp)
            }
            Ok(Err(reason)) => Err(DpfsError::Disconnected {
                server: self.server.clone(),
                reason,
            }),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                self.conn.inflight.lock().waiters.remove(&self.id);
                self.conn
                    .poison(&format!("request {} timed out after {timeout:?}", self.id));
                Err(DpfsError::Timeout {
                    server: self.server.clone(),
                    timeout,
                })
            }
            // The reader dropped the sender without a verdict (it only does
            // so via poison, which sends first — this arm is belt and
            // braces against a panicking reader).
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(DpfsError::Disconnected {
                server: self.server.clone(),
                reason: "connection reader exited".to_string(),
            }),
        }
    }

    /// The correlation ID this request went out under (tests).
    pub fn corr_id(&self) -> u64 {
        self.id
    }
}

impl Drop for Pending {
    /// Evict this request's waiter: an abandoned fan-out sibling (an early
    /// `?` drops the rest) must not sit in the table — and in
    /// [`TransportStats::in_flight`] — until a server that may never
    /// answer does. After a `wait` the entry is already gone.
    fn drop(&mut self) {
        self.conn.inflight.lock().waiters.remove(&self.id);
    }
}

/// The demux reader: completes waiters out of order by correlation ID until
/// the connection dies, then fans the failure out.
fn demux_loop(mut stream: TcpStream, conn: Arc<Conn>) {
    loop {
        let frame = match frame::read_frame_any(&mut stream) {
            Ok(f) => f,
            Err(e) => {
                conn.poison(&format!("connection to {} lost: {e}", conn.server));
                return;
            }
        };
        let id = frame.corr_id;
        let resp = match Response::decode(frame.payload) {
            Ok(r) => r,
            Err(e) => {
                conn.poison(&format!("undecodable response from {}: {e}", conn.server));
                return;
            }
        };
        // A missing waiter timed out and was evicted; drop the response.
        if let Some(tx) = conn.inflight.lock().waiters.remove(&id) {
            let _ = tx.send(Ok(resp));
        }
    }
}
