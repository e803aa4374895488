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
//! - **The caller reads its own reply**: no client thread sits on the
//!   socket. The first caller of [`Pending::wait`] to find it free becomes
//!   the connection's reader: it reads response frames, keeps its own, and
//!   hands every other one to its waiter by correlation ID — responses may
//!   arrive out of order. Once its own is in, it leaves and unparks one
//!   waiter still asleep, which reads next. So a round trip with nothing
//!   else outstanding wakes one thread, the one that asked, straight from
//!   the socket.
//! - **Landing**: a read hands [`Pending::wait`] a [`Landing`] — the
//!   caller's buffer and where each reply byte goes in it. When the reader
//!   reaches its own `DataList` reply of the expected length, it streams
//!   the data off the socket through one bounded buffer of its thread,
//!   folding each chunk into the frame's CRC and placing it while it is
//!   still in cache; the CRC is compared at the end of the frame. Every
//!   other reply — another waiter's, an `Error`, a `DataList` of the wrong
//!   length — is collected whole, as before.
//! - **Deadlines**: [`Pending::wait`] bounds the wait. A timeout evicts the
//!   waiter, poisons the connection (everything behind a stalled response
//!   is suspect), and surfaces [`DpfsError::Timeout`]; the next submission
//!   redials.
//! - **Error fan-out**: when a connection dies — read error, write error,
//!   undecodable response, peer close — every in-flight waiter is completed
//!   with [`DpfsError::Disconnected`]. Nothing hangs.
//! - **Idle probe**: with nobody reading, a peer that closes is not seen
//!   when it closes. So a submission onto an idle connection first peeks at
//!   the socket without blocking, and a closed peer is redialed before a
//!   request is written into it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dpfs_obs::{HistSnapshot, Histogram};
use dpfs_proto::{frame, Request, Response};
use parking_lot::Mutex;

use crate::conn::{expect_list_data, Resolver};
use crate::error::{DpfsError, Result};
use crate::plan::ListPiece;
use crate::trace;

/// Default per-request deadline. Generous: it exists to catch hung servers
/// and dead TCP peers, not to race healthy ones. Tighten per mount or per
/// handle with [`crate::file::ClientOptions::rpc_timeout`].
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// What a waiter receives: the decoded response, or the reason the
/// connection died.
type WireResult = std::result::Result<Response, String>;

/// In-flight table of one connection. A live request's ID is in exactly
/// one of `waiters` and `ready` until its [`Pending`] is dropped.
struct Inflight {
    /// Requests awaiting their response, each with the thread to unpark
    /// when it arrives: set while that caller sleeps in [`Pending::wait`],
    /// `None` while it is busy or reading.
    waiters: HashMap<u64, Option<Thread>>,
    /// Verdicts delivered to a waiter that has not picked them up yet.
    ready: HashMap<u64, WireResult>,
    /// A caller is reading the socket. At most one does at a time.
    reading: bool,
    /// Set (with the reason) once the connection is poisoned. New
    /// submissions seeing this redial instead.
    dead: Option<String>,
}

/// One live connection: the shared state between submitters, the caller
/// reading replies, and timed-out waiters.
struct Conn {
    server: String,
    /// The socket. Frames are written under `writer`; replies are read by
    /// the caller holding [`Inflight::reading`].
    stream: TcpStream,
    /// Held for the duration of one frame write.
    writer: Mutex<()>,
    inflight: Mutex<Inflight>,
    /// The owning transport's counters, so poisoning can account the
    /// disconnect even after the transport dropped this connection.
    counters: Arc<Counters>,
}

impl Conn {
    /// Poison this connection: record `reason`, sever the socket (which
    /// unblocks its reader), and complete every in-flight waiter with the
    /// error. Idempotent — the first reason wins (and is the only one
    /// counted).
    fn poison(&self, reason: &str) {
        let parked: Vec<Thread> = {
            let mut infl = self.inflight.lock();
            if infl.dead.is_none() {
                infl.dead = Some(reason.to_string());
                self.counters.disconnected.fetch_add(1, Ordering::Relaxed);
            }
            let waiters = std::mem::take(&mut infl.waiters);
            waiters
                .into_iter()
                .filter_map(|(id, parked)| {
                    infl.ready.insert(id, Err(reason.to_string()));
                    parked
                })
                .collect()
        };
        let _ = self.stream.shutdown(Shutdown::Both);
        parked.iter().for_each(Thread::unpark);
    }

    /// Whether this connection can take another request. An idle one —
    /// nothing in flight, nobody reading — is probed first: a peer that
    /// closed since its last reply is found here, not by the caller waiting
    /// for a request written into the closed socket.
    fn usable(&self) -> bool {
        {
            let mut infl = self.inflight.lock();
            if infl.dead.is_some() {
                return false;
            }
            if infl.reading || !infl.waiters.is_empty() {
                return true;
            }
            infl.reading = true;
        }
        let _seat = Seat(self);
        // Nonblocking mode belongs to the socket, not to one handle: the
        // reader's seat and the writer lock keep everyone else off it.
        let lost = {
            let _w = self.writer.lock();
            let mut byte = [0u8; 1];
            let peeked = self
                .stream
                .set_nonblocking(true)
                .and_then(|()| self.stream.peek(&mut byte));
            let restored = self.stream.set_nonblocking(false);
            match (peeked, restored) {
                (Ok(0), _) => Some("peer closed the connection".to_string()),
                (Err(e), _) if e.kind() != ErrorKind::WouldBlock => Some(e.to_string()),
                (_, Err(e)) => Some(e.to_string()),
                _ => None,
            }
        };
        if let Some(e) = &lost {
            self.poison(&format!("connection to {} lost: {e}", self.server));
        }
        lost.is_none()
    }

    /// Read response frames as this connection's reader until `id`'s
    /// arrives (returned), the deadline passes or the connection dies
    /// (`None`: the caller finds its verdict in the table, or times out).
    /// Every other frame goes to its waiter; one nobody waits for any
    /// more — its request timed out or was abandoned — is dropped. `id`'s
    /// own reply is streamed into `landing` when it fits (see
    /// [`land`]).
    fn read_for(
        &self,
        id: u64,
        deadline: Instant,
        mut landing: Option<&mut Landing<'_>>,
    ) -> Option<Response> {
        let _seat = Seat(self);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let mut socket = Socket {
                stream: &self.stream,
                deadline,
            };
            let read = self
                .stream
                .set_read_timeout(Some(left))
                .map_err(frame::FrameError::Io)
                .and_then(|()| frame::read_header(&mut socket))
                .and_then(|header| match landing.as_deref_mut() {
                    Some(landing) if header.corr_id == id => land(&mut socket, header, landing),
                    _ => frame::read_payload(&mut socket, header).map(Some),
                });
            let frame = match read {
                Ok(Some(f)) => f,
                Ok(None) => return Some(Response::DataList { data: Bytes::new() }),
                // The caller's deadline poisons with its own reason.
                Err(_) if Instant::now() >= deadline => return None,
                Err(e) => {
                    self.poison(&format!("connection to {} lost: {e}", self.server));
                    return None;
                }
            };
            let resp = match Response::decode(frame.payload) {
                Ok(r) => r,
                Err(e) => {
                    self.poison(&format!("undecodable response from {}: {e}", self.server));
                    return None;
                }
            };
            if frame.corr_id == id {
                return Some(resp);
            }
            let parked = {
                let mut infl = self.inflight.lock();
                let waiter = infl.waiters.remove(&frame.corr_id);
                if waiter.is_some() {
                    infl.ready.insert(frame.corr_id, Ok(resp));
                }
                waiter.flatten()
            };
            if let Some(t) = parked {
                t.unpark();
            }
        }
    }
}

/// The payload of the reader's own reply, whose `header` was just
/// read: streamed into `landing` (`Ok(None)`) when it opens as a
/// `DataList` of exactly the bytes the landing expects, collected into
/// a frame otherwise. The first chunk is read before that is known, so
/// the head costs no read of its own; a collected frame starts from it.
fn land(
    socket: &mut Socket<'_>,
    header: frame::Header,
    landing: &mut Landing<'_>,
) -> std::result::Result<Option<frame::Frame>, frame::FrameError> {
    let head = Response::data_list_head(landing.len);
    let fits = header.payload_len() as u64 == head.len() as u64 + landing.len;
    CHUNK.with_borrow_mut(|chunk| {
        let room = header.payload_len().min(LANDING_CHUNK);
        if chunk.len() < room {
            chunk.resize(room, 0);
        }
        let mut body = frame::Body::new(socket, header);
        let first = body.next_chunk(chunk, head.len())?;
        if !fits || !first.starts_with(&head) {
            return body.collect(first).map(Some);
        }
        landing.restart();
        let mut at = 0;
        let mut data = &first[head.len()..];
        loop {
            landing.place(at, data);
            at += data.len() as u64;
            if body.remaining() == 0 {
                break;
            }
            data = body.next_chunk(chunk, 1)?;
        }
        // The chunk that completed the payload passed the CRC.
        landing.landed = true;
        Ok(None)
    })
}

/// The socket as its reader reads it, waiting until `deadline` and no
/// longer. A `recv` that a signal interrupts fails with `EINTR` under
/// `SO_RCVTIMEO`, even with `SA_RESTART`, and one whose timeout the
/// kernel counted in its coarser ticks can give up short of it; either is
/// retried with the time left, and fails `TimedOut` once none is. A retry
/// with the whole timeout again would let signals arriving faster than it
/// hold the reader past its deadline.
struct Socket<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Socket<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                    ) =>
                {
                    let left = self.deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(ErrorKind::TimedOut.into());
                    }
                    self.stream.set_read_timeout(Some(left))?;
                }
                other => return other,
            }
        }
    }
}

/// The most reply data one chunk of a landing holds: one `recv` fills it
/// at most, and its bytes are checksummed and placed before the next. It
/// stays in a core's cache alongside what is placed from it, and holds a
/// whole 64 KiB `strided_read` reply. (256 KiB chunks cost `array_read`
/// more system time per op in the `recv` copies; 64 KiB cost no less.)
const LANDING_CHUNK: usize = 128 << 10;

thread_local! {
    /// The reading thread's landing chunk: grown to the largest reply the
    /// thread has landed, up to [`LANDING_CHUNK`], and kept — so a thread
    /// that only lands small replies holds no more than they need. Only
    /// the thread that holds a reader's seat touches it.
    static CHUNK: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Where the data of one read reply goes: the caller's buffer, and the
/// pieces that map the reply's data bytes into it (see
/// [`crate::plan::ListRequest`]). [`Pending::wait`] streams a fitting
/// reply straight into it; [`Landing::complete`] places any other.
///
/// Pieces are walked in payload-offset order, whatever order the plan
/// lists them in; pieces that share payload bytes (self-overlapping runs)
/// all get them.
pub struct Landing<'a> {
    /// Data bytes the reply carries.
    len: u64,
    pieces: &'a [ListPiece],
    /// `pieces`' indices in payload-offset order, where the plan's order
    /// is not already that.
    order: Option<Vec<u32>>,
    buf: &'a mut [u8],
    /// The next piece (in payload order) no chunk has reached yet.
    next: usize,
    /// Pieces a chunk reached that go on past it.
    open: Vec<usize>,
    /// The reply's data has been placed and its CRC checked.
    landed: bool,
}

impl<'a> Landing<'a> {
    /// A landing for a reply of `len` data bytes that `pieces` map into
    /// `buf`.
    pub fn new(pieces: &'a [ListPiece], len: u64, buf: &'a mut [u8]) -> Landing<'a> {
        let order = (!pieces.is_sorted_by_key(|p| p.payload_off)).then(|| {
            let mut order: Vec<u32> = (0..pieces.len() as u32).collect();
            order.sort_by_key(|&i| pieces[i as usize].payload_off);
            order
        });
        Landing {
            len,
            pieces,
            order,
            buf,
            next: 0,
            open: Vec::new(),
            landed: false,
        }
    }

    /// Whether [`Pending::wait`] streamed the reply into the buffer.
    pub fn landed(&self) -> bool {
        self.landed
    }

    /// Put the reply that [`Pending::wait`] returned for this landing into
    /// the buffer: a landed one is there already; any other is checked by
    /// [`expect_list_data`] and placed whole.
    pub fn complete(&mut self, resp: Response, server: &str) -> Result<()> {
        if !self.landed {
            let data = expect_list_data(resp, self.len, server)?;
            self.place_all(&data);
        }
        Ok(())
    }

    /// Place a whole reply's data: its request's ranges back to back.
    pub(crate) fn place_all(&mut self, data: &[u8]) {
        self.restart();
        self.place(0, data);
    }

    /// Start over from the first data byte (a new attempt's reply).
    fn restart(&mut self) {
        self.next = 0;
        self.open.clear();
        self.landed = false;
    }

    /// The `k`-th piece in payload order.
    fn piece(&self, k: usize) -> ListPiece {
        match &self.order {
            Some(order) => self.pieces[order[k] as usize],
            None => self.pieces[k],
        }
    }

    /// Place `chunk`, the data bytes from offset `at` on: chunks come in
    /// order, each starting where the last ended.
    fn place(&mut self, at: u64, chunk: &[u8]) {
        let end = at + chunk.len() as u64;
        let mut open = std::mem::take(&mut self.open);
        open.retain(|&k| copy_piece(self.piece(k), at, chunk, self.buf));
        while self.next < self.pieces.len() {
            let p = self.piece(self.next);
            if p.payload_off >= end {
                break;
            }
            if copy_piece(p, at, chunk, self.buf) {
                open.push(self.next);
            }
            self.next += 1;
        }
        self.open = open;
    }
}

/// Copy the part of piece `p` that `chunk` (data bytes from `at` on)
/// holds into `buf`; whether `p` goes on past the chunk.
fn copy_piece(p: ListPiece, at: u64, chunk: &[u8], buf: &mut [u8]) -> bool {
    let end = at + chunk.len() as u64;
    let (from, to) = (p.payload_off.max(at), (p.payload_off + p.len).min(end));
    if from < to {
        let dst = (p.buf_off + from - p.payload_off) as usize;
        buf[dst..dst + (to - from) as usize]
            .copy_from_slice(&chunk[(from - at) as usize..(to - at) as usize]);
    }
    p.payload_off + p.len > end
}

/// The reader's seat of one connection, taken by setting
/// [`Inflight::reading`]. Dropping it — also when the reader unwinds, so a
/// panic cannot leave the socket unread — gives the seat up and unparks one
/// waiter asleep for a reply, which takes the seat if nobody else has.
struct Seat<'a>(&'a Conn);

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        let next = {
            let mut infl = self.0.inflight.lock();
            infl.reading = false;
            infl.waiters.values().flatten().next().cloned()
        };
        if let Some(t) = next {
            t.unpark();
        }
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

    /// The current (or fresh) connection. Dials when the slot is empty or
    /// holds a connection that is poisoned or whose peer has gone.
    fn conn(&self) -> Result<Arc<Conn>> {
        let mut slot = self.slot.lock();
        if let Some(c) = slot.as_ref() {
            if c.usable() {
                return Ok(c.clone());
            }
            *slot = None;
        }
        let addr = self.resolver.resolve(&self.server);
        let stream = TcpStream::connect(addr).map_err(|e| DpfsError::Connect {
            server: self.server.clone(),
            source: e,
        })?;
        stream.set_nodelay(true).ok();
        let conn = Arc::new(Conn {
            server: self.server.clone(),
            stream,
            writer: Mutex::new(()),
            inflight: Mutex::new(Inflight {
                waiters: HashMap::new(),
                ready: HashMap::new(),
                reading: false,
                dead: None,
            }),
            counters: self.counters.clone(),
        });
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
        {
            let mut infl = conn.inflight.lock();
            if let Some(reason) = &infl.dead {
                return Err(DpfsError::Disconnected {
                    server: self.server.clone(),
                    reason: reason.clone(),
                });
            }
            infl.waiters.insert(id, None);
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
            let _w = conn.writer.lock();
            let mut w = &conn.stream;
            if trace_id != 0 {
                frame::write_frame_v3_parts(&mut w, id, trace_id, &part_refs)
            } else {
                frame::write_frame_v2_parts(&mut w, id, &part_refs)
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
            id,
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
/// in-flight table with it and whoever reads the connection discards the
/// response on arrival. The connection is not poisoned — that stays
/// [`Pending::wait`]'s deadline behaviour.
pub struct Pending {
    id: u64,
    conn: Arc<Conn>,
    counters: Arc<Counters>,
    trace_id: u64,
    kind: &'static str,
    bytes: u64,
    submitted_ns: u64,
}

impl Pending {
    /// Await the response for at most `timeout`, reading the connection
    /// while nobody else does and sleeping while somebody does.
    ///
    /// With a `landing` (a read), a reply this caller reads itself and
    /// that is a `DataList` of the landing's length is streamed into the
    /// landing's buffer, and comes back as a `DataList` with empty `data`
    /// ([`Landing::landed`] says so); [`Landing::complete`] places any
    /// other reply.
    ///
    /// On deadline: the waiter is evicted (a late response is discarded),
    /// the connection is poisoned — in-order framing means everything
    /// behind a stalled response is also stalled, and pending peers must
    /// get errors rather than hangs — and [`DpfsError::Timeout`] is
    /// returned. The next submission on this transport redials.
    pub fn wait(
        self,
        timeout: Duration,
        mut landing: Option<&mut Landing<'_>>,
    ) -> Result<Response> {
        // A timeout past what an `Instant` can hold waits a century.
        let now = Instant::now();
        let deadline = now
            .checked_add(timeout)
            .unwrap_or(now + Duration::from_secs(100 * 365 * 86_400));
        let verdict = loop {
            let reader = {
                let mut infl = self.conn.inflight.lock();
                if let Some(verdict) = infl.ready.remove(&self.id) {
                    break Some(verdict);
                }
                if Instant::now() >= deadline {
                    break None;
                }
                let reader = !infl.reading;
                infl.reading |= reader;
                if let Some(parked) = infl.waiters.get_mut(&self.id) {
                    *parked = (!reader).then(thread::current);
                }
                reader
            };
            if reader {
                if let Some(resp) = self
                    .conn
                    .read_for(self.id, deadline, landing.as_deref_mut())
                {
                    break Some(Ok(resp));
                }
            } else {
                // Unparked by a delivery, a poison or a reader leaving its
                // seat — or spuriously: the table says which.
                thread::park_timeout(deadline.saturating_duration_since(Instant::now()));
            }
        };
        match verdict {
            Some(Ok(resp)) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                let dur = trace::now_ns().saturating_sub(self.submitted_ns);
                self.counters.hist_for(self.kind).record(dur);
                trace::record_span(
                    trace::Side::Client,
                    self.trace_id,
                    "rpc",
                    self.kind,
                    &self.conn.server,
                    self.submitted_ns,
                    dur,
                    self.bytes,
                );
                trace::slowlog().note(
                    trace::Side::Client,
                    self.kind,
                    &self.conn.server,
                    self.trace_id,
                    dur,
                    self.bytes,
                );
                Ok(resp)
            }
            Some(Err(reason)) => Err(DpfsError::Disconnected {
                server: self.conn.server.clone(),
                reason,
            }),
            None => {
                self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                self.conn.inflight.lock().waiters.remove(&self.id);
                self.conn
                    .poison(&format!("request {} timed out after {timeout:?}", self.id));
                Err(DpfsError::Timeout {
                    server: self.conn.server.clone(),
                    timeout,
                })
            }
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
    /// answer does. A `wait` ends here too, taking its own entry out.
    fn drop(&mut self) {
        let mut infl = self.conn.inflight.lock();
        infl.waiters.remove(&self.id);
        infl.ready.remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{BrickRun, Layout, LinearLayout};
    use crate::placement::BrickMap;
    use crate::plan::{plan_list, Granularity};
    use dpfs_meta::placement::round_robin;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A reply landed chunk by chunk, its pieces in any order, fills
        /// the buffer exactly as the whole reply scattered piece by piece
        /// did: over random exact read plans whose runs overlap in the file
        /// (pieces sharing payload bytes, each gets them), chunks of any
        /// size, and a landing restarted after a partial attempt.
        #[test]
        fn a_landed_reply_is_the_scattered_reply(
            servers in 1usize..4,
            raw in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u64..2048), 1..40),
            cuts in proptest::collection::vec(1usize..700, 1..8),
            shuffle in any::<u64>(),
        ) {
            let layout = Layout::Linear(LinearLayout::new(512, 16 * 512).unwrap());
            let bricks = layout.num_bricks();
            let map = BrickMap::from_assignment(round_robin(bricks, servers), servers);
            // Each run fills its own part of the buffer.
            let mut buf_off = 0;
            let runs: Vec<BrickRun> = raw
                .iter()
                .map(|&(b, off, len)| {
                    let brick = b % bricks;
                    let brick_off = off % 512;
                    let len = 1 + len % (512 - brick_off);
                    buf_off += len;
                    BrickRun { brick, brick_off, buf_off: buf_off - len, len }
                })
                .collect();
            let total = buf_off as usize;
            for req in plan_list(&runs, &map, &layout, Granularity::Exact, 0).unwrap() {
                let len = req.wire_bytes();
                let data: Vec<u8> = (0..len).map(|i| (i * 131 % 253) as u8 + 1).collect();
                let mut want = vec![0u8; total];
                for p in &req.pieces {
                    want[p.buf_off as usize..(p.buf_off + p.len) as usize].copy_from_slice(
                        &data[p.payload_off as usize..(p.payload_off + p.len) as usize],
                    );
                }
                let mut pieces = req.pieces.clone();
                let mut x = shuffle | 1;
                for i in (1..pieces.len()).rev() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    pieces.swap(i, (x % (i as u64 + 1)) as usize);
                }
                let mut buf = vec![0u8; total];
                let mut landing = Landing::new(&pieces, len, &mut buf);
                // A first attempt that stops part-way, then the whole.
                landing.place(0, &data[..data.len() / 2]);
                landing.restart();
                let mut at = 0;
                for &cut in cuts.iter().cycle() {
                    let end = (at + cut).min(data.len());
                    landing.place(at as u64, &data[at..end]);
                    at = end;
                    if at == data.len() {
                        break;
                    }
                }
                prop_assert_eq!(&buf, &want);
            }
        }
    }
}
