//! The connection-serving core, factored out of the I/O server so any
//! request handler — the subfile [`Handler`](crate::Handler) or
//! `dpfs-metad`'s metadata handler — can sit behind the same runtime.
//!
//! The runtime is a **fixed** set of threads regardless of how many clients
//! connect, every one of them asleep in the kernel until there is work — no
//! timer anywhere. The acceptor blocks in `poll(2)` on the listener; a small
//! set of I/O *shards* each block in one `poll` over their many nonblocking
//! connections, accumulating reads into per-connection buffers and decoding
//! frames incrementally ([`dpfs_proto::frame::decode_bytes`]). A request
//! that cannot block ([`Service::may_block`] says so: a name or a size, not
//! file bytes) is answered by the shard thread that decoded it — a round
//! trip is then two thread wake-ups shorter. The shared worker pool serves
//! what may block (a device, an fsync, a modelled delay), so a slow request
//! never holds up a shard's other connections. Whoever handled the request
//! writes its framed response to the owning connection's socket itself,
//! leaving to the shard's flush only what the socket would not take.
//! Whatever a sleeping thread cannot see on its descriptors reaches it
//! through its wake fd. C10K-ready: thread count is `1 + shards + workers`,
//! independent of connections.
//!
//! The serving contract: requests on one connection may overlap their
//! service times and complete out of order — a non-blocking request
//! overtakes a blocking one ahead of it, while non-blocking requests among
//! themselves are answered in the order they were sent — each response frame
//! echoing its request's correlation ID; a frame that is not v2/v3 (bad
//! magic, bad checksum, oversized) severs the connection that sent it and no
//! other; and every request leaves `decode`/`queue`/`respond` server trace
//! events (a request answered on the shard waited in no queue: its `queue`
//! span has zero length).

use std::collections::VecDeque;
use std::ffi::c_short;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes};
use dpfs_proto::{frame, Request, Response};
use parking_lot::Mutex;

use crate::handler::server_event;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// A request handler an accept loop can serve: one response per request,
/// shared across shards and workers.
pub trait Service: Send + Sync + 'static {
    /// Name stamped on this service's trace events.
    fn name(&self) -> &str;
    /// Handle one request stamped with `trace_id` (0 = untraced),
    /// producing exactly one response. Must never panic on malformed
    /// input.
    fn handle_traced(&self, req: Request, trace_id: u64) -> Response;
    /// May handling `req` wait for something — a device, an fsync, a lock
    /// held across either, a modelled delay? A request that may is handled
    /// by the worker pool; one that cannot is answered by the I/O shard
    /// thread that decoded it, ahead of that shard's other connections, so
    /// `false` is a promise of microseconds. A property of the request (and
    /// of how the service was built), not a setting; the default keeps every
    /// request on the workers. `Shutdown` is never asked about: it always
    /// drains through a worker.
    fn may_block(&self, _req: &Request) -> bool {
        true
    }
    /// Called once per accepted connection (statistics hook).
    fn note_connection(&self) {}
}

/// Sizing knobs for the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// I/O shard threads. Each shard owns a slice of the open connections.
    /// Clamped to at least 1.
    pub shards: usize,
    /// Shared request-handling workers: the depth to
    /// which independent requests — across *all* connections — overlap
    /// their service times. Clamped to at least 2 so one connection's
    /// pipelined requests still overlap.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: DEFAULT_SHARDS,
            workers: DEFAULT_WORKERS,
        }
    }
}

/// Default I/O shards.
const DEFAULT_SHARDS: usize = 2;

/// Default shared workers.
const DEFAULT_WORKERS: usize = 8;

/// Bytes one connection may pull off its socket per shard pass before the
/// shard moves on (fairness between connections on one shard). A request the
/// shard answers itself is charged as [`PROBE_LEN`] bytes, so a peer that
/// pipelines thousands of tiny requests gets 64 of them (and the rest of the
/// read that crossed the line) answered per pass, not all of them.
const READ_BUDGET: usize = 256 * 1024;

/// Cap on the bytes queued outbound per connection. A peer that stops
/// reading while responses pile up past this is severed rather than
/// allowed to pin unbounded memory. Must fit at least one max-size frame.
const OUTBUF_LIMIT: usize = 2 * frame::MAX_FRAME_LEN + 4096;

/// The first read of a frame lands in a shard-owned buffer this big: room
/// for a header and any small request behind it, so a connection between
/// frames — an idle one above all — owns no read buffer.
const PROBE_LEN: usize = 4096;

/// Parts one `write_vectored` takes from an outbound queue (a framed
/// reply is a header, a head and usually one payload).
const FLUSH_PARTS: usize = 16;

/// How long a draining shard waits for in-flight requests to finish and
/// their responses to flush before severing connections anyway: the only
/// timeout a shard's `poll` ever carries.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// Backoff before retrying `accept()` after `consecutive` straight
/// errors: exponential from 1 ms, capped at 100 ms. A persistent accept
/// failure (EMFILE, ENFILE) costs bounded CPU instead of pinning a core.
pub(crate) fn accept_error_backoff(consecutive: u32) -> Duration {
    let ms = 1u64 << consecutive.saturating_sub(1).min(7);
    Duration::from_millis(ms.min(100))
}

// ---------------------------------------------------------------------
// Connections, shards, workers
// ---------------------------------------------------------------------

/// Outbound frames of one connection, as the refcounted parts they were
/// framed from: the queue holds references to reply payloads, never
/// copies. Whole frames are pushed by whoever handled the request; whoever
/// holds the socket's lock flushes with gathered writes. Empty until used,
/// so an idle connection costs nothing.
#[derive(Default)]
struct OutQueue {
    /// Unwritten parts in wire order. A partial write advances the front
    /// part in place.
    parts: VecDeque<Bytes>,
    /// Unwritten bytes across `parts`: what [`OUTBUF_LIMIT`] bounds.
    pending: usize,
}

impl OutQueue {
    /// Append one whole frame. Frames only — the queue never holds a
    /// partial frame at its append edge, so per-connection responses stay
    /// serialized.
    fn push(&mut self, framed: Vec<Bytes>) {
        for part in framed {
            if !part.is_empty() {
                self.pending += part.len();
                self.parts.push_back(part);
            }
        }
    }

    /// Write queued bytes until the queue empties or `w` would block (a
    /// blocking `w` always empties it). Returns the bytes written.
    fn flush(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut wrote = 0usize;
        while self.pending > 0 {
            let mut iov = [IoSlice::new(&[]); FLUSH_PARTS];
            let mut n = 0;
            for (slot, part) in iov.iter_mut().zip(&self.parts) {
                *slot = IoSlice::new(part);
                n += 1;
            }
            let mut sent = match w.write_vectored(&iov[..n]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(sent) => sent,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            wrote += sent;
            self.pending -= sent;
            while sent > 0 {
                let front = &mut self.parts[0];
                if sent >= front.len() {
                    sent -= front.len();
                    self.parts.pop_front();
                } else {
                    front.advance(sent);
                    sent = 0;
                }
            }
        }
        Ok(wrote)
    }
}

/// Frame one response: encode it to parts (the payload stays the
/// refcounted buffer the handler produced), checksum them in one pass,
/// and prepend the v2 header echoing the request's correlation ID.
/// Touches no connection state, so callers run it outside their locks.
fn frame_response(corr_id: u64, resp: &Response) -> Result<Vec<Bytes>, frame::FrameError> {
    let mut framed = resp.encode_parts();
    let header = frame::response_header(corr_id, framed.iter().map(|p| &p[..]))?;
    framed.insert(0, Bytes::from(header));
    Ok(framed)
}

/// Wakes one thread asleep in [`sys::poll`]: a nonblocking socket pair
/// whose read end sits in that thread's poll set.
///
/// With no timer behind it, a lost wake-up is a hang, so both sides keep
/// an order. The waking side **publishes first** — a `SeqCst` store, or a
/// change under a lock — **and wakes second**. The sleeping side **drains
/// the pair, clears `pending`, and only then scans** what wakers publish.
/// A change is therefore either seen by the scan in progress or leaves a
/// byte that ends the next `poll` at once. `pending` folds a burst of
/// wakes into that one byte.
struct Waker {
    tx: UnixStream,
    rx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx,
            rx,
            pending: AtomicBool::new(false),
        })
    }

    /// Call after publishing what the sleeper should look at.
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // One byte per drain at most, so the pair is never full.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// The sleeper's poll entry for this waker.
    fn pollfd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }

    /// Sleeper side, once `poll` reports the entry readable and before
    /// looking at anything a waker may have published.
    fn drain(&self) {
        let mut sink = [0u8; 8];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// Hand-off point between the acceptor and one shard thread, and the way
/// to get that thread out of `poll`.
struct Shard {
    inbox: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

/// What the runtime's threads share.
struct Readiness {
    shutdown: AtomicBool,
    acceptor: Waker,
    shards: Vec<Arc<Shard>>,
    conn_count: AtomicUsize,
}

impl Readiness {
    /// Raise the shutdown flag, then wake every thread that sleeps in
    /// `poll`: the acceptor exits, the shards start draining.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.acceptor.wake();
        for shard in &self.shards {
            shard.waker.wake();
        }
    }
}

/// The half of one connection its shard shares with the workers: the
/// socket and where responses go, plus the state the shard derives its
/// poll interest and its drain decisions from. A worker that
/// changes any of it in a way the shard must act on wakes the shard.
struct ConnIo {
    /// Nonblocking. Only the owning shard reads it; whoever holds the
    /// `outbuf` lock writes it.
    stream: TcpStream,
    shard: Arc<Shard>,
    outbuf: Mutex<OutQueue>,
    /// `outbuf` holds bytes the socket would not take — the shard keeps
    /// `POLLOUT` armed and flushes. Changed only under the `outbuf` lock,
    /// where it equals `pending > 0`; read without it.
    want_write: AtomicBool,
    /// Requests dispatched but not yet answered into `outbuf`.
    inflight: AtomicUsize,
    /// Peer sent FIN; the shard stopped reading and closes once what is
    /// in flight has been answered and flushed.
    peer_eof: AtomicBool,
    /// The connection is beyond use (`outbuf` overflowed, the socket
    /// failed, a reply could not be framed); the shard severs.
    dead: AtomicBool,
}

impl ConnIo {
    fn new(stream: TcpStream, shard: Arc<Shard>) -> ConnIo {
        ConnIo {
            stream,
            shard,
            outbuf: Mutex::new(OutQueue::default()),
            want_write: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            peer_eof: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }
}

/// Queue one response on its connection and, if nothing was queued ahead
/// of it, write it to the socket from here: the shard is not flushing an
/// empty queue, so the reply leaves one thread hop sooner and the shard
/// hears of it only when the socket takes less than all of it (`POLLOUT`
/// is armed through `want_write`, then the wake). Behind queued bytes the
/// frame just joins the queue the shard is already flushing.
///
/// Encoding and the checksum pass happen before the lock: it is the lock
/// every writer of this socket holds across its write — which keeps
/// frames whole and in push order — so holding it for a megabyte of CRC
/// would stall them. The write under it never blocks.
fn enqueue_response(io: &ConnIo, corr_id: u64, resp: &Response) {
    let mut stuck = false;
    let mut fatal = true;
    if let Ok(framed) = frame_response(corr_id, resp) {
        let mut out = io.outbuf.lock();
        let direct = out.pending == 0;
        out.push(framed);
        let wrote = if direct {
            out.flush(&mut &io.stream)
        } else {
            Ok(0)
        };
        stuck = direct && out.pending > 0;
        if stuck {
            io.want_write.store(true, Ordering::SeqCst);
        }
        fatal = wrote.is_err() || out.pending > OUTBUF_LIMIT;
    }
    if fatal {
        io.dead.store(true, Ordering::SeqCst);
    }
    if fatal || stuck {
        io.shard.waker.wake();
    }
}

/// One decoded request bound for the shared worker pool.
struct Job {
    corr_id: u64,
    /// Trace ID from the v3 frame (0 = untraced).
    trace_id: u64,
    /// [`dpfs_obs::now_ns`] at enqueue, for the queue-wait span.
    enqueued_ns: u64,
    req: Request,
    io: Arc<ConnIo>,
}

/// One connection owned by a shard.
struct ShardConn {
    /// Unparsed bytes read off the socket: at most one partial frame
    /// between passes.
    inbuf: Vec<u8>,
    io: Arc<ConnIo>,
    /// A `Shutdown` request was decoded; stop reading ahead of the drain.
    stop_reading: bool,
}

impl ShardConn {
    /// The poll interest this connection's state calls for. Readiness is
    /// level-triggered: asking for input nobody will read (after a
    /// `Shutdown`, at EOF, draining), or for room to write nothing, would
    /// turn the shard's `poll` into a spin.
    fn interest(&self, draining: bool) -> c_short {
        let mut events = 0;
        if !draining && !self.stop_reading && !self.io.peer_eof.load(Ordering::SeqCst) {
            events |= POLLIN;
        }
        if self.io.want_write.load(Ordering::SeqCst) {
            events |= POLLOUT;
        }
        events
    }
}

/// Why a connection left its shard.
enum ConnFate {
    Keep,
    Close,
}

fn shard_loop(
    shard: Arc<Shard>,
    service: Arc<dyn Service>,
    rt: Arc<Readiness>,
    jobs: mpsc::Sender<Job>,
) {
    let mut conns: Vec<ShardConn> = Vec::new();
    // `fds[0]` is the wake entry and `fds[i + 1]` belongs to `conns[i]`:
    // the two vectors grow and shrink together and are never rebuilt, so
    // a pass costs the kernel's scan plus the connections that are ready.
    let mut fds = vec![shard.waker.pollfd()];
    let mut probe = [0u8; PROBE_LEN];
    let mut draining_since: Option<Instant> = None;
    let sever = |c: ShardConn| {
        let _ = c.io.stream.shutdown(Shutdown::Both);
        rt.conn_count.fetch_sub(1, Ordering::SeqCst);
    };
    loop {
        let timeout = draining_since.map(|t| DRAIN_DEADLINE.saturating_sub(t.elapsed()));
        // Woken: something changed that no descriptor shows (see the
        // wakers of `ConnIo` and `Readiness`), on any connection. A failed
        // `poll` (the kernel is out of memory; `EINTR` is retried) reports
        // nothing, and is handled the same way: look at everything.
        let woken = match sys::poll(&mut fds, timeout) {
            Ok(_) => fds[0].revents != 0,
            Err(_) => {
                fds.iter_mut().for_each(|fd| fd.revents = 0);
                true
            }
        };
        if woken {
            shard.waker.drain();
        }
        for stream in shard.inbox.lock().drain(..) {
            stream.set_nodelay(true).ok();
            if stream.set_nonblocking(true).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                rt.conn_count.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            fds.push(PollFd::new(stream.as_raw_fd(), POLLIN));
            conns.push(ShardConn {
                inbuf: Vec::new(),
                io: Arc::new(ConnIo::new(stream, shard.clone())),
                stop_reading: false,
            });
        }
        let draining = rt.shutdown.load(Ordering::SeqCst);
        // The pass that starts the drain takes every connection's
        // `POLLIN` away, whatever ended the `poll`.
        let all = woken || (draining && draining_since.is_none());
        let mut i = 0;
        while i < conns.len() {
            let revents = fds[i + 1].revents;
            if revents == 0 && !all {
                i += 1;
                continue;
            }
            let c = &mut conns[i];
            match service_conn(c, revents, draining, &service, &jobs, &mut probe) {
                ConnFate::Keep => {
                    fds[i + 1].events = c.interest(draining);
                    i += 1;
                }
                ConnFate::Close => {
                    fds.swap_remove(i + 1);
                    sever(conns.swap_remove(i));
                }
            }
        }
        if draining {
            let started = *draining_since.get_or_insert_with(Instant::now);
            let drained = conns.iter().all(|c| {
                c.io.inflight.load(Ordering::SeqCst) == 0 && !c.io.want_write.load(Ordering::SeqCst)
            });
            if drained || started.elapsed() >= DRAIN_DEADLINE {
                conns.drain(..).for_each(sever);
                for s in shard.inbox.lock().drain(..) {
                    let _ = s.shutdown(Shutdown::Both);
                    rt.conn_count.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
        }
    }
}

/// One read off `c`'s socket into its buffer; `Ok(0)` is end of stream.
///
/// Until a header says how long its frame is, bytes land in the shard's
/// `probe` and are appended from there. Once it does, the buffer grows —
/// once — to exactly the frame's length and the socket fills the rest in
/// place: no bounce buffer, no doubling re-copies, and (with the zero-copy
/// decode) the payload's final home. The in-place read stops at the
/// frame's end; the caller decodes between reads, so the front of the
/// buffer is always the one frame still arriving.
fn read_more(c: &mut ShardConn, probe: &mut [u8], budget: usize) -> io::Result<usize> {
    let have = c.inbuf.len();
    let rest = match frame::frame_len(&c.inbuf) {
        Ok(Some(total)) if total > have => total - have,
        _ => {
            let n = (&c.io.stream).read(probe)?;
            c.inbuf.extend_from_slice(&probe[..n]);
            return Ok(n);
        }
    };
    c.inbuf
        .try_reserve_exact(rest)
        .map_err(|_| io::Error::from(io::ErrorKind::OutOfMemory))?;
    let res = (&c.io.stream)
        .take(rest.min(budget) as u64)
        .read_to_end(&mut c.inbuf);
    match res {
        // Nothing arrived: report why. Otherwise report the progress; a
        // `WouldBlock` that cut it short shows again on the next call.
        Err(e) if c.inbuf.len() == have => Err(e),
        _ => Ok(c.inbuf.len() - have),
    }
}

/// Dispatch every complete frame in `c`'s buffer, adding to `answered` the
/// requests replied to right here; false means drop the connection (corrupt
/// stream, or the worker pool is gone).
///
/// Once a whole frame is in, the buffer is frozen and frames are split off
/// it: each request's payload is a refcounted window of the bytes the
/// socket delivered, not a copy. What is left over — a partial frame, or
/// whatever followed a `Shutdown` — starts the next buffer.
fn decode_ready(
    c: &mut ShardConn,
    service: &Arc<dyn Service>,
    jobs: &mpsc::Sender<Job>,
    answered: &mut usize,
) -> bool {
    match frame::frame_len(&c.inbuf) {
        Ok(Some(total)) if total <= c.inbuf.len() && !c.stop_reading => {}
        Ok(_) => return true,
        Err(_) => return false,
    }
    let mut buf = Bytes::from(std::mem::take(&mut c.inbuf));
    while !c.stop_reading {
        match frame::decode_bytes(&mut buf) {
            Ok(Some(fr)) => {
                if !dispatch_frame(c, fr, service, jobs, answered) {
                    return false;
                }
            }
            Ok(None) => break,
            Err(_) => return false,
        }
    }
    c.inbuf.extend_from_slice(&buf);
    true
}

/// One shard pass over one connection, doing what `revents` — what `poll`
/// found on its socket; 0 on a pass a wake caused — says can be done:
/// flush what workers left behind, then (if not draining) read, decode,
/// and dispatch new requests.
fn service_conn(
    c: &mut ShardConn,
    revents: c_short,
    draining: bool,
    service: &Arc<dyn Service>,
    jobs: &mpsc::Sender<Job>,
    probe: &mut [u8],
) -> ConnFate {
    // Anything but `POLLIN`/`POLLOUT` is `POLLERR`/`POLLHUP`/`POLLNVAL`:
    // reset or closed both ways, so nothing more can be read or delivered
    // — and `poll` reports those whatever the interest set, so they are
    // not left standing.
    if c.io.dead.load(Ordering::SeqCst) || revents & !(POLLIN | POLLOUT) != 0 {
        return ConnFate::Close;
    }
    // Flush: nonblocking gathered writes until the queue empties or the
    // socket would block. The lock is held across the write; workers
    // pushing concurrently wait a bounded syscall, never a handler.
    if revents & POLLOUT != 0 {
        let mut out = c.io.outbuf.lock();
        if out.flush(&mut &c.io.stream).is_err() {
            return ConnFate::Close;
        }
        if out.pending == 0 {
            c.io.want_write.store(false, Ordering::SeqCst);
        }
    }
    if draining {
        return ConnFate::Keep;
    }
    // Read and decode while the fairness budget lasts. Complete frames
    // become jobs or are answered here, each answer charged to the budget;
    // partial frames wait for more bytes; corruption drops the connection.
    // Input left unread once the budget is spent is still there, and
    // reported again by the next `poll`.
    let mut read_total = 0usize;
    while revents & POLLIN != 0
        && read_total < READ_BUDGET
        && !c.io.peer_eof.load(Ordering::SeqCst)
        && !c.stop_reading
    {
        match read_more(c, probe, READ_BUDGET - read_total) {
            Ok(0) => c.io.peer_eof.store(true, Ordering::SeqCst),
            Ok(n) => {
                let mut answered = 0;
                if !decode_ready(c, service, jobs, &mut answered) {
                    return ConnFate::Close;
                }
                read_total += n + answered * PROBE_LEN;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Close,
        }
    }
    // Peer gone: close once everything it asked for has been answered and
    // flushed (workers may still be producing the last responses; the one
    // that brings `inflight` to zero wakes this shard).
    if c.io.peer_eof.load(Ordering::SeqCst)
        && c.io.inflight.load(Ordering::SeqCst) == 0
        && !c.io.want_write.load(Ordering::SeqCst)
    {
        return ConnFate::Close;
    }
    ConnFate::Keep
}

/// Handle one request and send its framed response on the connection it
/// came in on (see [`enqueue_response`]): what a worker does with a job, and
/// what a shard does with a request that cannot block. `enqueued_ns` to
/// `dequeued_ns` is the time the request waited for whoever calls this.
fn answer(
    service: &dyn Service,
    io: &ConnIo,
    corr_id: u64,
    trace_id: u64,
    enqueued_ns: u64,
    dequeued_ns: u64,
    req: Request,
) {
    let kind = req.kind_str();
    server_event(
        trace_id,
        "queue",
        kind,
        service.name(),
        enqueued_ns,
        dequeued_ns.saturating_sub(enqueued_ns),
        0,
    );
    let resp = service.handle_traced(req, trace_id);
    let t0 = dpfs_obs::now_ns();
    enqueue_response(io, corr_id, &resp);
    server_event(
        trace_id,
        "respond",
        kind,
        service.name(),
        t0,
        dpfs_obs::now_ns().saturating_sub(t0),
        0,
    );
}

/// Decode one frame's request and answer it here if it cannot block (one
/// more in `answered`), else hand it to the worker pool. Returns false when
/// the connection should be dropped.
fn dispatch_frame(
    c: &mut ShardConn,
    fr: frame::Frame,
    service: &Arc<dyn Service>,
    jobs: &mpsc::Sender<Job>,
    answered: &mut usize,
) -> bool {
    let decode_start = dpfs_obs::now_ns();
    let trace_id = fr.trace_id;
    let corr_id = fr.corr_id;
    let req = match Request::decode(fr.payload) {
        Ok(r) => r,
        Err(e) => {
            // Malformed request: report and keep the connection.
            enqueue_response(
                &c.io,
                corr_id,
                &Response::Error {
                    code: dpfs_proto::ErrorCode::BadRequest,
                    message: e.to_string(),
                },
            );
            *answered += 1;
            return true;
        }
    };
    let decoded = dpfs_obs::now_ns();
    server_event(
        trace_id,
        "decode",
        req.kind_str(),
        service.name(),
        decode_start,
        decoded.saturating_sub(decode_start),
        req.payload_bytes(),
    );
    if matches!(req, Request::Shutdown) {
        c.stop_reading = true;
    } else if !service.may_block(&req) {
        // The reply is queued before this returns, so `inflight` — what the
        // shard still owes this connection — never sees the request.
        let svc = service.as_ref();
        answer(svc, &c.io, corr_id, trace_id, decoded, decoded, req);
        *answered += 1;
        return true;
    }
    c.io.inflight.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        corr_id,
        trace_id,
        enqueued_ns: decoded,
        req,
        io: c.io.clone(),
    };
    jobs.send(job).is_ok()
}

/// One shared worker: pull jobs and [`answer`] them.
fn worker_loop(rx: Arc<Mutex<mpsc::Receiver<Job>>>, service: Arc<dyn Service>, rt: Arc<Readiness>) {
    loop {
        // Classic shared-receiver pool: the guard drops as soon as recv
        // returns, handing the receiver to the next idle worker.
        let job = match rx.lock().recv() {
            Ok(j) => j,
            Err(_) => return, // every shard exited: drain finished
        };
        let Job {
            corr_id,
            trace_id,
            enqueued_ns,
            req,
            io,
        } = job;
        let is_shutdown = matches!(req, Request::Shutdown);
        let (svc, now) = (service.as_ref(), dpfs_obs::now_ns());
        answer(svc, &io, corr_id, trace_id, enqueued_ns, now, req);
        // Only decrement after the response is in the queue: a shard that
        // observes zero in-flight and an empty queue knows nothing is
        // still owed. The shard is asleep, so tell it what it is waiting
        // to hear: the last request of a connection it wants to close
        // (peer at EOF, server draining) is answered.
        let idle = io.inflight.fetch_sub(1, Ordering::SeqCst) == 1;
        if idle && (io.peer_eof.load(Ordering::SeqCst) || rt.shutdown.load(Ordering::SeqCst)) {
            io.shard.waker.wake();
        }
        if is_shutdown {
            // The response is already sent; raising the flag drains the
            // whole server — acceptor, shards, and idle connections —
            // exactly like ServeCore::stop.
            rt.shut_down();
        }
    }
}

/// The accept loop: blocks in `poll` on the listener and the acceptor's
/// waker, parks new connections in shard inboxes round-robin and wakes
/// the shard, backs off on persistent accept errors, and exits as soon as
/// the shutdown flag rises ([`Readiness::shut_down`] wakes it, whoever
/// calls it).
fn poll_accept_loop(listener: TcpListener, service: Arc<dyn Service>, rt: Arc<Readiness>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    // The waker is never drained: it is written once, at shutdown.
    let mut fds = [
        PollFd::new(listener.as_raw_fd(), POLLIN),
        rt.acceptor.pollfd(),
    ];
    let mut next = 0usize;
    accept_loop_impl(
        || match listener.accept() {
            Ok((stream, _)) => Ok(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                sys::poll(&mut fds, None)?;
                Err(e)
            }
            Err(e) => Err(e),
        },
        &rt.shutdown,
        |stream| {
            service.note_connection();
            rt.conn_count.fetch_add(1, Ordering::SeqCst);
            let shard = &rt.shards[next % rt.shards.len()];
            shard.inbox.lock().push(stream);
            shard.waker.wake();
            next += 1;
        },
    );
}

/// The accept policy, factored out so tests can inject a failing
/// `accept`. `accept` returns `WouldBlock` only after it has waited for
/// the listener or a wake, so that arm just looks at the flag again;
/// success resets the error streak; any other error sleeps
/// [`accept_error_backoff`].
fn accept_loop_impl(
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    shutdown: &AtomicBool,
    mut dispatch: impl FnMut(TcpStream),
) {
    let mut consecutive_errors: u32 = 0;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accept() {
            Ok(stream) => {
                consecutive_errors = 0;
                dispatch(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => {
                consecutive_errors = consecutive_errors.saturating_add(1);
                std::thread::sleep(accept_error_backoff(consecutive_errors));
            }
        }
    }
}

// ---------------------------------------------------------------------
// The serving handle
// ---------------------------------------------------------------------

/// A running TCP server around one [`Service`]. Dropping the handle shuts
/// it down.
pub struct ServeCore {
    addr: SocketAddr,
    rt: Arc<Readiness>,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServeCore {
    /// Bind `bind` (ephemeral port with `:0`) and start serving `service`
    /// with the default sizing.
    pub fn start(bind: &str, service: Arc<dyn Service>) -> io::Result<ServeCore> {
        Self::start_with(bind, service, ServeConfig::default())
    }

    /// Bind `bind` and start serving `service` on `config`'s shard and
    /// worker counts.
    pub fn start_with(
        bind: &str,
        service: Arc<dyn Service>,
        config: ServeConfig,
    ) -> io::Result<ServeCore> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let mut shards = Vec::new();
        for _ in 0..config.shards.max(1) {
            shards.push(Arc::new(Shard {
                inbox: Mutex::new(Vec::new()),
                waker: Waker::new()?,
            }));
        }
        let rt = Arc::new(Readiness {
            shutdown: AtomicBool::new(false),
            acceptor: Waker::new()?,
            shards,
            conn_count: AtomicUsize::new(0),
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut shard_threads = Vec::new();
        for (i, shard) in rt.shards.iter().enumerate() {
            let shard = shard.clone();
            let service = service.clone();
            let rt = rt.clone();
            let jobs = tx.clone();
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("dpfs-shard-{i}-{}", service.name()))
                    .spawn(move || shard_loop(shard, service, rt, jobs))?,
            );
        }
        // Only shards hold senders: when the last shard drains and exits,
        // the channel closes and the workers follow.
        drop(tx);
        let mut worker_threads = Vec::new();
        for _ in 0..config.workers.max(2) {
            let rx = rx.clone();
            let service = service.clone();
            let rt = rt.clone();
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("dpfs-worker-{}", service.name()))
                    .spawn(move || worker_loop(rx, service, rt))?,
            );
        }
        let accept_rt = rt.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("dpfs-accept-{}", service.name()))
            .spawn(move || poll_accept_loop(listener, service, accept_rt))?;

        Ok(ServeCore {
            addr,
            rt,
            accept_thread: Some(accept_thread),
            shard_threads,
            worker_threads,
        })
    }

    /// The listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently open client connections. (Connections
    /// deregister asynchronously after the peer closes, so a just-closed
    /// connection may be counted briefly.)
    pub fn open_connections(&self) -> usize {
        self.rt.conn_count.load(Ordering::SeqCst)
    }

    /// The server's entire thread count, fixed at start whatever the
    /// number of connections: acceptor + shards + workers.
    pub fn runtime_threads(&self) -> usize {
        1 + self.shard_threads.len() + self.worker_threads.len()
    }

    /// Stop accepting, drain or sever live connections, and join every
    /// runtime thread. When this returns, the listener is closed, no
    /// server thread is running, and the port can be rebound immediately —
    /// a later restart on the same address never races a lingering
    /// listener or half-dead connection handler. Idempotent, and also
    /// finishes the job after a wire `Request::Shutdown` already quiesced
    /// the threads.
    pub fn stop(&mut self) {
        // Flag, then the wake fds: every runtime thread is asleep in the
        // kernel and none of them looks at the flag on a timer.
        self.rt.shut_down();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Shards drain in-flight work (bounded by DRAIN_DEADLINE), sever
        // their connections, and exit; the job channel closes with them
        // and the workers follow.
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        // Connections the acceptor parked after the shards exited.
        for shard in &self.rt.shards {
            for s in shard.inbox.lock().drain(..) {
                let _ = s.shutdown(Shutdown::Both);
                self.rt.conn_count.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

impl Drop for ServeCore {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket stand-in that takes at most `cap` bytes per call and
    /// would-block on every other call.
    struct Choppy {
        wire: Vec<u8>,
        cap: usize,
        block: bool,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.block = !self.block;
            if self.block {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let mut room = self.cap;
            for b in bufs {
                let n = b.len().min(room);
                self.wire.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.cap - room)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn out_queue_flushes_whole_frames_across_short_and_blocked_writes() {
        let replies = [
            Response::Pong,
            Response::DataList {
                data: Bytes::from((0..5000u32).map(|i| i as u8).collect::<Vec<u8>>()),
            },
            Response::Data {
                // more parts than one gathered write takes
                chunks: (0..FLUSH_PARTS)
                    .map(|i| Bytes::from(vec![i as u8; 1500]))
                    .collect(),
            },
        ];
        let mut want = Vec::new();
        for (i, r) in replies.iter().enumerate() {
            frame::write_frame_v2(&mut want, i as u64, &r.encode()).unwrap();
        }
        for cap in [1, 7, 1499, 1 << 20] {
            let mut q = OutQueue::default();
            for (i, r) in replies.iter().enumerate() {
                q.push(frame_response(i as u64, r).unwrap());
            }
            assert_eq!(q.pending, want.len());
            let mut sock = Choppy {
                wire: Vec::new(),
                cap,
                block: false,
            };
            while q.pending > 0 {
                let before = q.pending;
                let wrote = q.flush(&mut sock).unwrap();
                assert_eq!(q.pending, before - wrote, "cap {cap}");
            }
            assert!(q.parts.is_empty());
            assert_eq!(sock.wire, want, "cap {cap}");
        }
    }

    #[test]
    fn framed_response_carries_the_handlers_buffer() {
        let data = Bytes::from(vec![9u8; 1 << 16]);
        let framed = frame_response(5, &Response::DataList { data: data.clone() }).unwrap();
        assert_eq!(framed.len(), 3, "header, head, payload");
        assert_eq!(framed[2].as_ptr(), data.as_ptr());
        let wire: Vec<u8> = framed.iter().flat_map(|p| p.iter().copied()).collect();
        let fr = frame::read_frame_any(&mut &wire[..]).unwrap();
        assert_eq!(fr.corr_id, 5);
        assert_eq!(
            Response::decode(fr.payload).unwrap(),
            Response::DataList { data }
        );
    }

    /// A reply to a peer that does not read: the worker's direct write
    /// takes what the socket takes and hands the rest to the shard
    /// (`want_write`, one wake); replies past [`OUTBUF_LIMIT`] sever.
    #[test]
    fn direct_write_hands_over_a_short_write_and_the_limit_still_severs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let shard = Arc::new(Shard {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new().unwrap(),
        });
        let io = ConnIo::new(stream, shard.clone());
        let woken = || {
            let mut fds = [shard.waker.pollfd()];
            sys::poll(&mut fds, Some(Duration::ZERO)).unwrap() == 1
        };

        enqueue_response(&io, 1, &Response::Pong);
        assert_eq!(
            io.outbuf.lock().pending,
            0,
            "a small reply goes straight out"
        );
        assert!(!io.want_write.load(Ordering::SeqCst) && !woken());

        // One shared 32 MiB buffer: the queue holds references, not copies.
        let data = Bytes::from(vec![7u8; 32 << 20]);
        let big = Response::DataList { data };
        enqueue_response(&io, 2, &big);
        let stuck = io.outbuf.lock().pending;
        assert!(stuck > 0 && stuck < 32 << 20, "short write, {stuck} left");
        assert!(io.want_write.load(Ordering::SeqCst) && woken());
        assert!(!io.dead.load(Ordering::SeqCst));
        shard.waker.drain();
        assert!(!woken());

        // Behind queued bytes a frame only joins the queue: no write, no
        // wake — until the queue outgrows its limit.
        for id in 3..=5 {
            enqueue_response(&io, id, &big);
            assert!(!io.dead.load(Ordering::SeqCst) && !woken());
        }
        enqueue_response(&io, 6, &big);
        assert!(io.outbuf.lock().pending > OUTBUF_LIMIT);
        assert!(io.dead.load(Ordering::SeqCst) && woken());
    }

    #[test]
    fn accept_error_backoff_is_bounded_and_grows() {
        assert_eq!(accept_error_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_error_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_error_backoff(5), Duration::from_millis(16));
        assert_eq!(accept_error_backoff(8), Duration::from_millis(100));
        assert_eq!(accept_error_backoff(u32::MAX), Duration::from_millis(100));
    }

    /// A listener that fails every accept() must cost a bounded number of
    /// retries per unit time, not a busy-spun core — and the loop must
    /// still notice shutdown.
    #[test]
    fn failing_accept_backs_off_instead_of_spinning() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let attempts = Arc::new(AtomicUsize::new(0));
        let t = {
            let shutdown = shutdown.clone();
            let attempts = attempts.clone();
            std::thread::spawn(move || {
                accept_loop_impl(
                    || {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        Err(io::Error::other("emfile injected"))
                    },
                    &shutdown,
                    |_stream| panic!("failing acceptor never yields a connection"),
                );
            })
        };
        std::thread::sleep(Duration::from_millis(300));
        let n = attempts.load(Ordering::SeqCst);
        assert!(n >= 1, "the loop must keep retrying");
        // Without backoff this is millions; with 1→100 ms exponential
        // backoff, 300 ms fits only a handful of attempts.
        assert!(n <= 64, "accept retried {n} times in 300ms: busy-spin");
        shutdown.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }
}
