//! The connection-serving core, factored out of the I/O server so any
//! request handler — the subfile [`Handler`](crate::Handler) or
//! `dpfs-metad`'s metadata handler — can sit behind the same runtime.
//!
//! Two runtimes live here, selected by [`RuntimeMode`]:
//!
//! - [`RuntimeMode::Readiness`] (the default): a **fixed** set of threads
//!   regardless of how many clients connect. One nonblocking acceptor
//!   polls the listener; a small set of I/O *shards* each own many
//!   nonblocking connections, accumulating reads into per-connection
//!   buffers and decoding frames incrementally
//!   ([`dpfs_proto::frame::decode_bytes`]); a shared worker pool services
//!   decoded requests and appends framed responses to the owning
//!   connection's outbound queue, which its shard flushes. C10K-ready:
//!   thread count is `1 + shards + workers`, independent of connections.
//! - [`RuntimeMode::ThreadPerConn`]: the original thread-per-connection
//!   model (one decode thread plus a [`CONN_WORKERS`]-deep pool *per
//!   connection*), kept as the ablation baseline the readiness runtime is
//!   measured against.
//!
//! Both runtimes preserve the serving contract: requests on one
//! connection may overlap their service times and complete out of order,
//! each response frame echoing its request's correlation ID; uncorrelated
//! (wire v1) frames keep lockstep semantics — at most one in flight per
//! connection, answered in order — so legacy peers never see responses
//! they cannot attribute; and the `decode`/`queue`/`respond` server trace
//! events survive unchanged.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes};
use dpfs_proto::{frame, Request, Response};
use parking_lot::Mutex;

use crate::handler::server_event;

/// A request handler an accept loop can serve: one response per request,
/// shared across shards and workers.
pub trait Service: Send + Sync + 'static {
    /// Name stamped on this service's trace events.
    fn name(&self) -> &str;
    /// Handle one request stamped with `trace_id` (0 = untraced),
    /// producing exactly one response. Must never panic on malformed
    /// input.
    fn handle_traced(&self, req: Request, trace_id: u64) -> Response;
    /// Called once per accepted connection (statistics hook).
    fn note_connection(&self) {}
}

/// Which serving runtime a [`ServeCore`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMode {
    /// Fixed thread count: nonblocking acceptor + I/O shards + shared
    /// worker pool. The default.
    Readiness,
    /// One decode thread and a [`CONN_WORKERS`] pool per connection
    /// (PR 2/5 behaviour). Ablation baseline only.
    ThreadPerConn,
}

/// Sizing knobs for the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Which runtime to run.
    pub mode: RuntimeMode,
    /// I/O shard threads (readiness mode). Each shard owns a slice of the
    /// open connections. Clamped to at least 1.
    pub shards: usize,
    /// Shared request-handling workers (readiness mode): the depth to
    /// which independent requests — across *all* connections — overlap
    /// their service times. Clamped to at least 2 so one connection's
    /// pipelined requests still overlap. Clamped to at least 2.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mode: RuntimeMode::Readiness,
            shards: DEFAULT_SHARDS,
            workers: DEFAULT_WORKERS,
        }
    }
}

/// Worker threads per connection in [`RuntimeMode::ThreadPerConn`]: the
/// pipelining depth one connection's requests can overlap at.
pub const CONN_WORKERS: usize = 4;

/// Default I/O shards for the readiness runtime.
const DEFAULT_SHARDS: usize = 2;

/// Default shared workers for the readiness runtime.
const DEFAULT_WORKERS: usize = 8;

/// Acceptor poll interval while the listener has no pending connection.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Cap on a shard's idle sleep. Bounds the latency a freshly-arrived
/// request can sit unread while its shard naps.
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(1);

/// Bytes one connection may pull off its socket per shard pass before the
/// shard moves on (fairness between connections on one shard).
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
/// their responses to flush before severing connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// Backoff before retrying `accept()` after `consecutive` straight
/// errors: exponential from 1 ms, capped at 100 ms. A persistent accept
/// failure (EMFILE, ENFILE) costs bounded CPU instead of pinning a core.
pub(crate) fn accept_error_backoff(consecutive: u32) -> Duration {
    let ms = 1u64 << consecutive.saturating_sub(1).min(7);
    Duration::from_millis(ms.min(100))
}

/// Escalating idle sleep: yield for the first few empty passes (a worker
/// is probably about to publish a response), then back off exponentially
/// to [`IDLE_SLEEP_MAX`].
fn idle_pause(idle_passes: u32) {
    if idle_passes <= 3 {
        std::thread::yield_now();
        return;
    }
    let us = 50u64 << (idle_passes - 4).min(5);
    std::thread::sleep(Duration::from_micros(us).min(IDLE_SLEEP_MAX));
}

// ---------------------------------------------------------------------
// Readiness runtime
// ---------------------------------------------------------------------

/// Outbound frames of one connection, as the refcounted parts they were
/// framed from: the queue holds references to reply payloads, never
/// copies. Whole frames are pushed (by workers, or by a per-connection
/// writer); whoever owns the socket flushes with gathered writes. Empty
/// until used, so an idle connection costs nothing.
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
/// and prepend the header — echoing the request's correlation ID, v1
/// framing when it had none. Touches no connection state, so callers run
/// it outside their locks; both runtimes' writers send exactly this.
fn frame_response(corr_id: Option<u64>, resp: &Response) -> Result<Vec<Bytes>, frame::FrameError> {
    let mut framed = resp.encode_parts();
    let header = frame::response_header(corr_id, framed.iter().map(|p| &p[..]))?;
    framed.insert(0, Bytes::from(header));
    Ok(framed)
}

/// The worker-visible half of one connection: where responses go, plus
/// the counters the shard uses for lockstep and drain decisions.
struct ConnIo {
    outbuf: Mutex<OutQueue>,
    /// Requests dispatched but not yet answered into `outbuf`.
    inflight: AtomicUsize,
    /// A wire-v1 (uncorrelated) request is in flight: the shard must not
    /// decode further frames from this connection until it completes,
    /// preserving lockstep order for legacy peers.
    v1_pending: AtomicBool,
    /// Set by a worker when `outbuf` overflowed; the shard severs.
    dead: AtomicBool,
}

impl ConnIo {
    fn new() -> Arc<ConnIo> {
        Arc::new(ConnIo {
            outbuf: Mutex::new(OutQueue::default()),
            inflight: AtomicUsize::new(0),
            v1_pending: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        })
    }
}

/// Queue one response on its connection. Encoding and the checksum pass
/// happen before the lock: it is the lock the shard holds across its
/// socket write, so holding it for a megabyte of CRC would stall that
/// shard's whole turn. Under the lock only the finished frame is pushed
/// and the byte count checked.
fn enqueue_response(io: &ConnIo, corr_id: Option<u64>, resp: &Response) {
    let framed = frame_response(corr_id, resp);
    let mut out = io.outbuf.lock();
    match framed {
        Ok(framed) => out.push(framed),
        Err(_) => io.dead.store(true, Ordering::SeqCst),
    }
    if out.pending > OUTBUF_LIMIT {
        io.dead.store(true, Ordering::SeqCst);
    }
}

/// One decoded request bound for the shared worker pool.
struct Job {
    corr_id: Option<u64>,
    /// Trace ID from the v3 frame (0 = untraced).
    trace_id: u64,
    /// [`dpfs_obs::now_ns`] at enqueue, for the queue-wait span.
    enqueued_ns: u64,
    req: Request,
    io: Arc<ConnIo>,
}

/// Hand-off point between the acceptor and one shard thread.
struct Shard {
    inbox: Mutex<Vec<TcpStream>>,
}

/// One connection owned by a shard.
struct ShardConn {
    stream: TcpStream,
    /// Unparsed bytes read off the socket: at most one partial frame
    /// between passes (plus whole frames the lockstep gate holds back).
    inbuf: Vec<u8>,
    io: Arc<ConnIo>,
    /// Peer sent FIN; stop reading, finish what's in flight, then close.
    peer_eof: bool,
    /// A `Shutdown` request was decoded; stop reading ahead of the drain.
    stop_reading: bool,
}

impl ShardConn {
    /// No further frame may be decoded (or read) for now: a `Shutdown` was
    /// decoded, or a lockstep (wire v1) request is still in flight.
    fn gated(&self) -> bool {
        self.stop_reading || self.io.v1_pending.load(Ordering::SeqCst)
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
    shutdown: Arc<AtomicBool>,
    jobs: mpsc::Sender<Job>,
    conn_count: Arc<AtomicUsize>,
) {
    let mut conns: Vec<ShardConn> = Vec::new();
    let mut probe = [0u8; PROBE_LEN];
    let mut idle_passes: u32 = 0;
    let mut draining_since: Option<Instant> = None;
    loop {
        let mut progressed = false;
        for stream in shard.inbox.lock().drain(..) {
            stream.set_nodelay(true).ok();
            if stream.set_nonblocking(true).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                conn_count.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            conns.push(ShardConn {
                stream,
                inbuf: Vec::new(),
                io: ConnIo::new(),
                peer_eof: false,
                stop_reading: false,
            });
            progressed = true;
        }
        let draining = shutdown.load(Ordering::SeqCst);
        let mut i = 0;
        while i < conns.len() {
            let fate = service_conn(
                &mut conns[i],
                draining,
                &service,
                &jobs,
                &mut probe,
                &mut progressed,
            );
            match fate {
                ConnFate::Keep => i += 1,
                ConnFate::Close => {
                    let c = conns.swap_remove(i);
                    let _ = c.stream.shutdown(Shutdown::Both);
                    conn_count.fetch_sub(1, Ordering::SeqCst);
                    progressed = true;
                }
            }
        }
        if draining {
            let started = *draining_since.get_or_insert_with(Instant::now);
            let drained = conns.iter().all(|c| {
                c.io.inflight.load(Ordering::SeqCst) == 0 && c.io.outbuf.lock().pending == 0
            });
            if drained || started.elapsed() > DRAIN_DEADLINE {
                for c in conns.drain(..) {
                    let _ = c.stream.shutdown(Shutdown::Both);
                    conn_count.fetch_sub(1, Ordering::SeqCst);
                }
                for s in shard.inbox.lock().drain(..) {
                    let _ = s.shutdown(Shutdown::Both);
                    conn_count.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
        }
        if progressed {
            idle_passes = 0;
            // Hand the core to the workers this pass just fed. Without
            // this a busy shard re-polls back-to-back and, on small CPU
            // counts, starves the pool it is filling — queued jobs age
            // while the shard burns the core discovering nothing new.
            std::thread::yield_now();
        } else {
            idle_passes = idle_passes.saturating_add(1);
            idle_pause(idle_passes);
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
            let n = c.stream.read(probe)?;
            c.inbuf.extend_from_slice(&probe[..n]);
            return Ok(n);
        }
    };
    c.inbuf
        .try_reserve_exact(rest)
        .map_err(|_| io::Error::from(io::ErrorKind::OutOfMemory))?;
    let res = (&c.stream)
        .take(rest.min(budget) as u64)
        .read_to_end(&mut c.inbuf);
    match res {
        // Nothing arrived: report why. Otherwise report the progress; a
        // `WouldBlock` that cut it short shows again on the next call.
        Err(e) if c.inbuf.len() == have => Err(e),
        _ => Ok(c.inbuf.len() - have),
    }
}

/// Dispatch every complete frame in `c`'s buffer; false means drop the
/// connection (corrupt stream, or the worker pool is gone).
///
/// Once a whole frame is in, the buffer is frozen and frames are split off
/// it: each request's payload is a refcounted window of the bytes the
/// socket delivered, not a copy. What is left over — a partial frame, or
/// whole frames the lockstep gate holds back — starts the next buffer.
fn decode_ready(c: &mut ShardConn, service: &Arc<dyn Service>, jobs: &mpsc::Sender<Job>) -> bool {
    match frame::frame_len(&c.inbuf) {
        Ok(Some(total)) if total <= c.inbuf.len() && !c.gated() => {}
        Ok(_) => return true,
        Err(_) => return false,
    }
    let mut buf = Bytes::from(std::mem::take(&mut c.inbuf));
    while !c.gated() {
        match frame::decode_bytes(&mut buf) {
            Ok(Some(fr)) => {
                if !dispatch_frame(c, fr, service, jobs) {
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

/// One shard pass over one connection: flush pending responses, then (if
/// not draining) read, decode, and dispatch new requests.
fn service_conn(
    c: &mut ShardConn,
    draining: bool,
    service: &Arc<dyn Service>,
    jobs: &mpsc::Sender<Job>,
    probe: &mut [u8],
    progressed: &mut bool,
) -> ConnFate {
    if c.io.dead.load(Ordering::SeqCst) {
        return ConnFate::Close;
    }
    // Flush: nonblocking gathered writes until the queue empties or the
    // socket would block. The lock is held across the write; workers
    // pushing concurrently wait a bounded syscall, never a handler.
    match c.io.outbuf.lock().flush(&mut c.stream) {
        Ok(0) => {}
        Ok(_) => *progressed = true,
        Err(_) => return ConnFate::Close,
    }
    if draining {
        return ConnFate::Keep;
    }
    // Frames the lockstep gate held back last pass go first.
    if !decode_ready(c, service, jobs) {
        return ConnFate::Close;
    }
    // Read and decode while the lockstep gate is open and the fairness
    // budget lasts. Complete frames become jobs (or inline error
    // replies); partial frames wait for more bytes; corruption drops the
    // connection, exactly like the blocking runtime does.
    let mut read_total = 0usize;
    while read_total < READ_BUDGET && !c.peer_eof && !c.gated() {
        match read_more(c, probe, READ_BUDGET - read_total) {
            Ok(0) => c.peer_eof = true,
            Ok(n) => {
                *progressed = true;
                read_total += n;
                if !decode_ready(c, service, jobs) {
                    return ConnFate::Close;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Close,
        }
    }
    // Peer gone: close once everything it asked for has been answered and
    // flushed (workers may still be producing the last responses).
    if c.peer_eof && c.io.inflight.load(Ordering::SeqCst) == 0 && c.io.outbuf.lock().pending == 0 {
        return ConnFate::Close;
    }
    ConnFate::Keep
}

/// Decode one frame's request and dispatch it to the worker pool.
/// Returns false when the connection should be dropped.
fn dispatch_frame(
    c: &mut ShardConn,
    fr: frame::Frame,
    service: &Arc<dyn Service>,
    jobs: &mpsc::Sender<Job>,
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
            return true;
        }
    };
    server_event(
        trace_id,
        "decode",
        req.kind_str(),
        service.name(),
        decode_start,
        dpfs_obs::now_ns().saturating_sub(decode_start),
        req.payload_bytes(),
    );
    if matches!(req, Request::Shutdown) {
        c.stop_reading = true;
    }
    if corr_id.is_none() {
        c.io.v1_pending.store(true, Ordering::SeqCst);
    }
    c.io.inflight.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        corr_id,
        trace_id,
        enqueued_ns: dpfs_obs::now_ns(),
        req,
        io: c.io.clone(),
    };
    jobs.send(job).is_ok()
}

/// One shared worker: pull jobs, handle, push the framed response onto
/// the owning connection's outbound queue.
fn worker_loop(
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    service: Arc<dyn Service>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        // Classic shared-receiver pool: the guard drops as soon as recv
        // returns, handing the receiver to the next idle worker.
        let job = match rx.lock().recv() {
            Ok(j) => j,
            Err(_) => return, // every shard exited: drain finished
        };
        let is_shutdown = matches!(job.req, Request::Shutdown);
        let kind = job.req.kind_str();
        let dequeued = dpfs_obs::now_ns();
        server_event(
            job.trace_id,
            "queue",
            kind,
            service.name(),
            job.enqueued_ns,
            dequeued.saturating_sub(job.enqueued_ns),
            0,
        );
        let resp = service.handle_traced(job.req, job.trace_id);
        let t0 = dpfs_obs::now_ns();
        enqueue_response(&job.io, job.corr_id, &resp);
        server_event(
            job.trace_id,
            "respond",
            kind,
            service.name(),
            t0,
            dpfs_obs::now_ns().saturating_sub(t0),
            0,
        );
        // Only decrement (and reopen the lockstep gate) after the
        // response is in the queue: a shard that observes zero in-flight
        // and an empty queue knows nothing is still owed.
        job.io.inflight.fetch_sub(1, Ordering::SeqCst);
        if job.corr_id.is_none() {
            job.io.v1_pending.store(false, Ordering::SeqCst);
        }
        if is_shutdown {
            // The response is already queued; raising the flag drains the
            // whole server — acceptor, shards, and idle connections —
            // exactly like ServeCore::stop.
            shutdown.store(true, Ordering::SeqCst);
        }
    }
}

/// The nonblocking accept loop: polls the listener, parks new connections
/// in shard inboxes round-robin, backs off on persistent accept errors,
/// and exits as soon as the shutdown flag rises (no self-dial needed —
/// wire shutdowns wake it by construction).
fn poll_accept_loop(
    listener: TcpListener,
    service: Arc<dyn Service>,
    shutdown: Arc<AtomicBool>,
    shards: Vec<Arc<Shard>>,
    conn_count: Arc<AtomicUsize>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut next = 0usize;
    accept_loop_impl(
        || listener.accept().map(|(s, _)| s),
        &shutdown,
        |stream| {
            service.note_connection();
            conn_count.fetch_add(1, Ordering::SeqCst);
            shards[next % shards.len()].inbox.lock().push(stream);
            next += 1;
        },
    );
}

/// The accept policy, factored out so tests can inject a failing
/// `accept`: `WouldBlock` polls at [`ACCEPT_POLL`]; success resets the
/// error streak; any other error sleeps [`accept_error_backoff`].
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
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                consecutive_errors = consecutive_errors.saturating_add(1);
                std::thread::sleep(accept_error_backoff(consecutive_errors));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Thread-per-connection runtime (ablation baseline)
// ---------------------------------------------------------------------

/// Live-connection registry: id → the accept loop's clone of the stream.
/// Each connection thread removes its own entry on exit, so the registry
/// stays bounded by the number of *open* connections rather than growing
/// with every connection ever accepted.
type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Join handles of live connection threads, so [`ServeCore::stop`] can reap
/// them deterministically instead of leaving detached threads racing a
/// restart on the same port. The accept loop reaps finished entries before
/// pushing new ones, keeping the vector bounded by *open* connections.
type ConnThreads = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// What a wire `Request::Shutdown` needs to drain the baseline runtime
/// like `stop()` does: dial the listener so the blocking `accept()`
/// returns and sees the flag, then sever every registered connection so
/// idle decode loops exit too.
struct WireShutdownWake {
    addr: SocketAddr,
    conns: ConnRegistry,
}

impl WireShutdownWake {
    fn wake(&self) {
        let mut dial = self.addr;
        if dial.ip().is_unspecified() {
            dial.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect(dial);
        for (_, c) in self.conns.lock().iter() {
            let _ = c.shutdown(Shutdown::Both);
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<dyn Service>,
    shutdown: Arc<AtomicBool>,
    conns: ConnRegistry,
    threads: ConnThreads,
) {
    let addr = listener.local_addr().ok();
    let mut next_id: u64 = 0;
    let mut consecutive_errors: u32 = 0;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept failures (EMFILE...) back off instead
                // of spinning a core at 100%.
                consecutive_errors = consecutive_errors.saturating_add(1);
                std::thread::sleep(accept_error_backoff(consecutive_errors));
                continue;
            }
        };
        consecutive_errors = 0;
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        service.note_connection();
        let id = next_id;
        next_id += 1;
        // Register the stream *before* spawning: stop() can only sever —
        // and therefore only promise to reap — connections it can see. A
        // connection that cannot be registered is refused outright.
        let Ok(clone) = stream.try_clone() else {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        };
        conns.lock().insert(id, clone);
        let s = service.clone();
        let sd = shutdown.clone();
        let cs = conns.clone();
        let wake = addr.map(|addr| WireShutdownWake {
            addr,
            conns: conns.clone(),
        });
        let spawned = std::thread::Builder::new()
            .name("dpfs-conn".to_string())
            .spawn(move || connection_loop(id, stream, s, sd, cs, wake));
        if let Ok(t) = spawned {
            let mut threads = threads.lock();
            // Reap finished threads in passing so the vector tracks open
            // connections, not connections ever accepted.
            let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut *threads)
                .into_iter()
                .partition(|t| t.is_finished());
            for d in done {
                let _ = d.join();
            }
            *threads = live;
            threads.push(t);
        } else {
            conns.lock().remove(&id);
        }
    }
}

fn connection_loop(
    id: u64,
    stream: TcpStream,
    service: Arc<dyn Service>,
    shutdown: Arc<AtomicBool>,
    conns: ConnRegistry,
    wake: Option<WireShutdownWake>,
) {
    connection_loop_inner(&stream, service, shutdown, wake);
    // The accept loop holds a clone of this stream (for forced shutdown), so
    // dropping ours would NOT send FIN — shut the socket down explicitly so
    // the peer sees EOF, then deregister so the registry does not leak.
    let _ = stream.shutdown(Shutdown::Both);
    conns.lock().remove(&id);
}

/// Write one response frame: the same [`frame_response`] the readiness
/// runtime queues, framed and checksummed before the writer lock, which
/// then serializes whole frames, never partial ones.
fn write_response(
    writer: &Mutex<TcpStream>,
    corr_id: Option<u64>,
    resp: &Response,
) -> Result<(), frame::FrameError> {
    let mut out = OutQueue::default();
    out.push(frame_response(corr_id, resp)?);
    out.flush(&mut *writer.lock())?;
    Ok(())
}

/// One decoded request bound for a per-connection worker pool.
struct ConnJob {
    corr_id: u64,
    trace_id: u64,
    enqueued_ns: u64,
    req: Request,
}

fn connection_loop_inner(
    mut stream: &TcpStream,
    service: Arc<dyn Service>,
    shutdown: Arc<AtomicBool>,
    wake: Option<WireShutdownWake>,
) {
    stream.set_nodelay(true).ok();
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let wake = wake.map(Arc::new);

    // Worker pool: decode loop sends jobs, workers pull them off the shared
    // receiver, handle, and reply through the serialized writer.
    let (tx, rx) = mpsc::channel::<ConnJob>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(CONN_WORKERS);
    for _ in 0..CONN_WORKERS {
        let rx = rx.clone();
        let writer = writer.clone();
        let service = service.clone();
        let shutdown = shutdown.clone();
        let wake = wake.clone();
        let worker = std::thread::Builder::new()
            .name("dpfs-conn-worker".to_string())
            .spawn(move || loop {
                let job = match rx.lock().recv() {
                    Ok(j) => j,
                    Err(_) => return, // decode loop gone: drain finished
                };
                let is_shutdown = matches!(job.req, Request::Shutdown);
                let kind = job.req.kind_str();
                let dequeued = dpfs_obs::now_ns();
                server_event(
                    job.trace_id,
                    "queue",
                    kind,
                    service.name(),
                    job.enqueued_ns,
                    dequeued.saturating_sub(job.enqueued_ns),
                    0,
                );
                let resp = service.handle_traced(job.req, job.trace_id);
                let t0 = dpfs_obs::now_ns();
                let _ = write_response(&writer, Some(job.corr_id), &resp);
                server_event(
                    job.trace_id,
                    "respond",
                    kind,
                    service.name(),
                    t0,
                    dpfs_obs::now_ns().saturating_sub(t0),
                    0,
                );
                if is_shutdown {
                    shutdown.store(true, Ordering::SeqCst);
                    if let Some(w) = &wake {
                        w.wake();
                    }
                }
            });
        match worker {
            Ok(w) => workers.push(w),
            Err(_) => break, // degrade to however many workers spawned
        }
    }

    // Frame-decode loop: v2 requests dispatch to the pool; v1 requests are
    // handled inline (lockstep), preserving in-order responses for peers
    // that cannot correlate.
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let decoded = match frame::read_frame_any(&mut stream) {
            Ok(f) => f,
            Err(_) => break, // closed or corrupt: drop the connection
        };
        let decode_start = dpfs_obs::now_ns();
        let trace_id = decoded.trace_id;
        let req = match Request::decode(decoded.payload) {
            Ok(r) => r,
            Err(e) => {
                // malformed request: report and keep the connection
                let resp = Response::Error {
                    code: dpfs_proto::ErrorCode::BadRequest,
                    message: e.to_string(),
                };
                if write_response(&writer, decoded.corr_id, &resp).is_err() {
                    break;
                }
                continue;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown);
        let kind = req.kind_str();
        server_event(
            trace_id,
            "decode",
            kind,
            service.name(),
            decode_start,
            dpfs_obs::now_ns().saturating_sub(decode_start),
            req.payload_bytes(),
        );
        match decoded.corr_id {
            Some(corr_id) if !workers.is_empty() => {
                let job = ConnJob {
                    corr_id,
                    trace_id,
                    enqueued_ns: dpfs_obs::now_ns(),
                    req,
                };
                if tx.send(job).is_err() {
                    break;
                }
            }
            corr_id => {
                let resp = service.handle_traced(req, trace_id);
                let t0 = dpfs_obs::now_ns();
                if write_response(&writer, corr_id, &resp).is_err() {
                    break;
                }
                server_event(
                    trace_id,
                    "respond",
                    kind,
                    service.name(),
                    t0,
                    dpfs_obs::now_ns().saturating_sub(t0),
                    0,
                );
                if is_shutdown {
                    shutdown.store(true, Ordering::SeqCst);
                    if let Some(w) = &wake {
                        w.wake();
                    }
                }
            }
        }
        if is_shutdown {
            // Stop reading; the pool drains queued requests (replying to
            // each) before the connection closes.
            break;
        }
    }
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
}

// ---------------------------------------------------------------------
// The serving handle
// ---------------------------------------------------------------------

/// A running TCP server around one [`Service`]. Dropping the handle shuts
/// it down.
pub struct ServeCore {
    addr: SocketAddr,
    mode: RuntimeMode,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    // Readiness runtime.
    shards: Vec<Arc<Shard>>,
    shard_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    conn_count: Arc<AtomicUsize>,
    // Baseline runtime.
    conns: ConnRegistry,
    conn_threads: ConnThreads,
}

impl ServeCore {
    /// Bind `bind` (ephemeral port with `:0`) and start serving `service`
    /// on the default (readiness) runtime.
    pub fn start(bind: &str, service: Arc<dyn Service>) -> io::Result<ServeCore> {
        Self::start_with(bind, service, ServeConfig::default())
    }

    /// Bind `bind` and start serving `service` on the runtime `config`
    /// selects.
    pub fn start_with(
        bind: &str,
        service: Arc<dyn Service>,
        config: ServeConfig,
    ) -> io::Result<ServeCore> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));
        let conn_threads: ConnThreads = Arc::new(Mutex::new(Vec::new()));
        let conn_count = Arc::new(AtomicUsize::new(0));
        let mut shards: Vec<Arc<Shard>> = Vec::new();
        let mut shard_threads = Vec::new();
        let mut worker_threads = Vec::new();

        let accept_thread = match config.mode {
            RuntimeMode::Readiness => {
                let n_shards = config.shards.max(1);
                let n_workers = config.workers.max(2);
                let (tx, rx) = mpsc::channel::<Job>();
                let rx = Arc::new(Mutex::new(rx));
                for i in 0..n_shards {
                    let shard = Arc::new(Shard {
                        inbox: Mutex::new(Vec::new()),
                    });
                    shards.push(shard.clone());
                    let service = service.clone();
                    let shutdown = shutdown.clone();
                    let jobs = tx.clone();
                    let count = conn_count.clone();
                    shard_threads.push(
                        std::thread::Builder::new()
                            .name(format!("dpfs-shard-{i}-{}", service.name()))
                            .spawn(move || shard_loop(shard, service, shutdown, jobs, count))?,
                    );
                }
                // Only shards hold senders: when the last shard drains and
                // exits, the channel closes and the workers follow.
                drop(tx);
                for _ in 0..n_workers {
                    let rx = rx.clone();
                    let service = service.clone();
                    let shutdown = shutdown.clone();
                    worker_threads.push(
                        std::thread::Builder::new()
                            .name(format!("dpfs-worker-{}", service.name()))
                            .spawn(move || worker_loop(rx, service, shutdown))?,
                    );
                }
                let service = service.clone();
                let shutdown = shutdown.clone();
                let accept_shards = shards.clone();
                let count = conn_count.clone();
                std::thread::Builder::new()
                    .name(format!("dpfs-accept-{}", service.name()))
                    .spawn(move || {
                        poll_accept_loop(listener, service, shutdown, accept_shards, count)
                    })?
            }
            RuntimeMode::ThreadPerConn => {
                let accept_service = service.clone();
                let accept_shutdown = shutdown.clone();
                let accept_conns = conns.clone();
                let accept_threads = conn_threads.clone();
                std::thread::Builder::new()
                    .name(format!("dpfs-accept-{}", service.name()))
                    .spawn(move || {
                        accept_loop(
                            listener,
                            accept_service,
                            accept_shutdown,
                            accept_conns,
                            accept_threads,
                        );
                    })?
            }
        };

        Ok(ServeCore {
            addr,
            mode: config.mode,
            shutdown,
            accept_thread: Some(accept_thread),
            shards,
            shard_threads,
            worker_threads,
            conn_count,
            conns,
            conn_threads,
        })
    }

    /// The listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The runtime this core was started with.
    pub fn mode(&self) -> RuntimeMode {
        self.mode
    }

    /// Number of currently open client connections. (Connections
    /// deregister asynchronously after the peer closes, so a just-closed
    /// connection may be counted briefly.)
    pub fn open_connections(&self) -> usize {
        match self.mode {
            RuntimeMode::Readiness => self.conn_count.load(Ordering::SeqCst),
            RuntimeMode::ThreadPerConn => self.conns.lock().len(),
        }
    }

    /// Threads this runtime owns *independent of connections*: acceptor +
    /// shards + workers. In the readiness runtime this is the server's
    /// entire thread count, fixed at start; the baseline runtime adds
    /// `(1 + CONN_WORKERS)` more per open connection on top of it.
    pub fn runtime_threads(&self) -> usize {
        1 + self.shard_threads.len() + self.worker_threads.len()
    }

    /// Number of per-connection threads not yet reaped (0 after [`stop`],
    /// and always 0 in the readiness runtime, which has none).
    ///
    /// [`stop`]: ServeCore::stop
    pub fn live_connection_threads(&self) -> usize {
        self.conn_threads.lock().len()
    }

    /// Stop accepting, drain or sever live connections, and join every
    /// runtime thread. When this returns, the listener is closed, no
    /// server thread is running, and the port can be rebound immediately —
    /// a later restart on the same address never races a lingering
    /// listener or half-dead connection handler. Idempotent, and also
    /// finishes the job after a wire `Request::Shutdown` already quiesced
    /// the threads.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if self.mode == RuntimeMode::ThreadPerConn {
            // Unblock accept() by dialing ourselves (use loopback if we
            // bound a wildcard address).
            let mut dial = self.addr;
            if dial.ip().is_unspecified() {
                dial.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
            }
            let _ = TcpStream::connect(dial);
            // Sever in-flight connections so their threads exit.
            for (_, c) in self.conns.lock().drain() {
                let _ = c.shutdown(Shutdown::Both);
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Readiness runtime: shards drain in-flight work (bounded by
        // DRAIN_DEADLINE), sever their connections, and exit; the job
        // channel closes with them and the workers follow.
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        // Connections the acceptor parked after the shards exited.
        for shard in &self.shards {
            for s in shard.inbox.lock().drain(..) {
                let _ = s.shutdown(Shutdown::Both);
                self.conn_count.fetch_sub(1, Ordering::SeqCst);
            }
        }
        // Baseline runtime: reap connection threads. Every spawned
        // thread's stream is either severed above or already closed, so
        // these joins terminate.
        let threads = std::mem::take(&mut *self.conn_threads.lock());
        for t in threads {
            let _ = t.join();
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
                q.push(frame_response(Some(i as u64), r).unwrap());
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
        let framed = frame_response(None, &Response::DataList { data: data.clone() }).unwrap();
        assert_eq!(framed.len(), 3, "header, head, payload");
        assert_eq!(framed[2].as_ptr(), data.as_ptr());
        let wire: Vec<u8> = framed.iter().flat_map(|p| p.iter().copied()).collect();
        let fr = frame::read_frame_any(&mut &wire[..]).unwrap();
        assert_eq!(fr.corr_id, None, "no correlation ID: v1 framing");
        assert_eq!(
            Response::decode(fr.payload).unwrap(),
            Response::DataList { data }
        );
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
