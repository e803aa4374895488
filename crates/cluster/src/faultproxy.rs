//! A fault-injecting TCP proxy for chaos testing.
//!
//! Sits between a DPFS client and one I/O server, relaying whole protocol
//! frames (either wire version) and misbehaving on demand: delaying frames,
//! severing connections after every N frames, truncating a response
//! mid-frame, or refusing connections outright. Because it cuts at frame
//! granularity it exercises exactly the failure surface the client's retry
//! layer must absorb — torn frames, dropped connections, and stalls —
//! without ever corrupting a frame silently (the checksum still protects
//! payload bytes end to end).
//!
//! A *recording* proxy ([`FaultProxy::recording`]) also writes down every
//! data request it relays to its server, each connection's in the order it
//! carried them: the request stream `dpfs-bench` evaluates the storage cost
//! model over.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dpfs_proto::{read_frame_any, write_frame_v2, write_frame_v3, Frame, FrameError, Request};

/// Live-tunable fault injection knobs. All relaxed atomics: tests flip them
/// while traffic is flowing.
#[derive(Debug, Default)]
pub struct FaultKnobs {
    /// Delay every relayed frame by this many milliseconds (0 = off).
    pub delay_ms: AtomicU64,
    /// Sever the connection instead of relaying every Nth frame, counted
    /// across all connections (0 = never). The frame that triggers the cut
    /// is dropped, so one side is always left waiting for a response — the
    /// client sees `Disconnected`, not a clean close.
    pub cut_every_frames: AtomicU64,
    /// One-shot: write only half of the next server→client frame, then
    /// sever. Exercises the torn-frame path in the client's reader.
    pub truncate_next: AtomicBool,
    /// Accept and immediately close new connections (server "down" without
    /// releasing the port).
    pub refuse: AtomicBool,
}

/// One data request (`Read`, `ReadList`, `Write`, `WriteList`) a recording
/// proxy relayed to its server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Received {
    /// Its frame's trace ID (0 = untraced).
    pub trace_id: u64,
    /// Ranges it names (a pattern's, expanded).
    pub ranges: usize,
    /// Bytes it reads or writes.
    pub bytes: u64,
}

/// What `frame` asks of the server, if it is a data request.
fn received(frame: &Frame) -> Option<Received> {
    let req = Request::decode(frame.payload.clone()).ok()?;
    let ranges = match &req {
        Request::Read { ranges, .. } => ranges.len(),
        Request::Write { ranges, .. } => ranges.len(),
        Request::ReadList { pattern, .. } | Request::WriteList { pattern, .. } => {
            pattern.num_ranges()
        }
        _ => return None,
    };
    let (trace_id, bytes) = (frame.trace_id, req.payload_bytes());
    Some(Received {
        trace_id,
        ranges,
        bytes,
    })
}

struct Shared {
    knobs: FaultKnobs,
    /// Whether relayed data requests go into `received`.
    recording: AtomicBool,
    received: Mutex<Vec<Received>>,
    /// Frames seen across all connections (drives `cut_every_frames`).
    frames: AtomicU64,
    connections: AtomicU64,
    cuts: AtomicU64,
    shutdown: AtomicBool,
    /// Client/upstream socket pairs of live relays, for `sever_all`.
    conns: Mutex<Vec<(TcpStream, TcpStream)>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// A running proxy instance. Dropping it stops the proxy and severs
/// everything it was relaying.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on an ephemeral localhost port, relaying each accepted
    /// connection to `upstream`.
    pub fn start(upstream: SocketAddr) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            knobs: FaultKnobs::default(),
            recording: AtomicBool::new(false),
            received: Mutex::new(Vec::new()),
            frames: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            cuts: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("faultproxy-accept".into())
            .spawn(move || accept_loop(listener, upstream, accept_shared))?;
        Ok(FaultProxy {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// [`FaultProxy::start`], recording every data request it relays (see
    /// [`FaultProxy::take_received`]).
    pub fn recording(upstream: SocketAddr) -> io::Result<FaultProxy> {
        let proxy = Self::start(upstream)?;
        proxy.shared.recording.store(true, Ordering::Relaxed);
        Ok(proxy)
    }

    /// The address clients should dial instead of the real server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fault injection knobs (shared with the relay threads).
    pub fn knobs(&self) -> &FaultKnobs {
        &self.shared.knobs
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Frames seen so far (relayed or dropped by a cut).
    pub fn frames(&self) -> u64 {
        self.shared.frames.load(Ordering::Relaxed)
    }

    /// The data requests relayed since the last call (none unless
    /// [`FaultProxy::recording`]). A request is recorded before it is
    /// relayed, so every request whose reply a client has is in.
    pub fn take_received(&self) -> Vec<Received> {
        std::mem::take(&mut *self.shared.received.lock().unwrap())
    }

    /// Connections deliberately severed (cuts + truncations).
    pub fn cuts(&self) -> u64 {
        self.shared.cuts.load(Ordering::Relaxed)
    }

    /// Sever every live relayed connection right now (both sides), leaving
    /// the proxy itself up so clients can redial.
    pub fn sever_all(&self) {
        let mut conns = self.shared.conns.lock().unwrap();
        for (client, server) in conns.drain(..) {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting, sever all relays, and reap every thread.
    pub fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock accept() by dialing ourselves.
        let _ = TcpStream::connect(self.addr);
        self.sever_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let pumps = std::mem::take(&mut *self.shared.pumps.lock().unwrap());
        for t in pumps {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, upstream: SocketAddr, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = stream else { continue };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        if shared.knobs.refuse.load(Ordering::Relaxed) {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(server) = TcpStream::connect(upstream) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let Ok(pair) = register(&shared, &client, &server) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            continue;
        };
        spawn_pumps(&shared, client, server, pair);
    }
}

type SocketPair = (TcpStream, TcpStream);

/// Register a relay's socket pair for `sever_all` and hand back clones the
/// pump threads use to sever their own relay on a fault.
fn register(shared: &Shared, client: &TcpStream, server: &TcpStream) -> io::Result<SocketPair> {
    let for_registry = (client.try_clone()?, server.try_clone()?);
    let for_pumps = (client.try_clone()?, server.try_clone()?);
    shared.conns.lock().unwrap().push(for_registry);
    Ok(for_pumps)
}

fn spawn_pumps(shared: &Arc<Shared>, client: TcpStream, server: TcpStream, pair: SocketPair) {
    let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
        sever(&pair);
        return;
    };
    let (Ok(p1), Ok(p2)) = (clone_pair(&pair), clone_pair(&pair)) else {
        sever(&pair);
        return;
    };
    let sh1 = shared.clone();
    let sh2 = shared.clone();
    let mut pumps = shared.pumps.lock().unwrap();
    // Reap finished pump threads so long-lived proxies don't accumulate.
    let (finished, live): (Vec<_>, Vec<_>) = std::mem::take(&mut *pumps)
        .into_iter()
        .partition(|t| t.is_finished());
    *pumps = live;
    drop(pumps);
    for t in finished {
        let _ = t.join();
    }
    let up = std::thread::Builder::new()
        .name("faultproxy-up".into())
        .spawn(move || pump(client, s2, p1, sh1, false));
    let down = std::thread::Builder::new()
        .name("faultproxy-down".into())
        .spawn(move || pump(server, c2, p2, sh2, true));
    let mut pumps = shared.pumps.lock().unwrap();
    pumps.extend(up);
    pumps.extend(down);
}

fn clone_pair(pair: &SocketPair) -> Result<SocketPair, io::Error> {
    Ok((pair.0.try_clone()?, pair.1.try_clone()?))
}

fn sever(pair: &SocketPair) {
    let _ = pair.0.shutdown(Shutdown::Both);
    let _ = pair.1.shutdown(Shutdown::Both);
}

/// Relay frames `src` → `dst` until EOF, error, or an injected fault.
/// `server_to_client` marks the response direction (where truncation
/// applies). Any fault severs *both* sockets so the client's transport sees
/// a hard disconnect immediately instead of waiting out an RPC deadline.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    pair: SocketPair,
    shared: Arc<Shared>,
    server_to_client: bool,
) {
    loop {
        let frame = match read_frame_any(&mut src) {
            Ok(f) => f,
            Err(_) => {
                sever(&pair);
                return;
            }
        };
        let delay = shared.knobs.delay_ms.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
        if server_to_client && shared.knobs.truncate_next.swap(false, Ordering::Relaxed) {
            let mut buf = Vec::new();
            let _ = encode_frame(&mut buf, &frame);
            let _ = dst.write_all(&buf[..buf.len() / 2]);
            shared.cuts.fetch_add(1, Ordering::Relaxed);
            sever(&pair);
            return;
        }
        let seen = shared.frames.fetch_add(1, Ordering::Relaxed) + 1;
        let cut_every = shared.knobs.cut_every_frames.load(Ordering::Relaxed);
        if cut_every > 0 && seen.is_multiple_of(cut_every) {
            shared.cuts.fetch_add(1, Ordering::Relaxed);
            sever(&pair);
            return;
        }
        if !server_to_client && shared.recording.load(Ordering::Relaxed) {
            shared.received.lock().unwrap().extend(received(&frame));
        }
        if encode_frame(&mut dst, &frame).is_err() {
            sever(&pair);
            return;
        }
    }
}

/// Re-encode a decoded frame in its original wire version.
fn encode_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), FrameError> {
    if frame.trace_id != 0 {
        write_frame_v3(w, frame.corr_id, frame.trace_id, &frame.payload)
    } else {
        write_frame_v2(w, frame.corr_id, &frame.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfs_proto::{Request, Response};
    use std::io::Read;

    /// A minimal upstream echoing Pong to every request.
    fn pong_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                std::thread::spawn(move || {
                    while let Ok(frame) = read_frame_any(&mut stream) {
                        let payload = Response::Pong.encode();
                        if write_frame_v2(&mut stream, frame.corr_id, &payload).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, t)
    }

    #[test]
    fn relays_frames_transparently() {
        let (upstream, _t) = pong_upstream();
        let proxy = FaultProxy::start(upstream).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        for corr in 1..=3u64 {
            write_frame_v2(&mut conn, corr, &Request::Ping.encode()).unwrap();
            let frame = read_frame_any(&mut conn).unwrap();
            assert_eq!(frame.corr_id, corr);
            assert_eq!(Response::decode(frame.payload).unwrap(), Response::Pong);
        }
        assert_eq!(proxy.connections(), 1);
        assert!(proxy.frames() >= 6, "both directions counted");
    }

    /// A recording proxy writes down the data requests it relays, in order,
    /// with their trace IDs; nothing else.
    #[test]
    fn recording_notes_each_data_request_it_relays() {
        use bytes::Bytes;
        use dpfs_proto::AccessPattern;
        let (upstream, _t) = pong_upstream();
        let proxy = FaultProxy::recording(upstream).unwrap();
        let send = |conn: &mut TcpStream, trace_id: u64, req: Request| {
            write_frame_v3(conn, 1, trace_id, &req.encode()).unwrap();
            read_frame_any(conn).unwrap();
        };
        let mut first = TcpStream::connect(proxy.addr()).unwrap();
        send(&mut first, 7, Request::Ping);
        let ranges = vec![(0, 10), (64, 6)];
        send(
            &mut first,
            7,
            Request::Read {
                subfile: "/f".into(),
                ranges,
            },
        );
        let mut second = TcpStream::connect(proxy.addr()).unwrap();
        let pattern = AccessPattern::from_runs(&[(0, 4), (16, 4), (32, 4)]);
        send(
            &mut second,
            9,
            Request::WriteList {
                subfile: "/f".into(),
                pattern,
                payload: Bytes::from(vec![1u8; 12]),
            },
        );
        let got = proxy.take_received();
        let want = |trace_id, ranges, bytes| Received {
            trace_id,
            ranges,
            bytes,
        };
        assert_eq!(got, [want(7, 2, 16), want(9, 3, 12)]);
        assert!(proxy.take_received().is_empty(), "taken");
    }

    #[test]
    fn cut_every_frames_severs_the_connection() {
        let (upstream, _t) = pong_upstream();
        let proxy = FaultProxy::start(upstream).unwrap();
        proxy.knobs().cut_every_frames.store(3, Ordering::Relaxed);
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        // Frame 1 (request) + frame 2 (response) relay; frame 3 triggers.
        write_frame_v2(&mut conn, 1, &Request::Ping.encode()).unwrap();
        read_frame_any(&mut conn).unwrap();
        write_frame_v2(&mut conn, 2, &Request::Ping.encode()).unwrap();
        assert!(
            read_frame_any(&mut conn).is_err(),
            "cut frame must not be relayed"
        );
        assert_eq!(proxy.cuts(), 1);
    }

    #[test]
    fn truncate_next_tears_a_response_mid_frame() {
        let (upstream, _t) = pong_upstream();
        let proxy = FaultProxy::start(upstream).unwrap();
        proxy.knobs().truncate_next.store(true, Ordering::Relaxed);
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        write_frame_v2(&mut conn, 7, &Request::Ping.encode()).unwrap();
        // The torn response must decode as an error, never hang or panic.
        assert!(read_frame_any(&mut conn).is_err());
        // And the connection is dead: EOF on further reads.
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest);
        assert_eq!(proxy.cuts(), 1);
    }

    #[test]
    fn refuse_drops_new_connections_and_sever_all_kills_live_ones() {
        let (upstream, _t) = pong_upstream();
        let proxy = FaultProxy::start(upstream).unwrap();
        let mut live = TcpStream::connect(proxy.addr()).unwrap();
        write_frame_v2(&mut live, 1, &Request::Ping.encode()).unwrap();
        read_frame_any(&mut live).unwrap();

        proxy.knobs().refuse.store(true, Ordering::Relaxed);
        let mut refused = TcpStream::connect(proxy.addr()).unwrap();
        assert!(
            read_frame_any(&mut refused).is_err(),
            "refused conn closes without data"
        );

        proxy.sever_all();
        write_frame_v2(&mut live, 2, &Request::Ping.encode()).ok();
        assert!(read_frame_any(&mut live).is_err(), "live conn was severed");
    }
}
