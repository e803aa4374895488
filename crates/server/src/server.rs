//! The DPFS I/O-node server: the generic serve core ([`crate::service`])
//! around the subfile [`Handler`], mirroring the paper's "server's spawning
//! multiple processes or threads to handle them" (§2). The metadata daemon
//! (`dpfs-metad`) reuses the same core around its own handler.
//!
//! Which thread serves a request is the Flash server's rule (Pai et al.,
//! USENIX ATC '99): the I/O shard that decoded it answers whatever it can
//! without waiting — names, sizes, and reads the page cache holds, which
//! the kernel tells apart (`sys::read_run`) — and hands the rest to a
//! worker: writes, flushes and reads that would touch the device.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dpfs_proto::{Request, Response};

use crate::handler::Handler;
use crate::perf::PerfModel;
use crate::service::{Attempt, ServeConfig, ServeCore, Service};
use crate::stats::StatsSnapshot;
use crate::subfile::SubfileStore;

/// Configuration for one I/O server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server name as registered in the metadata catalog
    /// (e.g. `ccn60.mcs.anl.gov`).
    pub name: String,
    /// Local directory holding this server's subfiles.
    pub root: PathBuf,
    /// Capacity cap in bytes (0 = unlimited).
    pub capacity: u64,
    /// Must be [`PerfModel::unthrottled`]: the server runs no cost model
    /// (`dpfs-bench` evaluates one over the requests it logs), and
    /// [`IoServer::start`] refuses any other. The field stays because
    /// `examples/benchmark` passes one to [`ServerConfig::new`].
    pub perf: PerfModel,
    /// Listen address; `127.0.0.1:0` (ephemeral localhost port) by default.
    pub bind: String,
    /// Serving-core sizing (I/O shards and workers).
    pub serve: ServeConfig,
}

impl ServerConfig {
    /// Convenience constructor with no capacity cap.
    pub fn new(name: impl Into<String>, root: impl Into<PathBuf>, perf: PerfModel) -> Self {
        ServerConfig {
            name: name.into(),
            root: root.into(),
            capacity: 0,
            perf,
            bind: "127.0.0.1:0".to_string(),
            serve: ServeConfig::default(),
        }
    }

    /// Set an explicit listen address (e.g. `0.0.0.0:7440` for a real
    /// deployment).
    pub fn bind(mut self, addr: &str) -> Self {
        self.bind = addr.to_string();
        self
    }
}

impl Service for Handler {
    fn name(&self) -> &str {
        Handler::name(self)
    }

    fn handle_traced(&self, req: Request, trace_id: u64) -> Response {
        Handler::handle_traced(self, req, trace_id)
    }

    /// Names and sizes are answered where they were decoded, and so is a
    /// read the page cache can serve whole from an open descriptor
    /// (`Handler::read_nowait`: the kernel says whether it would wait). Any
    /// other read, and whatever writes file bytes or flushes them, waits
    /// for the device and belongs to a worker.
    fn try_handle(&self, req: Request, trace_id: u64) -> Attempt {
        match req {
            Request::Ping
            | Request::Stats
            | Request::Stat { .. }
            | Request::Delete { .. }
            | Request::Meta { .. } => Attempt::Answered(self.handle_traced(req, trace_id)),
            Request::Read { .. } | Request::ReadList { .. } => self.read_nowait(req, trace_id),
            Request::Write { .. }
            | Request::WriteList { .. }
            | Request::Sync { .. }
            | Request::Shutdown => Attempt::HandedBack(req),
        }
    }

    fn note_connection(&self) {
        self.stats().connections.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running I/O server. Dropping the handle shuts the server down.
pub struct IoServer {
    name: String,
    handler: Arc<Handler>,
    core: ServeCore,
}

impl IoServer {
    /// Bind the configured address (ephemeral localhost port by default)
    /// and start serving. A `perf` other than [`PerfModel::unthrottled`]
    /// is refused with `InvalidInput`.
    pub fn start(config: ServerConfig) -> io::Result<IoServer> {
        if config.perf != PerfModel::unthrottled() {
            let why = "an I/O server runs no cost model (dpfs-bench evaluates one)";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let store = SubfileStore::open(&config.root, config.capacity)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let handler = Arc::new(Handler::new(&config.name, store));
        let core = ServeCore::start_with(&config.bind, handler.clone(), config.serve)?;
        Ok(IoServer {
            name: config.name,
            handler,
            core,
        })
    }

    /// The server's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// The server's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Statistics snapshot (includes store-level counters).
    pub fn stats(&self) -> StatsSnapshot {
        self.handler.stats_snapshot()
    }

    /// Direct access to the handler (in-process tests).
    pub fn handler(&self) -> &Arc<Handler> {
        &self.handler
    }

    /// Number of currently open client connections. (Connections
    /// deregister asynchronously after the peer closes, so a just-closed
    /// connection may be counted briefly.)
    pub fn open_connections(&self) -> usize {
        self.core.open_connections()
    }

    /// The server's thread count (acceptor + shards + workers), fixed at
    /// start whatever the number of connections — the C10K invariant.
    pub fn runtime_threads(&self) -> usize {
        self.core.runtime_threads()
    }

    /// Stop accepting, drain or sever live connections, and join every
    /// server thread. When this returns, the listener is
    /// closed, no server thread is running, and the port can be rebound
    /// immediately — a later restart on the same address never races a
    /// lingering listener or half-dead connection handler.
    pub fn stop(&mut self) {
        self.core.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dpfs_proto::{frame, Response};
    use std::net::TcpStream;

    fn start_server(tag: &str) -> (IoServer, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "dpfs-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server =
            IoServer::start(ServerConfig::new("test", &dir, PerfModel::unthrottled())).unwrap();
        (server, dir)
    }

    fn rpc(stream: &mut TcpStream, req: Request) -> Response {
        frame::write_frame_v2(stream, 1, &req.encode()).unwrap();
        let reply = frame::read_frame_any(stream).unwrap();
        assert_eq!(reply.corr_id, 1);
        Response::decode(reply.payload).unwrap()
    }

    #[test]
    fn tcp_write_read_cycle() {
        let (server, dir) = start_server("rw");
        let mut c = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(rpc(&mut c, Request::Ping), Response::Pong);
        let resp = rpc(
            &mut c,
            Request::Write {
                subfile: "/data".into(),
                ranges: vec![(0, Bytes::from_static(b"over tcp"))],
            },
        );
        assert_eq!(resp, Response::Written { bytes: 8 });
        let resp = rpc(
            &mut c,
            Request::Read {
                subfile: "/data".into(),
                ranges: vec![(5, 3)],
            },
        );
        match resp {
            Response::DataList { data } => assert_eq!(&data[..], b"tcp"),
            other => panic!("unexpected {other:?}"),
        }
        drop(c);
        drop(server);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The server runs no cost model: a config that asks for one is
    /// refused before anything is bound or opened.
    #[test]
    fn a_throttled_model_is_refused() {
        let dir = std::env::temp_dir().join(format!("dpfs-server-model-{}", std::process::id()));
        let model = crate::StorageClass::Class1.model();
        let err = IoServer::start(ServerConfig::new("test", &dir, model)).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidInput));
        assert!(!dir.exists(), "a refused server created its root");
    }

    #[test]
    fn concurrent_clients() {
        let (server, dir) = start_server("conc");
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..8 {
            handles.push(std::thread::spawn(move || {
                let mut c = TcpStream::connect(addr).unwrap();
                let data = Bytes::from(vec![i as u8; 1024]);
                let resp = rpc(
                    &mut c,
                    Request::Write {
                        subfile: format!("/f{i}"),
                        ranges: vec![(0, data.clone())],
                    },
                );
                assert_eq!(resp, Response::Written { bytes: 1024 });
                let resp = rpc(
                    &mut c,
                    Request::Read {
                        subfile: format!("/f{i}"),
                        ranges: vec![(0, 1024)],
                    },
                );
                match resp {
                    Response::DataList { data: got } => assert_eq!(got, data),
                    other => panic!("unexpected {other:?}"),
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = server.stats();
        assert_eq!(snap.writes, 8);
        assert_eq!(snap.reads, 8);
        assert_eq!(snap.connections, 8);
        drop(server);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn garbage_frame_drops_connection_cleanly() {
        use std::io::Write;
        let (server, dir) = start_server("garbage");
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.write_all(b"NOTDPFS_GARBAGE_____").unwrap();
        // server should close on us; a read sees EOF eventually
        let res = frame::read_frame_any(&mut c);
        assert!(res.is_err());
        // server still alive for new connections
        let mut c2 = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(rpc(&mut c2, Request::Ping), Response::Pong);
        drop(server);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        // Regression: the registry used to keep every connection ever
        // accepted, leaking one stream clone per client for the server's
        // lifetime.
        let (server, dir) = start_server("prune");
        for round in 0..5 {
            let mut c = TcpStream::connect(server.addr()).unwrap();
            assert_eq!(rpc(&mut c, Request::Ping), Response::Pong);
            assert!(
                server.open_connections() >= 1,
                "round {round}: live connection should be registered"
            );
            drop(c);
            // Deregistration happens on the shard thread after it sees
            // EOF; poll briefly rather than assuming immediacy.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while server.open_connections() > 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "round {round}: connection never deregistered"
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        assert_eq!(server.stats().connections, 5, "all 5 connections counted");
        drop(server);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stop_unblocks_and_is_idempotent() {
        let (mut server, dir) = start_server("stop");
        server.stop();
        server.stop();
        assert!(TcpStream::connect(server.addr())
            .map(|mut s| frame::read_frame_any(&mut s).is_err())
            .unwrap_or(true));
        drop(server);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn thread_count_is_flat_and_stop_frees_port() {
        // The C10K invariant at unit scale: the runtime never grows a
        // thread per connection, and stop() — which joins every server
        // thread — leaves the port immediately rebindable.
        let (mut server, dir) = start_server("flat");
        let addr = server.addr();
        let fixed = server.runtime_threads();
        assert!(fixed >= 3, "acceptor + >=1 shard + >=2 workers");
        let mut clients: Vec<TcpStream> =
            (0..16).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for c in clients.iter_mut() {
            assert_eq!(rpc(c, Request::Ping), Response::Pong);
        }
        assert_eq!(
            server.runtime_threads(),
            fixed,
            "16 connections must not change the thread count"
        );
        server.stop();
        assert_eq!(server.open_connections(), 0);
        for round in 0..3 {
            let cfg =
                ServerConfig::new("test", &dir, PerfModel::unthrottled()).bind(&addr.to_string());
            let mut restarted = IoServer::start(cfg)
                .unwrap_or_else(|e| panic!("round {round}: rebind of {addr} failed: {e}"));
            let mut c = TcpStream::connect(addr).unwrap();
            assert_eq!(rpc(&mut c, Request::Ping), Response::Pong);
            drop(c);
            restarted.stop();
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn shutdown_request_stops_server() {
        let (server, dir) = start_server("shutreq");
        let mut c = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(rpc(&mut c, Request::Shutdown), Response::Pong);
        // From here on a fresh connection is refused, or reset before it
        // gets an answer, and the server lets go of every connection it
        // held.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let answered = TcpStream::connect(server.addr()).is_ok_and(|mut fresh| {
                frame::write_frame_v2(&mut fresh, 1, &Request::Ping.encode()).is_ok()
                    && frame::read_frame_any(&mut fresh).is_ok()
            });
            if !answered && server.open_connections() == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "still serving after a wire shutdown (answered: {answered}, open: {})",
                server.open_connections()
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(server);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A wire `Request::Shutdown` must quiesce the whole server on its
    /// own — wake the acceptor, sever idle connections, close the
    /// listener — without a follow-up connection dialing in to unblock
    /// anything.
    #[test]
    fn wire_shutdown_quiesces_without_a_followup_connection() {
        let (server, dir) = start_server("wiredrain");
        let addr = server.addr();
        // An *idle* second connection: nothing will ever poke it.
        let mut idle = TcpStream::connect(addr).unwrap();
        assert_eq!(rpc(&mut idle, Request::Ping), Response::Pong);
        let mut c = TcpStream::connect(addr).unwrap();
        assert_eq!(
            rpc(&mut c, Request::Shutdown),
            Response::Pong,
            "shutdown must be acknowledged before the drain"
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        // The idle connection gets severed...
        idle.set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        let mut scratch = [0u8; 1];
        loop {
            use std::io::Read;
            match idle.read(&mut scratch) {
                Ok(0) => break, // EOF: severed
                Ok(_) => panic!("unsolicited bytes on the idle connection"),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "idle connection never severed by wire shutdown"
                    );
                }
                Err(_) => break, // reset: also severed
            }
        }
        // ...and the listener closes, with no client ever dialing in to
        // wake it.
        loop {
            match TcpStream::connect(addr) {
                Err(_) => break,
                Ok(_) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "listener still accepting after wire shutdown"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        }
        drop(server);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
