//! `dpfs-metad` — the DPFS metadata daemon.
//!
//! The paper's clients reach the four metadata tables through a *database
//! server* over the network (§5). This crate is that server: it owns the
//! embedded [`Database`] (no client ever touches the database directly),
//! and serves the [`MetaOp`] RPCs through the same accept-loop/worker-pool
//! core as the I/O servers ([`dpfs_server::ServeCore`]).
//!
//! Observability mirrors the I/O servers: traced requests record
//! `decode`/`queue`/`handle`/`respond` spans into the global ring, and
//! every op lands in a per-op service-time histogram exported through the
//! `Stats` RPC as one node of the stats document
//! ([`MetadStatsSnapshot::node`]).

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpfs_meta::{Catalog, Database, ShardMap};
use dpfs_obs::{
    now_ns, record_span, ClusterSnapshot, HistSnapshot, Histogram, NodeRole, NodeSnapshot, Side,
};
use dpfs_proto::{ErrorCode, MetaOp, MetaResult, Request, Response};
use dpfs_server::{Attempt, ServeCore, Service};
use parking_lot::Mutex;

/// Request-path counters plus per-op service-time histograms. Shared by
/// the serve core's workers; everything is atomic or
/// behind a short registry lock (the histograms themselves record
/// lock-free).
#[derive(Default)]
pub struct MetadStats {
    /// Total requests handled (all kinds, including Ping/Stats).
    pub requests: AtomicU64,
    /// Metadata operations handled (`Request::Meta` only).
    pub meta_ops: AtomicU64,
    /// Metadata operations that returned an error result.
    pub errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests currently being handled.
    pub in_flight: AtomicU64,
    /// Per-op service-time histograms, keyed by [`MetaOp::op_str`] label.
    /// Lazily populated; the lock only guards the registry, not recording.
    hists: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl MetadStats {
    /// The histogram for one op label, creating it on first use.
    fn hist_for(&self, op: &'static str) -> Arc<Histogram> {
        self.hists.lock().entry(op).or_default().clone()
    }

    /// Snapshot every counter and histogram.
    pub fn snapshot(&self, shard_id: u64, shards: u64) -> MetadStatsSnapshot {
        let op_latency = self
            .hists
            .lock()
            .iter()
            .map(|(op, h)| (op.to_string(), h.snapshot()))
            .collect();
        MetadStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            meta_ops: self.meta_ops.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            shard_id,
            shards,
            op_latency,
        }
    }
}

/// Point-in-time copy of [`MetadStats`]; the `Stats` RPC carries it as
/// [`MetadStatsSnapshot::node`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetadStatsSnapshot {
    pub requests: u64,
    pub meta_ops: u64,
    pub errors: u64,
    pub connections: u64,
    pub in_flight: u64,
    /// Which shard this daemon serves (0 for a single-shard deployment).
    pub shard_id: u64,
    /// Total shard count in the daemon's shard-map view (>= 1).
    pub shards: u64,
    /// Per-op service-time histograms, sorted by op label.
    pub op_latency: Vec<(String, HistSnapshot)>,
}

impl MetadStatsSnapshot {
    /// This snapshot as one node of the stats document: the `Stats` RPC
    /// answers `ClusterSnapshot { nodes: vec![node] }`. The metadata
    /// daemon's metric names are minted here — counters `meta.requests`,
    /// `meta.ops`, `meta.errors`, `meta.connections`; gauges `in_flight`,
    /// `shard_id`, `shards`; one service-time histogram per op, under its
    /// [`MetaOp::op_str`] label (already `meta.`-prefixed).
    pub fn node(&self, name: &str) -> NodeSnapshot {
        NodeSnapshot::new(
            name,
            NodeRole::Metad,
            [
                ("meta.connections", self.connections),
                ("meta.errors", self.errors),
                ("meta.ops", self.meta_ops),
                ("meta.requests", self.requests),
            ],
            [
                ("in_flight", self.in_flight),
                ("shard_id", self.shard_id),
                ("shards", self.shards),
            ],
            self.op_latency.iter().map(|(op, h)| (op.as_str(), *h)),
        )
    }
}

/// The metadata request handler: [`MetaOp`] in, [`MetaResult`] out. Owns
/// the [`Catalog`] (and through it the database); every connection worker
/// dispatches through one shared `MetaHandler`.
pub struct MetaHandler {
    name: String,
    store: Catalog,
    stats: MetadStats,
    /// Which shard of the namespace this daemon serves.
    shard_id: u32,
    /// The daemon's shard-map view; replies to `GetShardMap` and lets
    /// clients cross-check their mount topology.
    shard_map: ShardMap,
    /// The database fsyncs on commit: any op may then wait behind one.
    fsyncs: bool,
}

impl MetaHandler {
    /// Build a single-shard handler over a database, creating the DPFS
    /// tables if missing. `name` labels trace events.
    pub fn new(name: impl Into<String>, db: Arc<Database>) -> dpfs_meta::Result<MetaHandler> {
        Self::new_sharded(name, db, 0, 1)
    }

    /// Build a handler serving shard `shard_id` of a `shards`-wide
    /// metadata plane. The daemon trusts client routing — it serves
    /// whatever namespace slice clients send it — but stamps every reply
    /// with its shard id so a misrouted client fails loudly.
    pub fn new_sharded(
        name: impl Into<String>,
        db: Arc<Database>,
        shard_id: u32,
        shards: u32,
    ) -> dpfs_meta::Result<MetaHandler> {
        Ok(MetaHandler {
            name: name.into(),
            fsyncs: db.syncs_on_commit(),
            store: Catalog::for_shard(db, shard_id)?,
            stats: MetadStats::default(),
            shard_id,
            shard_map: ShardMap::new(shards),
        })
    }

    /// The daemon name trace events are stamped with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which shard this daemon serves.
    pub fn shard_id(&self) -> u32 {
        self.shard_id
    }

    /// The daemon's shard-map view.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// The backing store (in-process tests and the testbed reach through
    /// to seed the catalog).
    pub fn store(&self) -> &Catalog {
        &self.store
    }

    /// The request-path counters and histograms.
    pub fn stats(&self) -> &MetadStats {
        &self.stats
    }

    /// A stats snapshot stamped with this daemon's shard.
    pub fn stats_snapshot(&self) -> MetadStatsSnapshot {
        self.stats
            .snapshot(u64::from(self.shard_id), u64::from(self.shard_map.shards))
    }

    /// Handle one request (untraced); see [`MetaHandler::handle_traced`].
    pub fn handle(&self, req: Request) -> Response {
        self.handle_traced(req, 0)
    }

    /// Handle one request stamped with `trace_id` (0 = untraced): records
    /// a `handle` span and the per-op service-time histogram sample.
    pub fn handle_traced(&self, req: Request, trace_id: u64) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let resp = match req {
            Request::Ping | Request::Shutdown => Response::Pong,
            Request::Stats => Response::Stats {
                payload: bytes::Bytes::from(
                    ClusterSnapshot {
                        nodes: vec![self.stats_snapshot().node(&self.name)],
                    }
                    .encode(),
                ),
            },
            Request::Meta { op } => {
                self.stats.meta_ops.fetch_add(1, Ordering::Relaxed);
                let kind = op.op_str();
                let t0 = now_ns();
                let result = match op {
                    MetaOp::GetShardMap => Ok(MetaResult::ShardMap {
                        shards: self.shard_map.shards,
                    }),
                    op => op.apply(&self.store),
                }
                .unwrap_or_else(|e| MetaResult::from_err(&e));
                let dur = now_ns().saturating_sub(t0);
                self.stats.hist_for(kind).record(dur);
                record_span(
                    Side::Server,
                    trace_id,
                    "handle",
                    kind,
                    &self.name,
                    t0,
                    dur,
                    0,
                );
                dpfs_obs::slowlog().note(
                    dpfs_obs::Side::Server,
                    kind,
                    &self.name,
                    trace_id,
                    dur,
                    0,
                );
                if matches!(result, MetaResult::Err { .. }) {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                Response::Meta {
                    shard: self.shard_id,
                    result,
                }
            }
            // I/O requests belong to the I/O servers; a client that dials
            // the metadata port gets a clean protocol error.
            other => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("{} sent to the metadata server", other.kind_str()),
                }
            }
        };
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        resp
    }
}

impl Service for MetaHandler {
    fn name(&self) -> &str {
        MetaHandler::name(self)
    }

    fn handle_traced(&self, req: Request, trace_id: u64) -> Response {
        MetaHandler::handle_traced(self, req, trace_id)
    }

    /// A catalog op is microseconds of in-memory SQL and one buffered WAL
    /// append, so it is answered where it was decoded — unless commits
    /// fsync: then every op, reads included, may queue behind a flush under
    /// the database's transaction gate, and all of them go to the workers.
    /// An audit scans every table, which is not microseconds: it always
    /// goes to a worker.
    fn try_handle(&self, req: Request, trace_id: u64) -> Attempt {
        let audit = matches!(
            req,
            Request::Meta {
                op: MetaOp::Audit { .. }
            }
        );
        if self.fsyncs || audit {
            return Attempt::HandedBack(req);
        }
        Attempt::Answered(MetaHandler::handle_traced(self, req, trace_id))
    }

    fn note_connection(&self) {
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
    }
}

/// Configuration for one metadata daemon.
#[derive(Debug, Clone)]
pub struct MetadConfig {
    /// Daemon name stamped on trace events (`metad` by default).
    pub name: String,
    /// Database directory; `None` runs fully in memory (tests).
    pub dir: Option<PathBuf>,
    /// Whether on-disk databases fsync on commit.
    pub sync_on_commit: bool,
    /// Listen address; `127.0.0.1:0` (ephemeral localhost port) by default.
    pub bind: String,
    /// Which shard of the namespace this daemon serves (default 0).
    pub shard_id: u32,
    /// Total shard count in the metadata plane (default 1).
    pub shards: u32,
}

impl Default for MetadConfig {
    fn default() -> Self {
        MetadConfig {
            name: "metad".to_string(),
            dir: None,
            sync_on_commit: false,
            bind: "127.0.0.1:0".to_string(),
            shard_id: 0,
            shards: 1,
        }
    }
}

impl MetadConfig {
    /// In-memory daemon on an ephemeral port (tests, testbeds).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Persist the catalog under `dir`.
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Set an explicit listen address.
    pub fn bind(mut self, addr: &str) -> Self {
        self.bind = addr.to_string();
        self
    }

    /// Set the trace-event name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Serve shard `shard_id` of a `shards`-wide metadata plane.
    pub fn shard(mut self, shard_id: u32, shards: u32) -> Self {
        self.shard_id = shard_id;
        self.shards = shards.max(1);
        self
    }
}

/// A running metadata daemon. Dropping the handle shuts it down.
pub struct MetaServer {
    handler: Arc<MetaHandler>,
    core: ServeCore,
}

impl MetaServer {
    /// Open (or create) the database and start serving.
    pub fn start(config: MetadConfig) -> io::Result<MetaServer> {
        let db = match &config.dir {
            Some(dir) => Database::open_with_sync(dir, config.sync_on_commit)
                .map_err(|e| io::Error::other(e.to_string()))?,
            None => Database::in_memory(),
        };
        Self::start_with_db(config, Arc::new(db))
    }

    /// Start serving over an already-open database (the daemon still owns
    /// it: nothing else should touch `db` once serving starts).
    pub fn start_with_db(config: MetadConfig, db: Arc<Database>) -> io::Result<MetaServer> {
        let handler = Arc::new(
            MetaHandler::new_sharded(&config.name, db, config.shard_id, config.shards)
                .map_err(|e| io::Error::other(e.to_string()))?,
        );
        let core = ServeCore::start(&config.bind, handler.clone())?;
        Ok(MetaServer { handler, core })
    }

    /// The daemon's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Direct access to the handler (in-process tests & testbed seeding).
    pub fn handler(&self) -> &Arc<MetaHandler> {
        &self.handler
    }

    /// Statistics snapshot (see [`MetaHandler::stats_snapshot`]).
    pub fn stats(&self) -> MetadStatsSnapshot {
        self.handler.stats_snapshot()
    }

    /// Number of currently open client connections.
    pub fn open_connections(&self) -> usize {
        self.core.open_connections()
    }

    /// Stop accepting, sever live connections, and join every server
    /// thread; the port is immediately rebindable afterwards.
    pub fn stop(&mut self) {
        self.core.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfs_meta::{Distribution, FileAttrRow, MetaError, ServerInfo};
    use dpfs_obs::ring;
    use dpfs_proto::frame;
    use std::net::TcpStream;

    fn handler() -> MetaHandler {
        MetaHandler::new("metad-test", Arc::new(Database::in_memory())).unwrap()
    }

    fn attr(name: &str) -> FileAttrRow {
        FileAttrRow {
            filename: name.to_string(),
            owner: "t".into(),
            permission: 0o644,
            size: 0,
            filelevel: "linear".into(),
            dims: 0,
            dimsize: vec![],
            stripe_dims: vec![],
            stripe_size: 65536,
            pattern: String::new(),
            placement: "round_robin".into(),
            redundancy: String::new(),
        }
    }

    fn meta(h: &MetaHandler, op: MetaOp) -> MetaResult {
        match h.handle(Request::Meta { op }) {
            Response::Meta { result, .. } => result,
            other => panic!("expected Meta response, got {other:?}"),
        }
    }

    #[test]
    fn full_surface_dispatches() {
        let h = handler();
        let r = meta(
            &h,
            MetaOp::RegisterServer {
                info: ServerInfo {
                    name: "s0".into(),
                    capacity: 1 << 30,
                    performance: 1,
                },
            },
        );
        assert_eq!(r, MetaResult::Unit);
        let r = meta(&h, MetaOp::ListServers);
        assert!(matches!(r, MetaResult::Servers(ref xs) if xs.len() == 1));
        let r = meta(&h, MetaOp::Mkdir { path: "/d".into() });
        assert_eq!(r, MetaResult::Unit);
        let r = meta(
            &h,
            MetaOp::CreateFile {
                attr: attr("/d/f"),
                dist: vec![Distribution {
                    server: "s0".into(),
                    filename: "/d/f".into(),
                    bricklist: vec![0, 1, 2],
                }],
            },
        );
        let MetaResult::MaybeEntry(Some(created)) = r else {
            panic!("create answers with the entry it made, got {r:?}");
        };
        assert_eq!((created.id, created.attr.filename.as_str()), (2, "/d/f"));
        let r = meta(
            &h,
            MetaOp::GetFileAttr {
                filename: "/d/f".into(),
            },
        );
        assert!(matches!(r, MetaResult::MaybeAttr(Some(_))));
        let r = meta(
            &h,
            MetaOp::SetTag {
                filename: "/d/f".into(),
                tag: "k".into(),
                value: "v".into(),
            },
        );
        assert_eq!(r, MetaResult::Unit);
        let r = meta(
            &h,
            MetaOp::FindByTag {
                tag: "k".into(),
                pattern: "v".into(),
            },
        );
        assert!(matches!(r, MetaResult::TagHits(ref xs) if xs.len() == 1));
        let r = meta(&h, MetaOp::ServerBrickCounts);
        assert_eq!(r, MetaResult::BrickCounts(vec![("s0".into(), 3)]));
        let r = meta(
            &h,
            MetaOp::RenameFile {
                from: "/d/f".into(),
                to: "/d/g".into(),
            },
        );
        let MetaResult::MaybeEntry(Some(moved)) = r else {
            panic!("rename answers with the entry it moved, got {r:?}");
        };
        assert_eq!(
            (moved.id, moved.attr.filename.as_str(), moved.dist.len()),
            (created.id, "/d/g", 1)
        );
        let r = meta(
            &h,
            MetaOp::OpenFile {
                filename: "/d/g".into(),
            },
        );
        assert_eq!(r, MetaResult::MaybeEntry(Some(moved.clone())));
        let r = meta(
            &h,
            MetaOp::DeleteFile {
                filename: "/d/g".into(),
            },
        );
        assert_eq!(r, MetaResult::MaybeEntry(Some(moved)));
        let r = meta(
            &h,
            MetaOp::OpenFile {
                filename: "/d/g".into(),
            },
        );
        assert_eq!(r, MetaResult::MaybeEntry(None));
    }

    /// An audit reads every table, so no shard thread answers it, even on
    /// a daemon whose other ops it would; it changes nothing unless asked to
    /// repair.
    #[test]
    fn an_audit_goes_to_a_worker_and_answers_what_it_found() {
        let h = handler();
        let audit = |repair| Request::Meta {
            op: MetaOp::Audit { repair },
        };
        let listed = h.try_handle(
            Request::Meta {
                op: MetaOp::ListServers,
            },
            0,
        );
        assert!(
            matches!(listed, Attempt::Answered(Response::Meta { .. })),
            "answered inline: {listed:?}"
        );
        for repair in [false, true] {
            assert_eq!(
                h.try_handle(audit(repair), 0),
                Attempt::HandedBack(audit(repair))
            );
        }
        meta(&h, MetaOp::Mkdir { path: "/d".into() });
        let r = meta(&h, MetaOp::Audit { repair: false });
        let MetaResult::Audit(found) = r else {
            panic!("expected an audit, got {r:?}");
        };
        assert_eq!((found.issues.len(), found.dirs), (0, 2));
    }

    #[test]
    fn errors_travel_as_results_not_protocol_errors() {
        let h = handler();
        let r = meta(&h, MetaOp::Mkdir { path: "/d".into() });
        assert_eq!(r, MetaResult::Unit);
        let r = meta(&h, MetaOp::Mkdir { path: "/d".into() });
        let MetaResult::Err { code, message } = r else {
            panic!("duplicate mkdir must fail, got {r:?}");
        };
        assert!(matches!(
            MetaError::from_wire(code, message),
            MetaError::DuplicateKey(_)
        ));
        assert_eq!(h.stats().errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn io_requests_are_rejected() {
        let h = handler();
        let resp = h.handle(Request::Read {
            subfile: "/f".into(),
            ranges: vec![(0, 8)],
        });
        match resp {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("metadata server"), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn per_op_histograms_reach_the_stats_node() {
        let h = handler();
        meta(&h, MetaOp::Mkdir { path: "/d".into() });
        meta(&h, MetaOp::GetDir { path: "/d".into() });
        meta(&h, MetaOp::GetDir { path: "/d".into() });
        let resp = h.handle(Request::Stats);
        let Response::Stats { payload } = resp else {
            panic!("expected Stats response, got {resp:?}");
        };
        let snap = ClusterSnapshot::decode(&payload).unwrap();
        let [node] = &snap.nodes[..] else {
            panic!("one node, got {snap:?}");
        };
        assert_eq!(
            (node.name.as_str(), node.role),
            ("metad-test", NodeRole::Metad)
        );
        assert_eq!(node.counter("meta.ops"), Some(3));
        assert_eq!(node.counter("meta.requests"), Some(4));
        assert_eq!(node.hist("meta.get_dir").map(|h| h.count), Some(2));
        assert_eq!(node.hist("meta.mkdir").map(|h| h.count), Some(1));
        assert_eq!(
            (node.gauge("shard_id"), node.gauge("shards")),
            (Some(0), Some(1))
        );
    }

    #[test]
    fn sharded_handler_stamps_shard_and_serves_the_map() {
        let h = MetaHandler::new_sharded("metad1", Arc::new(Database::in_memory()), 1, 4).unwrap();
        let resp = h.handle(Request::Meta {
            op: MetaOp::GetShardMap,
        });
        let Response::Meta {
            shard,
            result: MetaResult::ShardMap { shards },
        } = resp
        else {
            panic!("expected shard map, got {resp:?}");
        };
        assert_eq!(shard, 1);
        assert_eq!(shards, 4);
        // The shard's number is the high bits of every file id it mints.
        let created = meta(
            &h,
            MetaOp::CreateFile {
                attr: attr("/f"),
                dist: vec![],
            },
        );
        let MetaResult::MaybeEntry(Some(entry)) = created else {
            panic!("expected the created entry, got {created:?}");
        };
        assert_eq!(entry.id >> 48, 1);
        let snap = h.stats_snapshot();
        assert_eq!((snap.shard_id, snap.shards), (1, 4));
        let node = snap.node("metad1");
        assert_eq!(
            (node.gauge("shard_id"), node.gauge("shards")),
            (Some(1), Some(4))
        );
        // the default constructor stays shard 0-of-1
        let h0 = handler();
        let resp = h0.handle(Request::Meta {
            op: MetaOp::GetShardMap,
        });
        assert!(matches!(resp, Response::Meta { shard: 0, .. }));
    }

    #[test]
    fn rename_two_phase_ops_dispatch_over_the_handler() {
        // Source and destination shards as two independent handlers.
        let src = MetaHandler::new_sharded("m0", Arc::new(Database::in_memory()), 0, 2).unwrap();
        let dst = MetaHandler::new_sharded("m1", Arc::new(Database::in_memory()), 1, 2).unwrap();
        for h in [&src, &dst] {
            let r = meta(h, MetaOp::Mkdir { path: "/d".into() });
            assert_eq!(r, MetaResult::Unit);
        }
        let r = meta(
            &src,
            MetaOp::CreateFile {
                attr: attr("/d/f"),
                dist: vec![],
            },
        );
        assert!(matches!(r, MetaResult::MaybeEntry(Some(_))), "{r:?}");
        let r = meta(
            &src,
            MetaOp::RenamePrepare {
                from: "/d/f".into(),
                to: "/d/g".into(),
            },
        );
        let MetaResult::RenamePrepared {
            intent, mut entry, ..
        } = r
        else {
            panic!("expected RenamePrepared, got {r:?}");
        };
        entry.attr.filename = "/d/g".into();
        let r = meta(
            &dst,
            MetaOp::RenameCommit {
                entry: entry.clone(),
                tags: vec![],
            },
        );
        assert_eq!(r, MetaResult::Unit);
        // The file keeps the id shard 0 gave it on shard 1.
        let r = meta(
            &dst,
            MetaOp::OpenFile {
                filename: "/d/g".into(),
            },
        );
        assert_eq!(r, MetaResult::MaybeEntry(Some(entry)));
        let r = meta(&src, MetaOp::ListRenameIntents);
        assert_eq!(
            r,
            MetaResult::Intents(vec![(intent, "/d/f".into(), "/d/g".into())])
        );
        let r = meta(&src, MetaOp::RenameFinish { intent });
        assert_eq!(r, MetaResult::Unit);
        let r = meta(&src, MetaOp::ListRenameIntents);
        assert_eq!(r, MetaResult::Intents(vec![]));
        let r = meta(
            &dst,
            MetaOp::GetFileAttr {
                filename: "/d/g".into(),
            },
        );
        assert!(matches!(r, MetaResult::MaybeAttr(Some(_))));
        let r = meta(
            &src,
            MetaOp::GetFileAttr {
                filename: "/d/f".into(),
            },
        );
        assert!(matches!(r, MetaResult::MaybeAttr(None)));
    }

    #[test]
    fn traced_meta_ops_record_handle_events() {
        let h = handler();
        let trace_id = dpfs_obs::next_trace_id();
        let cursor = ring().cursor();
        h.handle_traced(
            Request::Meta {
                op: MetaOp::Mkdir { path: "/t".into() },
            },
            trace_id,
        );
        let events: Vec<_> = ring()
            .events_since(cursor)
            .into_iter()
            .filter(|e| e.trace_id == trace_id)
            .collect();
        assert!(
            events
                .iter()
                .any(|e| e.phase == "handle" && e.kind == "meta.mkdir" && e.server == "metad-test"),
            "missing metad handle event in {events:?}"
        );
    }

    #[test]
    fn tcp_round_trip_via_serve_core() {
        let mut server = MetaServer::start(MetadConfig::in_memory()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let rpc = |c: &mut TcpStream, req: Request| -> Response {
            frame::write_frame_v2(c, 1, &req.encode()).unwrap();
            Response::decode(frame::read_frame_any(c).unwrap().payload).unwrap()
        };
        assert_eq!(rpc(&mut c, Request::Ping), Response::Pong);
        let resp = rpc(
            &mut c,
            Request::Meta {
                op: MetaOp::Mkdir {
                    path: "/net".into(),
                },
            },
        );
        let Response::Meta { result, .. } = resp else {
            panic!("expected Meta response, got {resp:?}");
        };
        assert_eq!(result, MetaResult::Unit);
        let resp = rpc(
            &mut c,
            Request::Meta {
                op: MetaOp::GetDir {
                    path: "/net".into(),
                },
            },
        );
        match resp {
            Response::Meta {
                result: MetaResult::MaybeDir(Some(d)),
                ..
            } => assert_eq!(d.main_dir, "/net"),
            other => panic!("expected dir, got {other:?}"),
        }
        drop(c);
        server.stop();
    }

    #[test]
    fn persistent_metad_survives_restart() {
        let dir = std::env::temp_dir().join(format!(
            "dpfs-metad-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = MetadConfig::in_memory().dir(&dir);
        let mut server = MetaServer::start(config.clone()).unwrap();
        server.handler().store().mkdir("/kept").unwrap();
        server.stop();
        drop(server);
        let server = MetaServer::start(config).unwrap();
        assert!(server.handler().store().get_dir("/kept").unwrap().is_some());
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
