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
//! `Stats` RPC as a [`MetadStatsSnapshot`].

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpfs_meta::{Catalog, Database, ShardMap};
use dpfs_obs::{now_ns, ring, HistSnapshot, Histogram, Side, TraceEvent};
use dpfs_proto::{ErrorCode, MetaOp, MetaResult, Request, Response};
use dpfs_server::{ServeCore, Service};
use parking_lot::Mutex;

/// Record one metad-side span into the global trace ring. No-op when
/// `trace_id` is 0 (untraced request).
fn metad_event(
    trace_id: u64,
    phase: &'static str,
    kind: &'static str,
    server: &str,
    start_ns: u64,
    dur_ns: u64,
) {
    if trace_id == 0 {
        return;
    }
    ring().record(TraceEvent {
        seq: 0,
        trace_id,
        side: Side::Server,
        phase,
        kind,
        server: server.to_string(),
        start_ns,
        dur_ns,
        bytes: 0,
    });
}

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

/// Point-in-time copy of [`MetadStats`], carried as the metadata daemon's
/// `Stats` RPC payload. Its wire format is distinct from the I/O server's
/// `StatsSnapshot` (different leading version byte), so a stats client can
/// tell which kind of server it asked.
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

/// Version byte leading a metad stats blob. The I/O server's snapshots
/// start at 1 and count up slowly; metad claims a disjoint range so the
/// two payloads can never be confused. 0x4d ('M') is retired with the
/// longer layout it led and must not be reused: a shell and a daemon from
/// either side of that change decode each other's blob to `None`, not to
/// shifted fields.
const METAD_SNAPSHOT_VERSION: u8 = 0x4e;

impl MetadStatsSnapshot {
    /// Serialize to the versioned `Stats` payload blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            1 + 7 * 8
                + 4
                + self
                    .op_latency
                    .iter()
                    .map(|(op, _)| 4 + op.len() + HistSnapshot::ENCODED_LEN)
                    .sum::<usize>(),
        );
        out.push(METAD_SNAPSHOT_VERSION);
        for v in [
            self.requests,
            self.meta_ops,
            self.errors,
            self.connections,
            self.in_flight,
            self.shard_id,
            self.shards,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.op_latency.len() as u32).to_le_bytes());
        for (op, hist) in &self.op_latency {
            out.extend_from_slice(&(op.len() as u32).to_le_bytes());
            out.extend_from_slice(op.as_bytes());
            hist.encode_into(&mut out);
        }
        out
    }

    /// Decode a blob produced by [`MetadStatsSnapshot::encode`]. Returns
    /// `None` on truncation or a foreign version byte (e.g. an I/O
    /// server's snapshot).
    pub fn decode(buf: &[u8]) -> Option<MetadStatsSnapshot> {
        let (&version, mut rest) = buf.split_first()?;
        if version != METAD_SNAPSHOT_VERSION {
            return None;
        }
        let read_u64 = |rest: &mut &[u8]| -> Option<u64> {
            let (head, tail) = rest.split_at_checked(8)?;
            *rest = tail;
            Some(u64::from_le_bytes(head.try_into().ok()?))
        };
        let requests = read_u64(&mut rest)?;
        let meta_ops = read_u64(&mut rest)?;
        let errors = read_u64(&mut rest)?;
        let connections = read_u64(&mut rest)?;
        let in_flight = read_u64(&mut rest)?;
        let shard_id = read_u64(&mut rest)?;
        let shards = read_u64(&mut rest)?;
        let (head, mut tail) = rest.split_at_checked(4)?;
        let n = u32::from_le_bytes(head.try_into().ok()?) as usize;
        let mut op_latency = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            let (head, rest2) = tail.split_at_checked(4)?;
            let len = u32::from_le_bytes(head.try_into().ok()?) as usize;
            let (name, rest3) = rest2.split_at_checked(len)?;
            let op = String::from_utf8(name.to_vec()).ok()?;
            let (hist, used) = HistSnapshot::decode_from(rest3)?;
            tail = &rest3[used..];
            op_latency.push((op, hist));
        }
        Some(MetadStatsSnapshot {
            requests,
            meta_ops,
            errors,
            connections,
            in_flight,
            shard_id,
            shards,
            op_latency,
        })
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
            store: Catalog::new(db)?,
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

    /// Apply one metadata op against the catalog. Pure dispatch: every
    /// `MetaStore` method maps to exactly one `MetaOp` variant.
    fn apply(&self, op: MetaOp) -> MetaResult {
        use MetaOp as Op;
        use MetaResult as R;
        let s = &self.store;
        let result = match op {
            Op::RegisterServer { info } => s.register_server(&info).map(|()| R::Unit),
            Op::ListServers => s.list_servers().map(R::Servers),
            Op::GetServer { name } => s.get_server(&name).map(R::MaybeServer),
            Op::RemoveServer { name } => s.remove_server(&name).map(R::Bool),
            Op::CreateFile { attr, dist } => s.create_file(&attr, &dist).map(|()| R::Unit),
            Op::DeleteFile { filename } => s.delete_file(&filename).map(|e| R::MaybeEntry(Some(e))),
            Op::RenameFile { from, to } => {
                s.rename_file(&from, &to).map(|e| R::MaybeEntry(Some(e)))
            }
            Op::GetFileAttr { filename } => s.get_file_attr(&filename).map(R::MaybeAttr),
            Op::OpenFile { filename } => s.open_file(&filename).map(R::MaybeEntry),
            Op::SetFileSize { filename, size } => {
                s.set_file_size(&filename, size).map(|()| R::Unit)
            }
            Op::SetFilePermission {
                filename,
                permission,
            } => s
                .set_file_permission(&filename, permission)
                .map(|()| R::Unit),
            Op::SetFileOwner { filename, owner } => {
                s.set_file_owner(&filename, &owner).map(|()| R::Unit)
            }
            Op::ExtendDistribution {
                filename,
                expected_bricks,
                added,
            } => s
                .extend_distribution(&filename, expected_bricks, &added)
                .map(|e| R::MaybeEntry(Some(e))),
            Op::Mkdir { path } => s.mkdir(&path).map(|()| R::Unit),
            Op::Rmdir { path } => s.rmdir(&path).map(|()| R::Unit),
            Op::GetDir { path } => s.get_dir(&path).map(R::MaybeDir),
            Op::SetTag {
                filename,
                tag,
                value,
            } => s.set_tag(&filename, &tag, &value).map(|()| R::Unit),
            Op::GetTag { filename, tag } => s.get_tag(&filename, &tag).map(R::MaybeString),
            Op::ListTags { filename } => s.list_tags(&filename).map(R::Tags),
            Op::RemoveTag { filename, tag } => s.remove_tag(&filename, &tag).map(R::Bool),
            Op::FindByTag { tag, pattern } => s.find_by_tag(&tag, &pattern).map(R::TagHits),
            Op::ServerBrickCounts => s.server_brick_counts().map(R::BrickCounts),
            Op::GetShardMap => Ok(R::ShardMap {
                shards: self.shard_map.shards,
            }),
            Op::RenamePrepare { from, to } => {
                s.rename_prepare(&from, &to)
                    .map(|(intent, attr, dist, tags)| R::RenamePrepared {
                        intent,
                        attr,
                        dist,
                        tags,
                    })
            }
            Op::RenameCommit {
                intent,
                attr,
                dist,
                tags,
            } => s
                .rename_commit_dest(intent, &attr, &dist, &tags)
                .map(|()| R::Unit),
            Op::RenameFinish { intent } => s.rename_finish(intent).map(|()| R::Unit),
            Op::RenameAbort { intent } => s.rename_abort(intent).map(R::Bool),
            Op::ListRenameIntents => s
                .list_rename_intents()
                .map(|xs| R::Intents(xs.into_iter().map(|i| (i.id, i.src, i.dst)).collect())),
        };
        result.unwrap_or_else(|e| MetaResult::from_err(&e))
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
                payload: bytes::Bytes::from(self.stats_snapshot().encode()),
            },
            Request::Meta { op } => {
                self.stats.meta_ops.fetch_add(1, Ordering::Relaxed);
                let kind = op.op_str();
                let t0 = now_ns();
                let result = self.apply(op);
                let dur = now_ns().saturating_sub(t0);
                self.stats.hist_for(kind).record(dur);
                metad_event(trace_id, "handle", kind, &self.name, t0, dur);
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
    fn may_block(&self, _req: &Request) -> bool {
        self.fsyncs
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
        assert_eq!(r, MetaResult::Unit);
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
        assert_eq!((moved.0.filename.as_str(), moved.1.len()), ("/d/g", 1));
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
    fn per_op_histograms_and_snapshot_round_trip() {
        let h = handler();
        meta(&h, MetaOp::Mkdir { path: "/d".into() });
        meta(&h, MetaOp::GetDir { path: "/d".into() });
        meta(&h, MetaOp::GetDir { path: "/d".into() });
        let resp = h.handle(Request::Stats);
        let Response::Stats { payload } = resp else {
            panic!("expected Stats response, got {resp:?}");
        };
        let snap = MetadStatsSnapshot::decode(&payload).unwrap();
        assert_eq!(snap.meta_ops, 3);
        let get_dir = snap
            .op_latency
            .iter()
            .find(|(op, _)| op == "meta.get_dir")
            .expect("meta.get_dir histogram");
        assert_eq!(get_dir.1.count, 2);
        let mkdir = snap
            .op_latency
            .iter()
            .find(|(op, _)| op == "meta.mkdir")
            .expect("meta.mkdir histogram");
        assert_eq!(mkdir.1.count, 1);
        // A foreign blob (I/O server snapshot starts with a small version
        // byte) is rejected, not misparsed.
        assert!(MetadStatsSnapshot::decode(&[1, 0, 0]).is_none());
        assert!(MetadStatsSnapshot::decode(&[]).is_none());
        // So is a blob led by the retired version byte: a shell and a daemon
        // built on either side of the layout change fail closed.
        let mut old = payload.to_vec();
        old[0] = 0x4d;
        assert!(MetadStatsSnapshot::decode(&old).is_none());
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
        let snap = h.stats_snapshot();
        assert_eq!((snap.shard_id, snap.shards), (1, 4));
        // and the snapshot survives its own wire format
        let back = MetadStatsSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!((back.shard_id, back.shards), (1, 4));
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
        assert_eq!(r, MetaResult::Unit);
        let r = meta(
            &src,
            MetaOp::RenamePrepare {
                from: "/d/f".into(),
                to: "/d/g".into(),
            },
        );
        let MetaResult::RenamePrepared {
            intent, attr: a, ..
        } = r
        else {
            panic!("expected RenamePrepared, got {r:?}");
        };
        let mut moved = a;
        moved.filename = "/d/g".into();
        let r = meta(
            &dst,
            MetaOp::RenameCommit {
                intent,
                attr: moved,
                dist: vec![],
                tags: vec![],
            },
        );
        assert_eq!(r, MetaResult::Unit);
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
