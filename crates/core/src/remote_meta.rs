//! `MetaStore` over the wire: the client half of the metadata service.
//!
//! The paper's clients send every metadata query "to the database server"
//! over the network (§5). [`RemoteMetaStore`] is that path: each
//! `MetaStore` call becomes one [`MetaOp`] RPC to a `dpfs-metad` daemon,
//! carried by the same multiplexed [`ConnPool`] transport as data traffic
//! — so metadata inherits correlation IDs, per-request deadlines, the
//! retry error-class matrix, and tracing unchanged.
//!
//! # Sharding
//!
//! The metadata plane may be partitioned across N daemons behind a
//! [`ShardMap`] (hash-of-parent-directory → shard). This store holds one
//! retrying connection per shard and routes each op:
//!
//! - file ops go to the file's home shard (`shard_of_file`),
//! - directory reads go to the directory's home shard (`shard_of_dir`),
//! - `mkdir`/`rmdir` broadcast so every shard can enforce "parent must
//!   exist" locally (home shard first — it serializes racing creates and
//!   owns the emptiness check; replicas treat duplicate/missing as
//!   idempotent success),
//! - the server registry is replicated to every shard (broadcast writes,
//!   round-robin reads),
//! - `find_by_tag` / `server_brick_counts` fan out and merge,
//! - a rename whose source and destination live on different shards runs
//!   the two-phase intent protocol (see [`RemoteMetaStore::rename_file`]).
//!
//! Every reply's envelope carries the shard id of the daemon that served
//! it, checked against the routing on every reply. Nothing is kept between
//! calls — no attribute, layout or registry row outlives the call that
//! fetched it.
//!
//! Errors: server-side `MetaError`s travel as wire codes and reconstruct
//! into the exact variant ([`dpfs_meta::MetaError::from_wire`]), so
//! callers' error mapping (duplicate key → file exists, ...) works
//! identically for embedded and remote mounts. Transport failures
//! (connect, timeout, disconnect — after the pool's retries) surface as
//! [`dpfs_meta::MetaError::Remote`].
//!
//! Retries: read ops replay under the full PR-4 error-class matrix, but
//! mutations are not idempotent — a replayed `CreateFile`/`RenameFile`
//! whose first attempt actually committed answers `DuplicateKey`/
//! `NoSuchTable` even though the op succeeded — so they are reissued
//! only after *connect* failures, the one class where the request
//! provably never left this client. A timeout or disconnect on a
//! mutation surfaces as `MetaError::Remote` (outcome unknown) instead
//! of being replayed into a spurious application error.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dpfs_meta::catalog::RENAME_INTENT_TAG;
use dpfs_meta::{
    DirEntry, Distribution, FileAttrRow, FileEntry, MetaError, MetaStore, Result as MetaResultT,
    ServerInfo, ShardMap,
};
use dpfs_proto::{MetaOp, MetaResult, Request, Response};

use crate::conn::ConnPool;
use crate::error::DpfsError;
use crate::retry::RetryPolicy;
use crate::trace;

/// A [`MetaStore`] backed by metadata RPCs to one or more `dpfs-metad`
/// shards.
pub struct RemoteMetaStore {
    pool: Arc<ConnPool>,
    /// Per-shard daemon server names (dial strings or testbed aliases),
    /// indexed by shard id.
    shards: Vec<String>,
    /// Routing map over `shards.len()` shards.
    map: ShardMap,
    /// Round-robin cursor for replicated-registry reads.
    rr: AtomicUsize,
    /// Trace ID of the most recent metadata RPC (tests and diagnostics).
    last_trace_id: AtomicU64,
}

impl RemoteMetaStore {
    /// A single-shard store speaking to the daemon registered as `server`
    /// in `pool`'s resolver.
    pub fn new(pool: Arc<ConnPool>, server: impl Into<String>) -> RemoteMetaStore {
        Self::new_sharded(pool, vec![server.into()])
    }

    /// A store routing across `servers`, where `servers[i]` is the daemon
    /// serving shard `i`. The order must match the daemons' `--shard` ids.
    pub fn new_sharded(pool: Arc<ConnPool>, servers: Vec<String>) -> RemoteMetaStore {
        assert!(!servers.is_empty(), "at least one metad shard required");
        RemoteMetaStore {
            pool,
            map: ShardMap::new(servers.len() as u32),
            shards: servers,
            rr: AtomicUsize::new(0),
            last_trace_id: AtomicU64::new(0),
        }
    }

    /// The shard-0 daemon's server name (single-shard compatibility).
    pub fn server(&self) -> &str {
        &self.shards[0]
    }

    /// The daemon serving shard `i`.
    pub fn shard_server(&self, shard: usize) -> &str {
        &self.shards[shard]
    }

    /// All shard daemon names, indexed by shard id.
    pub fn shard_servers(&self) -> &[String] {
        &self.shards
    }

    /// Number of metadata shards this store routes across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard owning file `path` (the home shard of its parent dir).
    pub fn route_file(&self, path: &str) -> usize {
        self.map.shard_of_file(path) as usize
    }

    /// The shard owning directory `path` (its file list lives there).
    pub fn route_dir(&self, path: &str) -> usize {
        self.map.shard_of_dir(path) as usize
    }

    /// The connection pool metadata RPCs ride on.
    pub fn pool(&self) -> &Arc<ConnPool> {
        &self.pool
    }

    /// Trace ID stamped on the most recent metadata RPC. Filter
    /// [`trace::ring()`] events on it to see the RPC's client span and the
    /// daemon-side decode/queue/handle/respond events.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id.load(Ordering::Relaxed)
    }

    /// Fetch the shard count daemon `shard` was launched with — used at
    /// mount time to cross-check the client topology against the daemons.
    pub fn fetch_shard_map(&self, shard: usize) -> MetaResultT<u32> {
        match self.call(shard, MetaOp::GetShardMap)? {
            MetaResult::ShardMap { shards } => Ok(shards),
            other => Err(self.shape(shard, &other)),
        }
    }

    /// Issue one metadata op to `shard` and return its result. The result
    /// is never the `Err` variant — remote errors are
    /// reconstructed into `MetaError` here. Transient transport failures
    /// are retried under the pool's policy, each retry traced like any
    /// other RPC; mutating ops retry only the connect class (see
    /// [`mutation_retryable`]).
    fn call(&self, shard: usize, op: MetaOp) -> Result<MetaResult, MetaError> {
        let server = &self.shards[shard];
        let trace_id = trace::sampled_trace_id();
        self.last_trace_id.store(trace_id, Ordering::Relaxed);
        let retryable: fn(&DpfsError) -> bool = if op.is_mutation() {
            mutation_retryable
        } else {
            RetryPolicy::retryable
        };
        let req = Request::Meta { op };
        let first = self.pool.submit_traced(server, &req, trace_id);
        let resp = self
            .pool
            .wait_retrying(
                server,
                &req,
                trace_id,
                first,
                self.pool.rpc_timeout(),
                self.pool.retry_policy(),
                retryable,
            )
            .map_err(|e| remote_err(server, &e))?;
        match resp {
            Response::Meta {
                shard: reply_shard,
                result,
            } => {
                if reply_shard as usize != shard {
                    // Misconfigured topology: the daemon at this address
                    // serves a different namespace slice than we route to
                    // it. Using its answers would corrupt the mount.
                    return Err(MetaError::Remote(format!(
                        "metadata server {server} answered as shard {reply_shard}, \
                         but this mount routes shard {shard} to it \
                         (check the --metad flag order against the daemons' --shard ids)"
                    )));
                }
                match result {
                    MetaResult::Err { code, message } => Err(MetaError::from_wire(code, message)),
                    ok => Ok(ok),
                }
            }
            Response::Error { code, message } => Err(MetaError::Remote(format!(
                "metadata server {server} rejected the request ({code:?}): {message}"
            ))),
            other => Err(shape_err(server, &format!("{other:?}"))),
        }
    }

    fn shape(&self, shard: usize, got: &MetaResult) -> MetaError {
        shape_err(&self.shards[shard], &format!("{got:?}"))
    }

    /// A round-robin shard for replicated-registry reads (`list_servers`,
    /// `get_server`): every shard holds the full registry, and rotating
    /// spreads the per-create `list_servers` load instead of hammering
    /// shard 0.
    fn registry_shard(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Run a mutating op on every shard, home shard first. `tolerate`
    /// classifies replica errors that mean "already in the desired state"
    /// (duplicate directory on a replica mkdir, missing directory on a
    /// replica rmdir) — those count as success everywhere but home.
    fn broadcast(
        &self,
        home: usize,
        op: impl Fn() -> MetaOp,
        tolerate: impl Fn(&MetaError) -> bool,
    ) -> MetaResultT<()> {
        match self.call(home, op())? {
            MetaResult::Unit => {}
            other => return Err(self.shape(home, &other)),
        }
        for shard in 0..self.shards.len() {
            if shard == home {
                continue;
            }
            match self.call(shard, op()) {
                Ok(MetaResult::Unit) => {}
                Ok(other) => return Err(self.shape(shard, &other)),
                Err(e) if tolerate(&e) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Rename across shards: the two-phase intent protocol.
    ///
    /// ```text
    /// source shard              destination shard
    /// ------------              -----------------
    /// RenamePrepare ──────────▶ (intent recorded, snapshot returned)
    ///                           RenameCommit  ◀── entry created under the
    ///                                             new name + marker tag
    ///                                             (COMMIT POINT)
    /// RenameFinish  ──────────▶ (source entry + intent deleted)
    ///                           RemoveTag     ◀── marker stripped
    /// ```
    ///
    /// Between commit and finish the entry is transiently visible at
    /// *both* paths — never at neither. If the commit's outcome is
    /// unknown (timeout/disconnect), the marker tag on the destination is
    /// the authority: present → roll forward, absent → abort. If even
    /// that read fails, the intent stays recorded for
    /// [`RemoteMetaStore::recover_rename_intents`]. Returns the entry as
    /// committed on the destination shard.
    fn rename_across_shards(
        &self,
        src: usize,
        dst: usize,
        from: &str,
        to: &str,
    ) -> MetaResultT<FileEntry> {
        // Phase 1: intent + snapshot on the source shard.
        let (intent, attr, dist, tags) = match self.call(
            src,
            MetaOp::RenamePrepare {
                from: from.to_string(),
                to: to.to_string(),
            },
        )? {
            MetaResult::RenamePrepared {
                intent,
                attr,
                dist,
                tags,
            } => (intent, attr, dist, tags),
            other => return Err(self.shape(src, &other)),
        };
        // Rewrite the snapshot to the destination path. The subfiles on
        // the I/O servers are keyed by path too; `Dpfs::rename` migrates
        // them after the metadata rename, same as the single-shard path.
        let mut moved = attr;
        moved.filename = to.to_string();
        let moved_dist: Vec<Distribution> = dist
            .into_iter()
            .map(|d| Distribution {
                filename: to.to_string(),
                ..d
            })
            .collect();
        let tags: Vec<(String, String)> = tags
            .into_iter()
            .filter(|(k, _)| k != RENAME_INTENT_TAG)
            .collect();
        // Phase 2: commit on the destination shard.
        match self.call(
            dst,
            MetaOp::RenameCommit {
                intent,
                attr: moved.clone(),
                dist: moved_dist.clone(),
                tags,
            },
        ) {
            Ok(MetaResult::Unit) => {}
            Ok(other) => {
                let _ = self.call(src, MetaOp::RenameAbort { intent });
                return Err(self.shape(dst, &other));
            }
            Err(MetaError::Remote(msg)) => {
                // Outcome unknown (mutations are not replayed past the
                // connect class). The destination marker is the authority;
                // the resolving read retries under the full matrix.
                match self.call(
                    dst,
                    MetaOp::GetTag {
                        filename: to.to_string(),
                        tag: RENAME_INTENT_TAG.to_string(),
                    },
                ) {
                    Ok(MetaResult::MaybeString(Some(v))) if v == intent.to_string() => {
                        // Committed — roll forward below.
                    }
                    Ok(_) => {
                        // Did not commit (or a different rename owns the
                        // destination): undo the intent, surface the error.
                        let _ = self.call(src, MetaOp::RenameAbort { intent });
                        return Err(MetaError::Remote(msg));
                    }
                    Err(_) => {
                        // Can't even read the destination. Leave the
                        // intent for recover_rename_intents().
                        return Err(MetaError::Remote(format!(
                            "cross-shard rename {from} -> {to}: commit outcome unknown \
                             and the destination shard is unreachable; \
                             intent {intent} left for recovery: {msg}"
                        )));
                    }
                }
            }
            Err(app) => {
                // Clean application refusal (e.g. destination exists):
                // the commit provably did not happen.
                let _ = self.call(src, MetaOp::RenameAbort { intent });
                return Err(app);
            }
        }
        // Phase 3: drop the source entry + intent. If this fails the
        // rename HAS committed; the intent stays behind and
        // recover_rename_intents() will finish it.
        match self.call(src, MetaOp::RenameFinish { intent })? {
            MetaResult::Unit => {}
            other => return Err(self.shape(src, &other)),
        }
        // Best-effort marker cleanup; a leftover marker is harmless (the
        // intent it points at no longer exists).
        let _ = self.call(
            dst,
            MetaOp::RemoveTag {
                filename: to.to_string(),
                tag: RENAME_INTENT_TAG.to_string(),
            },
        );
        Ok((moved, moved_dist))
    }

    /// Resolve every pending cross-shard rename intent left behind by a
    /// crashed client: roll forward the ones whose destination marker
    /// proves the commit happened, abort the rest. Returns how many
    /// intents were resolved.
    pub fn recover_rename_intents(&self) -> MetaResultT<usize> {
        let mut resolved = 0;
        for src in 0..self.shards.len() {
            let intents = match self.call(src, MetaOp::ListRenameIntents)? {
                MetaResult::Intents(xs) => xs,
                other => return Err(self.shape(src, &other)),
            };
            for (intent, _from, to) in intents {
                let dst = self.route_file(&to);
                let committed = dst != src
                    && matches!(
                        self.call(
                            dst,
                            MetaOp::GetTag {
                                filename: to.clone(),
                                tag: RENAME_INTENT_TAG.to_string(),
                            },
                        )?,
                        MetaResult::MaybeString(Some(ref v)) if *v == intent.to_string()
                    );
                if committed {
                    match self.call(src, MetaOp::RenameFinish { intent })? {
                        MetaResult::Unit => {}
                        other => return Err(self.shape(src, &other)),
                    }
                    let _ = self.call(
                        dst,
                        MetaOp::RemoveTag {
                            filename: to,
                            tag: RENAME_INTENT_TAG.to_string(),
                        },
                    );
                } else {
                    self.call(src, MetaOp::RenameAbort { intent })?;
                }
                resolved += 1;
            }
        }
        Ok(resolved)
    }
}

/// May a *mutating* metadata op be reissued after `err`? Only connect
/// failures: the dial never completed, so the request cannot have
/// reached the daemon. Timeouts, disconnects, and torn frames all leave
/// the outcome unknown — the daemon may have committed the mutation
/// before the failure — and replaying a committed `CreateFile`/`Mkdir`/
/// `RenameFile` turns success into a spurious `DuplicateKey`/not-found.
fn mutation_retryable(err: &DpfsError) -> bool {
    matches!(err, DpfsError::Connect { .. })
}

/// Wrap a transport-level failure for the `MetaStore` surface.
fn remote_err(server: &str, e: &DpfsError) -> MetaError {
    MetaError::Remote(format!("metadata rpc to {server} failed: {e}"))
}

/// The server answered with a result shape the op cannot produce.
fn shape_err(server: &str, got: &str) -> MetaError {
    MetaError::Remote(format!(
        "metadata server {server} answered with an unexpected result: {got}"
    ))
}

macro_rules! expect {
    ($self:ident, $shard:expr, $op:expr, $pat:pat => $out:expr) => {{
        let shard = $shard;
        match $self.call(shard, $op)? {
            $pat => Ok($out),
            other => Err($self.shape(shard, &other)),
        }
    }};
}

impl MetaStore for RemoteMetaStore {
    /// The server registry is replicated: every shard answers placement
    /// reads, so registration broadcasts (register is an idempotent
    /// upsert — replaying it on every shard is safe).
    fn register_server(&self, info: &ServerInfo) -> MetaResultT<()> {
        self.broadcast(
            0,
            || MetaOp::RegisterServer { info: info.clone() },
            |_| false,
        )
    }
    fn list_servers(&self) -> MetaResultT<Vec<ServerInfo>> {
        expect!(self, self.registry_shard(), MetaOp::ListServers, MetaResult::Servers(xs) => xs)
    }
    fn get_server(&self, name: &str) -> MetaResultT<Option<ServerInfo>> {
        expect!(
            self,
            self.registry_shard(),
            MetaOp::GetServer { name: name.into() },
            MetaResult::MaybeServer(s) => s
        )
    }
    fn remove_server(&self, name: &str) -> MetaResultT<bool> {
        let mut existed = false;
        for shard in 0..self.shards.len() {
            existed |= match self.call(shard, MetaOp::RemoveServer { name: name.into() })? {
                MetaResult::Bool(b) => b,
                other => return Err(self.shape(shard, &other)),
            };
        }
        Ok(existed)
    }

    fn create_file(&self, attr: &FileAttrRow, dist: &[Distribution]) -> MetaResultT<()> {
        expect!(
            self,
            self.route_file(&attr.filename),
            MetaOp::CreateFile { attr: attr.clone(), dist: dist.to_vec() },
            MetaResult::Unit => ()
        )
    }
    fn delete_file(&self, filename: &str) -> MetaResultT<FileEntry> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::DeleteFile { filename: filename.into() },
            MetaResult::MaybeEntry(Some(entry)) => entry
        )
    }
    fn rename_file(&self, from: &str, to: &str) -> MetaResultT<FileEntry> {
        let src = self.route_file(from);
        let dst = self.route_file(to);
        if src == dst {
            return expect!(
                self,
                src,
                MetaOp::RenameFile { from: from.into(), to: to.into() },
                MetaResult::MaybeEntry(Some(entry)) => entry
            );
        }
        self.rename_across_shards(src, dst, from, to)
    }
    fn get_file_attr(&self, filename: &str) -> MetaResultT<Option<FileAttrRow>> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::GetFileAttr { filename: filename.into() },
            MetaResult::MaybeAttr(a) => a
        )
    }
    fn open_file(&self, filename: &str) -> MetaResultT<Option<FileEntry>> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::OpenFile { filename: filename.into() },
            MetaResult::MaybeEntry(entry) => entry
        )
    }
    fn set_file_size(&self, filename: &str, size: i64) -> MetaResultT<()> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::SetFileSize { filename: filename.into(), size },
            MetaResult::Unit => ()
        )
    }
    fn set_file_permission(&self, filename: &str, permission: i64) -> MetaResultT<()> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::SetFilePermission { filename: filename.into(), permission },
            MetaResult::Unit => ()
        )
    }
    fn set_file_owner(&self, filename: &str, owner: &str) -> MetaResultT<()> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::SetFileOwner { filename: filename.into(), owner: owner.into() },
            MetaResult::Unit => ()
        )
    }

    fn extend_distribution(
        &self,
        filename: &str,
        expected_bricks: i64,
        added: &[(String, Vec<i64>)],
    ) -> MetaResultT<FileEntry> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::ExtendDistribution {
                filename: filename.into(),
                expected_bricks,
                added: added.to_vec()
            },
            MetaResult::MaybeEntry(Some(entry)) => entry
        )
    }

    /// Directory skeletons are replicated so every shard can check
    /// "parent exists" locally. Home shard goes first — it owns the
    /// directory's file list and serializes racing mkdirs of the same
    /// path; a replica that already has the directory (an interrupted
    /// earlier broadcast, or a racing client that won) is fine.
    fn mkdir(&self, path: &str) -> MetaResultT<()> {
        self.broadcast(
            self.route_dir(path),
            || MetaOp::Mkdir { path: path.into() },
            |e| matches!(e, MetaError::DuplicateKey(_)),
        )
    }
    /// Home shard first again: it holds the file list, so the emptiness
    /// check happens where the files live. A replica that already lost
    /// the directory is fine.
    fn rmdir(&self, path: &str) -> MetaResultT<()> {
        self.broadcast(
            self.route_dir(path),
            || MetaOp::Rmdir { path: path.into() },
            |e| matches!(e, MetaError::NoSuchTable(_)),
        )
    }
    fn get_dir(&self, path: &str) -> MetaResultT<Option<DirEntry>> {
        expect!(
            self,
            self.route_dir(path),
            MetaOp::GetDir { path: path.into() },
            MetaResult::MaybeDir(d) => d
        )
    }

    fn set_tag(&self, filename: &str, tag: &str, value: &str) -> MetaResultT<()> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::SetTag {
                filename: filename.into(),
                tag: tag.into(),
                value: value.into()
            },
            MetaResult::Unit => ()
        )
    }
    fn get_tag(&self, filename: &str, tag: &str) -> MetaResultT<Option<String>> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::GetTag { filename: filename.into(), tag: tag.into() },
            MetaResult::MaybeString(s) => s
        )
    }
    fn list_tags(&self, filename: &str) -> MetaResultT<Vec<(String, String)>> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::ListTags { filename: filename.into() },
            MetaResult::Tags(xs) => xs
        )
    }
    fn remove_tag(&self, filename: &str, tag: &str) -> MetaResultT<bool> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::RemoveTag { filename: filename.into(), tag: tag.into() },
            MetaResult::Bool(b) => b
        )
    }
    /// Tag search fans out: matches live wherever their file's directory
    /// hashes. Results are merged and re-sorted to keep the single-shard
    /// ordering contract (sorted by filename).
    fn find_by_tag(&self, tag: &str, pattern: &str) -> MetaResultT<Vec<(String, String, i64)>> {
        let mut all = Vec::new();
        for shard in 0..self.shards.len() {
            match self.call(
                shard,
                MetaOp::FindByTag {
                    tag: tag.into(),
                    pattern: pattern.into(),
                },
            )? {
                MetaResult::TagHits(xs) => all.extend(xs),
                other => return Err(self.shape(shard, &other)),
            }
        }
        all.sort();
        Ok(all)
    }

    /// Brick counts fan out and merge-sum: each shard only knows the
    /// distributions of the files it owns.
    fn server_brick_counts(&self) -> MetaResultT<Vec<(String, i64)>> {
        let mut counts: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
        for shard in 0..self.shards.len() {
            match self.call(shard, MetaOp::ServerBrickCounts)? {
                MetaResult::BrickCounts(xs) => {
                    for (server, n) in xs {
                        *counts.entry(server).or_insert(0) += n;
                    }
                }
                other => return Err(self.shape(shard, &other)),
            }
        }
        Ok(counts.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_only_retry_connect_failures() {
        assert!(mutation_retryable(&DpfsError::Connect {
            server: "m".into(),
            source: std::io::Error::other("refused"),
        }));
        // Errors that may arrive after the daemon executed the request:
        // retryable for reads, never for mutations.
        let ambiguous = [
            DpfsError::Timeout {
                server: "m".into(),
                timeout: std::time::Duration::from_secs(1),
            },
            DpfsError::Disconnected {
                server: "m".into(),
                reason: "lost".into(),
            },
            DpfsError::Frame(dpfs_proto::FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe",
            ))),
        ];
        for err in &ambiguous {
            assert!(RetryPolicy::retryable(err), "{err} retries as a read");
            assert!(!mutation_retryable(err), "{err} must not replay a mutation");
        }
    }
}
