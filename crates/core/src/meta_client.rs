//! The metadata client: every metadata call a mount makes, as one
//! [`MetaOp`] down one of two pipes.
//!
//! The paper's clients send every metadata query "to the database server"
//! over the network (§5). [`MetaClient`] is that client on every mount:
//! each typed method builds a [`MetaOp`] and hands it to `call`, the only
//! code that differs between the pipes:
//!
//! - **local** — an embedded mount: one shard, whose op is applied to the
//!   mount's own [`Catalog`] in-process by [`MetaOp::apply`], the function
//!   `dpfs-metad` runs too. No transport, no retry, no trace ID.
//! - **RPC** — a daemon mount: one retrying connection per `dpfs-metad`
//!   shard, carried by the same multiplexed [`ConnPool`] transport as data
//!   traffic — so metadata inherits correlation IDs, per-request deadlines,
//!   the retry error-class matrix, and tracing unchanged.
//!
//! # Sharding
//!
//! The metadata plane may be partitioned across N daemons behind a
//! [`ShardMap`] (hash-of-parent-directory → shard). The client routes each
//! op:
//!
//! - file ops go to the file's home shard (`shard_of_file`),
//! - directory reads go to the directory's home shard (`shard_of_dir`),
//! - `mkdir`/`rmdir` broadcast so every shard can enforce "parent must
//!   exist" locally (home shard first — it serializes racing creates and
//!   owns the emptiness check; replicas treat duplicate/missing as
//!   idempotent success),
//! - the server registry is replicated to every shard (broadcast writes,
//!   round-robin reads),
//! - `find_by_tag` / `server_brick_counts` / `audit` fan out and merge,
//! - a rename whose source and destination live on different shards runs
//!   the two-phase intent protocol (see [`MetaClient::rename_file`]).
//!
//! The local pipe is a one-shard plane, so there a broadcast is the home
//! shard, a fan-out is one call and a cross-shard rename cannot happen.
//! Every daemon reply's envelope carries the shard id of the daemon that
//! served it, checked against the routing on every reply. Nothing is kept
//! between calls — no attribute, layout or registry row outlives the call
//! that fetched it.
//!
//! Errors: server-side `MetaError`s travel as wire codes and reconstruct
//! into the exact variant ([`dpfs_meta::MetaError::from_wire`]), so
//! callers' error mapping (duplicate key → file exists, ...) works
//! identically for embedded and daemon mounts. Transport failures
//! (connect, timeout, disconnect — after the pool's retries) surface as
//! [`dpfs_meta::MetaError::Remote`].
//!
//! Retries: read ops replay under the full error-class matrix, but
//! mutations are not idempotent — a replayed `CreateFile`/`RenameFile`
//! whose first attempt actually committed answers `DuplicateKey`/
//! `NoSuchTable` even though the op succeeded — so they are reissued
//! only after *connect* failures, the one class where the request
//! provably never left this client. A timeout or disconnect on a
//! mutation surfaces as `MetaError::Remote` (outcome unknown) instead
//! of being replayed into a spurious application error.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dpfs_meta::{
    Audit, Catalog, DirEntry, Distribution, FileAttrRow, FileEntry, MetaError,
    Result as MetaResultT, ServerInfo, ShardMap,
};
use dpfs_proto::{MetaOp, MetaResult, Request, Response};

use crate::conn::ConnPool;
use crate::error::DpfsError;
use crate::retry::RetryPolicy;
use crate::trace;

/// A mount's metadata client: the catalog surface as typed methods over
/// the local pipe or the `dpfs-metad` shards.
pub struct MetaClient {
    pipe: Pipe,
    /// Routing map over the pipe's shards (one for the local pipe).
    map: ShardMap,
    /// Round-robin cursor for replicated-registry reads.
    rr: AtomicUsize,
    /// Trace ID of the most recent metadata RPC (tests and diagnostics).
    last_trace_id: AtomicU64,
}

/// Where [`MetaClient::call`] takes an op.
enum Pipe {
    /// An embedded mount's catalog, answered in-process.
    Local(Catalog),
    /// Per-shard daemon server names (dial strings or testbed aliases),
    /// indexed by shard id, and the pool their connections ride.
    Rpc {
        pool: Arc<ConnPool>,
        servers: Vec<String>,
    },
}

impl MetaClient {
    /// An embedded mount's client: one shard, `catalog` in-process.
    pub(crate) fn local(catalog: Catalog) -> MetaClient {
        MetaClient::over(Pipe::Local(catalog), 1)
    }

    /// A daemon mount's client routing across `servers`, where `servers[i]`
    /// is the daemon serving shard `i`. The order must match the daemons'
    /// `--shard` ids.
    pub(crate) fn rpc(pool: Arc<ConnPool>, servers: Vec<String>) -> MetaClient {
        assert!(!servers.is_empty(), "at least one metad shard required");
        let width = servers.len() as u32;
        MetaClient::over(Pipe::Rpc { pool, servers }, width)
    }

    fn over(pipe: Pipe, shards: u32) -> MetaClient {
        MetaClient {
            pipe,
            map: ShardMap::new(shards),
            rr: AtomicUsize::new(0),
            last_trace_id: AtomicU64::new(0),
        }
    }

    /// The embedded catalog behind the local pipe; `None` on daemon mounts.
    pub(crate) fn catalog(&self) -> Option<&Catalog> {
        match &self.pipe {
            Pipe::Local(catalog) => Some(catalog),
            Pipe::Rpc { .. } => None,
        }
    }

    /// The daemon serving shard `i` (`"embedded"` on the local pipe).
    pub fn shard_server(&self, shard: usize) -> &str {
        match &self.pipe {
            Pipe::Local(_) => "embedded",
            Pipe::Rpc { servers, .. } => &servers[shard],
        }
    }

    /// Number of metadata shards this client routes across.
    pub fn shard_count(&self) -> usize {
        self.map.shards as usize
    }

    /// The shard owning file `path` (the home shard of its parent dir).
    pub fn route_file(&self, path: &str) -> usize {
        self.map.shard_of_file(path) as usize
    }

    /// The shard owning directory `path` (its file list lives there).
    pub fn route_dir(&self, path: &str) -> usize {
        self.map.shard_of_dir(path) as usize
    }

    /// Trace ID stamped on the most recent metadata RPC (0 if none was
    /// sent). Filter [`trace::ring()`] events on it to see the RPC's client
    /// span and the daemon-side decode/queue/handle/respond events.
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
    /// is never the `Err` variant — remote errors are reconstructed into
    /// `MetaError` here. On the local pipe the op is applied in-process.
    /// Over RPC, transient transport failures are retried under the pool's
    /// policy, each retry traced like any other RPC; mutating ops retry
    /// only the connect class (see [`mutation_retryable`]).
    fn call(&self, shard: usize, op: MetaOp) -> Result<MetaResult, MetaError> {
        let (pool, server) = match &self.pipe {
            Pipe::Local(catalog) => return op.apply(catalog),
            Pipe::Rpc { pool, servers } => (pool, &servers[shard]),
        };
        let trace_id = trace::sampled_trace_id();
        self.last_trace_id.store(trace_id, Ordering::Relaxed);
        let retryable: fn(&DpfsError) -> bool = if op.is_mutation() {
            mutation_retryable
        } else {
            RetryPolicy::retryable
        };
        let req = Request::Meta { op };
        let first = pool.submit_traced(server, &req, trace_id);
        let resp = pool
            .wait_retrying(
                server,
                &req,
                trace_id,
                first,
                pool.rpc_timeout(),
                pool.retry_policy(),
                retryable,
                None,
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
        shape_err(self.shard_server(shard), &format!("{got:?}"))
    }

    /// A round-robin shard for replicated-registry reads (`list_servers`):
    /// every shard holds the full registry, and rotating spreads the
    /// per-create `list_servers` load instead of hammering shard 0.
    fn registry_shard(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.shard_count()
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
        for shard in 0..self.shard_count() {
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
    ///                                             new name, same file id
    ///                                             (COMMIT POINT)
    /// RenameFinish  ──────────▶ (source entry + intent deleted)
    /// ```
    ///
    /// Between commit and finish the entry is transiently visible at
    /// *both* paths — never at neither. If the commit's outcome is
    /// unknown (timeout/disconnect), the destination is the authority: an
    /// entry there carrying the source's id → roll forward, anything else →
    /// abort. If even that read fails, the intent stays recorded for
    /// [`MetaClient::recover_rename_intents`]. Returns the entry as
    /// committed on the destination shard.
    fn rename_across_shards(
        &self,
        src: usize,
        dst: usize,
        from: &str,
        to: &str,
    ) -> MetaResultT<FileEntry> {
        // Phase 1: intent + snapshot on the source shard.
        let (intent, mut moved, tags) = match self.call(
            src,
            MetaOp::RenamePrepare {
                from: from.to_string(),
                to: to.to_string(),
            },
        )? {
            MetaResult::RenamePrepared {
                intent,
                entry,
                tags,
            } => (intent, entry, tags),
            other => return Err(self.shape(src, &other)),
        };
        // Rewrite the snapshot to the destination path; the id, and with it
        // every subfile on the I/O servers, stays.
        moved.attr.filename = to.to_string();
        for d in &mut moved.dist {
            d.filename = to.to_string();
        }
        // Phase 2: commit on the destination shard.
        match self.call(
            dst,
            MetaOp::RenameCommit {
                entry: moved.clone(),
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
                // connect class). The destination is the authority; the
                // resolving read retries under the full matrix.
                match self.holds(to, moved.id) {
                    Ok(true) => {
                        // Committed — roll forward below.
                    }
                    Ok(false) => {
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
        Ok(moved)
    }

    /// Whether the entry at `path` carries file id `id` — the commit record
    /// of a cross-shard rename to `path`. File ids are never reused, so no
    /// other file's entry passes for the moved one.
    fn holds(&self, path: &str, id: u64) -> MetaResultT<bool> {
        Ok(self.open_file(path)?.is_some_and(|e| e.id == id))
    }

    /// Resolve every pending cross-shard rename intent left behind by a
    /// crashed client: roll forward the ones whose destination holds the
    /// source's file id — the commit happened — and abort the rest. Returns
    /// how many intents were resolved.
    pub fn recover_rename_intents(&self) -> MetaResultT<usize> {
        let mut resolved = 0;
        for src in 0..self.shard_count() {
            let intents = match self.call(src, MetaOp::ListRenameIntents)? {
                MetaResult::Intents(xs) => xs,
                other => return Err(self.shape(src, &other)),
            };
            for (intent, from, to) in intents {
                let dst = self.route_file(&to);
                let committed = dst != src
                    && match self.open_file(&from)? {
                        Some(source) => self.holds(&to, source.id)?,
                        None => false,
                    };
                let op = match committed {
                    true => MetaOp::RenameFinish { intent },
                    false => MetaOp::RenameAbort { intent },
                };
                self.call(src, op)?;
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

/// Wrap a transport-level failure for the metadata surface.
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

/// The catalog surface: one typed method per metadata verb.
impl MetaClient {
    /// Register an I/O server (or update capacity/performance in place).
    /// The registry is replicated: every shard answers placement reads, so
    /// registration broadcasts (an idempotent upsert — replaying it on
    /// every shard is safe).
    pub fn register_server(&self, info: &ServerInfo) -> MetaResultT<()> {
        self.broadcast(
            0,
            || MetaOp::RegisterServer { info: info.clone() },
            |_| false,
        )
    }
    /// All registered servers ordered by name.
    pub fn list_servers(&self) -> MetaResultT<Vec<ServerInfo>> {
        expect!(self, self.registry_shard(), MetaOp::ListServers, MetaResult::Servers(xs) => xs)
    }

    /// Create a file (id + attrs + distribution + directory link,
    /// atomically); returns the id the file's shard minted.
    pub fn create_file(&self, attr: &FileAttrRow, dist: &[Distribution]) -> MetaResultT<u64> {
        expect!(
            self,
            self.route_file(&attr.filename),
            MetaOp::CreateFile { attr: attr.clone(), dist: dist.to_vec() },
            MetaResult::MaybeEntry(Some(entry)) => entry.id
        )
    }
    /// Delete a file; returns the removed entry.
    pub fn delete_file(&self, filename: &str) -> MetaResultT<FileEntry> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::DeleteFile { filename: filename.into() },
            MetaResult::MaybeEntry(Some(entry)) => entry
        )
    }
    /// Rename a file (metadata only); returns the entry under its new name.
    /// Across shards this is the two-phase intent protocol
    /// (`rename_across_shards`).
    pub fn rename_file(&self, from: &str, to: &str) -> MetaResultT<FileEntry> {
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
    /// Fetch a file's attribute row.
    pub fn get_file_attr(&self, filename: &str) -> MetaResultT<Option<FileAttrRow>> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::GetFileAttr { filename: filename.into() },
            MetaResult::MaybeAttr(a) => a
        )
    }
    /// Fetch a file's attribute row and distribution in one consistent read.
    pub fn open_file(&self, filename: &str) -> MetaResultT<Option<FileEntry>> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::OpenFile { filename: filename.into() },
            MetaResult::MaybeEntry(entry) => entry
        )
    }
    /// Grow a file's recorded size to at least `size`.
    pub fn set_file_size(&self, filename: &str, size: i64) -> MetaResultT<()> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::SetFileSize { filename: filename.into(), size },
            MetaResult::Unit => ()
        )
    }
    /// Update a file's permission bits.
    pub fn set_file_permission(&self, filename: &str, permission: i64) -> MetaResultT<()> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::SetFilePermission { filename: filename.into(), permission },
            MetaResult::Unit => ()
        )
    }
    /// Update a file's owner.
    pub fn set_file_owner(&self, filename: &str, owner: &str) -> MetaResultT<()> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::SetFileOwner { filename: filename.into(), owner: owner.into() },
            MetaResult::Unit => ()
        )
    }

    /// Append `added` (per server, its new brick numbers) to a file's brick
    /// lists iff it holds `expected_bricks` bricks; answers the entry as it
    /// stands afterwards either way.
    pub fn extend_distribution(
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

    /// Create a directory (parent must exist). Directory skeletons are
    /// replicated so every shard can check "parent exists" locally. The
    /// shard that lists the parent's files goes first: it alone can see a
    /// file already holding the name, and refuses before any replica
    /// changes; it also serializes racing mkdirs (and creates) of the same
    /// path. A replica that already has the directory (an interrupted
    /// earlier broadcast, or a racing client that won) is fine.
    pub fn mkdir(&self, path: &str) -> MetaResultT<()> {
        self.broadcast(
            self.route_file(path),
            || MetaOp::Mkdir { path: path.into() },
            |e| matches!(e, MetaError::DuplicateKey(_)),
        )
    }
    /// Remove an empty directory. Home shard first again: it holds the file
    /// list, so the emptiness check happens where the files live. A replica
    /// that already lost the directory is fine.
    pub fn rmdir(&self, path: &str) -> MetaResultT<()> {
        self.broadcast(
            self.route_dir(path),
            || MetaOp::Rmdir { path: path.into() },
            |e| matches!(e, MetaError::NoSuchTable(_)),
        )
    }
    /// Fetch one directory entry.
    pub fn get_dir(&self, path: &str) -> MetaResultT<Option<DirEntry>> {
        expect!(
            self,
            self.route_dir(path),
            MetaOp::GetDir { path: path.into() },
            MetaResult::MaybeDir(d) => d
        )
    }

    /// Attach (or replace) a user-defined tag on a file.
    pub fn set_tag(&self, filename: &str, tag: &str, value: &str) -> MetaResultT<()> {
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
    /// Read one tag.
    pub fn get_tag(&self, filename: &str, tag: &str) -> MetaResultT<Option<String>> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::GetTag { filename: filename.into(), tag: tag.into() },
            MetaResult::MaybeString(s) => s
        )
    }
    /// All tags on a file, sorted by key.
    pub fn list_tags(&self, filename: &str) -> MetaResultT<Vec<(String, String)>> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::ListTags { filename: filename.into() },
            MetaResult::Tags(xs) => xs
        )
    }
    /// Remove a tag; returns whether it existed.
    pub fn remove_tag(&self, filename: &str, tag: &str) -> MetaResultT<bool> {
        expect!(
            self,
            self.route_file(filename),
            MetaOp::RemoveTag { filename: filename.into(), tag: tag.into() },
            MetaResult::Bool(b) => b
        )
    }
    /// Files whose `tag` value matches a LIKE pattern, sorted by filename.
    /// The search fans out: matches live wherever their file's directory
    /// hashes.
    pub fn find_by_tag(&self, tag: &str, pattern: &str) -> MetaResultT<Vec<(String, String, i64)>> {
        let mut all = Vec::new();
        for shard in 0..self.shard_count() {
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

    /// Per-server brick counts across all files (`df`-style output). They
    /// fan out and merge-sum: each shard only knows the distributions of the
    /// files it owns.
    pub fn server_brick_counts(&self) -> MetaResultT<Vec<(String, i64)>> {
        let mut counts: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
        for shard in 0..self.shard_count() {
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

    /// Audit every shard's tables ([`Catalog::audit`]) and merge the
    /// answers: each shard holds its own files — their distribution rows and
    /// their parent's file list with them — and a replica of the directory
    /// skeleton, so each checks its own and the issues concatenate; the
    /// tree walked is the widest replica's. With `repair` every shard also
    /// applies its safe fixes.
    pub fn audit(&self, repair: bool) -> MetaResultT<Audit> {
        let mut all = Audit::default();
        for shard in 0..self.shard_count() {
            match self.call(shard, MetaOp::Audit { repair })? {
                MetaResult::Audit(one) => {
                    all.issues.extend(one.issues);
                    all.fixed.extend(one.fixed);
                    all.files.extend(one.files);
                    all.dirs = all.dirs.max(one.dirs);
                }
                other => return Err(self.shape(shard, &other)),
            }
        }
        all.files.sort();
        Ok(all)
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

    /// Every verb an embedded mount makes goes down the local pipe: one
    /// shard, applied to the mount's own catalog, no RPC and no trace ID.
    #[test]
    fn local_pipe_covers_catalog_surface() {
        let db = Arc::new(dpfs_meta::Database::in_memory());
        let s = MetaClient::local(Catalog::new(db).unwrap());
        s.register_server(&ServerInfo {
            name: "s0".into(),
            capacity: 1 << 30,
            performance: 1,
        })
        .unwrap();
        assert_eq!(s.list_servers().unwrap().len(), 1);
        s.mkdir("/home").unwrap();
        let attr = FileAttrRow {
            filename: "/home/f".into(),
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
        };
        let id = s
            .create_file(
                &attr,
                &[Distribution {
                    server: "s0".into(),
                    filename: "/home/f".into(),
                    bricklist: vec![0, 1],
                }],
            )
            .unwrap();
        s.set_tag("/home/f", "k", "v").unwrap();
        assert_eq!(s.get_tag("/home/f", "k").unwrap().unwrap(), "v");
        let moved = s.rename_file("/home/f", "/home/g").unwrap();
        assert_eq!(
            (moved.attr.filename.as_str(), moved.dist.len()),
            ("/home/g", 1)
        );
        assert_eq!(moved.id, id);
        assert_eq!(s.open_file("/home/g").unwrap(), Some(moved));
        assert_eq!(s.open_file("/home/f").unwrap(), None);
        assert_eq!(s.server_brick_counts().unwrap(), vec![("s0".into(), 2)]);
        s.delete_file("/home/g").unwrap();
        assert!(s.get_file_attr("/home/g").unwrap().is_none());
        assert!(s.catalog().is_some());
        assert_eq!(s.fetch_shard_map(0).unwrap(), 1);
        assert_eq!((s.shard_count(), s.last_trace_id()), (1, 0));
    }
}
