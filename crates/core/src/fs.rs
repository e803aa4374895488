//! The DPFS client: file-system operations over a metadata client and
//! the I/O servers.
//!
//! The metadata side is one [`MetaClient`]: [`Dpfs::mount`] gives it the
//! in-process SQL catalog as a one-shard plane (embedded, the original
//! mode), while [`Dpfs::mount_remote`] gives it metadata RPCs to a
//! `dpfs-metad` daemon (paper §5's networked database server). The client
//! holds no metadata between calls; a handle's layout is the one its `open`
//! read. Everything above `MetaClient::call` — the typed metadata methods,
//! create/open/rename/readdir and the I/O path — is identical in both
//! modes.

use std::sync::Arc;

use dpfs_meta::catalog::{base_name, normalize_path};
use dpfs_meta::{
    Catalog, Database, Distribution, FileAttrRow, FileEntry, Issue, MetaError, ServerInfo,
};
use dpfs_proto::Request;

use crate::conn::{ConnPool, Resolver};
use crate::error::{DpfsError, Result};
use crate::file::{brick_map, issue_all, ClientOptions, FileHandle};
use crate::geometry::Shape;
use crate::hints::{holders, FileLevel, Hint, HpfPattern, Placement, RedundancyPolicy, Striping};
use crate::layout::Layout;
use crate::meta_client::MetaClient;
use crate::placement::BrickMap;
use crate::trace;

/// A DPFS client instance. Cheap to create; each compute node (thread)
/// makes its own, sharing the metadata database or daemon.
pub struct Dpfs {
    meta: Arc<MetaClient>,
    pool: Arc<ConnPool>,
    opts: ClientOptions,
}

fn new_pool(resolver: Resolver, opts: &ClientOptions) -> Arc<ConnPool> {
    // Per-mount jitter seed: an unseeded (default) policy is derived
    // fresh here, so fleets of default-configured clients never retry in
    // lockstep; explicitly seeded policies stay deterministic.
    Arc::new(ConnPool::new(
        Arc::new(resolver),
        opts.rpc_timeout,
        opts.retry.seeded_for_mount(),
    ))
}

impl Dpfs {
    /// Mount DPFS embedded: wrap the metadata database in-process and set
    /// up connections.
    pub fn mount(db: Arc<Database>, resolver: Resolver, opts: ClientOptions) -> Result<Dpfs> {
        let pool = new_pool(resolver, &opts);
        Ok(Dpfs {
            meta: Arc::new(MetaClient::local(Catalog::new(db)?)),
            pool,
            opts,
        })
    }

    /// Mount DPFS against a `dpfs-metad` daemon: every metadata operation
    /// becomes an RPC to `metad_server` (a name the resolver can dial),
    /// riding the same transport as I/O.
    pub fn mount_remote(
        metad_server: &str,
        resolver: Resolver,
        opts: ClientOptions,
    ) -> Result<Dpfs> {
        Self::mount_sharded(vec![metad_server.to_string()], resolver, opts)
    }

    /// Mount DPFS against a *sharded* metadata plane: `metad_servers[i]`
    /// is the daemon serving shard `i` of an `N`-wide partition (the
    /// order must match the daemons' `--shard` ids). Each op routes to
    /// the shard owning its path. With one server this is exactly
    /// [`Dpfs::mount_remote`].
    ///
    /// When more than one shard is mounted, shard 0's advertised map is
    /// cross-checked at mount time so a daemon launched with the wrong
    /// `--shards` width fails the mount instead of corrupting routing.
    pub fn mount_sharded(
        metad_servers: Vec<String>,
        resolver: Resolver,
        opts: ClientOptions,
    ) -> Result<Dpfs> {
        let pool = new_pool(resolver, &opts);
        let meta = Arc::new(MetaClient::rpc(pool.clone(), metad_servers));
        if meta.shard_count() > 1 {
            let width = meta.fetch_shard_map(0).map_err(DpfsError::Meta)?;
            if width as usize != meta.shard_count() {
                return Err(DpfsError::Meta(MetaError::Remote(format!(
                    "metadata shard 0 ({}) serves a {width}-shard plane, \
                     but {} --metad servers were mounted",
                    meta.shard_server(0),
                    meta.shard_count()
                ))));
            }
        }
        Ok(Dpfs { meta, pool, opts })
    }

    /// The metadata client this mount operates through.
    pub fn meta(&self) -> &Arc<MetaClient> {
        &self.meta
    }

    /// The embedded metadata catalog, if this mount is embedded. Remote
    /// mounts return `None` — the database lives in the daemon.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.meta.catalog()
    }

    /// On remote mounts, the metadata client again (trace IDs, shard
    /// routing); `None` on embedded mounts.
    pub fn remote_meta(&self) -> Option<&Arc<MetaClient>> {
        self.meta.catalog().is_none().then_some(&self.meta)
    }

    /// Always `None`: the client keeps no metadata cache. Exists only
    /// because `examples/benchmark/src/layers.rs` calls it.
    pub fn meta_cache_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// This client's default options.
    pub fn options(&self) -> ClientOptions {
        self.opts
    }

    /// Register an I/O server in the metadata store.
    pub fn register_server(&self, info: &ServerInfo) -> Result<()> {
        Ok(self.meta.register_server(info)?)
    }

    // ------------------------------------------------------------ create

    /// Create a DPFS file per the hint (paper: `DPFS-Open` for writing with
    /// a hint structure). Returns an open handle.
    pub fn create(&self, path: &str, hint: &Hint) -> Result<FileHandle> {
        let path = normalize_path(path)?;
        let all = self.meta.list_servers()?;
        if all.is_empty() {
            return Err(DpfsError::InvalidArgument(
                "no I/O servers registered".into(),
            ));
        }
        let n = hint.io_nodes.unwrap_or(all.len()).clamp(1, all.len());
        // Deterministic choice: first n servers in name order.
        let chosen: Vec<ServerInfo> = all.into_iter().take(n).collect();
        let names: Vec<String> = chosen.iter().map(|s| s.name.clone()).collect();

        let layout = Layout::from_striping(&hint.striping)?;
        // Under XOR parity the last-named server is dedicated to parity:
        // data stripes over the remaining n - 1.
        let data_servers = match hint.redundancy {
            RedundancyPolicy::None => n,
            RedundancyPolicy::Replica(k) => {
                if k < 2 || k > n {
                    return Err(DpfsError::InvalidArgument(format!(
                        "replica policy needs 2 <= k <= {n} servers, got k = {k}"
                    )));
                }
                n
            }
            RedundancyPolicy::XorParity => {
                if n < 2 {
                    return Err(DpfsError::InvalidArgument(
                        "xor parity needs at least 2 servers (1 data + 1 parity)".into(),
                    ));
                }
                // Byte-offset parity requires every data subfile to lay its
                // bricks out uniformly; array-level chunks are variable.
                if layout.level() == FileLevel::Array {
                    return Err(DpfsError::InvalidArgument(
                        "xor parity requires uniform bricks (linear or multidim level)".into(),
                    ));
                }
                n - 1
            }
        };
        let perf: Option<Vec<i64>> = match hint.placement {
            Placement::RoundRobin => None,
            Placement::Greedy => Some(
                chosen[..data_servers]
                    .iter()
                    .map(|s| s.performance.max(1))
                    .collect(),
            ),
        };
        let mut map = BrickMap::from_assignment(Vec::new(), data_servers);
        map.extend(layout.num_bricks(), perf.as_deref())?;

        let attr = attr_for(&path, hint, &layout);
        let mut dist: Vec<Distribution> = names
            .iter()
            .zip(map.bricklists())
            .map(|(server, bricks)| Distribution {
                server: server.clone(),
                filename: path.clone(),
                bricklist: bricks.iter().map(|&b| b as i64).collect(),
            })
            .collect();
        if hint.redundancy == RedundancyPolicy::XorParity {
            // The parity server holds no bricks but must appear in the
            // distribution so opens see the full server list.
            dist.push(Distribution {
                server: names[n - 1].clone(),
                filename: path.clone(),
                bricklist: Vec::new(),
            });
        }
        let id = self.meta.create_file(&attr, &dist).map_err(|e| match e {
            MetaError::DuplicateKey(_) => DpfsError::FileExists(path.clone()),
            other => other.into(),
        })?;

        Ok(FileHandle::new(
            path,
            id,
            self.meta.clone(),
            self.pool.clone(),
            names,
            layout,
            map,
            hint.placement,
            hint.redundancy,
            self.opts,
            attr.size as u64,
        ))
    }

    // -------------------------------------------------------------- open

    /// Open an existing DPFS file (paper: `DPFS-Open` for reading).
    pub fn open(&self, path: &str) -> Result<FileHandle> {
        self.open_with(path, self.opts)
    }

    /// Open with explicit client options (rank, combination, granularity).
    pub fn open_with(&self, path: &str, opts: ClientOptions) -> Result<FileHandle> {
        let path = normalize_path(path)?;
        let entry = self
            .meta
            .open_file(&path)?
            .ok_or_else(|| DpfsError::NoSuchFile(path.clone()))?;
        self.open_entry(path, &entry, opts)
            .map_err(|issue| DpfsError::InvalidArgument(format!("{issue:?}")))
    }

    /// The handle a file's catalog entry opens as — its servers, layout,
    /// brick map, placement and redundancy — or the [`Issue`] that keeps
    /// `open` from trusting the entry. `open` and fsck's per-file pass both
    /// read entries here, so fsck flags exactly the files `open` refuses.
    pub(crate) fn open_entry(
        &self,
        path: String,
        FileEntry { id, attr, dist }: &FileEntry,
        opts: ClientOptions,
    ) -> std::result::Result<FileHandle, Issue> {
        let bad = |e: DpfsError| Issue::BadAttributes {
            filename: path.clone(),
            detail: e.to_string(),
        };
        let layout = striping_from_attr(attr).and_then(|s| Layout::from_striping(&s));
        let layout = layout.map_err(bad)?;
        let redundancy = RedundancyPolicy::parse(&attr.redundancy).map_err(bad)?;
        let placement = Placement::parse(&attr.placement).map_err(bad)?;
        if dist.is_empty() {
            return Err(Issue::MissingDistribution { filename: path });
        }
        let corrupt = |detail: String| Issue::CorruptBricklists {
            filename: path.clone(),
            detail,
        };
        // Under XOR parity the last (name-ordered) row is the brickless
        // parity server's.
        if redundancy == RedundancyPolicy::XorParity && dist.len() < 2 {
            let rows = dist.len();
            return Err(corrupt(format!(
                "xor parity over {rows} row(s), needs >= 2"
            )));
        }
        let map = brick_map(redundancy, dist).map_err(|e| corrupt(e.to_string()))?;
        // A linear file's map may run ahead of its size (growth extends the
        // map before the size), never behind it.
        if map.num_bricks() < layout.num_bricks() {
            let (have, need) = (map.num_bricks(), layout.num_bricks());
            return Err(corrupt(format!(
                "{have} bricks mapped, layout requires {need}"
            )));
        }
        Ok(FileHandle::new(
            path,
            *id,
            self.meta.clone(),
            self.pool.clone(),
            dist.iter().map(|d| d.server.clone()).collect(),
            layout,
            map,
            placement,
            redundancy,
            opts,
            attr.size as u64,
        ))
    }

    // --------------------------------------------------- namespace ops

    /// Delete a file: metadata first (transactional), then one `Delete`
    /// per subfile, all servers at once. The entry the transaction removed
    /// says which subfiles there can be: its brick lists name the servers
    /// that were ever sent a byte, its policy the derived subfiles beside
    /// them, its id their names. A server that cannot be reached keeps its
    /// subfiles, which no later file reads: a new file gets a new id.
    pub fn unlink(&self, path: &str) -> Result<()> {
        let path = normalize_path(path)?;
        let FileEntry { id, attr, dist } = self.meta.delete_file(&path).map_err(|e| match e {
            MetaError::NoSuchTable(_) => DpfsError::NoSuchFile(path.clone()),
            other => other.into(),
        })?;
        let holds = holders(dist.len(), dist.iter().map(|d| &d.bricklist));
        let work = RedundancyPolicy::parse(&attr.redundancy)?
            .subfiles(id, &holds)
            .into_iter()
            .map(|(s, subfile)| (dist[s].server.as_str(), Request::Delete { subfile }))
            .collect();
        let trace_id = trace::sampled_trace_id();
        // best effort: a dead server must not strand the namespace
        let _ = issue_all(&self.pool, &self.opts, "unlink", work, trace_id);
        Ok(())
    }

    /// Create a directory.
    pub fn mkdir(&self, path: &str) -> Result<()> {
        self.meta.mkdir(path).map_err(|e| match e {
            MetaError::NoSuchTable(m) => DpfsError::NoSuchDirectory(m),
            other => other.into(),
        })
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        Ok(self.meta.rmdir(path)?)
    }

    /// List a directory: `(sub-directory names, file names)`, base names
    /// only, sorted.
    pub fn readdir(&self, path: &str) -> Result<(Vec<String>, Vec<String>)> {
        let entry = self
            .meta
            .get_dir(path)?
            .ok_or_else(|| DpfsError::NoSuchDirectory(path.to_string()))?;
        let mut dirs: Vec<String> = entry
            .sub_dirs
            .iter()
            .map(|d| base_name(d).to_string())
            .collect();
        let mut files: Vec<String> = entry
            .files
            .iter()
            .map(|f| base_name(f).to_string())
            .collect();
        dirs.sort();
        files.sort();
        Ok((dirs, files))
    }

    /// Stat a file.
    pub fn stat(&self, path: &str) -> Result<FileAttrRow> {
        let path = normalize_path(path)?;
        self.meta
            .get_file_attr(&path)?
            .ok_or(DpfsError::NoSuchFile(path))
    }

    /// True if the path names an existing file.
    pub fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.meta.get_file_attr(&normalize_path(path)?)?.is_some())
    }

    /// True if the path names an existing directory.
    pub fn dir_exists(&self, path: &str) -> Result<bool> {
        Ok(self.meta.get_dir(path)?.is_some())
    }

    /// Rename a file: metadata only (atomic in the catalog, or the
    /// two-phase protocol across shards). The file keeps its id, and the
    /// I/O servers name its subfiles by the id, so no server is sent
    /// anything and none needs to be up.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let from_n = normalize_path(from)?;
        let to_n = normalize_path(to)?;
        let moved = self.meta.rename_file(&from_n, &to_n);
        moved.map(drop).map_err(|e| match e {
            MetaError::DuplicateKey(_) => DpfsError::FileExists(to_n.clone()),
            // The catalog misses the source or the destination's directory;
            // a second look tells which.
            MetaError::NoSuchTable(m) => match self.meta.get_file_attr(&from_n) {
                Ok(Some(_)) => DpfsError::NoSuchDirectory(m),
                _ => DpfsError::NoSuchFile(from_n.clone()),
            },
            other => other.into(),
        })
    }

    /// Connection pool (the shell and tests reach through for pings).
    pub fn pool(&self) -> &Arc<ConnPool> {
        &self.pool
    }
}

/// Build the catalog attribute row for a new file.
fn attr_for(path: &str, hint: &Hint, layout: &Layout) -> FileAttrRow {
    let (dims, dimsize, stripe_dims, stripe_size, pattern) = match &hint.striping {
        Striping::Linear {
            brick_bytes,
            file_bytes: _,
        } => (
            0i64,
            Vec::new(),
            Vec::new(),
            *brick_bytes as i64,
            String::new(),
        ),
        Striping::Multidim {
            array,
            brick,
            elem_bytes,
        } => (
            array.ndims() as i64,
            array.0.iter().map(|&x| x as i64).collect(),
            brick.0.iter().map(|&x| x as i64).collect(),
            *elem_bytes as i64,
            String::new(),
        ),
        Striping::Array {
            array,
            pattern,
            elem_bytes,
        } => (
            array.ndims() as i64,
            array.0.iter().map(|&x| x as i64).collect(),
            pattern.grid().0.iter().map(|&x| x as i64).collect(),
            *elem_bytes as i64,
            pattern.to_pattern_string(),
        ),
    };
    FileAttrRow {
        filename: path.to_string(),
        owner: hint.owner.clone(),
        permission: hint.permission,
        size: match &hint.striping {
            Striping::Linear { file_bytes, .. } => *file_bytes as i64,
            _ => layout.file_bytes() as i64,
        },
        filelevel: layout.level().as_str().to_string(),
        dims,
        dimsize,
        stripe_dims,
        stripe_size,
        pattern,
        placement: hint.placement.as_str().to_string(),
        redundancy: hint.redundancy.as_str(),
    }
}

/// Reconstruct striping geometry from a catalog attribute row.
pub fn striping_from_attr(attr: &FileAttrRow) -> Result<Striping> {
    match FileLevel::parse(&attr.filelevel)? {
        FileLevel::Linear => Ok(Striping::Linear {
            brick_bytes: attr.stripe_size as u64,
            file_bytes: attr.size as u64,
        }),
        FileLevel::Multidim => Ok(Striping::Multidim {
            array: Shape::new(attr.dimsize.iter().map(|&x| x as u64).collect())?,
            brick: Shape::new(attr.stripe_dims.iter().map(|&x| x as u64).collect())?,
            elem_bytes: attr.stripe_size as u64,
        }),
        FileLevel::Array => Ok(Striping::Array {
            array: Shape::new(attr.dimsize.iter().map(|&x| x as u64).collect())?,
            pattern: HpfPattern::from_catalog(&attr.pattern, &attr.stripe_dims)?,
            elem_bytes: attr.stripe_size as u64,
        }),
    }
}
