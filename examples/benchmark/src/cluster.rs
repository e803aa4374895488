//! The cluster under test, identical for every workload: 4 unthrottled
//! I/O servers and 2 metadata shards over on-disk databases, all
//! in-process on loopback TCP. Assembled from the crates' public
//! constructors because `dpfs_cluster::Testbed` only builds in-memory
//! metadata daemons.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dpfs_core::{ClientOptions, Dpfs, Resolver};
use dpfs_meta::{Catalog, Database, ServerInfo};
use dpfs_metad::{MetaServer, MetadConfig};
use dpfs_server::{IoServer, ServerConfig, StorageClass};

pub const IO_SERVERS: usize = 4;
pub const METAD_SHARDS: usize = 2;
/// Stated in every result: the WAL is written on each commit and never
/// fsynced, so no end-to-end number depends on the sandbox's disk.
pub const FLUSH_POLICY: &str = "wal-write-per-commit,no-fsync";

fn other(e: impl ToString) -> io::Error {
    io::Error::other(e.to_string())
}

pub struct Cluster {
    pub ionds: Vec<IoServer>,
    pub metads: Vec<MetaServer>,
    resolver: Resolver,
    root: PathBuf,
}

impl Cluster {
    /// Boot every server with its state under `root` (wiped first).
    pub fn boot(root: &Path) -> io::Result<Cluster> {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root)?;
        let class = StorageClass::Unthrottled;
        let mut resolver = Resolver::direct();
        let mut ionds = Vec::with_capacity(IO_SERVERS);
        for i in 0..IO_SERVERS {
            let name = iond_name(i);
            let server = IoServer::start(ServerConfig::new(
                name.clone(),
                root.join(&name),
                class.model(),
            ))?;
            resolver.alias(&name, &server.addr().to_string());
            ionds.push(server);
        }
        let mut metads = Vec::with_capacity(METAD_SHARDS);
        for shard in 0..METAD_SHARDS {
            let name = metad_name(shard);
            let db = Arc::new(Database::open_with_sync(&root.join(&name), false).map_err(other)?);
            // The server registry is replicated on every shard.
            let catalog = Catalog::new(db.clone()).map_err(other)?;
            for i in 0..IO_SERVERS {
                catalog
                    .register_server(&ServerInfo {
                        name: iond_name(i),
                        capacity: i64::MAX,
                        performance: class.performance_number(),
                    })
                    .map_err(other)?;
            }
            let config = MetadConfig::in_memory()
                .name(&name)
                .shard(shard as u32, METAD_SHARDS as u32);
            let metad = MetaServer::start_with_db(config, db)?;
            resolver.alias(&name, &metad.addr().to_string());
            metads.push(metad);
        }
        Ok(Cluster {
            ionds,
            metads,
            resolver,
            root: root.to_path_buf(),
        })
    }

    /// A client mount of its own for compute node `rank`, default options.
    pub fn mount(&self, rank: usize) -> io::Result<Dpfs> {
        let opts = ClientOptions {
            rank,
            ..ClientOptions::default()
        };
        let names = (0..METAD_SHARDS).map(metad_name).collect();
        Dpfs::mount_sharded(names, self.resolver.clone(), opts).map_err(other)
    }

    /// Stop every server (joining its threads) and delete its state.
    pub fn shutdown(mut self) {
        for s in &mut self.ionds {
            s.stop();
        }
        for m in &mut self.metads {
            m.stop();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub fn iond_name(i: usize) -> String {
    format!("ion{i:02}")
}

pub fn metad_name(i: usize) -> String {
    format!("metad{i}")
}
