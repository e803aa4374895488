//! Testbed: spin up N I/O servers and a metadata plane of one or more
//! `dpfs-metad` shards (aliased `metad0`..`metad{N-1}`), register the
//! servers with their storage class's performance number in every shard's
//! catalog, and hand out DPFS clients.
//!
//! Every client reaches metadata over TCP through the shards, as in the
//! paper's topology, where metadata crosses the wire like data does. Shard
//! 0 serves the database [`Testbed::db`] returns; every other shard owns a
//! catalog of its own with the same I/O-server registry, and clients route
//! per path across all of them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpfs_core::{ClientOptions, Dpfs, Granularity, Resolver};
use dpfs_meta::{Database, ServerInfo};
use dpfs_metad::{MetaServer, MetadConfig, MetadStatsSnapshot};
use dpfs_server::{IoServer, PerfModel, ServerConfig, StorageClass};

static TESTBED_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Resolver alias the testbed's metadata daemon registers under (shard 0
/// when the plane is sharded).
pub const METAD_NAME: &str = "metad0";

/// Resolver alias of metadata shard `i` (`metad0`, `metad1`, ...).
pub fn metad_name(i: usize) -> String {
    format!("metad{i}")
}

/// Specification of one I/O node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Display name registered in the catalog. Keep names zero-padded so
    /// name order equals server-index order (`ion00`, `ion01`, ...).
    pub name: String,
    /// Storage class: the performance number the server is registered
    /// with, and the cost model `dpfs-bench` evaluates for it.
    pub class: StorageClass,
    /// Capacity cap in bytes (0 = unlimited).
    pub capacity: u64,
}

impl NodeSpec {
    /// Node named `ion{i:02}` of the given class, unlimited capacity.
    pub fn numbered(i: usize, class: StorageClass) -> NodeSpec {
        NodeSpec {
            name: format!("ion{i:02}"),
            class,
            capacity: 0,
        }
    }

    /// This node's server configuration, its subfiles under `root`.
    fn config(&self, root: &std::path::Path) -> ServerConfig {
        let name = self.name.clone();
        let mut config = ServerConfig::new(name, root.join(&self.name), PerfModel::unthrottled());
        config.capacity = self.capacity;
        config
    }
}

/// A running testbed: servers + metadata daemons, shard 0 over the
/// testbed's database.
pub struct Testbed {
    servers: Vec<IoServer>,
    specs: Vec<NodeSpec>,
    db: Arc<Database>,
    resolver: Resolver,
    root: PathBuf,
    /// Metadata daemons in shard order (at least one).
    metads: Vec<MetaServer>,
}

impl Testbed {
    /// Start one server per spec and one metadata shard over a fresh
    /// in-memory database that registers them all.
    pub fn start(specs: &[NodeSpec]) -> std::io::Result<Testbed> {
        Self::start_sharded(specs, 1)
    }

    /// Like [`Testbed::start`], but the metadata plane is partitioned
    /// across `shards` daemons. Shard 0 serves the testbed's database (so
    /// [`Testbed::db`] reads it); every other shard gets its own fresh
    /// catalog with the same I/O-server registry.
    pub fn start_sharded(specs: &[NodeSpec], shards: usize) -> std::io::Result<Testbed> {
        assert!(shards >= 1, "at least one metadata shard");
        let id = TESTBED_COUNTER.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("dpfs-testbed-{}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;

        // Every shard's catalog holds the whole server registry.
        let other = |e: dpfs_meta::MetaError| std::io::Error::other(e.to_string());
        let registry = |db: Database| -> std::io::Result<Arc<Database>> {
            let db = Arc::new(db);
            let catalog = dpfs_meta::Catalog::new(db.clone()).map_err(other)?;
            for spec in specs {
                let capacity = match spec.capacity {
                    0 => i64::MAX,
                    cap => cap as i64,
                };
                let performance = spec.class.performance_number();
                let name = spec.name.clone();
                catalog
                    .register_server(&ServerInfo {
                        name,
                        capacity,
                        performance,
                    })
                    .map_err(other)?;
            }
            Ok(db)
        };
        let db = registry(Database::in_memory())?;

        let mut servers = Vec::with_capacity(specs.len());
        let mut resolver = Resolver::direct();
        for spec in specs {
            let server = IoServer::start(spec.config(&root))?;
            resolver.alias(&spec.name, &server.addr().to_string());
            servers.push(server);
        }
        let mut metads = Vec::with_capacity(shards);
        for shard in 0..shards {
            // Shard 0 serves the testbed's database; the others get their
            // own catalogs.
            let shard_db = match shard {
                0 => db.clone(),
                _ => registry(Database::in_memory())?,
            };
            let name = metad_name(shard);
            let config = MetadConfig::in_memory()
                .name(&name)
                .shard(shard as u32, shards as u32);
            let md = MetaServer::start_with_db(config, shard_db)?;
            resolver.alias(&name, &md.addr().to_string());
            metads.push(md);
        }
        Ok(Testbed {
            servers,
            specs: specs.to_vec(),
            db,
            resolver,
            root,
            metads,
        })
    }

    /// `n` unthrottled nodes (functional testing).
    pub fn unthrottled(n: usize) -> std::io::Result<Testbed> {
        Self::unthrottled_sharded(n, 1)
    }

    /// `n` unthrottled nodes plus a `shards`-wide metadata plane.
    pub fn unthrottled_sharded(n: usize, shards: usize) -> std::io::Result<Testbed> {
        let specs: Vec<NodeSpec> = (0..n)
            .map(|i| NodeSpec::numbered(i, StorageClass::Unthrottled))
            .collect();
        Self::start_sharded(&specs, shards)
    }

    /// Alternating classes, e.g. half class 1 / half class 3 for the
    /// paper's Figure 13/14 ("Half of the storage is from class 1 and half
    /// from class 3").
    pub fn mixed(n: usize, classes: &[StorageClass]) -> std::io::Result<Testbed> {
        let specs: Vec<NodeSpec> = (0..n)
            .map(|i| NodeSpec::numbered(i, classes[i % classes.len()]))
            .collect();
        Self::start(&specs)
    }

    /// The database metadata shard 0 serves (the whole catalog on a
    /// one-shard testbed).
    pub fn db(&self) -> Arc<Database> {
        self.db.clone()
    }

    /// Reach server `idx` at `addr` — a [`crate::FaultProxy`] in front of
    /// it — from every client mounted from now on.
    pub fn route_through(&mut self, idx: usize, addr: std::net::SocketAddr) {
        self.resolver
            .alias(&self.specs[idx].name, &addr.to_string());
    }

    /// A copy of the name resolver (server display name and `metad{i}` →
    /// localhost address); lets callers mount clients through a proxy in
    /// front of one daemon while still reaching the others.
    pub fn resolver(&self) -> Resolver {
        self.resolver.clone()
    }

    /// Number of I/O servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Node specs in server order.
    pub fn specs(&self) -> &[NodeSpec] {
        &self.specs
    }

    /// A DPFS client for compute node `rank`.
    pub fn client(&self, rank: usize, combine: bool) -> Dpfs {
        self.client_with(rank, combine, Granularity::Brick)
    }

    /// A DPFS client with full option control.
    pub fn client_with(&self, rank: usize, combine: bool, granularity: Granularity) -> Dpfs {
        self.client_opts(ClientOptions {
            combine,
            granularity,
            rank,
            ..ClientOptions::default()
        })
    }

    /// A DPFS client with explicit [`ClientOptions`], mounted across every
    /// metadata shard.
    pub fn client_opts(&self, opts: ClientOptions) -> Dpfs {
        let names: Vec<String> = (0..self.metads.len()).map(metad_name).collect();
        Dpfs::mount_sharded(names, self.resolver.clone(), opts)
            .expect("sharded mount verified against shard 0's map")
    }

    /// Number of metadata shards.
    pub fn metad_shards(&self) -> usize {
        self.metads.len()
    }

    /// Bound addresses of every metadata shard, in shard order (e.g. to put
    /// a [`crate::FaultProxy`] in front of one).
    pub fn metad_addrs(&self) -> Vec<std::net::SocketAddr> {
        self.metads.iter().map(|m| m.addr()).collect()
    }

    /// Statistics snapshots of every metadata shard, in shard order.
    pub fn metad_stats(&self) -> Vec<MetadStatsSnapshot> {
        self.metads.iter().map(|m| m.stats()).collect()
    }

    /// Per-server statistics snapshots, in server order.
    pub fn server_stats(&self) -> Vec<(String, dpfs_server::StatsSnapshot)> {
        self.servers
            .iter()
            .map(|s| (s.name().to_string(), s.stats()))
            .collect()
    }

    /// The directory server `idx` keeps its subfiles in (tests compare it
    /// with what the client believes the server holds).
    pub fn server_root(&self, idx: usize) -> PathBuf {
        self.root.join(&self.specs[idx].name)
    }

    /// `(server index, subfile name)` of every file under the servers'
    /// directories, the local file names decoded back (`%s` = `/`; a test
    /// that calls this names no file with a `%`).
    pub fn on_disk(&self) -> std::collections::BTreeSet<(usize, String)> {
        (0..self.servers.len())
            .flat_map(|i| {
                std::fs::read_dir(self.server_root(i))
                    .expect("server root")
                    .map(move |entry| {
                        let local = entry.expect("dir entry").file_name();
                        (i, local.to_string_lossy().replace("%s", "/"))
                    })
            })
            .collect()
    }

    /// Stop server `idx` (failure injection). Its connections die; clients
    /// talking to it see transport errors. The listener socket and all
    /// connection threads are reaped before this returns, so the port is
    /// immediately reusable by [`Testbed::restart_server`].
    pub fn kill_server(&mut self, idx: usize) {
        self.servers[idx].stop();
    }

    /// The bound address of server `idx` (still meaningful after a kill:
    /// it is the address a restart will rebind).
    pub fn server_addr(&self, idx: usize) -> std::net::SocketAddr {
        self.servers[idx].addr()
    }

    /// Restart server `idx` on its original port over whatever subfiles
    /// survived on disk. The catalog entry and resolver alias still point
    /// at the same name/port, so existing clients reconnect without being
    /// re-mounted; the restarted server re-opens subfiles lazily on first
    /// touch (visible as `subfiles_reopened` in its stats).
    pub fn restart_server(&mut self, idx: usize) -> std::io::Result<()> {
        let addr = self.servers[idx].addr();
        self.servers[idx].stop();
        let config = self.specs[idx].config(&self.root).bind(&addr.to_string());
        // std's listener sets SO_REUSEADDR, so the rebind normally succeeds
        // immediately; retry briefly in case the old socket lingers.
        let mut last_err = std::io::Error::other("restart_server: no attempts made");
        for _ in 0..50 {
            match IoServer::start(config.clone()) {
                Ok(server) => {
                    self.servers[idx] = server;
                    return Ok(());
                }
                Err(e) => {
                    last_err = e;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        }
        Err(last_err)
    }

    /// Restart server `idx` with an *empty* data directory — the
    /// disk-replacement failure mode: the daemon comes back on the same
    /// name/port but every subfile it held is gone. Pairs with
    /// `fsck_reprotect`, which rebuilds the lost subfiles from surviving
    /// replicas or parity.
    pub fn restart_server_empty(&mut self, idx: usize) -> std::io::Result<()> {
        self.servers[idx].stop();
        let dir = self.root.join(&self.specs[idx].name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        self.restart_server(idx)
    }
}

impl Drop for Testbed {
    fn drop(&mut self) {
        for s in &mut self.servers {
            s.stop();
        }
        for m in &mut self.metads {
            m.stop();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfs_core::{Hint, Shape};

    #[test]
    fn testbed_starts_and_registers_servers() {
        let tb = Testbed::unthrottled(4).unwrap();
        let client = tb.client(0, true);
        let servers = client.meta().list_servers().unwrap();
        assert_eq!(servers.len(), 4);
        assert_eq!(servers[0].name, "ion00");
        assert!(servers.iter().all(|s| s.performance == 1));
    }

    #[test]
    fn mixed_classes_register_performance_numbers() {
        let tb = Testbed::mixed(4, &[StorageClass::Class1, StorageClass::Class3]).unwrap();
        let client = tb.client(0, true);
        let servers = client.meta().list_servers().unwrap();
        let perfs: Vec<i64> = servers.iter().map(|s| s.performance).collect();
        assert_eq!(perfs, vec![1, 3, 1, 3]);
    }

    #[test]
    fn end_to_end_write_read_through_testbed() {
        let tb = Testbed::unthrottled(4).unwrap();
        let client = tb.client(0, true);
        let hint = Hint::multidim(
            Shape::new(vec![16, 16]).unwrap(),
            Shape::new(vec![4, 4]).unwrap(),
            1,
        );
        let mut f = client.create("/t", &hint).unwrap();
        let data: Vec<u8> = (0..256u32).map(|x| x as u8).collect();
        let all = Shape::new(vec![16, 16]).unwrap().full_region();
        f.write_region(&all, &data).unwrap();
        let back = f.read_region(&all).unwrap();
        assert_eq!(back, data);
        // data actually landed on all 4 servers
        let stats = tb.server_stats();
        assert!(stats.iter().all(|(_, s)| s.bytes_written > 0));
    }

    #[test]
    fn sync_attempts_all_servers_and_aggregates_failures() {
        // Regression: `sync` used to stop at the first failing server,
        // leaving later servers' subfiles unflushed.
        let mut tb = Testbed::unthrottled(2).unwrap();
        let client = tb.client(0, true);
        let mut f = client.create("/s", &Hint::linear(64, 0)).unwrap();
        f.write_bytes(0, &[5u8; 128]).unwrap();
        f.sync().unwrap();
        tb.kill_server(0);
        let err = f.sync().unwrap_err();
        match err {
            dpfs_core::DpfsError::Aggregate { op, failures } => {
                assert_eq!(op, "sync");
                // Exactly one failure means the live server was still
                // attempted — and succeeded — despite the dead one.
                assert_eq!(failures.len(), 1, "failures: {failures:?}");
                assert_eq!(failures[0].0, "ion00");
            }
            other => panic!("expected Aggregate, got {other}"),
        }
    }

    #[test]
    fn every_client_round_trips_through_metad() {
        let tb = Testbed::unthrottled(3).unwrap();
        let client = tb.client(0, true);
        let mut f = client.create("/remote", &Hint::linear(64, 192)).unwrap();
        f.write_bytes(0, &[9u8; 192]).unwrap();
        f.close().unwrap();
        assert_eq!(client.stat("/remote").unwrap().size, 192);
        let back = client.open("/remote").unwrap().read_bytes(0, 192).unwrap();
        assert_eq!(back, vec![9u8; 192]);
        let stats = tb.metad_stats();
        assert_eq!(stats.len(), 1);
        assert!(
            stats[0].meta_ops > 0,
            "metadata ops went through the daemon"
        );
    }

    #[test]
    fn sharded_testbed_serves_files_across_the_plane() {
        let tb = Testbed::unthrottled_sharded(2, 2).unwrap();
        assert_eq!(tb.metad_shards(), 2);
        assert_eq!(tb.metad_addrs().len(), 2);
        let client = tb.client(0, true);
        // Spread files over several directories so both shards own some.
        for d in 0..4 {
            let dir = format!("/d{d}");
            client.mkdir(&dir).unwrap();
            let mut f = client
                .create(&format!("{dir}/f"), &Hint::linear(64, 64))
                .unwrap();
            f.write_bytes(0, &[d as u8; 64]).unwrap();
            f.close().unwrap();
        }
        for d in 0..4 {
            let back = client
                .open(&format!("/d{d}/f"))
                .unwrap()
                .read_bytes(0, 64)
                .unwrap();
            assert_eq!(back, vec![d as u8; 64]);
        }
        let stats = tb.metad_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!((stats[0].shard_id, stats[0].shards), (0, 2));
        assert_eq!((stats[1].shard_id, stats[1].shards), (1, 2));
        // mkdir broadcasts alone guarantee both daemons served ops.
        assert!(stats.iter().all(|s| s.meta_ops > 0), "stats: {stats:?}");
    }

    #[test]
    fn fault_proxy_can_front_the_metad() {
        use crate::FaultProxy;
        let tb = Testbed::unthrottled(2).unwrap();
        let proxy = FaultProxy::start(tb.metad_addrs()[0]).unwrap();
        // A resolver whose metad alias points at the proxy instead.
        let mut resolver = tb.resolver();
        resolver.alias(METAD_NAME, &proxy.addr().to_string());
        let client =
            dpfs_core::Dpfs::mount_remote(METAD_NAME, resolver, ClientOptions::default()).unwrap();
        client.mkdir("/d").unwrap();
        assert!(client.dir_exists("/d").unwrap());
        assert!(proxy.frames() > 0, "metadata RPCs flowed through the proxy");
    }

    #[test]
    fn killed_server_surfaces_as_error() {
        let mut tb = Testbed::unthrottled(2).unwrap();
        let client = tb.client(0, true);
        let hint = Hint::linear(64, 256);
        let mut f = client.create("/f", &hint).unwrap();
        f.write_bytes(0, &[7u8; 256]).unwrap();
        tb.kill_server(1);
        let err = f.read_bytes(0, 256);
        assert!(err.is_err(), "read through dead server should fail");
    }
}
