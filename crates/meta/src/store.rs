//! The `MetaStore` trait: the catalog surface as an abstract metadata
//! service.
//!
//! The paper's clients reach the four DPFS tables through a *database
//! server* over the network (§5); earlier revisions of this repo instead
//! handed every client a shared in-process `Arc<Database>`. `MetaStore`
//! makes the access path pluggable: [`Catalog`] itself is the in-process
//! backend (tests, single-node tools, and what `dpfs-metad` serves), while
//! `dpfs-core`'s `RemoteMetaStore` speaks the same surface over the metadata
//! RPCs to a `dpfs-metad` daemon.

use crate::catalog::{Catalog, DirEntry, Distribution, FileAttrRow, FileEntry, ServerInfo};
use crate::error::Result;

/// Abstract metadata service: the [`Catalog`] surface. Object-safe; `Dpfs`
/// holds an `Arc<dyn MetaStore>` so embedded and remote mounts are
/// interchangeable.
pub trait MetaStore: Send + Sync {
    // ---- servers ----

    /// Register an I/O server (or update capacity/performance in place).
    fn register_server(&self, info: &ServerInfo) -> Result<()>;
    /// All registered servers ordered by name.
    fn list_servers(&self) -> Result<Vec<ServerInfo>>;
    /// Look up one server.
    fn get_server(&self, name: &str) -> Result<Option<ServerInfo>>;
    /// Remove a server from the pool; returns whether it existed.
    fn remove_server(&self, name: &str) -> Result<bool>;

    // ---- files ----

    /// Create a file (attrs + distribution + directory link, atomically).
    fn create_file(&self, attr: &FileAttrRow, dist: &[Distribution]) -> Result<()>;
    /// Delete a file; returns the removed entry.
    fn delete_file(&self, filename: &str) -> Result<FileEntry>;
    /// Rename a file (metadata only); returns the entry under its new name.
    fn rename_file(&self, from: &str, to: &str) -> Result<FileEntry>;
    /// Fetch a file's attribute row.
    fn get_file_attr(&self, filename: &str) -> Result<Option<FileAttrRow>>;
    /// Fetch a file's attribute row and distribution in one consistent read.
    fn open_file(&self, filename: &str) -> Result<Option<FileEntry>>;
    /// Grow a file's recorded size to at least `size`.
    fn set_file_size(&self, filename: &str, size: i64) -> Result<()>;
    /// Update a file's permission bits.
    fn set_file_permission(&self, filename: &str, permission: i64) -> Result<()>;
    /// Update a file's owner.
    fn set_file_owner(&self, filename: &str, owner: &str) -> Result<()>;

    // ---- distribution ----

    /// Append `added` (per server, its new brick numbers) to a file's brick
    /// lists iff it holds `expected_bricks` bricks; answers the entry as it
    /// stands afterwards either way.
    fn extend_distribution(
        &self,
        filename: &str,
        expected_bricks: i64,
        added: &[(String, Vec<i64>)],
    ) -> Result<FileEntry>;

    // ---- directories ----

    /// Create a directory (parent must exist).
    fn mkdir(&self, path: &str) -> Result<()>;
    /// Remove an empty directory.
    fn rmdir(&self, path: &str) -> Result<()>;
    /// Fetch one directory entry.
    fn get_dir(&self, path: &str) -> Result<Option<DirEntry>>;

    // ---- tags ----

    /// Attach (or replace) a user-defined tag on a file.
    fn set_tag(&self, filename: &str, tag: &str, value: &str) -> Result<()>;
    /// Read one tag.
    fn get_tag(&self, filename: &str, tag: &str) -> Result<Option<String>>;
    /// All tags on a file, sorted by key.
    fn list_tags(&self, filename: &str) -> Result<Vec<(String, String)>>;
    /// Remove a tag; returns whether it existed.
    fn remove_tag(&self, filename: &str, tag: &str) -> Result<bool>;
    /// Find files whose `tag` value matches a LIKE pattern.
    fn find_by_tag(&self, tag: &str, pattern: &str) -> Result<Vec<(String, String, i64)>>;

    // ---- reporting ----

    /// Per-server brick counts across all files (`df`-style output).
    fn server_brick_counts(&self) -> Result<Vec<(String, i64)>>;

    /// The embedded catalog behind this store, if it has one in-process
    /// (`None` for networked backends). Lets single-process tools (fsck,
    /// raw-SQL examples) keep catalog access without downcasting.
    fn as_catalog(&self) -> Option<&Catalog> {
        None
    }
}

/// The embedded backend, and the one `dpfs-metad` serves remotely. The
/// cross-shard rename primitives (`rename_prepare` … `rename_abort`) stay
/// inherent: an embedded mount never needs them — `rename_file` is atomic
/// there — so they are not part of the trait.
impl MetaStore for Catalog {
    fn register_server(&self, info: &ServerInfo) -> Result<()> {
        Catalog::register_server(self, info)
    }
    fn list_servers(&self) -> Result<Vec<ServerInfo>> {
        Catalog::list_servers(self)
    }
    fn get_server(&self, name: &str) -> Result<Option<ServerInfo>> {
        Catalog::get_server(self, name)
    }
    fn remove_server(&self, name: &str) -> Result<bool> {
        Catalog::remove_server(self, name)
    }

    fn create_file(&self, attr: &FileAttrRow, dist: &[Distribution]) -> Result<()> {
        Catalog::create_file(self, attr, dist)
    }
    fn delete_file(&self, filename: &str) -> Result<FileEntry> {
        Catalog::delete_file(self, filename)
    }
    fn rename_file(&self, from: &str, to: &str) -> Result<FileEntry> {
        Catalog::rename_file(self, from, to)
    }
    fn get_file_attr(&self, filename: &str) -> Result<Option<FileAttrRow>> {
        Catalog::get_file_attr(self, filename)
    }
    fn open_file(&self, filename: &str) -> Result<Option<FileEntry>> {
        Catalog::open_file(self, filename)
    }
    fn set_file_size(&self, filename: &str, size: i64) -> Result<()> {
        Catalog::set_file_size(self, filename, size)
    }
    fn set_file_permission(&self, filename: &str, permission: i64) -> Result<()> {
        Catalog::set_file_permission(self, filename, permission)
    }
    fn set_file_owner(&self, filename: &str, owner: &str) -> Result<()> {
        Catalog::set_file_owner(self, filename, owner)
    }

    fn extend_distribution(
        &self,
        filename: &str,
        expected_bricks: i64,
        added: &[(String, Vec<i64>)],
    ) -> Result<FileEntry> {
        Catalog::extend_distribution(self, filename, expected_bricks, added)
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        Catalog::mkdir(self, path)
    }
    fn rmdir(&self, path: &str) -> Result<()> {
        Catalog::rmdir(self, path)
    }
    fn get_dir(&self, path: &str) -> Result<Option<DirEntry>> {
        Catalog::get_dir(self, path)
    }

    fn set_tag(&self, filename: &str, tag: &str, value: &str) -> Result<()> {
        Catalog::set_tag(self, filename, tag, value)
    }
    fn get_tag(&self, filename: &str, tag: &str) -> Result<Option<String>> {
        Catalog::get_tag(self, filename, tag)
    }
    fn list_tags(&self, filename: &str) -> Result<Vec<(String, String)>> {
        Catalog::list_tags(self, filename)
    }
    fn remove_tag(&self, filename: &str, tag: &str) -> Result<bool> {
        Catalog::remove_tag(self, filename, tag)
    }
    fn find_by_tag(&self, tag: &str, pattern: &str) -> Result<Vec<(String, String, i64)>> {
        Catalog::find_by_tag(self, tag, pattern)
    }

    fn server_brick_counts(&self) -> Result<Vec<(String, i64)>> {
        Catalog::server_brick_counts(self)
    }

    fn as_catalog(&self) -> Option<&Catalog> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use std::sync::Arc;

    fn store() -> Catalog {
        Catalog::new(Arc::new(Database::in_memory())).unwrap()
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

    #[test]
    fn trait_object_covers_catalog_surface() {
        let s: Arc<dyn MetaStore> = Arc::new(store());
        s.register_server(&ServerInfo {
            name: "s0".into(),
            capacity: 1 << 30,
            performance: 1,
        })
        .unwrap();
        assert_eq!(s.list_servers().unwrap().len(), 1);
        s.mkdir("/home").unwrap();
        s.create_file(
            &attr("/home/f"),
            &[Distribution {
                server: "s0".into(),
                filename: "/home/f".into(),
                bricklist: vec![0, 1],
            }],
        )
        .unwrap();
        s.set_tag("/home/f", "k", "v").unwrap();
        assert_eq!(s.get_tag("/home/f", "k").unwrap().unwrap(), "v");
        let (moved, dist) = s.rename_file("/home/f", "/home/g").unwrap();
        assert_eq!((moved.filename.as_str(), dist.len()), ("/home/g", 1));
        assert_eq!(s.open_file("/home/g").unwrap(), Some((moved, dist)));
        assert_eq!(s.open_file("/home/f").unwrap(), None);
        assert_eq!(s.server_brick_counts().unwrap(), vec![("s0".into(), 2)]);
        s.delete_file("/home/g").unwrap();
        assert!(s.get_file_attr("/home/g").unwrap().is_none());
        assert!(s.as_catalog().is_some());
    }

    #[test]
    fn concurrent_mutations_serialize_without_lost_entries() {
        // Two threads race create/rename/delete over one shared store. The
        // database-wide transaction gate must serialize them: every file a
        // thread successfully created (and didn't delete) has a directory
        // entry, and no entry is duplicated or orphaned.
        let s = Arc::new(store());
        s.mkdir("/race").unwrap();
        let mut handles = Vec::new();
        for t in 0..2 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let f = format!("/race/t{t}-{i}");
                    let a = FileAttrRow {
                        filename: f.clone(),
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
                    s.create_file(&a, &[]).unwrap();
                    if i % 3 == 0 {
                        s.delete_file(&f).unwrap();
                    } else if i % 3 == 1 {
                        s.rename_file(&f, &format!("{f}-renamed")).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every surviving attr row has exactly one directory entry and
        // vice versa.
        let dir = s.get_dir("/race").unwrap().unwrap();
        let mut entries = dir.files.clone();
        entries.sort();
        let mut dedup = entries.clone();
        dedup.dedup();
        assert_eq!(entries, dedup, "duplicate directory entries");
        for f in &entries {
            assert!(
                s.get_file_attr(f).unwrap().is_some(),
                "dir entry {f} has no attr row"
            );
        }
        // 2 threads x 25 creates, each thread deleted 9 of its 25
        assert_eq!(entries.len(), 2 * (25 - 9));
    }

    #[test]
    fn racing_creates_on_same_path_pick_exactly_one_winner() {
        let s = Arc::new(store());
        s.mkdir("/c").unwrap();
        for i in 0..10 {
            let path = format!("/c/contended-{i}");
            let mut handles = Vec::new();
            for _ in 0..2 {
                let s = s.clone();
                let path = path.clone();
                handles.push(std::thread::spawn(move || {
                    s.create_file(&attr(&path), &[]).is_ok()
                }));
            }
            let wins: usize = handles
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum();
            assert_eq!(wins, 1, "exactly one create of {path} must win");
        }
        let dir = s.get_dir("/c").unwrap().unwrap();
        assert_eq!(dir.files.len(), 10, "one directory entry per path");
    }

    /// Every mutating accessor is one transaction, so one WAL commit record:
    /// a crash cannot leave half of one durable. A mutation that changes
    /// nothing, a refused one and a read append nothing at all.
    #[test]
    fn every_mutation_is_one_wal_commit() {
        use crate::wal::{read_wal, WalRecord};
        let dir = std::env::temp_dir().join(format!("dpfs-meta-commits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.join("wal.log");
        let s = Catalog::new(Arc::new(Database::open_with_sync(&dir, false).unwrap())).unwrap();
        let commits = || {
            let records = read_wal(&wal).unwrap();
            let n = records
                .iter()
                .filter(|r| matches!(r, WalRecord::Commit { .. }))
                .count();
            (n, records)
        };
        let dist = |name: &str| Distribution {
            server: "s0".into(),
            filename: name.into(),
            bricklist: vec![0],
        };
        let server = ServerInfo {
            name: "s0".into(),
            capacity: 1,
            performance: 1,
        };
        type Mutation<'a> = Box<dyn Fn() -> Result<()> + 'a>;
        let mutations: Vec<(&str, Mutation<'_>)> = vec![
            ("register_server", Box::new(|| s.register_server(&server))),
            ("mkdir", Box::new(|| s.mkdir("/d"))),
            (
                "create_file",
                Box::new(|| s.create_file(&attr("/d/f"), &[dist("/d/f")])),
            ),
            ("set_file_size", Box::new(|| s.set_file_size("/d/f", 9))),
            ("set_file_owner", Box::new(|| s.set_file_owner("/d/f", "o"))),
            (
                "set_file_permission",
                Box::new(|| s.set_file_permission("/d/f", 0o600)),
            ),
            (
                "extend_distribution",
                Box::new(|| {
                    s.extend_distribution("/d/f", 1, &[("s0".into(), vec![1])])
                        .map(|_| ())
                }),
            ),
            (
                "stale extend_distribution",
                Box::new(|| {
                    s.extend_distribution("/d/f", 1, &[("s0".into(), vec![1])])
                        .map(|_| ())
                }),
            ),
            ("set_tag", Box::new(|| s.set_tag("/d/f", "k", "v"))),
            (
                "rename_file",
                Box::new(|| s.rename_file("/d/f", "/d/g").map(|_| ())),
            ),
            (
                "remove_tag",
                Box::new(|| s.remove_tag("/d/g", "k").map(|_| ())),
            ),
            (
                "rename 2pc",
                Box::new(|| {
                    let (intent, mut a, _, tags) = s.rename_prepare("/d/g", "/d/h")?;
                    a.filename = "/d/h".into();
                    s.rename_commit_dest(intent, &a, &[dist("/d/h")], &tags)?;
                    s.rename_finish(intent)
                }),
            ),
            (
                "rename_abort",
                Box::new(|| {
                    let (intent, ..) = s.rename_prepare("/d/h", "/d/i")?;
                    s.rename_abort(intent).map(|_| ())
                }),
            ),
            (
                "delete_file",
                Box::new(|| s.delete_file("/d/h").map(|_| ())),
            ),
            ("rmdir", Box::new(|| s.rmdir("/d"))),
            (
                "remove_server",
                Box::new(|| s.remove_server("s0").map(|_| ())),
            ),
        ];
        for (name, mutation) in &mutations {
            let before = commits().0;
            mutation().unwrap();
            let expect = match *name {
                "rename 2pc" => 3,
                "rename_abort" => 2,
                "stale extend_distribution" => 0,
                _ => 1,
            };
            assert_eq!(commits().0, before + expect, "{name}: WAL commits");
        }
        // A refused mutation, a read, and a mutation that finds nothing to
        // change append not one byte.
        let before = std::fs::metadata(&wal).unwrap().len();
        assert!(s.mkdir("/no/parent").is_err());
        s.get_file_attr("/d/h").unwrap();
        assert!(!s.remove_tag("/d/h", "k").unwrap());
        assert!(!s.remove_server("s0").unwrap());
        assert!(!s.rename_abort(99).unwrap());
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), before);

        // `rename_prepare`'s transaction holds the sequence step *and* the
        // intent row: no crash can issue an id without recording its intent,
        // or record an intent under an id the sequence may issue again.
        let mut touched: std::collections::BTreeMap<u64, (bool, bool)> = Default::default();
        for r in &commits().1 {
            let entry = touched.entry(r.txn()).or_default();
            match r {
                WalRecord::Update { table, .. } if table == "dpfs_meta_gen" => entry.0 = true,
                WalRecord::Insert { table, .. } if table == "dpfs_rename_intent" => entry.1 = true,
                _ => {}
            }
        }
        let prepares: Vec<_> = touched.values().filter(|t| t.0 || t.1).collect();
        assert_eq!(prepares, [&(true, true); 2], "{touched:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
