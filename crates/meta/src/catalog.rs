//! The DPFS metadata catalog: the paper's four database tables
//! (§5, Figure 10) with typed accessors, all implemented as SQL issued
//! against the embedded engine — exactly how the paper's client library
//! talks to POSTGRES.
//!
//! - `dpfs_server(server_name, capacity, performance)`
//! - `dpfs_file_distribution(server, filename, bricklist)`
//! - `dpfs_directory(main_dir, sub_dirs, files)`
//! - `dpfs_file_attr(filename, owner, permission, size, filelevel, dims,
//!    dimsize, stripe_dims, stripe_size, pattern)`
//!
//! Deviation from the paper: a directory's `sub_dirs` and `files` lists are
//! not columns of its `dpfs_directory` row but rows of their own in
//! `dpfs_dirent(path, parent, kind)`, one per child, keyed by the child's
//! path and indexed by its parent. Creating or removing an entry then
//! writes one small row, whatever the directory holds; the TEXT columns
//! stay empty (a catalog that filled them is migrated when it is opened).
//! A second deviation: `dpfs_file_attr` carries a `file_id` column, the
//! file's immutable id, by which the I/O servers name its subfiles — so a
//! rename never reaches them (a catalog without the column gets ids when it
//! is opened). Brick lists use INTLIST, as in the paper.
//!
//! Every statement here is a constant text with `?` placeholders; values
//! travel as bound parameters, never as SQL. A name can therefore hold any
//! character without an escaping rule, and each text is parsed once.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::db::{Database, ResultSet, Txn};
use crate::error::{MetaError, Result};
use crate::placement;
use crate::value::Value;

/// A pending cross-shard rename recorded on the source shard: the entry at
/// `src` is being moved to `dst` (owned by a different shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameIntent {
    pub id: i64,
    pub src: String,
    pub dst: String,
}

/// Row of `dpfs_server`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Server name, e.g. `ccn60.mcs.anl.gov`; unique.
    pub name: String,
    /// Available storage space in bytes.
    pub capacity: i64,
    /// Normalized performance number: 1 for the fastest server, larger
    /// integers for slower ones (paper §4.1). Used by the greedy striping
    /// algorithm.
    pub performance: i64,
}

/// Row of `dpfs_file_distribution`: which bricks of `filename` live on
/// `server`, forming one subfile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    pub server: String,
    pub filename: String,
    /// Brick numbers held by this server, in subfile order: brick
    /// `bricklist[i]` occupies slot `i` of the subfile.
    pub bricklist: Vec<i64>,
}

/// A directory as its `dpfs_directory` row and its `dpfs_dirent` rows give
/// it: the children's full paths, each list in name order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    pub main_dir: String,
    pub sub_dirs: Vec<String>,
    pub files: Vec<String>,
}

/// Row of `dpfs_file_attr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAttrRow {
    /// Absolute DPFS path; primary key.
    pub filename: String,
    pub owner: String,
    /// UNIX-style permission bits, e.g. 0o744.
    pub permission: i64,
    /// Total file size in bytes.
    pub size: i64,
    /// File level: `"linear"`, `"multidim"` or `"array"`.
    pub filelevel: String,
    /// Number of array dimensions (0 for linear files).
    pub dims: i64,
    /// Global array extent per dimension (element counts).
    pub dimsize: Vec<i64>,
    /// Striping-unit extent per dimension (multidim level), or empty.
    pub stripe_dims: Vec<i64>,
    /// Striping-unit size in bytes (linear level) or element size (array
    /// levels).
    pub stripe_size: i64,
    /// HPF distribution pattern for array-level files, e.g. `"BLOCK,*"`;
    /// empty otherwise.
    pub pattern: String,
    /// Striping algorithm used at creation: `"round_robin"` or `"greedy"`.
    pub placement: String,
    /// Redundancy policy: `""` (none), `"replica:K"`, or `"xor"`.
    pub redundancy: String,
}

/// A file's catalog entry as `open`, `unlink` and `rename` need it: its id,
/// the attribute row and the per-server distribution, read (or removed, or
/// moved) in one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Minted at `create` and never changed, a rename across shards
    /// included: the I/O servers name the file's subfiles by it. The high
    /// 16 bits are the creating shard, the low 48 that shard's sequence
    /// value ([`Catalog::for_shard`]).
    pub id: u64,
    pub attr: FileAttrRow,
    pub dist: Vec<Distribution>,
}

/// One consistency violation: fsck's vocabulary. [`Catalog::audit`] finds
/// the ones the tables show on their own; the client finds the entries
/// `open` refuses and, online, what the subfiles on the servers show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Issue {
    /// A `dpfs_file_distribution` row references a file with no attribute
    /// row.
    OrphanDistribution { filename: String, server: String },
    /// A file has an attribute row but no distribution rows.
    MissingDistribution { filename: String },
    /// A file's brick lists do not form a partition of `0..num_bricks`.
    CorruptBricklists { filename: String, detail: String },
    /// A file's attribute row cannot be interpreted (bad level/geometry).
    BadAttributes { filename: String, detail: String },
    /// A directory lists a file that has no attribute row.
    DanglingDirEntry { dir: String, name: String },
    /// A file's attribute row is not listed in its parent directory.
    UnlistedFile { filename: String },
    /// A directory row's parent is missing or does not list it.
    OrphanDirectory { dir: String },
    /// A directory listed as a child has no row of its own.
    MissingDirectory { dir: String, parent: String },
    /// A distribution row references a server absent from `dpfs_server`.
    UnknownServer { filename: String, server: String },
    /// Online check: a server that should hold data has no subfile.
    SubfileMissing { filename: String, server: String },
    /// Online check: a subfile is larger than its bricks allow.
    SubfileOversized {
        filename: String,
        server: String,
        max_expected: u64,
        actual: u64,
    },
    /// Online check: a server did not respond.
    ServerUnreachable { server: String },
    /// Online check: a redundant file's mirror or parity subfile is
    /// missing or shorter than the data it must protect (e.g. after a
    /// server came back with an empty disk); re-protection rebuilds these
    /// from the surviving copies.
    UnderProtected {
        filename: String,
        server: String,
        subfile: String,
    },
}

/// What [`Catalog::audit`] found in one catalog, and did about it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Audit {
    /// The violations the tables show, in discovery order (before any
    /// repair).
    pub issues: Vec<Issue>,
    /// The repairs applied, one line each (none unless asked to repair).
    pub fixed: Vec<String>,
    /// Every file with an attribute row here, in name order.
    pub files: Vec<String>,
    /// Directories reached walking the tree from `/`.
    pub dirs: u64,
}

/// Typed facade over the DPFS metadata tables.
#[derive(Clone)]
pub struct Catalog {
    db: Arc<Database>,
    /// The metadata shard this catalog serves (0 on its own): the high bits of
    /// every file id it mints.
    shard: u32,
}

/// One row per directory entry: the child's full path, its parent and
/// whether it is a [`FILE`] or a [`DIR`].
const DIRENT_TABLE: &str = "CREATE TABLE IF NOT EXISTS dpfs_dirent (
        path TEXT PRIMARY KEY,
        parent TEXT NOT NULL,
        kind TEXT NOT NULL)";

/// A file's attributes, and the id its subfiles are named by.
const FILE_ATTR_TABLE: &str = "CREATE TABLE IF NOT EXISTS dpfs_file_attr (
        filename TEXT PRIMARY KEY,
        owner TEXT NOT NULL,
        permission INT NOT NULL,
        size INT NOT NULL,
        filelevel TEXT NOT NULL,
        dims INT NOT NULL,
        dimsize INTLIST NOT NULL,
        stripe_dims INTLIST NOT NULL,
        stripe_size INT NOT NULL,
        pattern TEXT NOT NULL,
        placement TEXT NOT NULL,
        redundancy TEXT NOT NULL,
        file_id INT NOT NULL)";

/// `dpfs_dirent.kind` of a file.
const FILE: &str = "file";
/// `dpfs_dirent.kind` of a sub-directory.
const DIR: &str = "dir";

/// The tables, and the secondary indexes behind every by-filename lookup
/// that is not a primary-key lookup. Indexes are derived state the engine
/// neither logs nor snapshots, so they are declared on every open — which
/// is also how a directory written before they existed gets them.
const SCHEMA: &[&str] = &[
    "CREATE TABLE IF NOT EXISTS dpfs_server (
        server_name TEXT PRIMARY KEY,
        capacity INT NOT NULL,
        performance INT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS dpfs_file_distribution (
        dist_key TEXT PRIMARY KEY,
        server TEXT NOT NULL,
        filename TEXT NOT NULL,
        bricklist INTLIST NOT NULL)",
    "CREATE TABLE IF NOT EXISTS dpfs_directory (
        main_dir TEXT PRIMARY KEY,
        sub_dirs TEXT NOT NULL,
        files TEXT NOT NULL)",
    FILE_ATTR_TABLE,
    "CREATE TABLE IF NOT EXISTS dpfs_file_tags (
        tag_id TEXT PRIMARY KEY,
        filename TEXT NOT NULL,
        tag TEXT NOT NULL,
        value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS dpfs_rename_intent (
        intent_id INT PRIMARY KEY,
        src TEXT NOT NULL,
        dst TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS dpfs_meta_gen (k TEXT PRIMARY KEY, gen INT NOT NULL)",
    DIRENT_TABLE,
    "CREATE INDEX IF NOT EXISTS dpfs_file_distribution_by_filename
        ON dpfs_file_distribution (filename)",
    "CREATE INDEX IF NOT EXISTS dpfs_file_tags_by_filename ON dpfs_file_tags (filename)",
    "CREATE INDEX IF NOT EXISTS dpfs_dirent_by_parent ON dpfs_dirent (parent)",
];

impl Catalog {
    /// [`Catalog::for_shard`] for shard 0: a one-shard plane's catalog (and a
    /// wider plane's first).
    pub fn new(db: Arc<Database>) -> Result<Catalog> {
        Catalog::for_shard(db, 0)
    }

    /// Wrap the database of metadata shard `shard`, creating the DPFS tables
    /// if they don't exist, declaring their indexes, and ensuring the root
    /// directory `/` and the sequence row are present. A catalog that keeps
    /// its directory entries in `dpfs_directory`'s TEXT lists moves them into
    /// `dpfs_dirent`, and one without file ids gives every file one; each in
    /// one transaction, logged with the next write. `shard` must fit the 16
    /// bits a file id keeps for it.
    pub fn for_shard(db: Arc<Database>, shard: u32) -> Result<Catalog> {
        if shard > 0xffff {
            return Err(MetaError::Txn(format!(
                "shard {shard} does not fit a file id"
            )));
        }
        let tables = db.table_names();
        let has = |name: &str| tables.iter().any(|t| t == name);
        if has("dpfs_directory") && !has("dpfs_dirent") {
            db.transaction_deferred(migrate_listings)?;
        }
        for ddl in SCHEMA {
            db.execute(ddl)?;
        }
        // One transaction, so concurrent first mounts race safely (one
        // seeds, the other sees it).
        db.transaction(|txn| {
            if !dir_exists(txn, "/")? {
                insert_dir(txn, "/")?;
            }
            if txn
                .execute("SELECT gen FROM dpfs_meta_gen WHERE k = 'g'")?
                .rows
                .is_empty()
            {
                txn.execute("INSERT INTO dpfs_meta_gen VALUES ('g', 1)")?;
            }
            Ok(())
        })?;
        if !db.has_column("dpfs_file_attr", "file_id") {
            db.transaction_deferred(|txn| migrate_file_ids(txn, shard))?;
        }
        Ok(Catalog { db, shard })
    }

    /// The underlying database (for raw SQL, checkpointing, inspection).
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    // ---- dpfs_server ----

    /// Register an I/O server (or update its capacity/performance if it
    /// already exists).
    pub fn register_server(&self, info: &ServerInfo) -> Result<()> {
        self.db.transaction(|txn| {
            let updated = txn.execute_with(
                "UPDATE dpfs_server SET capacity = ?, performance = ? WHERE server_name = ?",
                &[
                    info.capacity.into(),
                    info.performance.into(),
                    info.name.as_str().into(),
                ],
            )?;
            if affected(&updated)? == 0 {
                txn.execute_with(
                    "INSERT INTO dpfs_server VALUES (?, ?, ?)",
                    &[
                        info.name.as_str().into(),
                        info.capacity.into(),
                        info.performance.into(),
                    ],
                )?;
            }
            Ok(())
        })
    }

    /// All registered servers ordered by name.
    pub fn list_servers(&self) -> Result<Vec<ServerInfo>> {
        self.db.transaction(list_servers)
    }

    /// Look up one server.
    pub fn get_server(&self, name: &str) -> Result<Option<ServerInfo>> {
        let rs = self.db.execute_with(
            "SELECT server_name, capacity, performance FROM dpfs_server WHERE server_name = ?",
            &[name.into()],
        )?;
        rs.rows.first().map(|r| server_from_row(r)).transpose()
    }

    /// Remove a server from the pool.
    pub fn remove_server(&self, name: &str) -> Result<bool> {
        self.db.transaction(|txn| {
            let rs = txn.execute_with(
                "DELETE FROM dpfs_server WHERE server_name = ?",
                &[name.into()],
            )?;
            Ok(affected(&rs)? > 0)
        })
    }

    // ---- file creation / deletion (transactional across all four tables) ----

    /// Create a file: mints its id, inserts its attributes, its per-server
    /// brick distribution, and links it into its parent directory —
    /// atomically, in one transaction (the consistency property the paper
    /// buys from the database). Returns the id.
    ///
    /// `dist` is either the distribution itself or slots for the catalog to
    /// fill. Rows that all name their server are stored as given. Rows none
    /// of which names a server ask for that many servers, and no rows for
    /// every registered one: the catalog takes the first that many servers
    /// of its registry by name and places the file's bricks over them by
    /// the attribute row's geometry and placement ([`placement`]), the last
    /// one's row brickless under XOR parity. A policy the servers cannot
    /// carry is refused as [`MetaError::InvalidArgument`].
    pub fn create_file(&self, attr: &FileAttrRow, dist: &[Distribution]) -> Result<u64> {
        self.create(attr, dist).map(|(id, _)| id)
    }

    /// [`Catalog::create_file`], answering the entry it made: its id, and
    /// the distribution as placed.
    pub fn create_file_entry(
        &self,
        attr: FileAttrRow,
        dist: Vec<Distribution>,
    ) -> Result<FileEntry> {
        let (id, placed) = self.create(&attr, &dist)?;
        Ok(FileEntry {
            id,
            attr,
            dist: placed.unwrap_or(dist),
        })
    }

    /// Create a file; answers its id and, when the catalog named the
    /// servers, the rows it placed.
    fn create(
        &self,
        attr: &FileAttrRow,
        dist: &[Distribution],
    ) -> Result<(u64, Option<Vec<Distribution>>)> {
        self.db.transaction(|txn| {
            let id = file_id(self.shard, next_gen(txn)?);
            create_entry(txn, id, attr, &[], &[])?;
            if dist.iter().any(|d| !d.server.is_empty()) {
                if dist.iter().any(|d| d.server.is_empty()) {
                    return Err(MetaError::InvalidArgument(format!(
                        "the distribution of {} names some servers but not all",
                        attr.filename
                    )));
                }
                insert_distribution(txn, dist)?;
                return Ok((id, None));
            }
            let placed = place(txn, attr, dist.len())?;
            insert_distribution(txn, &placed)?;
            Ok((id, Some(placed)))
        })
    }

    /// Delete a file: removes attributes, distribution rows, and the
    /// directory link in one transaction. Returns the entry that was removed
    /// (callers use it to delete the subfiles — the redundancy policy's
    /// derived ones included — on each server).
    pub fn delete_file(&self, filename: &str) -> Result<FileEntry> {
        self.db.transaction(|txn| {
            let entry = get_entry(txn, filename)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("file {filename}")))?;
            remove_entry(txn, filename)?;
            Ok(entry)
        })
    }

    /// Fetch a file's attribute row.
    pub fn get_file_attr(&self, filename: &str) -> Result<Option<FileAttrRow>> {
        let entry = self.db.transaction(|txn| attr_row(txn, filename))?;
        Ok(entry.map(|(_, attr)| attr))
    }

    /// Fetch a file's attribute row and distribution, consistent with each
    /// other: everything `open` needs.
    pub fn open_file(&self, filename: &str) -> Result<Option<FileEntry>> {
        self.db.transaction(|txn| get_entry(txn, filename))
    }

    /// Set one attribute column of an existing file.
    fn set_attr(&self, sql: &str, value: Value, filename: &str) -> Result<()> {
        self.db.transaction(|txn| {
            let rs = txn.execute_with(sql, &[value, filename.into()])?;
            if affected(&rs)? == 0 {
                return Err(MetaError::NoSuchTable(format!("file {filename}")));
            }
            Ok(())
        })
    }

    /// Grow a file's recorded size to at least `size` — `size = max(size,
    /// ?)` in one transaction, so the result does not depend on the order in
    /// which the growing writes of several handles arrive. A file already
    /// that long is left alone; a missing file is `NoSuchTable`.
    pub fn set_file_size(&self, filename: &str, size: i64) -> Result<()> {
        self.db.transaction(|txn| {
            let grown = txn.execute_with(
                "UPDATE dpfs_file_attr SET size = ? WHERE filename = ? AND size < ?",
                &[Value::Int(size), filename.into(), Value::Int(size)],
            )?;
            if affected(&grown)? == 0 && !file_exists(txn, filename)? {
                return Err(MetaError::NoSuchTable(format!("file {filename}")));
            }
            Ok(())
        })
    }

    /// Update a file's permission bits.
    pub fn set_file_permission(&self, filename: &str, permission: i64) -> Result<()> {
        self.set_attr(
            "UPDATE dpfs_file_attr SET permission = ? WHERE filename = ?",
            Value::Int(permission),
            filename,
        )
    }

    /// Update a file's owner.
    pub fn set_file_owner(&self, filename: &str, owner: &str) -> Result<()> {
        self.set_attr(
            "UPDATE dpfs_file_attr SET owner = ? WHERE filename = ?",
            owner.into(),
            filename,
        )
    }

    // ---- dpfs_file_tags (MDMS-style dataset attributes; extension) ----

    /// Attach (or replace) a user-defined tag on a file. Tags are the
    /// MDMS-flavoured dataset attributes the paper's group layered over
    /// databases (§9 group 4, §10): free-form key/value metadata that the
    /// SQL engine can then query.
    pub fn set_tag(&self, filename: &str, tag: &str, value: &str) -> Result<()> {
        self.db.transaction(|txn| {
            if !file_exists(txn, filename)? {
                return Err(MetaError::NoSuchTable(format!("file {filename}")));
            }
            let updated = txn.execute_with(
                "UPDATE dpfs_file_tags SET value = ? WHERE tag_id = ?",
                &[value.into(), tag_key(filename, tag).into()],
            )?;
            if affected(&updated)? == 0 {
                insert_tag(txn, filename, tag, value)?;
            }
            Ok(())
        })
    }

    /// Read one tag.
    pub fn get_tag(&self, filename: &str, tag: &str) -> Result<Option<String>> {
        let rs = self.db.execute_with(
            "SELECT value FROM dpfs_file_tags WHERE tag_id = ?",
            &[tag_key(filename, tag).into()],
        )?;
        match rs.rows.first() {
            None => Ok(None),
            Some(r) => Ok(Some(r[0].as_text()?.to_string())),
        }
    }

    /// All tags on a file, sorted by key.
    pub fn list_tags(&self, filename: &str) -> Result<Vec<(String, String)>> {
        self.db.transaction(|txn| list_tags(txn, filename))
    }

    /// Remove a tag; returns whether it existed.
    pub fn remove_tag(&self, filename: &str, tag: &str) -> Result<bool> {
        self.db.transaction(|txn| {
            let rs = txn.execute_with(
                "DELETE FROM dpfs_file_tags WHERE tag_id = ?",
                &[tag_key(filename, tag).into()],
            )?;
            Ok(affected(&rs)? > 0)
        })
    }

    /// Find files whose `tag` value matches a LIKE `pattern`; returns
    /// `(filename, value, size)` via a join against the attribute table.
    pub fn find_by_tag(&self, tag: &str, pattern: &str) -> Result<Vec<(String, String, i64)>> {
        let rs = self.db.execute_with(
            "SELECT dpfs_file_tags.filename, value, size FROM dpfs_file_tags \
             JOIN dpfs_file_attr ON dpfs_file_tags.filename = dpfs_file_attr.filename \
             WHERE tag = ? AND value LIKE ? ORDER BY dpfs_file_tags.filename",
            &[tag.into(), pattern.into()],
        )?;
        rs.rows
            .iter()
            .map(|r| {
                Ok((
                    r[0].as_text()?.to_string(),
                    r[1].as_text()?.to_string(),
                    r[2].as_int()?,
                ))
            })
            .collect()
    }

    /// The per-server brick distribution of a file, ordered by server name.
    pub fn get_distribution(&self, filename: &str) -> Result<Vec<Distribution>> {
        self.db.transaction(|txn| get_distribution(txn, filename))
    }

    /// Grow a file's brick lists to at least `bricks` bricks, continuing the
    /// file's own placement from its stored lists: round-robin from the
    /// next brick number, greedy from each data server's weighted load with
    /// the performance numbers of this shard's registry (1 for a server it
    /// does not list). A file that already holds `bricks` is left as it is.
    /// Either way the answer is the file's entry as it stands afterwards: a
    /// caller that lost a race adopts the winner's map from the same reply.
    /// Brick lists only ever grow, and only here.
    pub fn extend_distribution(&self, filename: &str, bricks: i64) -> Result<FileEntry> {
        self.db.transaction(|txn| {
            let mut entry = get_entry(txn, filename)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("file {filename}")))?;
            let have: usize = entry.dist.iter().map(|d| d.bricklist.len()).sum();
            if have as i64 >= bricks {
                return Ok(entry);
            }
            let data = placement::data_servers(&entry.attr.redundancy, entry.dist.len())?;
            let rows = &mut entry.dist[..data];
            let perf = match placement::is_greedy(&entry.attr.placement)? {
                false => None,
                true => {
                    let registry = list_servers(txn)?;
                    let number = |name: &str| {
                        let found = registry.iter().find(|s| s.name == name);
                        found.map_or(1, |s| s.performance.max(1))
                    };
                    Some(rows.iter().map(|d| number(&d.server)).collect::<Vec<i64>>())
                }
            };
            let mut lists: Vec<Vec<i64>> = rows
                .iter_mut()
                .map(|d| std::mem::take(&mut d.bricklist))
                .collect();
            let before: Vec<usize> = lists.iter().map(Vec::len).collect();
            placement::extend(&mut lists, bricks as u64, perf.as_deref())?;
            for ((row, list), before) in rows.iter_mut().zip(lists).zip(before) {
                row.bricklist = list;
                if row.bricklist.len() == before {
                    continue;
                }
                txn.execute_with(
                    "UPDATE dpfs_file_distribution SET bricklist = ? WHERE dist_key = ?",
                    &[
                        row.bricklist.clone().into(),
                        composite_key(&[&row.server, filename]).into(),
                    ],
                )?;
            }
            Ok(entry)
        })
    }

    // ---- dpfs_directory ----

    /// Create a directory. Parent must exist; fails on duplicates.
    pub fn mkdir(&self, path: &str) -> Result<()> {
        let path = normalize_path(path)?;
        check_chars(&path)?;
        if path == "/" {
            return Err(MetaError::DuplicateKey("/ always exists".into()));
        }
        self.db.transaction(|txn| {
            let parent = existing_parent(txn, &path)?;
            if dir_exists(txn, &path)? {
                return Err(MetaError::DuplicateKey(format!("directory {path} exists")));
            }
            match link(txn, &path, &parent, DIR) {
                // Not `DuplicateKey`: a sharded mkdir counts that from a
                // replica as "has the directory already" and goes on.
                Err(MetaError::DuplicateKey(_)) if listed_as_file(txn, &path)? => {
                    return Err(MetaError::Txn(format!("path {path} is a file")));
                }
                linked => linked?,
            }
            insert_dir(txn, &path)
        })
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        let path = normalize_path(path)?;
        if path == "/" {
            return Err(MetaError::Txn("cannot remove /".into()));
        }
        self.db.transaction(|txn| {
            if !dir_exists(txn, &path)? {
                return Err(MetaError::NoSuchTable(format!("directory {path}")));
            }
            let children = txn.execute_with(
                "SELECT path FROM dpfs_dirent WHERE parent = ? LIMIT 1",
                &[path.as_str().into()],
            )?;
            if !children.rows.is_empty() {
                return Err(MetaError::Txn(format!("directory {path} not empty")));
            }
            txn.execute_with(
                "DELETE FROM dpfs_directory WHERE main_dir = ?",
                &[path.as_str().into()],
            )?;
            unlink(txn, &path, DIR)
        })
    }

    /// Fetch one directory entry.
    pub fn get_dir(&self, path: &str) -> Result<Option<DirEntry>> {
        let path = normalize_path(path)?;
        self.db.transaction(|txn| get_dir(txn, &path))
    }

    /// Rename a file within the same directory tree (metadata only: the
    /// file keeps its id, and with it its subfiles). Returns the entry that
    /// moved, under its new name. Each row of the entry — attributes,
    /// distribution, tags, directory link — changes its key in place.
    pub fn rename_file(&self, from: &str, to: &str) -> Result<FileEntry> {
        let from = normalize_path(from)?;
        let to = normalize_path(to)?;
        if parent_dir(&from).is_none() {
            return Err(MetaError::Txn(format!("{from} has no parent")));
        }
        self.db.transaction(|txn| {
            let mut entry = get_entry(txn, &from)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("file {from}")))?;
            if file_exists(txn, &to)? {
                return Err(MetaError::DuplicateKey(format!("file {to} exists")));
            }
            check_chars(&to)?;
            let parent = existing_parent(txn, &to)?;
            txn.execute_with(
                "UPDATE dpfs_file_attr SET filename = ? WHERE filename = ?",
                &[to.as_str().into(), from.as_str().into()],
            )?;
            for d in &mut entry.dist {
                txn.execute_with(
                    "UPDATE dpfs_file_distribution SET dist_key = ?, filename = ? \
                     WHERE dist_key = ?",
                    &[
                        composite_key(&[&d.server, &to]).into(),
                        to.as_str().into(),
                        composite_key(&[&d.server, &from]).into(),
                    ],
                )?;
                d.filename = to.clone();
            }
            for (tag, _) in list_tags(txn, &from)? {
                txn.execute_with(
                    "UPDATE dpfs_file_tags SET tag_id = ?, filename = ? WHERE tag_id = ?",
                    &[
                        tag_key(&to, &tag).into(),
                        to.as_str().into(),
                        tag_key(&from, &tag).into(),
                    ],
                )?;
            }
            let moved = txn
                .execute_with(
                    "UPDATE dpfs_dirent SET path = ?, parent = ? WHERE path = ? AND kind = ?",
                    &[
                        to.as_str().into(),
                        parent.as_str().into(),
                        from.as_str().into(),
                        FILE.into(),
                    ],
                )
                .map_err(|e| taken(e, &to, FILE))?;
            // A file no directory listed is listed under its new name.
            if affected(&moved)? == 0 {
                link(txn, &to, &parent, FILE)?;
            }
            entry.attr.filename = to;
            Ok(entry)
        })
    }

    // ---- cross-shard rename (two-phase, driven by the client) ----
    //
    // When `from` and `to` live on different metadata shards a single
    // transaction cannot cover both databases. The protocol is:
    //
    //   1. `rename_prepare` on the SOURCE shard records an intent row and
    //      returns a snapshot of the entry (id, attrs, distribution, tags).
    //      The source entry stays visible.
    //   2. `rename_commit_dest` on the DESTINATION shard creates the entry
    //      under the new name in one transaction, keeping the source's id.
    //      This is the commit point.
    //   3. `rename_finish` on the source shard deletes the source entry and
    //      the intent.
    //
    // A crash between phases leaves the intent row resolvable: if the
    // destination holds an entry with the source's id the rename committed
    // (roll forward with `rename_finish`); otherwise it did not
    // (`rename_abort`). Ids are never reused, so no other file's entry can
    // pass for the moved one.

    /// Phase 1 on the source shard: record an intent and snapshot the entry
    /// and its tags. The entry at `from` must exist and stays visible until
    /// `rename_finish`.
    #[allow(clippy::type_complexity)]
    pub fn rename_prepare(
        &self,
        from: &str,
        to: &str,
    ) -> Result<(i64, FileEntry, Vec<(String, String)>)> {
        let from = normalize_path(from)?;
        let to = normalize_path(to)?;
        self.db.transaction(|txn| {
            let entry = get_entry(txn, &from)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("file {from}")))?;
            let tags = list_tags(txn, &from)?;
            let intent = next_gen(txn)?;
            txn.execute_with(
                "INSERT INTO dpfs_rename_intent VALUES (?, ?, ?)",
                &[Value::Int(intent), from.as_str().into(), to.as_str().into()],
            )?;
            Ok((intent, entry, tags))
        })
    }

    /// Phase 2 on the destination shard: create the renamed entry — its id,
    /// attrs, distribution and tags — in one transaction. `entry.attr.filename`
    /// and each distribution row must already carry the destination path.
    /// Fails with `DuplicateKey` if the destination exists.
    pub fn rename_commit_dest(&self, entry: &FileEntry, tags: &[(String, String)]) -> Result<()> {
        self.db
            .transaction(|txn| create_entry(txn, entry.id, &entry.attr, &entry.dist, tags))
    }

    /// Phase 3 on the source shard: drop the source entry and its intent.
    /// Idempotent with respect to the source rows (a crash-resumed finish
    /// may find them already gone); errors only if the intent is unknown.
    pub fn rename_finish(&self, intent: i64) -> Result<()> {
        self.db.transaction(|txn| {
            let rs = txn.execute_with(
                "SELECT src FROM dpfs_rename_intent WHERE intent_id = ?",
                &[Value::Int(intent)],
            )?;
            let src = match rs.rows.first() {
                Some(r) => r[0].as_text()?.to_string(),
                None => return Err(MetaError::NoSuchTable(format!("rename intent {intent}"))),
            };
            remove_entry(txn, &src)?;
            delete_intent(txn, intent)?;
            Ok(())
        })
    }

    /// Abandon a prepared rename; returns whether the intent existed. The
    /// source entry was never hidden, so there is nothing else to undo.
    pub fn rename_abort(&self, intent: i64) -> Result<bool> {
        self.db.transaction(|txn| delete_intent(txn, intent))
    }

    /// All pending cross-shard rename intents on this shard, oldest first.
    pub fn list_rename_intents(&self) -> Result<Vec<RenameIntent>> {
        let rs = self
            .db
            .execute("SELECT intent_id, src, dst FROM dpfs_rename_intent ORDER BY intent_id")?;
        rs.rows
            .iter()
            .map(|r| {
                Ok(RenameIntent {
                    id: r[0].as_int()?,
                    src: r[1].as_text()?.to_string(),
                    dst: r[2].as_text()?.to_string(),
                })
            })
            .collect()
    }

    /// Total and per-server brick counts for all files (for `df`-style
    /// output).
    pub fn server_brick_counts(&self) -> Result<Vec<(String, i64)>> {
        let rs = self
            .db
            .execute("SELECT server, bricklist FROM dpfs_file_distribution ORDER BY server")?;
        let mut counts: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
        for r in &rs.rows {
            let server = r[0].as_text()?.to_string();
            let n = r[1].as_int_list()?.len() as i64;
            *counts.entry(server).or_insert(0) += n;
        }
        Ok(counts.into_iter().collect())
    }

    // ---- consistency audit (fsck's catalog half) ----

    /// Cross-check the tables against each other, in one transaction:
    /// distribution rows of no file or of an unregistered server, files
    /// without a distribution, directory entries naming no file, files no
    /// directory lists, and the tree walked from `/` — rows it never
    /// reaches, listed children without a row. With `repair`, the same
    /// transaction also applies the safe fixes: drop orphan distribution
    /// rows, unlink dangling entries, re-link unlisted files and orphan
    /// directories into an existing parent, create missing directory rows.
    /// Nothing that decides where a file's bytes live is guessed at.
    pub fn audit(&self, repair: bool) -> Result<Audit> {
        self.db.transaction(|txn| {
            let mut issues = Vec::new();
            let files = texts(txn.execute("SELECT filename FROM dpfs_file_attr")?)?;
            let servers = texts(txn.execute("SELECT server_name FROM dpfs_server")?)?;
            let rows = txn.execute(
                "SELECT filename, server FROM dpfs_file_distribution ORDER BY filename, server",
            )?;
            let mut distributed = BTreeSet::new();
            for r in &rows.rows {
                let (filename, server) = (r[0].as_text()?.to_string(), r[1].as_text()?.to_string());
                if !files.contains(&filename) {
                    issues.push(Issue::OrphanDistribution {
                        filename: filename.clone(),
                        server: server.clone(),
                    });
                }
                if !servers.contains(&server) {
                    issues.push(Issue::UnknownServer {
                        filename: filename.clone(),
                        server,
                    });
                }
                distributed.insert(filename);
            }
            for filename in files.difference(&distributed).cloned() {
                issues.push(Issue::MissingDistribution { filename });
            }
            let dirs = texts(txn.execute("SELECT main_dir FROM dpfs_directory")?)?;
            let (mut reached, mut listed) = (BTreeSet::new(), BTreeSet::new());
            let mut stack = vec!["/".to_string()];
            while let Some(dir) = stack.pop() {
                if !reached.insert(dir.clone()) {
                    continue;
                }
                let Some(entry) = get_dir(txn, &dir)? else {
                    continue;
                };
                for sub in entry.sub_dirs {
                    if dirs.contains(&sub) {
                        stack.push(sub);
                    } else {
                        let parent = dir.clone();
                        issues.push(Issue::MissingDirectory { dir: sub, parent });
                    }
                }
                for name in entry.files {
                    if !files.contains(&name) {
                        let dir = dir.clone();
                        issues.push(Issue::DanglingDirEntry {
                            dir,
                            name: name.clone(),
                        });
                    }
                    listed.insert(name);
                }
            }
            let orphans = dirs.difference(&reached).cloned();
            issues.extend(orphans.map(|dir| Issue::OrphanDirectory { dir }));
            let unlisted = files.difference(&listed).cloned();
            issues.extend(unlisted.map(|filename| Issue::UnlistedFile { filename }));
            let mut fixed = Vec::new();
            if repair {
                for issue in &issues {
                    fixed.extend(fix(txn, issue)?);
                }
            }
            Ok(Audit {
                issues,
                fixed,
                files: files.into_iter().collect(),
                dirs: reached.len() as u64,
            })
        })
    }
}

// ---- path helpers ----

/// Normalize a DPFS path: must be absolute; collapses duplicate slashes,
/// strips a trailing slash (except for `/`).
pub fn normalize_path(p: &str) -> Result<String> {
    if !p.starts_with('/') {
        return Err(MetaError::Txn(format!("path {p} is not absolute")));
    }
    let mut parts: Vec<&str> = Vec::new();
    for seg in p.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            s => parts.push(s),
        }
    }
    if parts.is_empty() {
        Ok("/".to_string())
    } else {
        Ok(format!("/{}", parts.join("/")))
    }
}

/// Refuse a name no new entry may take: one holding an ASCII control
/// character. Directory entries were once one `\n`-joined TEXT, where a
/// newline in a name split its entry in two that no `unlink` could remove;
/// they are rows now, and the refusal stays as the contract the tests pin.
/// Checked
/// where an entry is made (`mkdir`, `create_entry`), not where one is
/// looked up: a name an older catalog already holds can still be opened,
/// renamed away and unlinked.
fn check_chars(p: &str) -> Result<()> {
    if p.contains(|c: char| c.is_ascii_control()) {
        return Err(MetaError::InvalidName(format!(
            "path {p:?} holds a control character"
        )));
    }
    Ok(())
}

/// Parent directory of an absolute path (`None` for `/`).
pub fn parent_dir(p: &str) -> Option<String> {
    if p == "/" {
        return None;
    }
    match p.rfind('/') {
        Some(0) => Some("/".to_string()),
        Some(i) => Some(p[..i].to_string()),
        None => None,
    }
}

/// Base name of an absolute path.
pub fn base_name(p: &str) -> &str {
    p.rsplit('/').next().unwrap_or(p)
}

/// Build a collision-free composite key from parts. Parts are joined with
/// `\u{1}`; any `\u{1}` or `\u{2}` *inside* a part is escaped with `\u{2}`
/// first, so `("a\u{1}", "b")` and `("a", "\u{1}b")` produce distinct keys
/// even though a naive `format!("{a}\u{1}{b}")` would collide.
pub(crate) fn composite_key(parts: &[&str]) -> String {
    let mut out = String::new();
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.push('\u{1}');
        }
        for ch in part.chars() {
            if ch == '\u{1}' || ch == '\u{2}' {
                out.push('\u{2}');
            }
            out.push(ch);
        }
    }
    out
}

fn tag_key(filename: &str, tag: &str) -> String {
    composite_key(&[filename, tag])
}

/// The entries of a `\n`-joined TEXT list, as catalogs before
/// `dpfs_dirent` kept them.
fn split_list(s: &str) -> impl Iterator<Item = &str> {
    s.split('\n').filter(|x| !x.is_empty())
}

// ---- statements shared by the accessors ----

/// The count a mutating statement reports.
fn affected(rs: &ResultSet) -> Result<i64> {
    rs.scalar()?.as_int()
}

/// The next value of the shard's one sequence, the one-row `dpfs_meta_gen`,
/// advanced inside the caller's transaction: the low bits of a new file's id
/// ([`file_id`]) and a rename intent's id. Values are never reused, which is
/// what lets an id identify one file for good — `MAX(intent_id) + 1` would
/// reuse them after `rename_finish`. The table keeps the name every
/// directory on disk knows it by (it began as a counter of all mutations),
/// so an old directory continues above every value it ever issued.
fn next_gen(txn: &Txn<'_>) -> Result<i64> {
    txn.execute("UPDATE dpfs_meta_gen SET gen = gen + 1 WHERE k = 'g'")?;
    txn.execute("SELECT gen FROM dpfs_meta_gen WHERE k = 'g'")?
        .rows
        .first()
        .ok_or_else(|| MetaError::Storage("dpfs_meta_gen has no row".into()))?[0]
        .as_int()
}

/// The registry, ordered by name.
fn list_servers(txn: &Txn<'_>) -> Result<Vec<ServerInfo>> {
    let rs = txn.execute(
        "SELECT server_name, capacity, performance FROM dpfs_server ORDER BY server_name",
    )?;
    rs.rows.iter().map(|r| server_from_row(r)).collect()
}

/// The distribution of a new file asked for as `slots` servers (0: every
/// registered one): the first that many servers of the registry by name,
/// the bricks the attribute row's geometry needs placed over them by its
/// placement, and under XOR parity the last server's row brickless.
fn place(txn: &Txn<'_>, attr: &FileAttrRow, slots: usize) -> Result<Vec<Distribution>> {
    let mut servers = list_servers(txn)?;
    if servers.is_empty() {
        return Err(MetaError::InvalidArgument(
            "no I/O servers registered".into(),
        ));
    }
    let n = match slots {
        0 => servers.len(),
        k => k.min(servers.len()),
    };
    servers.truncate(n);
    let data = placement::data_servers(&attr.redundancy, n)?;
    let perf: Option<Vec<i64>> = placement::is_greedy(&attr.placement)?.then(|| {
        servers[..data]
            .iter()
            .map(|s| s.performance.max(1))
            .collect()
    });
    let mut lists = vec![Vec::new(); data];
    placement::extend(&mut lists, placement::bricks_for(attr)?, perf.as_deref())?;
    lists.resize(n, Vec::new());
    Ok(servers
        .into_iter()
        .zip(lists)
        .map(|(server, bricklist)| Distribution {
            server: server.name,
            filename: attr.filename.clone(),
            bricklist,
        })
        .collect())
}

fn server_from_row(r: &[Value]) -> Result<ServerInfo> {
    Ok(ServerInfo {
        name: r[0].as_text()?.to_string(),
        capacity: r[1].as_int()?,
        performance: r[2].as_int()?,
    })
}

/// The id of the file shard `shard` creates as its sequence value `gen`.
fn file_id(shard: u32, gen: i64) -> u64 {
    u64::from(shard) << 48 | (gen as u64 & ((1 << 48) - 1))
}

fn attr_from_row(r: &[Value]) -> Result<FileAttrRow> {
    Ok(FileAttrRow {
        filename: r[0].as_text()?.to_string(),
        owner: r[1].as_text()?.to_string(),
        permission: r[2].as_int()?,
        size: r[3].as_int()?,
        filelevel: r[4].as_text()?.to_string(),
        dims: r[5].as_int()?,
        dimsize: r[6].as_int_list()?.to_vec(),
        stripe_dims: r[7].as_int_list()?.to_vec(),
        stripe_size: r[8].as_int()?,
        pattern: r[9].as_text()?.to_string(),
        placement: r[10].as_text()?.to_string(),
        redundancy: r[11].as_text()?.to_string(),
    })
}

/// A file's id and attribute row.
fn attr_row(txn: &Txn<'_>, filename: &str) -> Result<Option<(u64, FileAttrRow)>> {
    let rs = txn.execute_with(
        "SELECT * FROM dpfs_file_attr WHERE filename = ?",
        &[filename.into()],
    )?;
    let row = |r: &Vec<Value>| Ok((r[12].as_int()? as u64, attr_from_row(r)?));
    rs.rows.first().map(row).transpose()
}

fn get_entry(txn: &Txn<'_>, filename: &str) -> Result<Option<FileEntry>> {
    match attr_row(txn, filename)? {
        Some((id, attr)) => Ok(Some(FileEntry {
            id,
            attr,
            dist: get_distribution(txn, filename)?,
        })),
        None => Ok(None),
    }
}

fn file_exists(txn: &Txn<'_>, filename: &str) -> Result<bool> {
    let rs = txn.execute_with(
        "SELECT filename FROM dpfs_file_attr WHERE filename = ?",
        &[filename.into()],
    )?;
    Ok(!rs.rows.is_empty())
}

fn dir_exists(txn: &Txn<'_>, path: &str) -> Result<bool> {
    let rs = txn.execute_with(
        "SELECT main_dir FROM dpfs_directory WHERE main_dir = ?",
        &[path.into()],
    )?;
    Ok(!rs.rows.is_empty())
}

fn get_dir(txn: &Txn<'_>, path: &str) -> Result<Option<DirEntry>> {
    if !dir_exists(txn, path)? {
        return Ok(None);
    }
    let rs = txn.execute_with(
        "SELECT path, kind FROM dpfs_dirent WHERE parent = ? ORDER BY path",
        &[path.into()],
    )?;
    let (mut sub_dirs, mut files) = (Vec::new(), Vec::new());
    for r in &rs.rows {
        let child = r[0].as_text()?.to_string();
        match r[1].as_text()? {
            DIR => sub_dirs.push(child),
            _ => files.push(child),
        }
    }
    Ok(Some(DirEntry {
        main_dir: path.to_string(),
        sub_dirs,
        files,
    }))
}

fn get_distribution(txn: &Txn<'_>, filename: &str) -> Result<Vec<Distribution>> {
    let rs = txn.execute_with(
        "SELECT server, filename, bricklist FROM dpfs_file_distribution \
         WHERE filename = ? ORDER BY server",
        &[filename.into()],
    )?;
    rs.rows
        .iter()
        .map(|r| {
            Ok(Distribution {
                server: r[0].as_text()?.to_string(),
                filename: r[1].as_text()?.to_string(),
                bricklist: r[2].as_int_list()?.to_vec(),
            })
        })
        .collect()
}

fn list_tags(txn: &Txn<'_>, filename: &str) -> Result<Vec<(String, String)>> {
    let rs = txn.execute_with(
        "SELECT tag, value FROM dpfs_file_tags WHERE filename = ? ORDER BY tag",
        &[filename.into()],
    )?;
    rs.rows
        .iter()
        .map(|r| Ok((r[0].as_text()?.to_string(), r[1].as_text()?.to_string())))
        .collect()
}

/// The parent directory of `path`, which must exist.
fn existing_parent(txn: &Txn<'_>, path: &str) -> Result<String> {
    let parent =
        parent_dir(path).ok_or_else(|| MetaError::Txn(format!("path {path} has no parent")))?;
    if !dir_exists(txn, &parent)? {
        return Err(MetaError::NoSuchTable(format!("directory {parent}")));
    }
    Ok(parent)
}

/// `DuplicateKey` naming the entry `path` of `kind` for a key collision
/// over it; any other error as it is.
fn taken(e: MetaError, path: &str, kind: &str) -> MetaError {
    match e {
        MetaError::DuplicateKey(_) if kind == DIR => {
            MetaError::DuplicateKey(format!("directory {path} exists"))
        }
        MetaError::DuplicateKey(_) => {
            MetaError::DuplicateKey(format!("file {path} already exists"))
        }
        e => e,
    }
}

/// List `path` in `parent` as a `kind` entry.
fn link(txn: &Txn<'_>, path: &str, parent: &str, kind: &str) -> Result<()> {
    txn.execute_with(
        "INSERT INTO dpfs_dirent VALUES (?, ?, ?)",
        &[path.into(), parent.into(), kind.into()],
    )
    .map_err(|e| taken(e, path, kind))?;
    Ok(())
}

/// Whether `path` is listed as a file.
fn listed_as_file(txn: &Txn<'_>, path: &str) -> Result<bool> {
    let rs = txn.execute_with(
        "SELECT kind FROM dpfs_dirent WHERE path = ?",
        &[path.into()],
    )?;
    match rs.rows.first() {
        Some(r) => Ok(r[0].as_text()? == FILE),
        None => Ok(false),
    }
}

/// Drop the `kind` entry `path` from its directory, if listed.
fn unlink(txn: &Txn<'_>, path: &str, kind: &str) -> Result<()> {
    txn.execute_with(
        "DELETE FROM dpfs_dirent WHERE path = ? AND kind = ?",
        &[path.into(), kind.into()],
    )?;
    Ok(())
}

/// Move every entry a catalog written before `dpfs_dirent` keeps in
/// `dpfs_directory`'s TEXT lists into rows of their own, leaving the lists
/// empty. A name listed twice, or as both a directory and a file (which
/// those catalogs allowed), keeps its first row, the directory's. Running
/// it again finds nothing to move.
fn migrate_listings(txn: &Txn<'_>) -> Result<()> {
    txn.execute(DIRENT_TABLE)?;
    let dirs = txn.execute("SELECT main_dir, sub_dirs, files FROM dpfs_directory")?;
    for r in &dirs.rows {
        let (dir, subs, files) = (r[0].as_text()?, r[1].as_text()?, r[2].as_text()?);
        if subs.is_empty() && files.is_empty() {
            continue;
        }
        let children = split_list(subs).map(|p| (p, DIR));
        for (path, kind) in children.chain(split_list(files).map(|p| (p, FILE))) {
            relink(txn, path, dir, kind)?;
        }
        txn.execute_with(
            "UPDATE dpfs_directory SET sub_dirs = '', files = '' WHERE main_dir = ?",
            &[dir.into()],
        )?;
    }
    Ok(())
}

/// Give every file of a catalog written before file ids one, minted as
/// `create` mints it: rebuild `dpfs_file_attr` with the `file_id` column,
/// in name order. Subfiles the I/O servers hold under the files' paths are
/// not renamed: a format break.
fn migrate_file_ids(txn: &Txn<'_>, shard: u32) -> Result<()> {
    let rows = txn.execute("SELECT * FROM dpfs_file_attr ORDER BY filename")?;
    txn.execute("DROP TABLE dpfs_file_attr")?;
    txn.execute(FILE_ATTR_TABLE)?;
    for r in rows.rows {
        let attr = attr_from_row(&r)?;
        insert_attr(txn, file_id(shard, next_gen(txn)?), &attr)?;
    }
    Ok(())
}

/// Insert an empty directory row for `path`.
fn insert_dir(txn: &Txn<'_>, path: &str) -> Result<()> {
    txn.execute_with(
        "INSERT INTO dpfs_directory VALUES (?, '', '')",
        &[path.into()],
    )?;
    Ok(())
}

/// The first column of `rs`, as a set of texts.
fn texts(rs: ResultSet) -> Result<BTreeSet<String>> {
    rs.rows
        .iter()
        .map(|r| Ok(r[0].as_text()?.to_string()))
        .collect()
}

/// The parent directory of `path`, if it exists.
fn parent_row(txn: &Txn<'_>, path: &str) -> Result<Option<String>> {
    match parent_dir(path) {
        Some(parent) if dir_exists(txn, &parent)? => Ok(Some(parent)),
        _ => Ok(None),
    }
}

/// [`link`], unless `path` is listed already (as either kind); whether it
/// was linked.
fn relink(txn: &Txn<'_>, path: &str, parent: &str, kind: &str) -> Result<bool> {
    match link(txn, path, parent, kind) {
        Ok(()) => Ok(true),
        Err(MetaError::DuplicateKey(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Apply [`Catalog::audit`]'s safe repair for `issue`, if it has one (and
/// the rows it needs still exist); returns what was done.
fn fix(txn: &Txn<'_>, issue: &Issue) -> Result<Option<String>> {
    Ok(Some(match issue {
        Issue::OrphanDistribution { filename, server } => {
            txn.execute_with(
                "DELETE FROM dpfs_file_distribution WHERE filename = ?",
                &[filename.as_str().into()],
            )?;
            format!("dropped orphan distribution row {server}:{filename}")
        }
        Issue::DanglingDirEntry { dir, name } => {
            unlink(txn, name, FILE)?;
            format!("removed dangling entry {name} from {dir}")
        }
        // A name an entry of the other kind holds cannot be re-linked.
        Issue::UnlistedFile { filename } => {
            let Some(parent) = parent_row(txn, filename)? else {
                return Ok(None);
            };
            if !relink(txn, filename, &parent, FILE)? {
                return Ok(None);
            }
            format!("re-linked {filename} into {parent}")
        }
        Issue::OrphanDirectory { dir } => {
            let Some(parent) = parent_row(txn, dir)? else {
                return Ok(None);
            };
            if !relink(txn, dir, &parent, DIR)? {
                return Ok(None);
            }
            format!("re-linked directory {dir} into {parent}")
        }
        // Two parents may list one missing child: create its row once.
        Issue::MissingDirectory { dir, .. } if !dir_exists(txn, dir)? => {
            insert_dir(txn, dir)?;
            format!("created missing directory row {dir}")
        }
        _ => return Ok(None),
    }))
}

/// Insert a file's distribution rows, all in one `INSERT`.
fn insert_distribution(txn: &Txn<'_>, dist: &[Distribution]) -> Result<()> {
    if dist.is_empty() {
        return Ok(());
    }
    let mut sql = String::from("INSERT INTO dpfs_file_distribution VALUES (?, ?, ?, ?)");
    let mut params = Vec::with_capacity(4 * dist.len());
    for (i, d) in dist.iter().enumerate() {
        if i > 0 {
            sql.push_str(", (?, ?, ?, ?)");
        }
        params.extend([
            composite_key(&[&d.server, &d.filename]).into(),
            d.server.as_str().into(),
            d.filename.as_str().into(),
            d.bricklist.clone().into(),
        ]);
    }
    txn.execute_with(&sql, &params)?;
    Ok(())
}

fn insert_tag(txn: &Txn<'_>, filename: &str, tag: &str, value: &str) -> Result<()> {
    txn.execute_with(
        "INSERT INTO dpfs_file_tags VALUES (?, ?, ?, ?)",
        &[
            tag_key(filename, tag).into(),
            filename.into(),
            tag.into(),
            value.into(),
        ],
    )?;
    Ok(())
}

fn delete_intent(txn: &Txn<'_>, intent: i64) -> Result<bool> {
    let rs = txn.execute_with(
        "DELETE FROM dpfs_rename_intent WHERE intent_id = ?",
        &[Value::Int(intent)],
    )?;
    Ok(affected(&rs)? > 0)
}

/// Create the entry `attr.filename` of file `id`: attributes, distribution,
/// tags and the link in its parent directory, which must exist.
/// `DuplicateKey` if the name is taken, `InvalidName` if no file may take it.
fn create_entry(
    txn: &Txn<'_>,
    id: u64,
    attr: &FileAttrRow,
    dist: &[Distribution],
    tags: &[(String, String)],
) -> Result<()> {
    check_chars(&attr.filename)?;
    let parent = existing_parent(txn, &attr.filename)?;
    // A name taken by a listed entry or by an attribute row is refused by
    // the insert that collides.
    link(txn, &attr.filename, &parent, FILE)?;
    insert_attr(txn, id, attr)?;
    insert_distribution(txn, dist)?;
    for (tag, value) in tags {
        insert_tag(txn, &attr.filename, tag, value)?;
    }
    Ok(())
}

/// Insert file `id`'s attribute row.
fn insert_attr(txn: &Txn<'_>, id: u64, attr: &FileAttrRow) -> Result<()> {
    txn.execute_with(
        "INSERT INTO dpfs_file_attr VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        &[
            attr.filename.as_str().into(),
            attr.owner.as_str().into(),
            Value::Int(attr.permission),
            Value::Int(attr.size),
            attr.filelevel.as_str().into(),
            Value::Int(attr.dims),
            attr.dimsize.clone().into(),
            attr.stripe_dims.clone().into(),
            Value::Int(attr.stripe_size),
            attr.pattern.as_str().into(),
            attr.placement.as_str().into(),
            attr.redundancy.as_str().into(),
            Value::Int(id as i64),
        ],
    )
    .map_err(|e| taken(e, &attr.filename, FILE))?;
    Ok(())
}

/// Remove the entry `filename`: attributes, distribution, tags and the link
/// in its parent directory — whichever of them exist.
fn remove_entry(txn: &Txn<'_>, filename: &str) -> Result<()> {
    txn.execute_with(
        "DELETE FROM dpfs_file_attr WHERE filename = ?",
        &[filename.into()],
    )?;
    txn.execute_with(
        "DELETE FROM dpfs_file_distribution WHERE filename = ?",
        &[filename.into()],
    )?;
    txn.execute_with(
        "DELETE FROM dpfs_file_tags WHERE filename = ?",
        &[filename.into()],
    )?;
    unlink(txn, filename, FILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        with_server(Catalog::new(Arc::new(Database::in_memory())).unwrap())
    }

    /// `c` with one I/O server registered, so that a file created without
    /// naming its servers has one to be placed on.
    fn with_server(c: Catalog) -> Catalog {
        let s0 = ServerInfo {
            name: "s0".into(),
            capacity: 1 << 30,
            performance: 1,
        };
        c.register_server(&s0).unwrap();
        c
    }

    fn sample_attr(name: &str) -> FileAttrRow {
        FileAttrRow {
            filename: name.to_string(),
            owner: "xhshen".into(),
            permission: 0o744,
            size: 2_097_152,
            filelevel: "multidim".into(),
            dims: 2,
            dimsize: vec![1024, 2048],
            stripe_dims: vec![256, 256],
            stripe_size: 65536,
            pattern: String::new(),
            placement: "round_robin".into(),
            redundancy: String::new(),
        }
    }

    #[test]
    fn cross_shard_rename_two_phase_happy_path() {
        // Two independent databases stand in for two shards.
        let src = catalog();
        let dst = catalog();
        src.mkdir("/a").unwrap();
        dst.mkdir("/a").unwrap();
        dst.mkdir("/b").unwrap();
        let attr = sample_attr("/a/f");
        let dist = vec![Distribution {
            server: "s0".into(),
            filename: "/a/f".into(),
            bricklist: vec![0, 1, 2],
        }];
        src.create_file(&attr, &dist).unwrap();
        src.set_tag("/a/f", "k", "v").unwrap();

        let (intent, snap, tags) = src.rename_prepare("/a/f", "/b/f").unwrap();
        // source stays visible while prepared
        assert!(src.get_file_attr("/a/f").unwrap().is_some());
        assert_eq!(tags, vec![("k".to_string(), "v".to_string())]);

        let mut moved = snap.clone();
        moved.attr.filename = "/b/f".into();
        for d in &mut moved.dist {
            d.filename = "/b/f".into();
        }
        dst.rename_commit_dest(&moved, &tags).unwrap();
        // the destination entry carrying the source's id is the commit record
        assert_eq!(dst.open_file("/b/f").unwrap().unwrap().id, snap.id);
        src.rename_finish(intent).unwrap();

        assert!(src.get_file_attr("/a/f").unwrap().is_none());
        assert!(src.get_dir("/a").unwrap().unwrap().files.is_empty());
        assert!(src.list_rename_intents().unwrap().is_empty());
        let landed = dst.get_file_attr("/b/f").unwrap().unwrap();
        assert_eq!(landed.size, attr.size);
        assert_eq!(
            dst.get_distribution("/b/f").unwrap()[0].bricklist,
            vec![0, 1, 2]
        );
        assert_eq!(dst.get_tag("/b/f", "k").unwrap().as_deref(), Some("v"));
        assert_eq!(dst.list_tags("/b/f").unwrap().len(), 1);
        assert!(dst
            .get_dir("/b")
            .unwrap()
            .unwrap()
            .files
            .contains(&"/b/f".to_string()));
    }

    #[test]
    fn cross_shard_rename_abort_and_duplicate_commit() {
        let src = catalog();
        let dst = catalog();
        src.mkdir("/a").unwrap();
        dst.mkdir("/a").unwrap();
        src.create_file(&sample_attr("/a/f"), &[]).unwrap();
        dst.create_file(&sample_attr("/a/f"), &[]).unwrap();

        let (intent, entry, tags) = src.rename_prepare("/a/f", "/a/f").unwrap();
        let occupant = dst.open_file("/a/f").unwrap();
        // destination already occupied → commit refuses atomically
        assert!(matches!(
            dst.rename_commit_dest(&entry, &tags),
            Err(MetaError::DuplicateKey(_))
        ));
        assert_eq!(dst.open_file("/a/f").unwrap(), occupant);
        assert!(src.rename_abort(intent).unwrap());
        assert!(!src.rename_abort(intent).unwrap());
        assert!(src.get_file_attr("/a/f").unwrap().is_some());
        assert!(src.list_rename_intents().unwrap().is_empty());
    }

    #[test]
    fn rename_finish_is_resumable_after_partial_source_cleanup() {
        let src = catalog();
        src.mkdir("/a").unwrap();
        src.create_file(&sample_attr("/a/f"), &[]).unwrap();
        let (intent, ..) = src.rename_prepare("/a/f", "/b/f").unwrap();
        let listed = src.list_rename_intents().unwrap();
        assert_eq!(
            listed,
            vec![RenameIntent {
                id: intent,
                src: "/a/f".into(),
                dst: "/b/f".into(),
            }]
        );
        // Simulate a crash after the source entry was already deleted by an
        // earlier finish attempt that died before removing the intent.
        src.delete_file("/a/f").unwrap();
        src.rename_finish(intent).unwrap();
        assert!(src.list_rename_intents().unwrap().is_empty());
        assert!(matches!(
            src.rename_finish(intent),
            Err(MetaError::NoSuchTable(_))
        ));
    }

    /// "An entry carrying the source's id is the commit record" and "a
    /// subfile named by an id is that file's" hold only if no sequence value
    /// is issued twice — not after its intent finished or aborted, not after
    /// a reopen. A create draws the file's id from the same sequence as a
    /// rename draws its intent id; nothing else draws from it.
    #[test]
    fn ids_only_grow_and_only_creates_and_renames_consume_them() {
        let dir = std::env::temp_dir().join(format!("dpfs-intent-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || Catalog::new(Arc::new(Database::open_with_sync(&dir, false).unwrap()));
        let mut c = with_server(open().unwrap());
        c.mkdir("/d").unwrap();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let (mut files, mut pending, mut created) = (Vec::new(), Vec::new(), 0);
        let mut last = 1; // the seeded row; the first id issued is 2
        let (mut prepares, mut reopens) = (0, 0);
        for step in 0..400 {
            match draw(6) {
                0 | 1 if !files.is_empty() => {
                    let from: &String = &files[draw(files.len())];
                    let (id, ..) = c.rename_prepare(from, "/elsewhere/f").unwrap();
                    assert_eq!(id, last + 1, "step {step}: id reused or skipped");
                    last = id;
                    pending.push((id, from.clone()));
                    prepares += 1;
                }
                2 if !pending.is_empty() => {
                    let (id, from) = pending.swap_remove(draw(pending.len()));
                    c.rename_finish(id).unwrap();
                    files.retain(|f| *f != from);
                }
                3 if !pending.is_empty() => {
                    let (id, _) = pending.swap_remove(draw(pending.len()));
                    assert!(c.rename_abort(id).unwrap());
                }
                4 => {
                    drop(c);
                    c = open().unwrap();
                    if reopens % 2 == 0 {
                        c.db().checkpoint().unwrap();
                    }
                    reopens += 1;
                }
                _ => {
                    // A create, then mutations that draw nothing.
                    let name = format!("/d/f{created}");
                    created += 1;
                    let id = c.create_file(&sample_attr(&name), &[]).unwrap();
                    assert_eq!(id, last as u64 + 1, "step {step}: id reused or skipped");
                    last = id as i64;
                    c.set_file_size(&name, step).unwrap();
                    c.set_tag(&name, "k", "v").unwrap();
                    assert!(c.remove_tag(&name, "k").unwrap());
                    files.push(name);
                }
            }
        }
        assert!(prepares > 50 && reopens > 20, "{prepares} {reopens}");
        // `list_rename_intents` answers oldest first.
        let listed: Vec<i64> = c
            .list_rename_intents()
            .unwrap()
            .iter()
            .map(|i| i.id)
            .collect();
        let mut expect: Vec<i64> = pending.iter().map(|(id, _)| *id).collect();
        expect.sort();
        assert_eq!(listed, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn path_normalization() {
        assert_eq!(normalize_path("/a//b/").unwrap(), "/a/b");
        assert_eq!(normalize_path("/").unwrap(), "/");
        assert_eq!(normalize_path("/a/./b/../c").unwrap(), "/a/c");
        assert!(normalize_path("relative").is_err());
    }

    #[test]
    fn parent_and_base() {
        assert_eq!(parent_dir("/a/b"), Some("/a".to_string()));
        assert_eq!(parent_dir("/a"), Some("/".to_string()));
        assert_eq!(parent_dir("/"), None);
        assert_eq!(base_name("/a/b.dat"), "b.dat");
    }

    #[test]
    fn server_registration_and_update() {
        let c = catalog();
        c.register_server(&ServerInfo {
            name: "s0".into(),
            capacity: 500,
            performance: 1,
        })
        .unwrap();
        c.register_server(&ServerInfo {
            name: "s1".into(),
            capacity: 400,
            performance: 3,
        })
        .unwrap();
        assert_eq!(c.list_servers().unwrap().len(), 2);
        // re-register updates in place
        c.register_server(&ServerInfo {
            name: "s0".into(),
            capacity: 900,
            performance: 2,
        })
        .unwrap();
        let s0 = c.get_server("s0").unwrap().unwrap();
        assert_eq!(s0.capacity, 900);
        assert_eq!(s0.performance, 2);
        assert_eq!(c.list_servers().unwrap().len(), 2);
        assert!(c.remove_server("s1").unwrap());
        assert!(!c.remove_server("s1").unwrap());
    }

    #[test]
    fn mkdir_tree_and_rmdir() {
        let c = catalog();
        c.mkdir("/home").unwrap();
        c.mkdir("/home/xhshen").unwrap();
        let root = c.get_dir("/").unwrap().unwrap();
        assert_eq!(root.sub_dirs, vec!["/home"]);
        let home = c.get_dir("/home").unwrap().unwrap();
        assert_eq!(home.sub_dirs, vec!["/home/xhshen"]);
        // duplicate rejected
        assert!(c.mkdir("/home").is_err());
        // missing parent rejected
        assert!(c.mkdir("/no/such/parent").is_err());
        // a file's name refused, not as a duplicate directory
        c.create_file(&sample_attr("/home/f"), &[]).unwrap();
        let err = c.mkdir("/home/f").unwrap_err();
        assert!(matches!(err, MetaError::Txn(_)), "{err:?}");
        assert!(c.get_dir("/home/f").unwrap().is_none());
        let home = c.get_dir("/home").unwrap().unwrap();
        assert_eq!(
            (home.sub_dirs, home.files),
            (
                vec!["/home/xhshen".to_string()],
                vec!["/home/f".to_string()]
            )
        );
        c.delete_file("/home/f").unwrap();
        // rmdir requires empty
        assert!(c.rmdir("/home").is_err());
        c.rmdir("/home/xhshen").unwrap();
        c.rmdir("/home").unwrap();
        assert!(c.get_dir("/home").unwrap().is_none());
    }

    #[test]
    fn create_file_links_into_directory() {
        let c = catalog();
        c.mkdir("/home").unwrap();
        let attr = sample_attr("/home/dpfs.test");
        let dist = vec![
            Distribution {
                server: "s0".into(),
                filename: attr.filename.clone(),
                bricklist: vec![0, 2, 4],
            },
            Distribution {
                server: "s1".into(),
                filename: attr.filename.clone(),
                bricklist: vec![1, 3],
            },
        ];
        c.create_file(&attr, &dist).unwrap();
        let got = c.get_file_attr("/home/dpfs.test").unwrap().unwrap();
        assert_eq!(got, attr);
        let d = c.get_distribution("/home/dpfs.test").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].bricklist, vec![0, 2, 4]);
        let home = c.get_dir("/home").unwrap().unwrap();
        assert_eq!(home.files, vec!["/home/dpfs.test"]);
    }

    #[test]
    fn duplicate_file_rolls_back_whole_txn() {
        let c = catalog();
        let attr = sample_attr("/f");
        c.create_file(&attr, &[]).unwrap();
        // second create fails...
        let err = c.create_file(&attr, &[]).unwrap_err();
        assert!(matches!(err, MetaError::DuplicateKey(_)));
        // ...and left exactly one directory link behind
        let root = c.get_dir("/").unwrap().unwrap();
        assert_eq!(root.files.len(), 1);
    }

    #[test]
    fn delete_file_cleans_all_tables() {
        let c = catalog();
        let attr = sample_attr("/f");
        let dist = vec![Distribution {
            server: "s0".into(),
            filename: "/f".into(),
            bricklist: vec![0, 1],
        }];
        let id = c.create_file(&attr, &dist).unwrap();
        let entry = FileEntry { id, attr, dist };
        assert_eq!(c.open_file("/f").unwrap(), Some(entry.clone()));
        assert_eq!(c.delete_file("/f").unwrap(), entry);
        assert_eq!(c.open_file("/f").unwrap(), None);
        assert!(c.get_file_attr("/f").unwrap().is_none());
        assert!(c.get_distribution("/f").unwrap().is_empty());
        assert!(c.get_dir("/").unwrap().unwrap().files.is_empty());
        assert!(c.delete_file("/f").is_err());
    }

    #[test]
    fn rename_moves_links_and_distribution() {
        let c = catalog();
        c.mkdir("/a").unwrap();
        c.mkdir("/b").unwrap();
        let attr = sample_attr("/a/f");
        c.create_file(
            &attr,
            &[Distribution {
                server: "s0".into(),
                filename: "/a/f".into(),
                bricklist: vec![0],
            }],
        )
        .unwrap();
        c.rename_file("/a/f", "/b/g").unwrap();
        assert!(c.get_file_attr("/a/f").unwrap().is_none());
        assert!(c.get_file_attr("/b/g").unwrap().is_some());
        assert_eq!(c.get_distribution("/b/g").unwrap().len(), 1);
        assert!(c.get_distribution("/a/f").unwrap().is_empty());
        assert!(c.get_dir("/a").unwrap().unwrap().files.is_empty());
        assert_eq!(c.get_dir("/b").unwrap().unwrap().files, vec!["/b/g"]);
    }

    #[test]
    fn rename_within_same_directory_keeps_one_entry() {
        // Regression: the directory-link rewrite reads the parent twice
        // (once as from-parent, once as to-parent). When both are the same
        // directory, the second read must observe the first write — the
        // entry must be neither dropped nor duplicated.
        let c = catalog();
        c.mkdir("/a").unwrap();
        c.create_file(&sample_attr("/a/old"), &[]).unwrap();
        c.create_file(&sample_attr("/a/other"), &[]).unwrap();
        c.rename_file("/a/old", "/a/new").unwrap();
        let dir = c.get_dir("/a").unwrap().unwrap();
        let mut files = dir.files.clone();
        files.sort();
        assert_eq!(files, vec!["/a/new", "/a/other"]);
        assert!(c.get_file_attr("/a/old").unwrap().is_none());
        assert!(c.get_file_attr("/a/new").unwrap().is_some());
    }

    /// A rename as it was done before keys moved in place: read the entry,
    /// delete every row of it, insert them again under the new name.
    fn rename_by_delete_and_insert(c: &Catalog, from: &str, to: &str) -> Result<FileEntry> {
        c.db.transaction(|txn| {
            let mut entry = get_entry(txn, from)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("file {from}")))?;
            if file_exists(txn, to)? {
                return Err(MetaError::DuplicateKey(format!("file {to} exists")));
            }
            let tags = list_tags(txn, from)?;
            remove_entry(txn, from)?;
            entry.attr.filename = to.to_string();
            for d in &mut entry.dist {
                d.filename = to.to_string();
            }
            create_entry(txn, entry.id, &entry.attr, &entry.dist, &tags)?;
            Ok(entry)
        })
    }

    /// Everything a rename from `from` to `to` may have changed, as the
    /// catalog answers it.
    fn renamed_state(c: &Catalog, from: &str, to: &str) -> impl PartialEq + std::fmt::Debug {
        let listing = |p: &str| parent_dir(p).map(|d| c.get_dir(&d).unwrap());
        let entry = |p: &str| (c.open_file(p).unwrap(), c.list_tags(p).unwrap());
        (
            (listing(from), listing(to)),
            (entry(from), entry(to)),
            c.audit(false).unwrap().issues,
        )
    }

    /// The in-place rename answers, and leaves behind, what deleting and
    /// re-inserting the entry did: across directories, inside one, onto
    /// taken names, into a missing directory, of a file no directory lists.
    /// A refused rename changes neither listing.
    #[test]
    fn an_in_place_rename_answers_what_delete_and_insert_did() {
        let (moved, reference) = (catalog(), catalog());
        for c in [&moved, &reference] {
            for d in ["/a", "/b", "/c"] {
                c.mkdir(d).unwrap();
            }
            for name in ["/a/f", "/a/g", "/b/h", "/c/k", "/loose"] {
                let dist: Vec<Distribution> = ["s0", "s1"]
                    .iter()
                    .enumerate()
                    .map(|(i, server)| Distribution {
                        server: server.to_string(),
                        filename: name.into(),
                        bricklist: vec![i as i64, i as i64 + 2],
                    })
                    .collect();
                c.create_file(&sample_attr(name), &dist).unwrap();
                c.set_tag(name, "k", name).unwrap();
            }
            c.set_tag("/a/f", "j", "second").unwrap();
            // A file its directory does not list.
            c.db()
                .execute("DELETE FROM dpfs_dirent WHERE path = '/loose'")
                .unwrap();
        }
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let names = [
            "/a/f", "/a/g", "/a/x", "/b/h", "/b/y", "/c/k", "/c", "/loose", "/z/q", "/a/f#p",
        ];
        let scripted = [
            ("/a/f", "/a/f2"),   // inside one directory
            ("/a/f2", "/b/f"),   // across directories
            ("/b/f", "/a/g"),    // destination exists
            ("/b/f", "/z/f"),    // destination directory missing
            ("/b/f", "/b/f#r1"), // a mirror-like name
            ("/b/f", "/b"),      // a directory's name
            ("/nope", "/a/n"),   // no such source
            ("/loose", "/c/l"),  // unlisted: listed under its new name
        ];
        let mut refused = 0;
        for step in 0..200 {
            let (from, to) = match scripted.get(step) {
                Some(&(from, to)) => (from, to),
                None => (names[draw(names.len())], names[draw(names.len())]),
            };
            let before = renamed_state(&moved, from, to);
            let got = moved.rename_file(from, to);
            let want = rename_by_delete_and_insert(&reference, from, to);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "step {step}: {from} -> {to}"
            );
            let after = renamed_state(&moved, from, to);
            assert_eq!(after, renamed_state(&reference, from, to), "step {step}");
            if got.is_err() {
                assert_eq!(after, before, "step {step}: refused, yet changed");
                refused += 1;
            }
            moved.db().assert_indexes_match_rows();
        }
        assert!(refused > 20 && refused < 180, "{refused} of 200 refused");
        assert_eq!(moved.audit(false).unwrap(), reference.audit(false).unwrap());
    }

    /// A catalog that keeps its directory entries in `dpfs_directory`'s
    /// TEXT lists opens with each entry a `dpfs_dirent` row and lists the
    /// same; opening and reading write nothing, and the first mutation logs
    /// the migration ahead of itself, so every later open finds it.
    #[test]
    fn text_listings_are_migrated_on_open_and_logged_with_the_next_write() {
        let dir = std::env::temp_dir().join(format!("dpfs-meta-migrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || Catalog::new(Arc::new(Database::open_with_sync(&dir, false).unwrap()));
        {
            let c = with_server(open().unwrap());
            c.mkdir("/a").unwrap();
            c.mkdir("/a/s").unwrap();
            for f in ["/r", "/a/f", "/a/g"] {
                c.create_file(&sample_attr(f), &[]).unwrap();
            }
            // The tables as such a catalog wrote them; `/a/s` is listed as
            // a file too, which those catalogs allowed.
            for sql in [
                "DROP TABLE dpfs_dirent",
                "UPDATE dpfs_directory SET sub_dirs = '/a', files = '/r' WHERE main_dir = '/'",
                "UPDATE dpfs_directory SET sub_dirs = '/a/s', files = '/a/g\n/a/f\n/a/s' \
                 WHERE main_dir = '/a'",
            ] {
                c.db().execute(sql).unwrap();
            }
            c.db().checkpoint().unwrap();
        }
        let on_disk = || ["snapshot.db", "wal.log"].map(|f| std::fs::read(dir.join(f)).unwrap());
        let written = on_disk();
        let s = |x: &[&str]| x.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        let check = |c: &Catalog, files: &[&str]| {
            let root = c.get_dir("/").unwrap().unwrap();
            assert_eq!((root.sub_dirs, root.files), (s(&["/a"]), s(&["/r"])));
            let a = c.get_dir("/a").unwrap().unwrap();
            assert_eq!((a.sub_dirs, a.files), (s(&["/a/s"]), s(files)));
            let left = c
                .db()
                .execute("SELECT main_dir FROM dpfs_directory WHERE sub_dirs != '' OR files != ''")
                .unwrap();
            assert!(left.rows.is_empty(), "{left:?}");
            let issues = c.audit(false).unwrap().issues;
            let of_the_tree = |i: &Issue| !matches!(i, Issue::MissingDistribution { .. });
            assert_eq!(
                issues.into_iter().filter(of_the_tree).collect::<Vec<_>>(),
                []
            );
        };
        for _ in 0..2 {
            let c = open().unwrap();
            check(&c, &["/a/f", "/a/g"]);
            assert!(
                on_disk() == written,
                "opening and reading wrote to the directory"
            );
        }
        let c = open().unwrap();
        c.create_file(&sample_attr("/a/h"), &[]).unwrap();
        drop(c);
        check(&open().unwrap(), &["/a/f", "/a/g", "/a/h"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn composite_keys_do_not_collide_on_separator_bytes() {
        // ("a\u{1}", "b") vs ("a", "\u{1}b") collide under naive joining.
        assert_ne!(
            composite_key(&["a\u{1}", "b"]),
            composite_key(&["a", "\u{1}b"])
        );
        // escape char itself must also be escaped
        assert_ne!(
            composite_key(&["a\u{2}", "\u{1}b"]),
            composite_key(&["a", "b"])
        );
        assert_ne!(composite_key(&["a\u{2}\u{1}b"]), composite_key(&["a", "b"]));
        assert_eq!(composite_key(&["a", "b"]), "a\u{1}b");
    }

    #[test]
    fn separator_bytes_stay_out_of_paths_and_are_escaped_elsewhere() {
        // Under a naive key `format!("{server}\u{1}{filename}")`,
        // ("s", "/x\u{1}/y") and ("s\u{1}/x", "/y") both produced
        // "s\u{1}/x\u{1}/y". A path takes no control character at all now;
        // a server name still may, and its rows stay its own.
        let c = catalog();
        assert!(matches!(c.mkdir("/x\u{1}"), Err(MetaError::InvalidName(_))));
        assert!(matches!(
            c.create_file(&sample_attr("/x\u{1}y"), &[]),
            Err(MetaError::InvalidName(_))
        ));
        c.mkdir("/x").unwrap();
        for (server, filename, brick) in [("s", "/x/y", 0), ("s\u{1}/x", "/y", 1)] {
            c.create_file(
                &sample_attr(filename),
                &[Distribution {
                    server: server.into(),
                    filename: filename.into(),
                    bricklist: vec![brick],
                }],
            )
            .unwrap();
        }
        assert_eq!(c.get_distribution("/x/y").unwrap().len(), 1);
        let d = c.get_distribution("/y").unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].bricklist, vec![1]);
    }

    /// Directory entries were one `\n`-joined TEXT: a newline in a name used
    /// to split its entry in two, neither of which `unlink` could remove, so
    /// the directory answered "not empty" for good.
    #[test]
    fn a_control_character_in_a_name_is_refused_and_changes_nothing() {
        let c = catalog();
        c.mkdir("/d").unwrap();
        c.create_file(&sample_attr("/d/keep"), &[]).unwrap();
        let before = c.get_dir("/d").unwrap();
        for bad in ["/d/a\nb", "/d/a\0b", "/d/\u{7}", "/d/a\rb/c"] {
            let refused =
                |r: Result<()>| assert!(matches!(r, Err(MetaError::InvalidName(_))), "{bad:?}");
            refused(c.create_file(&sample_attr(bad), &[]).map(|_| ()));
            refused(c.mkdir(bad));
            refused(c.rename_file("/d/keep", bad).map(|_| ()));
            assert_eq!(c.get_dir("/d").unwrap(), before, "{bad:?}");
        }
        // Only making an entry is refused: a name an older catalog holds
        // (here: put there behind the catalog's back) still stats, renames
        // away and unlinks.
        let old = "/d/be\u{7}ll";
        c.db()
            .execute_with(
                "UPDATE dpfs_file_attr SET filename = ? WHERE filename = '/d/keep'",
                &[old.into()],
            )
            .unwrap();
        c.db()
            .execute_with(
                "UPDATE dpfs_dirent SET path = ? WHERE path = '/d/keep'",
                &[old.into()],
            )
            .unwrap();
        assert!(c.get_file_attr(old).unwrap().is_some());
        c.rename_file(old, "/d/bell").unwrap();
        c.delete_file("/d/bell").unwrap();
        c.rmdir("/d").unwrap();
    }

    /// A redundant file's mirrors and parity are subfiles named
    /// `{path}#r<copy>` and `{path}#p` on the I/O servers; no file may be
    /// created under, or renamed to, a name of that shape.
    /// `create` mints a file's id from its shard's sequence, the shard in
    /// the high bits, and a rename keeps it. A name like a mirror's or the
    /// parity's is an ordinary name: subfiles are named by id.
    #[test]
    fn a_file_keeps_the_id_create_minted() {
        let c = with_server(Catalog::for_shard(Arc::new(Database::in_memory()), 3).unwrap());
        let f = c.create_file(&sample_attr("/f"), &[]).unwrap();
        let g = c.create_file(&sample_attr("/f#r1"), &[]).unwrap();
        assert_eq!((f >> 48, g >> 48, g - f), (3, 3, 1));
        c.rename_file("/f", "/f#p").unwrap();
        assert_eq!(c.open_file("/f#p").unwrap().unwrap().id, f);
        assert_eq!(c.delete_file("/f#r1").unwrap().id, g);
        assert!(Catalog::for_shard(Arc::new(Database::in_memory()), 1 << 16).is_err());
    }

    /// A catalog written before file ids opens with every file given one,
    /// distinct and above every value the sequence issued; opening and
    /// reading write nothing, and the first mutation logs the ids ahead of
    /// itself, so every later open finds the same ones.
    #[test]
    fn file_ids_are_minted_on_open_and_logged_with_the_next_write() {
        let dir = std::env::temp_dir().join(format!("dpfs-meta-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open =
            || Catalog::for_shard(Arc::new(Database::open_with_sync(&dir, false).unwrap()), 2);
        let names = ["/a", "/b", "/c"];
        {
            let c = with_server(open().unwrap());
            for f in names {
                c.create_file(&sample_attr(f), &[]).unwrap();
            }
            // The table as such a catalog wrote it: no `file_id` column.
            c.db()
                .transaction(|txn| {
                    let rows = txn.execute("SELECT * FROM dpfs_file_attr")?;
                    txn.execute("DROP TABLE dpfs_file_attr")?;
                    txn.execute(&FILE_ATTR_TABLE.replace(",\n        file_id INT NOT NULL", ""))?;
                    for mut r in rows.rows {
                        r.pop();
                        txn.execute_with(
                            "INSERT INTO dpfs_file_attr VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                            &r,
                        )?;
                    }
                    Ok(())
                })
                .unwrap();
            c.db().checkpoint().unwrap();
        }
        let on_disk = || ["snapshot.db", "wal.log"].map(|f| std::fs::read(dir.join(f)).unwrap());
        let written = on_disk();
        let ids = |c: &Catalog| names.map(|f| c.open_file(f).unwrap().unwrap().id);
        // The three creates issued 2, 3 and 4; the migration 5, 6 and 7.
        let minted = [5, 6, 7].map(|gen| 2 << 48 | gen);
        for _ in 0..2 {
            assert_eq!(ids(&open().unwrap()), minted);
            assert!(
                on_disk() == written,
                "opening and reading wrote to the directory"
            );
        }
        let c = open().unwrap();
        let d = c.create_file(&sample_attr("/d"), &[]).unwrap();
        assert_eq!(d, 2 << 48 | 8);
        drop(c);
        let c = open().unwrap();
        assert_eq!(ids(&c), minted);
        assert_eq!(c.create_file(&sample_attr("/e"), &[]).unwrap(), 2 << 48 | 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Growth asks for "at least N bricks", and the catalog places them by
    /// the file's own policy from its stored lists, in the transaction that
    /// reads them: whichever handle asks first grows the file, and a handle
    /// that asks for no more than the file holds changes nothing and
    /// learns the file as it stands.
    #[test]
    fn extend_distribution_is_a_compare_and_set_on_the_brick_count() {
        let c = catalog();
        let row = |file: &str, server: &str, bricks: &[i64]| Distribution {
            server: server.into(),
            filename: file.into(),
            bricklist: bricks.to_vec(),
        };
        let attr = sample_attr("/f");
        let f = |server, bricks| row("/f", server, bricks);
        c.create_file(&attr, &[f("s0", &[0]), f("s1", &[]), f("s2", &[])])
            .unwrap();
        // From one brick to four, round-robin from brick 1: the reply is the
        // entry afterwards.
        let grown = vec![f("s0", &[0, 3]), f("s1", &[1]), f("s2", &[2])];
        let got = c.extend_distribution("/f", 4).unwrap();
        assert_eq!((got.attr, &got.dist), (attr.clone(), &grown));
        assert_eq!(c.get_distribution("/f").unwrap(), grown);
        // A handle that still believes in fewer bricks changes nothing and
        // learns the four.
        for stale in [0, 2, 4] {
            assert_eq!(c.extend_distribution("/f", stale).unwrap().dist, grown);
            assert_eq!(c.get_distribution("/f").unwrap(), grown);
        }
        // Greedy continues from each data server's weighted load, with the
        // registry's numbers; under XOR parity the last row (by name) is the
        // parity server's and stays brickless.
        let slow = ServerInfo {
            name: "s1".into(),
            capacity: 1,
            performance: 3,
        };
        c.register_server(&slow).unwrap();
        let greedy_xor = FileAttrRow {
            placement: "greedy".into(),
            redundancy: "xor".into(),
            ..sample_attr("/g")
        };
        let g = |server, bricks| row("/g", server, bricks);
        c.create_file(&greedy_xor, &[g("s0", &[0]), g("s1", &[]), g("s2", &[])])
            .unwrap();
        let got = c.extend_distribution("/g", 8).unwrap().dist;
        let want = [g("s0", &[0, 1, 2, 4, 5, 6]), g("s1", &[3, 7]), g("s2", &[])];
        assert_eq!(got, want);
        // More bricks than a reply can carry are refused, not placed.
        assert!(matches!(
            c.extend_distribution("/f", i64::MAX),
            Err(MetaError::InvalidArgument(_))
        ));
        assert_eq!(c.get_distribution("/f").unwrap(), grown);
        // A file with no data row to grow onto is refused, and changes
        // nothing; a missing one is missing.
        let parity_only = FileAttrRow {
            redundancy: "xor".into(),
            ..sample_attr("/h")
        };
        c.create_file(&parity_only, &[row("/h", "s0", &[])])
            .unwrap();
        assert!(matches!(
            c.extend_distribution("/h", 1),
            Err(MetaError::InvalidArgument(_))
        ));
        assert_eq!(c.get_distribution("/h").unwrap(), [row("/h", "s0", &[])]);
        assert!(matches!(
            c.extend_distribution("/missing", 0),
            Err(MetaError::NoSuchTable(_))
        ));
    }

    #[test]
    fn set_file_size() {
        let c = catalog();
        c.create_file(&sample_attr("/f"), &[]).unwrap();
        let size = |c: &Catalog| c.get_file_attr("/f").unwrap().unwrap().size;
        let was = size(&c);
        // Grow-only: whichever order two handles' growing writes arrive in,
        // the file ends as long as the longer one.
        c.set_file_size("/f", 999).unwrap();
        assert_eq!(size(&c), was);
        c.set_file_size("/f", was + 999).unwrap();
        assert_eq!(size(&c), was + 999);
        c.set_file_size("/f", was + 1).unwrap();
        assert_eq!(size(&c), was + 999);
        assert!(matches!(
            c.set_file_size("/missing", 1),
            Err(MetaError::NoSuchTable(_))
        ));
    }

    #[test]
    fn brick_counts() {
        let c = catalog();
        c.create_file(
            &sample_attr("/f"),
            &[
                Distribution {
                    server: "s0".into(),
                    filename: "/f".into(),
                    bricklist: vec![0, 2],
                },
                Distribution {
                    server: "s1".into(),
                    filename: "/f".into(),
                    bricklist: vec![1],
                },
            ],
        )
        .unwrap();
        let counts = c.server_brick_counts().unwrap();
        assert_eq!(counts, vec![("s0".into(), 2), ("s1".into(), 1)]);
    }

    #[test]
    fn tags_crud_and_find() {
        let c = catalog();
        c.create_file(&sample_attr("/data1"), &[]).unwrap();
        c.create_file(&sample_attr("/data2"), &[]).unwrap();
        // tagging a missing file fails
        assert!(c.set_tag("/missing", "k", "v").is_err());
        c.set_tag("/data1", "experiment", "astro-run-7").unwrap();
        c.set_tag("/data1", "owner-group", "cosmology").unwrap();
        c.set_tag("/data2", "experiment", "astro-run-8").unwrap();
        assert_eq!(
            c.get_tag("/data1", "experiment").unwrap().unwrap(),
            "astro-run-7"
        );
        assert!(c.get_tag("/data1", "nope").unwrap().is_none());
        // upsert replaces
        c.set_tag("/data1", "experiment", "astro-run-9").unwrap();
        assert_eq!(
            c.get_tag("/data1", "experiment").unwrap().unwrap(),
            "astro-run-9"
        );
        assert_eq!(c.list_tags("/data1").unwrap().len(), 2);
        // find via LIKE joins against attrs (returns size)
        let hits = c.find_by_tag("experiment", "astro-%").unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, "/data1");
        assert_eq!(hits[0].2, 2_097_152);
        // remove
        assert!(c.remove_tag("/data1", "owner-group").unwrap());
        assert!(!c.remove_tag("/data1", "owner-group").unwrap());
    }

    #[test]
    fn tags_follow_rename_and_die_with_file() {
        let c = catalog();
        c.create_file(&sample_attr("/t"), &[]).unwrap();
        c.set_tag("/t", "k", "v").unwrap();
        c.rename_file("/t", "/renamed").unwrap();
        assert_eq!(c.get_tag("/renamed", "k").unwrap().unwrap(), "v");
        assert!(c.get_tag("/t", "k").unwrap().is_none());
        c.delete_file("/renamed").unwrap();
        let rs = c
            .db()
            .execute("SELECT COUNT(*) FROM dpfs_file_tags")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }

    /// Run every accessor on the create / stat / open / rename / unlink /
    /// tag paths once, so that each statement they issue is in the cache.
    fn exercise_hot_paths(c: &Catalog) {
        c.mkdir("/a").unwrap();
        c.mkdir("/b").unwrap();
        let dist = |name: &str| {
            vec![Distribution {
                server: "s0".into(),
                filename: name.into(),
                bricklist: vec![0, 1],
            }]
        };
        c.create_file(&sample_attr("/a/f"), &dist("/a/f")).unwrap();
        c.get_file_attr("/a/f").unwrap();
        c.get_distribution("/a/f").unwrap();
        c.get_server("s0").unwrap();
        c.get_dir("/a").unwrap();
        c.set_file_size("/a/f", 1).unwrap();
        c.extend_distribution("/a/f", 3).unwrap();
        c.set_tag("/a/f", "k", "v").unwrap();
        c.set_tag("/a/f", "k", "w").unwrap();
        c.get_tag("/a/f", "k").unwrap();
        c.list_tags("/a/f").unwrap();
        c.rename_file("/a/f", "/b/g").unwrap();
        let (intent, mut entry, tags) = c.rename_prepare("/b/g", "/a/h").unwrap();
        entry.attr.filename = "/a/h".into();
        entry.dist = dist("/a/h");
        c.rename_commit_dest(&entry, &tags).unwrap();
        c.rename_finish(intent).unwrap();
        c.remove_tag("/a/h", "k").unwrap();
        let (intent, ..) = c.rename_prepare("/a/h", "/b/i").unwrap();
        c.rename_abort(intent).unwrap();
        c.delete_file("/a/h").unwrap();
        c.rmdir("/b").unwrap();
    }

    /// The audit names what the tables show, and its repair fixes the safe
    /// part in the same transaction: afterwards only the files without a
    /// distribution are left, and the tree is whole again.
    #[test]
    fn audit_names_each_inconsistency_and_repairs_the_safe_ones() {
        let c = catalog();
        exercise_hot_paths(&c);
        assert_eq!(c.audit(false).unwrap().issues, vec![]);
        c.mkdir("/d").unwrap();
        c.create_file(&sample_attr("/d/f"), &[]).unwrap();
        c.create_file(&sample_attr("/d/g"), &[]).unwrap();
        c.create_file(&sample_attr("/d/h"), &[]).unwrap();
        for sql in [
            // The three files lose their distribution.
            "DELETE FROM dpfs_file_distribution WHERE server = 's0'",
            "INSERT INTO dpfs_file_distribution VALUES ('k', 'gone', '/ghost', [0])",
            "DELETE FROM dpfs_dirent WHERE path = '/d/g'",
            "DELETE FROM dpfs_dirent WHERE path = '/d/h'",
            "INSERT INTO dpfs_dirent VALUES ('/d/phantom', '/d', 'file')",
            "INSERT INTO dpfs_dirent VALUES ('/void', '/', 'dir')",
            "INSERT INTO dpfs_directory VALUES ('/d/lost', '', '')",
        ] {
            c.db().execute(sql).unwrap();
        }
        // An unlisted file's name is free to a directory, and then taken.
        c.mkdir("/d/h").unwrap();
        let s = |x: &str| x.to_string();
        let found = vec![
            Issue::OrphanDistribution {
                filename: s("/ghost"),
                server: s("gone"),
            },
            Issue::UnknownServer {
                filename: s("/ghost"),
                server: s("gone"),
            },
            Issue::MissingDistribution {
                filename: s("/d/f"),
            },
            Issue::MissingDistribution {
                filename: s("/d/g"),
            },
            Issue::MissingDistribution {
                filename: s("/d/h"),
            },
            Issue::MissingDirectory {
                dir: s("/void"),
                parent: s("/"),
            },
            Issue::DanglingDirEntry {
                dir: s("/d"),
                name: s("/d/phantom"),
            },
            Issue::OrphanDirectory { dir: s("/d/lost") },
            Issue::UnlistedFile {
                filename: s("/d/g"),
            },
            Issue::UnlistedFile {
                filename: s("/d/h"),
            },
        ];
        let audit = c.audit(true).unwrap();
        assert_eq!(audit.issues, found);
        assert_eq!(audit.files, vec![s("/d/f"), s("/d/g"), s("/d/h")]);
        assert_eq!(audit.fixed.len(), 5, "{:?}", audit.fixed);
        assert!(
            !audit.fixed.iter().any(|f| f.contains("/d/h")),
            "{:?}",
            audit.fixed
        );
        let after = c.audit(false).unwrap();
        let unfixable = [&found[2..5], &found[9..]].concat();
        assert_eq!(after.issues, unfixable);
        assert_eq!(after.dirs, 6, "/, /a, /d, /d/h, /d/lost, /void");
        let d = c.get_dir("/d").unwrap().unwrap();
        assert_eq!(
            (d.files, d.sub_dirs),
            (vec![s("/d/f"), s("/d/g")], vec![s("/d/h"), s("/d/lost")])
        );
    }

    fn access_path(c: &Catalog, sql: &str) -> String {
        let rs = c.db().execute(&["EXPLAIN ", sql].concat()).unwrap();
        rs.scalar().unwrap().as_text().unwrap().to_string()
    }

    #[test]
    fn hot_path_statements_are_served_by_an_index() {
        let c = catalog();
        exercise_hot_paths(&c);
        let hot = c.db().cached_statements();
        let mut planned = 0;
        for sql in &hot {
            if sql.starts_with("INSERT") || sql.starts_with("CREATE") {
                continue; // no access path to choose
            }
            let path = access_path(&c, sql);
            assert!(!path.starts_with("scan"), "{sql}\n  explains to `{path}`");
            planned += 1;
        }
        assert!(planned >= 20, "only {planned} statements were checked");
        assert!(hot.iter().any(|s| s.contains("dpfs_rename_intent")));
        assert!(hot.iter().any(|s| s.contains("dpfs_meta_gen SET")));

        // The named exceptions, and the only ones: whole-table reports (the
        // audit reads four tables whole).
        c.list_servers().unwrap();
        c.server_brick_counts().unwrap();
        c.find_by_tag("k", "%").unwrap();
        c.list_rename_intents().unwrap();
        c.audit(false).unwrap();
        let reports: Vec<String> = c
            .db()
            .cached_statements()
            .into_iter()
            .filter(|s| !hot.contains(s) && !s.starts_with("EXPLAIN"))
            .collect();
        assert_eq!(reports.len(), 8, "{reports:?}");
        for sql in &reports {
            assert!(access_path(&c, sql).starts_with("scan"), "{sql}");
        }
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
    fn concurrent_mutations_serialize_without_lost_entries() {
        // Two threads race create/rename/delete over one shared store. The
        // database-wide transaction gate must serialize them: every file a
        // thread successfully created (and didn't delete) has a directory
        // entry, and no entry is duplicated or orphaned.
        let s = Arc::new(catalog());
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
        let s = Arc::new(catalog());
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
                Box::new(|| s.create_file(&attr("/d/f"), &[dist("/d/f")]).map(|_| ())),
            ),
            ("set_file_size", Box::new(|| s.set_file_size("/d/f", 9))),
            ("set_file_owner", Box::new(|| s.set_file_owner("/d/f", "o"))),
            (
                "set_file_permission",
                Box::new(|| s.set_file_permission("/d/f", 0o600)),
            ),
            (
                "extend_distribution",
                Box::new(|| s.extend_distribution("/d/f", 2).map(|_| ())),
            ),
            (
                "stale extend_distribution",
                Box::new(|| s.extend_distribution("/d/f", 2).map(|_| ())),
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
                    let (intent, mut entry, tags) = s.rename_prepare("/d/g", "/d/h")?;
                    entry.attr.filename = "/d/h".into();
                    entry.dist = vec![dist("/d/h")];
                    s.rename_commit_dest(&entry, &tags)?;
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

        // The sequence steps in the transaction of the row that records the
        // value it issued — `create_file`'s attribute row, `rename_prepare`'s
        // intent: no crash can issue a value without recording it, or record
        // one the sequence may issue again. (The 2PC's commit inserts the
        // moved file's row under the id it already has.)
        let mut touched: std::collections::BTreeMap<u64, (bool, bool, bool)> = Default::default();
        for r in &commits().1 {
            let entry = touched.entry(r.txn()).or_default();
            match r {
                WalRecord::Update { table, .. } if table == "dpfs_meta_gen" => entry.0 = true,
                WalRecord::Insert { table, .. } if table == "dpfs_rename_intent" => entry.1 = true,
                WalRecord::Insert { table, .. } if table == "dpfs_file_attr" => entry.2 = true,
                _ => {}
            }
        }
        let stepped: Vec<_> = touched.values().filter(|t| t.0 || t.1).collect();
        let (create, prepare) = ((true, false, true), (true, true, false));
        assert_eq!(stepped, [&create, &prepare, &prepare], "{touched:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
