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
//! Deviation from the paper: POSTGRES has native array/text-list columns; our
//! engine has INTLIST but no TEXTLIST, so `sub_dirs` and `files` are stored
//! as `\n`-joined TEXT. Brick lists use INTLIST, as in the paper.
//!
//! Every statement here is a constant text with `?` placeholders; values
//! travel as bound parameters, never as SQL. A name can therefore hold any
//! character without an escaping rule, and each text is parsed once.

use std::sync::Arc;

use crate::db::{Database, ResultSet, Txn};
use crate::error::{MetaError, Result};
use crate::value::Value;

/// Marker tag written on the destination copy during a cross-shard rename.
/// Its value is the intent id on the source shard; its presence is the
/// commit record the two-phase protocol resolves against after a crash.
pub const RENAME_INTENT_TAG: &str = "dpfs.rename-intent";

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

/// Row of `dpfs_directory`.
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

/// A file's catalog entry as `open`, `unlink` and `rename` need it: the
/// attribute row and the per-server distribution, read (or removed, or moved)
/// in one transaction.
pub type FileEntry = (FileAttrRow, Vec<Distribution>);

/// Typed facade over the DPFS metadata tables.
#[derive(Clone)]
pub struct Catalog {
    db: Arc<Database>,
}

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
    "CREATE TABLE IF NOT EXISTS dpfs_file_attr (
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
        redundancy TEXT NOT NULL)",
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
    "CREATE INDEX IF NOT EXISTS dpfs_file_distribution_by_filename
        ON dpfs_file_distribution (filename)",
    "CREATE INDEX IF NOT EXISTS dpfs_file_tags_by_filename ON dpfs_file_tags (filename)",
];

impl Catalog {
    /// Wrap a database, creating the DPFS tables if they don't exist,
    /// declaring their indexes, and ensuring the root directory `/` and the
    /// rename-intent sequence row are present.
    pub fn new(db: Arc<Database>) -> Result<Catalog> {
        for ddl in SCHEMA {
            db.execute(ddl)?;
        }
        // One transaction, so concurrent first mounts race safely (one
        // seeds, the other sees it).
        db.transaction(|txn| {
            if get_dir(txn, "/")?.is_none() {
                txn.execute("INSERT INTO dpfs_directory VALUES ('/', '', '')")?;
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
        Ok(Catalog { db })
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
        let rs = self.db.execute(
            "SELECT server_name, capacity, performance FROM dpfs_server ORDER BY server_name",
        )?;
        rs.rows.iter().map(|r| server_from_row(r)).collect()
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

    /// Create a file: inserts its attributes, its per-server brick
    /// distribution, and links it into its parent directory — atomically, in
    /// one transaction (the consistency property the paper buys from the
    /// database).
    pub fn create_file(&self, attr: &FileAttrRow, dist: &[Distribution]) -> Result<()> {
        self.db
            .transaction(|txn| create_entry(txn, attr, dist, &[]))
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
        self.db.transaction(|txn| get_attr(txn, filename))
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

    /// Extend a file's brick lists — compare-and-set on its brick count.
    /// `added` names, per server, the new brick numbers to append to that
    /// server's list; they are appended iff the file holds exactly
    /// `expected_bricks` bricks now and `added` numbers the next bricks,
    /// each once. Either way the answer is the file's entry as it stands
    /// afterwards: the caller that lost a race adopts the winner's map from
    /// the same reply. Brick lists only ever grow, and only here.
    pub fn extend_distribution(
        &self,
        filename: &str,
        expected_bricks: i64,
        added: &[(String, Vec<i64>)],
    ) -> Result<FileEntry> {
        self.db.transaction(|txn| {
            let (attr, mut dist) = get_entry(txn, filename)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("file {filename}")))?;
            let have: usize = dist.iter().map(|d| d.bricklist.len()).sum();
            if have as i64 != expected_bricks {
                return Ok((attr, dist));
            }
            let mut numbers: Vec<i64> = added.iter().flat_map(|(_, b)| b).copied().collect();
            numbers.sort_unstable();
            if !numbers
                .iter()
                .copied()
                .eq(expected_bricks..expected_bricks + numbers.len() as i64)
            {
                return Err(MetaError::Txn(format!(
                    "extension of {filename} does not number the bricks after {expected_bricks}"
                )));
            }
            for (server, bricks) in added {
                let row = dist
                    .iter_mut()
                    .find(|d| d.server == *server)
                    .ok_or_else(|| {
                        MetaError::Txn(format!("file {filename} is not striped over {server}"))
                    })?;
                row.bricklist.extend(bricks);
                txn.execute_with(
                    "UPDATE dpfs_file_distribution SET bricklist = ? WHERE dist_key = ?",
                    &[
                        row.bricklist.clone().into(),
                        composite_key(&[server, filename]).into(),
                    ],
                )?;
            }
            Ok((attr, dist))
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
        let parent = parent_dir(&path).expect("non-root path has a parent");
        self.db.transaction(|txn| {
            let dir = get_dir(txn, &parent)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("directory {parent}")))?;
            if dir.sub_dirs.iter().any(|d| d == &path) || get_dir(txn, &path)?.is_some() {
                return Err(MetaError::DuplicateKey(format!("directory {path} exists")));
            }
            let mut subs = dir.sub_dirs;
            subs.push(path.clone());
            set_sub_dirs(txn, &parent, &subs)?;
            txn.execute_with(
                "INSERT INTO dpfs_directory VALUES (?, '', '')",
                &[path.as_str().into()],
            )?;
            Ok(())
        })
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        let path = normalize_path(path)?;
        if path == "/" {
            return Err(MetaError::Txn("cannot remove /".into()));
        }
        let parent = parent_dir(&path).expect("non-root path has a parent");
        self.db.transaction(|txn| {
            let dir = get_dir(txn, &path)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("directory {path}")))?;
            if !dir.sub_dirs.is_empty() || !dir.files.is_empty() {
                return Err(MetaError::Txn(format!("directory {path} not empty")));
            }
            txn.execute_with(
                "DELETE FROM dpfs_directory WHERE main_dir = ?",
                &[path.as_str().into()],
            )?;
            if let Some(p) = get_dir(txn, &parent)? {
                let subs: Vec<String> = p.sub_dirs.into_iter().filter(|d| d != &path).collect();
                set_sub_dirs(txn, &parent, &subs)?;
            }
            Ok(())
        })
    }

    /// Fetch one directory entry.
    pub fn get_dir(&self, path: &str) -> Result<Option<DirEntry>> {
        let path = normalize_path(path)?;
        self.db.transaction(|txn| get_dir(txn, &path))
    }

    /// Rename a file within the same directory tree (metadata only).
    /// Returns the entry that moved, under its new name.
    pub fn rename_file(&self, from: &str, to: &str) -> Result<FileEntry> {
        let from = normalize_path(from)?;
        let to = normalize_path(to)?;
        if parent_dir(&from).is_none() {
            return Err(MetaError::Txn(format!("{from} has no parent")));
        }
        self.db.transaction(|txn| {
            let (mut attr, mut dist) = get_entry(txn, &from)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("file {from}")))?;
            if file_exists(txn, &to)? {
                return Err(MetaError::DuplicateKey(format!("file {to} exists")));
            }
            let tags = list_tags(txn, &from)?;
            // Unlink before linking: when both names share a directory the
            // second rewrite of its file list must see the first.
            remove_entry(txn, &from)?;
            attr.filename = to.clone();
            for d in &mut dist {
                d.filename = to.clone();
            }
            create_entry(txn, &attr, &dist, &tags)?;
            Ok((attr, dist))
        })
    }

    // ---- cross-shard rename (two-phase, driven by the client) ----
    //
    // When `from` and `to` live on different metadata shards a single
    // transaction cannot cover both databases. The protocol is:
    //
    //   1. `rename_prepare` on the SOURCE shard records an intent row and
    //      returns a snapshot of the entry (attrs, distribution, tags).
    //      The source entry stays visible.
    //   2. `rename_commit_dest` on the DESTINATION shard creates the entry
    //      under the new name in one transaction, carrying a
    //      `RENAME_INTENT_TAG` marker tag whose value is the intent id.
    //      This is the commit point.
    //   3. `rename_finish` on the source shard deletes the source entry and
    //      the intent; the client then strips the marker tag best-effort.
    //
    // A crash between phases leaves the intent row resolvable: if the
    // marker exists on the destination the rename committed (roll forward
    // with `rename_finish`); otherwise it did not (`rename_abort`).

    /// Phase 1 on the source shard: record an intent and snapshot the entry.
    /// The entry at `from` must exist and stays visible until `rename_finish`.
    #[allow(clippy::type_complexity)]
    pub fn rename_prepare(
        &self,
        from: &str,
        to: &str,
    ) -> Result<(i64, FileAttrRow, Vec<Distribution>, Vec<(String, String)>)> {
        let from = normalize_path(from)?;
        let to = normalize_path(to)?;
        self.db.transaction(|txn| {
            let attr = get_attr(txn, &from)?
                .ok_or_else(|| MetaError::NoSuchTable(format!("file {from}")))?;
            let dist = get_distribution(txn, &from)?;
            let tags = list_tags(txn, &from)?;
            let id = next_intent_id(txn)?;
            txn.execute_with(
                "INSERT INTO dpfs_rename_intent VALUES (?, ?, ?)",
                &[Value::Int(id), from.as_str().into(), to.as_str().into()],
            )?;
            Ok((id, attr, dist, tags))
        })
    }

    /// Phase 2 on the destination shard: create the renamed entry (attrs,
    /// distribution, tags, plus the `RENAME_INTENT_TAG` marker carrying
    /// `intent`) in one transaction. `attr.filename` and each distribution
    /// row must already carry the destination path. Fails with
    /// `DuplicateKey` if the destination exists.
    pub fn rename_commit_dest(
        &self,
        intent: i64,
        attr: &FileAttrRow,
        dist: &[Distribution],
        tags: &[(String, String)],
    ) -> Result<()> {
        let mut tags = tags.to_vec();
        tags.push((RENAME_INTENT_TAG.to_string(), intent.to_string()));
        self.db
            .transaction(|txn| create_entry(txn, attr, dist, &tags))
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
/// character. Directory entries are one `\n`-joined TEXT, so a newline in a
/// name would split its entry in two that no `unlink` could remove. Checked
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

/// Refuse a name no new file may take: one [`check_chars`] refuses, or one
/// shaped like a derived subfile name. The I/O servers key subfiles by DPFS
/// path, and a redundant file's mirrors and parity live under
/// `{path}#r<copy>` and `{path}#p`: a user file of that name would share —
/// overwrite, and on `unlink` delete — another file's redundancy.
fn check_file_name(filename: &str) -> Result<()> {
    check_chars(filename)?;
    let base = base_name(filename);
    let mirror = base
        .rsplit_once("#r")
        .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
    if mirror || base.ends_with("#p") {
        return Err(MetaError::InvalidName(format!(
            "{filename} is reserved: names ending in #p or #r<digits> name derived subfiles"
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

fn split_list(s: &str) -> Vec<String> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split('\n').map(|x| x.to_string()).collect()
    }
}

// ---- statements shared by the accessors ----

/// The count a mutating statement reports.
fn affected(rs: &ResultSet) -> Result<i64> {
    rs.scalar()?.as_int()
}

/// The next rename-intent id: the one-row sequence in `dpfs_meta_gen`,
/// advanced inside the caller's transaction. Ids are never reused, which is
/// what makes a leftover marker tag harmless (the intent it names no longer
/// exists); `MAX(intent_id) + 1` would reuse them after `rename_finish`. The
/// table keeps the name every directory on disk knows it by (it began as a
/// counter of all mutations), so an old directory opens without a migration
/// and continues above every id it ever issued.
fn next_intent_id(txn: &Txn<'_>) -> Result<i64> {
    txn.execute("UPDATE dpfs_meta_gen SET gen = gen + 1 WHERE k = 'g'")?;
    txn.execute("SELECT gen FROM dpfs_meta_gen WHERE k = 'g'")?
        .rows
        .first()
        .ok_or_else(|| MetaError::Storage("dpfs_meta_gen has no row".into()))?[0]
        .as_int()
}

fn server_from_row(r: &[Value]) -> Result<ServerInfo> {
    Ok(ServerInfo {
        name: r[0].as_text()?.to_string(),
        capacity: r[1].as_int()?,
        performance: r[2].as_int()?,
    })
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

fn get_attr(txn: &Txn<'_>, filename: &str) -> Result<Option<FileAttrRow>> {
    let rs = txn.execute_with(
        "SELECT * FROM dpfs_file_attr WHERE filename = ?",
        &[filename.into()],
    )?;
    rs.rows.first().map(|r| attr_from_row(r)).transpose()
}

fn get_entry(txn: &Txn<'_>, filename: &str) -> Result<Option<FileEntry>> {
    match get_attr(txn, filename)? {
        Some(attr) => Ok(Some((attr, get_distribution(txn, filename)?))),
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

fn get_dir(txn: &Txn<'_>, path: &str) -> Result<Option<DirEntry>> {
    let rs = txn.execute_with(
        "SELECT main_dir, sub_dirs, files FROM dpfs_directory WHERE main_dir = ?",
        &[path.into()],
    )?;
    match rs.rows.first() {
        None => Ok(None),
        Some(r) => Ok(Some(DirEntry {
            main_dir: r[0].as_text()?.to_string(),
            sub_dirs: split_list(r[1].as_text()?),
            files: split_list(r[2].as_text()?),
        })),
    }
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

fn set_dir_files(txn: &Txn<'_>, path: &str, files: &[String]) -> Result<()> {
    txn.execute_with(
        "UPDATE dpfs_directory SET files = ? WHERE main_dir = ?",
        &[files.join("\n").into(), path.into()],
    )?;
    Ok(())
}

fn set_sub_dirs(txn: &Txn<'_>, path: &str, subs: &[String]) -> Result<()> {
    txn.execute_with(
        "UPDATE dpfs_directory SET sub_dirs = ? WHERE main_dir = ?",
        &[subs.join("\n").into(), path.into()],
    )?;
    Ok(())
}

fn insert_distribution(txn: &Txn<'_>, dist: &[Distribution]) -> Result<()> {
    for d in dist {
        txn.execute_with(
            "INSERT INTO dpfs_file_distribution VALUES (?, ?, ?, ?)",
            &[
                composite_key(&[&d.server, &d.filename]).into(),
                d.server.as_str().into(),
                d.filename.as_str().into(),
                d.bricklist.clone().into(),
            ],
        )?;
    }
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

/// Create the entry `attr.filename`: attributes, distribution, tags and the
/// link in its parent directory, which must exist. `DuplicateKey` if the
/// name is taken, `InvalidName` if no file may take it.
fn create_entry(
    txn: &Txn<'_>,
    attr: &FileAttrRow,
    dist: &[Distribution],
    tags: &[(String, String)],
) -> Result<()> {
    check_file_name(&attr.filename)?;
    let parent = parent_dir(&attr.filename)
        .ok_or_else(|| MetaError::Txn(format!("file path {} has no parent", attr.filename)))?;
    let dir = get_dir(txn, &parent)?
        .ok_or_else(|| MetaError::NoSuchTable(format!("directory {parent}")))?;
    if dir.files.iter().any(|f| f == &attr.filename) || file_exists(txn, &attr.filename)? {
        return Err(MetaError::DuplicateKey(format!(
            "file {} already exists",
            attr.filename
        )));
    }
    txn.execute_with(
        "INSERT INTO dpfs_file_attr VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
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
        ],
    )?;
    insert_distribution(txn, dist)?;
    for (tag, value) in tags {
        insert_tag(txn, &attr.filename, tag, value)?;
    }
    let mut files = dir.files;
    files.push(attr.filename.clone());
    set_dir_files(txn, &parent, &files)
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
    if let Some(parent) = parent_dir(filename) {
        if let Some(dir) = get_dir(txn, &parent)? {
            let files: Vec<String> = dir.files.into_iter().filter(|f| f != filename).collect();
            set_dir_files(txn, &parent, &files)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::new(Arc::new(Database::in_memory())).unwrap()
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

        let (intent, snap_attr, snap_dist, tags) = src.rename_prepare("/a/f", "/b/f").unwrap();
        // source stays visible while prepared
        assert!(src.get_file_attr("/a/f").unwrap().is_some());
        assert_eq!(tags, vec![("k".to_string(), "v".to_string())]);

        let mut moved = snap_attr.clone();
        moved.filename = "/b/f".into();
        let moved_dist: Vec<Distribution> = snap_dist
            .iter()
            .map(|d| Distribution {
                filename: "/b/f".into(),
                ..d.clone()
            })
            .collect();
        dst.rename_commit_dest(intent, &moved, &moved_dist, &tags)
            .unwrap();
        // marker tag is the commit record
        assert_eq!(
            dst.get_tag("/b/f", RENAME_INTENT_TAG).unwrap().as_deref(),
            Some(intent.to_string().as_str())
        );
        src.rename_finish(intent).unwrap();
        dst.remove_tag("/b/f", RENAME_INTENT_TAG).unwrap();

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

        let (intent, attr, dist, tags) = src.rename_prepare("/a/f", "/a/f").unwrap();
        // destination already occupied → commit refuses atomically
        assert!(matches!(
            dst.rename_commit_dest(intent, &attr, &dist, &tags),
            Err(MetaError::DuplicateKey(_))
        ));
        assert!(dst.get_tag("/a/f", RENAME_INTENT_TAG).unwrap().is_none());
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

    /// "A leftover marker is harmless (the intent it points at no longer
    /// exists)" holds only if an intent id is never issued twice — not after
    /// its intent finished or aborted, not after a reopen. Nothing but
    /// `rename_prepare` draws from the sequence.
    #[test]
    fn intent_ids_only_grow_and_only_renames_consume_them() {
        let dir = std::env::temp_dir().join(format!("dpfs-intent-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || Catalog::new(Arc::new(Database::open_with_sync(&dir, false).unwrap()));
        let mut c = open().unwrap();
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
                    // Mutations that are not renames.
                    let name = format!("/d/f{created}");
                    created += 1;
                    c.create_file(&sample_attr(&name), &[]).unwrap();
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
        c.create_file(&attr, &dist).unwrap();
        assert_eq!(
            c.open_file("/f").unwrap(),
            Some((attr.clone(), dist.clone()))
        );
        assert_eq!(c.delete_file("/f").unwrap(), (attr, dist));
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

    /// Directory entries are one `\n`-joined TEXT: a newline in a name used
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
            refused(c.create_file(&sample_attr(bad), &[]));
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
                "UPDATE dpfs_directory SET files = ? WHERE main_dir = '/d'",
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
    #[test]
    fn derived_subfile_names_are_reserved() {
        let c = catalog();
        c.create_file(&sample_attr("/f"), &[]).unwrap();
        for reserved in ["/f#r1", "/f#r12", "/f#p", "/g#r1#p"] {
            assert!(
                matches!(
                    c.create_file(&sample_attr(reserved), &[]),
                    Err(MetaError::InvalidName(_))
                ),
                "{reserved}"
            );
            assert!(
                matches!(
                    c.rename_file("/f", reserved),
                    Err(MetaError::InvalidName(_))
                ),
                "{reserved}"
            );
            // The refused rename rolled back whole.
            assert!(c.get_file_attr("/f").unwrap().is_some());
        }
        // Only the final component, and only the whole suffix, is reserved.
        c.mkdir("/d#p").unwrap();
        for fine in ["/d#p/f", "/f#r", "/f#rx", "/f#r1x", "/f#px", "/#q"] {
            c.create_file(&sample_attr(fine), &[]).unwrap();
        }
    }

    #[test]
    fn extend_distribution_is_a_compare_and_set_on_the_brick_count() {
        let c = catalog();
        let row = |server: &str, bricks: &[i64]| Distribution {
            server: server.into(),
            filename: "/f".into(),
            bricklist: bricks.to_vec(),
        };
        let attr = sample_attr("/f");
        c.create_file(&attr, &[row("s0", &[0]), row("s1", &[]), row("s2", &[])])
            .unwrap();
        let added = |pairs: &[(&str, &[i64])]| -> Vec<(String, Vec<i64>)> {
            pairs
                .iter()
                .map(|(s, b)| (s.to_string(), b.to_vec()))
                .collect()
        };
        // From one brick to four: the reply is the entry afterwards.
        let grown = vec![row("s0", &[0, 3]), row("s1", &[1]), row("s2", &[2])];
        let (got, dist) = c
            .extend_distribution("/f", 1, &added(&[("s1", &[1]), ("s2", &[2]), ("s0", &[3])]))
            .unwrap();
        assert_eq!((got, &dist), (attr.clone(), &grown));
        assert_eq!(c.get_distribution("/f").unwrap(), grown);
        // A handle that still believes in one brick changes nothing and
        // learns the four — however it would have numbered its own.
        for stale in [added(&[("s1", &[1])]), added(&[("s2", &[1]), ("s1", &[2])])] {
            assert_eq!(c.extend_distribution("/f", 1, &stale).unwrap().1, grown);
            assert_eq!(c.get_distribution("/f").unwrap(), grown);
        }
        // At the right count, an extension must number the next bricks, each
        // once, onto servers the file is striped over.
        for bad in [
            added(&[("s1", &[5])]),
            added(&[("s1", &[4]), ("s2", &[4])]),
            added(&[("s9", &[4])]),
        ] {
            assert!(matches!(
                c.extend_distribution("/f", 4, &bad),
                Err(MetaError::Txn(_))
            ));
            assert_eq!(c.get_distribution("/f").unwrap(), grown);
        }
        assert_eq!(c.extend_distribution("/f", 4, &[]).unwrap().1, grown);
        assert!(matches!(
            c.extend_distribution("/missing", 0, &[]),
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
        c.extend_distribution("/a/f", 2, &[("s0".into(), vec![2])])
            .unwrap();
        c.set_tag("/a/f", "k", "v").unwrap();
        c.set_tag("/a/f", "k", "w").unwrap();
        c.get_tag("/a/f", "k").unwrap();
        c.list_tags("/a/f").unwrap();
        c.rename_file("/a/f", "/b/g").unwrap();
        let (intent, mut attr, _, tags) = c.rename_prepare("/b/g", "/a/h").unwrap();
        attr.filename = "/a/h".into();
        c.rename_commit_dest(intent, &attr, &dist("/a/h"), &tags)
            .unwrap();
        c.rename_finish(intent).unwrap();
        c.remove_tag("/a/h", RENAME_INTENT_TAG).unwrap();
        let (intent, ..) = c.rename_prepare("/a/h", "/b/i").unwrap();
        c.rename_abort(intent).unwrap();
        c.delete_file("/a/h").unwrap();
        c.rmdir("/b").unwrap();
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

        // The named exceptions, and the only ones: whole-table reports.
        c.list_servers().unwrap();
        c.server_brick_counts().unwrap();
        c.find_by_tag("k", "%").unwrap();
        c.list_rename_intents().unwrap();
        let reports: Vec<String> = c
            .db()
            .cached_statements()
            .into_iter()
            .filter(|s| !hot.contains(s) && !s.starts_with("EXPLAIN"))
            .collect();
        assert_eq!(reports.len(), 4);
        for sql in &reports {
            assert!(access_path(&c, sql).starts_with("scan"), "{sql}");
        }
    }
}
