//! Metadata RPC payloads: the `MetaStore` surface on the wire.
//!
//! The paper's clients talk to a *database server* for every metadata
//! operation (§5); these messages are that conversation, carried inside the
//! ordinary framed envelope as [`crate::Request::Meta`] /
//! [`crate::Response::Meta`] so metadata traffic inherits the transport's
//! correlation IDs, trace IDs, CRCs, deadlines and retries unchanged.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dpfs_meta::{DirEntry, Distribution, FileAttrRow, FileEntry, MetaError, ServerInfo};

use crate::frame::FrameError;

/// A metadata operation, mirroring the `MetaStore` trait surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    RegisterServer {
        info: ServerInfo,
    },
    ListServers,
    GetServer {
        name: String,
    },
    RemoveServer {
        name: String,
    },
    CreateFile {
        attr: FileAttrRow,
        dist: Vec<Distribution>,
    },
    DeleteFile {
        filename: String,
    },
    RenameFile {
        from: String,
        to: String,
    },
    GetFileAttr {
        filename: String,
    },
    /// Everything `open` needs — the attribute row and the distribution —
    /// read in one transaction.
    OpenFile {
        filename: String,
    },
    SetFileSize {
        filename: String,
        size: i64,
    },
    SetFilePermission {
        filename: String,
        permission: i64,
    },
    SetFileOwner {
        filename: String,
        owner: String,
    },
    /// Compare-and-set growth of a file's brick lists: append `added` (per
    /// server, its new brick numbers) iff the file holds `expected_bricks`
    /// bricks. Answers the entry as it stands afterwards either way.
    ExtendDistribution {
        filename: String,
        expected_bricks: i64,
        added: Vec<(String, Vec<i64>)>,
    },
    Mkdir {
        path: String,
    },
    Rmdir {
        path: String,
    },
    GetDir {
        path: String,
    },
    SetTag {
        filename: String,
        tag: String,
        value: String,
    },
    GetTag {
        filename: String,
        tag: String,
    },
    ListTags {
        filename: String,
    },
    RemoveTag {
        filename: String,
        tag: String,
    },
    FindByTag {
        tag: String,
        pattern: String,
    },
    ServerBrickCounts,
    /// Read the daemon's shard-map view (the shard count), so clients can
    /// cross-check their mount topology.
    GetShardMap,
    /// Cross-shard rename phase 1, sent to the *source* shard: record an
    /// intent and snapshot the entry.
    RenamePrepare {
        from: String,
        to: String,
    },
    /// Cross-shard rename phase 2, sent to the *destination* shard: create
    /// the renamed entry plus the intent marker tag in one transaction.
    RenameCommit {
        intent: i64,
        attr: FileAttrRow,
        dist: Vec<Distribution>,
        tags: Vec<(String, String)>,
    },
    /// Cross-shard rename phase 3, sent to the source shard: delete the
    /// source entry and the intent.
    RenameFinish {
        intent: i64,
    },
    /// Abandon a prepared cross-shard rename on the source shard.
    RenameAbort {
        intent: i64,
    },
    /// List pending cross-shard rename intents (crash recovery).
    ListRenameIntents,
}

/// Result of a metadata operation. One variant per result shape; `Err`
/// carries the `MetaError` wire code + message so the client reconstructs
/// the exact error variant (`MetaError::from_wire`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaResult {
    Unit,
    Bool(bool),
    Servers(Vec<ServerInfo>),
    MaybeServer(Option<ServerInfo>),
    MaybeAttr(Option<FileAttrRow>),
    MaybeDir(Option<DirEntry>),
    MaybeString(Option<String>),
    /// A file's catalog entry, attribute row and distribution together:
    /// what `OpenFile` found, what `DeleteFile` removed, what `RenameFile`
    /// moved (under its new name), what `ExtendDistribution` left.
    MaybeEntry(Option<FileEntry>),
    Tags(Vec<(String, String)>),
    TagHits(Vec<(String, String, i64)>),
    BrickCounts(Vec<(String, i64)>),
    Err {
        code: u8,
        message: String,
    },
    /// The daemon's shard-map view (reply to `GetShardMap`).
    ShardMap {
        shards: u32,
    },
    /// Reply to `RenamePrepare`: the intent id plus the entry snapshot the
    /// client replays onto the destination shard.
    RenamePrepared {
        intent: i64,
        attr: FileAttrRow,
        dist: Vec<Distribution>,
        tags: Vec<(String, String)>,
    },
    /// Reply to `ListRenameIntents`: `(intent, src, dst)` triples.
    Intents(Vec<(i64, String, String)>),
}

impl MetaOp {
    /// Short stable label, used for per-op service-time histograms and
    /// trace spans ("meta.create_file", ...).
    pub fn op_str(&self) -> &'static str {
        match self {
            MetaOp::RegisterServer { .. } => "meta.register_server",
            MetaOp::ListServers => "meta.list_servers",
            MetaOp::GetServer { .. } => "meta.get_server",
            MetaOp::RemoveServer { .. } => "meta.remove_server",
            MetaOp::CreateFile { .. } => "meta.create_file",
            MetaOp::DeleteFile { .. } => "meta.delete_file",
            MetaOp::RenameFile { .. } => "meta.rename_file",
            MetaOp::GetFileAttr { .. } => "meta.get_file_attr",
            MetaOp::OpenFile { .. } => "meta.open_file",
            MetaOp::SetFileSize { .. } => "meta.set_file_size",
            MetaOp::SetFilePermission { .. } => "meta.set_file_permission",
            MetaOp::SetFileOwner { .. } => "meta.set_file_owner",
            MetaOp::ExtendDistribution { .. } => "meta.extend_distribution",
            MetaOp::Mkdir { .. } => "meta.mkdir",
            MetaOp::Rmdir { .. } => "meta.rmdir",
            MetaOp::GetDir { .. } => "meta.get_dir",
            MetaOp::SetTag { .. } => "meta.set_tag",
            MetaOp::GetTag { .. } => "meta.get_tag",
            MetaOp::ListTags { .. } => "meta.list_tags",
            MetaOp::RemoveTag { .. } => "meta.remove_tag",
            MetaOp::FindByTag { .. } => "meta.find_by_tag",
            MetaOp::ServerBrickCounts => "meta.server_brick_counts",
            MetaOp::GetShardMap => "meta.get_shard_map",
            MetaOp::RenamePrepare { .. } => "meta.rename_prepare",
            MetaOp::RenameCommit { .. } => "meta.rename_commit",
            MetaOp::RenameFinish { .. } => "meta.rename_finish",
            MetaOp::RenameAbort { .. } => "meta.rename_abort",
            MetaOp::ListRenameIntents => "meta.list_rename_intents",
        }
    }

    /// True for operations that change metadata (a client must not blindly
    /// re-send one whose first attempt may have been applied).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            MetaOp::RegisterServer { .. }
                | MetaOp::RemoveServer { .. }
                | MetaOp::CreateFile { .. }
                | MetaOp::DeleteFile { .. }
                | MetaOp::RenameFile { .. }
                | MetaOp::SetFileSize { .. }
                | MetaOp::SetFilePermission { .. }
                | MetaOp::SetFileOwner { .. }
                | MetaOp::ExtendDistribution { .. }
                | MetaOp::Mkdir { .. }
                | MetaOp::Rmdir { .. }
                | MetaOp::SetTag { .. }
                | MetaOp::RemoveTag { .. }
                | MetaOp::RenamePrepare { .. }
                | MetaOp::RenameCommit { .. }
                | MetaOp::RenameFinish { .. }
                | MetaOp::RenameAbort { .. }
        )
    }
}

impl MetaResult {
    /// Wrap a `MetaError` for the wire.
    pub fn from_err(e: &MetaError) -> MetaResult {
        MetaResult::Err {
            code: e.wire_code(),
            message: e.to_string(),
        }
    }
}

// ---- codec helpers (shared with message.rs via pub(crate)) ----

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, FrameError> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(FrameError::BadMessage("short string".into()));
    }
    let b = buf.split_to(len);
    String::from_utf8(b.to_vec()).map_err(|_| FrameError::BadMessage("invalid utf-8".into()))
}

fn get_u8(buf: &mut Bytes) -> Result<u8, FrameError> {
    if buf.remaining() < 1 {
        return Err(FrameError::BadMessage("short message".into()));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, FrameError> {
    if buf.remaining() < 4 {
        return Err(FrameError::BadMessage("short message".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_i64(buf: &mut Bytes) -> Result<i64, FrameError> {
    if buf.remaining() < 8 {
        return Err(FrameError::BadMessage("short message".into()));
    }
    Ok(buf.get_u64_le() as i64)
}

fn put_i64(buf: &mut BytesMut, v: i64) {
    buf.put_u64_le(v as u64);
}

fn put_i64_list(buf: &mut BytesMut, xs: &[i64]) {
    buf.put_u32_le(xs.len() as u32);
    for x in xs {
        put_i64(buf, *x);
    }
}

fn get_i64_list(buf: &mut Bytes) -> Result<Vec<i64>, FrameError> {
    let n = get_u32(buf)? as usize;
    let mut xs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        xs.push(get_i64(buf)?);
    }
    Ok(xs)
}

fn put_str_list(buf: &mut BytesMut, xs: &[String]) {
    buf.put_u32_le(xs.len() as u32);
    for x in xs {
        put_str(buf, x);
    }
}

fn get_str_list(buf: &mut Bytes) -> Result<Vec<String>, FrameError> {
    let n = get_u32(buf)? as usize;
    let mut xs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        xs.push(get_str(buf)?);
    }
    Ok(xs)
}

fn put_server_info(buf: &mut BytesMut, s: &ServerInfo) {
    put_str(buf, &s.name);
    put_i64(buf, s.capacity);
    put_i64(buf, s.performance);
}

fn get_server_info(buf: &mut Bytes) -> Result<ServerInfo, FrameError> {
    Ok(ServerInfo {
        name: get_str(buf)?,
        capacity: get_i64(buf)?,
        performance: get_i64(buf)?,
    })
}

fn put_attr(buf: &mut BytesMut, a: &FileAttrRow) {
    put_str(buf, &a.filename);
    put_str(buf, &a.owner);
    put_i64(buf, a.permission);
    put_i64(buf, a.size);
    put_str(buf, &a.filelevel);
    put_i64(buf, a.dims);
    put_i64_list(buf, &a.dimsize);
    put_i64_list(buf, &a.stripe_dims);
    put_i64(buf, a.stripe_size);
    put_str(buf, &a.pattern);
    put_str(buf, &a.placement);
    put_str(buf, &a.redundancy);
}

fn get_attr(buf: &mut Bytes) -> Result<FileAttrRow, FrameError> {
    Ok(FileAttrRow {
        filename: get_str(buf)?,
        owner: get_str(buf)?,
        permission: get_i64(buf)?,
        size: get_i64(buf)?,
        filelevel: get_str(buf)?,
        dims: get_i64(buf)?,
        dimsize: get_i64_list(buf)?,
        stripe_dims: get_i64_list(buf)?,
        stripe_size: get_i64(buf)?,
        pattern: get_str(buf)?,
        placement: get_str(buf)?,
        redundancy: get_str(buf)?,
    })
}

fn put_dist(buf: &mut BytesMut, d: &Distribution) {
    put_str(buf, &d.server);
    put_str(buf, &d.filename);
    put_i64_list(buf, &d.bricklist);
}

fn get_dist(buf: &mut Bytes) -> Result<Distribution, FrameError> {
    Ok(Distribution {
        server: get_str(buf)?,
        filename: get_str(buf)?,
        bricklist: get_i64_list(buf)?,
    })
}

fn put_tag_list(buf: &mut BytesMut, xs: &[(String, String)]) {
    buf.put_u32_le(xs.len() as u32);
    for (k, v) in xs {
        put_str(buf, k);
        put_str(buf, v);
    }
}

fn get_tag_list(buf: &mut Bytes) -> Result<Vec<(String, String)>, FrameError> {
    let n = get_u32(buf)? as usize;
    let mut xs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        xs.push((get_str(buf)?, get_str(buf)?));
    }
    Ok(xs)
}

fn put_dist_list(buf: &mut BytesMut, ds: &[Distribution]) {
    buf.put_u32_le(ds.len() as u32);
    for d in ds {
        put_dist(buf, d);
    }
}

fn get_dist_list(buf: &mut Bytes) -> Result<Vec<Distribution>, FrameError> {
    let n = get_u32(buf)? as usize;
    let mut ds = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ds.push(get_dist(buf)?);
    }
    Ok(ds)
}

impl MetaOp {
    /// Append this op's encoding to `buf` (called from `Request::encode`).
    pub(crate) fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            MetaOp::RegisterServer { info } => {
                buf.put_u8(1);
                put_server_info(buf, info);
            }
            MetaOp::ListServers => buf.put_u8(2),
            MetaOp::GetServer { name } => {
                buf.put_u8(3);
                put_str(buf, name);
            }
            MetaOp::RemoveServer { name } => {
                buf.put_u8(4);
                put_str(buf, name);
            }
            MetaOp::CreateFile { attr, dist } => {
                buf.put_u8(5);
                put_attr(buf, attr);
                put_dist_list(buf, dist);
            }
            MetaOp::DeleteFile { filename } => {
                buf.put_u8(6);
                put_str(buf, filename);
            }
            MetaOp::RenameFile { from, to } => {
                buf.put_u8(7);
                put_str(buf, from);
                put_str(buf, to);
            }
            MetaOp::GetFileAttr { filename } => {
                buf.put_u8(8);
                put_str(buf, filename);
            }
            MetaOp::SetFileSize { filename, size } => {
                buf.put_u8(9);
                put_str(buf, filename);
                put_i64(buf, *size);
            }
            MetaOp::SetFilePermission {
                filename,
                permission,
            } => {
                buf.put_u8(10);
                put_str(buf, filename);
                put_i64(buf, *permission);
            }
            MetaOp::SetFileOwner { filename, owner } => {
                buf.put_u8(11);
                put_str(buf, filename);
                put_str(buf, owner);
            }
            MetaOp::Mkdir { path } => {
                buf.put_u8(14);
                put_str(buf, path);
            }
            MetaOp::Rmdir { path } => {
                buf.put_u8(15);
                put_str(buf, path);
            }
            MetaOp::GetDir { path } => {
                buf.put_u8(16);
                put_str(buf, path);
            }
            MetaOp::SetTag {
                filename,
                tag,
                value,
            } => {
                buf.put_u8(17);
                put_str(buf, filename);
                put_str(buf, tag);
                put_str(buf, value);
            }
            MetaOp::GetTag { filename, tag } => {
                buf.put_u8(18);
                put_str(buf, filename);
                put_str(buf, tag);
            }
            MetaOp::ListTags { filename } => {
                buf.put_u8(19);
                put_str(buf, filename);
            }
            MetaOp::RemoveTag { filename, tag } => {
                buf.put_u8(20);
                put_str(buf, filename);
                put_str(buf, tag);
            }
            MetaOp::FindByTag { tag, pattern } => {
                buf.put_u8(21);
                put_str(buf, tag);
                put_str(buf, pattern);
            }
            MetaOp::ServerBrickCounts => buf.put_u8(22),
            MetaOp::GetShardMap => buf.put_u8(24),
            MetaOp::RenamePrepare { from, to } => {
                buf.put_u8(25);
                put_str(buf, from);
                put_str(buf, to);
            }
            MetaOp::RenameCommit {
                intent,
                attr,
                dist,
                tags,
            } => {
                buf.put_u8(26);
                put_i64(buf, *intent);
                put_attr(buf, attr);
                put_dist_list(buf, dist);
                put_tag_list(buf, tags);
            }
            MetaOp::RenameFinish { intent } => {
                buf.put_u8(27);
                put_i64(buf, *intent);
            }
            MetaOp::RenameAbort { intent } => {
                buf.put_u8(28);
                put_i64(buf, *intent);
            }
            MetaOp::ListRenameIntents => buf.put_u8(29),
            MetaOp::OpenFile { filename } => {
                buf.put_u8(30);
                put_str(buf, filename);
            }
            MetaOp::ExtendDistribution {
                filename,
                expected_bricks,
                added,
            } => {
                buf.put_u8(31);
                put_str(buf, filename);
                put_i64(buf, *expected_bricks);
                buf.put_u32_le(added.len() as u32);
                for (server, bricks) in added {
                    put_str(buf, server);
                    put_i64_list(buf, bricks);
                }
            }
        }
    }

    /// Decode one op from `buf` (called from `Request::decode`).
    pub(crate) fn decode_from(buf: &mut Bytes) -> Result<MetaOp, FrameError> {
        let tag = get_u8(buf)?;
        Ok(match tag {
            1 => MetaOp::RegisterServer {
                info: get_server_info(buf)?,
            },
            2 => MetaOp::ListServers,
            3 => MetaOp::GetServer {
                name: get_str(buf)?,
            },
            4 => MetaOp::RemoveServer {
                name: get_str(buf)?,
            },
            5 => MetaOp::CreateFile {
                attr: get_attr(buf)?,
                dist: get_dist_list(buf)?,
            },
            6 => MetaOp::DeleteFile {
                filename: get_str(buf)?,
            },
            7 => MetaOp::RenameFile {
                from: get_str(buf)?,
                to: get_str(buf)?,
            },
            8 => MetaOp::GetFileAttr {
                filename: get_str(buf)?,
            },
            9 => MetaOp::SetFileSize {
                filename: get_str(buf)?,
                size: get_i64(buf)?,
            },
            10 => MetaOp::SetFilePermission {
                filename: get_str(buf)?,
                permission: get_i64(buf)?,
            },
            11 => MetaOp::SetFileOwner {
                filename: get_str(buf)?,
                owner: get_str(buf)?,
            },
            14 => MetaOp::Mkdir {
                path: get_str(buf)?,
            },
            15 => MetaOp::Rmdir {
                path: get_str(buf)?,
            },
            16 => MetaOp::GetDir {
                path: get_str(buf)?,
            },
            17 => MetaOp::SetTag {
                filename: get_str(buf)?,
                tag: get_str(buf)?,
                value: get_str(buf)?,
            },
            18 => MetaOp::GetTag {
                filename: get_str(buf)?,
                tag: get_str(buf)?,
            },
            19 => MetaOp::ListTags {
                filename: get_str(buf)?,
            },
            20 => MetaOp::RemoveTag {
                filename: get_str(buf)?,
                tag: get_str(buf)?,
            },
            21 => MetaOp::FindByTag {
                tag: get_str(buf)?,
                pattern: get_str(buf)?,
            },
            22 => MetaOp::ServerBrickCounts,
            24 => MetaOp::GetShardMap,
            25 => MetaOp::RenamePrepare {
                from: get_str(buf)?,
                to: get_str(buf)?,
            },
            26 => MetaOp::RenameCommit {
                intent: get_i64(buf)?,
                attr: get_attr(buf)?,
                dist: get_dist_list(buf)?,
                tags: get_tag_list(buf)?,
            },
            27 => MetaOp::RenameFinish {
                intent: get_i64(buf)?,
            },
            28 => MetaOp::RenameAbort {
                intent: get_i64(buf)?,
            },
            29 => MetaOp::ListRenameIntents,
            30 => MetaOp::OpenFile {
                filename: get_str(buf)?,
            },
            31 => {
                let filename = get_str(buf)?;
                let expected_bricks = get_i64(buf)?;
                let n = get_u32(buf)? as usize;
                let mut added = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    added.push((get_str(buf)?, get_i64_list(buf)?));
                }
                MetaOp::ExtendDistribution {
                    filename,
                    expected_bricks,
                    added,
                }
            }
            other => return Err(FrameError::BadMessage(format!("bad meta op tag {other}"))),
        })
    }
}

impl MetaResult {
    /// Append this result's encoding to `buf` (called from
    /// `Response::encode`).
    pub(crate) fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            MetaResult::Unit => buf.put_u8(1),
            MetaResult::Bool(b) => {
                buf.put_u8(2);
                buf.put_u8(*b as u8);
            }
            MetaResult::Servers(xs) => {
                buf.put_u8(3);
                buf.put_u32_le(xs.len() as u32);
                for s in xs {
                    put_server_info(buf, s);
                }
            }
            MetaResult::MaybeServer(opt) => {
                buf.put_u8(4);
                match opt {
                    None => buf.put_u8(0),
                    Some(s) => {
                        buf.put_u8(1);
                        put_server_info(buf, s);
                    }
                }
            }
            MetaResult::MaybeAttr(opt) => {
                buf.put_u8(5);
                match opt {
                    None => buf.put_u8(0),
                    Some(a) => {
                        buf.put_u8(1);
                        put_attr(buf, a);
                    }
                }
            }
            MetaResult::MaybeDir(opt) => {
                buf.put_u8(6);
                match opt {
                    None => buf.put_u8(0),
                    Some(d) => {
                        buf.put_u8(1);
                        put_str(buf, &d.main_dir);
                        put_str_list(buf, &d.sub_dirs);
                        put_str_list(buf, &d.files);
                    }
                }
            }
            MetaResult::MaybeString(opt) => {
                buf.put_u8(7);
                match opt {
                    None => buf.put_u8(0),
                    Some(s) => {
                        buf.put_u8(1);
                        put_str(buf, s);
                    }
                }
            }
            MetaResult::Tags(xs) => {
                buf.put_u8(9);
                buf.put_u32_le(xs.len() as u32);
                for (k, v) in xs {
                    put_str(buf, k);
                    put_str(buf, v);
                }
            }
            MetaResult::TagHits(xs) => {
                buf.put_u8(10);
                buf.put_u32_le(xs.len() as u32);
                for (f, v, size) in xs {
                    put_str(buf, f);
                    put_str(buf, v);
                    put_i64(buf, *size);
                }
            }
            MetaResult::BrickCounts(xs) => {
                buf.put_u8(11);
                buf.put_u32_le(xs.len() as u32);
                for (s, n) in xs {
                    put_str(buf, s);
                    put_i64(buf, *n);
                }
            }
            MetaResult::Err { code, message } => {
                buf.put_u8(12);
                buf.put_u8(*code);
                put_str(buf, message);
            }
            MetaResult::ShardMap { shards } => {
                buf.put_u8(13);
                buf.put_u32_le(*shards);
            }
            MetaResult::RenamePrepared {
                intent,
                attr,
                dist,
                tags,
            } => {
                buf.put_u8(14);
                put_i64(buf, *intent);
                put_attr(buf, attr);
                put_dist_list(buf, dist);
                put_tag_list(buf, tags);
            }
            MetaResult::Intents(xs) => {
                buf.put_u8(15);
                buf.put_u32_le(xs.len() as u32);
                for (intent, src, dst) in xs {
                    put_i64(buf, *intent);
                    put_str(buf, src);
                    put_str(buf, dst);
                }
            }
            MetaResult::MaybeEntry(opt) => {
                buf.put_u8(16);
                match opt {
                    None => buf.put_u8(0),
                    Some((attr, dist)) => {
                        buf.put_u8(1);
                        put_attr(buf, attr);
                        put_dist_list(buf, dist);
                    }
                }
            }
        }
    }

    /// Decode one result from `buf` (called from `Response::decode`).
    pub(crate) fn decode_from(buf: &mut Bytes) -> Result<MetaResult, FrameError> {
        let tag = get_u8(buf)?;
        Ok(match tag {
            1 => MetaResult::Unit,
            2 => MetaResult::Bool(get_u8(buf)? != 0),
            3 => {
                let n = get_u32(buf)? as usize;
                let mut xs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    xs.push(get_server_info(buf)?);
                }
                MetaResult::Servers(xs)
            }
            4 => MetaResult::MaybeServer(if get_u8(buf)? != 0 {
                Some(get_server_info(buf)?)
            } else {
                None
            }),
            5 => MetaResult::MaybeAttr(if get_u8(buf)? != 0 {
                Some(get_attr(buf)?)
            } else {
                None
            }),
            6 => MetaResult::MaybeDir(if get_u8(buf)? != 0 {
                Some(DirEntry {
                    main_dir: get_str(buf)?,
                    sub_dirs: get_str_list(buf)?,
                    files: get_str_list(buf)?,
                })
            } else {
                None
            }),
            7 => MetaResult::MaybeString(if get_u8(buf)? != 0 {
                Some(get_str(buf)?)
            } else {
                None
            }),
            9 => {
                let n = get_u32(buf)? as usize;
                let mut xs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    xs.push((get_str(buf)?, get_str(buf)?));
                }
                MetaResult::Tags(xs)
            }
            10 => {
                let n = get_u32(buf)? as usize;
                let mut xs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    xs.push((get_str(buf)?, get_str(buf)?, get_i64(buf)?));
                }
                MetaResult::TagHits(xs)
            }
            11 => {
                let n = get_u32(buf)? as usize;
                let mut xs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    xs.push((get_str(buf)?, get_i64(buf)?));
                }
                MetaResult::BrickCounts(xs)
            }
            12 => MetaResult::Err {
                code: get_u8(buf)?,
                message: get_str(buf)?,
            },
            13 => MetaResult::ShardMap {
                shards: get_u32(buf)?,
            },
            14 => MetaResult::RenamePrepared {
                intent: get_i64(buf)?,
                attr: get_attr(buf)?,
                dist: get_dist_list(buf)?,
                tags: get_tag_list(buf)?,
            },
            15 => {
                let n = get_u32(buf)? as usize;
                let mut xs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    xs.push((get_i64(buf)?, get_str(buf)?, get_str(buf)?));
                }
                MetaResult::Intents(xs)
            }
            16 => MetaResult::MaybeEntry(if get_u8(buf)? != 0 {
                Some((get_attr(buf)?, get_dist_list(buf)?))
            } else {
                None
            }),
            other => {
                return Err(FrameError::BadMessage(format!(
                    "bad meta result tag {other}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Response};

    fn sample_attr() -> FileAttrRow {
        FileAttrRow {
            filename: "/home/dpfs.test".into(),
            owner: "xhshen".into(),
            permission: 0o744,
            size: 2_097_152,
            filelevel: "multidim".into(),
            dims: 2,
            dimsize: vec![1024, 2048],
            stripe_dims: vec![256, 256],
            stripe_size: 65536,
            pattern: "BLOCK,*".into(),
            placement: "greedy".into(),
            redundancy: "replica:2".into(),
        }
    }

    fn sample_dist() -> Vec<Distribution> {
        vec![
            Distribution {
                server: "s0".into(),
                filename: "/home/dpfs.test".into(),
                bricklist: vec![0, 2, 4],
            },
            Distribution {
                server: "s1".into(),
                filename: "/home/dpfs.test".into(),
                bricklist: vec![1, 3],
            },
        ]
    }

    fn sample_extend() -> MetaOp {
        MetaOp::ExtendDistribution {
            filename: "/home/dpfs.test".into(),
            expected_bricks: 5,
            added: vec![("s1".into(), vec![5, 7]), ("s0".into(), vec![6])],
        }
    }

    fn round_trip_op(op: MetaOp) {
        let req = Request::Meta { op: op.clone() };
        let dec = Request::decode(req.encode()).unwrap();
        assert_eq!(dec, req);
    }

    fn round_trip_result(result: MetaResult) {
        let resp = Response::Meta {
            shard: 3,
            result: result.clone(),
        };
        let dec = Response::decode(resp.encode()).unwrap();
        assert_eq!(dec, resp);
    }

    #[test]
    fn all_ops_round_trip() {
        round_trip_op(MetaOp::RegisterServer {
            info: ServerInfo {
                name: "ccn60.mcs.anl.gov".into(),
                capacity: 1 << 40,
                performance: 2,
            },
        });
        round_trip_op(MetaOp::ListServers);
        round_trip_op(MetaOp::GetServer { name: "s0".into() });
        round_trip_op(MetaOp::RemoveServer { name: "s0".into() });
        round_trip_op(MetaOp::CreateFile {
            attr: sample_attr(),
            dist: sample_dist(),
        });
        round_trip_op(MetaOp::DeleteFile {
            filename: "/f".into(),
        });
        round_trip_op(MetaOp::RenameFile {
            from: "/a".into(),
            to: "/b".into(),
        });
        round_trip_op(MetaOp::GetFileAttr {
            filename: "/f".into(),
        });
        round_trip_op(MetaOp::SetFileSize {
            filename: "/f".into(),
            size: -1,
        });
        round_trip_op(MetaOp::SetFilePermission {
            filename: "/f".into(),
            permission: 0o600,
        });
        round_trip_op(MetaOp::SetFileOwner {
            filename: "/f".into(),
            owner: "o'brien".into(),
        });
        round_trip_op(MetaOp::OpenFile {
            filename: "/f".into(),
        });
        round_trip_op(sample_extend());
        round_trip_op(MetaOp::ExtendDistribution {
            filename: "/f".into(),
            expected_bricks: 0,
            added: vec![],
        });
        round_trip_op(MetaOp::Mkdir { path: "/d".into() });
        round_trip_op(MetaOp::Rmdir { path: "/d".into() });
        round_trip_op(MetaOp::GetDir { path: "/".into() });
        round_trip_op(MetaOp::SetTag {
            filename: "/f".into(),
            tag: "experiment".into(),
            value: "astro-run-7".into(),
        });
        round_trip_op(MetaOp::GetTag {
            filename: "/f".into(),
            tag: "k".into(),
        });
        round_trip_op(MetaOp::ListTags {
            filename: "/f".into(),
        });
        round_trip_op(MetaOp::RemoveTag {
            filename: "/f".into(),
            tag: "k".into(),
        });
        round_trip_op(MetaOp::FindByTag {
            tag: "k".into(),
            pattern: "astro-%".into(),
        });
        round_trip_op(MetaOp::ServerBrickCounts);
        round_trip_op(MetaOp::GetShardMap);
        round_trip_op(MetaOp::RenamePrepare {
            from: "/a/f".into(),
            to: "/b/f".into(),
        });
        round_trip_op(MetaOp::RenameCommit {
            intent: 7,
            attr: sample_attr(),
            dist: sample_dist(),
            tags: vec![("k".into(), "v".into())],
        });
        round_trip_op(MetaOp::RenameFinish { intent: 7 });
        round_trip_op(MetaOp::RenameAbort { intent: 7 });
        round_trip_op(MetaOp::ListRenameIntents);
    }

    #[test]
    fn all_results_round_trip() {
        round_trip_result(MetaResult::Unit);
        round_trip_result(MetaResult::Bool(true));
        round_trip_result(MetaResult::Bool(false));
        round_trip_result(MetaResult::Servers(vec![ServerInfo {
            name: "s0".into(),
            capacity: 5,
            performance: 1,
        }]));
        round_trip_result(MetaResult::MaybeServer(None));
        round_trip_result(MetaResult::MaybeServer(Some(ServerInfo {
            name: "s0".into(),
            capacity: 5,
            performance: 1,
        })));
        round_trip_result(MetaResult::MaybeAttr(None));
        round_trip_result(MetaResult::MaybeAttr(Some(sample_attr())));
        round_trip_result(MetaResult::MaybeDir(None));
        round_trip_result(MetaResult::MaybeDir(Some(DirEntry {
            main_dir: "/".into(),
            sub_dirs: vec!["/a".into(), "/b".into()],
            files: vec!["/f".into()],
        })));
        round_trip_result(MetaResult::MaybeString(None));
        round_trip_result(MetaResult::MaybeString(Some("v".into())));
        round_trip_result(MetaResult::MaybeEntry(None));
        round_trip_result(MetaResult::MaybeEntry(Some((sample_attr(), sample_dist()))));
        round_trip_result(MetaResult::MaybeEntry(Some((sample_attr(), vec![]))));
        round_trip_result(MetaResult::Tags(vec![("k".into(), "v".into())]));
        round_trip_result(MetaResult::TagHits(vec![("/f".into(), "v".into(), 9)]));
        round_trip_result(MetaResult::BrickCounts(vec![("s0".into(), 3)]));
        round_trip_result(MetaResult::Err {
            code: 7,
            message: "duplicate key: file /f already exists".into(),
        });
        round_trip_result(MetaResult::ShardMap { shards: 4 });
        round_trip_result(MetaResult::RenamePrepared {
            intent: 9,
            attr: sample_attr(),
            dist: sample_dist(),
            tags: vec![("k".into(), "v".into()), ("k2".into(), "v2".into())],
        });
        round_trip_result(MetaResult::Intents(vec![
            (1, "/a/f".into(), "/b/f".into()),
            (2, "/a/g".into(), "/c/g".into()),
        ]));
    }

    /// Op tags 12 (the distribution-only lookup), 13 (the blind whole-map
    /// distribution overwrite) and 23 (`Generation`) and result tag 8
    /// (`Distributions`) are retired, not reassigned: a message from an older
    /// peer is refused instead of decoding to another verb or shape.
    #[test]
    fn retired_tags_are_rejected() {
        let enc = Request::Meta {
            op: MetaOp::GetShardMap,
        }
        .encode();
        assert_eq!(enc.last(), Some(&24));
        for retired in [23u8, 13, 12] {
            let mut old = enc.to_vec();
            *old.last_mut().unwrap() = retired;
            // A filename, and (tag 13's body) an empty row list.
            old.extend_from_slice(&[2, 0, 0, 0, b'/', b'f', 0, 0, 0, 0]);
            assert!(Request::decode(Bytes::from(old)).is_err(), "op {retired}");
        }
        let enc = Response::Meta {
            shard: 0,
            result: MetaResult::Unit,
        }
        .encode();
        assert_eq!(enc.last(), Some(&1));
        let mut old = enc.to_vec();
        *old.last_mut().unwrap() = 8;
        old.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Response::decode(Bytes::from(old)).is_err());
    }

    #[test]
    fn op_labels_are_stable_and_prefixed() {
        assert_eq!(MetaOp::ListServers.op_str(), "meta.list_servers");
        assert_eq!(MetaOp::GetShardMap.op_str(), "meta.get_shard_map");
        assert!(MetaOp::Mkdir { path: "/d".into() }
            .op_str()
            .starts_with("meta."));
    }

    #[test]
    fn mutation_classification() {
        assert!(MetaOp::Mkdir { path: "/d".into() }.is_mutation());
        assert!(MetaOp::RenameFile {
            from: "/a".into(),
            to: "/b".into()
        }
        .is_mutation());
        assert!(sample_extend().is_mutation());
        assert!(!MetaOp::ListServers.is_mutation());
        assert!(!MetaOp::GetFileAttr {
            filename: "/f".into()
        }
        .is_mutation());
        // The rename 2PC phases all mutate; the map fetch and the intent
        // listing are reads (safe to retry on any transient failure).
        assert!(MetaOp::RenamePrepare {
            from: "/a".into(),
            to: "/b".into()
        }
        .is_mutation());
        assert!(MetaOp::RenameFinish { intent: 1 }.is_mutation());
        assert!(MetaOp::RenameAbort { intent: 1 }.is_mutation());
        assert!(!MetaOp::GetShardMap.is_mutation());
        assert!(!MetaOp::ListRenameIntents.is_mutation());
    }

    #[test]
    fn meta_error_reconstructs_across_the_wire() {
        let e = MetaError::DuplicateKey("file /f already exists".into());
        let MetaResult::Err { code, message } = MetaResult::from_err(&e) else {
            panic!()
        };
        let back = MetaError::from_wire(code, message);
        assert!(matches!(back, MetaError::DuplicateKey(_)));
    }

    #[test]
    fn truncated_meta_frames_rejected() {
        let enc = Request::Meta {
            op: MetaOp::CreateFile {
                attr: sample_attr(),
                dist: sample_dist(),
            },
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(enc.slice(..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
        let enc = Request::Meta {
            op: MetaOp::RenameCommit {
                intent: 3,
                attr: sample_attr(),
                dist: sample_dist(),
                tags: vec![("k".into(), "v".into())],
            },
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(enc.slice(..cut)).is_err(),
                "commit cut at {cut} should fail"
            );
        }
        let enc = Request::Meta {
            op: sample_extend(),
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(enc.slice(..cut)).is_err(),
                "extend cut at {cut} should fail"
            );
        }
        let enc = Response::Meta {
            shard: 1,
            result: MetaResult::RenamePrepared {
                intent: 3,
                attr: sample_attr(),
                dist: sample_dist(),
                tags: vec![("k".into(), "v".into())],
            },
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Response::decode(enc.slice(..cut)).is_err(),
                "prepared cut at {cut} should fail"
            );
        }
        let enc = Response::Meta {
            shard: 1,
            result: MetaResult::MaybeEntry(Some((sample_attr(), sample_dist()))),
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Response::decode(enc.slice(..cut)).is_err(),
                "entry cut at {cut} should fail"
            );
        }
    }
}
