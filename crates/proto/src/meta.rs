//! Metadata operations: what each one means ([`MetaOp::apply`]) and how it
//! travels.
//!
//! The paper's clients talk to a *database server* for every metadata
//! operation (§5); these messages are that conversation, carried inside the
//! ordinary framed envelope as [`crate::Request::Meta`] /
//! [`crate::Response::Meta`] so metadata traffic inherits the transport's
//! correlation IDs, trace IDs, CRCs, deadlines and retries unchanged. An
//! embedded mount skips the envelope, not the op: it hands the same
//! `MetaOp` to `apply` over its own catalog.
//!
//! How they travel is one row per type (`wire_rows!`, `wire_enum!` below):
//! a variant's tag and its fields in wire order, from which the one wire
//! codec (`crate::message`) generates both directions, as it does for every
//! request and reply.

use bytes::Bytes;
use dpfs_meta::{
    Audit, Catalog, DirEntry, Distribution, FileAttrRow, FileEntry, Issue, MetaError, ServerInfo,
};

use crate::frame::FrameError;
use crate::message::{wire_enum, wire_rows, Parts, Wire};

/// A metadata operation: one verb of the catalog surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    RegisterServer {
        info: ServerInfo,
    },
    ListServers,
    /// Create a file; answers the created entry, its minted id with it.
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
    /// the renamed entry, under the source's id, in one transaction.
    RenameCommit {
        entry: FileEntry,
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
    /// Cross-check the shard's tables ([`Catalog::audit`]) and, with
    /// `repair`, apply the safe fixes.
    Audit {
        repair: bool,
    },
}

/// Result of a metadata operation. One variant per result shape; `Err`
/// carries the `MetaError` wire code + message so the client reconstructs
/// the exact error variant (`MetaError::from_wire`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaResult {
    Unit,
    Bool(bool),
    Servers(Vec<ServerInfo>),
    MaybeAttr(Option<FileAttrRow>),
    MaybeDir(Option<DirEntry>),
    MaybeString(Option<String>),
    /// A file's catalog entry, id, attribute row and distribution together:
    /// what `CreateFile` made, what `OpenFile` found, what `DeleteFile`
    /// removed, what `RenameFile` moved (under its new name), what
    /// `ExtendDistribution` left.
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
    /// Reply to `RenamePrepare`: the intent id plus the entry and tag
    /// snapshot the client replays onto the destination shard.
    RenamePrepared {
        intent: i64,
        entry: FileEntry,
        tags: Vec<(String, String)>,
    },
    /// Reply to `ListRenameIntents`: `(intent, src, dst)` triples.
    Intents(Vec<(i64, String, String)>),
    /// Reply to `Audit`: what the shard's tables show, and what was fixed.
    Audit(Audit),
}

impl MetaOp {
    /// Short stable label, used for per-op service-time histograms and
    /// trace spans ("meta.create_file", ...).
    pub fn op_str(&self) -> &'static str {
        match self {
            MetaOp::RegisterServer { .. } => "meta.register_server",
            MetaOp::ListServers => "meta.list_servers",
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
            MetaOp::Audit { .. } => "meta.audit",
        }
    }

    /// True for operations that change metadata (a client must not blindly
    /// re-send one whose first attempt may have been applied).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            MetaOp::RegisterServer { .. }
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
                | MetaOp::Audit { repair: true }
        )
    }

    /// Apply this op to `catalog`: the one mapping from a metadata verb to
    /// the catalog, whether the op arrived over the wire (`dpfs-metad`) or
    /// from an embedded mount in the same process. A catalog on its own is
    /// a one-shard plane, so `GetShardMap` answers 1 here; a daemon serving
    /// a wider plane answers it with its own map instead.
    pub fn apply(self, catalog: &Catalog) -> Result<MetaResult, MetaError> {
        use MetaOp as Op;
        use MetaResult as R;
        let s = catalog;
        match self {
            Op::RegisterServer { info } => s.register_server(&info).map(|()| R::Unit),
            Op::ListServers => s.list_servers().map(R::Servers),
            Op::CreateFile { attr, dist } => s
                .create_file(&attr, &dist)
                .map(|id| R::MaybeEntry(Some(FileEntry { id, attr, dist }))),
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
            Op::GetShardMap => Ok(R::ShardMap { shards: 1 }),
            Op::RenamePrepare { from, to } => {
                s.rename_prepare(&from, &to)
                    .map(|(intent, entry, tags)| R::RenamePrepared {
                        intent,
                        entry,
                        tags,
                    })
            }
            Op::RenameCommit { entry, tags } => {
                s.rename_commit_dest(&entry, &tags).map(|()| R::Unit)
            }
            Op::RenameFinish { intent } => s.rename_finish(intent).map(|()| R::Unit),
            Op::RenameAbort { intent } => s.rename_abort(intent).map(R::Bool),
            Op::ListRenameIntents => s
                .list_rename_intents()
                .map(|xs| R::Intents(xs.into_iter().map(|i| (i.id, i.src, i.dst)).collect())),
            Op::Audit { repair } => s.audit(repair).map(R::Audit),
        }
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

// ---- the codec: one row per type ----

wire_rows! {
    ServerInfo { name, capacity, performance }
    FileAttrRow {
        filename, owner, permission, size, filelevel, dims, dimsize, stripe_dims, stripe_size,
        pattern, placement, redundancy
    }
    Distribution { server, filename, bricklist }
    FileEntry { id, attr, dist }
    DirEntry { main_dir, sub_dirs, files }
    Audit { issues, fixed, files, dirs }
}

// Op tags 3, 4, 12, 13 and 23 and result tags 4 and 8 are retired, not
// reassigned: a message from an older peer is refused instead of decoding
// to another verb or shape.
wire_enum! { MetaOp, "meta op",
    1 RegisterServer { info }
    2 ListServers
    5 CreateFile { attr, dist }
    6 DeleteFile { filename }
    7 RenameFile { from, to }
    8 GetFileAttr { filename }
    9 SetFileSize { filename, size }
    10 SetFilePermission { filename, permission }
    11 SetFileOwner { filename, owner }
    14 Mkdir { path }
    15 Rmdir { path }
    16 GetDir { path }
    17 SetTag { filename, tag, value }
    18 GetTag { filename, tag }
    19 ListTags { filename }
    20 RemoveTag { filename, tag }
    21 FindByTag { tag, pattern }
    22 ServerBrickCounts
    24 GetShardMap
    25 RenamePrepare { from, to }
    26 RenameCommit { entry, tags }
    27 RenameFinish { intent }
    28 RenameAbort { intent }
    29 ListRenameIntents
    30 OpenFile { filename }
    31 ExtendDistribution { filename, expected_bricks, added }
    32 Audit { repair }
}

wire_enum! { MetaResult, "meta result",
    1 Unit
    2 Bool(value)
    3 Servers(value)
    5 MaybeAttr(value)
    6 MaybeDir(value)
    7 MaybeString(value)
    9 Tags(value)
    10 TagHits(value)
    11 BrickCounts(value)
    12 Err { code, message }
    13 ShardMap { shards }
    14 RenamePrepared { intent, entry, tags }
    15 Intents(value)
    16 MaybeEntry(value)
    17 Audit(value)
}

wire_enum! { Issue, "issue",
    1 OrphanDistribution { filename, server }
    2 MissingDistribution { filename }
    3 CorruptBricklists { filename, detail }
    4 BadAttributes { filename, detail }
    5 DanglingDirEntry { dir, name }
    6 UnlistedFile { filename }
    7 OrphanDirectory { dir }
    8 MissingDirectory { dir, parent }
    9 UnknownServer { filename, server }
    10 SubfileMissing { filename, server }
    11 SubfileOversized { filename, server, max_expected, actual }
    12 ServerUnreachable { server }
    13 UnderProtected { filename, server, subfile }
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

    fn sample_entry() -> FileEntry {
        FileEntry {
            id: 1 << 48 | 7,
            attr: sample_attr(),
            dist: sample_dist(),
        }
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
            entry: sample_entry(),
            tags: vec![("k".into(), "v".into())],
        });
        round_trip_op(MetaOp::RenameFinish { intent: 7 });
        round_trip_op(MetaOp::RenameAbort { intent: 7 });
        round_trip_op(MetaOp::ListRenameIntents);
        round_trip_op(MetaOp::Audit { repair: false });
        round_trip_op(MetaOp::Audit { repair: true });
    }

    /// One of every issue, so the codec is exercised variant by variant.
    fn sample_audit() -> Audit {
        let f = || "/home/f".to_string();
        Audit {
            issues: vec![
                Issue::OrphanDistribution {
                    filename: f(),
                    server: "s0".into(),
                },
                Issue::MissingDistribution { filename: f() },
                Issue::CorruptBricklists {
                    filename: f(),
                    detail: "brick 3 twice".into(),
                },
                Issue::BadAttributes {
                    filename: f(),
                    detail: "level \"x\"".into(),
                },
                Issue::DanglingDirEntry {
                    dir: "/home".into(),
                    name: f(),
                },
                Issue::UnlistedFile { filename: f() },
                Issue::OrphanDirectory {
                    dir: "/island".into(),
                },
                Issue::MissingDirectory {
                    dir: "/a/b".into(),
                    parent: "/a".into(),
                },
                Issue::UnknownServer {
                    filename: f(),
                    server: "gone".into(),
                },
                Issue::SubfileMissing {
                    filename: f(),
                    server: "s1".into(),
                },
                Issue::SubfileOversized {
                    filename: f(),
                    server: "s1".into(),
                    max_expected: 4096,
                    actual: u64::MAX,
                },
                Issue::ServerUnreachable {
                    server: "s2".into(),
                },
                Issue::UnderProtected {
                    filename: f(),
                    server: "s2".into(),
                    subfile: "/home/f#r1".into(),
                },
            ],
            fixed: vec!["created missing directory row /a/b".into()],
            files: vec!["/home/f".into(), "/home/g".into()],
            dirs: 3,
        }
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
        round_trip_result(MetaResult::MaybeEntry(Some(sample_entry())));
        round_trip_result(MetaResult::MaybeEntry(Some(FileEntry {
            id: u64::MAX,
            attr: sample_attr(),
            dist: vec![],
        })));
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
            entry: sample_entry(),
            tags: vec![("k".into(), "v".into()), ("k2".into(), "v2".into())],
        });
        round_trip_result(MetaResult::Intents(vec![
            (1, "/a/f".into(), "/b/f".into()),
            (2, "/a/g".into(), "/c/g".into()),
        ]));
        round_trip_result(MetaResult::Audit(Audit::default()));
        round_trip_result(MetaResult::Audit(sample_audit()));
    }

    /// Op tags 4 (unregistering a server), 12 (the distribution-only
    /// lookup), 13 (the blind whole-map distribution overwrite) and 23
    /// (`Generation`) and result tag 8 (`Distributions`) are retired, not
    /// reassigned: a message from an older peer is refused instead of
    /// decoding to another verb or shape.
    #[test]
    fn retired_tags_are_rejected() {
        let enc = Request::Meta {
            op: MetaOp::GetShardMap,
        }
        .encode();
        assert_eq!(enc.last(), Some(&24));
        for retired in [23u8, 13, 12, 4] {
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

    /// Op tag 3 (one server's registry row) and its result tag 4
    /// (`MaybeServer`) are retired: the registry is read whole, with
    /// `ListServers`. An older peer's lookup is refused, not answered.
    #[test]
    fn retired_get_server_tags_are_rejected() {
        let mut old = Request::Meta {
            op: MetaOp::ListServers,
        }
        .encode()
        .to_vec();
        old.pop();
        old.extend_from_slice(&[3, 2, 0, 0, 0, b's', b'0']);
        assert!(Request::decode(Bytes::from(old)).is_err());
        // "No such server", complete: only the tag can refuse it.
        let mut old = Response::Meta {
            shard: 0,
            result: MetaResult::Unit,
        }
        .encode()
        .to_vec();
        old.pop();
        old.extend_from_slice(&[4, 0]);
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
        // An audit mutates exactly when it repairs.
        assert!(!MetaOp::Audit { repair: false }.is_mutation());
        assert!(MetaOp::Audit { repair: true }.is_mutation());
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
                entry: sample_entry(),
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
                entry: sample_entry(),
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
            result: MetaResult::MaybeEntry(Some(sample_entry())),
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Response::decode(enc.slice(..cut)).is_err(),
                "entry cut at {cut} should fail"
            );
        }
        let enc = Response::Meta {
            shard: 1,
            result: MetaResult::Audit(sample_audit()),
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Response::decode(enc.slice(..cut)).is_err(),
                "audit cut at {cut} should fail"
            );
        }
    }
}
