//! The data-plane half of `unlink` and `rename`, checked against what the
//! I/O servers hold on disk.
//!
//! Subfiles are named by the file's catalog id, never by its path. A rename
//! therefore moves no subfile and sends no server anything: it costs the
//! same whatever the file holds, and a server that is down misses nothing.
//! A file created at a path another file left keeps nothing of it: its id,
//! and so every subfile name, is new. The tests list the servers' own
//! directories — the client's enumeration of "the subfiles of a file" is
//! compared with the disks, not with itself — on a one-shard and on a
//! two-shard `dpfs-metad` plane alike.

use std::collections::BTreeSet;
use std::time::Duration;

use dpfs::cluster::Testbed;
use dpfs::core::{
    primary_subfile, ClientOptions, Dpfs, DpfsError, Hint, RedundancyPolicy, Region, RetryPolicy,
    Shape,
};
use dpfs::meta::ShardMap;
use dpfs::proto::{Request, Response, MAX_FRAME_LEN};

const SERVERS: usize = 4;

struct Rig {
    tb: Testbed,
    fs: Dpfs,
    /// Two directories; on a sharded plane, homed on different shards, so
    /// a rename from one to the other is the cross-shard protocol.
    dirs: [String; 2],
}

fn name(i: usize) -> String {
    format!("ion{i:02}")
}

/// A killed server refuses connections at once; two quick attempts are
/// enough to call it dead.
fn quick() -> ClientOptions {
    ClientOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    }
}

fn rig() -> Rig {
    mount(1)
}

/// A mount of a `shards`-wide `dpfs-metad` plane.
fn mount(shards: usize) -> Rig {
    let tb = Testbed::unthrottled_sharded(SERVERS, shards).unwrap();
    let fs = tb.client_opts(quick());
    let map = ShardMap::new(2);
    let dirs = [0, 1].map(|shard| {
        (0..64)
            .map(|i| format!("/sd{i}"))
            .find(|d| map.shard_of_dir(d) == shard)
            .expect("64 names cover both shards")
    });
    for d in &dirs {
        fs.mkdir(d).unwrap();
    }
    Rig { tb, fs, dirs }
}

impl Rig {
    fn stat(&self, server: usize, subfile: &str) -> (bool, u64) {
        let stat = Request::Stat {
            subfile: subfile.into(),
        };
        match self.fs.pool().rpc_ok(&name(server), &stat).unwrap() {
            Response::Stat { exists, size } => (exists, size),
            other => panic!("expected Stat, got {other:?}"),
        }
    }

    /// Create `path` under `policy` and write `len` pattern bytes salted
    /// with `salt`; returns the file's id.
    fn written(&self, path: &str, policy: RedundancyPolicy, len: usize, salt: u8) -> u64 {
        let hint = Hint::linear(4096, len as u64).with_redundancy(policy);
        let mut f = self.fs.create(path, &hint).unwrap();
        f.write_bytes(0, &pattern(len, salt)).unwrap();
        let id = f.id();
        f.close().unwrap();
        id
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// A subfile larger than a frame: the renames that moved bytes through
/// the client stopped at `MAX_FRAME_LEN`, the ones that renamed subfiles on
/// the servers did not care. Now nothing moves: the grown subfile stays
/// where it is, under the file's id, and the file reads it under its new
/// name.
#[test]
fn a_subfile_larger_than_a_frame_renames() {
    let r = rig();
    let id = r.written("/big", RedundancyPolicy::None, 16384, 1);
    // One byte at the end, a hole before it: no memory, no disk.
    let size = MAX_FRAME_LEN as u64 + 1;
    let grow = Request::Write {
        subfile: primary_subfile(id),
        ranges: vec![(size - 1, vec![0u8].into())],
    };
    assert_eq!(
        r.fs.pool().rpc_ok(&name(2), &grow).unwrap(),
        Response::Written { bytes: 1 }
    );
    let before = r.tb.on_disk();

    r.fs.rename("/big", "/moved").unwrap();
    assert_eq!(r.stat(2, &primary_subfile(id)), (true, size));
    assert_eq!(r.tb.on_disk(), before);
    let mut f = r.fs.open("/moved").unwrap();
    assert_eq!(f.read_bytes(0, 16384).unwrap(), pattern(16384, 1));
}

/// A longer subfile a server holds under the destination's *path* — what
/// a path-named store left there — is no part of the renamed file: the
/// file reads its own bytes, exactly as long as it is.
#[test]
fn a_leftover_under_the_destination_does_not_survive() {
    let r = rig();
    let id = r.written("/src", RedundancyPolicy::None, 16384, 2);
    let leftover = Request::Write {
        subfile: "/dst".into(),
        ranges: vec![(0, vec![0xEE; 3 * 4096].into())],
    };
    r.fs.pool().rpc_ok(&name(1), &leftover).unwrap();

    r.fs.rename("/src", "/dst").unwrap();
    for server in 0..SERVERS {
        assert_eq!(
            r.stat(server, &primary_subfile(id)),
            (true, 4096),
            "server {server}"
        );
    }
    let mut f = r.fs.open("/dst").unwrap();
    assert_eq!(f.read_bytes(0, 16384).unwrap(), pattern(16384, 2));
}

/// A rename with an I/O server down: it reaches no server, so it succeeds,
/// and once the server is back the file reads byte-exact under its new
/// name — within a shard and across. (Renaming subfiles on the servers left
/// the dead one's bricks under the old name, and the file read holes there.)
#[test]
fn a_rename_with_a_server_down_reads_back_byte_exact_after_its_restart() {
    for shards in [1, 2] {
        for policy in [RedundancyPolicy::None, RedundancyPolicy::Replica(2)] {
            let mut r = mount(shards);
            let [d0, d1] = r.dirs.clone();
            let id = r.written(&format!("{d0}/f"), policy, 16384, 3);
            let before = r.tb.on_disk();
            r.tb.kill_server(1);
            r.fs.rename(&format!("{d0}/f"), &format!("{d0}/g")).unwrap();
            r.fs.rename(&format!("{d0}/g"), &format!("{d1}/h")).unwrap();
            r.tb.restart_server(1).unwrap();
            let what = format!("{shards} shard(s) {policy:?}");
            assert_eq!(r.tb.on_disk(), before, "{what}");
            assert!(before.contains(&(1, primary_subfile(id))), "{what}");
            let mut f = r.fs.open(&format!("{d1}/h")).unwrap();
            assert_eq!(f.read_bytes(0, 16384).unwrap(), pattern(16384, 3), "{what}");
            assert!(!r.fs.exists(&format!("{d0}/f")).unwrap(), "{what}");
        }
    }
}

/// An unlink with an I/O server down leaves that server's subfiles behind,
/// under the unlinked file's id. A new file at the same path has a new id:
/// once the server is back, every byte the new file never wrote reads as
/// zeros, not as the old file's. (Path-named subfiles handed the old
/// bricks to the new file's holes.)
#[test]
fn an_unlink_with_a_server_down_leaves_nothing_the_next_file_reads() {
    for shards in [1, 2] {
        for policy in [RedundancyPolicy::None, RedundancyPolicy::Replica(2)] {
            let mut r = mount(shards);
            let path = format!("{}/f", r.dirs[0]);
            let old = r.written(&path, policy, 16384, 4);
            r.tb.kill_server(1);
            r.fs.unlink(&path).unwrap();
            let hint = Hint::linear(4096, 16384).with_redundancy(policy);
            let new = r.fs.create(&path, &hint).unwrap().id();
            r.tb.restart_server(1).unwrap();
            // Brick 0 only (server 0's, mirrored on server 1): brick 1, on
            // server 1, stays a hole.
            let mut f = r.fs.open(&path).unwrap();
            f.write_bytes(0, &[9u8; 4096]).unwrap();
            let what = format!("{shards} shard(s) {policy:?}");
            assert_ne!(new, old, "{what}");
            assert!(
                r.tb.on_disk().contains(&(1, primary_subfile(old))),
                "{what}"
            );
            let mut expect = vec![0u8; 16384];
            expect[..4096].fill(9);
            let mut f = r.fs.open(&path).unwrap();
            assert!(
                f.read_bytes(0, 16384).unwrap() == expect,
                "{what}: a hole read old bytes"
            );
        }
    }
}

/// `#p` and `#r1` once named a file's parity and mirror subfiles, so a
/// user file called `/f#p` or `/f#r1` *was* `/f`'s redundancy: writing it
/// overwrote it, unlinking it deleted it, and the catalog had to refuse
/// such names. They are ordinary names now: beside a redundant `/f`, files
/// of those names are created, written, renamed and unlinked, and `/f`'s
/// bytes — read around a dead server, from the redundancy alone — are
/// untouched.
#[test]
fn names_like_a_mirror_or_parity_are_ordinary_names() {
    for shards in [1, 2] {
        for policy in [RedundancyPolicy::Replica(2), RedundancyPolicy::XorParity] {
            let mut r = mount(shards);
            let d = r.dirs[0].clone();
            let f = format!("{d}/f");
            r.written(&f, policy, 16384, 5);
            let before = r.tb.on_disk();
            let what = format!("{shards} shard(s) {policy:?}");
            for (i, suffix) in ["#p", "#r1"].into_iter().enumerate() {
                let other = format!("{f}{suffix}");
                r.written(&other, RedundancyPolicy::None, 16384, 0xEE);
                assert!(r.fs.exists(&other).unwrap(), "{what}");
                let moved = format!("{}/f{suffix}", r.dirs[1]);
                r.fs.rename(&other, &moved).unwrap();
                r.fs.rename(&moved, &other).unwrap();
                let mut g = r.fs.open(&other).unwrap();
                assert_eq!(
                    g.read_bytes(0, 16384).unwrap(),
                    pattern(16384, 0xEE),
                    "{what} {i}"
                );
                r.fs.unlink(&other).unwrap();
            }
            assert_eq!(r.tb.on_disk(), before, "{what}");
            for server in 0..SERVERS {
                r.tb.kill_server(server);
                let mut g = r.fs.open(&f).unwrap();
                let back = g.read_bytes(0, 16384).unwrap();
                assert!(back == pattern(16384, 5), "{what}: without server {server}");
                r.tb.restart_server(server).unwrap();
            }
        }
    }
}

/// A rename leaves every root as it was, after `unlink` every root is
/// empty, and in between the files on disk are exactly the enumeration —
/// for every policy, on both striping families.
#[test]
fn disk_contents_equal_the_enumeration() {
    let r = rig();
    let policies = [
        RedundancyPolicy::None,
        RedundancyPolicy::Replica(2),
        RedundancyPolicy::XorParity,
    ];
    for (p, policy) in policies.into_iter().enumerate() {
        for multidim in [false, true] {
            let (old, new) = (format!("/old{p}{multidim}"), format!("/d/new{p}{multidim}"));
            let id = if multidim {
                // 8 x 8 tiles of 32 x 32 bytes: 64 bricks over the data servers.
                let hint = Hint::multidim(
                    Shape::new(vec![256, 256]).unwrap(),
                    Shape::new(vec![32, 32]).unwrap(),
                    1,
                );
                let mut f = r.fs.create(&old, &hint.with_redundancy(policy)).unwrap();
                let whole = Region::new(vec![0, 0], vec![256, 256]).unwrap();
                f.write_region(&whole, &pattern(256 * 256, 9)).unwrap();
                let id = f.id();
                f.close().unwrap();
                id
            } else {
                let hint = Hint::linear(1024, 64 * 1024).with_redundancy(policy);
                let mut f = r.fs.create(&old, &hint).unwrap();
                f.write_bytes(0, &pattern(64 * 1024, 7)).unwrap();
                let id = f.id();
                f.close().unwrap();
                id
            };
            let expect: BTreeSet<(usize, String)> =
                policy.subfiles(id, &[true; SERVERS]).into_iter().collect();
            assert_eq!(r.tb.on_disk(), expect, "{policy:?} written");

            let _ = r.fs.mkdir("/d");
            r.fs.rename(&old, &new).unwrap();
            assert_eq!(r.tb.on_disk(), expect, "{policy:?} renamed");

            let mut f = r.fs.open(&new).unwrap();
            let back = if multidim {
                let whole = Region::new(vec![0, 0], vec![256, 256]).unwrap();
                f.read_region(&whole).unwrap()
            } else {
                f.read_bytes(0, 64 * 1024).unwrap()
            };
            let salt = if multidim { 9 } else { 7 };
            assert_eq!(back, pattern(back.len(), salt), "{policy:?} bytes");

            r.fs.unlink(&new).unwrap();
            assert_eq!(r.tb.on_disk(), BTreeSet::new(), "{policy:?} unlinked");
        }
    }
}

/// A directory's entries are one newline-joined text: `/d/a\nb` became two
/// entries, `a` and `b`, that no `unlink` could remove, and `/d` answered
/// "not empty" for good. A control character in a name is refused up front
/// and leaves the directory as it was.
#[test]
fn a_newline_in_a_name_is_refused_and_the_directory_survives() {
    for shards in [1, 2] {
        let tb = Testbed::unthrottled_sharded(SERVERS, shards).unwrap();
        let fs = tb.client(0, true);
        let hint = Hint::linear(4096, 4096);
        fs.mkdir("/d").unwrap();
        drop(fs.create("/d/keep", &hint).unwrap());
        let listed = fs.readdir("/d").unwrap();
        let answers = [
            ("create", fs.create("/d/a\nb", &hint).map(drop)),
            ("mkdir", fs.mkdir("/d/a\nb")),
            ("rename", fs.rename("/d/keep", "/d/a\nb")),
            ("create", fs.create("/d/tab\there", &hint).map(drop)),
        ];
        let _ = fs.unlink("/d/a\nb");
        assert_eq!(fs.readdir("/d").unwrap(), listed, "{shards} shard(s)");
        fs.unlink("/d/keep").unwrap();
        fs.rmdir("/d").unwrap();
        assert_eq!(tb.on_disk(), BTreeSet::new(), "{shards} shard(s)");
        for (what, answer) in answers {
            assert!(
                matches!(answer, Err(DpfsError::InvalidArgument(_))),
                "{shards} shard(s): {what} answered {answer:?}"
            );
        }
    }
}
