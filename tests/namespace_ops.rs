//! The data-plane half of `unlink` and `rename`, checked against what the
//! I/O servers hold on disk.
//!
//! A rename moves names, not bytes: it costs the same whatever the file
//! holds, replaces whatever the destination name held, and reaches every
//! server it can. The tests list the servers' own directories — the
//! client's enumeration of "the subfiles of a file" is compared with the
//! disks, not with itself.

use std::collections::BTreeSet;
use std::time::Duration;

use dpfs::cluster::Testbed;
use dpfs::core::{
    ClientOptions, Dpfs, DpfsError, Hint, RedundancyPolicy, Region, RetryPolicy, Shape,
};
use dpfs::proto::{Request, Response, MAX_FRAME_LEN};

const SERVERS: usize = 4;

struct Rig {
    tb: Testbed,
    fs: Dpfs,
}

fn name(i: usize) -> String {
    format!("ion{i:02}")
}

fn rig() -> Rig {
    let tb = Testbed::unthrottled(SERVERS).unwrap();
    // A killed server refuses connections at once; two quick attempts are
    // enough to call it dead.
    let fs = tb.client_opts(ClientOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    });
    Rig { tb, fs }
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
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// Defect (a): the parent pulled every subfile through the client in one
/// `Read` frame, after the metadata rename had committed — past
/// `MAX_FRAME_LEN` the reply was refused and the bytes stayed under the old
/// name. A server-side rename does not care what the subfile holds.
#[test]
fn a_subfile_larger_than_a_frame_renames() {
    let r = rig();
    let mut f = r.fs.create("/big", &Hint::linear(4096, 16384)).unwrap();
    f.write_bytes(0, &pattern(16384, 1)).unwrap();
    f.close().unwrap();
    // Sparse: no memory, no disk.
    let size = MAX_FRAME_LEN as u64 + 1;
    let grow = Request::Truncate {
        subfile: "/big".into(),
        size,
    };
    assert_eq!(
        r.fs.pool().rpc_ok(&name(2), &grow).unwrap(),
        Response::Truncated
    );

    r.fs.rename("/big", "/moved").unwrap();
    assert_eq!(r.stat(2, "/moved"), (true, size));
    for server in 0..SERVERS {
        assert_eq!(r.stat(server, "/big"), (false, 0), "server {server}");
    }
    let mut f = r.fs.open("/moved").unwrap();
    assert_eq!(f.read_bytes(0, 16384).unwrap(), pattern(16384, 1));
}

/// Defect (b): the parent's copy wrote at offset 0 and never truncated, so
/// a longer leftover under the destination name kept its tail.
#[test]
fn a_leftover_under_the_destination_does_not_survive() {
    let r = rig();
    let mut f = r.fs.create("/src", &Hint::linear(4096, 16384)).unwrap();
    f.write_bytes(0, &pattern(16384, 2)).unwrap();
    f.close().unwrap();
    let leftover = Request::Write {
        subfile: "/dst".into(),
        ranges: vec![(0, vec![0xEE; 3 * 4096].into())],
    };
    r.fs.pool().rpc_ok(&name(1), &leftover).unwrap();
    assert_eq!(r.stat(1, "/dst"), (true, 3 * 4096));

    r.fs.rename("/src", "/dst").unwrap();
    for server in 0..SERVERS {
        assert_eq!(r.stat(server, "/dst"), (true, 4096), "server {server}");
    }
    let mut f = r.fs.open("/dst").unwrap();
    assert_eq!(f.read_bytes(0, 16384).unwrap(), pattern(16384, 2));
}

/// Defect (c): the parent walked the servers in turn and skipped one whose
/// `Stat` failed without a word. Now every server is attempted and the one
/// that could not be reached is named.
#[test]
fn a_dead_server_is_named_and_the_others_renamed() {
    let mut r = rig();
    let mut f = r.fs.create("/f", &Hint::linear(4096, 16384)).unwrap();
    f.write_bytes(0, &pattern(16384, 3)).unwrap();
    f.close().unwrap();
    r.tb.kill_server(1);

    match r.fs.rename("/f", "/g") {
        Err(DpfsError::Aggregate { op, failures }) => {
            assert_eq!(op, "rename");
            let named: Vec<&str> = failures.iter().map(|(server, _)| server.as_str()).collect();
            assert_eq!(named, [name(1)]);
        }
        other => panic!("expected Aggregate, got {other:?}"),
    }
    for server in [0, 2, 3] {
        assert_eq!(r.stat(server, "/g"), (true, 4096), "server {server}");
        assert_eq!(r.stat(server, "/f"), (false, 0), "server {server}");
    }
    // The namespace moved; the dead server's brick still sits under "/f".
    assert!(r.fs.exists("/g").unwrap());
    assert!(!r.fs.exists("/f").unwrap());
    assert!(r.tb.on_disk().contains(&(1, "/f".to_string())));
}

/// After `rename` nothing on any server decodes to the old path, after
/// `unlink` every root is empty, and in between the files on disk are
/// exactly the enumeration — for every policy, on both striping families.
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
            if multidim {
                // 8 x 8 tiles of 32 x 32 bytes: 64 bricks over the data servers.
                let hint = Hint::multidim(
                    Shape::new(vec![256, 256]).unwrap(),
                    Shape::new(vec![32, 32]).unwrap(),
                    1,
                );
                let mut f = r.fs.create(&old, &hint.with_redundancy(policy)).unwrap();
                let whole = Region::new(vec![0, 0], vec![256, 256]).unwrap();
                f.write_region(&whole, &pattern(256 * 256, 9)).unwrap();
                f.close().unwrap();
            } else {
                let hint = Hint::linear(1024, 64 * 1024).with_redundancy(policy);
                let mut f = r.fs.create(&old, &hint).unwrap();
                f.write_bytes(0, &pattern(64 * 1024, 7)).unwrap();
                f.close().unwrap();
            }
            let expect = |path: &str| -> BTreeSet<(usize, String)> {
                policy
                    .subfiles(path, &[true; SERVERS])
                    .into_iter()
                    .collect()
            };
            assert_eq!(r.tb.on_disk(), expect(&old), "{policy:?} written");

            let _ = r.fs.mkdir("/d");
            r.fs.rename(&old, &new).unwrap();
            assert_eq!(r.tb.on_disk(), expect(&new), "{policy:?} renamed");

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

/// Mirrors and parity are subfiles named `{path}#r<copy>` and `{path}#p`, and
/// the I/O servers key subfiles by name alone: a user file called `/f#r1`
/// *was* `/f`'s mirror — writing it overwrote the mirror, unlinking it
/// deleted the mirror on every server. No file may take such a name, by
/// `create` or by `rename`, on an embedded mount and through `dpfs-metad`
/// alike.
#[test]
fn a_file_cannot_be_named_like_another_files_mirror() {
    let quick = ClientOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    };
    for remote in [false, true] {
        let mut tb = match remote {
            false => Testbed::unthrottled(SERVERS).unwrap(),
            true => Testbed::unthrottled_with_metad(SERVERS).unwrap(),
        };
        let fs = match remote {
            false => tb.client_opts(quick),
            true => tb.remote_client_opts(quick),
        };
        let hint = Hint::linear(4096, 16384);
        let mut f = fs
            .create(
                "/f",
                &hint.clone().with_redundancy(RedundancyPolicy::Replica(2)),
            )
            .unwrap();
        f.write_bytes(0, &pattern(16384, 5)).unwrap();
        f.close().unwrap();
        let mut plain = fs.create("/plain", &hint).unwrap();
        plain.write_bytes(0, &pattern(16384, 6)).unwrap();
        plain.close().unwrap();
        let before = tb.on_disk();

        // Act the whole history out, whatever each step answers.
        let created = fs.create("/f#r1", &hint).map(|mut g| {
            g.write_bytes(0, &[0xEE; 16384]).unwrap();
        });
        let renamed = fs.rename("/plain", "/f#r1");
        let _ = fs.unlink("/f#r1");

        // The mirrors are all there, and they are still `/f`'s bytes: with a
        // server down, every brick it held comes from its mirror.
        assert_eq!(tb.on_disk(), before, "remote={remote}");
        tb.kill_server(1);
        let mut f = fs.open("/f").unwrap();
        assert!(
            f.read_bytes(0, 16384).unwrap() == pattern(16384, 5),
            "remote={remote}"
        );
        for (what, refused) in [("create", created), ("rename", renamed)] {
            assert!(
                matches!(refused, Err(DpfsError::InvalidArgument(_))),
                "remote={remote}: {what} answered {refused:?}"
            );
        }
        assert!(fs.exists("/plain").unwrap() && !fs.exists("/f#r1").unwrap());
        assert!(fs.create("/f#p", &hint).is_err(), "remote={remote}");
    }
}

/// A directory's entries are one newline-joined text: `/d/a\nb` became two
/// entries, `a` and `b`, that no `unlink` could remove, and `/d` answered
/// "not empty" for good. A control character in a name is refused up front
/// and leaves the directory as it was.
#[test]
fn a_newline_in_a_name_is_refused_and_the_directory_survives() {
    for remote in [false, true] {
        let tb = match remote {
            false => Testbed::unthrottled(SERVERS).unwrap(),
            true => Testbed::unthrottled_with_metad(SERVERS).unwrap(),
        };
        let fs = match remote {
            false => tb.client(0, true),
            true => tb.remote_client(0, true),
        };
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
        assert_eq!(fs.readdir("/d").unwrap(), listed, "remote={remote}");
        fs.unlink("/d/keep").unwrap();
        fs.rmdir("/d").unwrap();
        assert_eq!(tb.on_disk(), BTreeSet::new(), "remote={remote}");
        for (what, answer) in answers {
            assert!(
                matches!(answer, Err(DpfsError::InvalidArgument(_))),
                "remote={remote}: {what} answered {answer:?}"
            );
        }
    }
}
