//! The cost of a catalog operation does not grow with the number of files:
//! every statement on the stat / open / create / unlink / rename paths is
//! served by an index, so a catalog of 16 384 files answers within 3× of
//! one of 512 (the scanning engine this replaces was linear: 32×).
//!
//! Files are spread 64 to a directory in both catalogs, so that only the
//! catalog grows. What the size of the *directory* costs is counted in
//! `flat_wal.rs`: each entry is a `dpfs_dirent` row of its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dpfs_meta::{Catalog, Database, Distribution, FileAttrRow};

const PER_DIR: usize = 64;

fn attr(name: &str) -> FileAttrRow {
    FileAttrRow {
        filename: name.to_string(),
        owner: "bench".into(),
        permission: 0o644,
        size: 8192,
        filelevel: "linear".into(),
        dims: 0,
        dimsize: vec![],
        stripe_dims: vec![],
        stripe_size: 4096,
        pattern: String::new(),
        placement: "round_robin".into(),
        redundancy: String::new(),
    }
}

fn dist(name: &str) -> Vec<Distribution> {
    (0..4)
        .map(|i| Distribution {
            server: format!("ion{i:02}"),
            filename: name.to_string(),
            bricklist: vec![i, i + 4],
        })
        .collect()
}

fn catalog_of(files: usize) -> Catalog {
    let c = Catalog::new(Arc::new(Database::in_memory())).unwrap();
    for d in 0..files / PER_DIR {
        c.mkdir(&format!("/d{d}")).unwrap();
    }
    for k in 0..files {
        let name = format!("/d{}/f{k}", k / PER_DIR);
        c.create_file(&attr(&name), &dist(&name)).unwrap();
    }
    c
}

/// The fastest of seven batches of 64 calls, per call: the minimum is the
/// run least disturbed by whatever else the machine is doing.
fn cost(mut op: impl FnMut(usize)) -> Duration {
    (0..7)
        .map(|batch| {
            let start = Instant::now();
            for i in 0..64 {
                op(batch * 64 + i);
            }
            start.elapsed() / 64
        })
        .min()
        .unwrap()
}

/// `(name, cost)` of each operation on a catalog of `files` files.
fn costs(files: usize) -> Vec<(&'static str, Duration)> {
    let c = catalog_of(files);
    // probe files spread over the whole key range, directory 1 as the
    // scratch space of the mutating pairs
    let probe = |i: usize| {
        let k = (i * 7919) % files;
        format!("/d{}/f{k}", k / PER_DIR)
    };
    vec![
        (
            "get_file_attr",
            cost(|i| assert!(c.get_file_attr(&probe(i)).unwrap().is_some())),
        ),
        (
            "get_distribution",
            cost(|i| assert_eq!(c.get_distribution(&probe(i)).unwrap().len(), 4)),
        ),
        (
            "create_file + delete_file",
            cost(|_| {
                c.create_file(&attr("/d1/probe"), &dist("/d1/probe"))
                    .unwrap();
                assert_eq!(c.delete_file("/d1/probe").unwrap().1.len(), 4);
            }),
        ),
        (
            "rename_file",
            cost(|i| {
                let (from, to) = if i % 2 == 0 {
                    ("/d0/f0", "/d1/moved")
                } else {
                    ("/d1/moved", "/d0/f0")
                };
                c.rename_file(from, to).unwrap();
            }),
        ),
    ]
}

#[test]
fn operations_cost_the_same_at_512_and_at_16384_files() {
    let (small, large) = (costs(512), costs(16_384));
    for ((name, small), (_, large)) in small.iter().zip(&large) {
        println!("{name}: {small:?} at 512 files, {large:?} at 16 384");
        assert!(
            *large < *small * 3,
            "{name}: {small:?} per call at 512 files, {large:?} at 16 384"
        );
    }
}
