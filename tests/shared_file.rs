//! Two handles, one file: growth through one handle is never lost to
//! another's.
//!
//! A handle's brick map is the one its `open` read, and a write past it
//! grows the file. Until `ExtendDistribution` that growth was a blind
//! overwrite of the catalog's brick lists with the handle's own, so the
//! handle that grew the file *less* could leave the catalog holding the
//! smaller map — acknowledged bytes unreachable from the next `open`, and
//! subfiles on the I/O servers the catalog no longer named. The growth is a
//! compare-and-set now, and the histories here are the ones that failed:
//! sequential first (no threads needed), then two writers on separate mounts
//! appending interleaved records to one shared file — the PVFS list-I/O
//! paper's shared-file writers — checked against a `Vec<u8>` model and
//! against the I/O servers' own directories.
//!
//! The invariant the exact enumeration of `unlink`/`rename`/`sync` stands on
//! is asserted while the writers run: *files under the iond roots ⊆
//! `RedundancyPolicy::subfiles` over the catalog*, at every instant. No
//! sleeps: barriers and joins only.

use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::Duration;

use dpfs::cluster::Testbed;
use dpfs::core::hints::holders;
use dpfs::core::layout::bricks_for;
use dpfs::core::{
    ClientOptions, CollectiveGroup, Dpfs, Hint, Placement, RedundancyPolicy, RetryPolicy,
};
use dpfs::meta::ServerInfo;

const SERVERS: usize = 4;
const BRICK: u64 = 4096;

#[derive(Clone, Copy, Debug)]
enum Mount {
    Embedded,
    Metad,
}

const MOUNTS: [Mount; 2] = [Mount::Embedded, Mount::Metad];

fn testbed(mount: Mount) -> Testbed {
    match mount {
        Mount::Embedded => Testbed::unthrottled(SERVERS).unwrap(),
        Mount::Metad => Testbed::unthrottled_with_metad(SERVERS).unwrap(),
    }
}

fn client(tb: &Testbed, mount: Mount, rank: usize) -> Dpfs {
    match mount {
        Mount::Embedded => tb.client(rank, true),
        Mount::Metad => tb.remote_client(rank, true),
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// `RedundancyPolicy::subfiles` over what the catalog holds for `path` right
/// now, as `Testbed::on_disk` would list them (the file is striped over
/// every server, so catalog row order is testbed order). Empty if the file
/// is gone.
fn enumeration(fs: &Dpfs, path: &str) -> BTreeSet<(usize, String)> {
    let Some((attr, dist)) = fs.meta().open_file(path).unwrap() else {
        return BTreeSet::new();
    };
    assert_eq!(dist.len(), SERVERS);
    let holds = holders(dist.len(), dist.iter().map(|d| &d.bricklist));
    RedundancyPolicy::parse(&attr.redundancy)
        .unwrap()
        .subfiles(path, &holds)
        .into_iter()
        .collect()
}

fn catalog_bricks(fs: &Dpfs, path: &str) -> u64 {
    let (_, dist) = fs.meta().open_file(path).unwrap().unwrap();
    dist.iter().map(|d| d.bricklist.len() as u64).sum()
}

/// (a) No threads: `/g` has one brick, two handles open it, B writes four
/// bricks' worth, then A — still believing in one brick — writes into the
/// second. At the parent A's two-brick map replaced B's four in the catalog
/// and the read below failed with "beyond file's 2 bricks".
#[test]
fn growth_through_one_handle_survives_a_smaller_growth_through_another() {
    for mount in MOUNTS {
        let tb = testbed(mount);
        let fs = client(&tb, mount, 0);
        drop(fs.create("/g", &Hint::linear(BRICK, BRICK)).unwrap());
        let mut a = fs.open("/g").unwrap();
        let mut b = fs.open("/g").unwrap();
        assert_eq!(a.brick_map().num_bricks(), 1);

        let mut model = pattern(16384, 1);
        b.write_bytes(0, &model).unwrap();
        let patch = pattern(4096, 2);
        a.write_bytes(4096, &patch).unwrap();
        model[4096..8192].copy_from_slice(&patch);

        let mut fresh = fs.open("/g").unwrap();
        assert!(fresh.read_bytes(0, 16384).unwrap() == model, "{mount:?}");
        assert_eq!(fresh.brick_map().num_bricks(), 4, "{mount:?}");
        assert_eq!(fresh.size(), 16384, "{mount:?}");
        assert_eq!(fs.stat("/g").unwrap().size, 16384, "{mount:?}");
        // A lost the compare-and-set and learned B's map from the reply.
        assert_eq!(a.brick_map(), b.brick_map(), "{mount:?}");
        assert_eq!(tb.on_disk(), enumeration(&fs, "/g"), "{mount:?}");
    }
}

/// (b) The same under the greedy algorithm, whose plan depends on the
/// registry's performance numbers: the numbers change between the two
/// handles' growths, so their plans put the same brick numbers on different
/// servers. Whatever each planned, no brick may end up on two servers or on
/// none — `open` rebuilds the map from the brick lists and refuses either.
#[test]
fn two_greedy_handles_never_assign_one_brick_twice() {
    for mount in MOUNTS {
        let tb = testbed(mount);
        let fs = client(&tb, mount, 0);
        let rate = |numbers: [i64; SERVERS]| {
            for (spec, performance) in tb.specs().iter().zip(numbers) {
                fs.register_server(&ServerInfo {
                    name: spec.name.clone(),
                    capacity: i64::MAX,
                    performance,
                })
                .unwrap();
            }
        };
        rate([1, 3, 1, 3]);
        let hint = Hint::linear(BRICK, BRICK).with_placement(Placement::Greedy);
        drop(fs.create("/g", &hint).unwrap());
        let mut a = fs.open("/g").unwrap();
        let mut b = fs.open("/g").unwrap();

        let mut model = vec![0u8; 10 * BRICK as usize];
        let mut write = |h: &mut dpfs::core::FileHandle, brick: usize, bricks: usize, salt| {
            let data = pattern(bricks * BRICK as usize, salt);
            let at = brick * BRICK as usize;
            h.write_bytes(at as u64, &data).unwrap();
            model[at..at + data.len()].copy_from_slice(&data);
        };
        // B to 7 bricks under one rating; A, from its 1-brick map and under
        // another, to 5 (loses, adopts 7), then on to 10 from what it adopted;
        // B, stale at 7, rewrites the middle.
        write(&mut b, 0, 7, 3);
        rate([3, 1, 3, 1]);
        write(&mut a, 3, 2, 4);
        assert_eq!(a.brick_map(), b.brick_map(), "{mount:?}");
        write(&mut a, 6, 4, 5);
        write(&mut b, 2, 3, 6);

        let mut fresh = fs.open("/g").unwrap();
        assert_eq!(fresh.brick_map().num_bricks(), 10, "{mount:?}");
        assert_eq!(fresh.brick_map(), a.brick_map(), "{mount:?}");
        assert!(
            fresh.read_bytes(0, model.len() as u64).unwrap() == model,
            "{mount:?}"
        );
        assert_eq!(tb.on_disk(), enumeration(&fs, "/g"), "{mount:?}");
    }
}

/// Records each writer appends: with one brick per record and the two
/// writers' records interleaved, every write lies past the bricks its handle
/// knows — `RECORDS` growths per writer, most of them raced.
const RECORDS: usize = 256;

/// (c), (d): two writers on separate mounts, each with its own handle,
/// appending interleaved one-brick records to one shared linear file that
/// starts as a single brick (a header nobody writes). A third mount audits the I/O servers'
/// directories against the catalog while each pair of writes is in flight.
fn interleaved_appenders(mount: Mount, policy: RedundancyPolicy) {
    let what = format!("{mount:?} {policy:?}");
    let tb = testbed(mount);
    let audit = client(&tb, mount, 2);
    let hint = Hint::linear(BRICK, BRICK).with_redundancy(policy);
    drop(audit.create("/shared", &hint).unwrap());
    let record =
        |writer: usize, i: usize| pattern(BRICK as usize, (writer * 131 + i * 7 + 1) as u8);

    // A failed check is kept, not raised, until the threads have joined: a
    // panic between two barrier waits would leave the others waiting.
    let step = Barrier::new(3);
    let mut broken: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2)
            .map(|writer| {
                let fs = client(&tb, mount, writer);
                let (step, record) = (&step, &record);
                scope.spawn(move || {
                    let mut f = fs.open("/shared").unwrap();
                    let mut broken = Vec::new();
                    for i in 0..RECORDS {
                        step.wait();
                        let at = (1 + 2 * i + writer) as u64 * BRICK;
                        // A growth: this handle's map ends before the record.
                        if f.brick_map().num_bricks() >= bricks_for(at + BRICK, BRICK) {
                            broken.push(format!("writer {writer}, record {i}: no growth"));
                        }
                        if let Err(e) = f.write_bytes(at, &record(writer, i)) {
                            broken.push(format!("writer {writer}, record {i}: {e}"));
                        }
                        step.wait();
                    }
                    if let Err(e) = f.sync() {
                        broken.push(format!("writer {writer}, sync: {e}"));
                    }
                    broken
                })
            })
            .collect();
        for i in 0..RECORDS {
            step.wait();
            // While both writes are in flight: the disks first, then the
            // catalog. Brick lists only grow, so whatever was on disk a
            // moment ago must be named by the catalog now.
            let on_disk = tb.on_disk();
            let named = enumeration(&audit, "/shared");
            if !on_disk.is_subset(&named) {
                let stray: Vec<_> = on_disk.difference(&named).collect();
                broken.push(format!("step {i}: on disk, not in the catalog: {stray:?}"));
            }
            step.wait();
            // Both acknowledged: `stat` covers the later record's end.
            let acknowledged = (1 + 2 * i + 2) as i64 * BRICK as i64;
            let size = audit.stat("/shared").unwrap().size;
            if size < acknowledged {
                broken.push(format!("step {i}: stat says {size} < {acknowledged}"));
            }
        }
        for writer in writers {
            broken.extend(writer.join().unwrap());
        }
    });
    assert!(broken.is_empty(), "{what}: {broken:#?}");

    // Quiescence: every acknowledged byte through a fresh handle, the size,
    // the brick count, and the disks equal to the exact enumeration.
    let total = (1 + 2 * RECORDS as u64) * BRICK;
    let mut model = vec![0u8; BRICK as usize];
    model.extend((0..2 * RECORDS).flat_map(|r| record(r % 2, r / 2)));
    let mut fresh = audit.open("/shared").unwrap();
    assert_eq!(fresh.size(), total, "{what}");
    assert!(fresh.read_bytes(0, total).unwrap() == model, "{what}");
    assert_eq!(audit.stat("/shared").unwrap().size, total as i64, "{what}");
    assert_eq!(
        catalog_bricks(&audit, "/shared"),
        bricks_for(total, BRICK),
        "{what}"
    );
    let named = enumeration(&audit, "/shared");
    let expect = match policy {
        RedundancyPolicy::None => SERVERS,
        RedundancyPolicy::Replica(k) => SERVERS * k,
        RedundancyPolicy::XorParity => SERVERS,
    };
    assert_eq!(named.len(), expect, "{what}");
    assert_eq!(tb.on_disk(), named, "{what}");

    audit.unlink("/shared").unwrap();
    assert_eq!(tb.on_disk(), BTreeSet::new(), "{what}: after unlink");
}

#[test]
fn interleaved_appenders_lose_no_growth() {
    for mount in MOUNTS {
        interleaved_appenders(mount, RedundancyPolicy::None);
    }
}

/// (d) Which files exist, under redundancy. (The bytes read back are the
/// data subfiles'; what the *parity* holds after two writers raced on one
/// stripe is ROADMAP item 1(ii), and not asserted.)
#[test]
fn interleaved_appenders_under_redundancy_leave_the_enumerated_subfiles() {
    for mount in MOUNTS {
        for policy in [RedundancyPolicy::Replica(2), RedundancyPolicy::XorParity] {
            interleaved_appenders(mount, policy);
        }
    }
}

/// A handle's brick map is a snapshot, and an XOR group couples every data
/// server — so the handle's parity update and its reconstructing read must
/// not take the group's members from the map. `/x` has one brick when A
/// opens it; B then grows it onto two more data servers. Through A, still at
/// one brick: a read with server 0 dead is rebuilt from *all* of the group
/// (from parity and A's map alone it would come back as b0 ^ b1 ^ b2), and a
/// rewrite of brick 0 recomputes parity over all of it (over A's map alone
/// parity would forget b1 and b2, and the next loss would return garbage).
#[test]
fn a_stale_handle_does_xor_algebra_over_every_data_server() {
    let quick = || ClientOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    };
    for mount in MOUNTS {
        let mut tb = testbed(mount);
        let fs = match mount {
            Mount::Embedded => tb.client_opts(quick()),
            Mount::Metad => tb.remote_client_opts(quick()),
        };
        let hint = Hint::linear(BRICK, BRICK).with_redundancy(RedundancyPolicy::XorParity);
        drop(fs.create("/x", &hint).unwrap());
        let mut a = fs.open("/x").unwrap();
        let mut b = fs.open("/x").unwrap();
        let mut model = pattern(3 * BRICK as usize, 1);
        b.write_bytes(0, &model).unwrap();
        assert_eq!(a.brick_map().num_bricks(), 1, "{mount:?}");
        assert_eq!(b.brick_map().num_bricks(), 3, "{mount:?}");

        tb.kill_server(0);
        assert!(
            a.read_bytes(0, BRICK).unwrap() == model[..BRICK as usize],
            "{mount:?}: brick 0 rebuilt through the stale handle"
        );
        tb.restart_server(0).unwrap();

        let patch = pattern(BRICK as usize, 2);
        a.write_bytes(0, &patch).unwrap();
        assert_eq!(a.brick_map().num_bricks(), 1, "{mount:?}");
        model[..BRICK as usize].copy_from_slice(&patch);
        tb.kill_server(1);
        let mut fresh = fs.open("/x").unwrap();
        assert!(
            fresh.read_bytes(0, 3 * BRICK).unwrap() == model,
            "{mount:?}: brick 1 rebuilt after the stale handle's parity update"
        );
    }
}

/// An extending collective write is the same path: every participant grows
/// the file through its own handle.
#[test]
fn an_extending_collective_write_loses_no_growth() {
    const RANKS: usize = 4;
    const ROUNDS: usize = 16;
    const PIECE: usize = 1000;
    for mount in MOUNTS {
        let tb = testbed(mount);
        let fs = client(&tb, mount, 0);
        drop(fs.create("/coll", &Hint::linear(256, 256)).unwrap());
        let piece = |rank: usize, round: usize| pattern(PIECE, (rank * 16 + round) as u8);
        std::thread::scope(|scope| {
            for (rank, coll) in CollectiveGroup::split(RANKS).into_iter().enumerate() {
                let fs = client(&tb, mount, rank);
                let piece = &piece;
                scope.spawn(move || {
                    let mut f = fs.open("/coll").unwrap();
                    for round in 0..ROUNDS {
                        let at = (round * RANKS + rank) * PIECE;
                        coll.write_collective(&mut f, at as u64, &piece(rank, round))
                            .unwrap();
                    }
                });
            }
        });
        let model: Vec<u8> = (0..ROUNDS * RANKS)
            .flat_map(|p| piece(p % RANKS, p / RANKS))
            .collect();
        let mut fresh = fs.open("/coll").unwrap();
        assert_eq!(fresh.size(), model.len() as u64, "{mount:?}");
        assert!(
            fresh.read_bytes(0, model.len() as u64).unwrap() == model,
            "{mount:?}"
        );
        assert_eq!(
            catalog_bricks(&fs, "/coll"),
            bricks_for(model.len() as u64, 256),
            "{mount:?}"
        );
        assert_eq!(tb.on_disk(), enumeration(&fs, "/coll"), "{mount:?}");
    }
}
