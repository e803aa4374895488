//! Round-trip budget of the namespace operations, counted at the daemons.
//!
//! An op on a remote mount is made of metadata round trips, and each one
//! costs more than everything the daemon does inside it — so each op is one
//! trip wherever one transaction can answer it: `open` is `OpenFile` (the
//! attribute row and the distribution, read together), `unlink` is
//! `DeleteFile`, answering with the entry it removed, which is where the
//! data-plane half gets its server list, its redundancy policy and the file
//! id its subfiles are named by, and a same-shard `rename` is `RenameFile`.
//! A cross-shard `rename` is the three steps of its two-phase protocol and
//! nothing else: the moved entry keeps its id, and that id on the
//! destination is the commit record, so there is no marker to strip. The budgets
//! here are the daemons' own per-op counters
//! (`MetadStatsSnapshot::op_latency` counts, summed over both shards of a
//! 2-shard plane) around exactly one client call: they repeat exactly, so
//! this is a regression test, not a timing. What is left to beat is
//! `create`'s `list_servers` trip (ROADMAP item 5).
//!
//! The data-plane half is counted the same way at the I/O servers: `unlink`
//! and `sync` send one request per subfile the file's brick lists name —
//! the servers' own request counters around the call, the kinds read off
//! the `handle` events of the op's trace — whatever the file holds: a
//! one-brick file on four servers costs one request, not four. `rename`
//! sends none: subfiles are named by the file's id, which a rename keeps.
//! What the servers hold on disk afterwards is compared with the policy's
//! enumeration over the catalog.

use std::collections::{BTreeMap, BTreeSet};

use dpfs::cluster::Testbed;
use dpfs::core::hints::holders;
use dpfs::core::trace::{ring, Side};
use dpfs::core::{Dpfs, DpfsError, Hint, RedundancyPolicy};
use dpfs::meta::ShardMap;

type Counts = BTreeMap<String, u64>;

/// Calls per metadata op label, summed over every shard.
fn served(tb: &Testbed) -> Counts {
    let mut out = Counts::new();
    for shard in tb.metad_stats_all() {
        for (op, hist) in shard.op_latency {
            *out.entry(op).or_insert(0) += hist.count;
        }
    }
    out
}

/// The metadata ops the daemons served while `call` ran.
fn spent(tb: &Testbed, call: impl FnOnce()) -> Counts {
    let before = served(tb);
    call();
    let mut after = served(tb);
    after.retain(|op, n| {
        *n -= before.get(op).copied().unwrap_or(0);
        *n > 0
    });
    after
}

/// `[requests, reads, writes]` the I/O servers served while `call` ran,
/// summed over the servers.
fn iond_counts(tb: &Testbed, call: impl FnOnce()) -> [u64; 3] {
    let totals = |tb: &Testbed| {
        tb.server_stats().iter().fold([0u64; 3], |t, (_, s)| {
            [t[0] + s.requests, t[1] + s.reads, t[2] + s.writes]
        })
    };
    let before = totals(tb);
    call();
    let after = totals(tb);
    std::array::from_fn(|i| after[i] - before[i])
}

/// What the I/O servers served while `call` — one namespace op, traced as
/// `op` — ran: [`iond_counts`], and the kinds of the `handle` events
/// recorded under the op's trace id.
fn iond_spent(tb: &Testbed, op: &str, call: impl FnOnce()) -> ([u64; 3], Vec<&'static str>) {
    let cursor = ring().cursor();
    let sent = iond_counts(tb, call);
    let events = ring().events_since(cursor);
    // Only one test of this file unlinks a written file, so the op span is
    // ours.
    let trace = events
        .iter()
        .find(|e| e.side == Side::Client && e.phase == "op" && e.kind == op)
        .unwrap_or_else(|| panic!("no traced {op}"))
        .trace_id;
    assert_ne!(trace, 0);
    let kinds = events
        .iter()
        .filter(|e| e.trace_id == trace && e.side == Side::Server && e.phase == "handle")
        .map(|e| e.kind)
        .collect();
    (sent, kinds)
}

fn budget(ops: &[(&str, u64)]) -> Counts {
    ops.iter().map(|&(op, n)| (op.to_string(), n)).collect()
}

/// A 4-server, 2-shard remote testbed with one directory homed on each
/// shard and a striped file in the first.
fn rig() -> (Testbed, Dpfs, String, String) {
    let tb = Testbed::unthrottled_with_metad_shards(4, 2).unwrap();
    let fs = tb.remote_client(0, true);
    let map = ShardMap::new(2);
    let dir_on = |shard: u32| {
        (0..64)
            .map(|i| format!("/sd{i}"))
            .find(|d| map.shard_of_dir(d) == shard)
            .expect("64 names cover both shards")
    };
    let (d0, d1) = (dir_on(0), dir_on(1));
    fs.mkdir(&d0).unwrap();
    fs.mkdir(&d1).unwrap();
    let mut f = fs
        .create(&format!("{d0}/f"), &Hint::linear(4096, 16384))
        .unwrap();
    f.write_bytes(0, &[5u8; 16384]).unwrap();
    f.close().unwrap();
    (tb, fs, d0, d1)
}

#[test]
fn open_is_one_round_trip_and_never_probes() {
    let (tb, fs, d0, _) = rig();
    let path = format!("{d0}/f");
    let one = budget(&[("meta.open_file", 1)]);
    // Striped over all four servers: no per-server registry read, first
    // open and repeat open alike.
    for _ in 0..2 {
        assert_eq!(spent(&tb, || drop(fs.open(&path).unwrap())), one);
    }
    let missing = spent(&tb, || {
        let gone = fs.open(&format!("{d0}/nope"));
        assert!(matches!(gone, Err(DpfsError::NoSuchFile(_))));
    });
    assert_eq!(missing, one);
}

/// The write that grows a file persists its size; `close` has nothing left
/// to say, after a read and after a growing write alike.
#[test]
fn close_is_no_round_trip() {
    let (tb, fs, d0, _) = rig();
    let path = format!("{d0}/f");
    let f = fs.open(&path).unwrap();
    assert_eq!(spent(&tb, || f.close().unwrap()), Counts::new());
    let mut f = fs.open(&path).unwrap();
    f.write_bytes(16384, &[6u8; 4096]).unwrap();
    assert_eq!(spent(&tb, || f.close().unwrap()), Counts::new());
    assert_eq!(fs.stat(&path).unwrap().size, 20480);
}

#[test]
fn stat_and_exists_are_one_round_trip_each() {
    let (tb, fs, d0, _) = rig();
    let path = format!("{d0}/f");
    let one = budget(&[("meta.get_file_attr", 1)]);
    // Repeats cost what the first one cost: nothing is remembered.
    for _ in 0..2 {
        assert_eq!(spent(&tb, || drop(fs.stat(&path).unwrap())), one);
        assert_eq!(spent(&tb, || assert!(fs.exists(&path).unwrap())), one);
    }
    let absent = format!("{d0}/nope");
    assert_eq!(spent(&tb, || assert!(!fs.exists(&absent).unwrap())), one);
}

#[test]
fn create_unlink_and_rename_cost_what_was_measured() {
    let (tb, fs, d0, d1) = rig();
    let hint = Hint::linear(4096, 4096);

    let created = spent(&tb, || drop(fs.create(&format!("{d0}/n"), &hint).unwrap()));
    assert_eq!(
        created,
        budget(&[("meta.create_file", 1), ("meta.list_servers", 1)])
    );

    // A rename that cannot happen says why — which costs a second look only
    // where the catalog's one answer covers two cases.
    let refused = |from: &str, to: &str| {
        let mut err = None;
        let cost = spent(&tb, || err = fs.rename(from, to).err());
        (err.expect("refused"), cost)
    };
    let (err, cost) = refused(&format!("{d0}/nope"), &format!("{d0}/m"));
    assert!(matches!(err, DpfsError::NoSuchFile(_)), "{err}");
    assert_eq!(
        cost,
        budget(&[("meta.get_file_attr", 1), ("meta.rename_file", 1)])
    );
    // ... whatever the destination holds: the source is looked at first.
    let (err, _) = refused(&format!("{d0}/nope"), &format!("{d0}/f"));
    assert!(matches!(err, DpfsError::NoSuchFile(_)), "{err}");
    let (err, cost) = refused(&format!("{d0}/n"), &format!("{d0}/f"));
    assert!(matches!(err, DpfsError::FileExists(_)), "{err}");
    assert_eq!(cost, budget(&[("meta.rename_file", 1)]));
    // (`nodir` hashes to a shard of its own: either path may run.)
    let (err, _) = refused(&format!("{d0}/n"), &format!("{d0}/nodir/n"));
    assert!(matches!(err, DpfsError::NoSuchDirectory(_)), "{err}");
    let (err, _) = refused(&format!("{d0}/nope"), &format!("{d1}/m"));
    assert!(matches!(err, DpfsError::NoSuchFile(_)), "{err}");
    let (err, _) = refused(&format!("{d0}/n"), &format!("{d1}/nodir/n"));
    assert!(matches!(err, DpfsError::NoSuchDirectory(_)), "{err}");
    fs.create(&format!("{d1}/taken"), &hint).unwrap();
    let (err, _) = refused(&format!("{d0}/n"), &format!("{d1}/taken"));
    assert!(matches!(err, DpfsError::FileExists(_)), "{err}");

    let same_shard = spent(&tb, || {
        fs.rename(&format!("{d0}/n"), &format!("{d0}/m")).unwrap()
    });
    assert_eq!(same_shard, budget(&[("meta.rename_file", 1)]));

    let cross_shard = spent(&tb, || {
        fs.rename(&format!("{d0}/m"), &format!("{d1}/m")).unwrap()
    });
    assert_eq!(
        cross_shard,
        budget(&[
            ("meta.rename_commit", 1),
            ("meta.rename_finish", 1),
            ("meta.rename_prepare", 1),
        ])
    );

    let unlinked = spent(&tb, || fs.unlink(&format!("{d1}/m")).unwrap());
    assert_eq!(unlinked, budget(&[("meta.delete_file", 1)]));
    let gone = spent(&tb, || {
        let again = fs.unlink(&format!("{d1}/m"));
        assert!(matches!(again, Err(DpfsError::NoSuchFile(_))));
    });
    assert_eq!(gone, budget(&[("meta.delete_file", 1)]));

    // The I/O servers' side, on written files: `unlink` sends one request
    // per enumerated subfile, of the op's one kind, and no byte read or
    // written; `rename` sends nothing at all. The subfiles are named by the
    // file's id, which the row the metadata transaction moved keeps and the
    // row it removed carries, so the derived ones (`#r1`, `#p`) stay put
    // through every rename and leave with the unlink.
    let elsewhere = tb.on_disk();
    for (policy, subfiles) in [
        (RedundancyPolicy::None, 4),
        (RedundancyPolicy::Replica(2), 8),
        (RedundancyPolicy::XorParity, 3 + 1),
    ] {
        let hint = Hint::linear(4096, 49152).with_redundancy(policy);
        // Within a shard (one `RenameFile`), then across (the 2PC).
        let mut old = format!("{d0}/w");
        let mut f = fs.create(&old, &hint).unwrap();
        f.write_bytes(0, &[6u8; 49152]).unwrap();
        let id = f.id();
        f.close().unwrap();
        let mut held = elsewhere.clone();
        held.extend(policy.subfiles(id, &[true; 4]));
        assert_eq!(policy.subfiles(id, &[true; 4]).len(), subfiles);
        assert_eq!(tb.on_disk(), held, "{policy:?} create");

        for new in [format!("{d0}/v"), format!("{d1}/v")] {
            let sent = iond_counts(&tb, || fs.rename(&old, &new).unwrap());
            assert_eq!(sent, [0, 0, 0], "{policy:?} rename to {new}");
            assert_eq!(tb.on_disk(), held, "{policy:?} rename to {new}");
            let mut f = fs.open(&new).unwrap();
            assert_eq!(f.read_bytes(0, 49152).unwrap(), [6u8; 49152]);
            old = new;
        }

        let (sent, kinds) = iond_spent(&tb, "unlink", || fs.unlink(&old).unwrap());
        assert_eq!(sent, [subfiles as u64, 0, 0], "{policy:?} unlink");
        assert_eq!(kinds, vec!["delete"; subfiles], "{policy:?} unlink");
        assert_eq!(tb.on_disk(), elsewhere, "{policy:?} unlink");
    }
}

/// A file's subfiles are the servers its brick lists name: a one-brick file
/// on four servers has one subfile (and its mirror, or its parity), and
/// `sync` and `unlink` each send exactly that many requests, `rename` —
/// within a shard and across — none; the iond roots hold exactly that
/// enumeration under the file's id, whichever name the catalog holds. Every
/// server used to get a request per op, three of them for a subfile that
/// never existed.
#[test]
fn a_short_file_costs_its_subfiles_not_its_servers() {
    let (tb, fs, d0, d1) = rig();
    let elsewhere = tb.on_disk();
    let named = |path: &str| -> BTreeSet<(usize, String)> {
        let entry = fs.meta().open_file(path).unwrap().unwrap();
        let dist = &entry.dist;
        let holds = holders(dist.len(), dist.iter().map(|d| &d.bricklist));
        let policy = RedundancyPolicy::parse(&entry.attr.redundancy).unwrap();
        let mut all = elsewhere.clone();
        all.extend(policy.subfiles(entry.id, &holds));
        all
    };
    for (policy, subfiles) in [
        (RedundancyPolicy::None, 1),
        (RedundancyPolicy::Replica(2), 2),
        (RedundancyPolicy::XorParity, 1 + 1),
    ] {
        let hint = Hint::linear(4096, 4096).with_redundancy(policy);
        let mut old = format!("{d0}/one");
        let mut f = fs.create(&old, &hint).unwrap();
        // Under parity the write reads the touched range back from every
        // data server, not only the one its map names — another handle may
        // have grown the file since this one looked; an absent subfile
        // answers zeros and stays absent — and writes the parity sibling.
        let sent = iond_counts(&tb, || f.write_bytes(0, &[7u8; 4096]).unwrap());
        let expect = match policy {
            RedundancyPolicy::None => [1, 0, 1],
            RedundancyPolicy::Replica(_) => [2, 0, 2],
            RedundancyPolicy::XorParity => [5, 3, 2],
        };
        assert_eq!(sent, expect, "{policy:?} write");
        let sent = iond_counts(&tb, || f.sync().unwrap());
        assert_eq!(sent, [subfiles, 0, 0], "{policy:?} sync");
        f.close().unwrap();
        assert_eq!(tb.on_disk().len(), elsewhere.len() + subfiles as usize);
        assert_eq!(tb.on_disk(), named(&old), "{policy:?} create");

        for new in [format!("{d0}/uno"), format!("{d1}/uno")] {
            let sent = iond_counts(&tb, || fs.rename(&old, &new).unwrap());
            assert_eq!(sent, [0, 0, 0], "{policy:?} rename to {new}");
            assert_eq!(tb.on_disk(), named(&new), "{policy:?} rename to {new}");
            let mut f = fs.open(&new).unwrap();
            assert_eq!(f.read_bytes(0, 4096).unwrap(), [7u8; 4096]);
            old = new;
        }
        let sent = iond_counts(&tb, || fs.unlink(&old).unwrap());
        assert_eq!(sent, [subfiles, 0, 0], "{policy:?} unlink");
        assert_eq!(tb.on_disk(), elsewhere, "{policy:?} unlink");
    }
}

/// A growing write is two metadata round trips — the compare-and-set
/// extension, then the size — through the handle that wins a race and
/// through the one that loses it: the loser's one `ExtendDistribution`
/// answers with the winner's map (and size), so it re-plans without asking
/// again.
#[test]
fn a_growing_write_is_two_round_trips_for_winner_and_loser() {
    let (tb, fs, d0, _) = rig();
    let path = format!("{d0}/grow");
    drop(fs.create(&path, &Hint::linear(4096, 4096)).unwrap());
    let mut winner = fs.open(&path).unwrap();
    let mut loser = fs.open(&path).unwrap();
    let won = spent(&tb, || winner.write_bytes(0, &[1u8; 16384]).unwrap());
    assert_eq!(
        won,
        budget(&[("meta.extend_distribution", 1), ("meta.set_file_size", 1)])
    );
    // Two bricks wanted, from a one-brick map: refused, four adopted. The
    // reply's size already covers this write's end.
    let lost = spent(&tb, || loser.write_bytes(4096, &[2u8; 4096]).unwrap());
    assert_eq!(lost, budget(&[("meta.extend_distribution", 1)]));
    assert_eq!(loser.brick_map(), winner.brick_map());
    // Past what it adopted: an extension of its own again.
    let again = spent(&tb, || loser.write_bytes(16384, &[3u8; 4096]).unwrap());
    assert_eq!(
        again,
        budget(&[("meta.extend_distribution", 1), ("meta.set_file_size", 1)])
    );
    // Within the map, within the size: no metadata at all.
    let within = spent(&tb, || winner.write_bytes(0, &[4u8; 4096]).unwrap());
    assert_eq!(within, Counts::new());
    let mut f = fs.open(&path).unwrap();
    let mut expect = vec![1u8; 20480];
    expect[..4096].fill(4);
    expect[4096..8192].fill(2);
    expect[16384..].fill(3);
    assert_eq!(f.read_bytes(0, 20480).unwrap(), expect);
}
