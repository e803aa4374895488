//! Round-trip budget of the namespace operations, counted at the daemons.
//!
//! An op on a remote mount is made of metadata round trips, and each one
//! costs more than everything the daemon does inside it. The budgets here
//! are the daemons' own per-op counters (`MetadStatsSnapshot::op_latency`
//! counts, summed over both shards of a 2-shard plane) around exactly one
//! client call: they repeat exactly, so this is a regression test, not a
//! timing. A compound `Open`/`Unlink`/`Rename` (ROADMAP item 1(a)) has
//! these numbers to beat.

use std::collections::BTreeMap;

use dpfs::cluster::Testbed;
use dpfs::core::{Dpfs, Hint};
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
fn open_is_two_round_trips_and_never_probes() {
    let (tb, fs, d0, _) = rig();
    let path = format!("{d0}/f");
    // Striped over all four servers: no per-server registry read, no
    // generation probe, first open and repeat open alike.
    for _ in 0..2 {
        let got = spent(&tb, || drop(fs.open(&path).unwrap()));
        assert_eq!(
            got,
            budget(&[("meta.get_distribution", 1), ("meta.get_file_attr", 1)])
        );
    }
    let missing = spent(&tb, || assert!(fs.open(&format!("{d0}/nope")).is_err()));
    assert_eq!(missing, budget(&[("meta.get_file_attr", 1)]));
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

    let same_shard = spent(&tb, || {
        fs.rename(&format!("{d0}/n"), &format!("{d0}/m")).unwrap()
    });
    assert_eq!(
        same_shard,
        budget(&[
            ("meta.get_distribution", 1),
            ("meta.get_file_attr", 1),
            ("meta.rename_file", 1),
        ])
    );

    let cross_shard = spent(&tb, || {
        fs.rename(&format!("{d0}/m"), &format!("{d1}/m")).unwrap()
    });
    assert_eq!(
        cross_shard,
        budget(&[
            ("meta.get_distribution", 1),
            ("meta.get_file_attr", 1),
            ("meta.remove_tag", 1),
            ("meta.rename_commit", 1),
            ("meta.rename_finish", 1),
            ("meta.rename_prepare", 1),
        ])
    );

    let unlinked = spent(&tb, || fs.unlink(&format!("{d1}/m")).unwrap());
    assert_eq!(
        unlinked,
        budget(&[("meta.delete_file", 1), ("meta.get_file_attr", 1)])
    );
}
