//! Acceptance test for the networked metadata service: two independent DPFS
//! clients mount against one `dpfs-metad` daemon over TCP — neither holds
//! the metadata database; every catalog operation is an RPC (paper §5).
//!
//! Proven here:
//! - a striped file created by one client renames from the *other* client
//!   and reads back byte-exactly — metadata is genuinely shared over the
//!   wire, and no stale cached layout is ever used for I/O;
//! - one metadata RPC carries a single trace ID from the client's `rpc`
//!   span to the daemon's `handle` event;
//! - a client holds no metadata between calls: every `stat`/`exists`/`open`
//!   reflects what any other client committed before the call was issued.

use std::sync::atomic::Ordering;

use dpfs::cluster::{metad_name, FaultProxy, Testbed, METAD_NAME};
use dpfs::core::trace::{ring, Side};
use dpfs::core::{ClientOptions, Dpfs, DpfsError, Hint, Placement};
use dpfs::meta::catalog::RENAME_INTENT_TAG;
use dpfs::meta::{MetaError, ServerInfo, ShardMap};

#[test]
fn two_clients_share_one_metad_over_tcp() {
    let tb = Testbed::unthrottled_with_metad(3).unwrap();
    let a = tb.remote_client(0, true);
    let b = tb.remote_client(1, true);
    assert!(a.catalog().is_none(), "remote mounts hold no database");
    assert!(b.catalog().is_none());

    // Client A creates and writes a striped file: 6 bricks over 3 servers.
    let file_bytes = 6 * 1024usize;
    let data: Vec<u8> = (0..file_bytes).map(|i| (i % 251) as u8).collect();
    let mut f = a
        .create("/shared.dat", &Hint::linear(1024, file_bytes as u64))
        .unwrap();
    f.write_bytes(0, &data).unwrap();
    f.close().unwrap();

    // One metadata RPC, one trace ID, both sides of the wire.
    let cursor = ring().cursor();
    assert_eq!(a.stat("/shared.dat").unwrap().size, file_bytes as i64);
    let trace = a.remote_meta().unwrap().last_trace_id();
    assert_ne!(trace, 0, "metadata RPCs must be trace-stamped");
    let events: Vec<_> = ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.trace_id == trace)
        .collect();
    assert!(
        events
            .iter()
            .any(|e| e.side == Side::Client && e.phase == "rpc" && e.kind.starts_with("meta.")),
        "client rpc span missing: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.side == Side::Server && e.phase == "handle" && e.server == METAD_NAME),
        "metad handle event missing: {events:?}"
    );

    // A opens the file, then B renames it. A must observe the rename: the
    // old name is gone and the new name reads back byte-exactly.
    a.open("/shared.dat").unwrap();
    b.rename("/shared.dat", "/renamed.dat").unwrap();
    match a.open("/shared.dat") {
        Err(DpfsError::NoSuchFile(_)) => {}
        Err(other) => panic!("stale open must fail with NoSuchFile, got {other}"),
        Ok(_) => panic!("stale open must fail with NoSuchFile, got a handle"),
    }
    let back = a
        .open("/renamed.dat")
        .unwrap()
        .read_bytes(0, file_bytes as u64)
        .unwrap();
    assert_eq!(back, data, "bytes survive a cross-client rename");

    // The daemon really served all of this.
    let stats = tb.metad_stats().unwrap();
    assert!(stats.meta_ops > 0);
    assert!(
        stats
            .op_latency
            .iter()
            .any(|(op, h)| op.starts_with("meta.") && h.count > 0),
        "per-op histograms populated: {:?}",
        stats
            .op_latency
            .iter()
            .map(|(o, h)| (o.clone(), h.count))
            .collect::<Vec<_>>()
    );
}

/// A metadata mutation whose response is lost may already have committed
/// on the daemon; replaying it would turn that success into a spurious
/// `DuplicateKey`. The client must surface the outcome-unknown transport
/// error without retrying — while reads keep riding the full retry matrix
/// through the very same fault.
#[test]
fn ambiguous_mutation_failures_are_not_replayed() {
    let tb = Testbed::unthrottled_with_metad(2).unwrap();
    let proxy = FaultProxy::start(tb.metad_addr().unwrap()).unwrap();
    let mut resolver = tb.resolver();
    resolver.alias(METAD_NAME, &proxy.addr().to_string());
    let client = Dpfs::mount_remote(METAD_NAME, resolver, ClientOptions::default()).unwrap();

    // Warm the connection so the torn frame hits the mkdir *response*,
    // after the daemon has executed the request.
    assert!(!client.exists("/nope").unwrap());
    let retries_before = client.pool().transport_stats(METAD_NAME).unwrap().retries;

    proxy.knobs().truncate_next.store(true, Ordering::Relaxed);
    let err = client.mkdir("/ambiguous").unwrap_err();
    assert!(
        matches!(err, DpfsError::Meta(MetaError::Remote(_))),
        "lost mutation reply must surface as a transport error, got {err}"
    );
    let retries_after = client.pool().transport_stats(METAD_NAME).unwrap().retries;
    assert_eq!(
        retries_after, retries_before,
        "a mutation with an unknown outcome must not be reissued"
    );
    // The daemon committed the mkdir exactly once before the tear.
    assert!(client.dir_exists("/ambiguous").unwrap());

    // Reads through the same fault recover transparently via retry.
    proxy.knobs().truncate_next.store(true, Ordering::Relaxed);
    assert!(client.dir_exists("/ambiguous").unwrap());
    let retried = client.pool().transport_stats(METAD_NAME).unwrap().retries;
    assert!(retried > retries_before, "the read must have retried");
}

/// The coherence rule, under default options: a client holds no metadata
/// between calls, so the call *immediately following* another client's
/// committed mutation sees it — no staleness window on `stat`, no cached
/// absence or presence on `exists`.
#[test]
fn a_stat_or_exists_reflects_the_other_clients_last_commit() {
    let tb = Testbed::unthrottled_with_metad(2).unwrap();
    let a = tb.remote_client(0, true);
    let b = tb.remote_client(1, true);
    mk_file(&b, "/grow.dat");
    assert_eq!(a.stat("/grow.dat").unwrap().size, 256);

    // B extends the file and closes it; A's very next stat has the size.
    let mut f = b.open("/grow.dat").unwrap();
    f.write_bytes(256, &[7u8; 512]).unwrap();
    f.close().unwrap();
    assert_eq!(
        a.stat("/grow.dat").unwrap().size,
        768,
        "a stat right after another client's close served the old size"
    );

    // B unlinks it; A's very next exists says so.
    assert!(a.exists("/grow.dat").unwrap());
    b.unlink("/grow.dat").unwrap();
    assert!(
        !a.exists("/grow.dat").unwrap(),
        "exists right after another client's unlink still said yes"
    );
    // ... and a re-create is seen as promptly as the unlink was.
    mk_file(&b, "/grow.dat");
    assert!(a.exists("/grow.dat").unwrap());
}

/// A greedy file grown through a handle that `open` produced on a remote
/// mount places its new bricks exactly as the creating handle would: the
/// handle carries no performance numbers, it reads the registry when it
/// grows.
#[test]
fn greedy_growth_through_a_remotely_opened_handle_keeps_the_ratio() {
    let tb = Testbed::unthrottled_with_metad(2).unwrap();
    let a = tb.remote_client(0, true);
    let b = tb.remote_client(1, true);
    // A heterogeneous (1 : 3) pair.
    for (i, performance) in [(0usize, 1i64), (1, 3)] {
        a.register_server(&ServerInfo {
            name: tb.specs()[i].name.clone(),
            capacity: i64::MAX,
            performance,
        })
        .unwrap();
    }
    let hint = Hint::linear(10, 400).with_placement(Placement::Greedy);
    let f = a.create("/gg", &hint).unwrap();
    assert_eq!(f.brick_map().loads(), vec![30, 10]);
    f.close().unwrap();

    let mut g = b.open("/gg").unwrap();
    assert_eq!(g.brick_map().loads(), vec![30, 10]);
    let data: Vec<u8> = (0..800u32).map(|i| (i % 241) as u8).collect();
    g.write_bytes(0, &data).unwrap();
    assert_eq!(g.brick_map().loads(), vec![60, 20]);
    g.close().unwrap();
    assert_eq!(a.open("/gg").unwrap().read_bytes(0, 800).unwrap(), data);
}

/// Two directories that a 2-wide [`ShardMap`] routes to shard 0 and
/// shard 1 respectively (the hash is stable, so a small scan finds both).
fn dirs_on_distinct_shards() -> (String, String) {
    let map = ShardMap::new(2);
    let dir_on = |shard: u32| {
        (0..64)
            .map(|i| format!("/sd{i}"))
            .find(|d| map.shard_of_dir(d) == shard)
            .expect("64 names cover both shards")
    };
    (dir_on(0), dir_on(1))
}

fn mk_file(c: &Dpfs, name: &str) {
    let mut f = c.create(name, &Hint::linear(256, 256)).unwrap();
    f.write_bytes(0, &[8u8; 256]).unwrap();
    f.close().unwrap();
}

/// Two clients mount a 2-shard metadata plane and see each other's
/// creates, renames and unlinks on both shards at their next call; each
/// daemon serves the files of its own directories and nothing of the
/// other's, counted in the daemons' own `meta_ops`.
#[test]
fn two_clients_through_two_shards_see_each_other_and_each_shard_serves_only_its_own_files() {
    let tb = Testbed::unthrottled_with_metad_shards(3, 2).unwrap();
    let a = tb.remote_client(0, true);
    let b = tb.remote_client(1, true);
    let (d0, d1) = dirs_on_distinct_shards();
    a.mkdir(&d0).unwrap();
    a.mkdir(&d1).unwrap();

    // Mutations cross clients through both shards.
    let fa = format!("{d0}/a.dat");
    let fb = format!("{d1}/b.dat");
    mk_file(&a, &fa);
    mk_file(&b, &fb);
    assert_eq!(b.stat(&fa).unwrap().size, 256, "b sees a's file (shard 0)");
    assert_eq!(a.stat(&fb).unwrap().size, 256, "a sees b's file (shard 1)");
    assert_eq!(
        a.open(&fb).unwrap().read_bytes(0, 256).unwrap(),
        vec![8u8; 256]
    );

    // Metadata ops each daemon has served. `create` stays outside the
    // counted windows: its placement read of the replicated server
    // registry goes to whichever shard is next in the rotation.
    let ops = || {
        let stats = tb.metad_stats_all();
        (stats[0].meta_ops, stats[1].meta_ops)
    };
    // B grows a file (open, write past the end, close) and A reads it back.
    let grow = |f: &str| {
        let mut h = b.open(f).unwrap();
        h.write_bytes(256, &[9u8; 256]).unwrap();
        h.close().unwrap();
        assert_eq!(a.stat(f).unwrap().size, 512, "b's write is visible to a");
    };

    // In shard 1's directory: only shard 1 is asked.
    let fb2 = format!("{d1}/b2.dat");
    mk_file(&b, &fb2);
    assert!(
        a.exists(&fb2).unwrap(),
        "b's shard-1 create is visible to a"
    );
    let (g0, g1) = ops();
    grow(&fb2);
    let (h0, h1) = ops();
    assert_eq!(h0, g0, "a file op in shard 1's directory reached shard 0");
    assert!(h1 > g1, "shard 1 did not serve its own file");

    // In shard 0's directory: the other way round.
    let fa2 = format!("{d0}/a2.dat");
    mk_file(&b, &fa2);
    assert!(
        a.exists(&fa2).unwrap(),
        "b's shard-0 create is visible to a"
    );
    let (h0, h1) = ops();
    grow(&fa2);
    let (i0, i1) = ops();
    assert!(i0 > h0, "shard 0 did not serve its own file");
    assert_eq!(i1, h1, "a file op in shard 0's directory reached shard 1");

    // B renames across shards and unlinks: A's next calls agree.
    let moved = format!("{d1}/a2-moved.dat");
    b.rename(&fa2, &moved).unwrap();
    assert!(!a.exists(&fa2).unwrap(), "renamed-away name still visible");
    assert_eq!(a.stat(&moved).unwrap().size, 512);
    b.unlink(&fb2).unwrap();
    assert!(!a.exists(&fb2).unwrap(), "unlinked name still visible");
    assert!(matches!(a.open(&fb2), Err(DpfsError::NoSuchFile(_))));

    // Both daemons genuinely served metadata, stamped with their ids.
    let stats = tb.metad_stats_all();
    assert_eq!((stats[0].shard_id, stats[0].shards), (0, 2));
    assert_eq!((stats[1].shard_id, stats[1].shards), (1, 2));
    assert!(stats.iter().all(|s| s.meta_ops > 0), "{stats:?}");
}

/// `rename` answers in the client's own error vocabulary, like `create`
/// and `unlink` do, and the same way on every kind of mount: embedded,
/// remote within one shard, and remote across two.
#[test]
fn rename_errors_are_typed_and_agree_across_mounts() {
    let tb = Testbed::unthrottled_with_metad_shards(2, 2).unwrap();
    let (d0, d1) = dirs_on_distinct_shards();
    let remote = tb.remote_client(0, true);
    remote.mkdir(&d0).unwrap();
    remote.mkdir(&d1).unwrap();
    // The embedded mount reads shard 0's database: give it the same shape
    // inside one directory of that shard.
    let embedded = tb.client(0, true);
    let cases = [
        ("embedded", &embedded, d0.clone(), d0.clone()),
        ("same shard", &remote, d1.clone(), d1.clone()),
        ("cross shard", &remote, d0.clone(), d1.clone()),
    ];
    for (mount, fs, src_dir, dst_dir) in cases {
        let (src, dst) = (
            format!("{src_dir}/src-{mount}"),
            format!("{dst_dir}/dst-{mount}"),
        );
        match fs.rename(&src, &dst) {
            Err(DpfsError::NoSuchFile(p)) => assert_eq!(p, src, "{mount}"),
            other => panic!("{mount}: missing source gave {other:?}"),
        }
        mk_file(fs, &src);
        mk_file(fs, &dst);
        match fs.rename(&src, &dst) {
            Err(DpfsError::FileExists(p)) => assert_eq!(p, dst, "{mount}"),
            other => panic!("{mount}: existing destination gave {other:?}"),
        }
        let nowhere = format!("/no-such-dir-{}/x", src.len());
        let got = fs.rename(&src, &nowhere);
        assert!(
            matches!(got, Err(DpfsError::NoSuchDirectory(_))),
            "{mount}: missing destination directory gave {got:?}"
        );
        // None of the refusals moved anything.
        assert_eq!(
            fs.open(&src).unwrap().read_bytes(0, 256).unwrap(),
            [8u8; 256]
        );
        assert_eq!(
            fs.open(&dst).unwrap().read_bytes(0, 256).unwrap(),
            [8u8; 256]
        );
    }
}

/// A sharded mount whose destination-shard daemon tears the connection on
/// the `RenameCommit` *reply* (the commit itself lands): the client must
/// resolve the ambiguity via the destination's intent marker and roll the
/// rename forward — the entry ends fully at the destination, never lost,
/// never duplicated.
#[test]
fn torn_commit_reply_rolls_a_cross_shard_rename_forward() {
    let tb = Testbed::unthrottled_with_metad_shards(2, 2).unwrap();
    let (d0, d1) = dirs_on_distinct_shards();
    // Fault-inject the destination shard (shard 1 — d1's home).
    let proxy = FaultProxy::start(tb.metad_addrs()[1]).unwrap();
    let mut resolver = tb.resolver();
    resolver.alias(&metad_name(1), &proxy.addr().to_string());
    let client = Dpfs::mount_sharded(
        vec![metad_name(0), metad_name(1)],
        resolver,
        ClientOptions::default(),
    )
    .unwrap();
    // mkdir broadcasts warm the proxied connection, so the one-shot tear
    // below hits the commit reply and not an earlier frame.
    client.mkdir(&d0).unwrap();
    client.mkdir(&d1).unwrap();
    let from = format!("{d0}/victim.dat");
    let to = format!("{d1}/landed.dat");
    mk_file(&client, &from);

    let meta = client.meta();
    proxy.knobs().truncate_next.store(true, Ordering::Relaxed);
    meta.rename_file(&from, &to)
        .expect("marker-based resolution must roll the committed rename forward");

    assert!(
        meta.get_file_attr(&from).unwrap().is_none(),
        "not at source"
    );
    assert!(
        meta.get_file_attr(&to).unwrap().is_some(),
        "fully at destination"
    );
    assert!(
        meta.get_tag(&to, RENAME_INTENT_TAG).unwrap().is_none(),
        "commit marker stripped after finish"
    );
    assert!(
        !meta.open_file(&to).unwrap().unwrap().1.is_empty(),
        "layout travelled with the rename"
    );
    let remote = client.remote_meta().unwrap();
    assert_eq!(
        remote.recover_rename_intents().unwrap(),
        0,
        "no intent left behind"
    );
    assert!(proxy.frames() > 0, "the fault path was actually exercised");
}

/// The destination shard dies (connections refused) between prepare and
/// commit: the rename fails, the entry stays fully at the source, and the
/// recorded intent is resolvable once the client can reach the plane
/// again — never lost, never duplicated.
#[test]
fn dead_destination_shard_leaves_a_recoverable_intent() {
    let tb = Testbed::unthrottled_with_metad_shards(2, 2).unwrap();
    let (d0, d1) = dirs_on_distinct_shards();
    let proxy = FaultProxy::start(tb.metad_addrs()[1]).unwrap();
    let mut resolver = tb.resolver();
    resolver.alias(&metad_name(1), &proxy.addr().to_string());
    let client = Dpfs::mount_sharded(
        vec![metad_name(0), metad_name(1)],
        resolver,
        ClientOptions::default(),
    )
    .unwrap();
    client.mkdir(&d0).unwrap();
    client.mkdir(&d1).unwrap();
    let from = format!("{d0}/stuck.dat");
    let to = format!("{d1}/never.dat");
    mk_file(&client, &from);

    // Kill the destination shard mid-rename: refuse new connections and
    // sever the live ones, so the commit (and the resolving read) fail.
    proxy.knobs().refuse.store(true, Ordering::Relaxed);
    proxy.sever_all();
    let meta = client.meta();
    let err = meta.rename_file(&from, &to).unwrap_err();
    assert!(
        matches!(err, MetaError::Remote(_)),
        "unreachable destination surfaces as a transport error, got {err}"
    );

    // Never lost: the entry is still fully at the source (shard 0 is
    // healthy), and nothing landed at the destination.
    assert!(meta.get_file_attr(&from).unwrap().is_some());

    // The shard comes back; recovery aborts the uncommitted intent.
    proxy.knobs().refuse.store(false, Ordering::Relaxed);
    let remote = client.remote_meta().unwrap();
    assert_eq!(remote.recover_rename_intents().unwrap(), 1);
    assert!(meta.get_file_attr(&from).unwrap().is_some(), "still at src");
    assert!(
        meta.get_file_attr(&to).unwrap().is_none(),
        "never duplicated at the destination"
    );
    assert_eq!(
        remote.recover_rename_intents().unwrap(),
        0,
        "recovery is idempotent"
    );
}

#[test]
fn concurrent_cross_client_mutations_serialize() {
    // Two remote clients race create/rename/delete on disjoint and shared
    // names; the daemon serializes them and the namespace stays exact.
    let tb = Testbed::unthrottled_with_metad(2).unwrap();
    let a = tb.remote_client(0, false);
    let b = tb.remote_client(1, false);
    a.mkdir("/race").unwrap();

    let mk = |c: &dpfs::core::Dpfs, name: String| {
        let mut f = c.create(&name, &Hint::linear(256, 256)).unwrap();
        f.write_bytes(0, &[7u8; 256]).unwrap();
        f.close().unwrap();
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..8 {
                mk(&a, format!("/race/a{i}"));
            }
        });
        s.spawn(|| {
            for i in 0..8 {
                mk(&b, format!("/race/b{i}"));
                if i % 2 == 0 {
                    b.rename(&format!("/race/b{i}"), &format!("/race/b{i}r"))
                        .unwrap();
                }
            }
        });
    });
    let (_, files) = a.readdir("/race").unwrap();
    assert_eq!(files.len(), 16, "no lost directory entries: {files:?}");
    for f in &files {
        assert!(a.exists(&format!("/race/{f}")).unwrap());
    }
}
