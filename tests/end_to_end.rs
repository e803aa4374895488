//! End-to-end integration: parallel clients, real TCP servers, all three
//! file levels, metadata persistence.

use dpfs::cluster::{run_clients, Testbed};
use dpfs::core::{
    ClientOptions, Datatype, Dpfs, Granularity, Hint, HpfPattern, Placement, RedundancyPolicy,
    Region, Resolver, Shape,
};
use dpfs::metad::{MetaServer, MetadConfig};

fn pattern_bytes(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(seed * 97) % 251) as u8)
        .collect()
}

#[test]
fn linear_file_full_cycle() {
    let tb = Testbed::unthrottled(4).unwrap();
    let client = tb.client(0, true);
    let data = pattern_bytes(300_000, 1);
    let mut f = client.create("/lin", &Hint::linear(4096, 0)).unwrap();
    f.write_bytes(0, &data).unwrap();
    assert_eq!(f.size(), 300_000);
    // unaligned interior read
    assert_eq!(
        f.read_bytes(12345, 54321).unwrap(),
        &data[12345..12345 + 54321]
    );
    // overwrite a slice in the middle
    f.write_bytes(100_000, &[0xEE; 500]).unwrap();
    let got = f.read_bytes(99_999, 502).unwrap();
    assert_eq!(got[0], data[99_999]);
    assert!(got[1..501].iter().all(|&b| b == 0xEE));
    assert_eq!(got[501], data[100_500]);
    f.close().unwrap();
}

#[test]
fn multidim_region_cycle_across_levels_of_combination() {
    let tb = Testbed::unthrottled(4).unwrap();
    let shape = Shape::new(vec![128, 128]).unwrap();
    let data = pattern_bytes(128 * 128, 2);
    for combine in [false, true] {
        let client = tb.client(0, combine);
        let path = format!("/md-{combine}");
        let mut f = client
            .create(
                &path,
                &Hint::multidim(shape.clone(), Shape::new(vec![16, 16]).unwrap(), 1),
            )
            .unwrap();
        f.write_region(&shape.full_region(), &data).unwrap();
        // arbitrary interior region
        let r = Region::new(vec![13, 57], vec![99, 40]).unwrap();
        let got = f.read_region(&r).unwrap();
        for (idx, &b) in got.iter().enumerate() {
            let row = 13 + (idx as u64) / 40;
            let col = 57 + (idx as u64) % 40;
            assert_eq!(b, data[(row * 128 + col) as usize], "({row},{col})");
        }
    }
}

#[test]
fn array_level_chunks_round_trip() {
    let tb = Testbed::unthrottled(4).unwrap();
    let client = tb.client(0, true);
    let shape = Shape::new(vec![100, 64]).unwrap(); // uneven chunking: 100/4=25... use BLOCK(3): 34,34,32
    let hint = Hint::array(shape, HpfPattern::block_star(3, 2), 4);
    let mut f = client.create("/arr", &hint).unwrap();
    for rank in 0..3u64 {
        let chunk = f.chunk_region(rank).unwrap();
        let data = pattern_bytes((chunk.volume() * 4) as usize, rank);
        f.write_chunk(rank, &data).unwrap();
    }
    for rank in 0..3u64 {
        let chunk = f.chunk_region(rank).unwrap();
        let expect = pattern_bytes((chunk.volume() * 4) as usize, rank);
        assert_eq!(f.read_chunk(rank).unwrap(), expect, "chunk {rank}");
    }
    // cross-chunk region read
    let r = Region::new(vec![30, 0], vec![10, 64]).unwrap(); // spans chunks 0 and 1
    let got = f.read_region(&r).unwrap();
    assert_eq!(got.len(), 10 * 64 * 4);
}

#[test]
fn datatype_vector_io() {
    let tb = Testbed::unthrottled(2).unwrap();
    let client = tb.client(0, true);
    let mut f = client.create("/dt", &Hint::linear(256, 64 * 1024)).unwrap();
    // every other 128-byte block of a 64 KiB file
    let dt = Datatype::vector(256, 128, 256);
    let data = pattern_bytes(dt.size() as usize, 7);
    f.write_datatype(0, &dt, &data).unwrap();
    let back = f.read_datatype(0, &dt).unwrap();
    assert_eq!(back, data);
    // the gaps are still zero
    let gap = f.read_bytes(128, 128).unwrap();
    assert!(gap.iter().all(|&b| b == 0));
}

#[test]
fn sixteen_clients_disjoint_then_shared_read() {
    let tb = Testbed::unthrottled(8).unwrap();
    let shape = Shape::new(vec![256, 256]).unwrap();
    tb.client(0, true)
        .create(
            "/par",
            &Hint::multidim(shape.clone(), Shape::new(vec![32, 32]).unwrap(), 1),
        )
        .unwrap();
    let nclients = 16;
    let rows = 256 / nclients as u64;
    run_clients(&tb, nclients, true, Granularity::Brick, |rank, c| {
        let mut f = c.open("/par").unwrap();
        let region = Region::new(vec![rank as u64 * rows, 0], vec![rows, 256]).unwrap();
        f.write_region(&region, &pattern_bytes((rows * 256) as usize, rank as u64))
            .unwrap();
        rows * 256
    });
    // every client reads the whole array and checks every band
    run_clients(&tb, nclients, true, Granularity::Brick, |_, c| {
        let mut f = c.open("/par").unwrap();
        let all = f.read_region(&shape.full_region()).unwrap();
        for rank in 0..nclients {
            let band = &all[(rank * (rows * 256) as usize)..][..(rows * 256) as usize];
            assert_eq!(band, pattern_bytes((rows * 256) as usize, rank as u64));
        }
        all.len() as u64
    });
}

/// A checkpoint dump and restore by eight writers at once through one
/// shared mount behind two metadata shards: each creates its own file,
/// writes it, syncs it, reopens it and reads it back byte-exact while the
/// others do the same.
#[test]
fn eight_concurrent_checkpoint_writers_restore_byte_exact() {
    const WRITERS: usize = 8;
    const LEN: usize = 256 << 10;
    let tb = Testbed::unthrottled_sharded(4, 2).unwrap();
    let fs = tb.client_opts(ClientOptions::default());
    fs.mkdir("/ckpt").unwrap();
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|rank| {
                let fs = &fs;
                s.spawn(move || {
                    let path = format!("/ckpt/rank{rank}");
                    let data = pattern_bytes(LEN, rank as u64);
                    let mut f = fs.create(&path, &Hint::linear(64 << 10, 64 << 10)).unwrap();
                    f.write_bytes(0, &data).unwrap();
                    f.sync().unwrap();
                    drop(f);
                    let back = fs.open(&path).unwrap().read_bytes(0, LEN as u64).unwrap();
                    assert!(back == data, "rank {rank}: restore differs from the dump");
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
    });
}

/// A handle holds no file data between calls: every read is answered by
/// the servers, so it reflects every write acknowledged before it was
/// issued, through any handle. Handle A reads a brick, handle B — opened
/// through another mount — overwrites it and returns, and A's next read of
/// the same bytes is B's data; linear and multidim, unprotected and
/// mirrored.
#[test]
fn a_read_sees_a_write_acknowledged_through_another_handle() {
    let tb = Testbed::unthrottled(4).unwrap();
    let (mount_a, mount_b) = (tb.client(0, true), tb.client(1, true));
    let shape = Shape::new(vec![32, 32]).unwrap();
    let tile = Region::new(vec![8, 8], vec![8, 8]).unwrap();
    for (tag, policy) in [
        ("plain", RedundancyPolicy::None),
        ("mirrored", RedundancyPolicy::Replica(2)),
    ] {
        let (old, new) = (pattern_bytes(64, 3), pattern_bytes(64, 4));

        let path = format!("/coherent-lin-{tag}");
        let mut a = mount_a
            .create(&path, &Hint::linear(64, 256).with_redundancy(policy))
            .unwrap();
        a.write_bytes(64, &old).unwrap();
        assert_eq!(a.read_bytes(64, 64).unwrap(), old);
        let mut b = mount_b.open(&path).unwrap();
        b.write_bytes(64, &new).unwrap();
        assert_eq!(a.read_bytes(64, 64).unwrap(), new, "linear, {tag}");

        let path = format!("/coherent-md-{tag}");
        let hint = Hint::multidim(shape.clone(), Shape::new(vec![8, 8]).unwrap(), 1);
        let mut a = mount_a
            .create(&path, &hint.with_redundancy(policy))
            .unwrap();
        a.write_region(&tile, &old).unwrap();
        assert_eq!(a.read_region(&tile).unwrap(), old);
        let mut b = mount_b.open(&path).unwrap();
        b.write_region(&tile, &new).unwrap();
        assert_eq!(a.read_region(&tile).unwrap(), new, "multidim, {tag}");
    }
}

/// Regression: `close` rewrote the size its handle read at `open`, so a
/// reader opened before another handle's growth shrank the file back on its
/// way out. The write that grows a file persists its size; `close` sends
/// nothing.
#[test]
fn closing_a_handle_opened_before_a_growth_does_not_shrink_the_file() {
    const GROWN: usize = 1 << 20;
    let tb = Testbed::unthrottled(2).unwrap();
    let client = tb.client(0, true);
    drop(client.create("/grown", &Hint::linear(64 << 10, 0)).unwrap());
    let a = client.open("/grown").unwrap();
    let mut b = client.open("/grown").unwrap();
    let data = pattern_bytes(GROWN, 9);
    b.write_bytes(0, &data).unwrap();
    assert_eq!(client.stat("/grown").unwrap().size, GROWN as i64);
    a.close().unwrap();
    assert_eq!(client.stat("/grown").unwrap().size, GROWN as i64);
    b.close().unwrap();
    let mut c = client.open("/grown").unwrap();
    assert_eq!(c.size(), GROWN as u64);
    assert!(c.read_bytes(0, GROWN as u64).unwrap() == data);
}

/// Regression (ROADMAP item 1(i-b)): a growing write sent `set_file_size(end)`
/// whenever `end` passed the size *its handle* read at `open`, and the
/// catalog stored it blindly — a short write through a handle opened before
/// another handle's growth shrank the file to 100 bytes. The catalog's update
/// is grow-only, so the size ends at the longer write's end whichever arrives
/// last. (One brick, so both handles grow the file to the same map: two
/// handles extending a file by different brick counts is item 1(i-a).)
#[test]
fn a_short_write_through_a_stale_handle_does_not_shrink_the_file() {
    const LONG: usize = 8192;
    let tb = Testbed::unthrottled(2).unwrap();
    let client = tb.client(0, true);
    drop(client.create("/f", &Hint::linear(64 << 10, 0)).unwrap());
    let mut a = client.open("/f").unwrap();
    let mut b = client.open("/f").unwrap();
    assert_eq!((a.size(), b.size()), (0, 0));
    let long = pattern_bytes(LONG, 21);
    a.write_bytes(0, &long).unwrap();
    b.write_bytes(0, &long[..100]).unwrap();
    assert_eq!(client.stat("/f").unwrap().size, LONG as i64);
    let mut c = client.open("/f").unwrap();
    assert_eq!(c.size(), LONG as u64);
    assert!(c.read_bytes(0, LONG as u64).unwrap() == long);
}

#[test]
fn metadata_survives_database_reopen() {
    // durable catalog + fresh servers: file metadata (attr, distribution,
    // directory link) must survive a full metadata-database restart.
    let dir = std::env::temp_dir().join(format!("dpfs-it-meta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let tb = Testbed::unthrottled(4).unwrap();
    // A durable catalog of its own behind a daemon of its own, its servers
    // registered by hand; the client reaches this testbed's I/O servers.
    let mount = || {
        let metad = MetaServer::start(MetadConfig::in_memory().dir(&dir)).unwrap();
        let metad_addr = metad.addr().to_string();
        let client = Dpfs::mount_remote(&metad_addr, tb.resolver(), ClientOptions::default());
        (metad, client.unwrap())
    };
    {
        let (_metad, client) = mount();
        for (i, spec) in tb.specs().iter().enumerate() {
            client
                .register_server(&dpfs::meta::ServerInfo {
                    name: spec.name.clone(),
                    capacity: i64::MAX,
                    performance: 1 + i as i64 % 2,
                })
                .unwrap();
        }
        client.mkdir("/persist").unwrap();
        let mut f = client
            .create("/persist/f", &Hint::linear(1024, 100_000))
            .unwrap();
        f.write_bytes(0, &pattern_bytes(100_000, 3)).unwrap();
        f.close().unwrap();
    }
    // reopen: WAL replay must reconstruct everything
    {
        let (_metad, client) = mount();
        let attr = client.stat("/persist/f").unwrap();
        assert_eq!(attr.size, 100_000);
        let (dirs, files) = client.readdir("/persist").unwrap();
        assert!(dirs.is_empty());
        assert_eq!(files, vec!["f"]);
        let mut f = client.open("/persist/f").unwrap();
        assert_eq!(f.read_bytes(0, 100_000).unwrap(), pattern_bytes(100_000, 3));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn greedy_file_distribution_matches_catalog() {
    let tb = Testbed::mixed(
        4,
        &[
            dpfs::server::StorageClass::Class1,
            dpfs::server::StorageClass::Class3,
        ],
    )
    .unwrap();
    let client = tb.client(0, true);
    let hint = Hint::linear(1024, 32 * 1024).with_placement(Placement::Greedy);
    let f = client.create("/g", &hint).unwrap();
    // fast servers (perf 1) must hold ~3x the bricks of slow ones (perf 3)
    let loads = f.brick_map().loads();
    assert!(loads[0] > 2 * loads[1], "loads {loads:?}");
    assert!(loads[2] > 2 * loads[3], "loads {loads:?}");
    // catalog rows agree with the in-memory map
    let dist = client.meta().open_file("/g").unwrap().unwrap().dist;
    for (d, load) in dist.iter().zip(&loads) {
        assert_eq!(d.bricklist.len(), *load);
    }
}

#[test]
fn default_mounts_draw_distinct_retry_jitter_streams() {
    // Two clients mounted with stock options must not share a retry
    // jitter seed — a fleet of default-configured mounts retrying a
    // flapping server in lockstep is exactly the thundering herd jitter
    // exists to break up. Explicit seeds (tests, replayable runs) are
    // honoured verbatim.
    // A one-shard mount dials nothing until its first call.
    let mount = |opts| Dpfs::mount_remote("metad0", Resolver::direct(), opts).unwrap();
    let a = mount(ClientOptions::default());
    let b = mount(ClientOptions::default());
    let (pa, pb) = (a.pool().retry_policy(), b.pool().retry_policy());
    assert!(pa.seed.is_some() && pb.seed.is_some(), "mounts must seed");
    assert_ne!(pa.seed, pb.seed, "default mounts shared a jitter seed");
    assert!(
        (1..16).any(|n| pa.backoff_for("ion00", n) != pb.backoff_for("ion00", n)),
        "two default mounts produced identical backoff streams"
    );

    let pinned = ClientOptions {
        retry: dpfs::core::RetryPolicy::default().with_seed(42),
        ..ClientOptions::default()
    };
    let c = mount(pinned);
    let d = mount(pinned);
    assert_eq!(c.pool().retry_policy().seed, Some(42));
    for n in 1..8 {
        assert_eq!(
            c.pool().retry_policy().backoff_for("ion00", n),
            d.pool().retry_policy().backoff_for("ion00", n),
            "pinned seeds must replay exactly"
        );
    }
}
