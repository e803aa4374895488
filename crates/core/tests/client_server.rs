//! Client-library integration tests against raw `IoServer`s (no testbed
//! harness): exercise `Dpfs`/`FileHandle` wiring, option combinations, and
//! error paths.

use std::sync::Arc;

use dpfs_core::{
    parity_subfile, primary_subfile, ClientOptions, Datatype, Dpfs, DpfsError, Granularity, Hint,
    HpfPattern, Placement, RedundancyPolicy, Region, Resolver, Shape,
};
use dpfs_meta::{Database, ServerInfo};
use dpfs_proto::{Request, Response};
use dpfs_server::{IoServer, PerfModel, ServerConfig};

struct Rig {
    _servers: Vec<IoServer>,
    fs: Dpfs,
    root: std::path::PathBuf,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn rig(nservers: usize, tag: &str) -> Rig {
    let root = std::env::temp_dir().join(format!(
        "dpfs-core-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let mut servers = Vec::new();
    let mut resolver = Resolver::direct();
    let db = Arc::new(Database::in_memory());
    let fs = Dpfs::mount(db, Resolver::direct(), ClientOptions::default()).unwrap();
    for i in 0..nservers {
        let name = format!("node{i:02}");
        let server = IoServer::start(ServerConfig::new(
            name.clone(),
            root.join(&name),
            PerfModel::unthrottled(),
        ))
        .unwrap();
        resolver.alias(&name, &server.addr().to_string());
        fs.register_server(&ServerInfo {
            name,
            capacity: i64::MAX,
            performance: 1,
        })
        .unwrap();
        servers.push(server);
    }
    // remount with the populated resolver
    let db = fs.catalog().unwrap().db().clone();
    let fs = Dpfs::mount(db, resolver, ClientOptions::default()).unwrap();
    Rig {
        _servers: servers,
        fs,
        root,
    }
}

#[test]
fn create_open_close_reopen() {
    let r = rig(3, "reopen");
    let mut f = r.fs.create("/a", &Hint::linear(128, 1000)).unwrap();
    f.write_bytes(0, b"persistent across handles").unwrap();
    f.close().unwrap();
    let mut f2 = r.fs.open("/a").unwrap();
    assert_eq!(&f2.read_bytes(0, 25).unwrap(), b"persistent across handles");
}

#[test]
fn open_missing_file() {
    let r = rig(1, "missing");
    match r.fs.open("/nope") {
        Err(DpfsError::NoSuchFile(p)) => assert_eq!(p, "/nope"),
        other => panic!(
            "expected NoSuchFile, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
}

#[test]
fn io_node_hint_limits_servers() {
    let r = rig(4, "ionodes");
    let hint = Hint::linear(64, 640).with_io_nodes(2);
    let f = r.fs.create("/two", &hint).unwrap();
    assert_eq!(f.servers().len(), 2);
    assert_eq!(f.brick_map().num_servers(), 2);
    // distribution rows exist only for the two chosen servers
    let dist = r.fs.catalog().unwrap().get_distribution("/two").unwrap();
    assert_eq!(dist.len(), 2);
}

#[test]
fn linear_growth_extends_distribution() {
    let r = rig(3, "grow");
    // declared tiny: 1 brick
    let mut f = r.fs.create("/g", &Hint::linear(100, 50)).unwrap();
    assert_eq!(f.brick_map().num_bricks(), 1);
    // write far past the declared size
    f.write_bytes(0, &vec![7u8; 1050]).unwrap();
    assert_eq!(f.brick_map().num_bricks(), 11);
    assert_eq!(f.size(), 1050);
    // catalog reflects the growth
    let dist = r.fs.catalog().unwrap().get_distribution("/g").unwrap();
    let total: usize = dist.iter().map(|d| d.bricklist.len()).sum();
    assert_eq!(total, 11);
    // reopen sees everything
    let mut f2 = r.fs.open("/g").unwrap();
    assert_eq!(f2.read_bytes(0, 1050).unwrap(), vec![7u8; 1050]);
}

#[test]
fn greedy_growth_keeps_ratio() {
    let r = rig(2, "greedygrow");
    // re-register with unequal performance
    r.fs.register_server(&ServerInfo {
        name: "node00".into(),
        capacity: i64::MAX,
        performance: 1,
    })
    .unwrap();
    r.fs.register_server(&ServerInfo {
        name: "node01".into(),
        capacity: i64::MAX,
        performance: 3,
    })
    .unwrap();
    let hint = Hint::linear(10, 400).with_placement(Placement::Greedy);
    let mut f = r.fs.create("/gg", &hint).unwrap();
    assert_eq!(f.brick_map().loads(), vec![30, 10]);
    f.write_bytes(0, &vec![1u8; 800]).unwrap();
    assert_eq!(f.brick_map().loads(), vec![60, 20]);
}

/// Growing an XOR-parity file placed greedily: the brick map covers the
/// n - 1 data servers, so the extension must take exactly their
/// performance numbers (handing it all n indexed out of bounds).
#[test]
fn xor_greedy_file_grows_and_parity_still_covers_the_data() {
    let r = rig(3, "xorgreedygrow");
    let hint = Hint::linear(10, 400)
        .with_placement(Placement::Greedy)
        .with_redundancy(RedundancyPolicy::XorParity);
    let mut f = r.fs.create("/xg", &hint).unwrap();
    assert_eq!(f.brick_map().loads(), vec![20, 20]);
    let data: Vec<u8> = (0..800u32).map(|i| (i % 251) as u8 + 1).collect();
    f.write_bytes(0, &data).unwrap();
    assert_eq!(f.brick_map().loads(), vec![40, 40]);
    assert_eq!(f.read_bytes(0, 800).unwrap(), data);
    f.close().unwrap();
    let mut f = r.fs.open("/xg").unwrap();
    assert_eq!(f.brick_map().loads(), vec![40, 40]);
    assert_eq!(f.read_bytes(0, 800).unwrap(), data);

    // parity == XOR(data subfiles), byte for byte, over the grown extent
    let subfile = |server: &str, name: String| -> Vec<u8> {
        let req = Request::Read {
            subfile: name,
            ranges: vec![(0, 400)],
        };
        match r.fs.pool().rpc_ok(server, &req).unwrap() {
            Response::DataList { data } => data.to_vec(),
            other => panic!("unexpected response {other:?}"),
        }
    };
    let d0 = subfile("node00", primary_subfile(f.id()));
    let d1 = subfile("node01", primary_subfile(f.id()));
    let parity = subfile("node02", parity_subfile(f.id()));
    assert_eq!((d0.len(), d1.len(), parity.len()), (400, 400, 400));
    assert!(
        (0..400).all(|i| parity[i] == d0[i] ^ d1[i]),
        "parity diverged from XOR(data) after growth"
    );
    let report = dpfs_core::fsck::fsck(&r.fs, true).unwrap();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn exact_granularity_round_trip() {
    let r = rig(2, "exact");
    let db = r.fs.catalog().unwrap().db().clone();
    let shape = Shape::new(vec![20, 20]).unwrap();
    let mut f =
        r.fs.create(
            "/e",
            &Hint::multidim(shape.clone(), Shape::new(vec![6, 6]).unwrap(), 2),
        )
        .unwrap();
    let data: Vec<u8> = (0..800u32).map(|x| x as u8).collect();
    f.write_region(&shape.full_region(), &data).unwrap();
    drop(f);
    let _ = db;
    // exact reads fetch only what's needed
    let opts = ClientOptions {
        combine: true,
        granularity: Granularity::Exact,
        rank: 0,
        ..ClientOptions::default()
    };
    let mut f = r.fs.open_with("/e", opts).unwrap();
    let region = Region::new(vec![3, 3], vec![5, 5]).unwrap();
    let got = f.read_region(&region).unwrap();
    for (i, &b) in got.iter().enumerate() {
        let row = 3 + (i as u64 / 2) / 5;
        let col = 3 + (i as u64 / 2) % 5;
        let byte = i as u64 % 2;
        assert_eq!(b, data[((row * 20 + col) * 2 + byte) as usize]);
    }
    let stats = f.stats();
    assert_eq!(
        stats.wire_read, stats.useful_read,
        "exact mode transfers no waste"
    );
}

#[test]
fn brick_granularity_wastes_but_is_correct() {
    let r = rig(2, "waste");
    let shape = Shape::new(vec![16, 16]).unwrap();
    let mut f =
        r.fs.create(
            "/w",
            &Hint::multidim(shape.clone(), Shape::new(vec![8, 8]).unwrap(), 1),
        )
        .unwrap();
    let data: Vec<u8> = (0..256u32).map(|x| x as u8).collect();
    f.write_region(&shape.full_region(), &data).unwrap();
    let mut f = r.fs.open("/w").unwrap(); // default: Brick granularity
    let one = f
        .read_region(&Region::new(vec![0, 0], vec![1, 1]).unwrap())
        .unwrap();
    assert_eq!(one, vec![0u8]);
    let stats = f.stats();
    assert_eq!(stats.useful_read, 1);
    assert_eq!(stats.wire_read, 64, "whole 8x8 brick fetched");
}

#[test]
fn rename_and_readdir() {
    let r = rig(2, "rename");
    r.fs.mkdir("/d").unwrap();
    let mut f = r.fs.create("/d/x", &Hint::linear(64, 100)).unwrap();
    f.write_bytes(0, b"contents!").unwrap();
    f.close().unwrap();
    r.fs.rename("/d/x", "/d/y").unwrap();
    let (dirs, files) = r.fs.readdir("/d").unwrap();
    assert!(dirs.is_empty());
    assert_eq!(files, vec!["y"]);
    let mut f = r.fs.open("/d/y").unwrap();
    assert_eq!(&f.read_bytes(0, 9).unwrap(), b"contents!");
}

#[test]
fn unlink_removes_subfiles_from_servers() {
    let r = rig(2, "unlink");
    let mut f = r.fs.create("/z", &Hint::linear(64, 256)).unwrap();
    f.write_bytes(0, &[9u8; 256]).unwrap();
    f.close().unwrap();
    // subfiles exist on disk
    let count_before: usize = (0..2)
        .map(|i| {
            std::fs::read_dir(r.root.join(format!("node{i:02}")))
                .map(|d| d.count())
                .unwrap_or(0)
        })
        .sum();
    assert!(count_before >= 2);
    r.fs.unlink("/z").unwrap();
    let count_after: usize = (0..2)
        .map(|i| {
            std::fs::read_dir(r.root.join(format!("node{i:02}")))
                .map(|d| d.count())
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(count_after, 0);
}

#[test]
fn paper_style_api() {
    use dpfs_core::api::{dpfs_close, dpfs_open, dpfs_read, dpfs_write, OpenMode};
    let r = rig(2, "api");
    let hint = Hint::linear(128, 4096);
    let mut handle = dpfs_open(&r.fs, "/papi", OpenMode::Write, Some(&hint)).unwrap();
    let dt = Datatype::vector(4, 32, 64); // 4 blocks of 32 every 64
    let data = vec![0x42u8; dt.size() as usize];
    dpfs_write(&mut handle, 0, &dt, &data).unwrap();
    dpfs_close(handle).unwrap();
    let mut handle = dpfs_open(&r.fs, "/papi", OpenMode::Read, None).unwrap();
    assert_eq!(dpfs_read(&mut handle, 0, &dt).unwrap(), data);
}

#[test]
fn array_pattern_survives_reopen() {
    let r = rig(3, "arr-reopen");
    let hint = Hint::array(
        Shape::new(vec![30, 30]).unwrap(),
        HpfPattern::block_block(3, 2),
        4,
    );
    let mut f = r.fs.create("/arr", &hint).unwrap();
    let chunk0 = f.chunk_region(0).unwrap();
    f.write_chunk(0, &vec![5u8; (chunk0.volume() * 4) as usize])
        .unwrap();
    drop(f);
    let mut f = r.fs.open("/arr").unwrap();
    assert_eq!(f.chunk_region(0).unwrap(), chunk0);
    assert_eq!(f.layout().num_bricks(), 6);
    assert_eq!(
        f.read_chunk(0).unwrap(),
        vec![5u8; (chunk0.volume() * 4) as usize]
    );
    let attr = r.fs.stat("/arr").unwrap();
    assert_eq!(attr.pattern, "BLOCK,BLOCK");
    assert_eq!(attr.stripe_dims, vec![3, 2]);
}

#[test]
fn stagger_rank_changes_first_server() {
    let r = rig(4, "stagger");
    let mut f = r.fs.create("/s", &Hint::linear(64, 64 * 16)).unwrap();
    f.write_bytes(0, &vec![3u8; 64 * 16]).unwrap();
    f.close().unwrap();
    // ranks 0..4 with combination: all read everything; correctness is
    // identical regardless of stagger origin
    for rank in 0..4 {
        let opts = ClientOptions {
            combine: true,
            granularity: Granularity::Brick,
            rank,
            ..ClientOptions::default()
        };
        let mut f = r.fs.open_with("/s", opts).unwrap();
        assert_eq!(f.read_bytes(0, 64 * 16).unwrap(), vec![3u8; 64 * 16]);
        assert_eq!(f.stats().requests, 4, "one combined request per server");
    }
}

#[test]
fn cyclic_array_file_end_to_end() {
    let r = rig(3, "cyclic");
    let shape = Shape::new(vec![12, 8]).unwrap();
    // rows deal round-robin to 3 processors
    let hint = Hint::array(shape.clone(), HpfPattern::cyclic_star(3, 2), 2);
    let mut f = r.fs.create("/cyc", &hint).unwrap();
    // each processor dumps its local array (4 rows x 8 cols x 2 bytes)
    for rank in 0..3u64 {
        let data: Vec<u8> = (0..64u64).map(|i| (rank * 64 + i) as u8).collect();
        f.write_chunk(rank, &data).unwrap();
    }
    // chunk round trip
    for rank in 0..3u64 {
        let expect: Vec<u8> = (0..64u64).map(|i| (rank * 64 + i) as u8).collect();
        assert_eq!(f.read_chunk(rank).unwrap(), expect);
    }
    // region reads see the dealt rows: global row g lives in chunk g % 3 at
    // local row g / 3
    let mut f = r.fs.open("/cyc").unwrap();
    for g in 0..12u64 {
        let row = f
            .read_region(&Region::new(vec![g, 0], vec![1, 8]).unwrap())
            .unwrap();
        let rank = g % 3;
        let local_row = g / 3;
        let expect: Vec<u8> = (0..16u64)
            .map(|i| (rank * 64 + local_row * 16 + i) as u8)
            .collect();
        assert_eq!(row, expect, "global row {g}");
    }
    // cyclic pattern survives reopen via the catalog
    let attr = r.fs.stat("/cyc").unwrap();
    assert_eq!(attr.pattern, "CYCLIC,*");
    // chunk_region is refused for cyclic
    assert!(f.chunk_region(0).is_err());
    // wrong-size chunk buffer is rejected
    assert!(f.write_chunk(0, &[0u8; 10]).is_err());
}

#[test]
fn block_cyclic_region_write_read() {
    let r = rig(2, "bcyc");
    let shape = Shape::new(vec![4, 20]).unwrap();
    let hint = Hint::array(
        shape.clone(),
        dpfs_core::HpfPattern(vec![
            dpfs_core::Dist::Star,
            dpfs_core::Dist::BlockCyclic { procs: 2, block: 4 },
        ]),
        1,
    );
    let mut f = r.fs.create("/bc", &hint).unwrap();
    let data: Vec<u8> = (0..80u32).map(|x| x as u8).collect();
    f.write_region(&shape.full_region(), &data).unwrap();
    // arbitrary sub-region straddling cyclic blocks
    let region = Region::new(vec![1, 2], vec![2, 13]).unwrap();
    let got = f.read_region(&region).unwrap();
    for (i, &b) in got.iter().enumerate() {
        let row = 1 + (i as u64) / 13;
        let col = 2 + (i as u64) % 13;
        assert_eq!(b, data[(row * 20 + col) as usize], "({row},{col})");
    }
}
