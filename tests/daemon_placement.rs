//! The metadata shard places what the client used to place.
//!
//! `create` sends its hint as unnamed distribution rows and the file's shard
//! picks the servers (the first `io_nodes` of its registry by name, or every
//! one) and assigns the bricks inside the creating transaction. This file
//! holds the rule the client ran before that move as an oracle, written out
//! from the paper (round-robin: brick `b` on server `b mod S`; greedy,
//! Figure 8: the server minimizing its accumulated weighted load plus its
//! performance number, ties to the faster server, then the lower index),
//! and compares every level × redundancy policy × placement with what the
//! catalog stores, on a one-shard and a two-shard plane. The hints a server
//! count can refuse are refused as `InvalidArgument`, with the messages the
//! client used to give, and leave no file behind.

use dpfs::cluster::Testbed;
use dpfs::core::{Dpfs, DpfsError, Hint, HpfPattern, Placement, RedundancyPolicy, Shape};
use dpfs::meta::{Distribution, ServerInfo};

/// Figure 9's two fast and two slow servers.
const PERF: [i64; 4] = [1, 2, 1, 2];

/// The client's old plan: server names and brick lists, in name order.
fn oracle(
    bricks: u64,
    servers: &[(String, i64)],
    policy: RedundancyPolicy,
    placement: Placement,
) -> Vec<(String, Vec<i64>)> {
    let data = match policy {
        RedundancyPolicy::XorParity => servers.len() - 1,
        _ => servers.len(),
    };
    let perf: Vec<i64> = servers[..data].iter().map(|s| s.1).collect();
    let mut load = vec![0i64; data];
    let mut lists = vec![Vec::new(); servers.len()];
    for b in 0..bricks {
        let s = match placement {
            Placement::RoundRobin => (b % data as u64) as usize,
            Placement::Greedy => {
                let s = (0..data)
                    .min_by_key(|&k| (load[k] + perf[k], perf[k], k))
                    .unwrap();
                load[s] += perf[s];
                s
            }
        };
        lists[s].push(b as i64);
    }
    servers.iter().map(|s| s.0.clone()).zip(lists).collect()
}

fn stored(dist: &[Distribution]) -> Vec<(String, Vec<i64>)> {
    dist.iter()
        .map(|d| (d.server.clone(), d.bricklist.clone()))
        .collect()
}

/// Each file level at 32 bricks (the Figure 3/9 file), 8 chunks for the
/// array level.
fn levels() -> Vec<(&'static str, Hint, u64)> {
    let shape = |dims: &[u64]| Shape::new(dims.to_vec()).unwrap();
    vec![
        ("linear", Hint::linear(64, 32 * 64), 32),
        (
            "multidim",
            Hint::multidim(shape(&[16, 8]), shape(&[2, 2]), 1),
            32,
        ),
        (
            "array",
            Hint::array(shape(&[16, 16]), HpfPattern::block_block(4, 2), 1),
            8,
        ),
    ]
}

const POLICIES: [RedundancyPolicy; 3] = [
    RedundancyPolicy::None,
    RedundancyPolicy::Replica(2),
    RedundancyPolicy::XorParity,
];

/// A plane of four servers registered with Figure 9's numbers, and a mount.
fn plane(shards: usize) -> (Testbed, Dpfs, Vec<(String, i64)>) {
    let tb = Testbed::unthrottled_sharded(4, shards).unwrap();
    let fs = tb.client(0, true);
    let mut servers = Vec::new();
    for (spec, perf) in tb.specs().iter().zip(PERF) {
        let info = ServerInfo {
            name: spec.name.clone(),
            capacity: 1 << 30,
            performance: perf,
        };
        fs.register_server(&info).unwrap();
        servers.push((spec.name.clone(), perf));
    }
    servers.sort();
    for d in ["/a", "/b"] {
        fs.mkdir(d).unwrap();
    }
    (tb, fs, servers)
}

fn check_plane(shards: usize) {
    let (_tb, fs, servers) = plane(shards);
    let mut checked = 0;
    for (level, hint, bricks) in levels() {
        for policy in POLICIES {
            for placement in [Placement::RoundRobin, Placement::Greedy] {
                let hint = hint
                    .clone()
                    .with_redundancy(policy)
                    .with_placement(placement);
                let what = format!("{shards} shard(s): {level} {policy:?} {placement:?}");
                for dir in ["/a", "/b"] {
                    let path = format!("{dir}/{level}-{}-{}", policy.as_str(), placement.as_str());
                    let made = fs.create(&path, &hint);
                    if policy == RedundancyPolicy::XorParity && level == "array" {
                        let refused = matches!(made, Err(DpfsError::InvalidArgument(_)));
                        assert!(refused, "{what}: xor over array chunks");
                        assert!(!fs.exists(&path).unwrap(), "{what}");
                        continue;
                    }
                    let f = made.unwrap_or_else(|e| panic!("{what}: {e}"));
                    let want = oracle(bricks, &servers, policy, placement);
                    let entry = fs.meta().open_file(&path).unwrap().unwrap();
                    assert_eq!(stored(&entry.dist), want, "{what}");
                    // The handle `create` answered is the one `open` gives.
                    let names: Vec<&str> = want.iter().map(|w| w.0.as_str()).collect();
                    assert_eq!(f.servers(), names, "{what}");
                    assert_eq!(f.brick_map(), fs.open(&path).unwrap().brick_map(), "{what}");
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 2 * (3 * 3 - 1) * 2);
}

#[test]
fn the_daemon_places_what_the_client_planned_on_one_shard() {
    check_plane(1);
}

#[test]
fn the_daemon_places_what_the_client_planned_on_two_shards() {
    check_plane(2);
}

/// Figure 9, exactly: the 32-brick file striped greedily over two fast and
/// two slow servers.
#[test]
fn greedy_placement_through_the_daemon_is_figure_9() {
    let (_tb, fs, servers) = plane(2);
    let hint = Hint::linear(64, 32 * 64).with_placement(Placement::Greedy);
    drop(fs.create("/b/fig9", &hint).unwrap());
    let dist = fs.meta().open_file("/b/fig9").unwrap().unwrap().dist;
    let lists: Vec<Vec<i64>> = dist.into_iter().map(|d| d.bricklist).collect();
    assert_eq!(
        lists,
        [
            vec![0, 2, 6, 8, 12, 14, 18, 20, 24, 26, 30],
            vec![4, 10, 16, 22, 28],
            vec![1, 3, 7, 9, 13, 15, 19, 21, 25, 27, 31],
            vec![5, 11, 17, 23, 29],
        ]
    );
    assert_eq!(servers.len(), 4);
}

/// `io_nodes = k` is k unnamed rows: the first k servers by name.
#[test]
fn an_io_node_hint_stripes_over_that_many_servers() {
    let (_tb, fs, servers) = plane(2);
    for (k, path) in [(2, "/a/two"), (1, "/b/one"), (9, "/b/all")] {
        let f = fs
            .create(path, &Hint::linear(64, 640).with_io_nodes(k))
            .unwrap();
        let n = k.min(servers.len());
        let want = oracle(
            10,
            &servers[..n],
            RedundancyPolicy::None,
            Placement::RoundRobin,
        );
        let dist = fs.meta().open_file(path).unwrap().unwrap().dist;
        assert_eq!(stored(&dist), want, "io_nodes {k}");
        assert_eq!(f.brick_map().num_servers(), n);
    }
}

/// The hints that need the server count are refused inside the creating
/// transaction, as the client refused them, and leave no file behind.
#[test]
fn a_hint_the_servers_cannot_carry_is_refused() {
    let (_tb, fs, _) = plane(2);
    let refused = [
        (
            Hint::linear(64, 640).with_redundancy(RedundancyPolicy::Replica(5)),
            "replica policy needs 2 <= k <= 4 servers, got k = 5",
        ),
        (
            Hint::linear(64, 640)
                .with_redundancy(RedundancyPolicy::Replica(3))
                .with_io_nodes(2),
            "replica policy needs 2 <= k <= 2 servers, got k = 3",
        ),
        (
            Hint::linear(64, 640)
                .with_redundancy(RedundancyPolicy::XorParity)
                .with_io_nodes(1),
            "xor parity needs at least 2 servers (1 data + 1 parity)",
        ),
    ];
    for (hint, message) in refused {
        for path in ["/a/bad", "/b/bad"] {
            match fs.create(path, &hint) {
                Err(DpfsError::InvalidArgument(m)) => assert_eq!(m, message),
                other => panic!("{message}: got {:?}", other.map(|f| f.path().to_string())),
            }
            assert!(!fs.exists(path).unwrap(), "{message}");
        }
    }
    let (_tb, fs) = {
        let tb = Testbed::unthrottled(0).unwrap();
        let fs = tb.client(0, true);
        (tb, fs)
    };
    match fs.create("/f", &Hint::linear(64, 640)) {
        Err(DpfsError::InvalidArgument(m)) => assert_eq!(m, "no I/O servers registered"),
        other => panic!("got {:?}", other.map(|f| f.path().to_string())),
    }
    assert!(!fs.exists("/f").unwrap());
}
