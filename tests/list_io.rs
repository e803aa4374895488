//! List I/O, the one data path: strided, self-overlapping and redundant
//! accesses through real TCP servers must leave — and read back — exactly
//! the bytes an in-memory model of the file holds, with request
//! combination on and off; and each request must travel in whichever wire
//! shape encodes smaller.
//!
//! Also pins the headline win deterministically: for a dense strided
//! read, the pattern descriptor the client sends is at least 5x smaller
//! than the enumerated range list for the same planned request.

use std::time::Duration;

use proptest::prelude::*;

use dpfs::cluster::Testbed;
use dpfs::core::plan::plan_list;
use dpfs::core::{
    ClientOptions, Datatype, Dpfs, Granularity, Hint, Layout, RedundancyPolicy, Region,
    RetryPolicy, Shape,
};
use dpfs::proto::{AccessPattern, Request};

/// Exact-granularity client. Exact granularity keeps strided reads
/// strided on the wire (Brick would fetch whole bricks), which is where
/// the descriptor shape matters.
fn opts(combine: bool) -> ClientOptions {
    ClientOptions {
        combine,
        granularity: Granularity::Exact,
        ..ClientOptions::default()
    }
}

/// `opts` plus tight retries, for tests that kill a server: a dead
/// server refuses connections immediately, so two quick attempts
/// suffice before the read falls over to reconstruction.
fn fast_retry(combine: bool) -> ClientOptions {
    ClientOptions {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..opts(combine)
    }
}

/// Deterministic, zero-free payload byte (zero-free so a hole served as
/// zeros can never masquerade as correct data).
fn pat(i: u64, salt: u64) -> u8 {
    ((i.wrapping_mul(31).wrapping_add(salt)) % 251) as u8 + 1
}

/// Sum a transport counter over every I/O server the client dialed.
fn counter_sum(client: &Dpfs, n: usize, pick: fn(&dpfs::core::TransportStats) -> u64) -> u64 {
    (0..n)
        .filter_map(|i| client.pool().transport_stats(&format!("ion{i:02}")))
        .map(|t| pick(&t))
        .sum()
}

/// Apply a datatype write to the model: runs land in `flatten` order, so
/// where they overlap the later run wins.
fn overlay(model: &mut [u8], base: u64, dt: &Datatype, payload: &[u8]) {
    let mut at = 0usize;
    for (off, run_len) in dt.flatten() {
        let dst = (base + off) as usize;
        model[dst..dst + run_len as usize].copy_from_slice(&payload[at..at + run_len as usize]);
        at += run_len as usize;
    }
}

/// What a datatype read of the model returns: each run's bytes, packed.
fn gather(model: &[u8], base: u64, dt: &Datatype) -> Vec<u8> {
    dt.flatten()
        .into_iter()
        .flat_map(|(off, len)| model[(base + off) as usize..(base + off + len) as usize].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A strided write lands byte-exactly where the model puts it, and
    /// both the whole file and the strided view read back as the model
    /// holds them — combined or brick by brick.
    #[test]
    fn strided_list_io_matches_model(
        combine in any::<bool>(),
        n in 1usize..=4,
        brick in prop_oneof![Just(512u64), Just(1000u64), Just(4096u64)],
        count in 2u64..24,
        blocklen in 1u64..128,
        gap in 1u64..200,
        base in 0u64..5000,
        tail in 0u64..1000,
        salt in 0u64..251,
    ) {
        let stride = blocklen + gap;
        let dt = Datatype::vector(count, blocklen, stride);
        let len = base + dt.extent() + tail;

        let tb = Testbed::unthrottled(n).unwrap();
        let client = tb.client_opts(opts(combine));
        client.create("/lio", &Hint::linear(brick, len)).unwrap();

        let mut model: Vec<u8> = (0..len).map(|i| pat(i, salt)).collect();
        let payload: Vec<u8> = (0..dt.size()).map(|i| pat(i, salt + 1)).collect();
        {
            let mut f = client.open("/lio").unwrap();
            f.write_bytes(0, &model).unwrap();
            f.write_datatype(base, &dt, &payload).unwrap();
        }
        overlay(&mut model, base, &dt, &payload);

        let mut f = client.open("/lio").unwrap();
        prop_assert_eq!(&f.read_bytes(0, len).unwrap(), &model);
        prop_assert_eq!(&f.read_datatype(base, &dt).unwrap(), &payload);
    }

    /// A vector whose stride is shorter than its block overlaps itself.
    /// Written, the later run wins each shared byte; read, every run gets
    /// the file's bytes, shared ones more than once. Holds combined and
    /// brick by brick, at both granularities, and under redundancy — whose
    /// mirrors and parity must agree with the data after losing a server.
    #[test]
    fn self_overlapping_vector_is_later_run_wins(
        combine in any::<bool>(),
        exact in any::<bool>(),
        policy in prop_oneof![
            Just(RedundancyPolicy::None),
            Just(RedundancyPolicy::Replica(2)),
            Just(RedundancyPolicy::XorParity),
        ],
        n in 3usize..=4,
        brick in prop_oneof![Just(64u64), Just(500u64), Just(4096u64)],
        count in 2u64..20,
        blocklen in 2u64..160,
        stride_seed in 0u64..160,
        base in 0u64..3000,
        victim_seed in 0usize..16,
        salt in 0u64..251,
    ) {
        let stride = 1 + stride_seed % (blocklen - 1);
        prop_assert!(stride < blocklen);
        let dt = Datatype::vector(count, blocklen, stride);
        let len = base + dt.extent() + 333;
        let options = ClientOptions {
            granularity: if exact { Granularity::Exact } else { Granularity::Brick },
            ..fast_retry(combine)
        };

        let mut tb = Testbed::unthrottled(n).unwrap();
        let client = tb.client_opts(options);
        client
            .create("/overlap", &Hint::linear(brick, len).with_redundancy(policy))
            .unwrap();

        let mut model: Vec<u8> = (0..len).map(|i| pat(i, salt)).collect();
        let payload: Vec<u8> = (0..dt.size()).map(|i| pat(i, salt + 1)).collect();
        {
            let mut f = client.open("/overlap").unwrap();
            f.write_bytes(0, &model).unwrap();
            f.write_datatype(base, &dt, &payload).unwrap();
            f.sync().unwrap();
        }
        overlay(&mut model, base, &dt, &payload);

        let mut f = client.open("/overlap").unwrap();
        prop_assert_eq!(&f.read_bytes(0, len).unwrap(), &model);
        prop_assert_eq!(f.read_datatype(base, &dt).unwrap(), gather(&model, base, &dt));

        if policy != RedundancyPolicy::None {
            tb.kill_server(victim_seed % n);
            let reader = tb.client_opts(options);
            let mut f = reader.open("/overlap").unwrap();
            prop_assert_eq!(&f.read_bytes(0, len).unwrap(), &model);
            prop_assert_eq!(f.read_datatype(base, &dt).unwrap(), gather(&model, base, &dt));
        }
    }

    /// Redundant layouts stay byte-exact: strided writes under
    /// `Replica(2)` and `XorParity` survive the loss of any single server,
    /// the holes reconstructed from the surviving peers.
    #[test]
    fn redundancy_survives_list_writes(
        replica in any::<bool>(),
        n in 3usize..=4,
        brick in prop_oneof![Just(512u64), Just(4096u64)],
        count in 2u64..16,
        blocklen in 1u64..96,
        gap in 1u64..150,
        victim_seed in 0usize..16,
        salt in 0u64..251,
    ) {
        let policy = if replica {
            RedundancyPolicy::Replica(2)
        } else {
            RedundancyPolicy::XorParity
        };
        let dt = Datatype::vector(count, blocklen, blocklen + gap);
        let len = dt.extent() + 777;

        let mut tb = Testbed::unthrottled(n).unwrap();
        let client = tb.client_opts(fast_retry(true));
        client
            .create("/red", &Hint::linear(brick, len).with_redundancy(policy))
            .unwrap();

        let mut model: Vec<u8> = (0..len).map(|i| pat(i, salt)).collect();
        let payload: Vec<u8> = (0..dt.size()).map(|i| pat(i, salt + 1)).collect();
        {
            let mut f = client.open("/red").unwrap();
            f.write_bytes(0, &model).unwrap();
            f.write_datatype(0, &dt, &payload).unwrap();
            f.sync().unwrap();
        }
        overlay(&mut model, 0, &dt, &payload);

        tb.kill_server(victim_seed % n);
        let reader = tb.client_opts(fast_retry(true));
        let mut f = reader.open("/red").unwrap();
        prop_assert_eq!(&f.read_bytes(0, len).unwrap(), &model);
        prop_assert_eq!(&f.read_datatype(0, &dt).unwrap(), &payload);
    }

    /// A 3-d sub-block of a multidim file whose tiles overhang the array:
    /// written and read back, block and whole array, it is what a row-major
    /// model of the array holds — combined or brick by brick, at both read
    /// granularities.
    #[test]
    fn subarray_3d_over_multidim_matches_model(
        combine in any::<bool>(),
        exact in any::<bool>(),
        n in 1usize..=4,
        dims in proptest::collection::vec((2u64..12, 1u64..5, any::<u64>(), any::<u64>()), 3..4),
        elem in 1u64..4,
        salt in 0u64..251,
    ) {
        let pick = |f: fn(&(u64, u64, u64, u64)) -> u64| dims.iter().map(f).collect::<Vec<_>>();
        let array = Shape::new(pick(|d| d.0)).unwrap();
        let sub = Region::new(pick(|d| d.2 % d.0), pick(|d| 1 + d.3 % (d.0 - d.2 % d.0))).unwrap();
        let options = ClientOptions {
            granularity: if exact { Granularity::Exact } else { Granularity::Brick },
            ..opts(combine)
        };
        let tb = Testbed::unthrottled(n).unwrap();
        let client = tb.client_opts(options);
        let hint = Hint::multidim(array.clone(), Shape::new(pick(|d| d.1)).unwrap(), elem);
        client.create("/cube", &hint).unwrap();

        let mut model: Vec<u8> = (0..array.volume() * elem).map(|i| pat(i, salt)).collect();
        let payload: Vec<u8> = (0..sub.volume() * elem).map(|i| pat(i, salt + 1)).collect();
        {
            let mut f = client.open("/cube").unwrap();
            f.write_region(&array.full_region(), &model).unwrap();
            f.write_region(&sub, &payload).unwrap();
        }
        // the block's row segments, in the order the buffer packs them
        let mut at = 0usize;
        for (start, len) in sub.contiguous_runs(&array) {
            let (dst, len) = ((start * elem) as usize, (len * elem) as usize);
            model[dst..dst + len].copy_from_slice(&payload[at..at + len]);
            at += len;
        }

        let mut f = client.open("/cube").unwrap();
        prop_assert_eq!(&f.read_region(&array.full_region()).unwrap(), &model);
        prop_assert_eq!(&f.read_region(&sub).unwrap(), &payload);
    }

    /// An indexed datatype every block of which straddles a brick boundary
    /// (so each maps to two runs on two servers) matches the model.
    #[test]
    fn indexed_blocks_straddling_bricks_match_model(
        combine in any::<bool>(),
        exact in any::<bool>(),
        n in 1usize..=4,
        brick in prop_oneof![Just(64u64), Just(500u64), Just(4096u64)],
        cuts in proptest::collection::vec((1u64..4, 1u64..30, 1u64..30), 1..12),
        base in 0u64..30,
        salt in 0u64..251,
    ) {
        // Anchored at `base`, block k starts `before` bytes short of a
        // brick boundary `skip` bricks past the previous one and runs
        // `after` bytes beyond it.
        let mut boundary = 0;
        let blocks: Vec<(u64, u64)> = cuts
            .iter()
            .map(|&(skip, before, after)| {
                boundary += skip * brick;
                (boundary - before - base, before + after)
            })
            .collect();
        let dt = Datatype::indexed(blocks).unwrap();
        let len = base + dt.extent() + 99;
        let options = ClientOptions {
            granularity: if exact { Granularity::Exact } else { Granularity::Brick },
            ..opts(combine)
        };
        let tb = Testbed::unthrottled(n).unwrap();
        let client = tb.client_opts(options);
        client.create("/idx", &Hint::linear(brick, len)).unwrap();

        let mut model: Vec<u8> = (0..len).map(|i| pat(i, salt)).collect();
        let payload: Vec<u8> = (0..dt.size()).map(|i| pat(i, salt + 1)).collect();
        {
            let mut f = client.open("/idx").unwrap();
            f.write_bytes(0, &model).unwrap();
            f.write_datatype(base, &dt, &payload).unwrap();
        }
        overlay(&mut model, base, &dt, &payload);
        for (off, len) in dt.flatten() {
            prop_assert!((base + off) / brick < (base + off + len - 1) / brick);
        }

        let mut f = client.open("/idx").unwrap();
        prop_assert_eq!(&f.read_bytes(0, len).unwrap(), &model);
        prop_assert_eq!(&f.read_datatype(base, &dt).unwrap(), &payload);
    }
}

/// Dense strided reads: for the very requests the client plans, the
/// pattern descriptor is at least 5x smaller on the wire than the
/// enumerated range list, and the descriptor is what the client sends
/// (`rpc.req_bytes` moves by exactly its size, `rpc.list_io` by one per
/// server).
#[test]
fn dense_stride_shrinks_request_bytes_at_least_5x() {
    const N: usize = 2;
    let tb = Testbed::unthrottled(N).unwrap();
    let client = tb.client_opts(opts(true));

    // 256 ranges of 8 bytes every 16: one Vector segment (~25 wire
    // bytes) versus 256 enumerated ranges (~4 KiB of request framing).
    let dt = Datatype::vector(256, 8, 16);
    let payload: Vec<u8> = (0..dt.size()).map(|i| pat(i, 9)).collect();
    client
        .create("/dense", &Hint::linear(1024, dt.extent()))
        .unwrap();
    let mut f = client.open("/dense").unwrap();
    f.write_datatype(0, &dt, &payload).unwrap();

    // The requests this read plans, in both wire shapes.
    let Layout::Linear(lin) = f.layout() else {
        panic!("linear file");
    };
    let mut runs = Vec::new();
    let mut buf_off = 0;
    for (off, len) in dt.flatten() {
        runs.extend(lin.map_bytes(off, len, buf_off));
        buf_off += len;
    }
    let reqs = plan_list(&runs, f.brick_map(), f.layout(), Granularity::Exact, 0).unwrap();
    assert_eq!(reqs.len(), N);
    let (mut pattern_bytes, mut enumerated_bytes) = (0u64, 0u64);
    for req in &reqs {
        let subfile = "/dense".to_string();
        let pattern = AccessPattern::from_runs(&req.ranges);
        pattern_bytes += Request::ReadList {
            subfile: subfile.clone(),
            pattern,
        }
        .encode()
        .len() as u64;
        enumerated_bytes += Request::Read {
            subfile,
            ranges: req.ranges.clone(),
        }
        .encode()
        .len() as u64;
    }
    assert!(
        enumerated_bytes >= 5 * pattern_bytes,
        "dense-stride request bytes: pattern={pattern_bytes}, \
         enumerated={enumerated_bytes} (want >= 5x)"
    );

    let sent_before = counter_sum(&client, N, |t| t.req_bytes);
    let list_before = counter_sum(&client, N, |t| t.list_io);
    assert_eq!(f.read_datatype(0, &dt).unwrap(), payload);
    assert_eq!(
        counter_sum(&client, N, |t| t.req_bytes) - sent_before,
        pattern_bytes,
        "the client sends the pattern shape, byte for byte"
    );
    assert_eq!(
        counter_sum(&client, N, |t| t.list_io) - list_before,
        N as u64
    );
}

/// A brick cache fills from the same requests everything else uses: a
/// Brick-granularity column read goes out as one pattern request per
/// server — and so does the identical read after it: a handle holds no
/// file data between calls, so every read is answered by the servers.
#[test]
fn brick_granularity_half_array_read_is_one_pattern_request_per_server_every_time() {
    const N: usize = 4;
    let tb = Testbed::unthrottled(N).unwrap();
    let client = tb.client_opts(ClientOptions::default());
    // 64x64 bytes in 8x8-byte bricks: brick (r, c) is number 8r + c, on
    // server (8r + c) % 4, slot (8r + c) / 4.
    let shape = Shape::new(vec![64, 64]).unwrap();
    let hint = Hint::multidim(shape.clone(), Shape::new(vec![8, 8]).unwrap(), 1);
    let data: Vec<u8> = (0..64 * 64).map(|i| pat(i, 5)).collect();
    let mut f = client.create("/half", &hint).unwrap();
    f.write_region(&shape.full_region(), &data).unwrap();

    // The left half: brick columns 0..4, so each server holds one brick
    // per brick row, every other slot — a strided pattern per server.
    let left = Region::new(vec![0, 0], vec![64, 32]).unwrap();
    let expected: Vec<u8> = (0..64usize)
        .flat_map(|row| data[row * 64..row * 64 + 32].to_vec())
        .collect();

    let mut f = client.open("/half").unwrap();
    let list_before = counter_sum(&client, N, |t| t.list_io);
    for round in 1..=2u64 {
        assert_eq!(f.read_region(&left).unwrap(), expected);
        assert_eq!(
            f.stats().requests,
            round * N as u64,
            "read {round}: one request per server"
        );
        assert_eq!(
            counter_sum(&client, N, |t| t.list_io) - list_before,
            round * N as u64,
            "each a pattern descriptor"
        );
    }
}

/// Irregular indexed access (distinct lengths, no arithmetic structure)
/// costs more as a descriptor than enumerated, so it ships enumerated —
/// transparently, with the data still round-tripping.
#[test]
fn irregular_indexed_access_ships_legacy_wire() {
    const N: usize = 2;
    let tb = Testbed::unthrottled(N).unwrap();
    let client = tb.client_opts(opts(true));

    let blocks = vec![(0, 5), (9, 12), (30, 7), (52, 23), (90, 11), (140, 2)];
    let dt = Datatype::indexed(blocks).unwrap();
    let payload: Vec<u8> = (0..dt.size()).map(|i| pat(i, 17)).collect();

    client
        .create("/irregular", &Hint::linear(4096, dt.extent()))
        .unwrap();
    {
        let mut f = client.open("/irregular").unwrap();
        f.write_datatype(0, &dt, &payload).unwrap();
        assert_eq!(f.read_datatype(0, &dt).unwrap(), payload);
    }

    assert_eq!(
        counter_sum(&client, N, |t| t.list_io),
        0,
        "irregular access should fall back to the enumerated shape"
    );
}
