//! Property-based tests on the core invariants, run end-to-end where
//! feasible and on the pure math everywhere else.

use proptest::prelude::*;

use dpfs::core::plan::{plan_list, ListRequest};
use dpfs::core::{
    greedy, round_robin, ArrayLayout, BrickMap, BrickRun, Datatype, Granularity, HpfPattern,
    Layout, LinearLayout, MultidimLayout, Region, Shape,
};

// ---------- layout coverage invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every byte of a linear range maps to exactly one brick run, in
    /// order, with no gaps or overlaps.
    #[test]
    fn linear_map_partitions_range(
        brick in 1u64..500,
        off in 0u64..10_000,
        len in 1u64..10_000,
    ) {
        let layout = LinearLayout::new(brick, off + len).unwrap();
        let runs = layout.map_bytes(off, len, 0);
        let mut cursor = off;
        let mut buf_cursor = 0u64;
        for r in &runs {
            prop_assert_eq!(r.brick * brick + r.brick_off, cursor);
            prop_assert_eq!(r.buf_off, buf_cursor);
            prop_assert!(r.brick_off + r.len <= brick);
            cursor += r.len;
            buf_cursor += r.len;
        }
        prop_assert_eq!(cursor, off + len);
    }

    /// Multidim region mapping covers each region element exactly once, and
    /// every (brick, brick_off) target is unique.
    #[test]
    fn multidim_map_covers_region_exactly(
        rows in 1u64..40,
        cols in 1u64..40,
        brick_r in 1u64..8,
        brick_c in 1u64..8,
        origin_r in 0u64..20,
        origin_c in 0u64..20,
        ext_r in 1u64..20,
        ext_c in 1u64..20,
    ) {
        let rows = rows.max(origin_r + ext_r);
        let cols = cols.max(origin_c + ext_c);
        let layout = MultidimLayout::new(
            Shape::new(vec![rows, cols]).unwrap(),
            Shape::new(vec![brick_r, brick_c]).unwrap(),
            1,
        ).unwrap();
        let region = Region::new(vec![origin_r, origin_c], vec![ext_r, ext_c]).unwrap();
        let runs = layout.map_region(&region).unwrap();
        // buffer offsets partition [0, volume)
        let mut buf_seen = vec![false; (ext_r * ext_c) as usize];
        let mut disk_seen = std::collections::HashSet::new();
        for r in &runs {
            for i in 0..r.len {
                let b = (r.buf_off + i) as usize;
                prop_assert!(!buf_seen[b], "buffer byte {b} written twice");
                buf_seen[b] = true;
                prop_assert!(disk_seen.insert((r.brick, r.brick_off + i)),
                    "disk byte mapped twice");
            }
        }
        prop_assert!(buf_seen.iter().all(|&x| x));
    }

    /// Array-level chunks partition the array: every element belongs to
    /// exactly one chunk, and chunk byte lengths sum to the array size.
    #[test]
    fn array_chunks_partition_array(
        rows in 1u64..60,
        cols in 1u64..60,
        p0 in 1u64..6,
        p1 in 1u64..6,
    ) {
        prop_assume!(p0 <= rows && p1 <= cols);
        // skip degenerate ceil-block patterns (rejected by construction)
        prop_assume!((p0 - 1) * rows.div_ceil(p0) < rows);
        prop_assume!((p1 - 1) * cols.div_ceil(p1) < cols);
        let layout = ArrayLayout::new(
            Shape::new(vec![rows, cols]).unwrap(),
            HpfPattern::block_block(p0, p1),
            1,
        ).unwrap();
        let total: u64 = (0..layout.num_bricks()).map(|b| layout.chunk_len(b)).sum();
        prop_assert_eq!(total, rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let owner = layout.chunk_of(&[r, c]);
                prop_assert!(layout.chunk_region(owner).unwrap().contains(&[r, c]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cyclic and block-cyclic chunks also partition the array (extension).
    #[test]
    fn cyclic_chunks_partition_array(
        rows in 1u64..48,
        cols in 1u64..48,
        p0 in 1u64..5,
        b1 in 1u64..5,
        p1 in 1u64..4,
    ) {
        prop_assume!(p0 <= rows && p1 <= cols);
        // block-cyclic needs every proc to own >= 1 element:
        // proc g owns something iff d > g*b within the first cycle or full cycles exist
        let d1 = cols;
        let cycle = p1 * b1;
        let full = d1 / cycle;
        let rem = d1 % cycle;
        prop_assume!((0..p1).all(|g| full * b1 + rem.saturating_sub(g * b1).min(b1) >= 1));
        let layout = ArrayLayout::new(
            Shape::new(vec![rows, cols]).unwrap(),
            HpfPattern(vec![
                dpfs::core::Dist::Cyclic(p0),
                dpfs::core::Dist::BlockCyclic { procs: p1, block: b1 },
            ]),
            1,
        ).unwrap();
        let total: u64 = (0..layout.num_bricks()).map(|b| layout.chunk_len(b)).sum();
        prop_assert_eq!(total, rows * cols);
        // mapping the full array covers each disk byte exactly once
        let runs = layout
            .map_region(&Shape::new(vec![rows, cols]).unwrap().full_region())
            .unwrap();
        let mut disk = std::collections::HashSet::new();
        for r in &runs {
            for i in 0..r.len {
                prop_assert!(disk.insert((r.brick, r.brick_off + i)));
            }
        }
        prop_assert_eq!(disk.len() as u64, total);
    }
}

// ---------- placement invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-robin spreads bricks within 1 of each other.
    #[test]
    fn round_robin_is_balanced(bricks in 1u64..5000, servers in 1usize..20) {
        let m = BrickMap::from_assignment(round_robin(bricks, servers), servers);
        let loads = m.loads();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Greedy's weighted loads differ by at most the largest performance
    /// number (the Figure 8 invariant).
    #[test]
    fn greedy_weighted_balance(
        bricks in 1u64..5000,
        perf in proptest::collection::vec(1i64..10, 1..12),
    ) {
        let m = BrickMap::from_assignment(greedy(bricks, &perf), perf.len());
        let w = m.weighted_loads(&perf);
        let spread = w.iter().max().unwrap() - w.iter().min().unwrap();
        prop_assert!(spread <= *perf.iter().max().unwrap(),
            "spread {spread} perf {perf:?} loads {:?}", m.loads());
    }

    /// Brick lists round-trip through the catalog representation.
    #[test]
    fn brickmap_bricklist_round_trip(
        bricks in 1u64..2000,
        perf in proptest::collection::vec(1i64..5, 1..8),
    ) {
        let m = BrickMap::from_assignment(greedy(bricks, &perf), perf.len());
        let lists: Vec<Vec<i64>> = m.bricklists().iter()
            .map(|l| l.iter().map(|&b| b as i64).collect()).collect();
        let back = BrickMap::from_bricklists(&lists).unwrap();
        prop_assert_eq!(m, back);
    }

    /// Growing a map in two steps equals growing it in one.
    #[test]
    fn extend_is_associative(
        first in 1u64..500,
        extra1 in 0u64..300,
        extra2 in 0u64..300,
        servers in 1usize..8,
    ) {
        let mut two_step = BrickMap::from_assignment(round_robin(first, servers), servers);
        two_step.extend(extra1, None).unwrap();
        two_step.extend(extra2, None).unwrap();
        let one_shot = BrickMap::from_assignment(
            round_robin(first + extra1 + extra2, servers), servers);
        prop_assert_eq!(two_step, one_shot);
    }
}

// ---------- planning invariants ----------

/// A strided (for `stride < blocklen`, self-overlapping) access to a
/// 64-byte-brick linear file striped round-robin: the layout, the map, and
/// the access's brick runs.
fn strided_access(
    bricks: u64,
    servers: usize,
    base: u64,
    count: u64,
    blocklen: u64,
    stride: u64,
) -> (Layout, BrickMap, Vec<BrickRun>) {
    let lin = LinearLayout::new(64, bricks * 64).unwrap();
    let map = BrickMap::from_assignment(round_robin(bricks, servers), servers);
    let dt = Datatype::vector(count, blocklen, stride);
    // Clip the access to the file.
    let mut runs = Vec::new();
    let mut buf_off = 0u64;
    for (off, len) in dt.flatten() {
        let off = base + off;
        if off + len <= bricks * 64 {
            runs.extend(lin.map_bytes(off, len, buf_off));
            buf_off += len;
        }
    }
    (Layout::Linear(lin), map, runs)
}

/// The general approach (`combine = false`): each brick planned alone, in
/// ascending brick order.
fn plan_general(
    runs: &[BrickRun],
    map: &BrickMap,
    layout: &Layout,
    granularity: Granularity,
    rank: usize,
) -> Vec<ListRequest> {
    let mut by_brick = runs.to_vec();
    by_brick.sort_by_key(|r| r.brick);
    by_brick
        .chunk_by(|a, b| a.brick == b.brick)
        .flat_map(|one| plan_list(one, map, layout, granularity, rank).unwrap())
        .collect()
}

/// Every useful byte a plan moves, as sorted `(server, subfile byte,
/// buffer byte)` triples. Panics if a piece leaves its range.
fn planned_bytes(reqs: &[ListRequest]) -> Vec<(usize, u64, u64)> {
    let mut out = Vec::new();
    for req in reqs {
        let starts: Vec<u64> = req
            .ranges
            .iter()
            .scan(0u64, |at, &(_, len)| {
                let start = *at;
                *at += len;
                Some(start)
            })
            .collect();
        for p in &req.pieces {
            let i = starts.partition_point(|&s| s <= p.payload_off) - 1;
            let (range_off, range_len) = req.ranges[i];
            let within = p.payload_off - starts[i];
            assert!(within + p.len <= range_len, "piece {p:?} leaves its range");
            out.extend((0..p.len).map(|b| (req.server, range_off + within + b, p.buf_off + b)));
        }
    }
    out.sort_unstable();
    out
}

/// The same triples straight from the runs: what was asked for.
fn requested_bytes(runs: &[BrickRun], map: &BrickMap, layout: &Layout) -> Vec<(usize, u64, u64)> {
    let mut out: Vec<(usize, u64, u64)> = runs
        .iter()
        .flat_map(|r| {
            let server = map.server_of(r.brick);
            let at = map.subfile_offset(r.brick, layout) + r.brick_off;
            (0..r.len).map(move |b| (server, at + b, r.buf_off + b))
        })
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every requested byte is planned exactly once — same server, same
    /// subfile byte, same buffer byte — with every piece inside one of its
    /// request's ranges, and the ranges sorted, disjoint and coalesced.
    /// Request combination never changes WHAT is transferred, only HOW:
    /// the general plan moves the same bytes. Self-overlapping accesses
    /// included.
    #[test]
    fn every_requested_byte_is_planned_exactly_once(
        bricks in 4u64..200,
        servers in 1usize..8,
        base in 0u64..2000,
        count in 1u64..40,
        blocklen in 1u64..150,
        stride in 1u64..300,
        exact in any::<bool>(),
        rank in 0usize..16,
    ) {
        let (layout, map, runs) = strided_access(bricks, servers, base, count, blocklen, stride);
        let granularity = if exact { Granularity::Exact } else { Granularity::Brick };
        let combined = plan_list(&runs, &map, &layout, granularity, rank).unwrap();
        let general = plan_general(&runs, &map, &layout, granularity, rank);
        let asked = requested_bytes(&runs, &map, &layout);
        prop_assert_eq!(&planned_bytes(&combined), &asked);
        prop_assert_eq!(&planned_bytes(&general), &asked);
        for req in combined.iter().chain(&general) {
            for w in req.ranges.windows(2) {
                prop_assert!(w[0].0 + w[0].1 < w[1].0, "ranges {:?} touch or overlap", w);
            }
            if exact {
                // Exact ranges carry nothing but requested bytes.
                let useful: std::collections::HashSet<u64> = planned_bytes(std::slice::from_ref(req))
                    .into_iter()
                    .map(|(_, sub, _)| sub)
                    .collect();
                prop_assert_eq!(useful.len() as u64, req.wire_bytes());
            }
        }
    }

    /// Combined plans issue one request per touched server, in the
    /// staggered order: ascending from `rank % servers`, wrapping once.
    #[test]
    fn combined_plan_is_one_request_per_server_staggered_from_rank(
        bricks in 1u64..300,
        servers in 1usize..10,
        base in 0u64..2000,
        count in 1u64..40,
        blocklen in 1u64..150,
        stride in 1u64..300,
        rank in 0usize..32,
    ) {
        let (layout, map, runs) = strided_access(bricks, servers, base, count, blocklen, stride);
        let reqs = plan_list(&runs, &map, &layout, Granularity::Brick, rank).unwrap();
        let mut touched: Vec<usize> = runs.iter().map(|r| map.server_of(r.brick)).collect();
        touched.sort_unstable();
        touched.dedup();
        let start = rank % servers;
        let pivot = touched.partition_point(|&s| s < start);
        touched.rotate_left(pivot);
        let order: Vec<usize> = reqs.iter().map(|r| r.server).collect();
        prop_assert_eq!(order, touched);
    }

    /// The general approach issues one request per touched brick, in
    /// ascending brick order, each to the brick's own server and covering
    /// nothing outside the brick.
    #[test]
    fn general_plan_is_one_request_per_brick_in_brick_order(
        bricks in 1u64..300,
        servers in 1usize..10,
        base in 0u64..2000,
        count in 1u64..40,
        blocklen in 1u64..150,
        stride in 1u64..300,
        exact in any::<bool>(),
        rank in 0usize..32,
    ) {
        let (layout, map, runs) = strided_access(bricks, servers, base, count, blocklen, stride);
        let granularity = if exact { Granularity::Exact } else { Granularity::Brick };
        let reqs = plan_general(&runs, &map, &layout, granularity, rank);
        let mut touched: Vec<u64> = runs.iter().map(|r| r.brick).collect();
        touched.sort_unstable();
        touched.dedup();
        prop_assert_eq!(reqs.len(), touched.len());
        for (req, &brick) in reqs.iter().zip(&touched) {
            prop_assert_eq!(req.server, map.server_of(brick));
            let lo = map.subfile_offset(brick, &layout);
            let hi = lo + layout.brick_len(brick);
            for &(off, len) in &req.ranges {
                prop_assert!(lo <= off && off + len <= hi, "range outside brick {}", brick);
            }
        }
    }
}

// ---------- datatype invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flattened runs are sorted, non-overlapping, and sum to size().
    #[test]
    fn datatype_flatten_well_formed(
        count in 0u64..50,
        blocklen in 1u64..20,
        stride_extra in 0u64..20,
    ) {
        let dt = Datatype::vector(count, blocklen, blocklen + stride_extra);
        let runs = dt.flatten();
        let mut prev_end = 0u64;
        let mut total = 0u64;
        for (i, &(off, len)) in runs.iter().enumerate() {
            if i > 0 {
                prop_assert!(off > prev_end, "runs must be coalesced & ordered");
            }
            prev_end = off + len;
            total += len;
        }
        prop_assert_eq!(total, dt.size());
        if !runs.is_empty() {
            prop_assert_eq!(prev_end, dt.extent());
        }
    }

    /// Subarray flatten equals element-by-element enumeration.
    #[test]
    fn subarray_flatten_matches_enumeration(
        rows in 1u64..20,
        cols in 1u64..20,
        or_ in 0u64..10,
        oc in 0u64..10,
        er in 1u64..10,
        ec in 1u64..10,
        elem in 1u64..5,
    ) {
        let rows = rows.max(or_ + er);
        let cols = cols.max(oc + ec);
        let array = Shape::new(vec![rows, cols]).unwrap();
        let region = Region::new(vec![or_, oc], vec![er, ec]).unwrap();
        let dt = Datatype::subarray(array.clone(), region, elem).unwrap();
        let mut expect: Vec<u64> = Vec::new();
        for r in 0..er {
            for c in 0..ec {
                let lin = array.linearize(&[or_ + r, oc + c]);
                for b in 0..elem {
                    expect.push(lin * elem + b);
                }
            }
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        for (off, len) in dt.flatten() {
            got.extend(off..off + len);
        }
        prop_assert_eq!(got, expect);
    }
}

// ---------- end-to-end round trip (small cases, real servers) ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Write-then-read equality through real TCP servers for arbitrary
    /// interior regions of a multidim file.
    #[test]
    fn e2e_multidim_region_round_trip(
        origin_r in 0u64..24u64,
        origin_c in 0u64..24u64,
        ext_r in 1u64..8u64,
        ext_c in 1u64..8u64,
        seed in 0u64..255,
    ) {
        use dpfs::cluster::Testbed;
        use dpfs::core::Hint;
        let tb = Testbed::unthrottled(3).unwrap();
        let client = tb.client(0, true);
        let shape = Shape::new(vec![32, 32]).unwrap();
        let mut f = client.create(
            "/prop",
            &Hint::multidim(shape, Shape::new(vec![5, 7]).unwrap(), 1),
        ).unwrap();
        let region = Region::new(vec![origin_r, origin_c], vec![ext_r, ext_c]).unwrap();
        let data: Vec<u8> = (0..region.volume())
            .map(|i| ((i + seed) % 251) as u8).collect();
        f.write_region(&region, &data).unwrap();
        let back = f.read_region(&region).unwrap();
        prop_assert_eq!(back, data);
    }
}

// ---------- wire robustness: corrupted frames error, never panic ----------

/// Encode `payload` as a v3 frame if `traced`, else as a v2 frame.
fn encode_frame_version(traced: bool, corr: u64, trace: u64, payload: &[u8]) -> Vec<u8> {
    use dpfs::proto::frame;
    let mut buf = Vec::new();
    if traced {
        frame::write_frame_v3(&mut buf, corr, trace, payload).unwrap();
    } else {
        frame::write_frame_v2(&mut buf, corr, payload).unwrap();
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A frame truncated at ANY interior byte — mid-magic, mid-header,
    /// mid-payload — decodes to a clean error. Reading from a slice means a
    /// short frame hits EOF rather than blocking, so this also proves the
    /// decoder never over-reads.
    #[test]
    fn truncated_frames_error_cleanly(
        traced in any::<bool>(),
        corr in any::<u64>(),
        trace in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut_pick in any::<usize>(),
    ) {
        let buf = encode_frame_version(traced, corr, trace, &payload);
        let cut = cut_pick % buf.len(); // strict prefix: 0..len
        let mut reader = &buf[..cut];
        let res = dpfs::proto::frame::read_frame_any(&mut reader);
        prop_assert!(res.is_err(), "truncated frame decoded: cut {cut}/{}", buf.len());
    }

    /// A single flipped bit anywhere in the frame never panics the decoder,
    /// and can never smuggle a CORRUPTED payload through: CRC-32 detects
    /// every 1-bit payload error, so a successful decode means the payload
    /// survived intact (the flip landed in an unprotected header field like
    /// the correlation or trace ID).
    #[test]
    fn bit_flips_never_panic_or_corrupt_payload(
        traced in any::<bool>(),
        corr in any::<u64>(),
        trace in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        pos_pick in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut buf = encode_frame_version(traced, corr, trace, &payload);
        let pos = pos_pick % buf.len();
        buf[pos] ^= 1 << bit;
        let mut reader = &buf[..];
        if let Ok(f) = dpfs::proto::frame::read_frame_any(&mut reader) {
            prop_assert_eq!(
                &f.payload[..], &payload[..],
                "corrupted payload slipped past the checksum (flipped bit {bit} at {pos})"
            );
        }
    }

    /// `Request::decode` / `Response::decode` never panic, whatever bytes a
    /// confused or malicious peer puts inside a well-formed frame.
    #[test]
    fn message_decode_never_panics_on_garbage(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = dpfs::proto::Request::decode(bytes::Bytes::from(raw.clone()));
        let _ = dpfs::proto::Response::decode(bytes::Bytes::from(raw));
    }

    /// Nor on *nearly* valid bytes: a real encoded request with one flipped
    /// bit or a truncated tail must decode to Ok-or-Err, never a panic —
    /// this is what the server's handler feeds straight off the wire.
    #[test]
    fn message_decode_survives_mutated_encodings(
        subfile in "[a-z/]{1,12}",
        off in any::<u64>(),
        len in 0u64..1_000_000,
        pos_pick in any::<usize>(),
        bit in 0u8..8,
        cut_pick in any::<usize>(),
    ) {
        let req = dpfs::proto::Request::Read { subfile, ranges: vec![(off, len)] };
        let enc = req.encode();
        let mut mutated = enc.to_vec();
        let pos = pos_pick % mutated.len();
        mutated[pos] ^= 1 << bit;
        let _ = dpfs::proto::Request::decode(bytes::Bytes::from(mutated));
        let cut = cut_pick % (enc.len() + 1);
        let _ = dpfs::proto::Request::decode(enc.slice(..cut));
    }
}

// ---------- read-reply validation (hostile-server shapes) ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `expect_list_data` — the one check of a read reply — accepts a
    /// `DataList` iff it carries exactly the bytes the ranges asked for, and
    /// never panics whatever length a hostile server forges. A rejected
    /// payload is a typed error naming the server and both lengths; a reply
    /// of another kind is a server error.
    #[test]
    fn expect_list_data_accepts_a_reply_iff_its_length_is_exact(
        lens in proptest::collection::vec(0u64..4096, 1..8),
        delta in -3i64..=3,
    ) {
        use dpfs::core::conn::expect_list_data;
        use dpfs::core::DpfsError;
        use dpfs::proto::Response;

        let expected: u64 = lens.iter().sum();
        let got = (expected as i64 + delta).max(0) as u64;
        let data = bytes::Bytes::from(vec![0u8; got as usize]);
        match expect_list_data(Response::DataList { data: data.clone() }, expected, "forge00") {
            Ok(out) => {
                prop_assert_eq!(got, expected, "accepted a forged payload");
                prop_assert_eq!(out, data);
            }
            Err(DpfsError::ShortRead { server, expected: e, got: g }) => {
                prop_assert_ne!(got, expected);
                prop_assert_eq!(&server, "forge00");
                prop_assert_eq!((e, g), (expected, got));
            }
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
        let other = Response::Written { bytes: expected };
        prop_assert!(matches!(
            expect_list_data(other, expected, "forge00"),
            Err(DpfsError::Server { .. })
        ));
    }
}

// ---------- cluster snapshot wire format ----------

use dpfs::core::trace::{ClusterSnapshot, HistSnapshot, Histogram, NodeRole, NodeSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pseudo-random snapshot, pure function of `seed`: random node roles,
/// names, counter/gauge/hist rows with arbitrary (unsorted, non-ASCII-
/// hostile) names and values — the decoder must not care.
fn arb_cluster_snapshot(seed: u64, n_nodes: usize) -> ClusterSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let name = |rng: &mut StdRng, tag: &str| {
        let mut s = format!("{tag}{}", rng.gen_range(0u64..1000));
        if rng.gen_bool(0.2) {
            s.push('"'); // exercise escaping-adjacent paths and UTF-8
            s.push('λ');
        }
        s
    };
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let role = match rng.gen_range(0u8..3) {
            0 => NodeRole::Iond,
            1 => NodeRole::Metad,
            _ => NodeRole::Client,
        };
        let counters = (0..rng.gen_range(0usize..4))
            .map(|_| (name(&mut rng, "c"), rng.gen::<u64>()))
            .collect();
        let gauges = (0..rng.gen_range(0usize..3))
            .map(|_| (name(&mut rng, "g"), rng.gen::<u64>()))
            .collect();
        let hists = (0..rng.gen_range(0usize..3))
            .map(|_| {
                let h = Histogram::new();
                for _ in 0..rng.gen_range(0u32..20) {
                    h.record(rng.gen::<u64>() >> rng.gen_range(0u32..63));
                }
                (name(&mut rng, "h"), h.snapshot())
            })
            .collect();
        nodes.push(NodeSnapshot {
            name: name(&mut rng, "node"),
            role,
            counters,
            gauges,
            hists,
        });
    }
    ClusterSnapshot { nodes }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity, for any node mix.
    #[test]
    fn cluster_snapshot_round_trips(seed in any::<u64>(), n_nodes in 0usize..6) {
        let snap = arb_cluster_snapshot(seed, n_nodes);
        let blob = snap.encode();
        prop_assert_eq!(ClusterSnapshot::decode(&blob), Some(snap));
    }

    /// Any unknown version byte decodes to None (forward-compat: readers
    /// refuse rather than misparse), matching the Stats RPC convention.
    #[test]
    fn cluster_snapshot_rejects_unknown_versions(seed in any::<u64>(), version in any::<u8>()) {
        let mut blob = arb_cluster_snapshot(seed, 2).encode();
        prop_assume!(version != blob[0]);
        blob[0] = version;
        prop_assert!(ClusterSnapshot::decode(&blob).is_none());
    }

    /// Every strict prefix cuts a declared section, so truncation decodes
    /// to None — and never panics.
    #[test]
    fn cluster_snapshot_truncation_is_none(seed in any::<u64>(), n_nodes in 1usize..4, cut_ppm in 0u64..1000) {
        let blob = arb_cluster_snapshot(seed, n_nodes).encode();
        let cut = ((blob.len() - 1) as u64 * cut_ppm / 1000) as usize;
        prop_assert!(ClusterSnapshot::decode(&blob[..cut]).is_none());
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn cluster_snapshot_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = ClusterSnapshot::decode(&bytes);
    }

    /// Trailing bytes after the declared sections are ignored, so newer
    /// writers can append.
    #[test]
    fn cluster_snapshot_tolerates_trailing_bytes(seed in any::<u64>(), extra in proptest::collection::vec(any::<u8>(), 1..64)) {
        let snap = arb_cluster_snapshot(seed, 2);
        let mut blob = snap.encode();
        blob.extend_from_slice(&extra);
        prop_assert_eq!(ClusterSnapshot::decode(&blob), Some(snap));
    }
}

/// The numbers in a `Stats` reply are the peer's: bucket counts and
/// counters that sum past `u64::MAX` saturate in percentiles, merges, sums
/// and the JSON rendering instead of overflowing.
#[test]
fn hostile_stats_counts_saturate_instead_of_overflowing() {
    let mut h = HistSnapshot::default();
    h.counts[0] = u64::MAX;
    h.counts[1] = 1;
    h.count = u64::MAX;
    let node = |name: &str| NodeSnapshot {
        name: name.into(),
        role: NodeRole::Iond,
        counters: vec![("io.requests".into(), u64::MAX)],
        gauges: vec![],
        hists: vec![("lat.read".into(), h), ("lat.write".into(), h)],
    };
    let sent = ClusterSnapshot {
        nodes: vec![node("ion00"), node("ion01")],
    };
    let snap = ClusterSnapshot::decode(&sent.encode()).expect("decodes");
    assert!(snap.to_json().contains("\"lat.read\":{\"count\":"));
    let one = snap.nodes[0].hist("lat.read").unwrap();
    assert!(one.p50() <= one.p95() && one.p95() <= one.p99());
    let mut merged = HistSnapshot::default();
    for h in snap.nodes_of(NodeRole::Iond).flat_map(|n| &n.hists) {
        merged.merge(&h.1);
    }
    assert_eq!((merged.counts[0], merged.counts[1]), (u64::MAX, 4));
    assert_eq!(merged.count, u64::MAX);
    assert!(merged.p50() <= merged.p95() && merged.p95() <= merged.p99());
    assert_eq!(snap.counter_sum(NodeRole::Iond, "io.requests"), u64::MAX);
}
