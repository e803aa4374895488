//! Request planning: brick runs → per-server list requests.
//!
//! The paper's *request combination* (§4.2): all bricks bound for one
//! server coalesce into a single framed request, and the per-client request
//! sequence is *staggered* — client `k` starts from server `(k mod S)`, so
//! the S combined requests of S clients land on S distinct devices
//! simultaneously. "As these combined bricks are located on the different
//! physical storage devices, the maximum parallelism can be exploited."
//!
//! [`plan_list`] is that planner, and the only one. The paper's *general
//! approach* — one request per touched brick, in brick order, which with
//! round-robin striping makes all clients hammer the same server at once —
//! is the same planner handed one brick's runs at a time, which is what the
//! executor does with [`crate::file::ClientOptions::combine`] off.
//!
//! Reads transfer at brick granularity by default ([`Granularity::Brick`]):
//! the client fetches whole bricks and discards unneeded bytes — exactly the
//! paper's linear-striping behaviour ("only the first two elements of each
//! brick are really useful, the second half will be discarded", §3.2).
//! [`Granularity::Exact`] requests only the needed byte ranges. Writes
//! always use exact ranges (no read-modify-write is ever needed).

use crate::layout::{BrickRun, Layout};
use crate::placement::BrickMap;

/// Read transfer granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Fetch whole bricks, discard unneeded bytes (paper behaviour).
    #[default]
    Brick,
    /// Fetch exactly the needed byte ranges (ablation).
    Exact,
}

/// One payload-byte ↔ user-buffer mapping within a [`ListRequest`].
///
/// A list request's wire payload is the concatenation of its ranges'
/// bytes in order. Each piece names a slice of that payload and where it
/// lives in the user's buffer: for reads the slice scatters *to*
/// `buf_off`, for writes it gathers *from* `buf_off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListPiece {
    /// Byte offset within the concatenated payload.
    pub payload_off: u64,
    /// Byte offset within the user's buffer.
    pub buf_off: u64,
    /// Length in bytes.
    pub len: u64,
}

/// One request bound for one server: the subfile ranges the server will
/// touch, plus the payload↔buffer mapping. Whether the ranges travel as a
/// compact [`dpfs_proto::AccessPattern`] or as an enumerated list is
/// decided per request in `file.rs`, by which encodes smaller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListRequest {
    /// Target server index (into the file's server list).
    pub server: usize,
    /// Sorted, disjoint `(subfile_offset, len)` ranges: runs adjacent or
    /// overlapping in *subfile* space are one range, wherever they sit in
    /// the buffer — the payload is one blob and the pieces carry the
    /// buffer mapping.
    pub ranges: Vec<(u64, u64)>,
    /// Payload bytes useful to the caller, each inside one range. Exact
    /// pieces are ordered, within a brick, by brick offset (ties in run
    /// order); pieces of self-overlapping runs share payload bytes, and a
    /// writer gathering them in this order gives those bytes to the later
    /// piece.
    pub pieces: Vec<ListPiece>,
}

impl ListRequest {
    /// Total bytes this request transfers over the wire (payload length).
    pub fn wire_bytes(&self) -> u64 {
        self.ranges.iter().map(|(_, l)| l).sum()
    }

    /// Bytes actually placed in (or taken from) the user's buffer.
    pub fn useful_bytes(&self) -> u64 {
        self.pieces.iter().map(|p| p.len).sum()
    }
}

/// Add `(off, len)` to a range list built in ascending `off` order,
/// growing the last range when the new one touches or overlaps it.
/// Returns the payload offset at which this range's bytes begin.
fn append_list_range(
    ranges: &mut Vec<(u64, u64)>,
    payload_len: &mut u64,
    off: u64,
    len: u64,
) -> u64 {
    if let Some((prev_off, prev_len)) = ranges.last_mut() {
        if off <= *prev_off + *prev_len {
            let at = *payload_len - *prev_len + (off - *prev_off);
            let grown = (*prev_len).max(off - *prev_off + len);
            *payload_len += grown - *prev_len;
            *prev_len = grown;
            return at;
        }
    }
    ranges.push((off, len));
    let at = *payload_len;
    *payload_len += len;
    at
}

/// Plan `runs`: one request per touched server, staggered from
/// `start_server`.
///
/// Reads pass the configured `granularity` (Brick fetches whole bricks and
/// the pieces skip the discard bytes); writes must pass
/// [`Granularity::Exact`] — writing whole bricks would clobber bytes the
/// caller never supplied.
///
/// One pass, O(runs): run indices are bucketed by server, a bucket is
/// sorted only when its runs are not already in subfile order (every
/// mapper in [`crate::layout`] emits them in it), and the request is built
/// walking the bucket — a constant number of allocations per server.
///
/// Always `Some`: every set of runs plans (self-overlapping runs merge
/// into one range). The `Option` is the signature `examples/benchmark`
/// compiles against.
pub fn plan_list(
    runs: &[BrickRun],
    map: &BrickMap,
    layout: &Layout,
    granularity: Granularity,
    start_server: usize,
) -> Option<Vec<ListRequest>> {
    if runs.is_empty() {
        return Some(Vec::new());
    }
    let servers = map.num_servers();
    let start = start_server % servers;
    let exact = granularity == Granularity::Exact;
    let mut counts = vec![0usize; servers];
    for r in runs {
        counts[map.server_of(r.brick)] += 1;
    }
    let mut buckets: Vec<Vec<usize>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, r) in runs.iter().enumerate() {
        buckets[map.server_of(r.brick)].push(i);
    }
    // Subfile order: ascending slot; within a brick, run order (Brick) or
    // ascending brick offset with ties in run order (Exact).
    let key = |i: usize| {
        let r = &runs[i];
        (map.slot_of(r.brick), if exact { r.brick_off } else { 0 }, i)
    };
    let mut out = Vec::with_capacity(counts.iter().filter(|&&n| n > 0).count());
    // The paper's staggered schedule: servers rotated to begin at `start`.
    for server in (0..servers).map(|k| (start + k) % servers) {
        let bucket = &mut buckets[server];
        if bucket.is_empty() {
            continue;
        }
        if !bucket.is_sorted_by_key(|&i| key(i)) {
            bucket.sort_unstable_by_key(|&i| key(i));
        }
        let mut req = ListRequest {
            server,
            ranges: Vec::with_capacity(if exact { bucket.len() } else { 0 }),
            pieces: Vec::with_capacity(bucket.len()),
        };
        let mut payload_len: u64 = 0;
        // Array-level chunks differ in size, so a chunk's subfile offset is
        // the sum of the chunks before it on its server: carried along the
        // ascending slots, not re-summed per chunk.
        let (mut next_slot, mut prefix) = (0usize, 0u64);
        let mut brick = None;
        // Subfile offset of `brick`, and (Brick) its payload offset.
        let (mut base, mut at) = (0u64, 0u64);
        for &i in bucket.iter() {
            let r = &runs[i];
            if brick != Some(r.brick) {
                brick = Some(r.brick);
                base = match layout {
                    Layout::Array(ar) => {
                        let slot = map.slot_of(r.brick) as usize;
                        let earlier = &map.bricklists()[server][next_slot..slot];
                        prefix += earlier.iter().map(|&b| ar.chunk_len(b)).sum::<u64>();
                        next_slot = slot;
                        prefix
                    }
                    _ => map.subfile_offset(r.brick, layout),
                };
                if !exact {
                    let len = layout.brick_len(r.brick);
                    at = append_list_range(&mut req.ranges, &mut payload_len, base, len);
                }
            }
            let payload_off = if exact {
                let off = base + r.brick_off;
                append_list_range(&mut req.ranges, &mut payload_len, off, r.len)
            } else {
                at + r.brick_off
            };
            req.pieces.push(ListPiece {
                payload_off,
                buf_off: r.buf_off,
                len: r.len,
            });
        }
        out.push(req);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::geometry::Shape;
    use crate::hints::{Dist, HpfPattern};
    use crate::layout::{ArrayLayout, LinearLayout, MultidimLayout, CHUNK_LEN_CALLS};
    use dpfs_meta::placement::{greedy, round_robin};

    /// Figure 3 setting: 32-brick linear file round-robin over 4 servers.
    fn fig3() -> (Layout, BrickMap) {
        let layout = Layout::Linear(LinearLayout::new(64, 32 * 64).unwrap());
        let map = BrickMap::from_assignment(round_robin(32, 4), 4);
        (layout, map)
    }

    /// Runs covering whole bricks `lo..hi`.
    fn whole_brick_runs(layout: &Layout, lo: u64, hi: u64) -> Vec<BrickRun> {
        (lo..hi)
            .map(|b| BrickRun {
                brick: b,
                brick_off: 0,
                buf_off: (b - lo) * layout.brick_len(b),
                len: layout.brick_len(b),
            })
            .collect()
    }

    fn run(brick: u64, brick_off: u64, buf_off: u64, len: u64) -> BrickRun {
        BrickRun {
            brick,
            brick_off,
            buf_off,
            len,
        }
    }

    fn piece(payload_off: u64, buf_off: u64, len: u64) -> ListPiece {
        ListPiece {
            payload_off,
            buf_off,
            len,
        }
    }

    fn plan(runs: &[BrickRun], granularity: Granularity, rank: usize) -> Vec<ListRequest> {
        let (layout, map) = fig3();
        plan_list(runs, &map, &layout, granularity, rank).unwrap()
    }

    #[test]
    fn general_approach_one_request_per_brick() {
        // §4.2: processor 0 accesses bricks 0-7 -> 8 requests, each brick
        // planned alone, in brick order: servers cycle 0,1,2,3,0,1,2,3
        let (layout, _) = fig3();
        let runs = whole_brick_runs(&layout, 0, 8);
        let reqs: Vec<ListRequest> = runs
            .iter()
            .flat_map(|r| plan(std::slice::from_ref(r), Granularity::Brick, 0))
            .collect();
        assert_eq!(reqs.len(), 8);
        let servers: Vec<usize> = reqs.iter().map(|r| r.server).collect();
        assert_eq!(servers, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert!(reqs.iter().all(|r| r.ranges.len() == 1));
    }

    #[test]
    fn combined_approach_one_request_per_server() {
        // §4.2: "there are only 4 requests needed for each processor, much
        // smaller than 8 requests of general approach"
        let (layout, _) = fig3();
        let runs = whole_brick_runs(&layout, 0, 8);
        let reqs = plan(&runs, Granularity::Brick, 0);
        assert_eq!(reqs.len(), 4);
        // processor 0 starts from server 0 with bricks 0 and 4 in one
        // request: slots 0 and 1 of subfile-0, adjacent, so one range —
        // the pieces carry the (far apart) buffer positions
        assert_eq!(reqs[0].server, 0);
        assert_eq!(reqs[0].ranges, vec![(0, 128)]);
        assert_eq!(reqs[0].pieces, vec![piece(0, 0, 64), piece(64, 4 * 64, 64)]);
        assert_eq!(reqs[0].wire_bytes(), 128);
        assert_eq!(reqs[0].useful_bytes(), 128);
        let total: u64 = reqs.iter().map(|r| r.wire_bytes()).sum();
        assert_eq!(total, 8 * 64);
    }

    #[test]
    fn staggered_schedule_matches_paper() {
        // §4.2: "processor 0 starts its access from subfile-0 (brick 0, 4),
        // while processor 1 starts from subfile-1 (brick 9, 13), processor 2
        // from subfile-2 (brick 18, 22) and processor 3 from subfile-3
        // (brick 27, 31)"
        let (layout, _) = fig3();
        for rank in 0..4usize {
            let lo = rank as u64 * 8;
            let runs = whole_brick_runs(&layout, lo, lo + 8);
            let reqs = plan(&runs, Granularity::Brick, rank);
            assert_eq!(
                reqs[0].server, rank,
                "processor {rank} starts at subfile-{rank}"
            );
            // whole-brick runs packed in brick order: a piece's buffer
            // offset names its brick
            let first_bricks: Vec<u64> =
                reqs[0].pieces.iter().map(|p| lo + p.buf_off / 64).collect();
            assert_eq!(reqs[0].wire_bytes(), 2 * 64, "two whole bricks on the wire");
            let expected: Vec<u64> = match rank {
                0 => vec![0, 4],
                1 => vec![9, 13],
                2 => vec![18, 22],
                3 => vec![27, 31],
                _ => unreachable!(),
            };
            assert_eq!(first_bricks, expected);
        }
    }

    #[test]
    fn brick_granularity_fetches_whole_bricks() {
        // 2 useful bytes from brick 0
        let reqs = plan(&[run(0, 10, 0, 2)], Granularity::Brick, 0);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].ranges, vec![(0, 64)]); // whole brick on the wire
        assert_eq!(reqs[0].pieces, vec![piece(10, 0, 2)]); // 2 bytes kept
        assert_eq!(reqs[0].wire_bytes(), 64);
        assert_eq!(reqs[0].useful_bytes(), 2);
    }

    #[test]
    fn exact_granularity_fetches_only_needed() {
        let reqs = plan(&[run(0, 10, 0, 2)], Granularity::Exact, 0);
        assert_eq!(reqs[0].wire_bytes(), 2);
        assert_eq!(reqs[0].ranges, vec![(10, 2)]);
    }

    #[test]
    fn exact_granularity_coalesces_adjacent() {
        let runs = [run(0, 0, 0, 8), run(0, 8, 8, 8), run(0, 32, 16, 4)];
        let reqs = plan(&runs, Granularity::Exact, 0);
        assert_eq!(reqs[0].ranges, vec![(0, 16), (32, 4)]);
        assert_eq!(
            reqs[0].pieces,
            vec![piece(0, 0, 8), piece(8, 8, 8), piece(16, 16, 4)]
        );
    }

    #[test]
    fn rotation_with_absent_servers() {
        // only servers 1 and 3 touched; start at 2 -> order 3, 1
        let runs = [run(1, 0, 0, 64), run(3, 0, 64, 64)];
        let reqs = plan(&runs, Granularity::Brick, 2);
        let servers: Vec<usize> = reqs.iter().map(|r| r.server).collect();
        assert_eq!(servers, vec![3, 1]);
    }

    #[test]
    fn empty_runs_plan_nothing() {
        assert!(plan(&[], Granularity::Brick, 0).is_empty());
        assert!(plan(&[], Granularity::Exact, 0).is_empty());
    }

    #[test]
    fn overlapping_runs_merge_into_one_range() {
        // Runs given out of offset order, the second overlapping the
        // first's bytes 4..8 and a third nested inside: one range, pieces
        // in brick-offset order, payload offsets relative to the range.
        let runs = [run(0, 4, 8, 8), run(0, 0, 0, 8), run(0, 6, 16, 2)];
        let reqs = plan(&runs, Granularity::Exact, 0);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].ranges, vec![(0, 12)]);
        assert_eq!(
            reqs[0].pieces,
            vec![piece(0, 0, 8), piece(4, 8, 8), piece(6, 16, 2)]
        );
        assert_eq!(reqs[0].wire_bytes(), 12);
        assert_eq!(reqs[0].useful_bytes(), 18);
        // A later, disjoint run starts a new range after the merged one.
        let runs = [run(0, 0, 0, 8), run(0, 4, 8, 8), run(0, 20, 16, 4)];
        let reqs = plan(&runs, Granularity::Exact, 0);
        assert_eq!(reqs[0].ranges, vec![(0, 12), (20, 4)]);
        assert_eq!(reqs[0].pieces[2], piece(12, 16, 4));
    }

    /// The planner this module had before the flat one — group by brick,
    /// group bricks by server, sort, emit — kept as the reference the flat
    /// planner must equal request for request.
    fn oracle(
        runs: &[BrickRun],
        map: &BrickMap,
        layout: &Layout,
        granularity: Granularity,
        start_server: usize,
    ) -> Vec<ListRequest> {
        let mut by_brick: BTreeMap<u64, Vec<BrickRun>> = BTreeMap::new();
        for r in runs {
            by_brick.entry(r.brick).or_default().push(*r);
        }
        let mut by_server: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for &brick in by_brick.keys() {
            by_server
                .entry(map.server_of(brick))
                .or_default()
                .push(brick);
        }
        for bricks in by_server.values_mut() {
            bricks.sort_by_key(|&b| map.slot_of(b));
        }
        let present: Vec<usize> = by_server.keys().copied().collect();
        let pivot = present.partition_point(|&s| s < start_server % map.num_servers());
        let mut out = Vec::new();
        for &server in present[pivot..].iter().chain(&present[..pivot]) {
            let mut req = ListRequest {
                server,
                ranges: Vec::new(),
                pieces: Vec::new(),
            };
            let mut payload_len: u64 = 0;
            for &brick in &by_server[&server] {
                let base = map.subfile_offset(brick, layout);
                match granularity {
                    Granularity::Brick => {
                        let at = append_list_range(
                            &mut req.ranges,
                            &mut payload_len,
                            base,
                            layout.brick_len(brick),
                        );
                        req.pieces.extend(
                            by_brick[&brick]
                                .iter()
                                .map(|r| piece(at + r.brick_off, r.buf_off, r.len)),
                        );
                    }
                    Granularity::Exact => {
                        let mut sorted: Vec<&BrickRun> = by_brick[&brick].iter().collect();
                        sorted.sort_by_key(|r| r.brick_off);
                        for r in sorted {
                            let at = append_list_range(
                                &mut req.ranges,
                                &mut payload_len,
                                base + r.brick_off,
                                r.len,
                            );
                            req.pieces.push(piece(at, r.buf_off, r.len));
                        }
                    }
                }
            }
            out.push(req);
        }
        out
    }

    /// One layout of each level, each with bricks of more than one byte
    /// (the array level's chunks differ in size: 10 rows over 4 procs).
    fn level(which: usize) -> Layout {
        let shape = |d: &[u64]| Shape::new(d.to_vec()).unwrap();
        match which {
            0 => Layout::Linear(LinearLayout::new(64, 24 * 64).unwrap()),
            1 => Layout::Multidim(MultidimLayout::new(shape(&[9, 20]), shape(&[2, 4]), 2).unwrap()),
            _ => Layout::Array(
                ArrayLayout::new(
                    shape(&[10, 12]),
                    HpfPattern(vec![Dist::Block(4), Dist::Cyclic(5)]),
                    3,
                )
                .unwrap(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any runs — unsorted, duplicated, self-overlapping — over every
        /// level, placement, granularity and starting server plan exactly
        /// as the reference planner plans them.
        #[test]
        fn plan_list_equals_the_reference_planner(
            which in 0usize..3,
            perf in proptest::collection::vec(1i64..4, 1..6),
            use_greedy in proptest::bool::ANY,
            exact in proptest::bool::ANY,
            start in 0usize..16,
            ascending in proptest::bool::ANY,
            raw in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), 0u64..4096),
                0..48,
            ),
        ) {
            let layout = level(which);
            let bricks = layout.num_bricks();
            let map = if use_greedy {
                BrickMap::from_assignment(greedy(bricks, &perf), perf.len())
            } else {
                BrickMap::from_assignment(round_robin(bricks, perf.len()), perf.len())
            };
            let mut runs: Vec<BrickRun> = raw
                .iter()
                .map(|&(b, off, len, buf_off)| {
                    let brick = b % bricks;
                    let brick_off = off % layout.brick_len(brick);
                    let len = 1 + len % (layout.brick_len(brick) - brick_off);
                    run(brick, brick_off, buf_off, len)
                })
                .collect();
            if ascending {
                // what the mappers emit: the no-sort path
                runs.sort_by_key(|r| (r.brick, r.brick_off));
            }
            let granularity = if exact { Granularity::Exact } else { Granularity::Brick };
            let got = plan_list(&runs, &map, &layout, granularity, start).unwrap();
            prop_assert_eq!(got, oracle(&runs, &map, &layout, granularity, start));
        }
    }

    /// Planning every chunk of an array-level file costs the same per chunk
    /// at 4096 chunks as at 64 — counted in `chunk_len` calls, the work
    /// that was quadratic when each chunk's subfile offset re-summed every
    /// earlier chunk on its server.
    #[test]
    fn array_level_planning_is_linear_in_chunks() {
        let chunk_len_calls_per_chunk = |procs: u64| {
            let layout = Layout::Array(
                ArrayLayout::new(
                    Shape::new(vec![procs * 2, 8]).unwrap(),
                    HpfPattern::block_star(procs, 2),
                    1,
                )
                .unwrap(),
            );
            let map = BrickMap::from_assignment(round_robin(procs, 4), 4);
            let runs = whole_brick_runs(&layout, 0, procs);
            let before = CHUNK_LEN_CALLS.with(|c| c.get());
            let reqs = plan_list(&runs, &map, &layout, Granularity::Exact, 0).unwrap();
            let calls = CHUNK_LEN_CALLS.with(|c| c.get()) - before;
            assert_eq!(reqs, oracle(&runs, &map, &layout, Granularity::Exact, 0));
            calls as f64 / procs as f64
        };
        let (small, large) = (
            chunk_len_calls_per_chunk(64),
            chunk_len_calls_per_chunk(4096),
        );
        assert!(small > 0.0, "the counter counts");
        assert!(
            large <= 3.0 * small,
            "per-chunk planning cost {large} at 4096 chunks vs {small} at 64"
        );
    }
}
