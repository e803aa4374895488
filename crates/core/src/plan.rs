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

use std::collections::BTreeMap;

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
    /// `(brick, payload_off)` of every whole brick in the payload — what a
    /// brick cache fills from. [`Granularity::Brick`] only.
    pub bricks: Vec<(u64, u64)>,
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
    // Group runs by brick, preserving run order within each brick.
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
    // within a server, subfile order == slot order
    for bricks in by_server.values_mut() {
        bricks.sort_by_key(|&b| map.slot_of(b));
    }
    let mut out = Vec::with_capacity(by_server.len());
    for server in rotated_servers(by_server.keys().copied(), map.num_servers(), start_server) {
        let mut req = ListRequest {
            server,
            ranges: Vec::new(),
            pieces: Vec::new(),
            bricks: Vec::new(),
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
                    req.bricks.push((brick, at));
                    req.pieces
                        .extend(by_brick[&brick].iter().map(|r| ListPiece {
                            payload_off: at + r.brick_off,
                            buf_off: r.buf_off,
                            len: r.len,
                        }));
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
                        req.pieces.push(ListPiece {
                            payload_off: at,
                            buf_off: r.buf_off,
                            len: r.len,
                        });
                    }
                }
            }
        }
        out.push(req);
    }
    Some(out)
}

/// Rotate server indices so the sequence begins at `start`: the paper's
/// staggered schedule.
fn rotated_servers(
    servers: impl Iterator<Item = usize>,
    num_servers: usize,
    start: usize,
) -> Vec<usize> {
    let mut present: Vec<usize> = servers.collect();
    present.sort_unstable();
    present.dedup();
    let start = if num_servers == 0 {
        0
    } else {
        start % num_servers
    };
    let pivot = present.partition_point(|&s| s < start);
    let mut out = Vec::with_capacity(present.len());
    out.extend_from_slice(&present[pivot..]);
    out.extend_from_slice(&present[..pivot]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LinearLayout;
    use crate::placement::round_robin;

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
        assert_eq!(reqs[0].bricks, vec![(0, 0), (4, 64)]);
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
            let first_bricks: Vec<u64> = reqs[0].bricks.iter().map(|&(b, _)| b).collect();
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
        assert!(reqs[0].bricks.is_empty());
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
}
