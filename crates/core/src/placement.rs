//! Striping algorithms: assigning bricks to servers (paper §4.1).
//!
//! - [`round_robin`] — the classic baseline: brick `i` goes to server
//!   `i mod S`.
//! - [`greedy`] — the paper's Greedy Striping Algorithm (Figure 8): each
//!   server carries a normalized performance number `P[k]` (1 = fastest);
//!   brick `i` goes to the server minimizing `A[k] + P[k]`, the accumulated
//!   weighted load, so fast storage receives proportionally more bricks.
//!
//! [`BrickMap`] holds the resulting assignment plus the per-server brick
//! lists (the catalog's `bricklist` columns) and the inverse map from brick
//! to `(server, subfile byte offset)`.

use crate::error::{DpfsError, Result};
use crate::layout::Layout;

/// Round-robin assignment of `num_bricks` bricks over `num_servers`.
pub fn round_robin(num_bricks: u64, num_servers: usize) -> Vec<usize> {
    assert!(num_servers > 0, "no servers");
    let mut map = BrickMap::from_assignment(Vec::new(), num_servers);
    map.extend(num_bricks, None)
        .expect("no performance numbers");
    map.assignment
}

/// The paper's greedy algorithm (Figure 8). `perf[k]` is server `k`'s
/// normalized performance number (1 = fastest; larger = slower). Figure 8
/// leaves ties unspecified; breaking them toward the *faster* server (then
/// the lower index) reproduces the brick lists of Figure 9 exactly.
pub fn greedy(num_bricks: u64, perf: &[i64]) -> Vec<usize> {
    assert!(!perf.is_empty(), "no servers");
    assert!(
        perf.iter().all(|&p| p >= 1),
        "performance numbers must be >= 1"
    );
    let mut map = BrickMap::from_assignment(Vec::new(), perf.len());
    map.extend(num_bricks, Some(perf))
        .expect("one number per server");
    map.assignment
}

/// Brick-to-server map for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrickMap {
    /// `assignment[b]` = index of the server owning brick `b`.
    assignment: Vec<usize>,
    /// `per_server[s]` = brick numbers owned by server `s`, in subfile
    /// order (the catalog's `bricklist`).
    per_server: Vec<Vec<u64>>,
    /// `slot[b]` = position of brick `b` within its server's subfile.
    slot: Vec<u64>,
}

impl BrickMap {
    /// Build from an assignment vector over `num_servers` servers.
    pub fn from_assignment(assignment: Vec<usize>, num_servers: usize) -> BrickMap {
        let mut per_server: Vec<Vec<u64>> = vec![Vec::new(); num_servers];
        let mut slot = vec![0u64; assignment.len()];
        for (b, &s) in assignment.iter().enumerate() {
            slot[b] = per_server[s].len() as u64;
            per_server[s].push(b as u64);
        }
        BrickMap {
            assignment,
            per_server,
            slot,
        }
    }

    /// Rebuild from the catalog's per-server brick lists. `order` maps each
    /// bricklist to its server index (lists come back sorted by server
    /// name).
    pub fn from_bricklists<L: AsRef<[i64]>>(lists: &[L]) -> Result<BrickMap> {
        let lists: Vec<&[i64]> = lists.iter().map(AsRef::as_ref).collect();
        let total: usize = lists.iter().map(|l| l.len()).sum();
        let mut assignment = vec![usize::MAX; total];
        let mut slot = vec![0u64; total];
        for (s, list) in lists.iter().enumerate() {
            for (pos, &b) in list.iter().enumerate() {
                let b = b as usize;
                if b >= total || assignment[b] != usize::MAX {
                    return Err(DpfsError::InvalidArgument(format!(
                        "corrupt brick lists: brick {b} duplicated or out of range"
                    )));
                }
                assignment[b] = s;
                slot[b] = pos as u64;
            }
        }
        if assignment.contains(&usize::MAX) {
            return Err(DpfsError::InvalidArgument(
                "corrupt brick lists: missing brick".into(),
            ));
        }
        Ok(BrickMap {
            assignment,
            per_server: lists
                .iter()
                .map(|l| l.iter().map(|&b| b as u64).collect())
                .collect(),
            slot,
        })
    }

    /// Number of bricks mapped.
    pub fn num_bricks(&self) -> u64 {
        self.assignment.len() as u64
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.per_server.len()
    }

    /// The server owning brick `b`.
    pub fn server_of(&self, b: u64) -> usize {
        self.assignment[b as usize]
    }

    /// Brick `b`'s slot (position) within its server's subfile.
    pub fn slot_of(&self, b: u64) -> u64 {
        self.slot[b as usize]
    }

    /// Byte offset of brick `b` within its subfile, for a given layout
    /// (uniform brick sizes make this `slot * brick_len`; array-level
    /// chunks need a prefix sum over the server's earlier bricks).
    pub fn subfile_offset(&self, b: u64, layout: &Layout) -> u64 {
        match layout {
            Layout::Linear(_) | Layout::Multidim(_) => self.slot_of(b) * layout.brick_len(b),
            Layout::Array(_) => {
                let s = self.server_of(b);
                self.per_server[s]
                    .iter()
                    .take(self.slot_of(b) as usize)
                    .map(|&prior| layout.brick_len(prior))
                    .sum()
            }
        }
    }

    /// The per-server brick lists (catalog `bricklist` columns).
    pub fn bricklists(&self) -> &[Vec<u64>] {
        &self.per_server
    }

    /// Per-server brick counts.
    pub fn loads(&self) -> Vec<usize> {
        self.per_server.iter().map(|l| l.len()).collect()
    }

    /// Per-server *weighted* loads: brick count × performance number.
    pub fn weighted_loads(&self, perf: &[i64]) -> Vec<i64> {
        self.loads()
            .iter()
            .zip(perf)
            .map(|(&n, &p)| n as i64 * p)
            .collect()
    }

    /// Extend the map with `extra` bricks, continuing the algorithm from
    /// the bricks already placed: round-robin from the next brick number,
    /// greedy from each server's weighted load. `perf`, when given, holds
    /// one performance number per server of this map and selects greedy.
    /// [`round_robin`] and [`greedy`] are this, over an empty map.
    pub fn extend(&mut self, extra: u64, perf: Option<&[i64]>) -> Result<()> {
        let n = self.per_server.len();
        if let Some(perf) = perf.filter(|perf| perf.len() != n) {
            return Err(DpfsError::InvalidArgument(format!(
                "greedy extension got {} performance numbers for {n} servers",
                perf.len(),
            )));
        }
        // Greedy's state A[k]: the weighted load server k carries so far.
        let mut accumulated = self.weighted_loads(perf.unwrap_or(&[]));
        let start = self.assignment.len() as u64;
        for b in start..start + extra {
            let s = match perf {
                None => (b % n as u64) as usize,
                Some(perf) => {
                    // k minimizing A[k] + P[k]; ties prefer small P[k], then small k
                    let k = (0..n)
                        .min_by_key(|&k| (accumulated[k] + perf[k], perf[k], k))
                        .expect("non-empty");
                    accumulated[k] += perf[k];
                    k
                }
            };
            self.slot.push(self.per_server[s].len() as u64);
            self.per_server[s].push(b);
            self.assignment.push(s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Shape;
    use crate::hints::HpfPattern;
    use crate::layout::{ArrayLayout, Layout, LinearLayout};

    #[test]
    fn round_robin_matches_paper_fig3() {
        // Figure 3: 32 bricks over 4 devices; device 0 gets 0,4,8,...
        let a = round_robin(32, 4);
        let m = BrickMap::from_assignment(a, 4);
        assert_eq!(m.bricklists()[0], vec![0, 4, 8, 12, 16, 20, 24, 28]);
        assert_eq!(m.bricklists()[3], vec![3, 7, 11, 15, 19, 23, 27, 31]);
        assert_eq!(m.loads(), vec![8, 8, 8, 8]);
    }

    #[test]
    fn greedy_matches_paper_fig9() {
        // Figure 9: the 32-brick file of Figure 3 striped by the greedy
        // algorithm over two fast (P=1) and two slow (P=2) servers:
        // server 0 gets 0,2,6,8,12,14,18,20,24,26,30 (11 bricks),
        // server 1 gets 4,10,16,22,28 (5 bricks),
        // server 2 gets 1,3,7,9,13,15,19,21,25,27,31 (11 bricks),
        // server 3 gets 5,11,17,23,29 (5 bricks).
        let a = greedy(32, &[1, 2, 1, 2]);
        let m = BrickMap::from_assignment(a, 4);
        assert_eq!(
            m.bricklists()[0],
            vec![0, 2, 6, 8, 12, 14, 18, 20, 24, 26, 30]
        );
        assert_eq!(m.bricklists()[1], vec![4, 10, 16, 22, 28]);
        assert_eq!(
            m.bricklists()[2],
            vec![1, 3, 7, 9, 13, 15, 19, 21, 25, 27, 31]
        );
        assert_eq!(m.bricklists()[3], vec![5, 11, 17, 23, 29]);
    }

    #[test]
    fn greedy_3x_ratio() {
        // §8.2: "the greedy algorithm will assign class 1 storage as three
        // times number of bricks as class 3" — P = [1, 3]
        let a = greedy(120, &[1, 3]);
        let m = BrickMap::from_assignment(a, 2);
        assert_eq!(m.loads(), vec![90, 30]);
    }

    #[test]
    fn greedy_uniform_perf_is_balanced() {
        let a = greedy(100, &[1, 1, 1, 1]);
        let m = BrickMap::from_assignment(a, 4);
        assert_eq!(m.loads(), vec![25, 25, 25, 25]);
    }

    #[test]
    fn greedy_weighted_loads_stay_balanced() {
        // invariant: max weighted load - min weighted load <= max perf
        let perf = [1i64, 2, 3, 7];
        let a = greedy(500, &perf);
        let m = BrickMap::from_assignment(a, 4);
        let w = m.weighted_loads(&perf);
        let spread = w.iter().max().unwrap() - w.iter().min().unwrap();
        assert!(spread <= 7, "weighted spread {spread} > max perf");
    }

    #[test]
    fn slots_are_subfile_positions() {
        let m = BrickMap::from_assignment(round_robin(8, 4), 4);
        assert_eq!(m.slot_of(0), 0);
        assert_eq!(m.slot_of(4), 1);
        assert_eq!(m.slot_of(7), 1);
        assert_eq!(m.server_of(6), 2);
    }

    #[test]
    fn from_bricklists_round_trip() {
        let a = greedy(32, &[1, 2, 1, 2]);
        let m = BrickMap::from_assignment(a, 4);
        let lists: Vec<Vec<i64>> = m
            .bricklists()
            .iter()
            .map(|l| l.iter().map(|&b| b as i64).collect())
            .collect();
        let m2 = BrickMap::from_bricklists(&lists).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn from_bricklists_rejects_corruption() {
        // duplicate brick
        assert!(BrickMap::from_bricklists(&[vec![0, 1], vec![1]]).is_err());
        // out-of-range brick
        assert!(BrickMap::from_bricklists(&[vec![0, 5], vec![1]]).is_err());
        // missing brick
        assert!(BrickMap::from_bricklists(&[vec![0, 3], vec![2]]).is_err());
    }

    #[test]
    fn subfile_offsets_uniform_bricks() {
        let m = BrickMap::from_assignment(round_robin(8, 4), 4);
        let layout = Layout::Linear(LinearLayout::new(100, 800).unwrap());
        assert_eq!(m.subfile_offset(0, &layout), 0);
        assert_eq!(m.subfile_offset(4, &layout), 100); // slot 1 on server 0
        assert_eq!(m.subfile_offset(5, &layout), 100); // slot 1 on server 1
    }

    #[test]
    fn subfile_offsets_array_chunks_prefix_sum() {
        // 10x4 array, BLOCK over 4 procs: chunk sizes 12,12,12,4 bytes.
        // 2 servers round-robin: server 0 has chunks 0,2 (offsets 0,12);
        // server 1 has chunks 1,3 (offsets 0,12).
        let layout = Layout::Array(
            ArrayLayout::new(
                Shape::new(vec![10, 4]).unwrap(),
                HpfPattern::block_star(4, 2),
                1,
            )
            .unwrap(),
        );
        let m = BrickMap::from_assignment(round_robin(4, 2), 2);
        assert_eq!(m.subfile_offset(0, &layout), 0);
        assert_eq!(m.subfile_offset(2, &layout), 12);
        assert_eq!(m.subfile_offset(1, &layout), 0);
        assert_eq!(m.subfile_offset(3, &layout), 12);
    }

    #[test]
    fn extend_round_robin_continues_pattern() {
        let mut m = BrickMap::from_assignment(round_robin(6, 4), 4);
        m.extend(4, None).unwrap();
        assert_eq!(m.num_bricks(), 10);
        assert_eq!(m.server_of(6), 2);
        assert_eq!(m.server_of(9), 1);
        assert_eq!(m.slot_of(8), 2); // server 0: bricks 0, 4, 8
    }

    #[test]
    fn extend_greedy_preserves_ratio() {
        let perf = [1i64, 3];
        let mut m = BrickMap::from_assignment(greedy(40, &perf), 2);
        m.extend(40, Some(&perf)).unwrap();
        assert_eq!(m.loads(), vec![60, 20]);
    }

    #[test]
    fn extend_rejects_a_perf_list_of_the_wrong_length() {
        // An XOR-parity file's map covers n - 1 data servers; handing it
        // all n numbers used to index past the accumulated loads.
        let mut m = BrickMap::from_assignment(greedy(10, &[1, 1]), 2);
        assert!(m.extend(2, Some(&[1, 1, 1])).is_err());
        assert!(m.extend(2, Some(&[1])).is_err());
        assert_eq!(m.num_bricks(), 10);
    }
}
