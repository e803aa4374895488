//! Brick addressing: which server holds a brick, and where in its subfile.
//!
//! Which server *gets* each brick — the paper's round-robin and greedy
//! striping (§4.1) — is decided by the metadata shard, beside the registry
//! those algorithms read (`dpfs_meta::placement`), and stored as per-server
//! brick lists (the catalog's `bricklist` columns). [`BrickMap`] holds
//! those lists plus the inverse map from brick to `(server, subfile byte
//! offset)`.

use crate::error::{DpfsError, Result};
use crate::layout::Layout;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Shape;
    use crate::hints::HpfPattern;
    use crate::layout::{ArrayLayout, Layout, LinearLayout};
    use dpfs_meta::placement::{greedy, round_robin};

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
}
