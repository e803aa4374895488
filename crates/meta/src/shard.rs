//! Shard map: deterministic routing of namespace paths to metadata shards.
//!
//! The metadata plane can be partitioned across N `dpfs-metad` daemons.
//! Placement is *hash-of-parent-directory*: every file in a directory `d`
//! lives on the shard `fnv1a(d) % shards`, so a `readdir`/`create`/`stat`
//! storm over one directory talks to exactly one shard while distinct
//! directories spread across the fleet. Directory *skeleton* rows (the
//! `dpfs_directory` table) are replicated to every shard by the client so
//! each shard can enforce "parent must exist" locally; a directory's
//! authoritative file list lives only on its home shard.
//!
//! The map itself is tiny — the shard count — and travels on the wire
//! (`MetaOp::GetShardMap` / `MetaResult::ShardMap`) so clients can fetch and
//! cross-check it at mount time.

use crate::catalog::{normalize_path, parent_dir};

/// Description of the metadata shard topology.
///
/// Routing is pure: the same path always maps to the same shard for a
/// given `shards` count, on any machine, in any process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Number of metadata shards (always >= 1).
    pub shards: u32,
}

impl ShardMap {
    /// A map over `shards` daemons (clamped to at least 1).
    pub fn new(shards: u32) -> Self {
        ShardMap {
            shards: shards.max(1),
        }
    }

    /// The degenerate single-shard map: everything routes to shard 0.
    pub fn single() -> Self {
        ShardMap::new(1)
    }

    /// Shard that owns directory `path` (i.e. the file list of `path`).
    ///
    /// The path is normalized first so `/a/b`, `/a//b` and `/a/./b` all
    /// route identically; inputs that fail normalization (relative paths,
    /// escapes above root) are hashed raw so routing is still total and
    /// deterministic.
    pub fn shard_of_dir(&self, path: &str) -> u32 {
        let norm = normalize_path(path).unwrap_or_else(|_| path.to_string());
        (fnv1a(norm.as_bytes()) % u64::from(self.shards)) as u32
    }

    /// Shard that owns file `path`: the home shard of its parent directory.
    pub fn shard_of_file(&self, path: &str) -> u32 {
        let norm = normalize_path(path).unwrap_or_else(|_| path.to_string());
        let parent = parent_dir(&norm).unwrap_or_else(|| "/".to_string());
        (fnv1a(parent.as_bytes()) % u64::from(self.shards)) as u32
    }
}

/// FNV-1a 64-bit. Stable across platforms; this is the routing hash and
/// must never change: every stored entry's home shard depends on it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let m = ShardMap::single();
        for p in ["/", "/a", "/a/b", "/deep/tree/file.dat", "not-absolute"] {
            assert_eq!(m.shard_of_dir(p), 0);
            assert_eq!(m.shard_of_file(p), 0);
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in 1..=8u32 {
            let m = ShardMap::new(shards);
            for p in ["/", "/a", "/a/b/c.txt", "/x/y", "weird//..//p"] {
                let s = m.shard_of_file(p);
                assert!(s < shards);
                assert_eq!(s, m.shard_of_file(p));
            }
        }
    }

    #[test]
    fn files_share_their_parent_directorys_shard() {
        let m = ShardMap::new(5);
        let home = m.shard_of_dir("/data/run7");
        assert_eq!(m.shard_of_file("/data/run7/a.dat"), home);
        assert_eq!(m.shard_of_file("/data/run7/b.dat"), home);
        // Normalization folds aliases of the same path together.
        assert_eq!(m.shard_of_file("/data//run7/./c.dat"), home);
    }

    #[test]
    fn zero_count_is_clamped() {
        let m = ShardMap::new(0);
        assert_eq!(m.shards, 1);
    }

    #[test]
    fn distinct_directories_spread_across_shards() {
        let m = ShardMap::new(4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(m.shard_of_dir(&format!("/dir{i}")));
        }
        assert_eq!(seen.len(), 4, "64 directories should cover all 4 shards");
    }
}
