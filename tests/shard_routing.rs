//! Property tests for the metadata shard map: routing must be total
//! (every path lands on a shard in range), deterministic, stable across
//! the wire (a map fetched from a daemon routes identically to the one
//! the daemon holds), and directory-cohesive (a file always co-routes
//! with its parent directory, which is what makes readdir single-shard).

use proptest::prelude::*;

use dpfs::meta::ShardMap;
use dpfs::proto::{MetaResult, Response};

/// Up to three generated segments, truncated to `depth`.
fn segs(depth: usize, s1: &str, s2: &str, s3: &str) -> Vec<String> {
    [s1, s2, s3][..depth]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// An absolute path from segments; `decor` exercises un-normalized
/// spellings (trailing slash, duplicate slashes, a leading `.` segment).
fn join_path(segs: &[String], decor: usize) -> String {
    let base = format!("/{}", segs.join("/"));
    match decor % 4 {
        0 => base,
        1 => format!("{base}/"),
        2 => base.replace('/', "//"),
        _ => format!("/./{}", segs.join("/")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every shard id the map produces is in `0..shards`, for any path —
    /// normalized or not — and any plane width.
    #[test]
    fn routing_is_total_and_in_range(
        shards in 1u32..9,
        depth in 1usize..4,
        s1 in "[a-zA-Z0-9._-]{1,10}",
        s2 in "[a-zA-Z0-9._-]{1,10}",
        s3 in "[a-zA-Z0-9._-]{1,10}",
        decor in 0usize..4,
    ) {
        let map = ShardMap::new(shards);
        let path = join_path(&segs(depth, &s1, &s2, &s3), decor);
        prop_assert!(map.shard_of_dir(&path) < shards);
        prop_assert!(map.shard_of_file(&path) < shards);
    }

    /// The same path always routes to the same shard after the map's width
    /// round trips through the wire codec inside the shard-stamped
    /// `Response::Meta` envelope a daemon sends.
    #[test]
    fn routing_survives_wire_round_trips(
        shards in 1u32..9,
        reply_shard in 0u32..8,
        depth in 1usize..4,
        s1 in "[a-zA-Z0-9._-]{1,10}",
        s2 in "[a-zA-Z0-9._-]{1,10}",
        s3 in "[a-zA-Z0-9._-]{1,10}",
    ) {
        let sent = Response::Meta {
            shard: reply_shard,
            result: MetaResult::ShardMap { shards },
        };
        let got = Response::decode(sent.encode()).unwrap();
        let Response::Meta {
            shard: got_shard,
            result: MetaResult::ShardMap { shards: got_shards },
        } = got else {
            return Err(TestCaseError::fail(format!("wrong shape: {got:?}")));
        };
        prop_assert_eq!(got_shard, reply_shard);
        let local = ShardMap::new(shards);
        let wired = ShardMap::new(got_shards);
        let path = join_path(&segs(depth, &s1, &s2, &s3), 0);
        prop_assert_eq!(local.shard_of_dir(&path), wired.shard_of_dir(&path));
        prop_assert_eq!(local.shard_of_file(&path), wired.shard_of_file(&path));
    }

    /// A file routes to its parent directory's shard, however the path is
    /// decorated — the invariant that keeps a directory's files on one
    /// shard. (Segments here are dot-free so none collapses under
    /// normalization and changes the parent on purpose.)
    #[test]
    fn files_co_route_with_their_parent_directory(
        shards in 1u32..9,
        depth in 1usize..3,
        s1 in "[a-zA-Z0-9_-]{1,10}",
        s2 in "[a-zA-Z0-9_-]{1,10}",
        file in "[a-zA-Z0-9_-]{1,10}",
        decor in 0usize..4,
    ) {
        let map = ShardMap::new(shards);
        let dir_segs = segs(depth, &s1, &s2, "");
        let dir = join_path(&dir_segs, 0);
        let mut file_segs = dir_segs.clone();
        file_segs.push(file);
        let path = join_path(&file_segs, decor);
        prop_assert_eq!(map.shard_of_file(&path), map.shard_of_dir(&dir));
    }
}
