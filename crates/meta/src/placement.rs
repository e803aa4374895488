//! Brick placement (paper §4.1): which server holds each brick of a file.
//!
//! - [`round_robin`] — the classic baseline: brick `i` goes to server
//!   `i mod S`.
//! - [`greedy`] — the paper's Greedy Striping Algorithm (Figure 8): each
//!   server carries a normalized performance number `P[k]` (1 = fastest);
//!   brick `i` goes to the server minimizing `A[k] + P[k]`, the accumulated
//!   weighted load, so fast storage receives proportionally more bricks.
//!
//! Both are a function of the `dpfs_server` table, so they run where it
//! lives: the metadata shard plans a file's bricks inside the transaction
//! that creates it ([`crate::Catalog::create_file`]) or grows it
//! ([`crate::Catalog::extend_distribution`]), over its replica of the
//! registry. The plan is a list of brick numbers per server — the catalog's
//! `bricklist` columns — in subfile order.

use crate::catalog::FileAttrRow;
use crate::error::{MetaError, Result};

/// The most bricks a file may have: its brick lists travel in one reply
/// (a 64 MiB frame at 8 bytes a brick), and the shard places no more than
/// it could answer with, whatever a request asks for.
pub const MAX_BRICKS: u64 = 1 << 23;

/// Round-robin assignment of `num_bricks` bricks over `num_servers`:
/// `assignment[b]` is the index of the server owning brick `b`.
pub fn round_robin(num_bricks: u64, num_servers: usize) -> Vec<usize> {
    assert!(num_servers > 0, "no servers");
    let mut lists = vec![Vec::new(); num_servers];
    extend(&mut lists, num_bricks, None).expect("no performance numbers");
    assignment(&lists)
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
    let mut lists = vec![Vec::new(); perf.len()];
    extend(&mut lists, num_bricks, Some(perf)).expect("one number per server");
    assignment(&lists)
}

/// Grow per-server brick lists to at least `target` bricks, continuing the
/// algorithm from the bricks already placed: round-robin from the next
/// brick number, greedy from each server's weighted load. `perf`, when
/// given, holds one performance number per list and selects greedy. Lists
/// that already hold `target` bricks are left as they are; a `target` over
/// [`MAX_BRICKS`] is refused.
pub fn extend(lists: &mut [Vec<i64>], target: u64, perf: Option<&[i64]>) -> Result<()> {
    let n = lists.len();
    if n == 0 {
        return Err(MetaError::InvalidArgument(
            "no data servers to place bricks on".into(),
        ));
    }
    if target > MAX_BRICKS {
        return Err(MetaError::InvalidArgument(format!(
            "{target} bricks are more than the {MAX_BRICKS} a file may have"
        )));
    }
    if let Some(perf) = perf.filter(|perf| perf.len() != n) {
        return Err(MetaError::InvalidArgument(format!(
            "greedy extension got {} performance numbers for {n} servers",
            perf.len(),
        )));
    }
    // Greedy's state A[k]: the weighted load server k carries so far.
    let mut accumulated: Vec<i64> = match perf {
        Some(perf) => lists
            .iter()
            .zip(perf)
            .map(|(l, &p)| l.len() as i64 * p)
            .collect(),
        None => Vec::new(),
    };
    let start: u64 = lists.iter().map(|l| l.len() as u64).sum();
    for b in start..target.max(start) {
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
        lists[s].push(b as i64);
    }
    Ok(())
}

/// The assignment vector brick lists spell: entry `b` is the index of the
/// list holding brick `b`.
fn assignment(lists: &[Vec<i64>]) -> Vec<usize> {
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut out = vec![0; total];
    for (s, list) in lists.iter().enumerate() {
        for &b in list {
            out[b as usize] = s;
        }
    }
    out
}

/// How a file's servers are used, from its attribute row: how many of its
/// `n` servers hold bricks (under XOR parity the last one, in name order,
/// holds only the parity subfile), refusing a policy `n` servers cannot
/// carry.
pub(crate) fn data_servers(redundancy: &str, n: usize) -> Result<usize> {
    let bad = |m: String| Err(MetaError::InvalidArgument(m));
    match redundancy {
        "" => Ok(n),
        "xor" if n < 2 => bad("xor parity needs at least 2 servers (1 data + 1 parity)".into()),
        "xor" => Ok(n - 1),
        _ => match redundancy.strip_prefix("replica:").map(str::parse::<usize>) {
            Some(Ok(k)) if k < 2 || k > n => bad(format!(
                "replica policy needs 2 <= k <= {n} servers, got k = {k}"
            )),
            Some(Ok(_)) => Ok(n),
            _ => bad(format!("unknown redundancy policy {redundancy:?}")),
        },
    }
}

/// Whether a file's placement is greedy (`true`) or round-robin.
pub(crate) fn is_greedy(placement: &str) -> Result<bool> {
    match placement {
        "round_robin" => Ok(false),
        "greedy" => Ok(true),
        other => Err(MetaError::InvalidArgument(format!(
            "unknown placement {other:?}"
        ))),
    }
}

/// The number of bricks a new file's geometry needs: a linear file's
/// declared size in bricks (at least one), a multidimensional file's tile
/// grid, an array file's processor grid (one chunk per processor).
pub(crate) fn bricks_for(attr: &FileAttrRow) -> Result<u64> {
    let bad = || {
        MetaError::InvalidArgument(format!(
            "{} file {} has no brick geometry",
            attr.filelevel, attr.filename
        ))
    };
    let positive = |x: i64| u64::try_from(x).ok().filter(|&x| x > 0).ok_or_else(bad);
    match attr.filelevel.as_str() {
        "linear" => {
            let brick = positive(attr.stripe_size)?;
            let size = u64::try_from(attr.size).map_err(|_| bad())?;
            Ok(size.div_ceil(brick).max(1))
        }
        "multidim" if attr.dimsize.len() == attr.stripe_dims.len() => attr
            .dimsize
            .iter()
            .zip(&attr.stripe_dims)
            .try_fold(1u64, |bricks, (&d, &t)| {
                let along = positive(d)?.div_ceil(positive(t)?);
                bricks.checked_mul(along).ok_or_else(bad)
            }),
        "array" => attr.stripe_dims.iter().try_fold(1u64, |bricks, &p| {
            bricks.checked_mul(positive(p)?).ok_or_else(bad)
        }),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The brick lists an assignment over `servers` spells.
    fn lists(assignment: &[usize], servers: usize) -> Vec<Vec<i64>> {
        let mut out = vec![Vec::new(); servers];
        for (b, &s) in assignment.iter().enumerate() {
            out[s].push(b as i64);
        }
        out
    }

    fn loads(lists: &[Vec<i64>]) -> Vec<usize> {
        lists.iter().map(Vec::len).collect()
    }

    #[test]
    fn round_robin_matches_paper_fig3() {
        // Figure 3: 32 bricks over 4 devices; device 0 gets 0,4,8,...
        let m = lists(&round_robin(32, 4), 4);
        assert_eq!(m[0], vec![0, 4, 8, 12, 16, 20, 24, 28]);
        assert_eq!(m[3], vec![3, 7, 11, 15, 19, 23, 27, 31]);
        assert_eq!(loads(&m), vec![8, 8, 8, 8]);
    }

    #[test]
    fn greedy_matches_paper_fig9() {
        // Figure 9: the 32-brick file of Figure 3 striped by the greedy
        // algorithm over two fast (P=1) and two slow (P=2) servers:
        // server 0 gets 0,2,6,8,12,14,18,20,24,26,30 (11 bricks),
        // server 1 gets 4,10,16,22,28 (5 bricks),
        // server 2 gets 1,3,7,9,13,15,19,21,25,27,31 (11 bricks),
        // server 3 gets 5,11,17,23,29 (5 bricks).
        let m = lists(&greedy(32, &[1, 2, 1, 2]), 4);
        assert_eq!(m[0], vec![0, 2, 6, 8, 12, 14, 18, 20, 24, 26, 30]);
        assert_eq!(m[1], vec![4, 10, 16, 22, 28]);
        assert_eq!(m[2], vec![1, 3, 7, 9, 13, 15, 19, 21, 25, 27, 31]);
        assert_eq!(m[3], vec![5, 11, 17, 23, 29]);
    }

    #[test]
    fn greedy_3x_ratio() {
        // §8.2: "the greedy algorithm will assign class 1 storage as three
        // times number of bricks as class 3" — P = [1, 3]
        assert_eq!(loads(&lists(&greedy(120, &[1, 3]), 2)), vec![90, 30]);
    }

    #[test]
    fn greedy_uniform_perf_is_balanced() {
        let m = lists(&greedy(100, &[1, 1, 1, 1]), 4);
        assert_eq!(loads(&m), vec![25, 25, 25, 25]);
    }

    #[test]
    fn greedy_weighted_loads_stay_balanced() {
        // invariant: max weighted load - min weighted load <= max perf
        let perf = [1i64, 2, 3, 7];
        let m = lists(&greedy(500, &perf), 4);
        let w: Vec<i64> = loads(&m)
            .iter()
            .zip(perf)
            .map(|(&n, p)| n as i64 * p)
            .collect();
        let spread = w.iter().max().unwrap() - w.iter().min().unwrap();
        assert!(spread <= 7, "weighted spread {spread} > max perf");
    }

    #[test]
    fn extend_round_robin_continues_pattern() {
        let mut m = lists(&round_robin(6, 4), 4);
        extend(&mut m, 10, None).unwrap();
        assert_eq!(m[2], vec![2, 6]);
        assert_eq!(m[1], vec![1, 5, 9]);
        assert_eq!(m[0], vec![0, 4, 8]); // brick 8 takes slot 2
                                         // Growing to a count already reached changes nothing.
        let before = m.clone();
        extend(&mut m, 7, None).unwrap();
        assert_eq!(m, before);
    }

    #[test]
    fn extend_greedy_preserves_ratio() {
        let perf = [1i64, 3];
        let mut m = lists(&greedy(40, &perf), 2);
        extend(&mut m, 80, Some(&perf)).unwrap();
        assert_eq!(loads(&m), vec![60, 20]);
    }

    #[test]
    fn extend_rejects_a_perf_list_of_the_wrong_length() {
        // An XOR-parity file's map covers n - 1 data servers; handing it
        // all n numbers used to index past the accumulated loads.
        let mut m = lists(&greedy(10, &[1, 1]), 2);
        assert!(extend(&mut m, 12, Some(&[1, 1, 1])).is_err());
        assert!(extend(&mut m, 12, Some(&[1])).is_err());
        assert!(extend(&mut [], 12, None).is_err());
        assert!(extend(&mut m, MAX_BRICKS + 1, None).is_err());
        assert_eq!(loads(&m).iter().sum::<usize>(), 10);
    }

    #[test]
    fn a_policy_its_servers_cannot_carry_is_refused() {
        let refused = |r: Result<usize>| matches!(r, Err(MetaError::InvalidArgument(_)));
        assert_eq!(data_servers("", 3).unwrap(), 3);
        assert_eq!(data_servers("xor", 3).unwrap(), 2);
        assert_eq!(data_servers("replica:3", 3).unwrap(), 3);
        assert!(refused(data_servers("xor", 1)));
        assert!(refused(data_servers("replica:4", 3)));
        assert!(refused(data_servers("replica:1", 3)));
        assert!(refused(data_servers("mirror", 3)));
        assert!(is_greedy("greedy").unwrap() && !is_greedy("round_robin").unwrap());
        assert!(is_greedy("fastest").is_err());
    }

    #[test]
    fn brick_counts_follow_the_geometry() {
        let attr = |level: &str, size, dimsize: &[i64], stripe_dims: &[i64], stripe| FileAttrRow {
            filename: "/f".into(),
            owner: String::new(),
            permission: 0,
            size,
            filelevel: level.into(),
            dims: dimsize.len() as i64,
            dimsize: dimsize.to_vec(),
            stripe_dims: stripe_dims.to_vec(),
            stripe_size: stripe,
            pattern: String::new(),
            placement: "round_robin".into(),
            redundancy: String::new(),
        };
        assert_eq!(bricks_for(&attr("linear", 0, &[], &[], 4096)).unwrap(), 1);
        assert_eq!(
            bricks_for(&attr("linear", 4097, &[], &[], 4096)).unwrap(),
            2
        );
        let tiles = attr("multidim", 0, &[1024, 2048], &[256, 300], 8);
        assert_eq!(bricks_for(&tiles).unwrap(), 4 * 7);
        assert_eq!(
            bricks_for(&attr("array", 0, &[64, 64], &[4, 1], 8)).unwrap(),
            4
        );
        for bad in [
            attr("linear", 10, &[], &[], 0),
            attr("multidim", 0, &[8], &[2, 2], 1),
            attr("multidim", 0, &[8, 8], &[0, 2], 1),
            attr("array", 0, &[8], &[0], 1),
            attr("striped", 0, &[], &[], 1),
        ] {
            assert!(bricks_for(&bad).is_err(), "{bad:?}");
        }
    }
}
