//! File levels, HPF distribution patterns, and the DPFS hint structure.
//!
//! "The hint structure provided by DPFS API is the tool to convey user's
//! knowledge to the low level systems. The most important information in the
//! hint structure is the file level when the file is created." (paper §6)

use crate::error::{DpfsError, Result};
use crate::geometry::Shape;

/// The three DPFS file levels (paper §3). Each level names the striping
/// method used when the file is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileLevel {
    /// Linear striping: the file is a stream of bytes cut into fixed-size
    /// linear bricks (§3.1). Most general; poor for columnar access.
    Linear,
    /// Multidimensional striping: each brick is an N-d tile of the array
    /// (§3.2). Solves the linear level's (*, BLOCK) problem.
    Multidim,
    /// Array striping: each brick is one coarse HPF-style chunk, stored
    /// whole (§3.3). Best for checkpoint-style whole-chunk access.
    Array,
}

impl FileLevel {
    /// Catalog string for this level.
    pub fn as_str(self) -> &'static str {
        match self {
            FileLevel::Linear => "linear",
            FileLevel::Multidim => "multidim",
            FileLevel::Array => "array",
        }
    }

    /// Parse the catalog string.
    pub fn parse(s: &str) -> Result<FileLevel> {
        match s {
            "linear" => Ok(FileLevel::Linear),
            "multidim" => Ok(FileLevel::Multidim),
            "array" => Ok(FileLevel::Array),
            other => Err(DpfsError::InvalidArgument(format!(
                "unknown file level {other:?}"
            ))),
        }
    }
}

/// One dimension of an HPF data distribution (paper §3.3 uses BLOCK and
/// `*`; CYCLIC and BLOCK-CYCLIC complete the HPF set as an extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// `BLOCK`: the dimension is split into `procs` contiguous blocks.
    Block(u64),
    /// `CYCLIC`: elements deal round-robin to `procs` processors.
    Cyclic(u64),
    /// `CYCLIC(b)`: blocks of `b` elements deal round-robin to `procs`.
    BlockCyclic { procs: u64, block: u64 },
    /// `*`: the dimension is not distributed.
    Star,
}

impl Dist {
    /// Number of processors along this dimension (1 for `*`).
    pub fn procs(self) -> u64 {
        match self {
            Dist::Block(p) | Dist::Cyclic(p) => p,
            Dist::BlockCyclic { procs, .. } => procs,
            Dist::Star => 1,
        }
    }
}

/// An HPF distribution pattern such as `(BLOCK, *)`, `(*, BLOCK)` or
/// `(BLOCK, BLOCK)`, one [`Dist`] per array dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HpfPattern(pub Vec<Dist>);

impl HpfPattern {
    /// `(BLOCK, *, ...)` over `ndims` dims with `procs` processors on dim 0.
    pub fn block_star(procs: u64, ndims: usize) -> HpfPattern {
        let mut d = vec![Dist::Star; ndims];
        d[0] = Dist::Block(procs);
        HpfPattern(d)
    }

    /// `(*, ..., BLOCK)` with `procs` processors on the last dim.
    pub fn star_block(procs: u64, ndims: usize) -> HpfPattern {
        let mut d = vec![Dist::Star; ndims];
        d[ndims - 1] = Dist::Block(procs);
        HpfPattern(d)
    }

    /// `(BLOCK, BLOCK)` over a 2-d processor grid `p0 x p1`.
    pub fn block_block(p0: u64, p1: u64) -> HpfPattern {
        HpfPattern(vec![Dist::Block(p0), Dist::Block(p1)])
    }

    /// `(CYCLIC, *, ...)` with `procs` processors on dim 0.
    pub fn cyclic_star(procs: u64, ndims: usize) -> HpfPattern {
        let mut d = vec![Dist::Star; ndims];
        d[0] = Dist::Cyclic(procs);
        HpfPattern(d)
    }

    /// `(CYCLIC(b), *, ...)` with `procs` processors on dim 0.
    pub fn block_cyclic_star(procs: u64, block: u64, ndims: usize) -> HpfPattern {
        let mut d = vec![Dist::Star; ndims];
        d[0] = Dist::BlockCyclic { procs, block };
        HpfPattern(d)
    }

    /// Number of array dimensions.
    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    /// The processor-grid shape: distributed dims contribute their
    /// processor count, `*` contributes 1.
    pub fn grid(&self) -> Shape {
        Shape(self.0.iter().map(|d| d.procs()).collect())
    }

    /// Total number of chunks (= processors = array bricks).
    pub fn num_chunks(&self) -> u64 {
        self.grid().volume()
    }

    /// Render in HPF notation, e.g. `BLOCK,*` or `CYCLIC(4),*`.
    pub fn to_pattern_string(&self) -> String {
        self.0
            .iter()
            .map(|d| match d {
                Dist::Block(_) => "BLOCK".to_string(),
                Dist::Cyclic(_) => "CYCLIC".to_string(),
                Dist::BlockCyclic { block, .. } => format!("CYCLIC({block})"),
                Dist::Star => "*".to_string(),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Reconstruct from the catalog's `(pattern, grid)` pair.
    pub fn from_catalog(pattern: &str, grid: &[i64]) -> Result<HpfPattern> {
        let parts: Vec<&str> = pattern.split(',').collect();
        if parts.len() != grid.len() {
            return Err(DpfsError::InvalidArgument(format!(
                "pattern {pattern:?} rank != grid rank {}",
                grid.len()
            )));
        }
        let dists = parts
            .iter()
            .zip(grid)
            .map(|(p, &g)| {
                if *p == "BLOCK" {
                    Ok(Dist::Block(g as u64))
                } else if *p == "*" {
                    Ok(Dist::Star)
                } else if *p == "CYCLIC" {
                    Ok(Dist::Cyclic(g as u64))
                } else if let Some(rest) = p.strip_prefix("CYCLIC(") {
                    let b: u64 = rest
                        .strip_suffix(')')
                        .and_then(|x| x.parse().ok())
                        .ok_or_else(|| {
                            DpfsError::InvalidArgument(format!("bad distribution {p:?}"))
                        })?;
                    Ok(Dist::BlockCyclic {
                        procs: g as u64,
                        block: b,
                    })
                } else {
                    Err(DpfsError::InvalidArgument(format!(
                        "bad distribution {p:?}"
                    )))
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(HpfPattern(dists))
    }
}

/// One subfile of a file: `(index into the file's server list, subfile
/// name)`.
pub type Subfile = (usize, String);

/// Per-file redundancy policy (extension; ROADMAP item 2). Selected at
/// create time, persisted in the catalog attribute row, and honored by
/// every client that opens the file: writes fan out to the redundant
/// subfiles, and a read aimed at a dead server is reconstructed from the
/// survivors instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RedundancyPolicy {
    /// No redundancy: one subfile per data server (the original layout).
    #[default]
    None,
    /// `k` total copies of every subfile (`k >= 2`): copy `i` of server
    /// `s`'s subfile lives on server `(s + i) mod S` under a derived
    /// subfile name. Survives any `k - 1` server losses.
    Replica(usize),
    /// RAID-4-style XOR parity: data stripes over the first `S - 1`
    /// servers (name order) and the last server holds one parity subfile
    /// whose every byte is the XOR of the data subfiles at that offset.
    /// Survives any single server loss at `1/(S-1)` space overhead.
    XorParity,
}

impl RedundancyPolicy {
    /// Catalog/wire string: `""`, `"replica:K"`, or `"xor"`.
    pub fn as_str(self) -> String {
        match self {
            RedundancyPolicy::None => String::new(),
            RedundancyPolicy::Replica(k) => format!("replica:{k}"),
            RedundancyPolicy::XorParity => "xor".to_string(),
        }
    }

    /// Parse the catalog string (empty = [`RedundancyPolicy::None`]).
    pub fn parse(s: &str) -> Result<RedundancyPolicy> {
        if s.is_empty() {
            return Ok(RedundancyPolicy::None);
        }
        if s == "xor" {
            return Ok(RedundancyPolicy::XorParity);
        }
        if let Some(k) = s.strip_prefix("replica:") {
            let k: usize = k
                .parse()
                .map_err(|_| DpfsError::InvalidArgument(format!("bad replica count in {s:?}")))?;
            if k < 2 {
                return Err(DpfsError::InvalidArgument(format!(
                    "replica policy needs k >= 2, got {k}"
                )));
            }
            return Ok(RedundancyPolicy::Replica(k));
        }
        Err(DpfsError::InvalidArgument(format!(
            "unknown redundancy policy {s:?}"
        )))
    }

    /// How many of a file's `n` servers hold bricks: all of them, except
    /// that under XOR parity the last one holds only the parity subfile.
    pub fn data_servers(self, n: usize) -> usize {
        match self {
            RedundancyPolicy::XorParity => n.saturating_sub(1),
            _ => n,
        }
    }

    /// Copies kept of every data subfile, the primary included.
    pub fn copies(self) -> usize {
        match self {
            RedundancyPolicy::Replica(k) => k,
            _ => 1,
        }
    }

    /// Every subfile a file can have on its servers, as `(server index,
    /// subfile name)` — *the* definition of "the subfiles of a file" that
    /// sync, unlink, rename, parity, reconstruction and fsck all enumerate.
    /// `holds[s]` ([`holders`] of the catalog's brick lists) says whether
    /// the file's `s`-th server was ever assigned a brick: one that was not
    /// was never sent a byte, so it has no primary, its stripe has no
    /// mirrors, and a file none of whose data servers holds a brick has no
    /// parity. Primaries come in server order; under `Replica(k)` each
    /// primary is followed by its `k - 1` mirrors; under `XorParity` the
    /// parity subfile comes last ([`RedundancyPolicy::groups`] cuts the list
    /// accordingly).
    pub fn subfiles(self, path: &str, holds: &[bool]) -> Vec<Subfile> {
        let n = holds.len();
        let mut out: Vec<Subfile> = (0..self.data_servers(n))
            .filter(|&s| holds[s])
            .flat_map(|s| (0..self.copies()).map(move |copy| copy_home(path, s, copy, n)))
            .collect();
        if self == RedundancyPolicy::XorParity && !out.is_empty() {
            out.push((n - 1, parity_subfile(path)));
        }
        out
    }

    /// The protection groups of a file: [`RedundancyPolicy::subfiles`] cut
    /// so that every member of a group is a function of the group's other
    /// members — under `Replica(k)` a stripe's `k` copies, each equal to any
    /// other (a stripe with no bricks has no group); under `XorParity` the
    /// data subfiles and the parity subfile together, each the XOR of all
    /// the others (a data server with no bricks contributes zeros, so
    /// leaving it out changes no byte). An unprotected file has none.
    /// Reconstruction, the parity update and fsck's audit and re-protection
    /// all read the algebra off this one list.
    ///
    /// An XOR group couples every data server, so `holds` must be current
    /// when it leaves one out: fsck passes the lists it just read; a
    /// [`FileHandle`](crate::FileHandle), whose brick map is a snapshot
    /// another handle may have outgrown, passes every server.
    pub fn groups(self, path: &str, holds: &[bool]) -> Vec<Vec<Subfile>> {
        let subfiles = self.subfiles(path, holds);
        match self {
            RedundancyPolicy::None => Vec::new(),
            RedundancyPolicy::Replica(k) => subfiles.chunks(k).map(<[_]>::to_vec).collect(),
            RedundancyPolicy::XorParity if subfiles.is_empty() => Vec::new(),
            RedundancyPolicy::XorParity => vec![subfiles],
        }
    }

    /// The other members of `member`'s protection group — what its bytes can
    /// be rebuilt from (empty for a subfile no group protects).
    pub fn peers(self, path: &str, holds: &[bool], member: &Subfile) -> Vec<Subfile> {
        let mut group = self
            .groups(path, holds)
            .into_iter()
            .find(|g| g.contains(member))
            .unwrap_or_default();
        group.retain(|m| m != member);
        group
    }
}

/// Which of a file's `n` servers the catalog's brick lists say hold a brick
/// — the `holds` of [`RedundancyPolicy::subfiles`]. `bricklists` is in
/// server order and may stop short of `n` (an XOR file's brick map does not
/// cover its parity server, which holds none).
pub fn holders<B>(n: usize, bricklists: impl IntoIterator<Item = impl AsRef<[B]>>) -> Vec<bool> {
    let mut holds: Vec<bool> = bricklists
        .into_iter()
        .map(|list| !list.as_ref().is_empty())
        .collect();
    holds.resize(n, false);
    holds
}

/// Subfile name of replica copy `copy` (1-based) of `path`. The scheme is
/// purely name-derived so every client (and fsck) can find the mirrors
/// without extra metadata rows; [`copy_home`] says which server holds it.
pub fn mirror_subfile(path: &str, copy: usize) -> String {
    format!("{path}#r{copy}")
}

/// Subfile name of the XOR parity sibling of `path`, held by the last
/// server in the file's distribution: `parity[off]` is the XOR of every
/// data subfile's byte at `off` (absent bytes count as zero).
pub fn parity_subfile(path: &str) -> String {
    format!("{path}#p")
}

/// Where copy `copy` of server `s`'s subfile of `path` lives among the
/// file's `n` servers: copy 0 is the primary, on `s` under the path itself;
/// copy `i` rides on server `(s + i) mod n` under the mirror name.
pub fn copy_home(path: &str, s: usize, copy: usize, n: usize) -> Subfile {
    match copy {
        0 => (s, path.to_string()),
        _ => ((s + copy) % n, mirror_subfile(path, copy)),
    }
}

/// Placement (striping) algorithm choice (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// Classic round-robin brick assignment.
    #[default]
    RoundRobin,
    /// The paper's greedy algorithm: weight servers by normalized
    /// performance numbers so fast storage takes proportionally more bricks.
    Greedy,
}

/// Striping geometry, one variant per file level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Striping {
    /// Linear level: brick size in bytes, plus the declared file size in
    /// bytes (bricks are assigned at creation; the file may grow later).
    Linear { brick_bytes: u64, file_bytes: u64 },
    /// Multidim level: global array shape, brick tile shape, element size
    /// in bytes.
    Multidim {
        array: Shape,
        brick: Shape,
        elem_bytes: u64,
    },
    /// Array level: global array shape, HPF pattern, element size in bytes.
    Array {
        array: Shape,
        pattern: HpfPattern,
        elem_bytes: u64,
    },
}

impl Striping {
    /// The file level this striping corresponds to.
    pub fn level(&self) -> FileLevel {
        match self {
            Striping::Linear { .. } => FileLevel::Linear,
            Striping::Multidim { .. } => FileLevel::Multidim,
            Striping::Array { .. } => FileLevel::Array,
        }
    }
}

/// The hint structure passed to `DPFS_Open` at file creation (paper §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hint {
    /// Striping method and geometry — "the most important information".
    pub striping: Striping,
    /// Suggested number of I/O nodes; `None` = use every registered server.
    pub io_nodes: Option<usize>,
    /// Striping algorithm.
    pub placement: Placement,
    /// Owner recorded in the catalog.
    pub owner: String,
    /// Permission bits recorded in the catalog.
    pub permission: i64,
    /// Redundancy policy applied to every subfile of the file.
    pub redundancy: RedundancyPolicy,
}

impl Hint {
    /// A linear-level hint with the given brick size and declared size.
    pub fn linear(brick_bytes: u64, file_bytes: u64) -> Hint {
        Hint {
            striping: Striping::Linear {
                brick_bytes,
                file_bytes,
            },
            io_nodes: None,
            placement: Placement::RoundRobin,
            owner: "dpfs".into(),
            permission: 0o644,
            redundancy: RedundancyPolicy::None,
        }
    }

    /// A multidim-level hint for `array` tiled by `brick` with `elem_bytes`
    /// per element.
    pub fn multidim(array: Shape, brick: Shape, elem_bytes: u64) -> Hint {
        Hint {
            striping: Striping::Multidim {
                array,
                brick,
                elem_bytes,
            },
            io_nodes: None,
            placement: Placement::RoundRobin,
            owner: "dpfs".into(),
            permission: 0o644,
            redundancy: RedundancyPolicy::None,
        }
    }

    /// An array-level hint for `array` distributed by `pattern`.
    pub fn array(array: Shape, pattern: HpfPattern, elem_bytes: u64) -> Hint {
        Hint {
            striping: Striping::Array {
                array,
                pattern,
                elem_bytes,
            },
            io_nodes: None,
            placement: Placement::RoundRobin,
            owner: "dpfs".into(),
            permission: 0o644,
            redundancy: RedundancyPolicy::None,
        }
    }

    /// Set the suggested number of I/O nodes.
    pub fn with_io_nodes(mut self, n: usize) -> Hint {
        self.io_nodes = Some(n);
        self
    }

    /// Set the placement algorithm.
    pub fn with_placement(mut self, p: Placement) -> Hint {
        self.placement = p;
        self
    }

    /// Set the owner.
    pub fn with_owner(mut self, owner: &str) -> Hint {
        self.owner = owner.to_string();
        self
    }

    /// Set the redundancy policy.
    pub fn with_redundancy(mut self, r: RedundancyPolicy) -> Hint {
        self.redundancy = r;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_round_trip() {
        for l in [FileLevel::Linear, FileLevel::Multidim, FileLevel::Array] {
            assert_eq!(FileLevel::parse(l.as_str()).unwrap(), l);
        }
        assert!(FileLevel::parse("nope").is_err());
    }

    #[test]
    fn pattern_grids() {
        assert_eq!(HpfPattern::block_star(4, 2).grid().0, vec![4, 1]);
        assert_eq!(HpfPattern::star_block(4, 2).grid().0, vec![1, 4]);
        assert_eq!(HpfPattern::block_block(2, 2).grid().0, vec![2, 2]);
        assert_eq!(HpfPattern::block_block(2, 2).num_chunks(), 4);
    }

    #[test]
    fn pattern_strings() {
        assert_eq!(HpfPattern::block_star(4, 2).to_pattern_string(), "BLOCK,*");
        assert_eq!(HpfPattern::star_block(8, 2).to_pattern_string(), "*,BLOCK");
        assert_eq!(
            HpfPattern::block_block(2, 4).to_pattern_string(),
            "BLOCK,BLOCK"
        );
    }

    #[test]
    fn pattern_catalog_round_trip() {
        let p = HpfPattern::block_block(2, 4);
        let s = p.to_pattern_string();
        let grid: Vec<i64> = p.grid().0.iter().map(|&x| x as i64).collect();
        let back = HpfPattern::from_catalog(&s, &grid).unwrap();
        assert_eq!(back, p);

        let p = HpfPattern::star_block(8, 3);
        let back = HpfPattern::from_catalog(&p.to_pattern_string(), &[1, 1, 8]).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn from_catalog_rejects_bad_input() {
        assert!(HpfPattern::from_catalog("BLOCK,*", &[4]).is_err());
        assert!(HpfPattern::from_catalog("WEIRD", &[4]).is_err());
        assert!(HpfPattern::from_catalog("CYCLIC(x)", &[4]).is_err());
    }

    #[test]
    fn cyclic_patterns_round_trip_catalog() {
        for p in [
            HpfPattern::cyclic_star(4, 2),
            HpfPattern::block_cyclic_star(3, 16, 2),
            HpfPattern(vec![
                Dist::Cyclic(2),
                Dist::BlockCyclic { procs: 2, block: 8 },
            ]),
        ] {
            let s = p.to_pattern_string();
            let grid: Vec<i64> = p.grid().0.iter().map(|&x| x as i64).collect();
            assert_eq!(HpfPattern::from_catalog(&s, &grid).unwrap(), p, "{s}");
        }
        assert_eq!(
            HpfPattern::cyclic_star(4, 2).to_pattern_string(),
            "CYCLIC,*"
        );
        assert_eq!(
            HpfPattern::block_cyclic_star(3, 16, 2).to_pattern_string(),
            "CYCLIC(16),*"
        );
    }

    #[test]
    fn subfiles_per_policy() {
        let named = |v: &[(usize, &str)]| -> Vec<(usize, String)> {
            v.iter().map(|&(s, name)| (s, name.to_string())).collect()
        };
        let all = [true; 3];
        assert_eq!(
            RedundancyPolicy::None.subfiles("/f", &all),
            named(&[(0, "/f"), (1, "/f"), (2, "/f")])
        );
        // Copy groups are consecutive: primary, then its mirrors, wrapping.
        assert_eq!(
            RedundancyPolicy::Replica(2).subfiles("/f", &all),
            named(&[
                (0, "/f"),
                (1, "/f#r1"),
                (1, "/f"),
                (2, "/f#r1"),
                (2, "/f"),
                (0, "/f#r1"),
            ])
        );
        // The last server holds parity and no primary.
        assert_eq!(
            RedundancyPolicy::XorParity.subfiles("/f", &[true, true, false]),
            named(&[(0, "/f"), (1, "/f"), (2, "/f#p")])
        );
        assert!(RedundancyPolicy::XorParity.subfiles("/f", &[]).is_empty());
        // A lost member is rebuilt from the rest of its group: its stripe's
        // other copies, or every other data subfile plus parity.
        assert!(RedundancyPolicy::None
            .peers("/f", &all, &(1, "/f".into()))
            .is_empty());
        assert_eq!(
            RedundancyPolicy::Replica(2).peers("/f", &all, &(2, "/f".into())),
            named(&[(0, "/f#r1")])
        );
        assert_eq!(
            RedundancyPolicy::Replica(2).peers("/f", &all, &(0, "/f#r1".into())),
            named(&[(2, "/f")])
        );
        assert_eq!(
            RedundancyPolicy::XorParity.peers("/f", &all, &(2, "/f#p".into())),
            named(&[(0, "/f"), (1, "/f")])
        );
        assert_eq!(
            RedundancyPolicy::XorParity.peers("/f", &all, &(0, "/f".into())),
            named(&[(1, "/f"), (2, "/f#p")])
        );
        assert_eq!(RedundancyPolicy::XorParity.data_servers(4), 3);
        assert_eq!(RedundancyPolicy::Replica(3).data_servers(4), 4);
    }

    /// A server whose brick list is empty was never sent a byte: it has no
    /// primary, its stripe no mirrors, and data servers that all hold
    /// nothing leave no parity either.
    #[test]
    fn subfiles_follow_the_brick_lists() {
        let named = |v: &[(usize, &str)]| -> Vec<(usize, String)> {
            v.iter().map(|&(s, name)| (s, name.to_string())).collect()
        };
        let one = [true, false, false, false];
        assert_eq!(
            RedundancyPolicy::None.subfiles("/f", &one),
            named(&[(0, "/f")])
        );
        assert_eq!(
            RedundancyPolicy::Replica(2).subfiles("/f", &[false, false, false, true]),
            named(&[(3, "/f"), (0, "/f#r1")])
        );
        assert_eq!(
            RedundancyPolicy::Replica(2).groups("/f", &[true, false, true, false]),
            vec![
                named(&[(0, "/f"), (1, "/f#r1")]),
                named(&[(2, "/f"), (3, "/f#r1")])
            ]
        );
        assert!(RedundancyPolicy::Replica(2)
            .peers("/f", &one, &(1, "/f".into()))
            .is_empty());
        // The parity server's own row never holds bricks; whatever it says,
        // parity exists iff a data subfile does.
        for last in [false, true] {
            assert_eq!(
                RedundancyPolicy::XorParity.subfiles("/f", &[true, false, false, last]),
                named(&[(0, "/f"), (3, "/f#p")])
            );
            assert!(RedundancyPolicy::XorParity
                .subfiles("/f", &[false, false, false, last])
                .is_empty());
            assert!(RedundancyPolicy::XorParity
                .groups("/f", &[false, false, false, last])
                .is_empty());
        }
        // An absent XOR member is zeros: parity of a one-brick file is
        // rebuilt from the one data subfile, and that subfile from parity.
        assert_eq!(
            RedundancyPolicy::XorParity.peers("/f", &one, &(3, "/f#p".into())),
            named(&[(0, "/f")])
        );
        assert_eq!(
            RedundancyPolicy::XorParity.peers("/f", &one, &(0, "/f".into())),
            named(&[(3, "/f#p")])
        );
    }

    #[test]
    fn hint_builders() {
        let h = Hint::linear(65536, 1 << 20)
            .with_io_nodes(4)
            .with_placement(Placement::Greedy)
            .with_owner("xhshen");
        assert_eq!(h.io_nodes, Some(4));
        assert_eq!(h.placement, Placement::Greedy);
        assert_eq!(h.owner, "xhshen");
        assert_eq!(h.striping.level(), FileLevel::Linear);
    }
}
