//! File layouts: mapping accesses to bricks for the three file levels.
//!
//! "A striping method decides the shape and size of a striping unit which is
//! the basic accessing unit and building block of a DPFS file" (paper §3).
//! A DPFS file is a sequence of bricks numbered from zero; this module
//! computes, for any access, exactly which byte ranges of which bricks are
//! touched and where they land in the user's buffer.
//!
//! - [`LinearLayout`] — §3.1: bricks are contiguous byte runs of the linear
//!   file.
//! - [`MultidimLayout`] — §3.2: bricks are N-d tiles of the array; solves
//!   the columnar-access explosion of linear striping (8×8 example of
//!   Figures 5/6, 64K×64K example of §3.2).
//! - [`ArrayLayout`] — §3.3: bricks are whole HPF chunks, stored as integral
//!   units for checkpoint-style access.

use crate::error::{DpfsError, Result};
use crate::geometry::{Region, Shape};
use crate::hints::{Dist, FileLevel, HpfPattern, Striping};

/// One contiguous transfer between a brick and the user's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrickRun {
    /// Brick number within the DPFS file.
    pub brick: u64,
    /// Byte offset within the brick.
    pub brick_off: u64,
    /// Byte offset within the user's buffer.
    pub buf_off: u64,
    /// Transfer length in bytes.
    pub len: u64,
}

/// A file layout: one of the three striping methods, with its geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    Linear(LinearLayout),
    Multidim(MultidimLayout),
    Array(ArrayLayout),
}

impl Layout {
    /// Build a layout from striping hints, validating geometry.
    pub fn from_striping(s: &Striping) -> Result<Layout> {
        match s {
            Striping::Linear {
                brick_bytes,
                file_bytes,
            } => Ok(Layout::Linear(LinearLayout::new(
                *brick_bytes,
                *file_bytes,
            )?)),
            Striping::Multidim {
                array,
                brick,
                elem_bytes,
            } => Ok(Layout::Multidim(MultidimLayout::new(
                array.clone(),
                brick.clone(),
                *elem_bytes,
            )?)),
            Striping::Array {
                array,
                pattern,
                elem_bytes,
            } => Ok(Layout::Array(ArrayLayout::new(
                array.clone(),
                pattern.clone(),
                *elem_bytes,
            )?)),
        }
    }

    /// The file level of this layout.
    pub fn level(&self) -> FileLevel {
        match self {
            Layout::Linear(_) => FileLevel::Linear,
            Layout::Multidim(_) => FileLevel::Multidim,
            Layout::Array(_) => FileLevel::Array,
        }
    }

    /// Number of bricks in the file.
    pub fn num_bricks(&self) -> u64 {
        match self {
            Layout::Linear(l) => l.num_bricks(),
            Layout::Multidim(l) => l.num_bricks(),
            Layout::Array(l) => l.num_bricks(),
        }
    }

    /// On-disk size in bytes of brick `b` (uniform for linear/multidim;
    /// per-chunk for array level).
    pub fn brick_len(&self, b: u64) -> u64 {
        match self {
            Layout::Linear(l) => l.brick_bytes,
            Layout::Multidim(l) => l.brick_volume_bytes(),
            Layout::Array(l) => l.chunk_len(b),
        }
    }

    /// Total logical file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        match self {
            Layout::Linear(l) => l.file_bytes,
            Layout::Multidim(l) => l.array.volume() * l.elem_bytes,
            Layout::Array(l) => l.array.volume() * l.elem_bytes,
        }
    }
}

// ---------------------------------------------------------------- linear

/// Linear striping (paper §3.1): the file is a byte stream cut into
/// fixed-size bricks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearLayout {
    /// Brick size in bytes.
    pub brick_bytes: u64,
    /// Declared file size in bytes (bricks assigned at creation; may grow).
    pub file_bytes: u64,
}

impl LinearLayout {
    /// Construct, rejecting zero brick size.
    pub fn new(brick_bytes: u64, file_bytes: u64) -> Result<LinearLayout> {
        if brick_bytes == 0 {
            return Err(DpfsError::InvalidArgument("zero brick size".into()));
        }
        Ok(LinearLayout {
            brick_bytes,
            file_bytes,
        })
    }

    /// Bricks needed for the declared size (at least 1).
    pub fn num_bricks(&self) -> u64 {
        bricks_for(self.file_bytes, self.brick_bytes)
    }

    /// Map a byte range (`file_off`, `len`) to brick runs; `buf_base` is
    /// the buffer offset corresponding to `file_off`.
    pub fn map_bytes(&self, file_off: u64, len: u64, buf_base: u64) -> Vec<BrickRun> {
        let mut runs = Vec::new();
        self.map_bytes_into(file_off, len, buf_base, &mut runs);
        runs
    }

    /// [`LinearLayout::map_bytes`], appending to the caller's `runs`: a
    /// many-range access (a datatype) builds one list, not one per range.
    pub fn map_bytes_into(&self, file_off: u64, len: u64, buf_base: u64, runs: &mut Vec<BrickRun>) {
        let mut off = file_off;
        let end = file_off + len;
        while off < end {
            let brick = off / self.brick_bytes;
            let brick_off = off % self.brick_bytes;
            let take = (self.brick_bytes - brick_off).min(end - off);
            runs.push(BrickRun {
                brick,
                brick_off,
                buf_off: buf_base + (off - file_off),
                len: take,
            });
            off += take;
        }
    }
}

/// Ceil-divide bytes into bricks, minimum 1.
pub fn bricks_for(bytes: u64, brick_bytes: u64) -> u64 {
    bytes.div_ceil(brick_bytes).max(1)
}

// ------------------------------------------------------------- multidim

/// Multidimensional striping (paper §3.2): each brick is an N-d tile.
/// Edge tiles that stick out past the array boundary are stored padded, so
/// every brick occupies the same on-disk size and addressing stays uniform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultidimLayout {
    /// Global array shape (elements).
    pub array: Shape,
    /// Brick tile shape (elements).
    pub brick: Shape,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Brick-grid shape: `ceil(array[i] / brick[i])` per dim.
    grid: Shape,
}

impl MultidimLayout {
    /// Construct, validating rank agreement and nonzero element size.
    pub fn new(array: Shape, brick: Shape, elem_bytes: u64) -> Result<MultidimLayout> {
        if elem_bytes == 0 {
            return Err(DpfsError::InvalidArgument("zero element size".into()));
        }
        let grid = array.grid_for(&brick)?;
        Ok(MultidimLayout {
            array,
            brick,
            elem_bytes,
            grid,
        })
    }

    /// The brick-grid shape.
    pub fn grid(&self) -> &Shape {
        &self.grid
    }

    /// Number of bricks.
    pub fn num_bricks(&self) -> u64 {
        self.grid.volume()
    }

    /// On-disk bytes per brick (full tile, padded at edges).
    pub fn brick_volume_bytes(&self) -> u64 {
        self.brick.volume() * self.elem_bytes
    }

    /// The array region covered by brick `b` (clipped to the array).
    pub fn brick_region(&self, b: u64) -> Region {
        let g = self.grid.delinearize(b);
        let origin: Vec<u64> = g.iter().zip(&self.brick.0).map(|(c, t)| c * t).collect();
        let extent: Vec<u64> = origin
            .iter()
            .zip(&self.brick.0)
            .zip(&self.array.0)
            .map(|((o, t), d)| (*t).min(d - o))
            .collect();
        Region { origin, extent }
    }

    /// Bricks overlapping `region`, in increasing brick order.
    pub fn bricks_of_region(&self, region: &Region) -> Vec<u64> {
        let lo: Vec<u64> = region
            .origin
            .iter()
            .zip(&self.brick.0)
            .map(|(o, t)| o / t)
            .collect();
        let hi: Vec<u64> = region
            .end()
            .iter()
            .zip(&self.brick.0)
            .map(|(e, t)| (e - 1) / t)
            .collect();
        let mut out = Vec::new();
        let mut cursor = lo.clone();
        loop {
            out.push(self.grid.linearize(&cursor));
            // odometer from last dim
            let mut i = cursor.len();
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                cursor[i] += 1;
                if cursor[i] <= hi[i] {
                    break;
                }
                cursor[i] = lo[i];
            }
        }
    }

    /// Map an element-space `region` to brick runs. The user's buffer holds
    /// the region packed row-major, `region.volume() * elem_bytes` bytes.
    pub fn map_region(&self, region: &Region) -> Result<Vec<BrickRun>> {
        if !region.fits_in(&self.array) {
            return Err(DpfsError::InvalidArgument(format!(
                "region {:?}+{:?} outside array {:?}",
                region.origin, region.extent, self.array.0
            )));
        }
        let n = region.ndims();
        // brick-local offsets use the *full* tile shape
        let tile_strides = self.brick.strides();
        let buf_strides = Shape(region.extent.clone()).strides();
        // at least one run per row of the region
        let mut runs = Vec::with_capacity((region.volume() / region.extent[n - 1]) as usize);
        for b in self.bricks_of_region(region) {
            let brect = self.brick_region(b);
            let Some(inter) = region.intersect(&brect) else {
                continue;
            };
            // where the intersection starts, in the brick and in the buffer
            let (mut brick_off, mut buf_off) = (0, 0);
            for i in 0..n {
                brick_off += (inter.origin[i] - brect.origin[i]) * tile_strides[i];
                buf_off += (inter.origin[i] - region.origin[i]) * buf_strides[i];
            }
            push_row_segments(
                &inter.extent,
                b,
                (brick_off, buf_off),
                (&tile_strides[..], &buf_strides[..]),
                self.elem_bytes,
                &mut runs,
            );
        }
        Ok(runs)
    }
}

/// Walk the row segments (innermost-dimension runs) of a box of `extent`
/// elements — contiguous both in brick storage and in the region buffer —
/// emitting a [`BrickRun`] per segment. Offsets of the box's first element
/// and strides come as `(brick, buffer)` pairs, in elements; the odometer
/// over the outer dimensions advances both offsets by their strides.
fn push_row_segments(
    extent: &[u64],
    brick: u64,
    (mut brick_off, mut buf_off): (u64, u64),
    (brick_strides, buf_strides): (&[u64], &[u64]),
    elem_bytes: u64,
    runs: &mut Vec<BrickRun>,
) {
    let n = extent.len();
    let mut counter = vec![0u64; n - 1];
    loop {
        runs.push(BrickRun {
            brick,
            brick_off: brick_off * elem_bytes,
            buf_off: buf_off * elem_bytes,
            len: extent[n - 1] * elem_bytes,
        });
        // odometer over outer dims
        let mut i = n - 1;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            counter[i] += 1;
            brick_off += brick_strides[i];
            buf_off += buf_strides[i];
            if counter[i] < extent[i] {
                break;
            }
            brick_off -= counter[i] * brick_strides[i];
            buf_off -= counter[i] * buf_strides[i];
            counter[i] = 0;
        }
    }
}

// ---------------------------------------------------------------- array

/// Array striping (paper §3.3): each brick is one whole HPF chunk — the
/// elements one processor owns — stored packed as that processor's *local
/// array* (standard HPF local storage: cyclic dimensions collapse).
///
/// BLOCK and `*` come from the paper; CYCLIC and CYCLIC(b) are the
/// extension completing the HPF distribution set. For pure-BLOCK patterns a
/// chunk is a rectangle ([`ArrayLayout::chunk_region`]); cyclic chunks are
/// unions of blocks and have no bounding rectangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Global array shape (elements).
    pub array: Shape,
    /// HPF distribution pattern.
    pub pattern: HpfPattern,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Processor-grid shape.
    grid: Shape,
    /// Distribution block size per dimension (`*`: the whole extent;
    /// BLOCK: `ceil(d/p)`; CYCLIC: 1; CYCLIC(b): `b`).
    block: Vec<u64>,
    /// `owned[dim][g]` = how many global indices grid coordinate `g` owns
    /// along `dim` (the local-array extent).
    owned: Vec<Vec<u64>>,
}

impl ArrayLayout {
    /// Construct, validating the pattern against the array shape. Patterns
    /// leaving any processor with an empty chunk are rejected (a brick must
    /// have nonzero size).
    pub fn new(array: Shape, pattern: HpfPattern, elem_bytes: u64) -> Result<ArrayLayout> {
        if elem_bytes == 0 {
            return Err(DpfsError::InvalidArgument("zero element size".into()));
        }
        if pattern.ndims() != array.ndims() {
            return Err(DpfsError::InvalidArgument(format!(
                "pattern rank {} != array rank {}",
                pattern.ndims(),
                array.ndims()
            )));
        }
        let mut block = Vec::with_capacity(array.ndims());
        for (i, d) in pattern.0.iter().enumerate() {
            let extent = array.0[i];
            let (p, b) = match d {
                Dist::Block(p) => (*p, extent.div_ceil((*p).max(1))),
                Dist::Cyclic(p) => (*p, 1),
                Dist::BlockCyclic { procs, block } => (*procs, *block),
                Dist::Star => (1, extent),
            };
            if p == 0 || b == 0 {
                return Err(DpfsError::InvalidArgument(format!(
                    "distribution {d:?} has zero processors or block"
                )));
            }
            if p > extent {
                return Err(DpfsError::InvalidArgument(format!(
                    "{p} processors over dimension of extent {extent}"
                )));
            }
            block.push(b);
        }
        let grid = pattern.grid();
        // per-dim owned counts; every processor must own >= 1 index
        let mut owned = Vec::with_capacity(array.ndims());
        for (i, &b) in block.iter().enumerate() {
            let d = array.0[i];
            let p = grid.0[i];
            let cycle = p * b;
            let full = d / cycle;
            let rem = d % cycle;
            let mut per_g = Vec::with_capacity(p as usize);
            for g in 0..p {
                let extra = rem.saturating_sub(g * b).min(b);
                let n = full * b + extra;
                if n == 0 {
                    return Err(DpfsError::InvalidArgument(format!(
                        "{:?} over extent {d} leaves processor {g} an empty chunk",
                        self_dist(&grid, i, b)
                    )));
                }
                per_g.push(n);
            }
            owned.push(per_g);
        }
        Ok(ArrayLayout {
            array,
            pattern,
            elem_bytes,
            grid,
            block,
            owned,
        })
    }

    /// The processor-grid shape.
    pub fn grid(&self) -> &Shape {
        &self.grid
    }

    /// Number of chunks (= bricks = processors).
    pub fn num_bricks(&self) -> u64 {
        self.grid.volume()
    }

    /// On-disk bytes of chunk `b`.
    pub fn chunk_len(&self, b: u64) -> u64 {
        #[cfg(test)]
        CHUNK_LEN_CALLS.with(|c| c.set(c.get() + 1));
        // peel `b`'s grid coordinates off, last dimension first
        let mut rest = b;
        let mut volume = 1;
        for (p, owned) in self.grid.0.iter().zip(&self.owned).rev() {
            volume *= owned[(rest % p) as usize];
            rest /= p;
        }
        volume * self.elem_bytes
    }

    /// True when every distributed dimension completes in a single cycle —
    /// i.e. the pattern is pure BLOCK/`*` and chunks are rectangles.
    pub fn chunks_are_rectangular(&self) -> bool {
        (0..self.array.ndims()).all(|i| self.grid.0[i] * self.block[i] >= self.array.0[i])
    }

    /// The rectangular array region of chunk `b`, when the pattern is pure
    /// BLOCK/`*`; `None` for cyclic patterns (no bounding rectangle).
    pub fn chunk_region(&self, b: u64) -> Option<Region> {
        if !self.chunks_are_rectangular() {
            return None;
        }
        let g = self.grid.delinearize(b);
        let origin: Vec<u64> = g.iter().zip(&self.block).map(|(c, bs)| c * bs).collect();
        let extent: Vec<u64> = g
            .iter()
            .enumerate()
            .map(|(i, &gi)| self.owned[i][gi as usize])
            .collect();
        Some(Region { origin, extent })
    }

    /// The chunk id owning `coord`.
    pub fn chunk_of(&self, coord: &[u64]) -> u64 {
        let g: Vec<u64> = coord
            .iter()
            .zip(&self.block)
            .zip(&self.grid.0)
            .map(|((c, bs), p)| (c / bs) % p)
            .collect();
        self.grid.linearize(&g)
    }

    /// Local (chunk-storage) index of global index `x` along `dim`.
    fn local_index(&self, dim: usize, x: u64) -> u64 {
        let b = self.block[dim];
        let cycle = self.grid.0[dim] * b;
        (x / cycle) * b + x % b
    }

    /// Map an element-space `region` to brick runs (user buffer packed
    /// row-major over the region). Works for all HPF patterns: row segments
    /// are split at distribution-block boundaries of the innermost
    /// dimension, each piece landing contiguously in one chunk's local
    /// array.
    pub fn map_region(&self, region: &Region) -> Result<Vec<BrickRun>> {
        if !region.fits_in(&self.array) {
            return Err(DpfsError::InvalidArgument(format!(
                "region {:?}+{:?} outside array {:?}",
                region.origin, region.extent, self.array.0
            )));
        }
        let n = region.ndims();
        let buf_strides = Shape(region.extent.clone()).strides();
        let (inner_b, inner_p) = (self.block[n - 1], self.grid.0[n - 1]);
        let mut runs = Vec::new();
        let mut counter = vec![0u64; n - 1];
        loop {
            // This row's owner and local index over the outer dims, each
            // folded row-major (the innermost dim joins per segment), and
            // the buffer offset of the row start.
            let (mut chunk, mut local, mut row_buf) = (0u64, 0u64, 0u64);
            for i in 0..n - 1 {
                let x = region.origin[i] + counter[i];
                let g = (x / self.block[i]) % self.grid.0[i];
                chunk = chunk * self.grid.0[i] + g;
                local = local * self.owned[i][g as usize] + self.local_index(i, x);
                row_buf += counter[i] * buf_strides[i];
            }
            // walk the innermost run, splitting at block boundaries
            let mut x = region.origin[n - 1];
            let row_end = x + region.extent[n - 1];
            while x < row_end {
                let seg_end = row_end.min((x / inner_b + 1) * inner_b);
                let g = (x / inner_b) % inner_p;
                let inner = local * self.owned[n - 1][g as usize] + self.local_index(n - 1, x);
                runs.push(BrickRun {
                    brick: chunk * inner_p + g,
                    brick_off: inner * self.elem_bytes,
                    buf_off: (row_buf + (x - region.origin[n - 1])) * self.elem_bytes,
                    len: (seg_end - x) * self.elem_bytes,
                });
                x = seg_end;
            }
            // odometer over outer dims
            let mut i = n - 1;
            loop {
                if i == 0 {
                    // No two segments share a disk byte, so the keys are
                    // distinct and the unstable sort has one outcome.
                    runs.sort_unstable_by_key(|r| (r.brick, r.brick_off));
                    return Ok(runs);
                }
                i -= 1;
                counter[i] += 1;
                if counter[i] < region.extent[i] {
                    break;
                }
                counter[i] = 0;
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Calls to [`ArrayLayout::chunk_len`] on this thread: the unit of work
    /// the planner's flat-cost test counts.
    pub(crate) static CHUNK_LEN_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Debug helper for error messages in [`ArrayLayout::new`].
fn self_dist(grid: &Shape, dim: usize, block: u64) -> String {
    format!("p={} b={block} (dim {dim})", grid.0[dim])
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn shape(d: &[u64]) -> Shape {
        Shape::new(d.to_vec()).unwrap()
    }

    fn region(o: &[u64], e: &[u64]) -> Region {
        Region::new(o.to_vec(), e.to_vec()).unwrap()
    }

    // ---- linear ----

    #[test]
    fn linear_brick_count() {
        let l = LinearLayout::new(4, 32).unwrap();
        assert_eq!(l.num_bricks(), 8);
        assert_eq!(LinearLayout::new(4, 33).unwrap().num_bricks(), 9);
        assert_eq!(LinearLayout::new(4, 0).unwrap().num_bricks(), 1);
        assert!(LinearLayout::new(0, 8).is_err());
    }

    #[test]
    fn linear_map_within_one_brick() {
        let l = LinearLayout::new(100, 1000).unwrap();
        let runs = l.map_bytes(10, 50, 0);
        assert_eq!(
            runs,
            vec![BrickRun {
                brick: 0,
                brick_off: 10,
                buf_off: 0,
                len: 50
            }]
        );
    }

    #[test]
    fn linear_map_across_bricks() {
        let l = LinearLayout::new(100, 1000).unwrap();
        let runs = l.map_bytes(250, 300, 7);
        assert_eq!(runs.len(), 4);
        assert_eq!(
            runs[0],
            BrickRun {
                brick: 2,
                brick_off: 50,
                buf_off: 7,
                len: 50
            }
        );
        assert_eq!(
            runs[1],
            BrickRun {
                brick: 3,
                brick_off: 0,
                buf_off: 57,
                len: 100
            }
        );
        assert_eq!(
            runs[3],
            BrickRun {
                brick: 5,
                brick_off: 0,
                buf_off: 257,
                len: 50
            }
        );
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 300);
    }

    // ---- multidim ----

    /// The paper's Figure 6: 8x8 array, 2x2 bricks, 16 bricks numbered
    /// row-major over the 4x4 grid.
    fn fig6() -> MultidimLayout {
        MultidimLayout::new(shape(&[8, 8]), shape(&[2, 2]), 1).unwrap()
    }

    #[test]
    fn multidim_grid_and_count() {
        let l = fig6();
        assert_eq!(l.grid(), &shape(&[4, 4]));
        assert_eq!(l.num_bricks(), 16);
        assert_eq!(l.brick_volume_bytes(), 4);
    }

    #[test]
    fn multidim_brick_regions() {
        let l = fig6();
        assert_eq!(l.brick_region(0), region(&[0, 0], &[2, 2]));
        assert_eq!(l.brick_region(3), region(&[0, 6], &[2, 2]));
        assert_eq!(l.brick_region(4), region(&[2, 0], &[2, 2]));
        assert_eq!(l.brick_region(15), region(&[6, 6], &[2, 2]));
    }

    #[test]
    fn paper_fig6_column_access_needs_4_bricks() {
        // "When the processor 0 accesses the first two columns again, it
        // only needs to access 4 bricks (0, 4, 8 and 12)" — §3.2
        let l = fig6();
        let first_two_cols = region(&[0, 0], &[8, 2]);
        let bricks = l.bricks_of_region(&first_two_cols);
        assert_eq!(bricks, vec![0, 4, 8, 12]);
        // and the mapped runs touch exactly those bricks, with no waste
        let runs = l.map_region(&first_two_cols).unwrap();
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 16); // 8x2 elements, 1 byte each — "no extra data"
    }

    #[test]
    fn paper_linear_column_access_needs_8_bricks() {
        // Figure 5: same access with linear striping (brick = 4 elements)
        // touches bricks 0,2,4,6,8,10,12,14 and wastes half of each.
        let l = LinearLayout::new(4, 64).unwrap();
        // col 0..2 of an 8x8 = 8 runs of 2 bytes at offsets 0,8,16,...
        let mut bricks = std::collections::BTreeSet::new();
        let mut useful = 0u64;
        for row in 0..8u64 {
            for r in l.map_bytes(row * 8, 2, 0) {
                bricks.insert(r.brick);
                useful += r.len;
            }
        }
        assert_eq!(
            bricks.into_iter().collect::<Vec<_>>(),
            vec![0, 2, 4, 6, 8, 10, 12, 14]
        );
        assert_eq!(useful, 16);
    }

    #[test]
    fn paper_64k_example_brick_counts() {
        // §3.2: a 64K x 64K array, 64K brick: linear needs all 65536 bricks
        // for one column; multidim with 256x256 bricks needs 256.
        let elem = 1u64;
        let md = MultidimLayout::new(shape(&[65536, 65536]), shape(&[256, 256]), elem).unwrap();
        let one_col = region(&[0, 0], &[65536, 1]);
        assert_eq!(md.bricks_of_region(&one_col).len(), 256);

        let lin = LinearLayout::new(65536, 65536 * 65536).unwrap();
        assert_eq!(lin.num_bricks(), 65536);
        // one column touches every row-brick
        // (spot-check rather than 64K iterations)
        let r0 = lin.map_bytes(0, 1, 0);
        let r_last = lin.map_bytes(65535 * 65536, 1, 0);
        assert_eq!(r0[0].brick, 0);
        assert_eq!(r_last[0].brick, 65535);
    }

    #[test]
    fn multidim_row_access_maps_contiguously() {
        let l = fig6();
        // rows 0..2 = bricks 0..4, full tiles
        let r = region(&[0, 0], &[2, 8]);
        let runs = l.map_region(&r).unwrap();
        let bricks: std::collections::BTreeSet<u64> = runs.iter().map(|r| r.brick).collect();
        assert_eq!(bricks.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn multidim_rejects_out_of_bounds() {
        let l = fig6();
        assert!(l.map_region(&region(&[7, 7], &[2, 2])).is_err());
    }

    #[test]
    fn multidim_edge_padding() {
        // 5x5 array, 2x2 bricks -> 3x3 grid; edge bricks clipped in region
        // but full-size on disk
        let l = MultidimLayout::new(shape(&[5, 5]), shape(&[2, 2]), 4).unwrap();
        assert_eq!(l.num_bricks(), 9);
        assert_eq!(l.brick_region(8), region(&[4, 4], &[1, 1]));
        assert_eq!(l.brick_volume_bytes(), 16);
        let runs = l.map_region(&region(&[4, 4], &[1, 1])).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].brick, 8);
        assert_eq!(runs[0].brick_off, 0);
        assert_eq!(runs[0].len, 4);
    }

    #[test]
    fn multidim_buffer_offsets_pack_region_row_major() {
        let l = fig6();
        // 2x2 region straddling 4 bricks: (1..3, 1..3)
        let r = region(&[1, 1], &[2, 2]);
        let mut runs = l.map_region(&r).unwrap();
        runs.sort_by_key(|r| r.buf_off);
        // buffer: [ (1,1), (1,2), (2,1), (2,2) ]
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].brick, 0); // (1,1) in brick 0 at tile pos (1,1)=3
        assert_eq!(runs[0].brick_off, 3);
        assert_eq!(runs[0].buf_off, 0);
        assert_eq!(runs[1].brick, 1); // (1,2) in brick 1 at tile pos (1,0)=2
        assert_eq!(runs[1].brick_off, 2);
        assert_eq!(runs[1].buf_off, 1);
        assert_eq!(runs[2].brick, 4); // (2,1) in brick 4 at tile pos (0,1)=1
        assert_eq!(runs[2].brick_off, 1);
        assert_eq!(runs[2].buf_off, 2);
        assert_eq!(runs[3].brick, 5); // (2,2) in brick 5 at tile pos (0,0)=0
        assert_eq!(runs[3].brick_off, 0);
        assert_eq!(runs[3].buf_off, 3);
    }

    // ---- array ----

    #[test]
    fn array_block_block_chunks() {
        // Figure 7: 2-d array, 4 processors, (BLOCK, BLOCK) on a 2x2 grid
        let l = ArrayLayout::new(shape(&[8, 8]), HpfPattern::block_block(2, 2), 1).unwrap();
        assert_eq!(l.num_bricks(), 4);
        assert_eq!(l.chunk_region(0), Some(region(&[0, 0], &[4, 4])));
        assert_eq!(l.chunk_region(1), Some(region(&[0, 4], &[4, 4])));
        assert_eq!(l.chunk_region(2), Some(region(&[4, 0], &[4, 4])));
        assert_eq!(l.chunk_region(3), Some(region(&[4, 4], &[4, 4])));
        assert_eq!(l.chunk_len(0), 16);
    }

    #[test]
    fn array_star_block_chunks_are_column_bands() {
        let l = ArrayLayout::new(shape(&[8, 8]), HpfPattern::star_block(4, 2), 1).unwrap();
        assert_eq!(l.num_bricks(), 4);
        assert_eq!(l.chunk_region(0), Some(region(&[0, 0], &[8, 2])));
        assert_eq!(l.chunk_region(3), Some(region(&[0, 6], &[8, 2])));
    }

    #[test]
    fn array_whole_chunk_access_is_one_brick_contiguous() {
        // The checkpoint scenario: a processor reads back exactly its chunk;
        // that's a single brick, and the runs are one contiguous stretch.
        let l = ArrayLayout::new(shape(&[8, 8]), HpfPattern::block_block(2, 2), 4).unwrap();
        let runs = l.map_region(&l.chunk_region(2).unwrap()).unwrap();
        assert!(runs.iter().all(|r| r.brick == 2));
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 16 * 4);
        // runs tile the chunk storage in order
        let mut sorted = runs.clone();
        sorted.sort_by_key(|r| r.brick_off);
        let mut expect = 0;
        for r in &sorted {
            assert_eq!(r.brick_off, expect);
            expect += r.len;
        }
    }

    #[test]
    fn array_cross_chunk_region() {
        let l = ArrayLayout::new(shape(&[8, 8]), HpfPattern::block_block(2, 2), 1).unwrap();
        // center 4x4 straddles all four chunks
        let runs = l.map_region(&region(&[2, 2], &[4, 4])).unwrap();
        let bricks: std::collections::BTreeSet<u64> = runs.iter().map(|r| r.brick).collect();
        assert_eq!(bricks.len(), 4);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn array_uneven_blocks() {
        // 10 rows over 4 procs (BLOCK) -> block 3: chunks 3,3,3,1
        let l = ArrayLayout::new(shape(&[10, 4]), HpfPattern::block_star(4, 2), 1).unwrap();
        assert_eq!(l.chunk_region(0).unwrap().extent, vec![3, 4]);
        assert_eq!(l.chunk_region(3).unwrap().extent, vec![1, 4]);
        assert_eq!(l.chunk_len(3), 4);
        // total chunk bytes = array bytes
        let total: u64 = (0..4).map(|b| l.chunk_len(b)).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn array_rejects_bad_patterns() {
        assert!(ArrayLayout::new(shape(&[4, 4]), HpfPattern::block_star(8, 2), 1).is_err());
        assert!(ArrayLayout::new(shape(&[4, 4]), HpfPattern::block_star(2, 3), 1).is_err());
        // ceil-block degeneracy: 6 rows over 4 procs -> blocks of 2 ->
        // processor 3 would own nothing
        assert!(ArrayLayout::new(shape(&[6, 1]), HpfPattern::block_star(4, 2), 1).is_err());
        // but 6 over 3 is fine
        assert!(ArrayLayout::new(shape(&[6, 1]), HpfPattern::block_star(3, 2), 1).is_ok());
    }

    #[test]
    fn cyclic_chunks_deal_rows_round_robin() {
        // (CYCLIC, *) over 3 procs of a 7x4 array: proc 0 owns rows
        // 0,3,6 (3 rows); procs 1,2 own 2 rows each.
        let l = ArrayLayout::new(shape(&[7, 4]), HpfPattern::cyclic_star(3, 2), 1).unwrap();
        assert_eq!(l.num_bricks(), 3);
        assert_eq!(l.chunk_len(0), 12);
        assert_eq!(l.chunk_len(1), 8);
        assert_eq!(l.chunk_len(2), 8);
        assert!(!l.chunks_are_rectangular());
        assert_eq!(l.chunk_region(0), None);
        // ownership: row r belongs to proc r % 3
        for r in 0..7u64 {
            assert_eq!(l.chunk_of(&[r, 0]), r % 3);
        }
        // total chunk bytes = array bytes
        let total: u64 = (0..3).map(|b| l.chunk_len(b)).sum();
        assert_eq!(total, 28);
    }

    #[test]
    fn cyclic_map_region_local_storage_order() {
        // 6x2 array, (CYCLIC, *) over 2 procs, 1 byte elems.
        // proc 0 local array = rows 0,2,4 ; proc 1 = rows 1,3,5.
        let l = ArrayLayout::new(shape(&[6, 2]), HpfPattern::cyclic_star(2, 2), 1).unwrap();
        // read rows 1..4 (global rows 1,2,3)
        let r = region(&[1, 0], &[3, 2]);
        let mut runs = l.map_region(&r).unwrap();
        runs.sort_by_key(|x| x.buf_off);
        assert_eq!(runs.len(), 3);
        // row 1 -> brick 1, local row 0 -> brick_off 0
        assert_eq!((runs[0].brick, runs[0].brick_off, runs[0].len), (1, 0, 2));
        // row 2 -> brick 0, local row 1 -> brick_off 2
        assert_eq!((runs[1].brick, runs[1].brick_off, runs[1].len), (0, 2, 2));
        // row 3 -> brick 1, local row 1 -> brick_off 2
        assert_eq!((runs[2].brick, runs[2].brick_off, runs[2].len), (1, 2, 2));
    }

    #[test]
    fn block_cyclic_inner_dim_splits_runs() {
        // 1-d-ish: 1x12 array, (*, CYCLIC(2)) over 3 procs: blocks of 2
        // columns deal to procs 0,1,2,0,1,2.
        let l = ArrayLayout::new(
            shape(&[1, 12]),
            HpfPattern(vec![Dist::Star, Dist::BlockCyclic { procs: 3, block: 2 }]),
            1,
        )
        .unwrap();
        assert_eq!(l.num_bricks(), 3);
        assert_eq!(l.chunk_len(0), 4);
        // read the whole row: 6 runs of 2, alternating bricks
        let runs = l.map_region(&region(&[0, 0], &[1, 12])).unwrap();
        assert_eq!(runs.len(), 6);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 12);
        // brick 0 receives global cols 0,1 (local 0,1) and 6,7 (local 2,3)
        let b0: Vec<_> = runs.iter().filter(|r| r.brick == 0).collect();
        assert_eq!(b0.len(), 2);
        assert_eq!((b0[0].brick_off, b0[0].buf_off), (0, 0));
        assert_eq!((b0[1].brick_off, b0[1].buf_off), (2, 6));
    }

    #[test]
    fn cyclic_round_trip_coverage() {
        // every element of a (CYCLIC, CYCLIC(2)) array maps exactly once
        let l = ArrayLayout::new(
            shape(&[5, 9]),
            HpfPattern(vec![
                Dist::Cyclic(2),
                Dist::BlockCyclic { procs: 2, block: 2 },
            ]),
            1,
        )
        .unwrap();
        let runs = l.map_region(&shape(&[5, 9]).full_region()).unwrap();
        let mut disk = std::collections::HashSet::new();
        let mut buf = [false; 45];
        for r in &runs {
            for i in 0..r.len {
                assert!(disk.insert((r.brick, r.brick_off + i)));
                assert!(!buf[(r.buf_off + i) as usize]);
                buf[(r.buf_off + i) as usize] = true;
            }
        }
        assert!(buf.iter().all(|&x| x));
        // disk bytes touched = sum of chunk lens
        let total: u64 = (0..l.num_bricks()).map(|b| l.chunk_len(b)).sum();
        assert_eq!(disk.len() as u64, total);
    }

    #[test]
    fn cyclic_rejects_too_many_procs() {
        assert!(ArrayLayout::new(shape(&[3, 4]), HpfPattern::cyclic_star(4, 2), 1).is_err());
    }

    #[test]
    fn chunk_of_matches_chunk_region() {
        let l = ArrayLayout::new(shape(&[10, 10]), HpfPattern::block_block(3, 2), 1).unwrap();
        for b in 0..l.num_bricks() {
            let r = l.chunk_region(b).unwrap();
            assert_eq!(l.chunk_of(&r.origin), b);
        }
    }

    // ---- layout facade ----

    #[test]
    fn facade_dispatch() {
        let lin = Layout::from_striping(&Striping::Linear {
            brick_bytes: 16,
            file_bytes: 64,
        })
        .unwrap();
        assert_eq!(lin.level(), FileLevel::Linear);
        assert_eq!(lin.num_bricks(), 4);
        assert_eq!(lin.brick_len(0), 16);
        assert_eq!(lin.file_bytes(), 64);

        let md = Layout::from_striping(&Striping::Multidim {
            array: shape(&[8, 8]),
            brick: shape(&[2, 2]),
            elem_bytes: 4,
        })
        .unwrap();
        assert_eq!(md.level(), FileLevel::Multidim);
        assert_eq!(md.num_bricks(), 16);
        assert_eq!(md.brick_len(0), 16);
        assert_eq!(md.file_bytes(), 256);

        let ar = Layout::from_striping(&Striping::Array {
            array: shape(&[8, 8]),
            pattern: HpfPattern::block_block(2, 2),
            elem_bytes: 1,
        })
        .unwrap();
        assert_eq!(ar.level(), FileLevel::Array);
        assert_eq!(ar.num_bricks(), 4);
        assert_eq!(ar.file_bytes(), 64);
    }

    // ---- mappers against an element-wise model ----

    /// Every coordinate of `region`, row-major: the order the buffer packs.
    fn coords(region: &Region) -> Vec<Vec<u64>> {
        let shape = Shape(region.extent.clone());
        (0..shape.volume())
            .map(|i| {
                let local = shape.delinearize(i);
                local
                    .iter()
                    .zip(&region.origin)
                    .map(|(l, o)| l + o)
                    .collect()
            })
            .collect()
    }

    /// `runs` must place element `i` of the packed buffer at
    /// `model[i] = (brick, element offset in the brick)`, each element
    /// exactly once, in ascending `(brick, brick_off)` order — the order
    /// that lets the planner skip its sort.
    fn assert_runs_match(
        runs: &[BrickRun],
        model: &[(u64, u64)],
        elem_bytes: u64,
    ) -> std::result::Result<(), TestCaseError> {
        let mut seen = vec![None; model.len()];
        for r in runs {
            prop_assert!(r.len > 0 && r.len % elem_bytes == 0 && r.buf_off % elem_bytes == 0);
            prop_assert_eq!(r.brick_off % elem_bytes, 0);
            for k in 0..r.len / elem_bytes {
                let slot = &mut seen[(r.buf_off / elem_bytes + k) as usize];
                prop_assert!(slot.is_none(), "buffer element mapped twice");
                *slot = Some((r.brick, r.brick_off / elem_bytes + k));
            }
        }
        let seen: Vec<(u64, u64)> = seen.into_iter().flatten().collect();
        prop_assert_eq!(&seen[..], model);
        prop_assert!(runs
            .windows(2)
            .all(|w| (w[0].brick, w[0].brick_off) < (w[1].brick, w[1].brick_off)));
        Ok(())
    }

    /// `(array extent, tile extent, region origin, region extent)` per
    /// dimension, 1–4 dimensions; tiles need not divide the array.
    fn geometry() -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
        proptest::collection::vec((1u64..10, 1u64..5, any::<u64>(), any::<u64>()), 1..5).prop_map(
            |dims| {
                dims.into_iter()
                    .map(|(d, t, o, e)| (d, t, o % d, 1 + e % (d - o % d)))
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn multidim_map_region_matches_element_model(dims in geometry(), elem_bytes in 1u64..4) {
            let pick = |f: fn(&(u64, u64, u64, u64)) -> u64| dims.iter().map(f).collect::<Vec<_>>();
            let l = MultidimLayout::new(shape(&pick(|d| d.0)), shape(&pick(|d| d.1)), elem_bytes)
                .unwrap();
            let r = region(&pick(|d| d.2), &pick(|d| d.3));
            let model: Vec<(u64, u64)> = coords(&r)
                .iter()
                .map(|c| {
                    let tile: Vec<u64> = c.iter().zip(&l.brick.0).map(|(c, t)| c / t).collect();
                    let within: Vec<u64> = c.iter().zip(&l.brick.0).map(|(c, t)| c % t).collect();
                    (l.grid.linearize(&tile), l.brick.linearize(&within))
                })
                .collect();
            assert_runs_match(&l.map_region(&r).unwrap(), &model, elem_bytes)?;
        }

        #[test]
        fn array_map_region_matches_element_model(
            dims in geometry(),
            dists in proptest::collection::vec((0usize..4, 1u64..5, 1u64..4), 4..5),
            elem_bytes in 1u64..4,
        ) {
            let pick = |f: fn(&(u64, u64, u64, u64)) -> u64| dims.iter().map(f).collect::<Vec<_>>();
            // `*`, BLOCK, CYCLIC and CYCLIC(b) in any mix: (BLOCK,*),
            // (*,BLOCK) and (BLOCK,BLOCK) are among the 2-d draws.
            let pattern = HpfPattern(
                dims.iter()
                    .zip(&dists)
                    .map(|(d, &(kind, p, b))| match kind {
                        0 => Dist::Star,
                        1 => Dist::Block(p.min(d.0)),
                        2 => Dist::Cyclic(p.min(d.0)),
                        _ => Dist::BlockCyclic { procs: p.min(d.0), block: b },
                    })
                    .collect(),
            );
            // Patterns that leave a processor empty are rejected at creation.
            let Ok(l) = ArrayLayout::new(shape(&pick(|d| d.0)), pattern, elem_bytes) else {
                return Err(TestCaseError::reject("empty chunk"));
            };
            let r = region(&pick(|d| d.2), &pick(|d| d.3));
            // Along one dim, index `x` belongs to processor `(x / b) % p`
            // and sits after the indices below it that processor owns.
            let owner = |dim: usize, x: u64| (x / l.block[dim]) % l.grid.0[dim];
            let owned_below =
                |dim: usize, x: u64| (0..x).filter(|&y| owner(dim, y) == owner(dim, x)).count() as u64;
            let model: Vec<(u64, u64)> = coords(&r)
                .iter()
                .map(|c| {
                    let g: Vec<u64> = (0..c.len()).map(|i| owner(i, c[i])).collect();
                    let local: Vec<u64> = (0..c.len()).map(|i| owned_below(i, c[i])).collect();
                    let extent: Vec<u64> = (0..c.len())
                        .map(|i| (0..l.array.0[i]).filter(|&y| owner(i, y) == g[i]).count() as u64)
                        .collect();
                    (l.grid.linearize(&g), Shape(extent).linearize(&local))
                })
                .collect();
            assert_runs_match(&l.map_region(&r).unwrap(), &model, elem_bytes)?;
        }
    }
}
