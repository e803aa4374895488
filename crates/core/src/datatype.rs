//! MPI-IO-style derived datatypes for non-contiguous access.
//!
//! "DPFS adopts MPI-IO's derived data type approach to allow the user to
//! express non-contiguous data conveniently" (paper §6). A datatype
//! describes a pattern of byte runs in *file space*; the user's buffer packs
//! those runs contiguously in order.

use crate::error::{DpfsError, Result};
use crate::geometry::{Region, Shape};

/// A derived datatype. All units are bytes except where noted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datatype {
    /// `count` contiguous bytes.
    Contiguous { count: u64 },
    /// `count` blocks of `blocklen` copies of `base`, the start of each
    /// block separated by `stride` copies of `base` (MPI_Type_vector).
    Vector {
        count: u64,
        blocklen: u64,
        stride: u64,
        base: Box<Datatype>,
    },
    /// A rectangular sub-array of an N-d array with `elem_bytes`-byte
    /// elements stored row-major (MPI_Type_create_subarray).
    Subarray {
        array: Shape,
        region: Region,
        elem_bytes: u64,
    },
    /// Explicit `(displacement, length)` blocks, in bytes
    /// (MPI_Type_create_hindexed). Displacements must be strictly
    /// increasing and non-overlapping.
    Indexed { blocks: Vec<(u64, u64)> },
}

impl Datatype {
    /// `count` contiguous bytes.
    pub fn contiguous(count: u64) -> Datatype {
        Datatype::Contiguous { count }
    }

    /// Byte-granular vector: `count` blocks of `blocklen` bytes every
    /// `stride` bytes.
    pub fn vector(count: u64, blocklen: u64, stride: u64) -> Datatype {
        Datatype::Vector {
            count,
            blocklen,
            stride,
            base: Box::new(Datatype::contiguous(1)),
        }
    }

    /// Sub-array datatype.
    pub fn subarray(array: Shape, region: Region, elem_bytes: u64) -> Result<Datatype> {
        if !region.fits_in(&array) {
            return Err(DpfsError::InvalidArgument(format!(
                "subarray region {:?}+{:?} outside array {:?}",
                region.origin, region.extent, array.0
            )));
        }
        if elem_bytes == 0 {
            return Err(DpfsError::InvalidArgument("zero element size".into()));
        }
        Ok(Datatype::Subarray {
            array,
            region,
            elem_bytes,
        })
    }

    /// Indexed datatype; validates monotone non-overlapping blocks.
    pub fn indexed(blocks: Vec<(u64, u64)>) -> Result<Datatype> {
        let mut prev_end = 0u64;
        for (i, &(disp, len)) in blocks.iter().enumerate() {
            if len == 0 {
                return Err(DpfsError::InvalidArgument(format!(
                    "indexed block {i} has zero length"
                )));
            }
            if i > 0 && disp < prev_end {
                return Err(DpfsError::InvalidArgument(format!(
                    "indexed block {i} at {disp} overlaps or reorders (prev end {prev_end})"
                )));
            }
            prev_end = disp + len;
        }
        Ok(Datatype::Indexed { blocks })
    }

    /// Total payload bytes (the packed buffer size).
    pub fn size(&self) -> u64 {
        match self {
            Datatype::Contiguous { count } => *count,
            Datatype::Vector {
                count,
                blocklen,
                base,
                ..
            } => count * blocklen * base.size(),
            Datatype::Subarray {
                region, elem_bytes, ..
            } => region.volume() * elem_bytes,
            Datatype::Indexed { blocks } => blocks.iter().map(|(_, l)| l).sum(),
        }
    }

    /// The span from the first to one past the last byte touched.
    pub fn extent(&self) -> u64 {
        match self {
            Datatype::Contiguous { count } => *count,
            Datatype::Vector {
                count,
                blocklen,
                stride,
                base,
            } => {
                if *count == 0 {
                    0
                } else {
                    ((count - 1) * stride + blocklen) * base.size()
                }
            }
            Datatype::Subarray {
                array, elem_bytes, ..
            } => array.volume() * elem_bytes,
            Datatype::Indexed { blocks } => blocks.last().map(|(d, l)| d + l).unwrap_or(0),
        }
    }

    /// Flatten to `(file_offset, len)` byte runs relative to the datatype's
    /// start, in increasing offset order, adjacent runs coalesced. The
    /// packed-buffer offset of run `i` is the sum of lengths of runs
    /// `0..i`.
    pub fn flatten(&self) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        self.flatten_into(0, &mut runs);
        coalesce(&mut runs);
        runs
    }

    fn flatten_into(&self, base_off: u64, out: &mut Vec<(u64, u64)>) {
        match self {
            Datatype::Contiguous { count } => {
                if *count > 0 {
                    out.push((base_off, *count));
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                base,
            } => {
                let unit = base.size();
                out.reserve(*count as usize);
                for i in 0..*count {
                    let block_start = base_off + i * stride * unit;
                    // blocklen consecutive base copies are contiguous iff
                    // base itself is contiguous; recurse per element
                    match base.as_ref() {
                        Datatype::Contiguous { count: c } => {
                            if blocklen * c > 0 {
                                out.push((block_start, blocklen * c));
                            }
                        }
                        other => {
                            for j in 0..*blocklen {
                                other.flatten_into(block_start + j * unit, out);
                            }
                        }
                    }
                }
            }
            Datatype::Subarray {
                array,
                region,
                elem_bytes,
            } => {
                for (start, len) in region.contiguous_runs(array) {
                    out.push((base_off + start * elem_bytes, len * elem_bytes));
                }
            }
            Datatype::Indexed { blocks } => {
                out.extend(blocks.iter().map(|&(disp, len)| (base_off + disp, len)));
            }
        }
    }
}

/// Merge adjacent `(offset, len)` runs in place. Input must be sorted by
/// offset.
fn coalesce(runs: &mut Vec<(u64, u64)>) {
    runs.dedup_by(|next, kept| {
        let adjacent = kept.0 + kept.1 == next.0;
        if adjacent {
            kept.1 += next.1;
        }
        adjacent
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(d: &[u64]) -> Shape {
        Shape::new(d.to_vec()).unwrap()
    }

    fn region(o: &[u64], e: &[u64]) -> Region {
        Region::new(o.to_vec(), e.to_vec()).unwrap()
    }

    #[test]
    fn contiguous_flattens_to_one_run() {
        let t = Datatype::contiguous(100);
        assert_eq!(t.flatten(), vec![(0, 100)]);
        assert_eq!(t.size(), 100);
        assert_eq!(t.extent(), 100);
    }

    #[test]
    fn vector_strided_runs() {
        // 4 blocks of 2 bytes every 8 bytes: a column of a byte matrix
        let t = Datatype::vector(4, 2, 8);
        assert_eq!(t.flatten(), vec![(0, 2), (8, 2), (16, 2), (24, 2)]);
        assert_eq!(t.size(), 8);
        assert_eq!(t.extent(), 26);
    }

    #[test]
    fn vector_with_stride_equal_blocklen_coalesces() {
        let t = Datatype::vector(4, 2, 2);
        assert_eq!(t.flatten(), vec![(0, 8)]);
    }

    #[test]
    fn vector_zero_count() {
        let t = Datatype::vector(0, 2, 8);
        assert!(t.flatten().is_empty());
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
    }

    #[test]
    fn subarray_column_of_matrix() {
        // col 3 of an 8x8 f32 matrix: 8 runs of 4 bytes, stride 32
        let t = Datatype::subarray(shape(&[8, 8]), region(&[0, 3], &[8, 1]), 4).unwrap();
        let runs = t.flatten();
        assert_eq!(runs.len(), 8);
        assert_eq!(runs[0], (12, 4));
        assert_eq!(runs[1], (44, 4));
        assert_eq!(t.size(), 32);
        assert_eq!(t.extent(), 256);
    }

    #[test]
    fn subarray_full_rows_fuse() {
        let t = Datatype::subarray(shape(&[8, 8]), region(&[2, 0], &[3, 8]), 1).unwrap();
        assert_eq!(t.flatten(), vec![(16, 24)]);
    }

    #[test]
    fn subarray_out_of_bounds_rejected() {
        assert!(Datatype::subarray(shape(&[4, 4]), region(&[3, 3], &[2, 2]), 1).is_err());
        assert!(Datatype::subarray(shape(&[4, 4]), region(&[0, 0], &[2, 2]), 0).is_err());
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::indexed(vec![(0, 4), (10, 2), (20, 8)]).unwrap();
        assert_eq!(t.flatten(), vec![(0, 4), (10, 2), (20, 8)]);
        assert_eq!(t.size(), 14);
        assert_eq!(t.extent(), 28);
    }

    #[test]
    fn indexed_adjacent_coalesce() {
        let t = Datatype::indexed(vec![(0, 4), (4, 4), (16, 4)]).unwrap();
        assert_eq!(t.flatten(), vec![(0, 8), (16, 4)]);
    }

    #[test]
    fn indexed_validation() {
        assert!(Datatype::indexed(vec![(0, 4), (2, 4)]).is_err()); // overlap
        assert!(Datatype::indexed(vec![(10, 4), (0, 4)]).is_err()); // reorder
        assert!(Datatype::indexed(vec![(0, 0)]).is_err()); // zero len
        assert!(Datatype::indexed(vec![]).unwrap().flatten().is_empty());
    }

    #[test]
    fn nested_vector_of_subarray_pattern() {
        // vector whose base is a 2-byte contiguous element: 3 blocks of 2
        // elems (4 bytes) every 4 elems (8 bytes)
        let t = Datatype::Vector {
            count: 3,
            blocklen: 2,
            stride: 4,
            base: Box::new(Datatype::contiguous(2)),
        };
        assert_eq!(t.flatten(), vec![(0, 4), (8, 4), (16, 4)]);
        assert_eq!(t.size(), 12);
    }

    #[test]
    fn flatten_matches_naive_enumeration() {
        // cross-check subarray flatten against per-element enumeration
        let array = shape(&[5, 7]);
        let r = region(&[1, 2], &[3, 4]);
        let t = Datatype::subarray(array.clone(), r.clone(), 2).unwrap();
        let mut expect_bytes = Vec::new();
        for i in 0..3u64 {
            for j in 0..4u64 {
                let lin = array.linearize(&[1 + i, 2 + j]);
                expect_bytes.push(lin * 2);
                expect_bytes.push(lin * 2 + 1);
            }
        }
        expect_bytes.sort();
        let mut got_bytes = Vec::new();
        for (off, len) in t.flatten() {
            for b in off..off + len {
                got_bytes.push(b);
            }
        }
        assert_eq!(got_bytes, expect_bytes);
    }
}
