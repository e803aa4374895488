//! N-dimensional shapes and regions.
//!
//! The multidimensional and array file levels operate on element
//! coordinates of an N-d array stored row-major (C order, last dimension
//! fastest). This module is the coordinate math they share: shapes,
//! rectangular regions, linearization, intersection, and iteration over the
//! maximal contiguous runs of a region.

use crate::error::{DpfsError, Result};

/// Extents of an N-d array (element counts per dimension).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<u64>);

impl Shape {
    /// Construct, rejecting empty shapes and zero extents.
    pub fn new(dims: Vec<u64>) -> Result<Shape> {
        if dims.is_empty() {
            return Err(DpfsError::InvalidArgument("empty shape".into()));
        }
        if dims.contains(&0) {
            return Err(DpfsError::InvalidArgument(format!(
                "zero extent in shape {dims:?}"
            )));
        }
        Ok(Shape(dims))
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    /// Total element count.
    pub fn volume(&self) -> u64 {
        self.0.iter().product()
    }

    /// Row-major strides (elements): stride of dim `i` is the product of
    /// extents of dims `i+1..`.
    pub fn strides(&self) -> Vec<u64> {
        let n = self.0.len();
        let mut s = vec![1u64; n];
        for i in (0..n - 1).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Linear (row-major) index of a coordinate.
    pub fn linearize(&self, coord: &[u64]) -> u64 {
        debug_assert_eq!(coord.len(), self.0.len());
        self.0.iter().zip(coord).fold(0, |acc, (d, c)| acc * d + c)
    }

    /// Coordinate of a linear index.
    pub fn delinearize(&self, mut idx: u64) -> Vec<u64> {
        let strides = self.strides();
        let mut coord = vec![0u64; self.0.len()];
        for (i, s) in strides.iter().enumerate() {
            coord[i] = idx / s;
            idx %= s;
        }
        coord
    }

    /// The whole-array region.
    pub fn full_region(&self) -> Region {
        Region {
            origin: vec![0; self.0.len()],
            extent: self.0.clone(),
        }
    }

    /// Number of grid cells per dimension when tiling with `tile` (ceil
    /// division).
    pub fn grid_for(&self, tile: &Shape) -> Result<Shape> {
        if tile.ndims() != self.ndims() {
            return Err(DpfsError::InvalidArgument(format!(
                "tile rank {} != array rank {}",
                tile.ndims(),
                self.ndims()
            )));
        }
        Shape::new(
            self.0
                .iter()
                .zip(&tile.0)
                .map(|(&d, &t)| d.div_ceil(t))
                .collect(),
        )
    }
}

/// An axis-aligned rectangular region: `origin[i] .. origin[i]+extent[i]`
/// per dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    /// Lowest coordinate included, per dimension.
    pub origin: Vec<u64>,
    /// Element count per dimension (all nonzero).
    pub extent: Vec<u64>,
}

impl Region {
    /// Construct, validating rank agreement and nonzero extents.
    pub fn new(origin: Vec<u64>, extent: Vec<u64>) -> Result<Region> {
        if origin.len() != extent.len() {
            return Err(DpfsError::InvalidArgument(format!(
                "origin rank {} != extent rank {}",
                origin.len(),
                extent.len()
            )));
        }
        if origin.is_empty() {
            return Err(DpfsError::InvalidArgument("empty region".into()));
        }
        if extent.contains(&0) {
            return Err(DpfsError::InvalidArgument(format!(
                "zero extent in region {extent:?}"
            )));
        }
        Ok(Region { origin, extent })
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.origin.len()
    }

    /// Total element count.
    pub fn volume(&self) -> u64 {
        self.extent.iter().product()
    }

    /// Exclusive upper corner.
    pub fn end(&self) -> Vec<u64> {
        self.origin
            .iter()
            .zip(&self.extent)
            .map(|(o, e)| o + e)
            .collect()
    }

    /// True if `self` lies entirely inside an array of `shape`.
    pub fn fits_in(&self, shape: &Shape) -> bool {
        self.ndims() == shape.ndims()
            && self.end().iter().zip(&shape.0).all(|(end, dim)| end <= dim)
    }

    /// Intersection with another region, or `None` if disjoint.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        debug_assert_eq!(self.ndims(), other.ndims());
        let mut origin = Vec::with_capacity(self.ndims());
        let mut extent = Vec::with_capacity(self.ndims());
        for i in 0..self.ndims() {
            let lo = self.origin[i].max(other.origin[i]);
            let hi = (self.origin[i] + self.extent[i]).min(other.origin[i] + other.extent[i]);
            if lo >= hi {
                return None;
            }
            origin.push(lo);
            extent.push(hi - lo);
        }
        Some(Region { origin, extent })
    }

    /// True if `coord` lies inside the region.
    pub fn contains(&self, coord: &[u64]) -> bool {
        coord.len() == self.ndims()
            && (0..self.ndims())
                .all(|i| coord[i] >= self.origin[i] && coord[i] < self.origin[i] + self.extent[i])
    }

    /// Iterate the region's maximal contiguous row-major runs *within an
    /// enclosing array of `shape`*: yields `(start_linear_index, run_len)`
    /// pairs in increasing order. A run is one row segment (innermost
    /// dimension), merged with neighbours when the region spans whole
    /// trailing dimensions.
    pub fn contiguous_runs<'a>(&'a self, shape: &'a Shape) -> ContiguousRuns<'a> {
        // Find how many trailing dimensions are "full": region covers the
        // whole dimension. Those fuse into longer runs.
        let n = self.ndims();
        let mut fused = 1u64; // elements per run
        let mut outer_dims = n; // dims we still iterate over
        for i in (0..n).rev() {
            if self.origin[i] == 0 && self.extent[i] == shape.0[i] {
                fused *= shape.0[i];
                outer_dims = i;
            } else {
                // the innermost non-full dim contributes its extent once
                fused *= self.extent[i];
                outer_dims = i;
                break;
            }
        }
        ContiguousRuns {
            region: self,
            shape,
            outer_dims,
            run_len: fused,
            counter: vec![0; outer_dims],
            done: false,
        }
    }
}

/// Iterator over `(start_index, len)` runs; see
/// [`Region::contiguous_runs`].
pub struct ContiguousRuns<'a> {
    region: &'a Region,
    shape: &'a Shape,
    outer_dims: usize,
    run_len: u64,
    counter: Vec<u64>,
    done: bool,
}

impl Iterator for ContiguousRuns<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.done {
            return None;
        }
        // Current coordinate = region origin + counter in the outer dims,
        // origin in the rest.
        let mut coord = self.region.origin.clone();
        for (c, step) in coord.iter_mut().zip(&self.counter).take(self.outer_dims) {
            *c += *step;
        }
        let start = self.shape.linearize(&coord);
        let item = (start, self.run_len);
        // Advance odometer over outer dims (row-major: last dim fastest).
        let mut i = self.outer_dims;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.counter[i] += 1;
            if self.counter[i] < self.region.extent[i] {
                break;
            }
            self.counter[i] = 0;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[u64]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    fn region(origin: &[u64], extent: &[u64]) -> Region {
        Region::new(origin.to_vec(), extent.to_vec()).unwrap()
    }

    #[test]
    fn shape_validation() {
        assert!(Shape::new(vec![]).is_err());
        assert!(Shape::new(vec![4, 0]).is_err());
        assert!(Shape::new(vec![8, 8]).is_ok());
    }

    #[test]
    fn strides_and_linearize() {
        let s = shape(&[4, 3, 2]);
        assert_eq!(s.strides(), vec![6, 2, 1]);
        assert_eq!(s.linearize(&[0, 0, 0]), 0);
        assert_eq!(s.linearize(&[1, 0, 0]), 6);
        assert_eq!(s.linearize(&[3, 2, 1]), 23);
        assert_eq!(s.volume(), 24);
    }

    #[test]
    fn delinearize_inverts_linearize() {
        let s = shape(&[5, 7, 3]);
        for idx in [0u64, 1, 20, 104, 33] {
            assert_eq!(s.linearize(&s.delinearize(idx)), idx);
        }
    }

    #[test]
    fn region_validation() {
        assert!(Region::new(vec![0], vec![0]).is_err());
        assert!(Region::new(vec![0, 0], vec![1]).is_err());
        assert!(Region::new(vec![], vec![]).is_err());
    }

    #[test]
    fn fits_in() {
        let s = shape(&[8, 8]);
        assert!(region(&[0, 0], &[8, 8]).fits_in(&s));
        assert!(region(&[6, 6], &[2, 2]).fits_in(&s));
        assert!(!region(&[6, 6], &[3, 2]).fits_in(&s));
        assert!(!region(&[0], &[8]).fits_in(&s));
    }

    #[test]
    fn intersect_basic() {
        let a = region(&[0, 0], &[4, 4]);
        let b = region(&[2, 2], &[4, 4]);
        assert_eq!(a.intersect(&b), Some(region(&[2, 2], &[2, 2])));
        let c = region(&[4, 4], &[2, 2]);
        assert_eq!(a.intersect(&c), None);
        // touching edges are disjoint
        let d = region(&[0, 4], &[4, 4]);
        assert_eq!(a.intersect(&d), None);
    }

    #[test]
    fn contains() {
        let r = region(&[2, 3], &[2, 2]);
        assert!(r.contains(&[2, 3]));
        assert!(r.contains(&[3, 4]));
        assert!(!r.contains(&[4, 3]));
        assert!(!r.contains(&[1, 3]));
    }

    #[test]
    fn runs_full_rows() {
        // rows 2..4 of an 8x8: one run per row of 8, or fused? region covers
        // the whole trailing dim -> fuse: (BLOCK, *) access is 1 run
        let s = shape(&[8, 8]);
        let r = region(&[2, 0], &[2, 8]);
        let runs: Vec<_> = r.contiguous_runs(&s).collect();
        assert_eq!(runs, vec![(16, 16)]);
    }

    #[test]
    fn runs_columns() {
        // columns 0..2 of an 8x8 -> (*, BLOCK): 8 runs of 2
        let s = shape(&[8, 8]);
        let r = region(&[0, 0], &[8, 2]);
        let runs: Vec<_> = r.contiguous_runs(&s).collect();
        assert_eq!(runs.len(), 8);
        assert_eq!(runs[0], (0, 2));
        assert_eq!(runs[1], (8, 2));
        assert_eq!(runs[7], (56, 2));
    }

    #[test]
    fn runs_interior_block() {
        let s = shape(&[8, 8]);
        let r = region(&[1, 2], &[2, 3]);
        let runs: Vec<_> = r.contiguous_runs(&s).collect();
        assert_eq!(runs, vec![(10, 3), (18, 3)]);
    }

    #[test]
    fn runs_whole_array_is_one_run() {
        let s = shape(&[4, 4, 4]);
        let runs: Vec<_> = s.full_region().contiguous_runs(&s).collect();
        assert_eq!(runs, vec![(0, 64)]);
    }

    #[test]
    fn runs_3d_partial() {
        let s = shape(&[2, 3, 4]);
        // region: both planes, row 1 only, cols 1..3 -> 2 runs of 2
        let r = region(&[0, 1, 1], &[2, 1, 2]);
        let runs: Vec<_> = r.contiguous_runs(&s).collect();
        assert_eq!(runs, vec![(5, 2), (17, 2)]);
    }

    #[test]
    fn runs_cover_region_volume() {
        let s = shape(&[6, 5, 4]);
        let r = region(&[1, 0, 2], &[3, 5, 2]);
        let total: u64 = r.contiguous_runs(&s).map(|(_, l)| l).sum();
        assert_eq!(total, r.volume());
    }

    #[test]
    fn grid_for_ceil_division() {
        let s = shape(&[8, 8]);
        assert_eq!(s.grid_for(&shape(&[2, 2])).unwrap(), shape(&[4, 4]));
        assert_eq!(s.grid_for(&shape(&[3, 8])).unwrap(), shape(&[3, 1]));
        assert!(s.grid_for(&shape(&[2])).is_err());
    }
}
