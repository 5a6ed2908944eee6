//! Dense 3-D grids.
//!
//! Both PIPER energy-function grids (shape complementarity, electrostatics,
//! desolvation pairwise potentials) and the correlation *result* grid the GPU kernels
//! compute are represented as [`Grid3`]: a flat row-major `Vec<T>` with `(nx, ny, nz)`
//! dimensions, `z` fastest. The flat layout is what both the FFT engine and the
//! device-model kernels index directly.

use crate::{Real, Vec3};

/// A dense 3-D grid of values of type `T`, stored flat in row-major order
/// (`index = (x * ny + y) * nz + z`).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Physical spacing between adjacent voxels (Å). PIPER/FTMap use ~1 Å steps.
    pub spacing: Real,
    /// Physical coordinates of voxel (0, 0, 0) (Å).
    pub origin: Vec3,
    data: Vec<T>,
}

impl<T: Clone + Default> Grid3<T> {
    /// Creates a grid of the given dimensions filled with `T::default()`.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Grid3 {
            nx,
            ny,
            nz,
            spacing: 1.0,
            origin: Vec3::ZERO,
            data: vec![T::default(); nx * ny * nz],
        }
    }

    /// Creates a cubic grid of side `n`.
    pub fn cubic(n: usize) -> Self {
        Grid3::new(n, n, n)
    }

    /// Resets every voxel to `T::default()` without reallocating.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = T::default();
        }
    }
}

impl<T> Grid3<T> {
    /// Builds a grid from existing flat data.
    ///
    /// # Panics
    /// Panics if `data.len() != nx * ny * nz`.
    pub fn from_vec(nx: usize, ny: usize, nz: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), nx * ny * nz, "Grid3::from_vec length mismatch");
        Grid3 { nx, ny, nz, spacing: 1.0, origin: Vec3::ZERO, data }
    }

    /// Consumes the grid, returning its flat data.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Grid dimensions `(nx, ny, nz)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Number of voxels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid has no voxels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of voxel `(x, y, z)`.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (x * self.ny + y) * self.nz + z
    }

    /// Inverse of [`Grid3::index`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let z = idx % self.nz;
        let y = (idx / self.nz) % self.ny;
        let x = idx / (self.ny * self.nz);
        (x, y, z)
    }

    /// Reference to voxel `(x, y, z)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> &T {
        &self.data[self.index(x, y, z)]
    }

    /// Mutable reference to voxel `(x, y, z)`.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize, z: usize) -> &mut T {
        let idx = self.index(x, y, z);
        &mut self.data[idx]
    }

    /// The flat underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The flat underlying mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterates over `(x, y, z, &value)` in storage order.
    pub fn iter_voxels(&self) -> impl Iterator<Item = (usize, usize, usize, &T)> + '_ {
        self.data.iter().enumerate().map(move |(i, v)| {
            let (x, y, z) = self.coords(i);
            (x, y, z, v)
        })
    }
}

impl Grid3<Real> {
    /// Sum of all voxel values.
    pub fn sum(&self) -> Real {
        self.data.iter().sum()
    }

    /// Maximum voxel value (`-inf` for an empty grid).
    pub fn max_value(&self) -> Real {
        self.data.iter().copied().fold(Real::NEG_INFINITY, Real::max)
    }

    /// Minimum voxel value (`+inf` for an empty grid).
    pub fn min_value(&self) -> Real {
        self.data.iter().copied().fold(Real::INFINITY, Real::min)
    }

    /// Number of voxels whose absolute value exceeds `threshold`.
    pub fn count_above(&self, threshold: Real) -> usize {
        self.data.iter().filter(|v| v.abs() > threshold).count()
    }
}

#[cfg(test)]
impl Grid3<Real> {
    /// Copies this grid into the lower corner of a zero-padded grid of dimensions
    /// `(nx, ny, nz)`: the reference the footprint-aware
    /// `Fft3Plan::forward_real_padded_into` is checked against.
    ///
    /// # Panics
    /// Panics if the target dimensions are smaller than the source dimensions.
    pub(crate) fn zero_padded(&self, nx: usize, ny: usize, nz: usize) -> Grid3<Real> {
        assert!(
            nx >= self.nx && ny >= self.ny && nz >= self.nz,
            "zero_padded target must not be smaller than source"
        );
        let mut out = Grid3::new(nx, ny, nz);
        out.spacing = self.spacing;
        out.origin = self.origin;
        for x in 0..self.nx {
            for y in 0..self.ny {
                for z in 0..self.nz {
                    *out.at_mut(x, y, z) = *self.at(x, y, z);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn index_round_trip() {
        let g: Grid3<Real> = Grid3::new(3, 4, 5);
        for x in 0..3 {
            for y in 0..4 {
                for z in 0..5 {
                    let idx = g.index(x, y, z);
                    assert_eq!(g.coords(idx), (x, y, z));
                }
            }
        }
        assert_eq!(g.len(), 60);
    }

    #[test]
    fn default_fill_and_mutation() {
        let mut g: Grid3<Real> = Grid3::cubic(4);
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
        *g.at_mut(1, 2, 3) = 7.5;
        assert_eq!(*g.at(1, 2, 3), 7.5);
        g.clear();
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_wrong_length_panics() {
        let _ = Grid3::from_vec(2, 2, 2, vec![0.0_f64; 7]);
    }

    #[test]
    fn min_max_argmin() {
        let mut g: Grid3<Real> = Grid3::cubic(3);
        *g.at_mut(1, 1, 1) = -5.0;
        *g.at_mut(2, 2, 2) = 4.0;
        assert_eq!(g.max_value(), 4.0);
        assert_eq!(g.min_value(), -5.0);
        assert_eq!(g.count_above(3.0), 2);
    }

    #[test]
    fn zero_padding_preserves_values() {
        let mut small: Grid3<Real> = Grid3::cubic(2);
        *small.at_mut(0, 1, 1) = 2.5;
        *small.at_mut(1, 0, 0) = -1.0;
        let padded = small.zero_padded(4, 4, 4);
        assert_eq!(padded.dims(), (4, 4, 4));
        assert_eq!(*padded.at(0, 1, 1), 2.5);
        assert_eq!(*padded.at(1, 0, 0), -1.0);
        assert!(approx_eq(padded.sum(), small.sum(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "must not be smaller")]
    fn zero_padding_rejects_shrink() {
        let g: Grid3<Real> = Grid3::cubic(4);
        let _ = g.zero_padded(2, 4, 4);
    }

    #[test]
    fn iter_voxels_covers_all() {
        let g: Grid3<Real> = Grid3::new(2, 3, 2);
        let count = g.iter_voxels().count();
        assert_eq!(count, 12);
        let mut seen = std::collections::HashSet::new();
        for (x, y, z, _) in g.iter_voxels() {
            seen.insert((x, y, z));
        }
        assert_eq!(seen.len(), 12);
    }
}
