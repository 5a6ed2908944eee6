//! # ftmap-math
//!
//! Math substrate for the ftmap-rs workspace: the Rust reproduction of
//! *Fast Binding Site Mapping using GPUs and CUDA* (Sukhwani & Herbordt, 2010).
//!
//! This crate provides the numerical building blocks that both the PIPER-style
//! rigid-docking engine and the CHARMM/ACE energy-minimization engine are built on:
//!
//! * [`Vec3`] — 3-component double-precision vectors used for atom coordinates,
//!   forces and gradients.
//! * [`Quaternion`] and [`Rotation`] — rigid-body rotations; [`rotations::RotationSet`]
//!   reproduces FTMap's coarse 500-rotation sampling of SO(3).
//! * [`Complex`] and [`fft`] — a self-contained radix-2 complex FFT (1-D and 3-D) used by
//!   the FFT-correlation baseline of PIPER.
//! * [`Grid3`] — dense 3-D grids with voxel indexing, padding and cyclic correlation
//!   helpers; the common representation of the docking energy functions.
//! * [`stats`] — small online statistics helpers used by the benchmark harness.
//!
//! Everything in this crate is deterministic and allocation-conscious: hot paths take
//! slices and write into caller-provided buffers where that matters (see the
//! perf-book-style guidance followed throughout the workspace).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod complex;
pub mod fft;
pub mod grid;
pub(crate) mod quaternion;
pub mod rotations;
pub mod stats;
mod vec3;

pub use complex::Complex;
pub use grid::Grid3;
pub use quaternion::{Quaternion, Rotation};
pub use rotations::RotationSet;
pub use vec3::Vec3;

/// Workspace-wide floating point type used for physics (double precision, as the
/// original FTMap/CHARMM code uses doubles for energies).
pub type Real = f64;

/// Returns true when two reals are equal within `tol` absolute or relative tolerance.
///
/// This is the comparison used by the test-suites across the workspace; it treats
/// values as equal if either the absolute difference or the difference relative to
/// the larger magnitude is below `tol`.
#[inline]
pub fn approx_eq(a: Real, b: Real, tol: Real) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let largest = a.abs().max(b.abs());
    diff <= largest * tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(0.0, 1e-13, 1e-12));
        assert!(!approx_eq(0.0, 1e-3, 1e-12));
    }
}
