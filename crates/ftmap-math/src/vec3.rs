//! 3-component double-precision vectors.
//!
//! [`Vec3`] is the coordinate/force/gradient type used throughout the workspace.
//! It is a plain `Copy` struct of three `f64`s so that arrays of coordinates are
//! laid out contiguously and iterate cache-friendly, which matters for the
//! non-bonded inner loops of the energy evaluator.

use crate::Real;
use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 3-component vector of [`Real`] values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: Real,
    /// Y component.
    pub y: Real,
    /// Z component.
    pub z: Real,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit vector along X.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit vector along Y.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit vector along Z.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: Real, y: Real, z: Real) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: Real) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> Real {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Squared Euclidean norm. Preferred in distance cutoffs to avoid the sqrt.
    #[inline]
    pub fn norm_sq(self) -> Real {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> Real {
        self.norm_sq().sqrt()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_sq(self, rhs: Vec3) -> Real {
        (self - rhs).norm_sq()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> Real {
        self.distance_sq(rhs).sqrt()
    }

    /// Returns the vector scaled to unit length. Returns the zero vector when the
    /// norm is (numerically) zero, so callers never divide by zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n <= Real::EPSILON {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Returns `[x, y, z]` as an array.
    #[inline]
    pub fn to_array(self) -> [Real; 3] {
        [self.x, self.y, self.z]
    }

    /// Builds a vector from `[x, y, z]`.
    #[inline]
    pub fn from_array(a: [Real; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }

    /// True when all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// The centroid (arithmetic mean) of a set of points; [`Vec3::ZERO`] for an empty set.
    pub fn centroid(points: &[Vec3]) -> Vec3 {
        if points.is_empty() {
            return Vec3::ZERO;
        }
        let sum: Vec3 = points.iter().copied().sum();
        sum / points.len() as Real
    }

    /// Axis-aligned bounding box of a set of points as `(min, max)`.
    /// Returns `(ZERO, ZERO)` for an empty set.
    pub fn bounding_box(points: &[Vec3]) -> (Vec3, Vec3) {
        match points.first() {
            None => (Vec3::ZERO, Vec3::ZERO),
            Some(&first) => {
                points.iter().fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)))
            }
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<Real> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Real) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for Real {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<Real> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: Real) {
        *self = *self * rhs;
    }
}

impl Div<Real> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: Real) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<Real> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: Real) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |acc, v| acc + v)
    }
}

impl Index<usize> for Vec3 {
    type Output = Real;
    #[inline]
    fn index(&self, idx: usize) -> &Real {
        match idx {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {idx}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, idx: usize) -> &mut Real {
        match idx {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {idx}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn arithmetic_basics() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec3::X;
        let b = Vec3::Y;
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vec3::Z);
        assert_eq!(b.cross(a), -Vec3::Z);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(approx_eq(v.dot(v), v.norm_sq(), 1e-12));
    }

    #[test]
    fn norms_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!(approx_eq(v.norm(), 5.0, 1e-12));
        assert!(approx_eq(v.distance(Vec3::ZERO), 5.0, 1e-12));
        assert!(approx_eq(v.distance_sq(Vec3::ZERO), 25.0, 1e-12));
    }

    #[test]
    fn normalized_unit_length() {
        let v = Vec3::new(1.0, -2.0, 2.5);
        assert!(approx_eq(v.normalized().norm(), 1.0, 1e-12));
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn compound_assignment() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v, Vec3::new(2.0, 3.0, 4.0));
        v -= Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(v, Vec3::new(1.0, 2.0, 3.0));
        v *= 2.0;
        assert_eq!(v, Vec3::new(2.0, 4.0, 6.0));
        v /= 2.0;
        assert_eq!(v, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 3.0);
        v[1] = 9.0;
        assert_eq!(v.y, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexing_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn centroid_and_bbox() {
        let pts = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(2.0, 2.0, 2.0), Vec3::new(4.0, -2.0, 1.0)];
        let c = Vec3::centroid(&pts);
        assert!(approx_eq(c.x, 2.0, 1e-12));
        assert!(approx_eq(c.y, 0.0, 1e-12));
        assert!(approx_eq(c.z, 1.0, 1e-12));
        let (lo, hi) = Vec3::bounding_box(&pts);
        assert_eq!(lo, Vec3::new(0.0, -2.0, 0.0));
        assert_eq!(hi, Vec3::new(4.0, 2.0, 2.0));
        assert_eq!(Vec3::centroid(&[]), Vec3::ZERO);
        assert_eq!(Vec3::bounding_box(&[]), (Vec3::ZERO, Vec3::ZERO));
    }

    #[test]
    fn sum_iterator() {
        let pts = vec![Vec3::X, Vec3::Y, Vec3::Z];
        let s: Vec3 = pts.into_iter().sum();
        assert_eq!(s, Vec3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn array_round_trip() {
        let v = Vec3::new(1.5, -2.5, 3.5);
        assert_eq!(Vec3::from_array(v.to_array()), v);
    }
}
