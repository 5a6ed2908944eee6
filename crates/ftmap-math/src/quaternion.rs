//! Unit quaternions and rigid-body rotations.
//!
//! PIPER's exhaustive search rotates the probe grid by an incremental angle; FTMap
//! samples 500 rotations of SO(3) (see [`crate::rotations`]). The rotations themselves
//! are represented here as unit quaternions with conversion to 3×3 matrices for the
//! hot rotate-all-atoms loops.

use crate::{Real, Vec3};
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk`. Rotations use unit quaternions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quaternion {
    /// Scalar part.
    pub w: Real,
    /// i component.
    pub x: Real,
    /// j component.
    pub y: Real,
    /// k component.
    pub z: Real,
}

impl Quaternion {
    /// The identity rotation.
    const IDENTITY: Quaternion = Quaternion { w: 1.0, x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a quaternion from components.
    #[inline]
    pub const fn new(w: Real, x: Real, y: Real, z: Real) -> Self {
        Quaternion { w, x, y, z }
    }

    /// Builds the rotation of `angle` radians about `axis` (normalized internally).
    pub fn from_axis_angle(axis: Vec3, angle: Real) -> Self {
        let axis = axis.normalized();
        let half = angle * 0.5;
        let s = half.sin();
        Quaternion::new(half.cos(), axis.x * s, axis.y * s, axis.z * s)
    }

    /// Builds a rotation from intrinsic Z-Y-Z Euler angles `(phi, theta, psi)`,
    /// the convention used by PIPER's rotation files.
    pub fn from_euler_zyz(phi: Real, theta: Real, psi: Real) -> Self {
        let qz1 = Quaternion::from_axis_angle(Vec3::Z, phi);
        let qy = Quaternion::from_axis_angle(Vec3::Y, theta);
        let qz2 = Quaternion::from_axis_angle(Vec3::Z, psi);
        qz1 * qy * qz2
    }

    /// Squared norm.
    #[inline]
    pub(crate) fn norm_sq(self) -> Real {
        self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Norm.
    #[inline]
    pub fn norm(self) -> Real {
        self.norm_sq().sqrt()
    }

    /// Returns the normalized (unit) quaternion; identity if the norm is ~0.
    pub fn normalized(self) -> Quaternion {
        let n = self.norm();
        if n <= Real::EPSILON {
            Quaternion::IDENTITY
        } else {
            Quaternion::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// Conjugate; for unit quaternions this is the inverse rotation.
    #[inline]
    fn conjugate(self) -> Quaternion {
        Quaternion::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Dot product of two quaternions (cosine of half the angle between rotations,
    /// up to sign).
    #[inline]
    pub fn dot(self, rhs: Quaternion) -> Real {
        self.w * rhs.w + self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }
}

impl Mul for Quaternion {
    type Output = Quaternion;
    #[inline]
    fn mul(self, r: Quaternion) -> Quaternion {
        Quaternion::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

/// A rigid-body rotation stored both as a unit quaternion and as the equivalent
/// 3×3 row-major matrix.
///
/// The matrix form is what the grid-rotation and atom-rotation inner loops use
/// (9 multiplies, no trig); the quaternion form is kept for the inverse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation {
    quat: Quaternion,
    mat: [[Real; 3]; 3],
}

impl Rotation {
    /// The identity rotation.
    pub fn identity() -> Self {
        Rotation::from_quaternion(Quaternion::IDENTITY)
    }

    /// Builds a rotation from a quaternion (normalized internally).
    pub(crate) fn from_quaternion(q: Quaternion) -> Self {
        let q = q.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        let mat = [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ];
        Rotation { quat: q, mat }
    }

    /// Builds the rotation of `angle` radians about `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: Real) -> Self {
        Rotation::from_quaternion(Quaternion::from_axis_angle(axis, angle))
    }

    /// Builds a rotation from Z-Y-Z Euler angles.
    pub fn from_euler_zyz(phi: Real, theta: Real, psi: Real) -> Self {
        Rotation::from_quaternion(Quaternion::from_euler_zyz(phi, theta, psi))
    }

    /// Applies the rotation to a vector using the cached matrix.
    #[inline]
    pub fn apply(&self, v: Vec3) -> Vec3 {
        let m = &self.mat;
        Vec3::new(
            m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
            m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
            m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
        )
    }

    /// The inverse rotation.
    pub fn inverse(&self) -> Rotation {
        Rotation::from_quaternion(self.quat.conjugate())
    }
}

impl Default for Rotation {
    fn default() -> Self {
        Rotation::identity()
    }
}

/// What the rotation tests measure: the quaternion form and the geodesic
/// angle between two rotations.
#[cfg(test)]
impl Rotation {
    pub(crate) fn quaternion(&self) -> Quaternion {
        self.quat
    }

    /// Geodesic angle (radians, in `[0, pi]`), accounting for the double
    /// cover.
    pub(crate) fn angle_to(&self, other: &Rotation) -> Real {
        2.0 * self.quat.dot(other.quat).abs().clamp(0.0, 1.0).acos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::FRAC_PI_2;

    /// Rotates `v` by the unit quaternion `q` as `q (0, v) q⁻¹`, expanded to
    /// avoid intermediate quaternions: the reference the cached matrix of
    /// [`Rotation`] is checked against.
    fn rotate(q: Quaternion, v: Vec3) -> Vec3 {
        let u = Vec3::new(q.x, q.y, q.z);
        let uv = u.cross(v);
        let uuv = u.cross(uv);
        v + (uv * q.w + uuv) * 2.0
    }

    fn assert_vec_eq(a: Vec3, b: Vec3) {
        assert!(approx_eq(a.x, b.x, 1e-9), "{a:?} vs {b:?}");
        assert!(approx_eq(a.y, b.y, 1e-9), "{a:?} vs {b:?}");
        assert!(approx_eq(a.z, b.z, 1e-9), "{a:?} vs {b:?}");
    }

    #[test]
    fn identity_leaves_vectors_unchanged() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_eq(rotate(Quaternion::IDENTITY, v), v);
        assert_vec_eq(Rotation::identity().apply(v), v);
    }

    #[test]
    fn quarter_turn_about_z() {
        let r = Rotation::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert_vec_eq(r.apply(Vec3::X), Vec3::Y);
        assert_vec_eq(r.apply(Vec3::Y), -Vec3::X);
        assert_vec_eq(r.apply(Vec3::Z), Vec3::Z);
    }

    #[test]
    fn rotation_preserves_length_and_angles() {
        let r = Rotation::from_euler_zyz(0.3, 1.1, -2.0);
        let a = Vec3::new(1.0, -2.0, 0.5);
        let b = Vec3::new(-0.2, 4.0, 1.5);
        assert!(approx_eq(r.apply(a).norm(), a.norm(), 1e-9));
        assert!(approx_eq(r.apply(a).dot(r.apply(b)), a.dot(b), 1e-9));
    }

    #[test]
    fn matrix_and_quaternion_agree() {
        let q = Quaternion::from_euler_zyz(0.7, 0.4, 1.9);
        let r = Rotation::from_quaternion(q);
        let v = Vec3::new(0.3, -1.2, 2.2);
        assert_vec_eq(rotate(q, v), r.apply(v));
    }

    #[test]
    fn inverse_undoes_rotation() {
        let r = Rotation::from_euler_zyz(1.0, 0.5, -0.3);
        let v = Vec3::new(2.0, -1.0, 0.25);
        assert_vec_eq(r.inverse().apply(r.apply(v)), v);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let r1 = Rotation::from_axis_angle(Vec3::X, 0.4);
        let r2 = Rotation::from_axis_angle(Vec3::Y, -1.2);
        let v = Vec3::new(1.0, 2.0, 3.0);
        let composed = Rotation::from_quaternion(r2.quaternion() * r1.quaternion());
        assert_vec_eq(composed.apply(v), r2.apply(r1.apply(v)));
    }

    #[test]
    fn angle_between_rotations() {
        let r1 = Rotation::identity();
        let r2 = Rotation::from_axis_angle(Vec3::X, 0.5);
        assert!(approx_eq(r1.angle_to(&r2), 0.5, 1e-9));
        // Double-cover: q and -q are the same rotation.
        let q = Quaternion::from_axis_angle(Vec3::Y, 1.0);
        let negq = Quaternion::new(-q.w, -q.x, -q.y, -q.z);
        assert!(
            Rotation::from_quaternion(q).angle_to(&Rotation::from_quaternion(negq)).abs() < 1e-9
        );
    }

    #[test]
    fn normalization_of_degenerate_quaternion() {
        let q = Quaternion::new(0.0, 0.0, 0.0, 0.0);
        assert_eq!(q.normalized(), Quaternion::IDENTITY);
    }
}
