//! Rotation sampling of SO(3).
//!
//! PIPER normally evaluates tens of thousands of rotations; FTMap coarsens the sampling
//! to **500 rotations** per probe to bound the rigid-docking cost (paper §II.A). This
//! module generates deterministic, approximately uniform rotation sets of any requested
//! size.

use crate::{Quaternion, Real, Rotation};

/// The rotation-set size FTMap uses for mapping runs.
pub const FTMAP_ROTATION_COUNT: usize = 500;

/// A precomputed set of rigid-body rotations to be scored by the docking engine.
#[derive(Debug, Clone)]
pub struct RotationSet {
    rotations: Vec<Rotation>,
}

impl RotationSet {
    /// Builds an approximately uniform rotation set of `count` rotations using a
    /// deterministic super-Fibonacci-style spiral over SO(3).
    ///
    /// The construction maps a low-discrepancy sequence onto unit quaternions
    /// (Shoemake's subgroup algorithm with stratified inputs), giving a deterministic,
    /// reproducible covering of rotation space — which is what a docking rotation file
    /// provides in the original code.
    pub fn uniform(count: usize) -> Self {
        assert!(count > 0, "rotation set must contain at least one rotation");
        // Golden-ratio based low-discrepancy sequence in 3 dimensions.
        const G1: Real = 0.819_172_513_396_164_4; // 1/phi_3
        const G2: Real = 0.671_043_606_703_789_2; // 1/phi_3^2
        const G3: Real = 0.549_700_477_901_439_4; // 1/phi_3^3
        let mut rotations = Vec::with_capacity(count);
        for i in 0..count {
            if i == 0 {
                rotations.push(Rotation::identity());
                continue;
            }
            let u1 = ((i as Real) * G1).fract();
            let u2 = ((i as Real) * G2).fract();
            let u3 = ((i as Real) * G3).fract();
            rotations.push(Rotation::from_quaternion(shoemake(u1, u2, u3)));
        }
        RotationSet { rotations }
    }

    /// Number of rotations in the set.
    pub fn len(&self) -> usize {
        self.rotations.len()
    }

    /// True when the set is empty (never by construction).
    pub fn is_empty(&self) -> bool {
        self.rotations.is_empty()
    }

    /// The rotations as a slice.
    pub fn rotations(&self) -> &[Rotation] {
        &self.rotations
    }

    /// The `i`-th rotation.
    pub fn get(&self, i: usize) -> &Rotation {
        &self.rotations[i]
    }

    /// Iterates over the rotations.
    pub fn iter(&self) -> impl Iterator<Item = &Rotation> {
        self.rotations.iter()
    }
}

/// Shoemake's algorithm: maps three uniform numbers in `[0, 1)` to a uniformly
/// distributed unit quaternion.
fn shoemake(u1: Real, u2: Real, u3: Real) -> Quaternion {
    let tau = 2.0 * std::f64::consts::PI;
    let s1 = (1.0 - u1).sqrt();
    let s2 = u1.sqrt();
    Quaternion::new(
        s2 * (tau * u3).cos(),
        s1 * (tau * u2).sin(),
        s1 * (tau * u2).cos(),
        s2 * (tau * u3).sin(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, Vec3};

    /// The largest geodesic distance from any rotation in the set to its
    /// nearest neighbour — the coverage metric the uniformity test bounds.
    fn max_nearest_neighbor_angle(set: &RotationSet) -> Real {
        let mut worst: Real = 0.0;
        for (i, a) in set.iter().enumerate() {
            let mut nearest = Real::INFINITY;
            for (j, b) in set.iter().enumerate() {
                if i != j {
                    nearest = nearest.min(a.angle_to(b));
                }
            }
            worst = worst.max(nearest);
        }
        worst
    }

    #[test]
    fn uniform_set_has_requested_size_and_unit_quaternions() {
        let set = RotationSet::uniform(100);
        assert_eq!(set.len(), 100);
        for r in set.iter() {
            assert!(approx_eq(r.quaternion().norm(), 1.0, 1e-9));
        }
    }

    #[test]
    fn ftmap_default_is_500() {
        assert_eq!(FTMAP_ROTATION_COUNT, 500);
        assert_eq!(RotationSet::uniform(FTMAP_ROTATION_COUNT).len(), 500);
    }

    #[test]
    fn first_rotation_is_identity() {
        let set = RotationSet::uniform(10);
        assert!(set.get(0).angle_to(&Rotation::identity()) < 1e-12);
    }

    #[test]
    fn uniform_set_is_deterministic() {
        let a = RotationSet::uniform(50);
        let b = RotationSet::uniform(50);
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert!(ra.angle_to(rb) < 1e-12);
        }
    }

    #[test]
    fn rotations_preserve_length() {
        let set = RotationSet::uniform(64);
        let v = Vec3::new(1.0, 2.0, -0.5);
        for r in set.iter() {
            assert!(approx_eq(r.apply(v).norm(), v.norm(), 1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "at least one rotation")]
    fn empty_uniform_set_panics() {
        let _ = RotationSet::uniform(0);
    }

    #[test]
    fn uniform_coverage_better_than_tiny_random() {
        // A 200-rotation low-discrepancy set should cover SO(3) with every rotation
        // having a reasonably close neighbour; sanity bound rather than a tight one.
        let set = RotationSet::uniform(200);
        assert!(max_nearest_neighbor_angle(&set) < 1.2);
    }
}
