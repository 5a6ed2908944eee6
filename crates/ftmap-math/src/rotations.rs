//! Rotation sampling of SO(3).
//!
//! PIPER normally evaluates tens of thousands of rotations; FTMap coarsens the sampling
//! to **500 rotations** per probe to bound the rigid-docking cost (paper §II.A). This
//! module generates deterministic, approximately uniform rotation sets of any requested
//! size, plus the layered Euler-angle sets used when a structured sweep is preferred.

use crate::{Quaternion, Real, Rotation, Vec3};
use rand::{rngs::SmallRng, Rng, SeedableRng};

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

    /// Builds the FTMap default set of [`FTMAP_ROTATION_COUNT`] rotations.
    pub fn ftmap_default() -> Self {
        RotationSet::uniform(FTMAP_ROTATION_COUNT)
    }

    /// Builds a random rotation set (seeded, for tests and synthetic workloads).
    pub fn random(count: usize, seed: u64) -> Self {
        assert!(count > 0, "rotation set must contain at least one rotation");
        let mut rng = SmallRng::seed_from_u64(seed);
        let rotations = (0..count)
            .map(|_| {
                let u1: Real = rng.gen();
                let u2: Real = rng.gen();
                let u3: Real = rng.gen();
                Rotation::from_quaternion(shoemake(u1, u2, u3))
            })
            .collect();
        RotationSet { rotations }
    }

    /// Builds a structured Euler-angle sweep with `steps` divisions per angle
    /// (so `steps^3` rotations), the "incremental angle" scheme described for PIPER.
    pub fn euler_sweep(steps: usize) -> Self {
        assert!(steps > 0, "euler_sweep needs at least one step per angle");
        let mut rotations = Vec::with_capacity(steps * steps * steps);
        let tau = 2.0 * std::f64::consts::PI;
        for i in 0..steps {
            for j in 0..steps {
                for k in 0..steps {
                    let phi = tau * i as Real / steps as Real;
                    let theta = std::f64::consts::PI * j as Real / steps as Real;
                    let psi = tau * k as Real / steps as Real;
                    rotations.push(Rotation::from_euler_zyz(phi, theta, psi));
                }
            }
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

    /// Splits the set into contiguous batches of at most `batch` rotations each —
    /// the multi-rotation batching unit of the GPU direct-correlation kernel
    /// (8 rotations per pass for 4³ probes in the paper).
    pub fn batches(&self, batch: usize) -> Vec<&[Rotation]> {
        assert!(batch > 0, "batch size must be positive");
        self.rotations.chunks(batch).collect()
    }

    /// The largest geodesic distance from any rotation in the set to its nearest
    /// neighbour — a coverage metric used by tests to check uniformity.
    pub fn max_nearest_neighbor_angle(&self) -> Real {
        let mut worst: Real = 0.0;
        for (i, a) in self.rotations.iter().enumerate() {
            let mut nearest = Real::INFINITY;
            for (j, b) in self.rotations.iter().enumerate() {
                if i == j {
                    continue;
                }
                nearest = nearest.min(a.angle_to(b));
            }
            worst = worst.max(nearest);
        }
        worst
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

/// Convenience: the image of the +X axis under every rotation in the set. Used by
/// examples to visualize coverage of the sphere.
pub fn rotated_axes(set: &RotationSet) -> Vec<Vec3> {
    set.iter().map(|r| r.apply(Vec3::X)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

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
        assert_eq!(RotationSet::ftmap_default().len(), FTMAP_ROTATION_COUNT);
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
    fn random_sets_differ_across_seeds_but_not_within() {
        let a = RotationSet::random(20, 1);
        let b = RotationSet::random(20, 1);
        let c = RotationSet::random(20, 2);
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert!(ra.angle_to(rb) < 1e-12);
        }
        let any_different = a.iter().zip(c.iter()).any(|(ra, rc)| ra.angle_to(rc) > 1e-6);
        assert!(any_different);
    }

    #[test]
    fn rotations_preserve_length() {
        let set = RotationSet::random(64, 3);
        let v = Vec3::new(1.0, 2.0, -0.5);
        for r in set.iter() {
            assert!(approx_eq(r.apply(v).norm(), v.norm(), 1e-9));
        }
    }

    #[test]
    fn euler_sweep_size() {
        assert_eq!(RotationSet::euler_sweep(3).len(), 27);
        assert_eq!(RotationSet::euler_sweep(1).len(), 1);
    }

    #[test]
    fn batches_cover_all_rotations() {
        let set = RotationSet::uniform(20);
        let batches = set.batches(8);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 8);
        assert_eq!(batches[2].len(), 4);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let set = RotationSet::uniform(4);
        let _ = set.batches(0);
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
        assert!(set.max_nearest_neighbor_angle() < 1.2);
    }

    #[test]
    fn rotated_axes_are_unit_vectors() {
        let set = RotationSet::uniform(30);
        for axis in rotated_axes(&set) {
            assert!(approx_eq(axis.norm(), 1.0, 1e-9));
        }
    }
}
