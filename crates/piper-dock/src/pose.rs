//! Docked poses.
//!
//! A pose is a rotation index (into the rotation set being scored) plus a translation
//! of the probe grid relative to the protein grid, together with its weighted score.
//! PIPER retains a handful of poses per rotation (FTMap keeps 4); the retained poses
//! become the conformations minimized in phase two.

use ftmap_math::{Real, Rotation, Vec3};

/// A scored rigid-body pose of the probe relative to the protein.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Index of the rotation in the rotation set used for the docking run.
    pub rotation_index: usize,
    /// Translation in voxel units `(α, β, γ)` of Equation (1).
    pub translation: (usize, usize, usize),
    /// Weighted correlation score; more negative is better (stronger predicted binding).
    pub score: Real,
}

impl Pose {
    /// The probe-centroid position implied by this pose: the receptor-grid location the
    /// probe footprint is translated to. `result[d] = Σ_v L[v]·R[v+d]`, so a probe whose
    /// footprint is anchored at ligand voxel 0 lands at receptor voxel `d`:
    /// `origin + d · spacing` (the small half-footprint offset of the probe centroid
    /// within its own grid is neglected — under one voxel for FTMap-sized probes).
    fn probe_center(&self, grid_origin: Vec3, spacing: Real, dims: (usize, usize, usize)) -> Vec3 {
        let _ = dims;
        grid_origin
            + Vec3::new(
                self.translation.0 as Real,
                self.translation.1 as Real,
                self.translation.2 as Real,
            ) * spacing
    }

    /// Applies the pose to a set of probe atom positions (already centred on the probe
    /// centroid): rotate, then translate to the pose centre.
    pub(crate) fn place_probe(
        &self,
        rotation: &Rotation,
        centered_positions: &[Vec3],
        grid_origin: Vec3,
        spacing: Real,
        dims: (usize, usize, usize),
    ) -> Vec<Vec3> {
        let center = self.probe_center(grid_origin, spacing, dims);
        centered_positions.iter().map(|&p| rotation.apply(p) + center).collect()
    }
}

/// Orders poses best-first (most negative score first), with stable tie-breaking on
/// rotation index and translation so sorting is deterministic.
pub(crate) fn sort_best_first(poses: &mut [Pose]) {
    poses.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .expect("pose scores must not be NaN")
            .then(a.rotation_index.cmp(&b.rotation_index))
            .then(a.translation.cmp(&b.translation))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_best_first_orders_by_score_then_ties() {
        let mut poses = vec![
            Pose { rotation_index: 2, translation: (0, 0, 0), score: -1.0 },
            Pose { rotation_index: 1, translation: (0, 0, 0), score: -5.0 },
            Pose { rotation_index: 0, translation: (0, 0, 1), score: -1.0 },
            Pose { rotation_index: 0, translation: (0, 0, 0), score: -1.0 },
        ];
        sort_best_first(&mut poses);
        assert_eq!(poses[0].score, -5.0);
        assert_eq!(poses[1].rotation_index, 0);
        assert_eq!(poses[1].translation, (0, 0, 0));
        assert_eq!(poses[2].translation, (0, 0, 1));
        assert_eq!(poses[3].rotation_index, 2);
    }

    #[test]
    fn place_probe_translates_and_rotates() {
        let pose = Pose { rotation_index: 0, translation: (2, 0, 0), score: 0.0 };
        let rot = Rotation::identity();
        let pts = vec![Vec3::ZERO, Vec3::X];
        let placed = pose.place_probe(&rot, &pts, Vec3::ZERO, 1.0, (8, 8, 8));
        assert_eq!(placed[0], Vec3::new(2.0, 0.0, 0.0));
        assert_eq!(placed[1], Vec3::new(3.0, 0.0, 0.0));
    }
}
