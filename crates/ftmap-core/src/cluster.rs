//! Consensus clustering of minimized probe poses.
//!
//! FTMap's defining output is the *consensus site*: the surface region where poses of
//! many **different** probe types pile up (paper §I–II: hotspots "bind a wide variety of
//! small molecule probes"). This module clusters pose centres greedily by distance and
//! ranks clusters by the number of distinct probe types they contain.

use ftmap_math::{Real, Vec3};
use ftmap_molecule::ProbeType;

/// One minimized pose entering clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterInput {
    /// Probe type the pose belongs to.
    pub probe: ProbeType,
    /// Pose centre (probe centroid after minimization), Å.
    pub center: Vec3,
    /// Minimized energy (lower is better).
    pub energy: Real,
}

/// A cluster of poses from (possibly) many probe types.
#[derive(Debug, Clone)]
pub struct ConsensusCluster {
    /// Cluster centroid, Å.
    pub center: Vec3,
    /// Member poses.
    pub members: Vec<ClusterInput>,
}

impl ConsensusCluster {
    /// Number of distinct probe types represented in the cluster — the consensus count
    /// used to rank candidate hotspots.
    pub fn distinct_probes(&self) -> usize {
        let mut types: Vec<ProbeType> = self.members.iter().map(|m| m.probe).collect();
        types.sort_by_key(|t| *t as usize);
        types.dedup();
        types.len()
    }

    /// The lowest member energy.
    pub fn best_energy(&self) -> Real {
        self.members.iter().map(|m| m.energy).fold(Real::INFINITY, Real::min)
    }
}

/// A ranked consensus site (hotspot candidate).
#[derive(Debug, Clone)]
pub struct ConsensusSite {
    /// Rank (0 = strongest consensus).
    pub rank: usize,
    /// The underlying cluster.
    pub cluster: ConsensusCluster,
}

/// Greedy distance clustering: poses are processed best-energy-first; each pose joins
/// the first cluster whose centroid is within `radius`, otherwise it seeds a new
/// cluster. Clusters are then ranked by distinct-probe count (ties broken by best
/// energy).
pub fn cluster_poses(poses: &[ClusterInput], radius: Real) -> Vec<ConsensusSite> {
    assert!(radius > 0.0, "cluster radius must be positive");
    let mut sorted: Vec<ClusterInput> = poses.to_vec();
    sorted.sort_by(|a, b| a.energy.partial_cmp(&b.energy).expect("energies must not be NaN"));

    let mut clusters: Vec<ConsensusCluster> = Vec::new();
    for pose in sorted {
        match clusters.iter_mut().find(|c| c.center.distance(pose.center) <= radius) {
            Some(cluster) => {
                cluster.members.push(pose);
                let positions: Vec<Vec3> = cluster.members.iter().map(|m| m.center).collect();
                cluster.center = Vec3::centroid(&positions);
            }
            None => clusters.push(ConsensusCluster { center: pose.center, members: vec![pose] }),
        }
    }

    clusters.sort_by(|a, b| {
        b.distinct_probes()
            .cmp(&a.distinct_probes())
            .then(a.best_energy().partial_cmp(&b.best_energy()).expect("energies must not be NaN"))
    });
    clusters
        .into_iter()
        .enumerate()
        .map(|(rank, cluster)| ConsensusSite { rank, cluster })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pose(probe: ProbeType, x: Real, energy: Real) -> ClusterInput {
        ClusterInput { probe, center: Vec3::new(x, 0.0, 0.0), energy }
    }

    #[test]
    fn poses_at_same_site_form_one_cluster() {
        let poses = vec![
            pose(ProbeType::Ethanol, 0.0, -5.0),
            pose(ProbeType::Acetone, 0.5, -4.0),
            pose(ProbeType::Benzene, 0.8, -3.0),
            pose(ProbeType::Ethanol, 20.0, -2.0),
        ];
        let sites = cluster_poses(&poses, 2.0);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].rank, 0);
        assert_eq!(sites[0].cluster.members.len(), 3);
        assert_eq!(sites[0].cluster.distinct_probes(), 3);
        assert_eq!(sites[1].cluster.members.len(), 1);
    }

    #[test]
    fn ranking_prefers_probe_diversity_over_size() {
        // Cluster A: 3 poses, all ethanol. Cluster B: 2 poses, 2 different probes.
        let poses = vec![
            pose(ProbeType::Ethanol, 0.0, -9.0),
            pose(ProbeType::Ethanol, 0.1, -8.0),
            pose(ProbeType::Ethanol, 0.2, -7.0),
            pose(ProbeType::Urea, 30.0, -6.0),
            pose(ProbeType::Benzene, 30.2, -5.0),
        ];
        let sites = cluster_poses(&poses, 2.0);
        assert_eq!(sites[0].cluster.distinct_probes(), 2);
        assert_eq!(sites[0].cluster.members.len(), 2);
        assert_eq!(sites[1].cluster.distinct_probes(), 1);
    }

    #[test]
    fn best_energy_and_centroid() {
        let poses = vec![pose(ProbeType::Ethanol, 0.0, -5.0), pose(ProbeType::Acetone, 2.0, -10.0)];
        let sites = cluster_poses(&poses, 5.0);
        assert_eq!(sites.len(), 1);
        let c = &sites[0].cluster;
        assert_eq!(c.best_energy(), -10.0);
        assert!((c.center.x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_gives_no_sites() {
        assert!(cluster_poses(&[], 3.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_panics() {
        let _ = cluster_poses(&[], 0.0);
    }
}
