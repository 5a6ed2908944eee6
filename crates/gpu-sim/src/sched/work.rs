//! The pose-granularity work-item layer.
//!
//! The paper's unit of GPU work is the *conformation*: 500 rotations × 4
//! retained poses = 2000 minimizations per probe. Sharding at whole-probe
//! granularity wastes that parallelism twice over — a library smaller than the
//! pool leaves devices idle, and one hot probe serializes its 2000
//! minimizations on a single device. [`WorkItem`] is the finer unit: a
//! contiguous block of one probe's retained poses, scheduled independently of
//! its siblings, so one probe's minimizations spread across the pool exactly
//! like the fine-grained decompositions of the GPU MD/lattice codes the
//! scheduler borrows from (van Meel et al.; Barros et al.).
//!
//! Items carry a **cost-model weight** (their pose count), handed to the
//! executor with each minimize block ([`super::PhasedExec::dock`]'s layout):
//! backlog projections price a ragged final block by its poses, not as a full
//! block.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One schedulable block of retained poses: `pose_range` of probe `probe_idx`.
///
/// `probe_idx` indexes whatever per-probe list the scheduler's consumer keeps
/// (the probe library for a pipeline run; the flattened `(job, probe)` dock
/// results for a service batch) — the work layer never needs to know what a
/// probe is, only how its poses partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// Index of the probe (or docked entry) this block belongs to.
    pub probe_idx: usize,
    /// The half-open range of retained-pose indices this block minimizes.
    pub pose_range: Range<usize>,
}

impl WorkItem {
    /// Number of poses in the block.
    pub fn len(&self) -> usize {
        self.pose_range.len()
    }

    /// True when the block holds no poses.
    pub fn is_empty(&self) -> bool {
        self.pose_range.is_empty()
    }

    /// The block's cost-model weight: its pose count. Per-pose minimization
    /// cost is uniform within a probe, so weight-proportional estimates keep
    /// a ragged final block from skewing the virtual clocks.
    pub fn weight(&self) -> f64 {
        self.len() as f64
    }
}

/// Partitions each probe's retained poses into blocks of at most `block`
/// poses, in `(probe, pose)` order — the deterministic re-assembly order.
///
/// `poses_per_probe[i]` is probe `i`'s retained-pose count; probes with zero
/// poses contribute no items. `block == 0` means "one block per probe" (whole-
/// probe granularity expressed in the same work-item currency).
pub fn pose_blocks(poses_per_probe: &[usize], block: usize) -> Vec<WorkItem> {
    let block = if block == 0 { usize::MAX } else { block };
    let mut items = Vec::new();
    for (probe_idx, &n_poses) in poses_per_probe.iter().enumerate() {
        let mut start = 0;
        while start < n_poses {
            let end = start.saturating_add(block).min(n_poses);
            items.push(WorkItem { probe_idx, pose_range: start..end });
            start = end;
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_partition_each_probe_exactly() {
        let items = pose_blocks(&[5, 0, 3], 2);
        assert_eq!(
            items,
            vec![
                WorkItem { probe_idx: 0, pose_range: 0..2 },
                WorkItem { probe_idx: 0, pose_range: 2..4 },
                WorkItem { probe_idx: 0, pose_range: 4..5 },
                WorkItem { probe_idx: 2, pose_range: 0..2 },
                WorkItem { probe_idx: 2, pose_range: 2..3 },
            ]
        );
        // The ragged tail blocks weigh less than the full ones.
        assert_eq!(items[0].weight(), 2.0);
        assert_eq!(items[2].weight(), 1.0);
        assert!(!items[0].is_empty());
        assert_eq!(items[4].len(), 1);
    }

    #[test]
    fn zero_block_means_whole_probe_granularity() {
        let items = pose_blocks(&[2000, 7], 0);
        assert_eq!(
            items,
            vec![
                WorkItem { probe_idx: 0, pose_range: 0..2000 },
                WorkItem { probe_idx: 1, pose_range: 0..7 },
            ]
        );
    }

    #[test]
    fn oversized_block_degenerates_to_one_item_per_probe() {
        assert_eq!(pose_blocks(&[3], 50), vec![WorkItem { probe_idx: 0, pose_range: 0..3 }]);
        assert!(pose_blocks(&[], 4).is_empty());
        assert!(pose_blocks(&[0, 0], 4).is_empty());
    }

    #[test]
    fn block_of_one_yields_one_item_per_pose() {
        let items = pose_blocks(&[3], 1);
        assert_eq!(items.len(), 3);
        assert!(items.iter().all(|i| i.len() == 1));
        let covered: Vec<usize> = items.iter().flat_map(|i| i.pose_range.clone()).collect();
        assert_eq!(covered, vec![0, 1, 2]);
    }
}
