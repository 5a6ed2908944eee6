//! The pose-granularity block layout.
//!
//! The paper's unit of GPU work is the *conformation*: 500 rotations × 4
//! retained poses = 2000 minimizations per probe. Sharding at whole-probe
//! granularity wastes that parallelism twice over — a library smaller than the
//! pool leaves devices idle, and one hot probe serializes its 2000
//! minimizations on a single device. [`pose_blocks`] lays one docked probe's
//! retained poses out as contiguous blocks, each scheduled independently of
//! its siblings, so one probe's minimizations spread across the pool exactly
//! like the fine-grained decompositions of the GPU MD/lattice codes the
//! scheduler borrows from (van Meel et al.; Barros et al.).

use std::ops::Range;

/// Partitions `n_poses` retained poses into blocks of at most `block` poses,
/// in pose order — the deterministic re-assembly order — as the
/// `(pose_range, weight)` layout [`super::PhasedExec::dock`] returns.
///
/// A block's cost-model weight is its pose count: per-pose minimization cost
/// is uniform within a probe, so backlog projections price a ragged final
/// block by its poses, not as a full block. `block == 0` means one block for
/// the whole probe; zero poses yield no blocks.
pub fn pose_blocks(n_poses: usize, block: usize) -> Vec<(Range<usize>, f64)> {
    let block = if block == 0 { n_poses.max(1) } else { block };
    (0..n_poses)
        .step_by(block)
        .map(|start| {
            let range = start..start.saturating_add(block).min(n_poses);
            let weight = range.len() as f64;
            (range, weight)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_partition_each_probe_exactly() {
        assert_eq!(pose_blocks(5, 2), vec![(0..2, 2.0), (2..4, 2.0), (4..5, 1.0)]);
        assert_eq!(pose_blocks(3, 2), vec![(0..2, 2.0), (2..3, 1.0)]);
        assert!(pose_blocks(0, 2).is_empty());
    }

    #[test]
    fn zero_block_means_whole_probe_granularity() {
        assert_eq!(pose_blocks(2000, 0), vec![(0..2000, 2000.0)]);
        assert_eq!(pose_blocks(7, 0), vec![(0..7, 7.0)]);
        assert!(pose_blocks(0, 0).is_empty());
    }

    #[test]
    fn oversized_block_degenerates_to_one_item_per_probe() {
        assert_eq!(pose_blocks(3, 50), vec![(0..3, 3.0)]);
        assert_eq!(pose_blocks(3, usize::MAX), vec![(0..3, 3.0)]);
        assert!(pose_blocks(0, 4).is_empty());
    }

    #[test]
    fn block_of_one_yields_one_item_per_pose() {
        let blocks = pose_blocks(3, 1);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.iter().all(|(range, weight)| range.len() == 1 && *weight == 1.0));
        let covered: Vec<usize> = blocks.iter().flat_map(|(range, _)| range.clone()).collect();
        assert_eq!(covered, vec![0, 1, 2]);
    }
}
