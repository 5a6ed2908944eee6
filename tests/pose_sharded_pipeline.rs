//! Determinism of the pose-granularity schedule: `PipelineMode::Sharded` with
//! any positive `pose_block` must produce **bit-identical** output to
//! `PipelineMode::Accelerated` across pool sizes, block sizes, and pool
//! shapes. The dock-once / minimize-pose-block split changes where and when a
//! probe's retained poses are minimized — one probe's blocks spread over the
//! whole pool — but the phased batch folds block results in
//! `(probe, pose)` order, so nothing downstream can tell the difference.

use ftmap::gpu::sched::DevicePool;
use ftmap::prelude::*;

fn workload() -> (SyntheticProtein, ForceField, ProbeLibrary) {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library =
        ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Acetone, ProbeType::Benzene]);
    (protein, ff, library)
}

fn mapped(mode: PipelineMode) -> MappingResult {
    let (protein, ff, library) = workload();
    FtMapPipeline::new(protein, ff, FtMapConfig::small_test(mode)).map(&library)
}

/// Exact (bitwise) equality of everything downstream consumers read from a run.
fn assert_bit_identical(reference: &MappingResult, split: &MappingResult, label: &str) {
    assert_eq!(
        reference.conformations_minimized, split.conformations_minimized,
        "{label}: conformation counts diverged"
    );
    assert_eq!(
        reference.pose_centers.len(),
        split.pose_centers.len(),
        "{label}: pose-center counts diverged"
    );
    for (i, ((pa, ca), (pb, cb))) in
        reference.pose_centers.iter().zip(&split.pose_centers).enumerate()
    {
        assert_eq!(pa, pb, "{label}: probe order diverged at pose {i}");
        assert!(
            ca.x == cb.x && ca.y == cb.y && ca.z == cb.z,
            "{label}: pose {i} center {ca:?} != {cb:?}"
        );
    }
    assert_eq!(reference.sites.len(), split.sites.len(), "{label}: site counts diverged");
    for (a, b) in reference.sites.iter().zip(&split.sites) {
        assert_eq!(a.rank, b.rank, "{label}");
        let (ca, cb) = (a.cluster.center, b.cluster.center);
        assert!(
            ca.x == cb.x && ca.y == cb.y && ca.z == cb.z,
            "{label}: site {} center {ca:?} != {cb:?}",
            a.rank
        );
        assert_eq!(a.cluster.members.len(), b.cluster.members.len(), "{label}");
        for (ma, mb) in a.cluster.members.iter().zip(&b.cluster.members) {
            assert_eq!(ma.probe, mb.probe, "{label}");
            assert!(ma.energy == mb.energy, "{label}: {} != {}", ma.energy, mb.energy);
        }
    }
}

#[test]
fn pose_blocks_are_bit_identical_across_pools_and_block_sizes() {
    let reference = mapped(PipelineMode::Accelerated);
    assert!(!reference.sites.is_empty());
    // Block sizes straddle the interesting regimes: 1 (one block per pose —
    // maximal spread), 50 (the default), 2000 (bigger than any probe's pose
    // count — degenerates to one block per probe).
    for devices in [1usize, 2, 4] {
        for pose_block in [1usize, 50, 2000] {
            let split = mapped(PipelineMode::Sharded { devices, pose_block });
            let label = format!("{devices} devices, block {pose_block}");
            assert_bit_identical(&reference, &split, &label);
            // The load report accounts every dock item and every block.
            let loads = &split.profile.device_loads;
            assert_eq!(loads.len(), devices, "{label}");
            let dock_items: usize = loads.iter().map(|l| l.probes).sum();
            assert_eq!(dock_items, 3, "{label}: dock items");
            let blocks: usize = loads.iter().map(|l| l.pose_blocks).sum();
            let expected_blocks = if pose_block == 1 {
                split.conformations_minimized // one block per pose
            } else {
                3 // block ≥ pose count ⇒ one block per probe
            };
            assert_eq!(blocks, expected_blocks, "{label}: pose blocks");
            // The per-phase stream rows carry the same counts, and phase
            // overlap can only have saved time.
            let streams = &split.profile.phase_streams;
            assert_eq!(streams.len(), 2, "{label}");
            assert_eq!((streams[0].phase.as_str(), streams[0].ops), ("dock", 3), "{label}");
            assert_eq!(
                (streams[1].phase.as_str(), streams[1].ops),
                ("minimize", expected_blocks),
                "{label}"
            );
            assert!(split.profile.pipeline_overlap_saved_s >= 0.0, "{label}");
        }
    }
}

#[test]
fn pose_blocks_are_deterministic_across_repeated_runs() {
    // Two runs may assign blocks to different devices; the assembled output
    // must not move.
    let a = mapped(PipelineMode::Sharded { devices: 4, pose_block: 1 });
    let b = mapped(PipelineMode::Sharded { devices: 4, pose_block: 1 });
    assert_bit_identical(&a, &b, "repeated pose-block run");
}

#[test]
fn mixed_pool_pose_blocks_produce_identical_sites() {
    // A heterogeneous Tesla + Xeon pool changes modeled timings and block
    // assignment, never results.
    let (protein, ff, library) = workload();
    let reference = FtMapPipeline::new(
        protein.clone(),
        ff.clone(),
        FtMapConfig::small_test(PipelineMode::Accelerated),
    )
    .map(&library);
    let config = FtMapConfig::small_test(PipelineMode::Sharded { devices: 3, pose_block: 1 });
    let mixed =
        FtMapPipeline::with_pool(protein, ff, config, DevicePool::mixed(2, 1)).map(&library);
    assert_bit_identical(&reference, &mixed, "mixed pool");
    let names: Vec<&str> = mixed.profile.device_loads.iter().map(|l| l.device.as_str()).collect();
    assert!(names.iter().any(|n| n.contains("Tesla")));
    assert!(names.iter().any(|n| n.contains("Xeon")));
}

#[test]
fn single_hot_probe_spreads_across_the_pool() {
    // The scenario the pose-granularity refactor exists for: ONE probe, many
    // retained poses, a 4-device pool. Probe granularity serializes everything
    // on one device; pose blocks must put every device to work and beat the
    // probe-granularity makespan.
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol]);
    let run = |pose_block: usize| {
        let mut config = FtMapConfig::small_test(PipelineMode::Sharded { devices: 4, pose_block });
        config.docking.n_rotations = 8;
        config.conformations_per_probe = 16;
        FtMapPipeline::new(protein.clone(), ff.clone(), config).map(&library)
    };
    let coarse = run(0);
    let fine = run(2);
    assert_bit_identical(&coarse, &fine, "hot probe");

    // Probe granularity: one device owns the probe, three idle.
    let coarse_active = coarse.profile.device_loads.iter().filter(|l| l.probes > 0).count();
    assert_eq!(coarse_active, 1);
    // Pose granularity: 16 poses in blocks of 2 = 8 blocks over 4 devices.
    let fine_active = fine.profile.device_loads.iter().filter(|l| l.pose_blocks > 0).count();
    assert!(fine_active >= 3, "only {fine_active} of 4 devices claimed blocks");
    assert!(
        fine.profile.makespan_modeled_s() < coarse.profile.makespan_modeled_s(),
        "pose blocks {} should beat the serialized probe {}",
        fine.profile.makespan_modeled_s(),
        coarse.profile.makespan_modeled_s()
    );
}
