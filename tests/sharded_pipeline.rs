//! Determinism of the sharded pipeline at whole-probe granularity
//! (`pose_block: 0`): `PipelineMode::Sharded` must produce **bit-identical**
//! consensus sites to `PipelineMode::Accelerated` for any pool size — sharding
//! changes where and when work runs, never what it computes, and the phased
//! batch re-assembles results in library order no matter which device serviced
//! each probe. The pose-granularity counterpart lives in
//! `tests/pose_sharded_pipeline.rs`.

use ftmap::prelude::*;

fn mapped(mode: PipelineMode) -> MappingResult {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library = ProbeLibrary::subset(
        &ff,
        &[ProbeType::Ethanol, ProbeType::Acetone, ProbeType::Benzene, ProbeType::Urea],
    );
    let pipeline = FtMapPipeline::new(protein, ff, FtMapConfig::small_test(mode));
    pipeline.map(&library)
}

/// Exact (bitwise) equality of everything downstream consumers read from a run.
fn assert_bit_identical(reference: &MappingResult, sharded: &MappingResult, label: &str) {
    assert_eq!(
        reference.conformations_minimized, sharded.conformations_minimized,
        "{label}: conformation counts diverged"
    );
    assert_eq!(
        reference.pose_centers.len(),
        sharded.pose_centers.len(),
        "{label}: pose-center counts diverged"
    );
    for (i, ((pa, ca), (pb, cb))) in
        reference.pose_centers.iter().zip(&sharded.pose_centers).enumerate()
    {
        assert_eq!(pa, pb, "{label}: probe order diverged at pose {i}");
        assert!(
            ca.x == cb.x && ca.y == cb.y && ca.z == cb.z,
            "{label}: pose {i} center {ca:?} != {cb:?}"
        );
    }
    assert_eq!(reference.sites.len(), sharded.sites.len(), "{label}: site counts diverged");
    for (a, b) in reference.sites.iter().zip(&sharded.sites) {
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
fn sharded_output_is_bit_identical_to_accelerated_for_1_2_4_devices() {
    let reference = mapped(PipelineMode::Accelerated);
    assert!(!reference.sites.is_empty());
    for devices in [1usize, 2, 4] {
        let sharded = mapped(PipelineMode::Sharded { devices, pose_block: 0 });
        assert_bit_identical(&reference, &sharded, &format!("{devices} devices"));
        // The sharded run additionally carries the pool's load report.
        let schedule = sharded.profile.schedule.as_ref().expect("sharded runs keep a schedule");
        assert_eq!(schedule.per_device.len(), devices);
        let serviced: usize = schedule.per_device.iter().map(|d| d.dock.ops).sum();
        assert_eq!(serviced, 4, "{devices} devices serviced the wrong probe count");
    }
}

#[test]
fn sharded_output_is_deterministic_across_repeated_runs() {
    // Two sharded runs of the same pipeline may assign probes to different
    // devices, but the assembled output must not move.
    let a = mapped(PipelineMode::Sharded { devices: 2, pose_block: 0 });
    let b = mapped(PipelineMode::Sharded { devices: 2, pose_block: 0 });
    assert_bit_identical(&a, &b, "repeated sharded run");
}

#[test]
fn heterogeneous_pool_produces_identical_sites() {
    // A mixed Tesla + Xeon pool changes modeled timings, never results.
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Acetone]);
    let config = FtMapConfig::small_test(PipelineMode::Sharded { devices: 2, pose_block: 0 });
    let reference = FtMapPipeline::new(
        protein.clone(),
        ff.clone(),
        FtMapConfig::small_test(PipelineMode::Accelerated),
    )
    .map(&library);
    let mixed =
        FtMapPipeline::with_pool(protein, ff, config, ftmap::gpu::sched::DevicePool::mixed(1, 1))
            .map(&library);
    assert_bit_identical(&reference, &mixed, "mixed pool");
    let schedule = mixed.profile.schedule.as_ref().expect("sharded runs keep a schedule");
    let names: Vec<&str> = schedule.per_device.iter().map(|d| d.device.as_str()).collect();
    assert!(names.iter().any(|n| n.contains("Tesla")));
    assert!(names.iter().any(|n| n.contains("Xeon")));
}
