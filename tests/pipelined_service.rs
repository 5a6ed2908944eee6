//! Determinism of the pipelined, priority-aware dispatcher: a job's results
//! through the cross-batch phased scheduler must be **bit-identical** to a
//! dedicated `PipelineMode::Accelerated` run of the same request — for every
//! pool size, for shuffled mixed-class arrival orders, and under interactive
//! overtaking. Pipelining and priorities change *when and where* work runs
//! (spans, latencies, overlap savings), never *what* it computes.

use ftmap::gpu::sched::DevicePool;
use ftmap::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The mixed-class job mix: two receptors × four probe sets, alternating
/// latency classes so interactive batches overtake bulk ones mid-stream.
fn job_set() -> Vec<MappingRequest> {
    let ff = ForceField::charmm_like();
    let spec_a = ProteinSpec::small_test();
    let mut spec_b = ProteinSpec::small_test();
    spec_b.seed = 4242;
    let protein_a = SyntheticProtein::generate(&spec_a, &ff);
    let protein_b = SyntheticProtein::generate(&spec_b, &ff);
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 2;
    config.conformations_per_probe = 2;

    let probe_sets: [&[ProbeType]; 4] = [
        &[ProbeType::Ethanol],
        &[ProbeType::Acetone, ProbeType::Urea],
        &[ProbeType::Benzene, ProbeType::Ethanol],
        &[ProbeType::Isopropanol],
    ];
    let mut jobs = Vec::new();
    for (i, probes) in probe_sets.iter().enumerate() {
        for (label, protein) in [("a", &protein_a), ("b", &protein_b)] {
            let class = if i % 2 == 0 { LatencyClass::Interactive } else { LatencyClass::Bulk };
            jobs.push(
                MappingRequest::new(protein.clone(), ff.clone(), probes.to_vec(), config.clone())
                    .with_tag(format!("job-{label}{i}"))
                    .with_class(class),
            );
        }
    }
    jobs
}

/// Maps each request through a dedicated single-device accelerated pipeline —
/// the bit-exactness reference.
fn dedicated_reference(jobs: &[MappingRequest]) -> HashMap<String, MappingResult> {
    jobs.iter()
        .map(|job| {
            let result =
                FtMapPipeline::new(job.protein.clone(), job.ff.clone(), job.config.clone())
                    .map(&job.library());
            (job.tag.clone(), result)
        })
        .collect()
}

/// Runs the job set through a pipelined service on an `n`-device pool.
fn run_pipelined(jobs: Vec<MappingRequest>, devices: usize) -> HashMap<String, MappingResult> {
    let pool = Arc::new(DevicePool::tesla(devices));
    let service = BatchMappingService::builder(pool)
        .batch(BatchConfig { max_batch_jobs: 3, pose_block: 1, ..BatchConfig::default() })
        .build();
    let handles: Vec<_> =
        jobs.into_iter().map(|job| service.submit(job).expect_admitted("admitted")).collect();
    let mut results = HashMap::new();
    for handle in handles {
        let report = handle.wait();
        results.insert(report.tag.clone(), report.result.clone());
    }
    service.shutdown();
    results
}

fn assert_bit_identical(a: &MappingResult, b: &MappingResult, tag: &str) {
    assert_eq!(a.conformations_minimized, b.conformations_minimized, "{tag}: conformations");
    assert_eq!(a.pose_centers.len(), b.pose_centers.len(), "{tag}: pose count");
    for ((pa, ca), (pb, cb)) in a.pose_centers.iter().zip(&b.pose_centers) {
        assert_eq!(pa, pb, "{tag}: probe order");
        assert!(ca.x == cb.x && ca.y == cb.y && ca.z == cb.z, "{tag}: pose centre moved");
    }
    assert_eq!(a.sites.len(), b.sites.len(), "{tag}: site count");
    for (sa, sb) in a.sites.iter().zip(&b.sites) {
        assert_eq!(sa.rank, sb.rank, "{tag}");
        let (ca, cb) = (sa.cluster.center, sb.cluster.center);
        assert!(ca.x == cb.x && ca.y == cb.y && ca.z == cb.z, "{tag}: site centre moved");
        assert_eq!(sa.cluster.members.len(), sb.cluster.members.len(), "{tag}");
        for (ma, mb) in sa.cluster.members.iter().zip(&sb.cluster.members) {
            assert_eq!(ma.probe, mb.probe, "{tag}");
            assert!(ma.energy == mb.energy, "{tag}: member energy moved");
        }
    }
}

#[test]
fn pipelined_priority_service_is_bit_identical_across_pool_sizes() {
    let jobs = job_set();
    let reference = dedicated_reference(&jobs);
    for devices in [1usize, 2, 4] {
        let results = run_pipelined(jobs.clone(), devices);
        assert_eq!(results.len(), reference.len());
        for (tag, expected) in &reference {
            let got = results.get(tag).unwrap_or_else(|| panic!("{tag} missing"));
            assert_bit_identical(expected, got, &format!("{tag} on {devices} devices"));
        }
    }
}

#[test]
fn shuffled_mixed_class_arrival_orders_change_nothing() {
    let jobs = job_set();
    let reference = dedicated_reference(&jobs);
    // Three fixed shuffles that move interactive jobs ahead of, between, and
    // behind the bulk ones — exercising overtake, aging and FIFO paths.
    let mut orders = vec![jobs.clone()];
    let mut reversed = jobs.clone();
    reversed.reverse();
    orders.push(reversed);
    let mut interleaved = jobs.clone();
    interleaved.swap(0, 5);
    interleaved.swap(1, 6);
    interleaved.swap(3, 4);
    orders.push(interleaved);
    for (i, order) in orders.into_iter().enumerate() {
        let results = run_pipelined(order, 2);
        for (tag, expected) in &reference {
            let got = results.get(tag).unwrap_or_else(|| panic!("{tag} missing"));
            assert_bit_identical(expected, got, &format!("{tag}, arrival order {i}"));
        }
    }
}

#[test]
fn single_run_phased_map_matches_barriered_map() {
    // FtMapPipeline::map in Sharded mode — one batch on the phased scheduler,
    // with intra-run dock/minimize overlap — must match the accelerated
    // single-device reference.
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library = ProbeLibrary::subset(&ff, &[ProbeType::Ethanol, ProbeType::Acetone]);
    let reference = FtMapPipeline::new(
        protein.clone(),
        ff.clone(),
        FtMapConfig::small_test(PipelineMode::Accelerated),
    )
    .map(&library);
    let pipeline = FtMapPipeline::new(
        protein,
        ff,
        FtMapConfig::small_test(PipelineMode::Sharded { devices: 2, pose_block: 1 }),
    );
    let phased = pipeline.map(&library);
    assert_bit_identical(&reference, &phased, "sharded map");
    // The phased profile reports scheduler views: per-device loads and the
    // phase-overlap savings a barrier could not have had.
    assert_eq!(phased.profile.device_loads.len(), 2);
    let probes: usize = phased.profile.device_loads.iter().map(|l| l.probes).sum();
    assert_eq!(probes, library.len());
    let blocks: usize = phased.profile.device_loads.iter().map(|l| l.pose_blocks).sum();
    assert_eq!(blocks, phased.conformations_minimized, "block size 1 ⇒ one block per pose");
    assert!(phased.profile.pipeline_overlap_saved_s >= 0.0);
}
