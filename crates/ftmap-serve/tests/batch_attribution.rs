//! Residency events are attributed to the batch whose items caused them, even
//! with two batches in flight: every dock item makes exactly one raw
//! residency lookup, so a batch's `cache.lookups()` must equal its own probe
//! count — a pool-wide "events since the previous completion" window hands
//! batches their neighbours' lookups and misses instead — and the per-batch
//! figures must partition both the service total and the pool's counters.

use ftmap_core::{FtMapConfig, PipelineMode};
use ftmap_molecule::{ForceField, ProbeType, ProteinSpec, SyntheticProtein};
use ftmap_serve::config::BatchConfig;
use ftmap_serve::{BatchMappingService, MappingRequest};
use gpu_sim::sched::DevicePool;
use gpu_sim::CacheStats;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Six requests over three receptors, interleaved so consecutive single-job
/// batches dock against different receptors (each first touch on a device is
/// a miss its neighbour in flight must not be charged for).
fn requests() -> Vec<MappingRequest> {
    let ff = ForceField::charmm_like();
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 16;
    config.conformations_per_probe = 4;
    let proteins: Vec<SyntheticProtein> = [7u64, 1301, 2203]
        .iter()
        .map(|&seed| {
            SyntheticProtein::generate(&ProteinSpec { seed, ..ProteinSpec::small_test() }, &ff)
        })
        .collect();
    let probe_sets: [&[ProbeType]; 6] = [
        &[ProbeType::Ethanol],
        &[ProbeType::Acetone, ProbeType::Urea],
        &[ProbeType::Benzene, ProbeType::Ethanol, ProbeType::Acetone],
        &[ProbeType::Urea, ProbeType::Benzene],
        &[ProbeType::Ethanol],
        &[ProbeType::Acetone, ProbeType::Benzene, ProbeType::Urea],
    ];
    probe_sets
        .iter()
        .enumerate()
        .map(|(i, probes)| {
            MappingRequest::new(
                proteins[i % 3].clone(),
                ff.clone(),
                probes.to_vec(),
                config.clone(),
            )
            .with_tag(format!("job-{i}"))
        })
        .collect()
}

#[test]
fn overlapping_batches_are_charged_exactly_their_own_residency_events() {
    let pool = Arc::new(DevicePool::tesla(2));
    let service = BatchMappingService::builder(Arc::clone(&pool))
        .batch(BatchConfig {
            max_batch_jobs: 1,
            max_inflight_batches: 2,
            pose_block: 1,
            ..BatchConfig::default()
        })
        .build();
    let handles: Vec<_> = requests()
        .into_iter()
        .map(|request| service.submit(request).expect_admitted("admitted"))
        .collect();
    let reports: Vec<_> = handles.iter().map(|handle| handle.wait()).collect();
    let stats = service.shutdown();

    // Each distinct batch once (jobs of one batch share its summary).
    let batches: BTreeMap<usize, _> =
        reports.iter().map(|report| (report.batch.batch_index, &report.batch)).collect();
    assert_eq!(batches.len(), 6, "max_batch_jobs 1 ⇒ one batch per request");
    let mut batch_total = CacheStats::default();
    for (index, batch) in &batches {
        assert_eq!(
            batch.cache.lookups(),
            batch.probes as u64,
            "batch {index}: {} probes but cache {:?}",
            batch.probes,
            batch.cache
        );
        batch_total.accumulate(&batch.cache);
    }
    assert_eq!(batch_total, stats.cache(), "Σ per-batch events vs the service total");
    let mut pool_total = CacheStats::default();
    for device in pool.devices() {
        pool_total.accumulate(&device.residency().stats());
    }
    assert_eq!(batch_total, pool_total, "Σ per-batch events vs the pool's counters");
}
