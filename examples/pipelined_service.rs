//! The pipelined, priority-aware service end to end: a stream of bulk library
//! scans with interactive jobs arriving mid-stream on a 4-device pool.
//!
//! Demonstrates the three serve-layer moves the dispatcher makes:
//!
//! * **cross-batch phase overlap** — batch N+1's probes dock on whichever
//!   devices batch N's minimization leaves idle (no two-phase barrier), so
//!   the service's modeled span beats the sum of its batch makespans;
//! * **latency classes** — the interactive jobs overtake the bulk queue and
//!   finish with a fraction of its modeled latency, while the aging knob
//!   keeps the bulk jobs moving;
//! * **batch-scoped accounting** — per-batch transfer seconds partition the
//!   pool total exactly even though batches overlap in flight.
//!
//! Run with: `cargo run --release --example pipelined_service`

use ftmap::prelude::*;
use std::sync::Arc;

fn main() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);

    let mut bulk_config = FtMapConfig::small_test(PipelineMode::Accelerated);
    bulk_config.docking.n_rotations = 2;
    bulk_config.conformations_per_probe = 6;
    let mut interactive_config = bulk_config.clone();
    interactive_config.conformations_per_probe = 1;

    // 6 bulk scans then 3 interactive requests, all against one receptor.
    let mut jobs: Vec<MappingRequest> = (0..6)
        .map(|i| {
            MappingRequest::new(
                protein.clone(),
                ff.clone(),
                vec![ProbeType::Ethanol, ProbeType::Acetone],
                bulk_config.clone(),
            )
            .with_tag(format!("bulk-{i}"))
        })
        .collect();
    jobs.extend((0..3).map(|i| {
        MappingRequest::new(
            protein.clone(),
            ff.clone(),
            vec![ProbeType::Urea],
            interactive_config.clone(),
        )
        .with_tag(format!("interactive-{i}"))
        .with_class(LatencyClass::Interactive)
    }));

    let pool = Arc::new(DevicePool::tesla(4));
    let service = BatchMappingService::builder(Arc::clone(&pool))
        .batch(BatchConfig {
            max_batch_jobs: 2,
            pose_block: 2,
            bulk_aging: 4,
            ..BatchConfig::default()
        })
        .build();
    println!(
        "pipelined service up: {} devices, {} jobs ({} bulk + 3 interactive)\n",
        pool.len(),
        jobs.len(),
        jobs.len() - 3
    );

    let handles: Vec<JobHandle> =
        jobs.into_iter().map(|job| service.submit(job).expect_admitted("job refused")).collect();
    let reports: Vec<_> = handles.iter().map(JobHandle::wait).collect();

    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "job", "batch", "class", "latency ms", "span ms", "overlap ms"
    );
    for report in &reports {
        println!(
            "{:<16} {:>6} {:>12} {:>12.3} {:>12.3} {:>12.3}",
            report.tag,
            report.batch.batch_index,
            format!("{:?}", report.batch.class),
            1e3 * report.batch.latency_modeled_s,
            1e3 * report.batch.report.span_modeled_s(),
            1e3 * report.batch.report.overlap_saved_s(),
        );
        assert!(!report.result.sites.is_empty(), "{}: no consensus sites", report.tag);
    }

    // Per-phase breakdown of the batch that carried one job (modeled
    // kernel/transfer/overlap seconds over the pool).
    let batch = &reports[0].batch;
    println!("\nper-phase breakdown of batch {} (carried {}):", batch.batch_index, reports[0].tag);
    print!("{}", ftmap::core::phase_table(&batch.report));

    let stats = service.shutdown();
    let barrier_sum: f64 = {
        // What a two-phase barrier per batch would have taken: each batch
        // serially, its dock-phase makespan then its minimize-phase makespan
        // (the batch's span plus what phase overlap saved it).
        let mut seen = std::collections::BTreeMap::new();
        for r in &reports {
            seen.insert(
                r.batch.batch_index,
                r.batch.report.span_modeled_s() + r.batch.report.overlap_saved_s(),
            );
        }
        seen.values().sum()
    };
    println!(
        "\nmodeled span {:.3} ms vs {:.3} ms of barriered batches back to back \
         ({:.3} ms of cross-batch overlap reclaimed)",
        1e3 * stats.span_modeled_s,
        1e3 * barrier_sum,
        1e3 * stats.cross_batch_overlap_modeled_s,
    );
    println!(
        "interactive latency: mean {:.3} ms, p95 {:.3} ms over {} batches \
         | bulk: mean {:.3} ms over {} batches",
        1e3 * stats.interactive.mean_s,
        1e3 * stats.interactive.p95_s,
        stats.interactive.batches,
        1e3 * stats.bulk.mean_s,
        stats.bulk.batches,
    );
    let service_transfer = stats.transfer_modeled_s();
    let pool_transfer = pool.total_transfer_time();
    println!(
        "batch-scoped transfer accounting: service {:.6} ms == pool {:.6} ms",
        1e3 * service_transfer,
        1e3 * pool_transfer
    );

    assert!(stats.cross_batch_overlap_modeled_s > 0.0, "batches must overlap");
    assert!(
        stats.interactive.mean_s < stats.bulk.mean_s,
        "interactive work must not wait out the bulk queue"
    );
    assert!(
        (service_transfer - pool_transfer).abs() < 1e-9,
        "batch-scoped transfers must partition the pool total"
    );
    println!("\npipelined service drained and shut down cleanly");
}
