//! Acceptance gates for request-centric tracing: for any traced pipelined
//! serve workload, every job's causal tree analyzes to a latency breakdown
//! whose segments sum **exactly** (1e-9) to that job's own modeled
//! admission-to-completion latency, and the critical path's execution span
//! never exceeds the carrying batch's makespan — with equality on the
//! single-chain workload (one job, one probe, fused dock+minimize), where
//! the request *is* the batch.

use ftmap::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn request(probes: &[ProbeType], tag: &str, class: LatencyClass) -> MappingRequest {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 2;
    config.conformations_per_probe = 1;
    MappingRequest::new(protein, ff, probes.to_vec(), config).with_tag(tag).with_class(class)
}

const PROBE_MENU: [ProbeType; 3] = [ProbeType::Ethanol, ProbeType::Acetone, ProbeType::Urea];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exact attribution for any workload shape: pool size, scheduling
    /// granularity, job count and class mix.
    #[test]
    fn breakdown_segments_sum_to_each_jobs_latency(
        pool_size in 1usize..3,
        pose_block in 0usize..3,
        n_jobs in 1usize..5,
        class_mask in 0u8..4,
    ) {
        let recorder = Arc::new(Recorder::new());
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(pool_size)))
            .batch(BatchConfig { pose_block, max_batch_jobs: 2, ..BatchConfig::default() })
            .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
            .build();
        let handles: Vec<JobHandle> = (0..n_jobs)
            .map(|i| {
                let class = if (class_mask >> (i % 2)) & 1 == 1 {
                    LatencyClass::Interactive
                } else {
                    LatencyClass::Bulk
                };
                let probes = &PROBE_MENU[..1 + i % PROBE_MENU.len()];
                service.submit(request(probes, &format!("j{i}"), class)).expect_admitted("admitted")
            })
            .collect();
        let reports: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        service.shutdown();

        let trees = build_request_trees(&recorder.events());
        prop_assert_eq!(trees.len(), n_jobs);
        for report in &reports {
            let tree = trees
                .iter()
                .find(|t| t.trace_id == report.trace_id)
                .expect("tree for every job");
            let analysis = analyze(tree).expect("every pipelined tree analyzes");
            // The exact-sum invariant: segments telescope to the job's own
            // modeled latency, not merely approximate it.
            let sum: f64 = analysis.breakdown.segments().iter().map(|(_, v)| v).sum();
            prop_assert!(
                (sum - report.latency_modeled_s).abs() < 1e-9,
                "trace {}: breakdown sum {} != latency {}",
                report.trace_id, sum, report.latency_modeled_s
            );
            prop_assert!(
                (analysis.breakdown.total_s() - sum).abs() < 1e-12,
                "total_s must agree with the segment sum"
            );
            for (name, value) in analysis.breakdown.segments() {
                prop_assert!(value >= 0.0, "segment {} is negative: {}", name, value);
            }
            // The request's execution span is bounded by its batch's makespan:
            // a single request can never run longer than the batch carrying it.
            let span = analysis.path.execution_span_s();
            prop_assert!(span >= 0.0);
            prop_assert!(
                span <= report.batch.report.span_modeled_s() + 1e-9,
                "trace {}: critical-path span {} exceeds batch makespan {}",
                report.trace_id, span, report.batch.report.span_modeled_s()
            );
        }
    }
}

/// On a single-chain workload — one job, one probe, fused dock+minimize on a
/// one-device pool — the request is the whole batch, so the slowest request's
/// critical-path execution span must *reproduce* the batch makespan exactly.
#[test]
fn single_chain_critical_path_reproduces_the_batch_span() {
    let recorder = Arc::new(Recorder::new());
    let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(1)))
        .batch(BatchConfig { pose_block: 0, ..BatchConfig::default() })
        .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .build();
    let report = service
        .submit(request(&[ProbeType::Ethanol], "solo", LatencyClass::Bulk))
        .expect_admitted("ok")
        .wait();
    service.shutdown();

    let trees = build_request_trees(&recorder.events());
    assert_eq!(trees.len(), 1);
    let analyses = analyze_all(&trees);
    assert_eq!(analyses.len(), 1);
    let analysis = &analyses[0];
    assert_eq!(analysis.trace_id, report.trace_id);
    assert!(
        (analysis.path.execution_span_s() - report.batch.report.span_modeled_s()).abs() < 1e-9,
        "single-chain critical path {} != batch makespan {}",
        analysis.path.execution_span_s(),
        report.batch.report.span_modeled_s()
    );
    assert!(
        (analysis.breakdown.total_s() - report.latency_modeled_s).abs() < 1e-9,
        "and its breakdown still sums to the latency"
    );
    // The fused chain is admit -> batch-form -> dock -> resolve (no separate
    // minimize item), all on one device.
    let names: Vec<&str> = analysis.path.steps.iter().map(|s| s.name).collect();
    assert_eq!(names, ["admit", "batch-form", "dock", "resolve"]);
}
