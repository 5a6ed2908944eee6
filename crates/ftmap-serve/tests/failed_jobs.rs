//! A job whose inputs make its work panic fails alone: its waiter resolves
//! (`JobHandle::wait` panics with the original message, the status reads
//! `Failed`), its in-flight reservation is released, and the service keeps
//! serving. Each input below panics somewhere else — a minimization on a
//! scheduler worker, a docking on a scheduler worker, the receptor build in
//! the dispatcher's batch set-up, and the clustering in the batch's result
//! assembly. Every wait runs behind a watchdog, so a regression fails within
//! seconds instead of hanging the suite.

use ftmap_core::{FtMapConfig, FtMapPipeline, MappingResult, PipelineMode};
use ftmap_molecule::{ForceField, ProbeType, ProteinSpec, SyntheticProtein};
use ftmap_serve::{AdmissionConfig, BatchMappingService, JobStatus, MappingRequest};
use ftmap_trace::{analyze_all, build_request_trees, sanitize, Recorder, TraceSink};
use gpu_sim::sched::DevicePool;
use std::any::Any;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long any one wait may block before the test fails.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Runs `f` on its own thread and returns what it returned, or how it
/// panicked; fails the test if it is still blocked after [`WATCHDOG`].
fn within_watchdog<T: Send + 'static>(
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Box<dyn Any + Send>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(outcome) => outcome,
        Err(_) => panic!("{what}: still blocked after {WATCHDOG:?}"),
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(message) => (*message).to_string(),
        None => payload.downcast_ref::<String>().cloned().unwrap_or_default(),
    }
}

fn request(tag: &str) -> MappingRequest {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 2;
    config.conformations_per_probe = 1;
    MappingRequest::new(protein, ff, vec![ProbeType::Ethanol, ProbeType::Acetone], config)
        .with_tag(tag)
}

fn dedicated_map(request: &MappingRequest) -> MappingResult {
    FtMapPipeline::new(request.protein.clone(), request.ff.clone(), request.config.clone())
        .map(&request.library())
}

/// The bits a mapping result carries: sites, pose centres, conformation
/// count (`Debug` prints every `f64` round-trip exactly).
fn result_bits(result: &MappingResult) -> String {
    format!("{:?}", (&result.sites, &result.pose_centers, result.conformations_minimized))
}

/// Submits a job whose config `break_config` made invalid, then a healthy
/// job on the same protein, to a two-device service that lets one job per
/// receptor be in flight, and checks the failure stays with the bad job.
fn bad_job_fails_alone(break_config: fn(&mut FtMapConfig)) {
    let mut bad = request("bad");
    break_config(&mut bad.config);
    let healthy = request("healthy");
    // The original message: what the same inputs panic with when mapped
    // directly on this thread.
    let original = catch_unwind(AssertUnwindSafe(|| dedicated_map(&bad)))
        .map(|_| ())
        .map_err(|payload| panic_message(&*payload))
        .expect_err("the broken config panics when mapped directly");
    let want = result_bits(&dedicated_map(&healthy));

    let recorder = Arc::new(Recorder::new());
    // Dropped only through `shutdown` behind the watchdog: if a wait times
    // out, unwinding must not block on joining a wedged dispatcher.
    let service = ManuallyDrop::new(
        BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .admission(AdmissionConfig {
                max_inflight_per_receptor: Some(1),
                ..AdmissionConfig::default()
            })
            .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
            .build(),
    );

    let handle = service.submit(bad).expect_admitted("admitted");
    let waiter = handle.clone();
    let payload = within_watchdog("the failed job's wait", move || waiter.wait())
        .expect_err("a failed job's wait panics");
    let message = panic_message(&*payload);
    assert_eq!(message, format!("batch 0 failed: {original}"));
    assert_eq!(handle.status(), JobStatus::Failed);

    // Same protein as the bad job; with one job per receptor in flight, a
    // reservation the failure leaked would keep it queued forever.
    let handle = service.submit(healthy).expect_admitted("admitted");
    let report = within_watchdog("the healthy job's wait", move || handle.wait())
        .unwrap_or_else(|payload| resume_unwind(payload));
    assert_eq!(result_bits(&report.result), want);

    let stats = within_watchdog("shutdown", move || ManuallyDrop::into_inner(service).shutdown())
        .unwrap_or_else(|payload| resume_unwind(payload));
    assert_eq!((stats.jobs_submitted, stats.jobs_completed, stats.jobs_failed), (2, 1, 1));

    let events = recorder.events();
    let failed_resolves = events
        .iter()
        .filter(|e| e.name == "job-resolve" && e.tags.verdict == Some("failed"))
        .count();
    assert_eq!(failed_resolves, 1);
    let report = sanitize(&events);
    assert!(report.is_clean(), "{:?}", report.violations);
    // The failed request's tree still telescopes: its resolve instant lies
    // after every item its batch ran.
    for analysis in analyze_all(&build_request_trees(&events)) {
        assert!((analysis.breakdown.total_s() - analysis.latency_s).abs() < 1e-9);
    }
}

#[test]
fn zero_neighbor_refresh_interval_fails_in_minimization() {
    bad_job_fails_alone(|config| config.minimization.neighbor_refresh_interval = 0);
}

#[test]
fn zero_rotations_fail_in_docking() {
    bad_job_fails_alone(|config| config.docking.n_rotations = 0);
}

#[test]
fn zero_grid_dim_fails_in_batch_set_up() {
    bad_job_fails_alone(|config| config.docking.grid_dim = 0);
}

#[test]
fn zero_cluster_radius_fails_in_result_assembly() {
    bad_job_fails_alone(|config| config.cluster_radius = 0.0);
}
