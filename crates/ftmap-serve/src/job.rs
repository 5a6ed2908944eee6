//! Job identity, status, and the handle a client waits on.

use crate::batcher::LatencyClass;
use ftmap_core::{AppliedDegrade, MappingResult};
use gpu_sim::sched::BatchReport;
use gpu_sim::sync::{locked, wait_on};
use std::sync::{Arc, Condvar, Mutex};

/// Opaque job identifier, unique within one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting in the service queue.
    Queued,
    /// Claimed by the dispatcher, executing as part of a batch.
    Running,
    /// Finished; the report is available.
    Completed,
    /// Its batch failed: a panic in the batch's set-up, docking,
    /// minimization or result assembly. [`JobHandle::wait`] panics with the
    /// batch index and the panic's message.
    Failed,
}

/// What one batch did, shared by every job report from that batch: the
/// scheduler's [`BatchReport`] plus what only the service knows.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Sequence number of the batch within the service.
    pub batch_index: usize,
    /// Number of jobs co-scheduled in the batch.
    pub jobs: usize,
    /// Content key of the receptor grids the batch docked against.
    pub receptor_key: u64,
    /// The latency class the batch ran at (batches are class-homogeneous).
    pub class: LatencyClass,
    /// Modeled admission-to-completion latency: batch completion minus the
    /// *earliest member job's admission* instant on the virtual timeline, so
    /// it covers queue wait in the dispatcher's pending list (flow control,
    /// being overtaken) as well as scheduler residence and execution. The
    /// figure the per-class latency views and the `fig_serve_pipeline` gate
    /// are built on.
    pub latency_modeled_s: f64,
    /// Equals `report.span_modeled_s()`. Kept as a field only because the
    /// benchmark harness (`benchmark/src/rounds.rs`) reads it; it goes once
    /// the harness reads [`BatchSummary::report`].
    pub makespan_modeled_s: f64,
    /// Equals `report.overlap_saved_s()`; kept as a field for the same
    /// reason as [`BatchSummary::makespan_modeled_s`].
    pub overlap_saved_modeled_s: f64,
    /// What the scheduler reported for the batch: its virtual-timeline
    /// window, dock/minimize item counts, per-device per-phase stream
    /// accounting and residency events — all scoped to exactly this batch's
    /// items, never shared with a concurrently running batch.
    pub report: BatchReport,
}

/// The finished product a client receives for one job.
#[derive(Debug)]
pub struct JobReport {
    /// The job this report answers.
    pub job_id: JobId,
    /// The client tag from the request.
    pub tag: String,
    /// The job's own mapping result (consensus sites, profile, pose centres) —
    /// deterministic for the job's inputs, independent of arrival order and
    /// batch-mates.
    pub result: MappingResult,
    /// What the batch that carried this job did, shared with its
    /// batch-mates' reports.
    pub batch: Arc<BatchSummary>,
    /// The trace id this job carried through the pipeline (client-supplied or
    /// the job id) — the key for the per-request causal tree in the trace.
    pub trace_id: u64,
    /// Virtual-timeline instant this job was admitted.
    pub admitted_modeled_s: f64,
    /// This job's own admission-to-completion modeled latency (batch
    /// completion minus *this* job's admission — per-job, unlike
    /// [`BatchSummary::latency_modeled_s`] which uses the earliest member).
    pub latency_modeled_s: f64,
    /// The modeled deadline the admission controller held this job to
    /// (per-request override or the class-wide default); `None` when no
    /// deadline applied.
    pub deadline_s: Option<f64>,
    /// The admission controller's admission-to-completion latency estimate
    /// for this job, made at submit time against the live modeled state;
    /// `None` when the controller was off or not yet calibrated. Compare to
    /// [`latency_modeled_s`](JobReport::latency_modeled_s) for the
    /// estimator's realized error.
    pub estimated_latency_s: Option<f64>,
    /// The work reduction applied when the job was admitted degraded
    /// (`AdmissionVerdict::Degraded`); `None` for full-fidelity jobs.
    pub degrade: Option<AppliedDegrade>,
}

/// Shared completion slot between a [`JobHandle`] and the dispatcher.
#[derive(Debug)]
pub(crate) struct JobSlot {
    state: Mutex<SlotState>,
    done: Condvar,
}

#[derive(Debug)]
struct SlotState {
    status: JobStatus,
    /// The report, or why the job failed; empty until the job resolves.
    outcome: Option<Result<Arc<JobReport>, String>>,
}

impl JobSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(JobSlot {
            state: Mutex::new(SlotState { status: JobStatus::Queued, outcome: None }),
            done: Condvar::new(),
        })
    }

    pub(crate) fn set_running(&self) {
        let mut state = locked(&self.state);
        state.status = JobStatus::Running;
    }

    /// Resolves the job: its report, or why its batch failed.
    pub(crate) fn resolve(&self, outcome: Result<Arc<JobReport>, String>) {
        let mut state = locked(&self.state);
        state.status = if outcome.is_ok() { JobStatus::Completed } else { JobStatus::Failed };
        state.outcome = Some(outcome);
        self.done.notify_all();
    }

    fn status(&self) -> JobStatus {
        locked(&self.state).status
    }

    fn wait(&self) -> Result<Arc<JobReport>, String> {
        let mut state = locked(&self.state);
        loop {
            if let Some(outcome) = &state.outcome {
                return outcome.clone();
            }
            state = wait_on(&self.done, state);
        }
    }
}

/// A client's handle to a submitted job: poll [`status`](JobHandle::status) or
/// block on [`wait`](JobHandle::wait). Handles are cheap to clone and safe to
/// wait on from several threads.
#[derive(Debug, Clone)]
pub struct JobHandle {
    id: JobId,
    tag: String,
    slot: Arc<JobSlot>,
}

impl JobHandle {
    pub(crate) fn new(id: JobId, tag: String, slot: Arc<JobSlot>) -> Self {
        JobHandle { id, tag, slot }
    }

    /// The job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The client tag from the request.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The job's current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.slot.status()
    }

    /// Blocks until the job resolves, returning its report.
    ///
    /// # Panics
    /// Panics, on the calling thread, if the job failed
    /// ([`JobStatus::Failed`]); the message names the batch and carries the
    /// original panic's message.
    pub fn wait(&self) -> Arc<JobReport> {
        // lint-allow(no-panic-in-workers): the client's thread, not a worker:
        // a failed job surfaces here as the panic its batch caught.
        self.slot.wait().unwrap_or_else(|message| panic!("{message}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_core::MappingProfile;

    fn dummy_report(id: JobId) -> Arc<JobReport> {
        Arc::new(JobReport {
            job_id: id,
            tag: "t".into(),
            result: MappingResult {
                sites: Vec::new(),
                conformations_minimized: 0,
                profile: MappingProfile::default(),
                pose_centers: Vec::new(),
            },
            batch: Arc::new(BatchSummary {
                batch_index: 0,
                jobs: 1,
                receptor_key: 0,
                class: LatencyClass::Bulk,
                latency_modeled_s: 0.0,
                makespan_modeled_s: 0.0,
                overlap_saved_modeled_s: 0.0,
                report: BatchReport {
                    seq: 0,
                    priority: 0,
                    submitted_v_s: 0.0,
                    started_v_s: 0.0,
                    completed_v_s: 0.0,
                    docks: 0,
                    blocks: 0,
                    per_device: Vec::new(),
                    cache: Default::default(),
                    derived_cache: Default::default(),
                },
            }),
            trace_id: id.0,
            admitted_modeled_s: 0.0,
            latency_modeled_s: 0.0,
            deadline_s: None,
            estimated_latency_s: None,
            degrade: None,
        })
    }

    #[test]
    fn handle_observes_lifecycle() {
        let slot = JobSlot::new();
        let handle = JobHandle::new(JobId(3), "t".into(), Arc::clone(&slot));
        assert_eq!(handle.status(), JobStatus::Queued);
        assert_eq!(handle.id(), JobId(3));
        assert_eq!(handle.tag(), "t");
        slot.set_running();
        assert_eq!(handle.status(), JobStatus::Running);
        slot.resolve(Ok(dummy_report(JobId(3))));
        assert_eq!(handle.status(), JobStatus::Completed);
        assert_eq!(handle.wait().job_id, JobId(3));
    }

    #[test]
    #[should_panic(expected = "batch 3 failed: boom")]
    fn a_failed_job_reads_failed_and_its_wait_panics_with_the_message() {
        let slot = JobSlot::new();
        let handle = JobHandle::new(JobId(1), String::new(), Arc::clone(&slot));
        slot.resolve(Err("batch 3 failed: boom".into()));
        assert_eq!(handle.status(), JobStatus::Failed);
        handle.wait();
    }

    #[test]
    fn wait_blocks_until_completion_from_another_thread() {
        let slot = JobSlot::new();
        let handle = JobHandle::new(JobId(7), String::new(), Arc::clone(&slot));
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait().job_id)
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        slot.resolve(Ok(dummy_report(JobId(7))));
        assert_eq!(waiter.join().expect("waiter"), JobId(7));
    }
}
