//! Job identity, status, and the handle a client waits on.

use crate::batcher::LatencyClass;
use ftmap_core::{AppliedDegrade, MappingResult};
use gpu_sim::sync::{locked, wait_on};
use gpu_sim::CacheStats;
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
}

/// What one batch did, attached to every job report from that batch.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Sequence number of the batch within the service.
    pub batch_index: usize,
    /// Number of jobs co-scheduled in the batch.
    pub jobs: usize,
    /// Total probes the batch dispatched over the pool (fused shards under
    /// probe granularity; dock-phase items under pose-block scheduling).
    pub probes: usize,
    /// Total minimization pose blocks the batch dispatched (0 under
    /// probe-granularity scheduling, where minimization rides the probe item).
    pub pose_blocks: usize,
    /// Content key of the receptor grids the batch docked against.
    pub receptor_key: u64,
    /// Residency-cache events this batch's own items caused, summed over the
    /// pool ([`gpu_sim::sched::BatchReport::cache`]) — exact per batch, also
    /// with other batches in flight on the same devices.
    pub cache: CacheStats,
    /// Derived-payload residency events (receptor FFT transforms + plans
    /// cached next to the raw grids by the batched FFT engine) this batch's
    /// own items caused, pool-wide. A later job reusing a batch-mate's
    /// receptor transforms shows up here as hits with zero insertions.
    pub derived_cache: CacheStats,
    /// Modeled makespan of the batch over the pool: its start-to-finish span
    /// on the modeled virtual timeline.
    pub makespan_modeled_s: f64,
    /// The latency class the batch ran at (batches are class-homogeneous).
    pub class: LatencyClass,
    /// Modeled admission-to-completion latency: batch completion minus the
    /// *earliest member job's admission* instant on the virtual timeline, so
    /// it covers queue wait in the dispatcher's pending list (flow control,
    /// being overtaken) as well as scheduler residence and execution. The
    /// figure the per-class latency views and the `fig_serve_pipeline` gate
    /// are built on.
    pub latency_modeled_s: f64,
    /// Virtual-timeline instant the batch's first item started.
    pub started_modeled_s: f64,
    /// Virtual-timeline instant the batch's last item completed.
    pub completed_modeled_s: f64,
    /// Modeled seconds saved versus running this batch's own items under a
    /// two-phase barrier (dock-phase makespan + minimize-phase makespan) —
    /// the intra-batch phase-overlap win, so `makespan_modeled_s` plus this is
    /// what the barriered schedule would have taken.
    pub overlap_saved_modeled_s: f64,
    /// Modeled transfer seconds scoped to exactly this batch's items (never
    /// shared with a concurrently running batch).
    pub transfer_modeled_s: f64,
}

impl BatchSummary {
    /// The raw-grid and derived-payload residency windows folded into one:
    /// the combined view next to the side-by-side
    /// [`cache`](BatchSummary::cache) / [`derived_cache`](BatchSummary::derived_cache)
    /// buckets, so consumers wanting a single residency figure for the batch
    /// do not re-derive it inconsistently.
    pub fn combined_cache(&self) -> CacheStats {
        let mut combined = self.cache;
        combined.accumulate(&self.derived_cache);
        combined
    }

    /// Combined hit ratio over both residency buckets: total hits over total
    /// lookups, in `[0, 1]` (0 when the batch looked nothing up).
    pub fn combined_hit_ratio(&self) -> f64 {
        self.combined_cache().hit_rate()
    }
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
    /// What the batch that carried this job did.
    pub batch: BatchSummary,
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

impl JobReport {
    /// Whether the job missed its modeled deadline: `Some(true)` when a
    /// deadline applied and the realized latency exceeded it, `Some(false)`
    /// when it was met, `None` when no deadline applied.
    pub fn deadline_missed(&self) -> Option<bool> {
        self.deadline_s.map(|deadline| self.latency_modeled_s > deadline)
    }
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
    report: Option<Arc<JobReport>>,
}

impl JobSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(JobSlot {
            state: Mutex::new(SlotState { status: JobStatus::Queued, report: None }),
            done: Condvar::new(),
        })
    }

    pub(crate) fn set_running(&self) {
        let mut state = locked(&self.state);
        state.status = JobStatus::Running;
    }

    pub(crate) fn complete(&self, report: Arc<JobReport>) {
        let mut state = locked(&self.state);
        state.status = JobStatus::Completed;
        state.report = Some(report);
        self.done.notify_all();
    }

    fn status(&self) -> JobStatus {
        locked(&self.state).status
    }

    fn wait(&self) -> Arc<JobReport> {
        let mut state = locked(&self.state);
        loop {
            if let Some(report) = state.report.as_ref() {
                return Arc::clone(report);
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

    /// True once the report is available ([`wait`](JobHandle::wait) will not
    /// block).
    pub fn is_completed(&self) -> bool {
        self.status() == JobStatus::Completed
    }

    /// Blocks until the job completes, returning its report.
    pub fn wait(&self) -> Arc<JobReport> {
        self.slot.wait()
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
            batch: BatchSummary {
                batch_index: 0,
                jobs: 1,
                probes: 0,
                pose_blocks: 0,
                receptor_key: 0,
                cache: CacheStats::default(),
                derived_cache: CacheStats::default(),
                makespan_modeled_s: 0.0,
                class: LatencyClass::Bulk,
                latency_modeled_s: 0.0,
                started_modeled_s: 0.0,
                completed_modeled_s: 0.0,
                overlap_saved_modeled_s: 0.0,
                transfer_modeled_s: 0.0,
            },
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
        assert!(!handle.is_completed());
        slot.complete(dummy_report(JobId(3)));
        assert!(handle.is_completed());
        assert_eq!(handle.wait().job_id, JobId(3));
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
        slot.complete(dummy_report(JobId(7)));
        assert_eq!(waiter.join().expect("waiter"), JobId(7));
    }
}
