//! The batch-mapping service: admission → queue → batcher → pool → reports.
//!
//! [`BatchMappingService`] is the serving layer between clients and the
//! multi-device scheduler. Services are constructed with
//! [`BatchMappingService::builder`]; clients submit [`MappingRequest`]s from
//! any thread and get a typed [`crate::AdmissionVerdict`] back immediately —
//! the SLO-aware admission controller ([`crate::admission`]) estimates each
//! request's admission-to-completion latency against the live modeled state
//! and admits, reprioritizes, degrades, or refuses it. Admitted jobs carry a
//! [`JobHandle`] (asynchronous completion); a dispatcher thread drains the
//! bounded admission queue, forms receptor-compatible, class-homogeneous
//! batches under the fairness gates (`crate::batcher`,
//! [`crate::config::AdmissionConfig`]), and submits each batch to the
//! service's persistent [`PhasePipeline`]: each `(job, probe)` entry is a
//! phase-tagged dock item whose completion generates that entry's
//! minimize-block items, so there is no per-batch phase barrier, and batch
//! N+1's probes dock on whichever devices batch N's minimization leaves idle.
//! [`LatencyClass::Interactive`] batches carry a more urgent scheduler
//! priority and overtake bulk work at item boundaries (the batcher's aging
//! bound keeps bulk from starving). What a two-phase barrier per batch would
//! have cost is reported analytically per batch
//! ([`BatchReport::overlap_saved_s`] of the batch's
//! [`BatchSummary::report`]); the `fig_serve_pipeline` bench gates
//! throughput against that comparator.
//!
//! Per-device receptor-grid residency (`gpu_sim::ResidencyCache`, fed by
//! `piper_dock::Docking::from_grids`) is what makes multi-tenancy cheap: the
//! first shard of a batch on each device uploads the receptor grids once, and
//! every later shard — from any job, in this batch or a later one — borrows
//! the resident set for zero transfer bytes. The service additionally memoizes
//! the *host-side* grid build per receptor fingerprint.
//!
//! Accounting is **batch-scoped**: each item's transfer seconds and residency
//! events are measured on the servicing device around that item alone and
//! land on the owning batch ([`gpu_sim::sched::BatchReport`]), so two batches
//! in flight can never share a transfer second or a cache miss — which a
//! window-based scheme (read the pool's totals at each completion, subtract
//! the previous reading) would, as soon as batches overlap. Every count the
//! service keeps lives once: monotone totals in the metrics registry, and the
//! completed batches' shared [`BatchSummary`]s — the same ones their jobs'
//! reports carry — in one bounded window; [`ServeStats`] is a view of those.
//!
//! Determinism: a job's report depends only on its own request. Batch
//! composition, arrival order, latency class, device assignment and
//! cross-batch interleaving change modeled timings and cache statistics,
//! never consensus sites (`tests/service_determinism.rs`,
//! `tests/pipelined_service.rs`).

use crate::admission::{
    decide, request_weight, AdmissionState, AdmissionVerdict, Decision, LatencyEstimate,
    RejectReason,
};
use crate::batcher::{next_batch_admission, Batchable, LatencyClass};
use crate::config::{AdmissionConfig, BatchConfig, QueueConfig, ServeConfig};
use crate::job::{BatchSummary, JobHandle, JobId, JobReport, JobSlot};
use crate::queue::{JobQueue, SubmitError};
use crate::request::MappingRequest;
use ftmap_core::{AppliedDegrade, FtMapConfig, FtMapPipeline, MappingResult, PhasedMapBatch};
use ftmap_energy::ReceptorHalf;
use ftmap_molecule::{Atom, ForceField, Topology};
use ftmap_trace::{
    Category, FlightRecorder, MetricsRegistry, MetricsSnapshot, SampleVerdict, SloEngine,
    SloReport, SloSpec, Tags, TraceEvent, TraceSink, Track,
};
use gpu_sim::sched::{
    BatchFailed, BatchLabel, BatchReport, DevicePool, PhasePipeline, PhasedBatch, PhasedExec,
};
use gpu_sim::sync::{locked, wait_on};
use gpu_sim::CacheStats;
use piper_dock::{Docking, ReceptorGrids};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Latency summary over one class's completed batches (modeled seconds on the
/// scheduler's virtual timeline).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassLatency {
    /// Batches of this class completed.
    pub batches: usize,
    /// Mean modeled latency.
    pub mean_s: f64,
    /// 95th-percentile modeled latency (nearest-rank).
    pub p95_s: f64,
    /// Worst modeled latency.
    pub max_s: f64,
}

impl ClassLatency {
    /// Summarizes a set of latency samples (seconds): count, mean,
    /// nearest-rank p95, max. The one percentile definition every consumer —
    /// `ServeStats` and the bench gates alike — reports.
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::summarize(samples.to_vec())
    }

    fn summarize(mut sorted: Vec<f64>) -> Self {
        if sorted.is_empty() {
            return ClassLatency::default();
        }
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p95_idx = ((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1;
        ClassLatency {
            batches: n,
            mean_s: sorted.iter().sum::<f64>() / n as f64,
            p95_s: sorted[p95_idx],
            max_s: sorted[n - 1],
        }
    }
}

/// A point-in-time summary of what the service has done.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Jobs admitted so far.
    pub jobs_submitted: usize,
    /// Jobs completed so far (successes only).
    pub jobs_completed: usize,
    /// Jobs whose batch failed so far ([`crate::JobStatus::Failed`]).
    pub jobs_failed: usize,
    /// Batches formed and dispatched so far. A batch counts as soon as it is
    /// handed to the scheduler (its index is assigned then), so this can run
    /// ahead of completions while batches are in flight; completed-batch
    /// counts are the per-class latency views' `batches` fields.
    pub batches_run: usize,
    /// Latency view of completed interactive batches (sliding window: this
    /// class's share of the most recent 4096 completed batches; counters
    /// above remain exact forever).
    pub interactive: ClassLatency,
    /// Latency view of completed bulk batches (same sliding window).
    pub bulk: ClassLatency,
    /// Modeled span of the completed batches in the sliding window: last
    /// batch completion minus first batch start on the virtual timeline —
    /// the pool's modeled wall time.
    pub span_modeled_s: f64,
    /// Summed modeled batch-span seconds in excess of the timeline they
    /// jointly cover (Σ spans − their union): the span time that ran
    /// *concurrently with* other batches instead of extending the timeline —
    /// the cross-batch overlap the pipelined dispatcher wins. An instant
    /// covered by k batches contributes k−1 seconds per second, so with deep
    /// in-flight windows this can exceed [`ServeStats::span_modeled_s`].
    pub cross_batch_overlap_modeled_s: f64,
    /// The service metrics at snapshot time: counters/histograms fed at each
    /// admission and batch completion, gauges (queue depth, per-class latency
    /// percentiles, cache hit ratios, per-device utilization/skew) refreshed
    /// when the snapshot is taken. Render with [`ServeStats::prometheus`];
    /// every figure is modeled time, never wall clock, and every gauge agrees
    /// with the sibling `ServeStats` accessor it mirrors.
    pub metrics: MetricsSnapshot,
    /// Point-in-time evaluation of the configured latency SLOs (multi-window
    /// burn rates over the per-job latency histograms — see
    /// [`ftmap_trace::SloEngine`]). Empty when the service was built without
    /// objectives ([`ServiceBuilder::slos`]).
    pub slo: SloReport,
}

impl ServeStats {
    /// The pooled residency-cache counters (hits/misses/evictions) the
    /// service's completed batches caused.
    pub fn cache(&self) -> CacheStats {
        cache_counts(&self.metrics, "raw")
    }

    /// The pooled derived-payload cache counters (receptor FFT transforms +
    /// plans the batched FFT engine keeps next to the raw grids).
    pub fn derived_cache(&self) -> CacheStats {
        cache_counts(&self.metrics, "derived")
    }

    /// Modeled transfer seconds the service's completed batches caused: the
    /// sum of their batch-scoped [`BatchReport::transfer_modeled_s`] figures,
    /// so it equals the pool's transfer total however batches overlapped.
    pub fn transfer_modeled_s(&self) -> f64 {
        self.metrics.counter(TRANSFER_SECONDS, &[]).unwrap_or(0.0)
    }

    /// Raw + derived residency counters folded into one window — the
    /// side-by-side buckets ([`ServeStats::cache`],
    /// [`ServeStats::derived_cache`]) combined, so dashboards that want a
    /// single residency figure do not re-derive it inconsistently.
    pub fn combined_cache(&self) -> CacheStats {
        let mut combined = self.cache();
        combined.accumulate(&self.derived_cache());
        combined
    }

    /// Combined hit ratio over the raw **and** derived residency buckets:
    /// total hits over total lookups, in `[0, 1]` (0 when nothing was looked
    /// up).
    pub fn combined_hit_ratio(&self) -> f64 {
        self.combined_cache().hit_rate()
    }

    /// The metrics snapshot rendered in the Prometheus text exposition
    /// format.
    pub fn prometheus(&self) -> String {
        self.metrics.prometheus()
    }
}

/// One admitted job travelling through the queue.
struct Job {
    id: JobId,
    request: MappingRequest,
    fingerprint: u64,
    class: LatencyClass,
    overtaken: usize,
    /// Virtual-timeline instant of admission: batch latency measures from the
    /// earliest admitted job, so time spent in the dispatcher's pending queue
    /// (waiting out `max_inflight_batches` flow control or being overtaken)
    /// counts as modeled queue wait, not just scheduler-residence time.
    admitted_v_s: f64,
    /// The trace id threaded through this job's whole lifecycle: the client's
    /// [`MappingRequest::trace_id`] when supplied, the job id otherwise.
    trace_id: u64,
    /// The fairness-quota tenant label ([`MappingRequest::tenant_label`]),
    /// resolved once at admission.
    tenant: String,
    /// The job's work units ([`request_weight`]) under the config it was
    /// admitted with (post-degrade) — the admission backlog currency.
    weight: f64,
    /// The admission controller's latency estimate at submit time (`None`
    /// until the cost model calibrates).
    estimated_s: Option<f64>,
    /// The modeled deadline the job was held to, if any.
    deadline_s: Option<f64>,
    /// The degrade the controller applied, if any.
    degrade: Option<AppliedDegrade>,
    slot: Arc<JobSlot>,
}

impl Batchable for Job {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn class(&self) -> LatencyClass {
        self.class
    }

    fn note_overtaken(&mut self) {
        self.overtaken += 1;
    }

    fn overtaken(&self) -> usize {
        self.overtaken
    }
}

/// Most recent completed batches the latency/span views cover. A long-lived
/// service completes batches indefinitely; bounding the window keeps `stats()`
/// cost and memory flat — a sliding window is what a latency dashboard wants
/// anyway (the monotone counters remain exact forever).
const LATENCY_WINDOW: usize = 4096;

/// The completed batches the latency/span views cover, oldest first: the
/// summaries their jobs' reports share.
type CompletedWindow = VecDeque<Arc<BatchSummary>>;

/// Appends to the completed-batch window, evicting the oldest past the cap.
fn push_windowed(window: &mut CompletedWindow, batch: Arc<BatchSummary>) {
    if window.len() == LATENCY_WINDOW {
        window.pop_front();
    }
    window.push_back(batch);
}

/// The latency view of `class`'s batches in the window.
fn class_latency(window: &CompletedWindow, class: LatencyClass) -> ClassLatency {
    ClassLatency::summarize(
        window.iter().filter(|b| b.class == class).map(|b| b.latency_modeled_s).collect(),
    )
}

/// `(overall span, cross-batch overlap)` of the window: max completion minus
/// min start, and Σ span lengths minus their union — an instant covered by k
/// spans contributes k−1 (see [`ServeStats::cross_batch_overlap_modeled_s`]).
fn span_stats(window: &CompletedWindow) -> (f64, f64) {
    let mut sorted: Vec<(f64, f64)> =
        window.iter().map(|b| (b.report.started_v_s, b.report.completed_v_s)).collect();
    if sorted.is_empty() {
        return (0.0, 0.0);
    }
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = sorted.iter().map(|(s, e)| (e - s).max(0.0)).sum();
    let first_start = sorted[0].0;
    let mut union = 0.0;
    let mut last_end = sorted[0].0;
    let mut cur = sorted[0];
    for &(s, e) in &sorted[1..] {
        if s > cur.1 {
            union += cur.1 - cur.0;
            cur = (s, e);
        } else {
            cur.1 = cur.1.max(e);
        }
        last_end = last_end.max(e);
    }
    last_end = last_end.max(cur.1);
    union += cur.1 - cur.0;
    (last_end - first_start, (total - union).max(0.0))
}

struct Shared {
    queue: JobQueue<Job>,
    config: ServeConfig,
    /// The trace sink every layer below reports into: the scheduler holds its
    /// own clone, the serve layer records admission/queue-depth/completion
    /// events here. The no-op sink by default — `enabled()` is checked before
    /// any event is assembled.
    trace: Arc<dyn TraceSink>,
    /// The service metrics registry (modeled instants only, never wall
    /// clock). Counters and histograms are fed as events happen; gauges are
    /// refreshed when [`BatchMappingService::stats`] snapshots.
    metrics: Arc<MetricsRegistry>,
    /// The persistent phased scheduler every batch runs on; owns the pool.
    sched: PhasePipeline,
    /// SLO burn-rate engine over per-job modeled latencies; `None` when no
    /// objectives were configured (the untraced default).
    slo: Option<Mutex<SloEngine>>,
    /// Flight recorder for tail-sampled trace retention. When set it is
    /// normally the same recorder behind [`Shared::trace`], so the trees it
    /// retains on a breach/outlier verdict are complete.
    flight: Option<Arc<FlightRecorder>>,
    /// The most recent [`LATENCY_WINDOW`] completed batches, completion
    /// order — the samples behind the latency and span views.
    completed: Mutex<CompletedWindow>,
    /// Host-side receptor memo: grids and a receptor half each, keyed by request
    /// fingerprint. MRU-ordered and capped at [`GRIDS_MEMO_CAP`] entries — a
    /// long-lived service streaming ever-new receptors must not grow host
    /// memory without bound (the device-side residency cache is budgeted for
    /// the same reason; resident `Arc`s stay alive through the caches even
    /// after the memo forgets them).
    grids: Mutex<Vec<ReceptorMemo>>,
    /// The admission controller's mutable state: the calibrated cost model,
    /// the not-yet-scheduled backlog per class, the fairness in-flight
    /// counters, warm-receptor tracking and the slack epoch. Lock ordering:
    /// never taken while holding a scheduler-internal lock — the submit path
    /// reads the scheduler projection *before* locking this.
    admission: Mutex<AdmissionState>,
    /// Signalled whenever admission-state slack appears (a job completes or a
    /// new job is admitted); the dispatcher waits on it when every pending
    /// job is fairness-blocked.
    slack: Condvar,
}

/// Receptor grid sets the host-side memo retains (MRU).
const GRIDS_MEMO_CAP: usize = 8;

/// One receptor of the host-side memo: the grids every request with its
/// fingerprint docks against, and the receptor half of minimization set-up
/// its jobs share. The fingerprint covers neither the force field, the
/// topology nor every atom parameter, so the half is handed only to requests
/// whose protein atoms, protein topology and force field equal those of the
/// request that made the entry; any other request gets a fresh half of its
/// own.
struct ReceptorMemo {
    fingerprint: u64,
    grids: Arc<ReceptorGrids>,
    half: Arc<OnceLock<ReceptorHalf>>,
    /// What `half` is for.
    atoms: Vec<Atom>,
    topology: Topology,
    ff: ForceField,
}

impl ReceptorMemo {
    /// The entry for `request`, whose fingerprint is `fingerprint`: its
    /// receptor grids, built here, and an unbuilt half for its protein and
    /// force field.
    fn new(fingerprint: u64, request: &MappingRequest) -> Self {
        ReceptorMemo {
            fingerprint,
            grids: Docking::build_receptor(&request.protein.atoms, &request.config.docking),
            half: Arc::default(),
            atoms: request.protein.atoms.clone(),
            topology: request.protein.topology.clone(),
            ff: request.ff.clone(),
        }
    }

    /// The half `request`'s job minimizes against: the memo's if the
    /// request's protein and force field are the ones it is for, else a
    /// fresh unshared one.
    fn half_for(&self, request: &MappingRequest) -> Arc<OnceLock<ReceptorHalf>> {
        if request.protein.atoms == self.atoms
            && request.protein.topology == self.topology
            && request.ff == self.ff
        {
            Arc::clone(&self.half)
        } else {
            Arc::default()
        }
    }
}

/// Upper bounds (modeled seconds) of the per-class batch-latency histograms —
/// log-spaced around the sub-second modeled latencies the simulated pool
/// produces, with headroom for deep bulk queues.
const LATENCY_BOUNDS: [f64; 12] =
    [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0];

/// The monotone counts live once, in these registry counters: each is fed at
/// its event and read back by [`BatchMappingService::stats`] /
/// [`ServeStats`].
const JOBS_SUBMITTED: &str = "ftmap_serve_jobs_submitted_total";
const JOBS_COMPLETED: &str = "ftmap_serve_jobs_completed_total";
const JOBS_FAILED: &str = "ftmap_serve_jobs_failed_total";
const BATCHES_FORMED: &str = "ftmap_serve_batches_formed_total";
const DEADLINE_OUTCOMES: &str = "ftmap_serve_deadline_outcomes_total";
const TRANSFER_SECONDS: &str = "ftmap_serve_transfer_modeled_seconds_total";
const CACHE_EVENTS: &str = "ftmap_serve_cache_events_total";
/// `kind` label values of [`CACHE_EVENTS`], in [`kind_counts`] order.
const CACHE_KINDS: [&str; 4] = ["hit", "miss", "evict", "insert"];

fn kind_counts(stats: &CacheStats) -> [u64; 4] {
    [stats.hits, stats.misses, stats.evictions, stats.insertions]
}

/// The [`CACHE_EVENTS`] counters of `bucket` (`"raw"` / `"derived"`).
fn cache_counts(metrics: &MetricsSnapshot, bucket: &str) -> CacheStats {
    let [hits, misses, evictions, insertions] = CACHE_KINDS.map(|kind| {
        metrics.counter(CACHE_EVENTS, &[("bucket", bucket), ("kind", kind)]).unwrap_or(0.0) as u64
    });
    CacheStats { hits, misses, evictions, insertions }
}

/// A per-class counter summed over both latency classes.
fn class_total(metrics: &MetricsSnapshot, name: &str) -> usize {
    [LatencyClass::Interactive, LatencyClass::Bulk]
        .iter()
        .filter_map(|class| metrics.counter(name, &[("class", class.name())]))
        .sum::<f64>() as usize
}

/// Per-job admission-to-completion latency histogram — the SLO engine's long
/// burn-rate window. Unlike the batch histogram it counts every job from its
/// *own* admission instant.
const JOB_LATENCY_METRIC: &str = "ftmap_serve_job_latency_modeled_seconds";

/// Upper bounds of the estimator-error histogram: the ratio of the admission
/// controller's estimate to the realized per-job modeled latency, log-spaced
/// around 1 (perfect). Ratios below 1 are under-estimates (the dangerous
/// direction for deadlines), above 1 over-estimates (the load-shedding
/// direction).
const ERROR_RATIO_BOUNDS: [f64; 7] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

impl Shared {
    /// The memoized receptor grids for `fingerprint`, building them from the
    /// anchor job's request on first sight, and each of `batch`'s jobs' receptor
    /// half ([`ReceptorMemo::half_for`]). Promotes to MRU; evicts LRU past the
    /// cap.
    fn receptor_for(
        &self,
        fingerprint: u64,
        batch: &[Job],
    ) -> (Arc<ReceptorGrids>, Vec<Arc<OnceLock<ReceptorHalf>>>) {
        let mut memo = locked(&self.grids);
        let entry = match memo.iter().position(|entry| entry.fingerprint == fingerprint) {
            Some(pos) => memo.remove(pos),
            None => ReceptorMemo::new(fingerprint, &batch[0].request),
        };
        memo.insert(0, entry);
        memo.truncate(GRIDS_MEMO_CAP);
        let halves = batch.iter().map(|job| memo[0].half_for(&job.request)).collect();
        (Arc::clone(&memo[0].grids), halves)
    }

    /// The modeled seconds until the pool's ready backlog at priorities
    /// `<= priority_cutoff` drains, from the scheduler's projection.
    fn projected_wait_s(&self, priority_cutoff: Option<u32>) -> f64 {
        let now = self.sched.now_v_s();
        let earliest = self
            .sched
            .projected_completion_v_s(priority_cutoff)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            (earliest - now).max(0.0)
        } else {
            0.0
        }
    }

    /// The admission controller's latency estimate for a candidate
    /// `(config, class)` against the live modeled state. `None` until the
    /// cost model calibrates. Lock ordering: the scheduler projection is read
    /// *before* the admission mutex — scheduler completion callbacks take the
    /// admission lock, so the reverse order could invert.
    fn estimate_for(
        &self,
        config: &FtMapConfig,
        n_probes: usize,
        fingerprint: u64,
        class: LatencyClass,
    ) -> Option<LatencyEstimate> {
        let wait_base_s = self.projected_wait_s(Some(class.priority()));
        let n_devices = self.sched.pool().len();
        let admission = locked(&self.admission);
        let pending = admission.pending_weight_through(class.priority());
        let cold = !admission.is_warm(fingerprint);
        admission.model.estimate(
            wait_base_s,
            pending,
            request_weight(config, n_probes),
            n_probes,
            n_devices,
            cold,
        )
    }

    /// Counts one admission verdict onto the verdict counter.
    fn note_verdict(&self, verdict: &'static str, class: LatencyClass) {
        self.metrics.counter_add(
            "ftmap_serve_admission_verdicts_total",
            &[("verdict", verdict), ("class", class.name())],
            1.0,
        );
    }

    /// Blocks the dispatcher until the admission epoch moves past
    /// `seen_epoch` — a completion released an in-flight slot or a new job
    /// was admitted, either of which can unblock a fairness-gated batch.
    fn wait_for_slack(&self, seen_epoch: u64) {
        let mut admission = locked(&self.admission);
        while admission.epoch == seen_epoch {
            admission = wait_on(&self.slack, admission);
        }
    }

    /// Samples the admission-queue depth onto the queue track (rendered as a
    /// Perfetto counter series) — call after any push/drain that changes it.
    fn note_queue_depth(&self, at_v_s: f64) {
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant(Track::Queue, "queue_depth", Category::Serve, at_v_s)
                    .with_tags(Tags::default().with_num("depth", self.queue.len() as f64)),
            );
        }
    }

    /// The serve-layer admission edge for one job: verdict + submission
    /// counters, an `admit` instant (tenant + class + verdict tags) and a
    /// queue-depth sample on the queue track. Called after the queue accepted
    /// the job.
    fn note_admitted(
        &self,
        tenant: &str,
        class: LatencyClass,
        admitted_v_s: f64,
        trace_id: u64,
        verdict: &'static str,
    ) {
        self.note_verdict(verdict, class);
        self.metrics.counter_add(JOBS_SUBMITTED, &[("class", class.name())], 1.0);
        if self.trace.enabled() {
            let tags = Tags {
                tenant: Some(tenant.to_string()),
                class: Some(class.name()),
                trace: Some(trace_id),
                ..Tags::default()
            }
            .with_verdict(verdict);
            self.trace.record(
                TraceEvent::instant(Track::Queue, "admit", Category::Serve, admitted_v_s)
                    .with_tags(tags),
            );
            self.note_queue_depth(admitted_v_s);
        }
    }

    /// The batch-formation edge: the dispatcher extracted `jobs` compatible
    /// jobs into batch `batch_index` and is handing it to a dispatcher. Emits
    /// one `batch-form` instant plus a per-job `job-batched` instant carrying
    /// each job's trace id, so a request's causal tree records how long it
    /// waited between admission and joining a batch.
    fn note_batch_formed(&self, batch_index: usize, jobs: &[Job], class: LatencyClass) {
        self.metrics.counter_add(BATCHES_FORMED, &[("class", class.name())], 1.0);
        if self.trace.enabled() {
            let at_v_s = self.sched.now_v_s();
            let tags = Tags {
                batch_seq: Some(batch_index as u64),
                class: Some(class.name()),
                ..Tags::default()
            }
            .with_num("jobs", jobs.len() as f64);
            self.trace.record(
                TraceEvent::instant(Track::Queue, "batch-form", Category::Serve, at_v_s)
                    .with_tags(tags),
            );
            for job in jobs {
                let tags = Tags {
                    batch_seq: Some(batch_index as u64),
                    class: Some(class.name()),
                    trace: Some(job.trace_id),
                    ..Tags::default()
                };
                self.trace.record(
                    TraceEvent::instant(Track::Queue, "job-batched", Category::Serve, at_v_s)
                        .with_tags(tags),
                );
            }
            self.note_queue_depth(at_v_s);
        }
    }

    /// Per-job completion bookkeeping: the job's own admission-to-completion
    /// latency feeds the [`JOB_LATENCY_METRIC`] histogram and the SLO engine,
    /// a `job-resolve` instant closes the request's causal tree, and the
    /// tail-sampling verdict tells the flight recorder whether to retain the
    /// tree. Returns the job's modeled latency.
    fn note_job_resolved(
        &self,
        job: &Job,
        summary: &BatchSummary,
        slo_snapshot: Option<&MetricsSnapshot>,
    ) -> f64 {
        let latency_job_s = (summary.report.completed_v_s - job.admitted_v_s).max(0.0);
        let class = job.class.name();
        // Observe into the engine *before* the metric: the long window must
        // not yet contain this sample when classifying it as a p99 outlier.
        let verdict = match (&self.slo, slo_snapshot) {
            (Some(engine), Some(snapshot)) => {
                let hist = snapshot.histogram(JOB_LATENCY_METRIC, &[("class", class)]);
                locked(engine).observe(class, latency_job_s, hist)
            }
            _ => SampleVerdict::default(),
        };
        self.metrics.observe(
            JOB_LATENCY_METRIC,
            &[("class", class)],
            &LATENCY_BOUNDS,
            latency_job_s,
        );
        // Estimator accuracy: the ratio of the admission-time estimate to the
        // realized latency (1 = perfect, <1 under-estimated).
        if let Some(estimated_s) = job.estimated_s {
            if latency_job_s > 0.0 {
                self.metrics.observe(
                    "ftmap_serve_estimator_error_ratio",
                    &[("class", class)],
                    &ERROR_RATIO_BOUNDS,
                    (estimated_s / latency_job_s).min(1e6),
                );
            }
        }
        if let Some(deadline) = job.deadline_s {
            let outcome = if latency_job_s > deadline { "missed" } else { "met" };
            self.metrics.counter_add(
                DEADLINE_OUTCOMES,
                &[("class", class), ("outcome", outcome)],
                1.0,
            );
        }
        let at_v_s = summary.report.completed_v_s;
        self.close_request(job, summary.batch_index, at_v_s, Some(latency_job_s), verdict.retain());
        latency_job_s
    }

    /// Ends a resolved job's request: releases its in-flight slot, records
    /// the `job-resolve` instant closing its causal tree — with the job's
    /// modeled latency, or verdict `failed` — and then tells the flight
    /// recorder whether to keep the tree (so a kept tree includes it).
    fn close_request(
        &self,
        job: &Job,
        batch_index: usize,
        at_v_s: f64,
        latency_s: Option<f64>,
        keep: bool,
    ) {
        locked(&self.admission).release_inflight(job.fingerprint, &job.tenant);
        self.slack.notify_all();
        if self.trace.enabled() {
            let tags = Tags {
                batch_seq: Some(batch_index as u64),
                class: Some(job.class.name()),
                trace: Some(job.trace_id),
                ..Tags::default()
            };
            let tags = match latency_s {
                Some(latency_s) => tags.with_num("latency_s", latency_s),
                None => tags.with_verdict("failed"),
            };
            self.trace.record(
                TraceEvent::instant(Track::Queue, "job-resolve", Category::Serve, at_v_s)
                    .with_tags(tags.with_num("admitted_v_s", job.admitted_v_s)),
            );
        }
        if let Some(flight) = &self.flight {
            flight.note_request(job.trace_id, keep);
        }
    }

    /// Batch-completion bookkeeping: completion counters, the per-class
    /// latency histogram, the batch's own transfer seconds and residency
    /// events, and a `batch-resolve` instant on the queue track.
    fn note_batch_completed(&self, summary: &BatchSummary) {
        let class = summary.class.name();
        self.metrics.counter_add("ftmap_serve_batches_completed_total", &[("class", class)], 1.0);
        self.metrics.counter_add(JOBS_COMPLETED, &[("class", class)], summary.jobs as f64);
        self.metrics.counter_add(TRANSFER_SECONDS, &[], summary.report.transfer_modeled_s());
        self.metrics.observe(
            "ftmap_serve_batch_latency_modeled_seconds",
            &[("class", class)],
            &LATENCY_BOUNDS,
            summary.latency_modeled_s,
        );
        let report = &summary.report;
        for (bucket, stats) in [("raw", &report.cache), ("derived", &report.derived_cache)] {
            for (kind, value) in CACHE_KINDS.into_iter().zip(kind_counts(stats)) {
                self.metrics.counter_add(
                    CACHE_EVENTS,
                    &[("bucket", bucket), ("kind", kind)],
                    value as f64,
                );
            }
        }
        if self.trace.enabled() {
            let tags = Tags {
                batch_seq: Some(summary.batch_index as u64),
                class: Some(class),
                ..Tags::default()
            }
            .with_num("jobs", summary.jobs as f64)
            .with_num("latency_s", summary.latency_modeled_s)
            .with_num("makespan_s", report.span_modeled_s());
            self.trace.record(
                TraceEvent::instant(
                    Track::Queue,
                    "batch-resolve",
                    Category::Serve,
                    report.completed_v_s,
                )
                .with_tags(tags),
            );
        }
    }

    /// Refreshes every gauge the registry exposes so the snapshot that
    /// follows agrees with the sibling `ServeStats` fields: queue depth,
    /// per-class latency percentiles, the ratios derived from the event-fed
    /// counters in `fed` (deadline misses; raw / derived / combined cache
    /// hits), and per-device busy seconds, utilization, and pool load skew.
    fn refresh_gauges(
        &self,
        fed: &MetricsSnapshot,
        interactive: &ClassLatency,
        bulk: &ClassLatency,
    ) {
        let metrics = &self.metrics;
        metrics.gauge_set("ftmap_serve_queue_depth", &[], self.queue.len() as f64);
        // Trace-loss visibility: orphaned anchored events plus (for a flight
        // recorder) ring evictions. 0 for the no-op sink.
        metrics.gauge_set("ftmap_trace_dropped_events", &[], self.trace.dropped_events() as f64);
        for (class, lat) in [("interactive", interactive), ("bulk", bulk)] {
            for (stat, value) in [("mean", lat.mean_s), ("p95", lat.p95_s), ("max", lat.max_s)] {
                metrics.gauge_set(
                    "ftmap_serve_latency_modeled_seconds",
                    &[("class", class), ("stat", stat)],
                    value,
                );
            }
        }
        for class in ["interactive", "bulk"] {
            let [met, missed] = ["met", "missed"].map(|outcome| {
                fed.counter(DEADLINE_OUTCOMES, &[("class", class), ("outcome", outcome)])
                    .unwrap_or(0.0)
            });
            if met + missed > 0.0 {
                metrics.gauge_set(
                    "ftmap_serve_deadline_miss_ratio",
                    &[("class", class)],
                    missed / (met + missed),
                );
            }
        }
        let (raw, derived) = (cache_counts(fed, "raw"), cache_counts(fed, "derived"));
        let mut combined = raw;
        combined.accumulate(&derived);
        for (bucket, stats) in [("raw", &raw), ("derived", &derived), ("combined", &combined)] {
            metrics.gauge_set(
                "ftmap_serve_cache_hit_ratio",
                &[("bucket", bucket)],
                stats.hit_rate(),
            );
        }
        let busy = self.sched.device_busy_modeled_s();
        let clocks = self.sched.device_clocks_v_s();
        let horizon = clocks.iter().copied().fold(0.0, f64::max);
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        let min_busy = busy.iter().copied().fold(f64::INFINITY, f64::min);
        for (index, busy_s) in busy.iter().enumerate() {
            let device = index.to_string();
            metrics.gauge_set(
                "ftmap_serve_device_busy_modeled_seconds",
                &[("device", device.as_str())],
                *busy_s,
            );
            metrics.gauge_set(
                "ftmap_serve_device_utilization",
                &[("device", device.as_str())],
                if horizon > 0.0 { busy_s / horizon } else { 0.0 },
            );
        }
        if max_busy > 0.0 {
            metrics.gauge_set("ftmap_serve_device_skew", &[], (max_busy - min_busy) / max_busy);
        }
    }
}

/// The multi-tenant batch-mapping service. See the [module docs](crate::service).
pub struct BatchMappingService {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
    next_id: AtomicU64,
}

/// Builds a [`BatchMappingService`]: the one construction path. Obtain one
/// from [`BatchMappingService::builder`], layer on configuration and
/// observability in any order, and [`build`](ServiceBuilder::build).
///
/// ```ignore
/// let service = BatchMappingService::builder(pool)
///     .batch(BatchConfig { max_batch_jobs: 8, ..BatchConfig::default() })
///     .admission(AdmissionConfig { bulk_deadline_s: Some(5.0), ..AdmissionConfig::default() })
///     .trace(recorder)
///     .build();
/// ```
pub struct ServiceBuilder {
    pool: Arc<DevicePool>,
    config: ServeConfig,
    /// The trace sink (scheduler items, kernels, transfers, serve edges).
    sink: Arc<dyn TraceSink>,
    /// Latency objectives evaluated per completed job; empty disables the
    /// SLO engine.
    slos: Vec<SloSpec>,
    /// Flight recorder for tail-sampled trace retention.
    flight: Option<Arc<FlightRecorder>>,
}

impl ServiceBuilder {
    /// Replaces the whole service configuration.
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the admission-queue knobs ([`QueueConfig`]).
    pub fn queue(mut self, queue: QueueConfig) -> Self {
        self.config.queue = queue;
        self
    }

    /// Sets the batch-formation/dispatch knobs ([`BatchConfig`]).
    pub fn batch(mut self, batch: BatchConfig) -> Self {
        self.config.batch = batch;
        self
    }

    /// Sets the SLO-aware admission-control and fairness knobs
    /// ([`AdmissionConfig`]).
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.config.admission = admission;
        self
    }

    /// Records every scheduler item, kernel, transfer, residency event and
    /// serve-layer edge into `sink` on the modeled virtual timeline (resolve
    /// with [`ftmap_trace::Recorder::events`], export with
    /// [`ftmap_trace::export_chrome_trace`]). The no-op sink — one boolean
    /// check per edge — when not called.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Adds latency objectives: per-job latencies feed a burn-rate
    /// [`SloEngine`], evaluated into [`ServeStats::slo`] and the
    /// `ftmap_serve_slo_*` gauges at every
    /// [`stats`](BatchMappingService::stats) call.
    pub fn slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }

    /// Wires `recorder` as both the trace sink and the tail-sampled retention
    /// store: each job's tail-sampling verdict — SLO breach or long-window
    /// p99 outlier — tells the recorder whether to retain the request's full
    /// causal tree.
    pub fn flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.sink = Arc::clone(&recorder) as Arc<dyn TraceSink>;
        self.flight = Some(recorder);
        self
    }

    /// Starts the service: spawns its dispatcher thread plus one persistent
    /// scheduler worker per pooled device.
    ///
    /// # Panics
    /// Panics if `queue.max_pending`, `batch.max_batch_jobs` or
    /// `batch.max_inflight_batches` is zero — validated here, at
    /// construction, because a bad bound discovered later, on the dispatcher
    /// thread, would kill the dispatcher and strand every in-flight job
    /// handle.
    pub fn build(self) -> BatchMappingService {
        let ServiceBuilder { pool, config, sink, slos, flight } = self;
        assert!(config.batch.max_batch_jobs > 0, "BatchConfig.max_batch_jobs must be at least 1");
        assert!(
            config.batch.max_inflight_batches > 0,
            "BatchConfig.max_inflight_batches must be at least 1"
        );
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue.max_pending),
            sched: PhasePipeline::with_trace(pool, Arc::clone(&sink)),
            config,
            trace: sink,
            metrics: Arc::new(MetricsRegistry::new()),
            slo: if slos.is_empty() { None } else { Some(Mutex::new(SloEngine::new(slos))) },
            flight,
            completed: Mutex::new(VecDeque::new()),
            grids: Mutex::new(Vec::new()),
            admission: Mutex::new(AdmissionState::default()),
            slack: Condvar::new(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(&shared))
        };
        BatchMappingService { shared, dispatcher: Some(dispatcher), next_id: AtomicU64::new(0) }
    }
}

impl BatchMappingService {
    /// Starts building a service over `pool` — see [`ServiceBuilder`].
    pub fn builder(pool: Arc<DevicePool>) -> ServiceBuilder {
        ServiceBuilder {
            pool,
            config: ServeConfig::default(),
            sink: ftmap_trace::noop(),
            slos: Vec::new(),
            flight: None,
        }
    }

    /// The device pool the service schedules onto.
    pub fn pool(&self) -> &Arc<DevicePool> {
        self.shared.sched.pool()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// The admission controller's current latency estimate for `request`,
    /// against the live modeled state — what `submit` would compare to the
    /// deadline right now. `None` until the cost model calibrates (the first
    /// batch completion).
    pub fn estimate_request(&self, request: &MappingRequest) -> Option<LatencyEstimate> {
        self.shared.estimate_for(
            &request.config,
            request.probes.len(),
            request.receptor_fingerprint(),
            request.class,
        )
    }

    fn admit(
        &self,
        request: MappingRequest,
        fingerprint: u64,
        class: LatencyClass,
        estimated_s: Option<f64>,
        deadline_s: Option<f64>,
        degrade: Option<AppliedDegrade>,
    ) -> Job {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let admitted_v_s = self.shared.sched.now_v_s();
        Job {
            id,
            fingerprint,
            class,
            overtaken: 0,
            admitted_v_s,
            trace_id: request.trace_id.unwrap_or(id.0),
            tenant: request.tenant_label().to_string(),
            weight: request_weight(&request.config, request.probes.len()),
            estimated_s,
            deadline_s,
            degrade,
            slot: JobSlot::new(),
            request,
        }
    }

    /// Submits a request through the admission controller, **blocking** while
    /// the admission queue is full (backpressure), and returns the typed
    /// [`AdmissionVerdict`]: admitted (plain, reprioritized, or degraded)
    /// with a [`JobHandle`], or rejected with the request handed back and a
    /// modeled retry-after hint. A blocking submit is only rejected on an
    /// unmeetable deadline or a closing service.
    pub fn submit(&self, request: MappingRequest) -> AdmissionVerdict {
        self.submit_inner(request, true)
    }

    /// [`submit`](BatchMappingService::submit) without blocking: a full
    /// admission queue rejects ([`RejectReason::QueueFull`]) instead of
    /// waiting, so the client owns the shedding/retry policy.
    // lint-allow(unreferenced-pub): client load-shedding API documented in the
    // README's "The serving layer" section (Admission verdicts); only tests call it.
    pub fn try_submit(&self, request: MappingRequest) -> AdmissionVerdict {
        self.submit_inner(request, false)
    }

    fn submit_inner(&self, mut request: MappingRequest, blocking: bool) -> AdmissionVerdict {
        let requested_class = request.class;
        let deadline_s = request
            .deadline_s
            .or_else(|| self.shared.config.admission.deadline_for(requested_class));
        let fingerprint = request.receptor_fingerprint();
        let n_probes = request.probes.len();
        let decision = decide(
            &self.shared.config.admission,
            requested_class,
            deadline_s,
            &request.config,
            |config, class| self.shared.estimate_for(config, n_probes, fingerprint, class),
        );
        let (class, estimated_s, degrade) = match decision {
            Decision::Admit { estimated_s } => (requested_class, estimated_s, None),
            Decision::Reprioritize { to, estimated_s } => (to, Some(estimated_s), None),
            Decision::Degrade { config, applied, estimated_s } => {
                // Grid geometry is untouched by degradation, so the receptor
                // fingerprint — the batching key — is preserved.
                request.config = config;
                (requested_class, Some(estimated_s), Some(applied))
            }
            Decision::Reject { estimated_s, deadline_s } => {
                self.shared.note_verdict("rejected", requested_class);
                return AdmissionVerdict::Rejected {
                    request,
                    reason: RejectReason::DeadlineUnmeetable { estimated_s, deadline_s },
                    retry_after_modeled_s: Some((estimated_s - deadline_s).max(0.0)),
                };
            }
        };
        let job = self.admit(request, fingerprint, class, estimated_s, deadline_s, degrade);
        let handle = JobHandle::new(job.id, job.request.tag.clone(), Arc::clone(&job.slot));
        let (priority, weight) = (class.priority(), job.weight);
        let (admitted_v_s, trace_id) = (job.admitted_v_s, job.trace_id);
        let tenant = job.tenant.clone();
        let pushed =
            if blocking { self.shared.queue.push(job) } else { self.shared.queue.try_push(job) };
        match pushed {
            Ok(()) => {
                {
                    let mut admission = locked(&self.shared.admission);
                    admission.add_pending(priority, weight);
                    admission.epoch = admission.epoch.wrapping_add(1);
                }
                self.shared.slack.notify_all();
                let verdict = match degrade {
                    Some(applied) => AdmissionVerdict::Degraded { handle, applied },
                    None if class != requested_class => {
                        AdmissionVerdict::Reprioritized { handle, from: requested_class, to: class }
                    }
                    None => AdmissionVerdict::Admitted(handle),
                };
                self.shared.note_admitted(&tenant, class, admitted_v_s, trace_id, verdict.name());
                verdict
            }
            Err(SubmitError::Full(job)) => {
                self.shared.note_verdict("rejected", class);
                AdmissionVerdict::Rejected {
                    request: job.request,
                    reason: RejectReason::QueueFull,
                    // The earliest projected completion across the pool —
                    // when slack is next expected to appear.
                    retry_after_modeled_s: Some(self.shared.projected_wait_s(None)),
                }
            }
            Err(SubmitError::Closed(job)) => {
                self.shared.note_verdict("rejected", class);
                AdmissionVerdict::Rejected {
                    request: job.request,
                    reason: RejectReason::Closed,
                    retry_after_modeled_s: None,
                }
            }
        }
    }

    /// A snapshot of the service counters and latency views.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.shared;
        let (interactive, bulk, (span_modeled_s, cross_batch_overlap_modeled_s)) = {
            let window = locked(&shared.completed);
            (
                class_latency(&window, LatencyClass::Interactive),
                class_latency(&window, LatencyClass::Bulk),
                span_stats(&window),
            )
        };
        // The event-fed series as they stand now: what the derived gauges and
        // the SLO evaluation are computed from.
        let fed = shared.metrics.snapshot();
        shared.refresh_gauges(&fed, &interactive, &bulk);
        let slo = match &shared.slo {
            Some(engine) => {
                let report = locked(engine)
                    .evaluate(|class| fed.histogram(JOB_LATENCY_METRIC, &[("class", class)]));
                report.export_gauges(&shared.metrics, "ftmap_serve_slo");
                report
            }
            None => SloReport::default(),
        };
        let metrics = shared.metrics.snapshot();
        ServeStats {
            jobs_submitted: class_total(&metrics, JOBS_SUBMITTED),
            jobs_completed: class_total(&metrics, JOBS_COMPLETED),
            jobs_failed: class_total(&metrics, JOBS_FAILED),
            batches_run: class_total(&metrics, BATCHES_FORMED),
            interactive,
            bulk,
            span_modeled_s,
            cross_batch_overlap_modeled_s,
            metrics,
            slo,
        }
    }

    /// Stops admissions, drains every pending job (including in-flight
    /// batches), joins the dispatcher, and returns the final stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        self.shared.queue.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            // A job's panic fails only its batch: every waiter resolves and
            // the dispatcher keeps serving. A dispatcher panic is a bug in the
            // service itself, and re-panicking here would abort the process
            // when it happens during Drop-while-unwinding; report and move on.
            if dispatcher.join().is_err() {
                eprintln!("ftmap-serve: dispatcher thread panicked; unfinished jobs are stranded");
            }
        }
    }
}

impl Drop for BatchMappingService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Forms the next batch under the fairness gates, reserving an in-flight
/// slot for every member as it joins. Returns the batch and the admission
/// epoch observed while forming it — when the batch comes back empty from a
/// non-empty pending list, every candidate anchor was fairness-blocked, and
/// the dispatcher waits for the epoch to move (a completion releasing slots,
/// or a fresh admission).
fn form_batch(shared: &Shared, pending: &mut Vec<Job>) -> (Vec<Job>, u64) {
    let admission = &shared.config.admission;
    let receptor_cap = admission.max_inflight_per_receptor.map(|cap| cap.max(1));
    let quota_total = admission.quota_total(&shared.config.batch);
    let state = RefCell::new(locked(&shared.admission));
    let epoch = state.borrow().epoch;
    let fits = |job: &Job, state: &AdmissionState| {
        receptor_cap.is_none_or(|cap| state.receptor_load(job.fingerprint) < cap)
            && state.tenant_load(&job.tenant) < admission.tenant_allowance(&job.tenant, quota_total)
    };
    let batch = next_batch_admission(
        pending,
        shared.config.batch.max_batch_jobs,
        shared.config.batch.bulk_aging,
        |job| fits(job, &state.borrow()),
        |job| {
            // Re-check under the same lock, then reserve: earlier members of
            // this very batch count against the later ones' caps/quotas.
            let mut state = state.borrow_mut();
            let ok = fits(job, &state);
            if ok {
                state.reserve_inflight(job.fingerprint, &job.tenant);
            }
            ok
        },
    );
    (batch, epoch)
}

/// The dispatcher: drain → batch (under the fairness gates) → dispatch,
/// until closed and empty; then wait out whatever the phased scheduler still
/// has in flight.
fn dispatch_loop(shared: &Arc<Shared>) {
    let mut pending: Vec<Job> = Vec::new();
    let mut next_batch_index = 0;
    loop {
        // Opportunistic top-up so jobs that arrived during the previous batch
        // can join — or overtake into — the next compatible one.
        pending.extend(shared.queue.drain_now());
        if pending.is_empty() {
            match shared.queue.drain_wait() {
                Some(jobs) => pending.extend(jobs),
                None => break, // closed and fully drained
            }
        }
        let (batch, epoch) = form_batch(shared, &mut pending);
        if batch.is_empty() {
            // Every pending anchor is fairness-blocked. Allowances and caps
            // are clamped to ≥ 1, so a blocked job implies work in flight —
            // a completion is coming, and it bumps the epoch.
            shared.wait_for_slack(epoch);
            continue;
        }
        submit_batch(shared, batch, next_batch_index);
        next_batch_index += 1;
    }
    shared.sched.drain();
}

/// Runs one of the serve layer's own steps over a batch's inputs — receptor
/// and pipeline set-up on the dispatcher, result assembly in the completion
/// callback — turning a panic into its message (`panic!` payloads are a
/// `String` or a `&str`), so the batch fails on the path a batch the
/// scheduler failed takes.
fn caught<T>(step: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(step)).map_err(|payload| match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map_or("non-string panic", |m| m).into(),
    })
}

/// Hands the batch to the phased scheduler and returns as soon as flow
/// control allows — completion (result assembly, job slots, accounting)
/// happens in the scheduler's completion callback, while this thread goes
/// back to forming the next batch. A panic in the batch's set-up fails the
/// batch here instead.
fn submit_batch(shared: &Arc<Shared>, batch: Vec<Job>, batch_index: usize) {
    let sched = &shared.sched;
    // Flow control: keep at most `max_inflight_batches` on the pool — enough
    // that batch N+1 docks under batch N's minimization, bounded so priority
    // admission stays responsive and memory stays flat.
    sched.wait_capacity(shared.config.batch.max_inflight_batches);

    for job in &batch {
        job.slot.set_running();
    }
    let class = batch[0].class;
    // The anchor job's tenant label stands in for the batch (batches are
    // receptor- and class-homogeneous; per-job identity stays on the admit
    // instants).
    let tenant = batch[0].tenant.clone();
    shared.note_batch_formed(batch_index, &batch, class);
    let setup = caught(|| {
        let (receptor, halves) = shared.receptor_for(batch[0].fingerprint, &batch);
        // One pipeline per job (each job keeps its own config), all sharing
        // the pool and the prebuilt receptor grids, and a receptor half with
        // every job of equal protein and force field.
        let jobs = batch
            .iter()
            .zip(halves)
            .map(|(job, half)| {
                let pipeline = FtMapPipeline::with_shared_resources(
                    job.request.protein.clone(),
                    job.request.ff.clone(),
                    job.request.config.clone(),
                    Arc::clone(sched.pool()),
                    Arc::clone(&receptor),
                    half,
                );
                (pipeline, job.request.library())
            })
            .collect();
        (receptor.content_key(), PhasedMapBatch::new(jobs, shared.config.batch.pose_block))
    });

    // The batch leaves the admission controller's pending backlog: the
    // scheduler projection covers it from here on, or it failed.
    {
        let mut admission = locked(&shared.admission);
        for job in &batch {
            admission.remove_pending(job.class.priority(), job.weight);
        }
    }
    let (receptor_key, exec) = match setup {
        Ok((receptor_key, exec)) => (receptor_key, Arc::new(exec)),
        Err(message) => return fail_batch(shared, batch, batch_index, &message),
    };
    // One trace id per `(job, probe)` dock entry: the scheduler stamps them
    // onto its dock/minimize item spans (and, via scope-tag inheritance,
    // their kernel / transfer / cache children), tying device work back to
    // the owning request.
    let entry_traces: Vec<u64> = if shared.trace.enabled() {
        batch
            .iter()
            .flat_map(|job| std::iter::repeat_n(job.trace_id, job.request.probes.len()))
            .collect()
    } else {
        Vec::new()
    };

    let callback = {
        let shared = Arc::clone(shared);
        let exec = Arc::clone(&exec);
        Box::new(move |outcome: Result<BatchReport, BatchFailed>| {
            // Result assembly clusters each job's poses under its own
            // config, so it can fail on a job's inputs too.
            let assembled = outcome
                .map_err(|failed| failed.message)
                .and_then(|report| caught(|| exec.take_results()).map(|results| (report, results)));
            match assembled {
                Ok((report, results)) => {
                    complete_batch(&shared, batch, results, receptor_key, batch_index, report);
                }
                Err(message) => fail_batch(&shared, batch, batch_index, &message),
            }
        }) as Box<dyn FnOnce(Result<BatchReport, BatchFailed>) + Send>
    };
    sched.submit(
        PhasedBatch {
            label: BatchLabel { tenant: Some(tenant), class: Some(class.name()) },
            entry_traces,
            priority: class.priority(),
            entries: exec.entries(),
            dock_weights: exec.dock_weights(),
            exec: exec as Arc<dyn PhasedExec>,
        },
        Some(callback),
    );
}

/// Failure of a batch — a panic in its set-up, an item or its result
/// assembly: each job releases its reservation, skips calibration, counts as
/// failed, closes its trace tree and resolves as [`crate::JobStatus::Failed`].
/// The trees close at the pool's makespan, after every item the batch ran.
fn fail_batch(shared: &Shared, batch: Vec<Job>, batch_index: usize, message: &str) {
    let at_v_s = shared.sched.makespan_modeled_s();
    for job in batch {
        shared.metrics.counter_add(JOBS_FAILED, &[("class", job.class.name())], 1.0);
        shared.close_request(&job, batch_index, at_v_s, None, true);
        job.slot.resolve(Err(format!("batch {batch_index} failed: {message}")));
    }
}

/// Completion of a batch (runs on a scheduler worker): calibration, the
/// batch's summary and counters, and each job's report — its own
/// [`MappingResult`] out of [`PhasedMapBatch::take_results`].
fn complete_batch(
    shared: &Shared,
    batch: Vec<Job>,
    results: Vec<MappingResult>,
    receptor_key: u64,
    batch_index: usize,
    report: BatchReport,
) {
    // Calibrate the admission controller's cost model and warm set with what
    // the batch actually did.
    {
        let batch_weight: f64 = batch.iter().map(|job| job.weight).sum();
        let cold = report.cache.misses > 0;
        // The fraction of the pool this batch actually occupied: devices the
        // scheduler can fill with queue neighbors drain the backlog in
        // parallel, so a half-pool batch works off queued weight twice as
        // fast as its span alone suggests.
        let footprint = report.per_device.iter().filter(|d| d.items() > 0).count();
        let device_share = footprint as f64 / report.per_device.len().max(1) as f64;
        let mut admission = locked(&shared.admission);
        admission.model.observe_batch(
            report.span_modeled_s(),
            device_share,
            batch_weight,
            cold,
            report.transfer_modeled_s(),
        );
        admission.note_warm(batch[0].fingerprint);
    }
    // Latency counts from the earliest job's *admission* instant, so modeled
    // queue wait spent in the dispatcher's pending list (flow control,
    // overtaking) is part of the figure — not just scheduler residence.
    let admitted_v_s =
        batch.iter().map(|job| job.admitted_v_s).fold(report.submitted_v_s, f64::min);
    let summary = Arc::new(BatchSummary {
        batch_index,
        jobs: batch.len(),
        receptor_key,
        class: batch[0].class,
        latency_modeled_s: (report.completed_v_s - admitted_v_s).max(0.0),
        makespan_modeled_s: report.span_modeled_s(),
        overlap_saved_modeled_s: report.overlap_saved_s(),
        report,
    });
    push_windowed(&mut locked(&shared.completed), Arc::clone(&summary));
    shared.note_batch_completed(&summary);
    // One registry snapshot for the whole batch: the SLO engine compares each
    // job against the long window as it stood *before* this batch completed.
    let slo_snapshot = shared.slo.as_ref().map(|_| shared.metrics.snapshot());
    for (job, result) in batch.into_iter().zip(results) {
        let latency_job_s = shared.note_job_resolved(&job, &summary, slo_snapshot.as_ref());
        let report = Arc::new(JobReport {
            job_id: job.id,
            tag: job.request.tag.clone(),
            result,
            batch: Arc::clone(&summary),
            trace_id: job.trace_id,
            admitted_modeled_s: job.admitted_v_s,
            latency_modeled_s: latency_job_s,
            deadline_s: job.deadline_s,
            estimated_latency_s: job.estimated_s,
            degrade: job.degrade,
        });
        job.slot.resolve(Ok(report));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use ftmap_core::{FtMapConfig, PipelineMode};
    use ftmap_molecule::{ForceField, ProbeType, ProteinSpec, SyntheticProtein};
    use ftmap_trace::AlertState;

    fn request(probes: &[ProbeType], tag: &str) -> MappingRequest {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
        let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
        config.docking.n_rotations = 2;
        config.conformations_per_probe = 1;
        MappingRequest::new(protein, ff, probes.to_vec(), config).with_tag(tag)
    }

    #[test]
    fn submitted_jobs_complete_with_results() {
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2))).build();
        let a = service.submit(request(&[ProbeType::Ethanol], "a")).expect_admitted("admitted");
        let b = service
            .submit(request(&[ProbeType::Acetone, ProbeType::Urea], "b"))
            .expect_admitted("admitted");
        let report_a = a.wait();
        let report_b = b.wait();
        assert_eq!(a.status(), JobStatus::Completed);
        assert_eq!(report_a.tag, "a");
        assert_eq!(report_b.tag, "b");
        assert!(!report_a.result.sites.is_empty());
        assert_eq!(report_a.result.conformations_minimized, 1);
        assert_eq!(report_b.result.conformations_minimized, 2);
        assert!(report_b.batch.report.span_modeled_s() > 0.0);
        assert_eq!(report_b.batch.class, LatencyClass::Bulk);
        let stats = service.shutdown();
        assert_eq!(stats.jobs_submitted, 2);
        assert_eq!(stats.jobs_completed, 2);
        assert!(stats.batches_run >= 1);
        assert!(stats.bulk.batches >= 1);
        assert_eq!(stats.interactive.batches, 0);
        assert!(stats.span_modeled_s > 0.0);
        // Residency: at most one grid-set miss per device, everything else hit.
        assert!(stats.cache().misses <= 2);
        assert!(stats.cache().lookups() >= 3, "one lookup per probe shard");
    }

    #[test]
    fn service_result_matches_dedicated_pipeline() {
        // A job's sites through the service must be bit-identical to running
        // its pipeline alone — multi-tenancy never changes answers.
        let req = request(&[ProbeType::Ethanol, ProbeType::Benzene], "solo");
        let dedicated = FtMapPipeline::new(req.protein.clone(), req.ff.clone(), req.config.clone())
            .map(&req.library());
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2))).build();
        // Surround it with noise jobs in the same batch.
        let noise1 =
            service.submit(request(&[ProbeType::Acetone], "n1")).expect_admitted("admitted");
        let job = service.submit(req).expect_admitted("admitted");
        let noise2 = service.submit(request(&[ProbeType::Urea], "n2")).expect_admitted("admitted");
        let report = job.wait();
        noise1.wait();
        noise2.wait();
        assert_eq!(report.result.sites.len(), dedicated.sites.len());
        for (a, b) in report.result.sites.iter().zip(&dedicated.sites) {
            assert_eq!(a.rank, b.rank);
            assert!(a.cluster.center.distance(b.cluster.center) == 0.0);
            assert_eq!(a.cluster.members.len(), b.cluster.members.len());
        }
        assert_eq!(report.result.pose_centers.len(), dedicated.pose_centers.len());
        assert_eq!(report.result.conformations_minimized, dedicated.conformations_minimized);
    }

    #[test]
    fn batched_fft_jobs_share_receptor_transforms() {
        // Two jobs against the same receptor under the batched FFT engine:
        // the first probe dock on the device computes and caches the receptor
        // transforms as a derived residency payload; every later dock — the
        // first job's other probe and the entire second job — reuses them.
        // Multi-tenancy still never changes answers.
        let make = |probes: &[ProbeType], tag: &str| {
            let mut req = request(probes, tag);
            req.config.docking.engine = piper_dock::DockingEngineKind::BatchedFft { batch: 4 };
            req
        };
        let req = make(&[ProbeType::Ethanol, ProbeType::Benzene], "first");
        let dedicated = FtMapPipeline::new(req.protein.clone(), req.ff.clone(), req.config.clone())
            .map(&req.library());
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(1))).build();
        let first = service.submit(req).expect_admitted("admitted");
        let second =
            service.submit(make(&[ProbeType::Acetone], "second")).expect_admitted("admitted");
        let first_report = first.wait();
        second.wait();
        assert_eq!(first_report.result.sites.len(), dedicated.sites.len());
        for (a, b) in first_report.result.sites.iter().zip(&dedicated.sites) {
            assert_eq!(a.rank, b.rank);
            assert!(a.cluster.center.distance(b.cluster.center) == 0.0);
        }
        let stats = service.shutdown();
        // One device, one receptor: the raw grids and the derived transforms
        // each miss exactly once; the remaining two probe docks are hits in
        // both buckets (3 docks total across the two jobs).
        let raw = stats.cache();
        assert_eq!(raw.misses, 1);
        let derived = stats.derived_cache();
        assert_eq!(derived.misses, 1, "one transform computation for the whole pool");
        assert_eq!(derived.insertions, 1);
        assert_eq!(derived.hits, 2, "every later dock borrows the resident transforms");
        assert_eq!(derived.evictions, 0);
    }

    #[test]
    fn pose_block_dispatch_matches_fused_and_counts_blocks() {
        // The same job through a fused (pose_block: 0) service and a
        // pose-granularity (pose_block: 1) service: identical sites and pose
        // centres — scheduling granularity never changes answers — and the
        // pose-block batch reports one block per minimized conformation.
        let make = || {
            let mut req = request(&[ProbeType::Ethanol, ProbeType::Benzene], "pose");
            req.config.conformations_per_probe = 2;
            req
        };
        let fused_service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .batch(BatchConfig { pose_block: 0, ..BatchConfig::default() })
            .build();
        let fused = fused_service.submit(make()).expect_admitted("admitted").wait();
        assert_eq!(fused.batch.report.blocks, 0, "fused batches schedule no blocks");

        let pose_service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .batch(BatchConfig { pose_block: 1, ..BatchConfig::default() })
            .build();
        let pose = pose_service.submit(make()).expect_admitted("admitted").wait();
        assert_eq!(pose.result.conformations_minimized, 4);
        // Block size 1 ⇒ one block per minimized conformation across the batch.
        assert_eq!(pose.batch.report.blocks, pose.result.conformations_minimized);
        assert!(pose.batch.report.span_modeled_s() > 0.0);

        assert_eq!(fused.result.pose_centers.len(), pose.result.pose_centers.len());
        for ((pa, ca), (pb, cb)) in fused.result.pose_centers.iter().zip(&pose.result.pose_centers)
        {
            assert_eq!(pa, pb);
            assert!(ca.x == cb.x && ca.y == cb.y && ca.z == cb.z);
        }
        assert_eq!(fused.result.sites.len(), pose.result.sites.len());
        for (a, b) in fused.result.sites.iter().zip(&pose.result.sites) {
            assert_eq!(a.rank, b.rank);
            assert!(a.cluster.center.distance(b.cluster.center) == 0.0);
        }
    }

    #[test]
    fn service_matches_a_dedicated_map_and_batch_spans_cover_the_service_span() {
        // The service's result equals a dedicated `FtMapPipeline::map` of the
        // same request, and the per-batch barrier equivalents (span + what
        // phase overlap saved) add up to at least the service's modeled span:
        // barriered, back-to-back batches could only have taken longer.
        let make = |tag: &str| request(&[ProbeType::Ethanol, ProbeType::Acetone], tag);
        let req = make("cmp-0");
        let dedicated = FtMapPipeline::new(req.protein.clone(), req.ff.clone(), req.config.clone())
            .map(&req.library());
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .batch(BatchConfig { max_batch_jobs: 1, ..BatchConfig::default() })
            .build();
        let handles: Vec<_> = (0..3)
            .map(|i| service.submit(make(&format!("cmp-{i}"))).expect_admitted("admitted"))
            .collect();
        let reports: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        let stats = service.shutdown();
        for report in &reports {
            assert_eq!(report.result.sites.len(), dedicated.sites.len());
            for (a, b) in report.result.sites.iter().zip(&dedicated.sites) {
                assert_eq!(a.rank, b.rank);
                assert!(a.cluster.center.distance(b.cluster.center) == 0.0);
            }
            assert!(report.batch.report.completed_v_s >= report.batch.report.started_v_s);
        }
        // Each distinct batch contributes once (jobs share summaries).
        let mut barrier = std::collections::BTreeMap::new();
        for r in &reports {
            barrier.insert(
                r.batch.batch_index,
                r.batch.report.span_modeled_s() + r.batch.report.overlap_saved_s(),
            );
        }
        let barrier_sum: f64 = barrier.values().sum();
        assert!(
            barrier_sum >= stats.span_modeled_s - 1e-12,
            "Σ barrier equivalents {barrier_sum} < service span {}",
            stats.span_modeled_s
        );
    }

    #[test]
    fn interactive_jobs_report_their_class_and_latency_view() {
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .batch(BatchConfig { max_batch_jobs: 1, ..BatchConfig::default() })
            .build();
        let bulk =
            service.submit(request(&[ProbeType::Ethanol], "bulk")).expect_admitted("admitted");
        let inter = service
            .submit(request(&[ProbeType::Acetone], "inter").with_class(LatencyClass::Interactive))
            .expect_admitted("admitted");
        let bulk_report = bulk.wait();
        let inter_report = inter.wait();
        assert_eq!(bulk_report.batch.class, LatencyClass::Bulk);
        assert_eq!(inter_report.batch.class, LatencyClass::Interactive);
        assert!(inter_report.batch.latency_modeled_s >= 0.0);
        let stats = service.shutdown();
        assert_eq!(stats.interactive.batches, 1);
        assert!(stats.bulk.batches >= 1);
        assert!(stats.interactive.max_s >= stats.interactive.p95_s);
        assert!(stats.interactive.p95_s >= 0.0);
    }

    #[test]
    fn pipelined_transfer_buckets_are_batch_scoped_not_windowed() {
        // Regression for the double-attribution bug: two batches overlapping
        // on the pool must partition the pool's cumulative transfer time —
        // the service total equals the pool total exactly, and so does the
        // sum of the per-batch figures. Under a windowed scheme (reset + read
        // total around each batch) the overlap would charge batch N+1's
        // uploads to batch N as well.
        let pool = Arc::new(DevicePool::tesla(2));
        pool.reset_transfer_stats();
        let service = BatchMappingService::builder(Arc::clone(&pool))
            // Force distinct consecutive batches that overlap in flight.
            .batch(BatchConfig {
                max_batch_jobs: 1,
                max_inflight_batches: 2,
                ..BatchConfig::default()
            })
            .build();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                service
                    .submit(request(&[ProbeType::Ethanol, ProbeType::Urea], &format!("t{i}")))
                    .expect_admitted("admitted")
            })
            .collect();
        let reports: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        let stats = service.shutdown();
        let pool_total = pool.total_transfer_time();
        assert!(pool_total > 0.0);
        let service_total = stats.transfer_modeled_s();
        assert!(
            (service_total - pool_total).abs() < 1e-9,
            "service total {service_total} != pool total {pool_total}"
        );
        let batch_sum: f64 = {
            // Each distinct batch contributes once (jobs share summaries).
            let mut seen = std::collections::BTreeMap::new();
            for r in &reports {
                seen.insert(r.batch.batch_index, r.batch.report.transfer_modeled_s());
            }
            seen.values().sum()
        };
        assert!(
            (batch_sum - pool_total).abs() < 1e-9,
            "per-batch transfers {batch_sum} != pool total {pool_total}"
        );
    }

    #[test]
    fn serve_stats_are_a_fold_of_the_batch_summaries_clients_saw() {
        // Every monotone figure on `ServeStats` must be the sum of what the
        // job reports carried — one set of books, not two that happen to
        // agree. The batched FFT engine makes the derived bucket non-empty.
        let make = |probes: &[ProbeType], tag: &str| {
            let mut req = request(probes, tag);
            req.config.docking.engine = piper_dock::DockingEngineKind::BatchedFft { batch: 4 };
            req
        };
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .batch(BatchConfig {
                max_batch_jobs: 2,
                max_inflight_batches: 2,
                ..BatchConfig::default()
            })
            .build();
        let handles: Vec<_> = [
            make(&[ProbeType::Ethanol, ProbeType::Urea], "f0"),
            make(&[ProbeType::Acetone], "f1"),
            make(&[ProbeType::Benzene], "f2").with_class(LatencyClass::Interactive),
            make(&[ProbeType::Urea, ProbeType::Acetone], "f3"),
            make(&[ProbeType::Ethanol], "f4"),
        ]
        .into_iter()
        .map(|req| service.submit(req).expect_admitted("admitted"))
        .collect();
        let reports: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        let stats = service.shutdown();

        // Each distinct batch contributes once (jobs share summaries).
        let batches: std::collections::BTreeMap<usize, &BatchSummary> =
            reports.iter().map(|r| (r.batch.batch_index, r.batch.as_ref())).collect();
        let (mut cache, mut derived) = (CacheStats::default(), CacheStats::default());
        let (mut jobs, mut transfer_s) = (0, 0.0);
        for batch in batches.values() {
            cache.accumulate(&batch.report.cache);
            derived.accumulate(&batch.report.derived_cache);
            jobs += batch.jobs;
            transfer_s += batch.report.transfer_modeled_s();
        }
        assert_eq!(stats.jobs_submitted, reports.len());
        assert_eq!(stats.jobs_completed, jobs);
        assert_eq!(stats.batches_run, batches.len());
        assert_eq!(stats.cache(), cache);
        assert_eq!(stats.derived_cache(), derived);
        assert!(derived.lookups() > 0 && cache.lookups() > 0, "the fold is not vacuous");
        assert!(
            (stats.transfer_modeled_s() - transfer_s).abs() < 1e-12,
            "service transfer total {} != Σ batches {transfer_s}",
            stats.transfer_modeled_s()
        );
    }

    fn tiny_service() -> BatchMappingService {
        BatchMappingService::builder(Arc::new(DevicePool::tesla(1)))
            .queue(QueueConfig { max_pending: 1 })
            .batch(BatchConfig { max_batch_jobs: 1, ..BatchConfig::default() })
            .build()
    }

    #[test]
    fn try_submit_sheds_when_the_queue_is_full() {
        // A service whose dispatcher is busy accumulates pending jobs; with
        // max_pending = 1 the second concurrent try_submit must be rejected
        // and hand the request back. Use a closed service for a deterministic
        // variant as well.
        let service = tiny_service();
        let stats = service.shutdown();
        assert_eq!(stats.jobs_submitted, 0);

        let service = tiny_service();
        // Saturate: keep pushing until one submission reports QueueFull. The
        // dispatcher drains concurrently, so retry a few times.
        let mut saw_full = false;
        let mut handles = Vec::new();
        for i in 0..32 {
            match service.try_submit(request(&[ProbeType::Ethanol], &format!("j{i}"))) {
                AdmissionVerdict::Rejected {
                    request: req,
                    reason: RejectReason::QueueFull,
                    retry_after_modeled_s,
                } => {
                    saw_full = true;
                    // The request comes back intact for the client to retry,
                    // with a modeled retry-after hint.
                    assert_eq!(req.probes, vec![ProbeType::Ethanol]);
                    assert!(retry_after_modeled_s.is_some_and(|s| s >= 0.0));
                    break;
                }
                AdmissionVerdict::Rejected { reason, .. } => {
                    panic!("unexpected rejection: {reason:?}")
                }
                verdict => handles.push(verdict.expect_admitted("open service admits")),
            }
        }
        assert!(saw_full, "a 1-deep queue must refuse under a 32-job burst");
        for handle in handles {
            handle.wait();
        }
        drop(service);
    }

    #[test]
    fn closed_service_rejects_with_no_retry_hint() {
        let mut service = tiny_service();
        service.close_and_join();
        match service.try_submit(request(&[ProbeType::Ethanol], "late")) {
            AdmissionVerdict::Rejected {
                reason: RejectReason::Closed,
                retry_after_modeled_s,
                ..
            } => assert_eq!(retry_after_modeled_s, None, "closed has no later"),
            verdict => panic!("expected Closed rejection, got {}", verdict.name()),
        }
    }

    #[test]
    #[should_panic(expected = "max_batch_jobs")]
    fn zero_batch_bound_is_rejected_at_construction() {
        // Validated on the caller thread — discovered on the dispatcher
        // thread it would strand every job handle instead of failing fast.
        let _ = BatchMappingService::builder(Arc::new(DevicePool::tesla(1)))
            .batch(BatchConfig { max_batch_jobs: 0, ..BatchConfig::default() })
            .build();
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_admission_bound_is_rejected_at_construction() {
        let _ = BatchMappingService::builder(Arc::new(DevicePool::tesla(1)))
            .queue(QueueConfig { max_pending: 0 })
            .build();
    }

    #[test]
    #[should_panic(expected = "max_inflight_batches")]
    fn zero_inflight_bound_is_rejected_at_construction() {
        let _ = BatchMappingService::builder(Arc::new(DevicePool::tesla(1)))
            .batch(BatchConfig { max_inflight_batches: 0, ..BatchConfig::default() })
            .build();
    }

    #[test]
    fn shutdown_drains_pending_jobs_before_returning() {
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(1))).build();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                service
                    .submit(request(&[ProbeType::Ethanol], &format!("x{i}")))
                    .expect_admitted("admitted")
            })
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.jobs_completed, 3);
        for handle in &handles {
            let (tag, status) = (handle.tag(), handle.status());
            assert_eq!(status, JobStatus::Completed, "{tag} left incomplete by shutdown");
        }
    }

    #[test]
    fn class_latency_percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let lat = ClassLatency::from_samples(&samples);
        assert_eq!(lat.batches, 100);
        assert_eq!(lat.p95_s, 95.0);
        assert_eq!(lat.max_s, 100.0);
        assert!((lat.mean_s - 50.5).abs() < 1e-12);
        assert_eq!(ClassLatency::from_samples(&[]), ClassLatency::default());
        let one = ClassLatency::from_samples(&[2.5]);
        assert_eq!(one.p95_s, 2.5);
        assert_eq!(one.batches, 1);
    }

    /// A completed batch with just the fields the window views read.
    fn completed(
        class: LatencyClass,
        latency_modeled_s: f64,
        started_v_s: f64,
        completed_v_s: f64,
    ) -> Arc<BatchSummary> {
        Arc::new(BatchSummary {
            batch_index: 0,
            jobs: 1,
            receptor_key: 0,
            class,
            latency_modeled_s,
            makespan_modeled_s: completed_v_s - started_v_s,
            overlap_saved_modeled_s: 0.0,
            report: BatchReport {
                seq: 0,
                priority: class.priority(),
                submitted_v_s: started_v_s,
                started_v_s,
                completed_v_s,
                docks: 0,
                blocks: 0,
                per_device: Vec::new(),
                cache: CacheStats::default(),
                derived_cache: CacheStats::default(),
            },
        })
    }

    #[test]
    fn span_stats_measure_cross_batch_overlap() {
        let mut window = VecDeque::new();
        for (class, latency_s, (started_v_s, completed_v_s)) in [
            (LatencyClass::Bulk, 4.0, (0.0, 4.0)),
            (LatencyClass::Bulk, 5.0, (3.0, 8.0)),
            (LatencyClass::Interactive, 1.0, (10.0, 11.0)),
        ] {
            push_windowed(&mut window, completed(class, latency_s, started_v_s, completed_v_s));
        }
        let (span, overlap) = span_stats(&window);
        assert!((span - 11.0).abs() < 1e-12);
        // [3,4) is covered twice: one modeled second of cross-batch overlap.
        assert!((overlap - 1.0).abs() < 1e-12);
        assert_eq!(span_stats(&VecDeque::new()), (0.0, 0.0));
        // The per-class latency views fold the same records.
        assert_eq!(class_latency(&window, LatencyClass::Bulk).batches, 2);
        assert_eq!(class_latency(&window, LatencyClass::Bulk).max_s, 5.0);
        assert_eq!(class_latency(&window, LatencyClass::Interactive).mean_s, 1.0);
    }

    #[test]
    fn completed_batch_window_evicts_the_oldest_past_the_cap() {
        let mut window = VecDeque::new();
        for i in 0..LATENCY_WINDOW + 3 {
            let at = i as f64;
            push_windowed(&mut window, completed(LatencyClass::Bulk, at, at, at + 1.0));
        }
        assert_eq!(window.len(), LATENCY_WINDOW);
        assert_eq!(window.front().map(|b| b.latency_modeled_s), Some(3.0));
        let view = class_latency(&window, LatencyClass::Bulk);
        assert_eq!(view.batches, LATENCY_WINDOW);
        assert_eq!(view.max_s, (LATENCY_WINDOW + 2) as f64);
    }

    #[test]
    fn trace_ids_thread_through_admit_batching_items_and_resolve() {
        // The tentpole end-to-end: every job's trace id must appear on its
        // admit / job-batched / job-resolve instants AND on the scheduler's
        // dock (and, under pose blocks, minimize) item spans, so the causal
        // tree reassembles and its exact latency breakdown sums to the job's
        // own modeled latency.
        let recorder = Arc::new(ftmap_trace::Recorder::new());
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .batch(BatchConfig { pose_block: 1, ..BatchConfig::default() })
            .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
            .build();
        let a = service.submit(request(&[ProbeType::Ethanol], "a")).expect_admitted("admitted");
        let b = service
            .submit(MappingRequest {
                trace_id: Some(0xFEED),
                ..request(&[ProbeType::Acetone], "b")
            })
            .expect_admitted("admitted");
        let report_a = a.wait();
        let report_b = b.wait();
        assert_eq!(report_b.trace_id, 0xFEED, "client-supplied trace ids are honored");
        assert_eq!(report_a.trace_id, report_a.job_id.0, "default trace id is the job id");
        assert!(report_a.latency_modeled_s >= 0.0 && report_a.admitted_modeled_s >= 0.0);
        service.shutdown();

        let trees = ftmap_trace::build_request_trees(&recorder.events());
        for report in [&report_a, &report_b] {
            let tree = trees
                .iter()
                .find(|t| t.trace_id == report.trace_id)
                .expect("each job has a causal tree");
            assert!(tree.admitted_v_s.is_some(), "admit instant recorded");
            assert!(tree.batched.is_some(), "job-batched instant recorded");
            assert!(tree.resolved_v_s.is_some(), "job-resolve instant recorded");
            assert!(
                (tree.latency_s().expect("latency") - report.latency_modeled_s).abs() < 1e-9,
                "stamped latency matches the report"
            );
            assert!(tree.items.iter().any(ftmap_trace::ItemNode::is_dock), "dock item tagged");
            assert!(
                tree.items.iter().any(|i| !i.is_dock()),
                "minimize items tagged under pose blocks"
            );
            let analysis = ftmap_trace::analyze(tree).expect("analyzable tree");
            assert!(
                (analysis.breakdown.total_s() - report.latency_modeled_s).abs() < 1e-9,
                "breakdown segments sum exactly to the job's modeled latency"
            );
        }
    }

    #[test]
    fn slo_breaches_page_and_the_flight_recorder_retains_the_trees() {
        // An unmeetable objective (any positive latency breaches a 0-second
        // target) must drive both burn windows past PAGE_BURN, and every
        // breaching request's tree must survive in the flight recorder.
        let flight = Arc::new(ftmap_trace::FlightRecorder::new());
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .batch(BatchConfig { max_batch_jobs: 1, ..BatchConfig::default() })
            .flight_recorder(Arc::clone(&flight))
            .slos(vec![SloSpec::new(LatencyClass::Bulk.name(), 0.0, 0.99)])
            .build();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                service
                    .submit(request(&[ProbeType::Ethanol], &format!("s{i}")))
                    .expect_admitted("admitted")
            })
            .collect();
        let reports: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        let stats = service.shutdown();

        let status = stats.slo.class("bulk").expect("bulk SLO evaluated");
        assert_eq!(status.samples, 3);
        assert!(status.burn_long >= ftmap_trace::PAGE_BURN);
        assert_eq!(status.state, AlertState::Page);
        assert_eq!(stats.slo.worst_state(), AlertState::Page);
        assert!(
            stats.metrics.gauge("ftmap_serve_slo_alert_state", &[("class", "bulk")]).is_some(),
            "alert gauge exported into the registry"
        );
        assert!(
            stats
                .metrics
                .histogram(JOB_LATENCY_METRIC, &[("class", "bulk")])
                .is_some_and(|h| h.count == 3),
            "per-job latency histogram fed once per job"
        );

        let retained = flight.retained_trace_ids();
        for report in &reports {
            assert!(
                retained.contains(&report.trace_id),
                "breaching request {} retained by tail-sampling",
                report.trace_id
            );
        }
        let dump = flight.dump_perfetto();
        assert!(dump.contains("job-resolve"), "retained trees include the resolve edge");
    }

    #[test]
    fn reports_carry_estimates_deadlines_and_degrades() {
        // First job: uncalibrated model, no deadline configured → plain
        // admission, no estimate on the report. Second job (same receptor,
        // model now calibrated): the report carries the admission-time
        // estimate, the per-request deadline, and the deadline outcome.
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(1))).build();
        let first = service
            .submit(request(&[ProbeType::Ethanol], "calibrate"))
            .expect_admitted("admitted")
            .wait();
        assert_eq!(first.estimated_latency_s, None, "model was uncalibrated");
        assert_eq!(first.deadline_s, None);
        assert_eq!(first.degrade, None);

        let estimate = service
            .estimate_request(&request(&[ProbeType::Ethanol], "probe"))
            .expect("calibrated after first batch");
        assert!(estimate.total_s() > 0.0);
        let second = service
            .submit(MappingRequest {
                deadline_s: Some(1e9),
                ..request(&[ProbeType::Ethanol], "timed")
            })
            .expect_admitted("admitted")
            .wait();
        assert!(second.estimated_latency_s.is_some_and(|s| s > 0.0));
        assert_eq!(second.deadline_s, Some(1e9));
        assert!(second.latency_modeled_s <= 1e9, "the deadline was met");
        let stats = service.shutdown();
        assert!(
            stats
                .metrics
                .counter(
                    "ftmap_serve_admission_verdicts_total",
                    &[("verdict", "admitted"), ("class", "bulk"),]
                )
                .is_some_and(|count| count >= 2.0),
            "verdict counter fed per submission"
        );
    }

    #[test]
    fn unmeetable_deadlines_degrade_then_reject() {
        use ftmap_core::DegradePolicy;
        // Calibrate on one completed batch, then submit with deadlines the
        // estimator cannot meet: with a degrade policy the request is
        // admitted reduced; without headroom even degraded, it is rejected
        // with a modeled retry-after.
        let policy = DegradePolicy {
            rotation_factor: 0.5,
            min_rotations: 1,
            conformation_factor: 1.0,
            min_conformations: 1,
        };
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(1)))
            .admission(AdmissionConfig { degrade: Some(policy), ..AdmissionConfig::default() })
            .build();
        service
            .submit(request(&[ProbeType::Ethanol], "calibrate"))
            .expect_admitted("admitted")
            .wait();
        let estimate = service
            .estimate_request(&request(&[ProbeType::Ethanol], "probe"))
            .expect("calibrated")
            .total_s();

        // An impossible deadline: nothing — not even the degraded config —
        // fits a 1e-6× margin. Structural guarantee: flagged-unmeetable is
        // rejected, never admitted-then-missed.
        match service.submit(MappingRequest {
            deadline_s: Some(estimate * 1e-6),
            ..request(&[ProbeType::Ethanol], "doomed")
        }) {
            AdmissionVerdict::Rejected {
                reason: RejectReason::DeadlineUnmeetable { estimated_s, deadline_s },
                retry_after_modeled_s,
                ..
            } => {
                assert!(estimated_s > deadline_s);
                assert!(retry_after_modeled_s.is_some_and(|s| s > 0.0));
            }
            verdict => panic!("expected rejection, got {}", verdict.name()),
        }

        // A deadline only the degraded request fits: the test config runs 2
        // rotations + 1 conformation per probe (weight 3); halving rotations
        // gives weight 2, ≈ 2/3 of the estimate. A deadline at 0.8× the
        // full-fidelity estimate is unmeetable as-is but fits degraded.
        match service.submit(MappingRequest {
            deadline_s: Some(estimate * 0.8),
            ..request(&[ProbeType::Ethanol], "reduced")
        }) {
            AdmissionVerdict::Degraded { handle, applied } => {
                assert!(!applied.is_noop());
                assert_eq!(applied.rotations, (2, 1), "rotation halving, clamped to min 1");
                let report = handle.wait();
                assert_eq!(report.degrade, Some(applied));
                assert!(
                    report.result.conformations_minimized > 0,
                    "degraded jobs still produce results"
                );
            }
            verdict => panic!("expected degraded admission, got {}", verdict.name()),
        }
        service.shutdown();
    }

    #[test]
    fn untraced_service_keeps_slo_and_flight_disabled() {
        // The default path must not pay for observability: no SLO report, no
        // trace-loss, and reports still carry per-job latencies.
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(1))).build();
        let report =
            service.submit(request(&[ProbeType::Ethanol], "plain")).expect_admitted("ok").wait();
        assert!(report.latency_modeled_s >= 0.0);
        let stats = service.shutdown();
        assert!(stats.slo.classes.is_empty());
        assert_eq!(stats.slo.worst_state(), AlertState::Ok);
        assert_eq!(stats.metrics.gauge("ftmap_trace_dropped_events", &[]), Some(0.0));
    }

    /// The bits a mapping result carries: sites, pose centres, conformation
    /// count (`Debug` prints every `f64` round-trip exactly).
    fn result_bits(result: &ftmap_core::MappingResult) -> String {
        format!("{:?}", (&result.sites, &result.pose_centers, result.conformations_minimized))
    }

    /// Maps each request through one batch of a service and checks that it
    /// was one batch and that every job's result is its one-shot
    /// `FtMapPipeline::map`'s, bit for bit. Two blocker jobs on another
    /// receptor go first, one batch in flight at a time: while they run the
    /// requests queue up, so they form one batch. Returns the service.
    fn map_in_one_batch(requests: Vec<MappingRequest>) -> BatchMappingService {
        let one_shot: Vec<String> = requests
            .iter()
            .map(|req| {
                let pipeline =
                    FtMapPipeline::new(req.protein.clone(), req.ff.clone(), req.config.clone());
                result_bits(&pipeline.map(&req.library()))
            })
            .collect();
        let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
            .batch(BatchConfig { max_inflight_batches: 1, ..BatchConfig::default() })
            .build();
        let ff = ForceField::charmm_like();
        let other =
            SyntheticProtein::generate(&ProteinSpec { seed: 99, ..ProteinSpec::small_test() }, &ff);
        let blockers: Vec<_> = ["blocker-1", "blocker-2"]
            .map(|tag| {
                let mut blocker = request(&[ProbeType::Ethanol], tag);
                blocker.protein = other.clone();
                service.submit(blocker).expect_admitted("admitted")
            })
            .into();
        let handles: Vec<_> = requests
            .into_iter()
            .map(|req| service.submit(req).expect_admitted("admitted"))
            .collect();
        let reports: Vec<_> = handles.iter().map(JobHandle::wait).collect();
        blockers.iter().for_each(|blocker| drop(blocker.wait()));
        for (report, want) in reports.iter().zip(&one_shot) {
            assert!(Arc::ptr_eq(&report.batch, &reports[0].batch), "{}: not one batch", report.tag);
            assert_eq!(&result_bits(&report.result), want, "{}", report.tag);
        }
        service
    }

    /// Runs `check` on the memo entry for `request`'s fingerprint.
    fn with_memo_entry(
        service: &BatchMappingService,
        request: &MappingRequest,
        check: impl FnOnce(&ReceptorMemo),
    ) {
        let memo = locked(&service.shared.grids);
        let fingerprint = request.receptor_fingerprint();
        check(memo.iter().find(|entry| entry.fingerprint == fingerprint).expect("memoized"));
    }

    #[test]
    fn a_batch_on_one_receptor_builds_one_receptor_half() {
        let probes = [ProbeType::Ethanol, ProbeType::Acetone, ProbeType::Urea, ProbeType::Benzene];
        let requests: Vec<_> = probes.iter().map(|&p| request(&[p], p.name())).collect();
        let anchor = requests[0].clone();
        let service = map_in_one_batch(requests.clone());
        with_memo_entry(&service, &anchor, |entry| {
            assert!(entry.half.get().is_some(), "built by the batch's poses");
            for request in &requests {
                assert!(Arc::ptr_eq(&entry.half, &entry.half_for(request)), "four jobs, one half");
            }
        });
        service.shutdown();
    }

    #[test]
    fn jobs_that_differ_only_in_cutoff_share_a_batch_but_not_a_half() {
        // The fingerprint ignores the force field, so these two batch
        // together; the cutoff changes the protein's neighbor list, so the
        // cutoff-7 job gets a half of its own (one made for the cutoff-9
        // force field would make its minimizer panic), and each result is
        // its one-shot map's.
        let near = request(&[ProbeType::Ethanol], "cutoff-9");
        let mut far = request(&[ProbeType::Ethanol], "cutoff-7");
        far.ff.cutoff = 7.0;
        assert_eq!(near.receptor_fingerprint(), far.receptor_fingerprint());
        let service = map_in_one_batch(vec![near.clone(), far.clone()]);
        with_memo_entry(&service, &near, |entry| {
            assert_eq!(entry.ff, near.ff, "the memo's half is the first job's");
            assert!(entry.half.get().is_some());
            assert!(!Arc::ptr_eq(&entry.half, &entry.half_for(&far)));
        });
        service.shutdown();
    }

    #[test]
    fn receptor_memo_shares_a_half_only_between_equal_proteins_and_force_fields() {
        let base = request(&[ProbeType::Ethanol], "base");
        let memo = ReceptorMemo::new(base.receptor_fingerprint(), &base);
        // Other probes, tag and minimization settings share it.
        let mut sibling = request(&[ProbeType::Acetone, ProbeType::Urea], "sibling");
        sibling.config.conformations_per_probe = 5;
        assert!(Arc::ptr_eq(&memo.half, &memo.half_for(&sibling)));
        // A different cutoff, protein topology or atom parameter does not,
        // though none of them changes the fingerprint.
        let mut cutoff = base.clone();
        cutoff.ff.cutoff = 8.0;
        let mut topology = base.clone();
        topology.protein.topology = Topology::new(base.protein.atoms.len());
        let mut atom = base.clone();
        atom.protein.atoms[0].lj_eps *= 2.0;
        for other in [cutoff, topology, atom] {
            assert_eq!(other.receptor_fingerprint(), memo.fingerprint);
            let half = memo.half_for(&other);
            assert!(!Arc::ptr_eq(&memo.half, &half));
            assert!(!Arc::ptr_eq(&half, &memo.half_for(&other)), "each a fresh, unshared one");
        }
    }
}
