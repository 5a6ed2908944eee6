//! Serve-layer pipelining figure: what the cross-batch phased dispatcher and
//! latency classes buy over a two-phase-barrier, FIFO service.
//!
//! Two measurements on a 4 × Tesla C1060 pool, one receptor:
//!
//! 1. **Throughput** — a stream of single-probe bulk jobs (1 dock item, many
//!    pose blocks each; `max_batch_jobs: 1` so every job is its own batch).
//!    A barrier dispatcher would run batches serially, idling the pool at
//!    every phase boundary (a 1-probe dock phase busies 1 of 4 devices); the
//!    phased dispatcher fills those holes with the next batch's work. The
//!    comparator comes from the *same* run: each batch reports what its own
//!    items would have cost under a two-phase barrier (dock-phase makespan +
//!    minimize-phase makespan), and barriered batches run back to back. The
//!    figure is the ratio of total modeled span (Σ barrier equivalents ÷
//!    pipelined) — **CI-gated at ≥ 1.3×**.
//! 2. **Interactive latency under bulk load** — the same bulk stream with
//!    small interactive jobs submitted after it. FIFO baseline: interactive
//!    jobs carry `LatencyClass::Bulk`, so they wait out the whole queue.
//!    Priority run: `LatencyClass::Interactive`, so their batches overtake at
//!    item boundaries (aging-bounded). The figure is the ratio of the
//!    interactive jobs' p95 modeled latency (priority ÷ FIFO) — **CI-gated at
//!    ≤ 0.5×**.
//!
//! 3. **SLO-aware admission under overload** — the same bulk stream bursted
//!    at a deadline only the head of the queue can meet. Uncontrolled, the
//!    tail blows through the deadline; with the admission controller on
//!    (degrade + refuse), every admission is estimate-backed and the
//!    miss rate is **CI-gated at ≤ 0.5×** the uncontrolled rate while goodput
//!    stays **≥ 0.9×**.
//! 4. **Tenant fairness** — a hot tenant floods the queue ahead of a light
//!    tenant; weighted in-flight quotas interleave the light tenant's jobs
//!    instead of making them wait out the flood (**CI-gated at ≤ 0.8×** the
//!    unquoted light-tenant latency).
//!
//! Results are written to `BENCH_SERVE_PIPELINE.json` at the workspace root;
//! the committed snapshot is the bench-trend baseline (`bench_trend` fails CI
//! if a gated metric regresses > 15% against it).
//!
//! Run with: `cargo bench -p ftmap-bench --bench fig_serve_pipeline`
//! (`FTMAP_SERVE_PIPELINE_JOBS` scales the bulk-job count for local
//! experiments; CI runs the full default scale — the latency ratio depends
//! on queue depth, so the trend gate must compare like with like).

use ftmap_core::{DegradePolicy, FtMapConfig, PipelineMode};
use ftmap_molecule::{ForceField, ProbeType, ProteinSpec, SyntheticProtein};
use ftmap_serve::service::ClassLatency;
use ftmap_serve::{
    AdmissionConfig, AdmissionVerdict, BatchConfig, BatchMappingService, JobReport, LatencyClass,
    MappingRequest, ServeConfig, ServiceBuilder, TenantQuota,
};
use gpu_sim::sched::DevicePool;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Throughput gate: minimum pipelined-over-barrier modeled span ratio.
const MIN_PIPELINE_SPEEDUP: f64 = 1.3;
/// Latency gate: maximum priority-over-FIFO interactive p95 ratio.
const MAX_INTERACTIVE_P95_RATIO: f64 = 0.5;
/// Observability gate: maximum traced-over-untraced modeled span ratio.
/// Instrumentation feeds off the modeled timeline and must never perturb it —
/// a full recorder run and the default no-op-sink run are the same schedule,
/// so anything above 1% modeled drift means a hook started charging time.
/// The same ceiling covers the flight-recorder sink (ring buffer + SLO
/// engine + tail-sampled retention): the heaviest observability wiring the
/// service supports must still leave the schedule untouched.
const MAX_TRACE_OVERHEAD_RATIO: f64 = 1.01;

/// Admission gate: controlled deadline-miss rate over uncontrolled (the
/// SLO-aware controller must cut misses at least 2×).
const MAX_ADMISSION_MISS_RATIO: f64 = 0.5;
/// Admission gate: controlled over uncontrolled goodput (jobs per modeled
/// second) — admission control may cost at most 10% throughput.
const MIN_ADMISSION_THROUGHPUT_RATIO: f64 = 0.9;
/// Fairness gate: light-tenant mean latency under quotas over without — the
/// weighted quota must shield the light tenant from the hot tenant's flood.
const MAX_TENANT_FAIRNESS_RATIO: f64 = 0.8;

const DEVICES: usize = 4;

fn base_config() -> FtMapConfig {
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 2;
    config.conformations_per_probe = 8;
    config
}

/// A heavy bulk job: one probe, 8 retained poses — 1 dock item + 4 pose
/// blocks at `pose_block: 2`, so its dock phase busies 1 of 4 devices.
fn bulk_job(protein: &SyntheticProtein, ff: &ForceField, i: usize) -> MappingRequest {
    MappingRequest::new(protein.clone(), ff.clone(), vec![ProbeType::Ethanol], base_config())
        .with_tag(format!("bulk-{i}"))
}

/// A small interactive job: one probe, one pose.
fn interactive_job(
    protein: &SyntheticProtein,
    ff: &ForceField,
    i: usize,
    class: LatencyClass,
) -> MappingRequest {
    let mut config = base_config();
    config.conformations_per_probe = 1;
    MappingRequest::new(protein.clone(), ff.clone(), vec![ProbeType::Urea], config)
        .with_tag(format!("inter-{i}"))
        .with_class(class)
}

fn serve_config() -> ServeConfig {
    ServeConfig::with_batch(BatchConfig {
        max_batch_jobs: 1, // one job per batch: the batch stream the pipeline overlaps
        pose_block: 2,
        max_inflight_batches: 2,
        bulk_aging: 4,
    })
}

struct RunOutcome {
    reports: Vec<Arc<JobReport>>,
    span_modeled_s: f64,
    /// What the same batches would have taken barriered and back to back:
    /// Σ over distinct batches of (span + what phase overlap saved).
    barrier_span_modeled_s: f64,
    cross_batch_overlap_s: f64,
    wall_s: f64,
}

/// Runs `jobs` through a fresh service (fresh pool) and collects the modeled
/// figures. The builder installs the no-op trace sink by default, so this is
/// the untraced baseline the overhead gate compares against.
fn run(jobs: Vec<MappingRequest>) -> RunOutcome {
    run_with(jobs, |builder| builder)
}

/// [`run`] with observability wired onto the builder by `wire` — a trace
/// sink, SLOs, the tail-sampling flight recorder.
fn run_with(
    jobs: Vec<MappingRequest>,
    wire: impl FnOnce(ServiceBuilder) -> ServiceBuilder,
) -> RunOutcome {
    let pool = Arc::new(DevicePool::tesla(DEVICES));
    let service = wire(BatchMappingService::builder(pool).config(serve_config())).build();
    let start = Instant::now();
    let handles: Vec<_> =
        jobs.into_iter().map(|r| service.submit(r).expect_admitted("admitted")).collect();
    let reports: Vec<Arc<JobReport>> = handles.iter().map(|h| h.wait()).collect();
    let wall_s = start.elapsed().as_secs_f64();
    let stats = service.shutdown();
    let barrier_by_batch: BTreeMap<usize, f64> = reports
        .iter()
        .map(|r| {
            (r.batch.batch_index, r.batch.makespan_modeled_s + r.batch.overlap_saved_modeled_s)
        })
        .collect();
    RunOutcome {
        reports,
        span_modeled_s: stats.span_modeled_s,
        barrier_span_modeled_s: barrier_by_batch.values().sum(),
        cross_batch_overlap_s: stats.cross_batch_overlap_modeled_s,
        wall_s,
    }
}

/// One overload run for the admission figure: two warmup jobs calibrate the
/// cost model (and warm the residency cache) outside the measurement, then
/// `n_burst` heavy bulk jobs arrive back to back against the live backlog.
struct AdmissionRun {
    /// Reports of the jobs that were admitted (possibly degraded or
    /// reprioritized) — the population the miss rate is computed over.
    reports: Vec<Arc<JobReport>>,
    degraded: usize,
    reprioritized: usize,
    rejected: usize,
}

impl AdmissionRun {
    /// Admission-to-completion span of the burst on the virtual timeline.
    fn burst_span_s(&self) -> f64 {
        let start = self.reports.iter().map(|r| r.admitted_modeled_s).fold(f64::INFINITY, f64::min);
        let end = self.reports.iter().map(|r| r.batch.completed_modeled_s).fold(0.0f64, f64::max);
        (end - start).max(1e-12)
    }

    /// Completed jobs per modeled second of the burst (goodput).
    fn throughput(&self) -> f64 {
        self.reports.len() as f64 / self.burst_span_s()
    }

    /// Fraction of admitted jobs whose realized modeled latency exceeded
    /// `deadline_s`.
    fn miss_rate(&self, deadline_s: f64) -> f64 {
        let missed = self.reports.iter().filter(|r| r.latency_modeled_s > deadline_s).count();
        missed as f64 / (self.reports.len() as f64).max(1.0)
    }
}

fn run_admission(
    admission: AdmissionConfig,
    protein: &SyntheticProtein,
    ff: &ForceField,
    n_burst: usize,
) -> AdmissionRun {
    let pool = Arc::new(DevicePool::tesla(DEVICES));
    let service =
        BatchMappingService::builder(pool).config(serve_config()).admission(admission).build();
    for i in 0..2 {
        let job = bulk_job(protein, ff, i).with_tag(format!("warm-{i}"));
        service.submit(job).expect_admitted("warmup admitted").wait();
    }
    let mut handles = Vec::new();
    let (mut degraded, mut reprioritized, mut rejected) = (0usize, 0usize, 0usize);
    for i in 0..n_burst {
        match service.submit(bulk_job(protein, ff, i)) {
            AdmissionVerdict::Admitted(handle) => handles.push(handle),
            AdmissionVerdict::Reprioritized { handle, .. } => {
                reprioritized += 1;
                handles.push(handle);
            }
            AdmissionVerdict::Degraded { handle, .. } => {
                degraded += 1;
                handles.push(handle);
            }
            AdmissionVerdict::Rejected { .. } => rejected += 1,
        }
    }
    let reports: Vec<Arc<JobReport>> = handles.iter().map(|h| h.wait()).collect();
    service.shutdown();
    AdmissionRun { reports, degraded, reprioritized, rejected }
}

/// One run of the tenant-fairness figure: the hot tenant floods the queue,
/// then the light tenant submits a couple of jobs behind it. Returns the
/// light tenant's mean modeled latency.
fn run_tenant_mix(admission: AdmissionConfig, protein: &SyntheticProtein, ff: &ForceField) -> f64 {
    let (n_hot, n_light) = (8usize, 2usize);
    let pool = Arc::new(DevicePool::tesla(DEVICES));
    let service =
        BatchMappingService::builder(pool).config(serve_config()).admission(admission).build();
    let mut handles = Vec::new();
    for i in 0..n_hot {
        let job = bulk_job(protein, ff, i).with_tag(format!("hot-{i}")).with_tenant("hot");
        handles.push(service.submit(job).expect_admitted("hot admitted"));
    }
    for i in 0..n_light {
        let job = bulk_job(protein, ff, i).with_tag(format!("light-{i}")).with_tenant("light");
        handles.push(service.submit(job).expect_admitted("light admitted"));
    }
    let reports: Vec<Arc<JobReport>> = handles.iter().map(|h| h.wait()).collect();
    service.shutdown();
    let light: Vec<f64> = reports
        .iter()
        .filter(|r| r.tag.starts_with("light-"))
        .map(|r| r.latency_modeled_s)
        .collect();
    light.iter().sum::<f64>() / light.len() as f64
}

/// p95 of the tagged jobs' modeled batch latencies — through the service's
/// own [`ClassLatency`] summary, so the gate measures exactly the percentile
/// definition `ServeStats` reports.
fn p95_latency(reports: &[Arc<JobReport>], tag_prefix: &str) -> f64 {
    let latencies: Vec<f64> = reports
        .iter()
        .filter(|r| r.tag.starts_with(tag_prefix))
        .map(|r| r.batch.latency_modeled_s)
        .collect();
    assert!(!latencies.is_empty(), "no jobs tagged {tag_prefix}*");
    ClassLatency::from_samples(&latencies).p95_s
}

fn main() {
    let n_bulk: usize = std::env::var("FTMAP_SERVE_PIPELINE_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|n: usize| n.clamp(4, 64))
        .unwrap_or(8);
    let n_interactive = 4usize;
    println!(
        "fig_serve_pipeline: {n_bulk} bulk + {n_interactive} interactive jobs, \
         1 receptor, {DEVICES} x Tesla C1060, pose_block 2, 1 job/batch"
    );

    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let bulk_jobs =
        |n: usize| -> Vec<MappingRequest> { (0..n).map(|i| bulk_job(&protein, &ff, i)).collect() };

    // --- 1. Throughput: bulk stream, pipelined span vs the barrier
    // equivalent of the same batches.
    let pipelined = run(bulk_jobs(n_bulk));
    let speedup = pipelined.barrier_span_modeled_s / pipelined.span_modeled_s.max(1e-12);
    println!(
        "\nmodeled span: {:.3} ms pipelined ({:.3} ms of cross-batch overlap, {:.0} ms wall) \
         vs {:.3} ms for the same batches barriered back to back",
        1e3 * pipelined.span_modeled_s,
        1e3 * pipelined.cross_batch_overlap_s,
        1e3 * pipelined.wall_s,
        1e3 * pipelined.barrier_span_modeled_s,
    );
    println!("pipelined throughput speedup: {speedup:.2}x");
    assert!(pipelined.cross_batch_overlap_s > 0.0, "pipelining must overlap batches");

    // --- Observability overhead: the same pipelined stream with a full
    // trace recorder attached. Tracing reads the modeled timeline, it never
    // writes it — the traced span must equal the no-op-sink span.
    let recorder = Arc::new(ftmap_trace::Recorder::new());
    let traced = run_with(bulk_jobs(n_bulk), |builder| {
        builder.trace(Arc::clone(&recorder) as Arc<dyn ftmap_trace::TraceSink>)
    });
    let trace_events = recorder.events().len();
    let trace_overhead = traced.span_modeled_s / pipelined.span_modeled_s.max(1e-12);
    println!(
        "\ntraced rerun: {:.3} ms modeled span over {} trace events \
         ({:.4}x the untraced span)",
        1e3 * traced.span_modeled_s,
        trace_events,
        trace_overhead
    );
    assert!(trace_events > 0, "the recorder run must capture events");

    // --- Flight recorder: the heaviest observability wiring — bounded ring
    // sink + per-job SLO evaluation + tail-sampled tree retention (an
    // unmeetable 0 s bulk target makes every request breach, so retention is
    // exercised on every job). Same schedule, same gate.
    let flight = Arc::new(ftmap_trace::FlightRecorder::new());
    let flight_run = run_with(bulk_jobs(n_bulk), |builder| {
        builder.flight_recorder(Arc::clone(&flight)).slos(vec![ftmap_trace::SloSpec::new(
            LatencyClass::Bulk.name(),
            0.0,
            0.99,
        )])
    });
    let flight_retained = flight.retained_total();
    let flight_overhead = flight_run.span_modeled_s / pipelined.span_modeled_s.max(1e-12);
    println!(
        "flight rerun: {:.3} ms modeled span, {} ring events, {} retained trees \
         ({:.4}x the untraced span)",
        1e3 * flight_run.span_modeled_s,
        flight.ring_len(),
        flight_retained,
        flight_overhead
    );
    assert!(flight.ring_len() > 0, "the flight ring must capture events");
    assert!(
        flight_retained as usize == n_bulk,
        "the unmeetable SLO must retain every request's tree"
    );

    // --- 2. Interactive latency under bulk load: FIFO vs priority classes.
    let mixed = |class: LatencyClass| -> Vec<MappingRequest> {
        let mut jobs = bulk_jobs(n_bulk);
        jobs.extend((0..n_interactive).map(|i| interactive_job(&protein, &ff, i, class)));
        jobs
    };
    let fifo = run(mixed(LatencyClass::Bulk));
    let classed = run(mixed(LatencyClass::Interactive));
    let fifo_p95 = p95_latency(&fifo.reports, "inter-");
    let classed_p95 = p95_latency(&classed.reports, "inter-");
    let latency_ratio = classed_p95 / fifo_p95.max(1e-12);
    println!(
        "\ninteractive p95 modeled latency: FIFO {:.3} ms, priority {:.3} ms ({:.2}x)",
        1e3 * fifo_p95,
        1e3 * classed_p95,
        latency_ratio
    );

    // --- 3. SLO-aware admission under overload: the same heavy bulk stream,
    // bursted at a service whose deadline only the head of the queue can
    // meet. Uncontrolled, every job is admitted and the tail blows through
    // the deadline; controlled, the admission controller estimates each
    // request against the live backlog and degrades (fewer rotations /
    // conformations) or refuses the ones that cannot make it.
    let n_burst = n_bulk;
    let uncontrolled = run_admission(AdmissionConfig::default(), &protein, &ff, n_burst);
    let mut realized: Vec<f64> = uncontrolled.reports.iter().map(|r| r.latency_modeled_s).collect();
    realized.sort_by(f64::total_cmp);
    // The overload deadline: rank ~40% of the uncontrolled burst latencies,
    // so the majority of the uncontrolled burst misses it.
    let deadline_s = realized[(realized.len() * 2 / 5).min(realized.len() - 1)];
    let uncontrolled_miss = uncontrolled.miss_rate(deadline_s);
    let controlled = run_admission(
        AdmissionConfig {
            bulk_deadline_s: Some(deadline_s),
            degrade: Some(DegradePolicy {
                rotation_factor: 0.5,
                min_rotations: 1,
                conformation_factor: 0.5,
                min_conformations: 1,
            }),
            // Reprioritizing a bulk-only burst would let late arrivals
            // overtake already-admitted jobs and invalidate their
            // admission-time estimates; degrade/refuse keeps every admitted
            // estimate structurally honest.
            reprioritize: false,
            ..AdmissionConfig::default()
        },
        &protein,
        &ff,
        n_burst,
    );
    let controlled_miss = controlled.miss_rate(deadline_s);
    let miss_ratio = controlled_miss / uncontrolled_miss.max(1e-12);
    let admission_throughput_ratio = controlled.throughput() / uncontrolled.throughput().max(1e-12);
    println!(
        "\nadmission under overload (deadline {:.3} ms): uncontrolled miss {:.0}% over \
         {} jobs; controlled miss {:.0}% over {} admitted ({} degraded, {} reprioritized, \
         {} refused) — miss ratio {:.3}x, goodput ratio {:.3}x",
        1e3 * deadline_s,
        100.0 * uncontrolled_miss,
        uncontrolled.reports.len(),
        100.0 * controlled_miss,
        controlled.reports.len(),
        controlled.degraded,
        controlled.reprioritized,
        controlled.rejected,
        miss_ratio,
        admission_throughput_ratio,
    );
    assert!(uncontrolled_miss > 0.0, "the uncontrolled burst must overload the deadline");
    assert!(!controlled.reports.is_empty(), "the controller must admit part of the burst");
    // Structural invariant: everything the controller admitted, it admitted
    // because the live estimate fit the deadline.
    for report in &controlled.reports {
        let estimate = report.estimated_latency_s.expect("calibrated burst admissions estimate");
        let deadline = report.deadline_s.expect("burst jobs carry the bulk deadline");
        assert!(
            estimate <= deadline + 1e-9,
            "{}: admitted with estimate {estimate} above deadline {deadline}",
            report.tag
        );
    }

    // --- 4. Tenant fairness: a hot tenant floods the queue ahead of a light
    // tenant; weighted in-flight quotas let the light tenant's jobs interleave
    // instead of waiting out the whole flood.
    let unquoted_light_s = run_tenant_mix(AdmissionConfig::default(), &protein, &ff);
    let quota = AdmissionConfig {
        tenant_quotas: vec![
            TenantQuota { tenant: "hot".into(), weight: 1.0 },
            TenantQuota { tenant: "light".into(), weight: 1.0 },
        ],
        ..AdmissionConfig::default()
    };
    let quoted_light_s = run_tenant_mix(quota, &protein, &ff);
    let fairness_ratio = quoted_light_s / unquoted_light_s.max(1e-12);
    println!(
        "tenant fairness: light-tenant mean latency {:.3} ms unquoted vs {:.3} ms under \
         weighted quotas ({:.3}x)",
        1e3 * unquoted_light_s,
        1e3 * quoted_light_s,
        fairness_ratio,
    );

    let admission = AdmissionFigures {
        deadline_s,
        uncontrolled_miss,
        controlled_miss,
        miss_ratio,
        throughput_ratio: admission_throughput_ratio,
        degraded: controlled.degraded,
        reprioritized: controlled.reprioritized,
        rejected: controlled.rejected,
        unquoted_light_s,
        quoted_light_s,
        fairness_ratio,
    };
    let json = format_json(
        n_bulk,
        n_interactive,
        &pipelined,
        speedup,
        fifo_p95,
        classed_p95,
        latency_ratio,
        &traced,
        trace_events,
        trace_overhead,
        &flight_run,
        flight_retained,
        flight_overhead,
        &admission,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SERVE_PIPELINE.json");
    std::fs::write(path, json).expect("write BENCH_SERVE_PIPELINE.json");
    println!("wrote {path}");

    assert!(
        speedup >= MIN_PIPELINE_SPEEDUP,
        "REGRESSION: pipelined dispatch {speedup:.2}x over the barrier equivalent fell below the \
         {MIN_PIPELINE_SPEEDUP}x gate"
    );
    assert!(
        latency_ratio <= MAX_INTERACTIVE_P95_RATIO,
        "REGRESSION: interactive p95 under priority is {latency_ratio:.2}x FIFO, above the \
         {MAX_INTERACTIVE_P95_RATIO}x gate"
    );
    assert!(
        trace_overhead <= MAX_TRACE_OVERHEAD_RATIO,
        "REGRESSION: tracing inflated the modeled span {trace_overhead:.4}x, above the \
         {MAX_TRACE_OVERHEAD_RATIO}x gate — a hook is charging modeled time"
    );
    assert!(
        flight_overhead <= MAX_TRACE_OVERHEAD_RATIO,
        "REGRESSION: the flight-recorder sink (ring + SLO engine + retention) inflated the \
         modeled span {flight_overhead:.4}x, above the {MAX_TRACE_OVERHEAD_RATIO}x gate"
    );
    assert!(
        miss_ratio <= MAX_ADMISSION_MISS_RATIO,
        "REGRESSION: admission control left the deadline-miss rate at {miss_ratio:.2}x the \
         uncontrolled run, above the {MAX_ADMISSION_MISS_RATIO}x gate"
    );
    assert!(
        admission_throughput_ratio >= MIN_ADMISSION_THROUGHPUT_RATIO,
        "REGRESSION: admission control cost {admission_throughput_ratio:.2}x of the \
         uncontrolled goodput, below the {MIN_ADMISSION_THROUGHPUT_RATIO}x gate"
    );
    assert!(
        fairness_ratio <= MAX_TENANT_FAIRNESS_RATIO,
        "REGRESSION: weighted tenant quotas left the light tenant at {fairness_ratio:.2}x its \
         unquoted latency, above the {MAX_TENANT_FAIRNESS_RATIO}x gate"
    );
    println!(
        "gates ok: throughput {speedup:.2}x >= {MIN_PIPELINE_SPEEDUP}x, \
         interactive p95 {latency_ratio:.2}x <= {MAX_INTERACTIVE_P95_RATIO}x, \
         trace overhead {trace_overhead:.4}x <= {MAX_TRACE_OVERHEAD_RATIO}x, \
         flight overhead {flight_overhead:.4}x <= {MAX_TRACE_OVERHEAD_RATIO}x, \
         admission miss {miss_ratio:.2}x <= {MAX_ADMISSION_MISS_RATIO}x at goodput \
         {admission_throughput_ratio:.2}x >= {MIN_ADMISSION_THROUGHPUT_RATIO}x, \
         tenant fairness {fairness_ratio:.2}x <= {MAX_TENANT_FAIRNESS_RATIO}x"
    );
}

/// The admission-control and tenant-fairness figures, bundled for the JSON
/// formatter.
struct AdmissionFigures {
    deadline_s: f64,
    uncontrolled_miss: f64,
    controlled_miss: f64,
    miss_ratio: f64,
    throughput_ratio: f64,
    degraded: usize,
    reprioritized: usize,
    rejected: usize,
    unquoted_light_s: f64,
    quoted_light_s: f64,
    fairness_ratio: f64,
}

// lint-allow(justified-allows): the JSON row simply has this many fields;
// a one-use builder struct would double the code for a bench formatter.
#[allow(clippy::too_many_arguments)]
fn format_json(
    n_bulk: usize,
    n_interactive: usize,
    pipelined: &RunOutcome,
    speedup: f64,
    fifo_p95: f64,
    classed_p95: f64,
    latency_ratio: f64,
    traced: &RunOutcome,
    trace_events: usize,
    trace_overhead: f64,
    flight_run: &RunOutcome,
    flight_retained: u64,
    flight_overhead: f64,
    admission: &AdmissionFigures,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"figure\": \"serve-layer pipelining: cross-batch phase overlap + latency classes\",\n",
    );
    out.push_str(&format!(
        "  \"workload\": \"{n_bulk} bulk jobs (1 probe x 8 poses) + {n_interactive} interactive \
         jobs (1 probe x 1 pose), one receptor, {DEVICES} x Tesla C1060, pose_block 2, \
         max_batch_jobs 1\",\n"
    ));
    out.push_str(
        "  \"model\": \"virtual-timeline span over the pool (gpu_sim::sched::PhasePipeline); \
         the barrier span is the same run's batches back to back, each at its dock-phase + \
         minimize-phase makespan (BatchReport::barrier_equivalent_s)\",\n",
    );
    out.push_str("  \"throughput\": {\n");
    out.push_str(&format!(
        "    \"barrier_span_ms\": {:.4},\n    \"pipelined_span_ms\": {:.4},\n    \
         \"cross_batch_overlap_ms\": {:.4},\n    \"speedup\": {:.4}\n  }},\n",
        1e3 * pipelined.barrier_span_modeled_s,
        1e3 * pipelined.span_modeled_s,
        1e3 * pipelined.cross_batch_overlap_s,
        speedup
    ));
    out.push_str("  \"interactive_latency\": {\n");
    out.push_str(&format!(
        "    \"fifo_p95_ms\": {:.4},\n    \"priority_p95_ms\": {:.4},\n    \
         \"priority_over_fifo\": {:.4}\n  }},\n",
        1e3 * fifo_p95,
        1e3 * classed_p95,
        latency_ratio
    ));
    out.push_str("  \"trace_overhead\": {\n");
    out.push_str(&format!(
        "    \"noop_span_ms\": {:.4},\n    \"traced_span_ms\": {:.4},\n    \
         \"trace_events\": {trace_events},\n    \"traced_over_noop\": {trace_overhead:.4},\n    \
         \"flight_span_ms\": {:.4},\n    \"flight_retained_requests\": {flight_retained},\n    \
         \"flight_over_noop\": {flight_overhead:.4}\n  }},\n",
        1e3 * pipelined.span_modeled_s,
        1e3 * traced.span_modeled_s,
        1e3 * flight_run.span_modeled_s,
    ));
    out.push_str("  \"admission_control\": {\n");
    out.push_str(&format!(
        "    \"deadline_ms\": {:.4},\n    \"uncontrolled_miss_rate\": {:.4},\n    \
         \"controlled_miss_rate\": {:.4},\n    \"degraded\": {},\n    \"reprioritized\": {},\n    \
         \"rejected\": {},\n    \"goodput_ratio\": {:.4}\n  }},\n",
        1e3 * admission.deadline_s,
        admission.uncontrolled_miss,
        admission.controlled_miss,
        admission.degraded,
        admission.reprioritized,
        admission.rejected,
        admission.throughput_ratio,
    ));
    out.push_str("  \"fairness\": {\n");
    out.push_str(&format!(
        "    \"light_tenant_unquoted_ms\": {:.4},\n    \"light_tenant_quoted_ms\": {:.4}\n  }},\n",
        1e3 * admission.unquoted_light_s,
        1e3 * admission.quoted_light_s,
    ));
    out.push_str(&format!(
        "  \"gates\": {{\n    \"pipelined_speedup\": {{ \"metric\": \"barrier span over \
         pipelined span\", \"minimum\": {MIN_PIPELINE_SPEEDUP:.1}, \"measured\": {speedup:.4} \
         }},\n    \"interactive_p95\": {{ \"metric\": \"priority p95 over FIFO p95\", \
         \"maximum\": {MAX_INTERACTIVE_P95_RATIO:.1}, \"measured\": {latency_ratio:.4} }},\n    \
         \"noop_trace_overhead\": {{ \"metric\": \"traced span over no-op-sink span\", \
         \"maximum\": {MAX_TRACE_OVERHEAD_RATIO:.2}, \"measured\": {trace_overhead:.4} }},\n    \
         \"flight_trace_overhead\": {{ \"metric\": \"flight-recorder-sink span over no-op-sink \
         span\", \"maximum\": {MAX_TRACE_OVERHEAD_RATIO:.2}, \"measured\": {flight_overhead:.4} \
         }},\n    \"admission_miss\": {{ \"metric\": \"controlled deadline-miss rate over \
         uncontrolled\", \"maximum\": {MAX_ADMISSION_MISS_RATIO:.1}, \"measured\": {:.4} }},\n    \
         \"admission_goodput\": {{ \"metric\": \"controlled goodput over uncontrolled\", \
         \"minimum\": {MIN_ADMISSION_THROUGHPUT_RATIO:.1}, \"measured\": {:.4} }},\n    \
         \"tenant_fairness\": {{ \"metric\": \"light-tenant mean latency, quoted over \
         unquoted\", \"maximum\": {MAX_TENANT_FAIRNESS_RATIO:.1}, \"measured\": {:.4} \
         }}\n  }}\n",
        admission.miss_ratio, admission.throughput_ratio, admission.fairness_ratio,
    ));
    out.push_str("}\n");
    out
}
