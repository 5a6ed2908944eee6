//! Round runners: one closed-loop `map_*` round, one service round, and the
//! fixed-length measured window built from them.

use crate::clock::{timed, Tick};
use crate::fixture::{fingerprint, submit, MapJob, ServeFixture};
use crate::spans::Spans;
use crate::workload::JobKind;
use ftmap_core::{cluster_poses, MappingProfile, MappingResult};

/// What one request of a round did.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Wall latency: the `map` call (`map_*`), or round due-time →
    /// `JobHandle::wait` return (service rounds).
    pub wall_s: f64,
    /// `MappingResult.profile.total_modeled_s()`.
    pub modeled_s: f64,
    /// Modeled latency: `JobReport.latency_modeled_s` through the service;
    /// equal to `modeled_s` for a closed-loop `map` on its own device.
    pub latency_modeled_s: f64,
    /// Bitwise fingerprint of the result (0 when the request failed).
    pub fingerprint: u64,
    /// Hot / cold / single, from the spec.
    pub kind: JobKind,
    /// Latency class was interactive.
    pub interactive: bool,
    /// Index of the service batch that carried the job (0 for `map_*`).
    pub batch_index: usize,
    /// Modeled seconds phase overlap saved in that batch.
    pub batch_overlap_saved_s: f64,
    /// Modeled makespan of that batch.
    pub batch_makespan_s: f64,
    /// The request was refused, panicked or never resolved.
    pub failed: bool,
}

/// What one round did.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Burst start → last request returned.
    pub wall_s: f64,
    /// How late the generator started the round (0 for closed loops).
    pub late_s: f64,
    /// Fastest `BatchMappingService::submit` call of the round (infinite for
    /// rounds that do not go through the service).
    pub submit_best_s: f64,
    /// Per request, in submission order.
    pub requests: Vec<RequestRecord>,
}

impl RoundRecord {
    /// Result fingerprints in submission order.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.requests.iter().map(|r| r.fingerprint).collect()
    }
}

impl RequestRecord {
    /// A request that was refused or never resolved.
    fn unresolved(kind: JobKind, interactive: bool, wall_s: f64) -> Self {
        RequestRecord {
            wall_s,
            modeled_s: 0.0,
            latency_modeled_s: 0.0,
            fingerprint: 0,
            kind,
            interactive,
            batch_index: 0,
            batch_overlap_saved_s: 0.0,
            batch_makespan_s: 0.0,
            failed: true,
        }
    }
}

/// One closed-loop round: `run` for every job, back to back.
fn closed_round(jobs: &[MapJob], mut run: impl FnMut(&MapJob) -> MappingResult) -> RoundRecord {
    let start = Tick::now();
    let requests = jobs
        .iter()
        .map(|job| {
            let (result, wall_s) = timed(|| run(job));
            let modeled_s = result.profile.total_modeled_s();
            RequestRecord {
                modeled_s,
                latency_modeled_s: modeled_s,
                fingerprint: fingerprint(&result),
                batch_makespan_s: modeled_s,
                failed: false,
                ..RequestRecord::unresolved(job.spec.kind, false, wall_s)
            }
        })
        .collect();
    RoundRecord { wall_s: start.elapsed_s(), late_s: 0.0, submit_best_s: f64::INFINITY, requests }
}

/// One closed-loop round: every job's `FtMapPipeline::map`, back to back.
pub fn map_round(jobs: &[MapJob]) -> RoundRecord {
    closed_round(jobs, MapJob::run)
}

/// Every request of `records`, in issue order.
pub fn requests(records: &[RoundRecord]) -> impl Iterator<Item = &RequestRecord> {
    records.iter().flat_map(|r| r.requests.iter())
}

/// The wall time of each round of `records`.
pub fn round_walls(records: &[RoundRecord]) -> Vec<f64> {
    records.iter().map(|r| r.wall_s).collect()
}

/// `FtMapPipeline::map` for the single-device modes, re-assembled from the
/// public per-phase entry points with a span around each call into a layer:
/// `dock_probe_shard` (piper-dock + gpu-sim launches) → `minimize_pose_block`
/// (ftmap-energy + ftmap-molecule + gpu-sim launches) per probe, then
/// `cluster_poses` (ftmap-core). Must reproduce `map`'s result bitwise — the
/// caller checks the fingerprint.
pub fn map_spanned(job: &MapJob, spans: &mut Spans) -> MappingResult {
    spans.scope("request.map", |spans| {
        let pipeline = &job.pipeline;
        pipeline.pool().reset_transfer_stats();
        let device = pipeline.pool().device(0);
        let mut profile = MappingProfile::default();
        let mut inputs = Vec::new();
        let mut conformations = 0;
        for probe in job.library.probes() {
            let docked = spans
                .scope("ftmap-core.dock_probe_shard", |_| pipeline.dock_probe_shard(probe, device));
            let retained = pipeline.retained_pose_count(&docked);
            let block = spans.scope("ftmap-core.minimize_pose_block", |_| {
                pipeline.minimize_pose_block(&docked, 0..retained, device)
            });
            let mut shard = docked.to_shard();
            shard.absorb(block);
            profile.merge(&shard.profile);
            conformations += shard.conformations;
            inputs.extend(shard.inputs);
        }
        let radius = pipeline.config().cluster_radius;
        let sites = spans.scope("ftmap-core.cluster_poses", |_| cluster_poses(&inputs, radius));
        let pose_centers = inputs.iter().map(|i| (i.probe, i.center)).collect();
        MappingResult { sites, conformations_minimized: conformations, profile, pose_centers }
    })
}

/// [`map_round`] through [`map_spanned`].
pub fn map_round_spanned(jobs: &[MapJob], spans: &mut Spans) -> RoundRecord {
    closed_round(jobs, |job| map_spanned(job, spans))
}

/// One service round: at `due`, the one client thread submits round
/// `variant`'s jobs as a burst, then waits on every handle in submission
/// order. Request latency runs from `due` (so a stall that delays the burst
/// is charged to the requests it delayed), the round's own wall time from the
/// moment the burst actually started.
pub fn serve_round(fx: &ServeFixture, variant: usize, due: Tick, spans: &mut Spans) -> RoundRecord {
    let specs = &fx.rounds[variant % fx.rounds.len()];
    let requests = fx.requests(variant);
    due.wait_until();
    let start = Tick::now();
    let late_s = start.since(due);
    spans.scope("request.round", |spans| {
        let submitted: Vec<_> = requests
            .into_iter()
            .map(|request| spans.scope("ftmap-serve.submit", |_| submit(&fx.service, request)))
            .collect();
        let records = submitted
            .iter()
            .zip(specs)
            .map(|(job, (spec, _))| {
                let report =
                    spans.scope("ftmap-serve.wait", |_| job.handle.as_ref().map(|h| h.wait()));
                let wall_s = Tick::now().since(due);
                let interactive = spec.class == ftmap_serve::LatencyClass::Interactive;
                let unresolved = RequestRecord::unresolved(spec.kind, interactive, wall_s);
                match report {
                    Some(report) => RequestRecord {
                        modeled_s: report.result.profile.total_modeled_s(),
                        latency_modeled_s: report.latency_modeled_s,
                        fingerprint: fingerprint(&report.result),
                        batch_index: report.batch.batch_index,
                        batch_overlap_saved_s: report.batch.overlap_saved_modeled_s,
                        batch_makespan_s: report.batch.makespan_modeled_s,
                        failed: report.degrade.is_some(),
                        ..unresolved
                    },
                    None => unresolved,
                }
            })
            .collect();
        let submit_best_s = submitted.iter().map(|job| job.submit_s).fold(f64::INFINITY, f64::min);
        RoundRecord { wall_s: start.elapsed_s(), late_s, submit_best_s, requests: records }
    })
}

/// Runs whole rounds for `seconds`: `round(k, due_k)` with `due_k` on a fixed
/// `period_s` grid (`period_s == 0` is a closed loop: every round is due the
/// moment the previous one returned). No round *starts* after the window
/// closes; the last one started always completes.
pub fn window(
    seconds: f64,
    period_s: f64,
    mut round: impl FnMut(usize, Tick) -> RoundRecord,
) -> Vec<RoundRecord> {
    let open = Tick::now();
    let mut records = Vec::new();
    loop {
        let k = records.len();
        let due = if period_s > 0.0 { open.plus_s(k as f64 * period_s) } else { Tick::now() };
        if due.since(open) >= seconds {
            return records;
        }
        records.push(round(k, due));
    }
}
