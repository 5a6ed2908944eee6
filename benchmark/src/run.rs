//! The untraced run: cold set-ups, warm-up, correctness references, the
//! measured window, and the end-to-end metrics taken from it.

use crate::alloc;
use crate::clock::Tick;
use crate::fixture::{fingerprint, MapJob, ServeFixture};
use crate::metrics::{Metric, END_TO_END};
use crate::paper::{self, Table1};
use crate::rounds::{
    map_round, map_round_spanned, requests, round_walls, serve_round, window, RoundRecord,
};
use crate::spans::Spans;
use crate::stats::{fastest, mean, percentile};
use crate::workload::{rounds, JobSpec, Workload};
use ftmap_core::FtMapPipeline;
use ftmap_molecule::{ForceField, Probe};
use piper_dock::{Docking, DockingEngineKind};

/// Fresh cold set-ups timed per run; `setup_s` is the fastest.
pub const SETUP_REPEATS: usize = 15;
/// Untimed warm rounds before the measured window opens.
pub const WARMUP_ROUNDS: usize = 3;
/// `serve_mix` burst period: a burst drains in under half of this on the
/// reference box, so ≥ 95 % of rounds start on an idle service and a late
/// generator means the box stalled, not that the service fell behind.
pub const SERVE_PERIOD_S: f64 = 0.075;

/// What the command prints as its last line.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every correctness and isolation check passed.
    pub correct: bool,
    /// Requests issued in the measured window.
    pub attempted: usize,
    /// Requests refused, panicked, unresolved or wrong.
    pub failed: usize,
    /// `(metric, value)`, in `BENCHMARK.json` order.
    pub metrics: Vec<(Metric, f64)>,
}

/// A named pass/fail check; failures are explained on stderr.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check that holds when `passed`.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Check { name: name.into(), passed, detail: detail.into() }
    }
}

/// Prints every check to stderr and returns whether all of them passed.
pub fn report_checks(checks: &[Check]) -> bool {
    for check in checks {
        let verdict = if check.passed { "ok  " } else { "FAIL" };
        eprintln!("check {verdict} {}: {}", check.name, check.detail);
    }
    checks.iter().all(|c| c.passed)
}

/// A workload after cold set-up: ready to run warm rounds.
pub enum Fixture {
    /// Closed-loop requests, each with its own pipeline.
    Map(Vec<MapJob>),
    /// Rounds through the batch service.
    Serve(ServeFixture),
}

impl Fixture {
    /// One cold set-up: generate proteins → pool → pipelines or service.
    pub fn cold(workload: Workload, specs: &[Vec<JobSpec>], ff: &ForceField) -> Fixture {
        match workload {
            Workload::ServeMix => {
                Fixture::Serve(ServeFixture::cold(workload, specs, ff, ftmap_trace::noop()))
            }
            _ => Fixture::Map(specs[0].iter().map(|spec| MapJob::cold(spec, ff)).collect()),
        }
    }

    /// One round, due now (closed loop) or at `due` (service). With `spans`
    /// recording, a closed-loop round runs the span-instrumented re-assembly
    /// of `map` instead of `map` itself.
    pub fn round(&self, variant: usize, due: Tick, spans: &mut Spans) -> RoundRecord {
        match self {
            Fixture::Map(jobs) if spans.enabled() => map_round_spanned(jobs, spans),
            Fixture::Map(jobs) => map_round(jobs),
            Fixture::Serve(fx) => serve_round(fx, variant, due, spans),
        }
    }

    /// The open-loop period (0 for closed loops).
    pub fn period_s(&self) -> f64 {
        match self {
            Fixture::Map(_) => 0.0,
            Fixture::Serve(_) => SERVE_PERIOD_S,
        }
    }

    /// Round variants the measured loop cycles through.
    pub fn variants(&self) -> usize {
        match self {
            Fixture::Map(_) => 1,
            Fixture::Serve(fx) => fx.rounds.len(),
        }
    }
}

/// Times `repeats` fresh cold set-ups, each followed by one cold round
/// (receptor grid build, first residency fill, FFT plan and receptor
/// transforms), and keeps the last fixture. Returns the samples too.
pub fn cold_setups(
    workload: Workload,
    specs: &[Vec<JobSpec>],
    ff: &ForceField,
    repeats: usize,
) -> (Fixture, Vec<f64>) {
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let start = Tick::now();
        let fixture = Fixture::cold(workload, specs, ff);
        let cold = fixture.round(0, Tick::now(), &mut Spans::new(false));
        samples.push(start.elapsed_s());
        std::hint::black_box(cold);
        last = Some(fixture);
    }
    (last.expect("at least one set-up ran"), samples)
}

/// The fingerprint a one-shot `FtMapPipeline::map` of `spec` produces on a
/// fresh single-device pool — the reference every service job is held to.
pub fn one_shot_fingerprint(spec: &JobSpec, ff: &ForceField) -> u64 {
    let pipeline = FtMapPipeline::new(spec.protein(ff), ff.clone(), spec.config());
    fingerprint(&pipeline.map(&spec.library(ff)))
}

/// The reference fingerprints of every round variant, by an independent
/// path: `serve_mix` jobs against a one-shot pipeline each, `map_fft`
/// against the `FftSerial` engine on the same request, the other `map_*`
/// workloads against a second, separately built pipeline.
pub fn references(workload: Workload, specs: &[Vec<JobSpec>], ff: &ForceField) -> Vec<Vec<u64>> {
    specs
        .iter()
        .map(|round| {
            round
                .iter()
                .map(|spec| match workload {
                    Workload::MapFft => one_shot_fingerprint(
                        &JobSpec { engine: DockingEngineKind::FftSerial, ..spec.clone() },
                        ff,
                    ),
                    _ => one_shot_fingerprint(spec, ff),
                })
                .collect()
        })
        .collect()
}

/// Table 1 at the workload's own scale: modeled `FftSerial` against modeled
/// `Gpu { batch: 8 }` step times for the first request's receptor, grid,
/// rotation count and first probe.
pub fn table1_at_scale(spec: &JobSpec, ff: &ForceField) -> Table1 {
    let protein = spec.protein(ff);
    let probe = Probe::new(spec.probes[0], ff);
    let modeled = |engine| {
        let config = JobSpec { engine, ..spec.clone() }.config().docking;
        Docking::new(&protein.atoms, config).run(&probe).modeled
    };
    paper::table1(
        &modeled(DockingEngineKind::FftSerial),
        &modeled(DockingEngineKind::Gpu { batch: 8 }),
    )
}

/// Warm-up rounds (one per variant at least), checked against `expected`.
pub fn warm_up(fixture: &Fixture, expected: &[Vec<u64>], checks: &mut Vec<Check>) {
    let n = WARMUP_ROUNDS.max(fixture.variants());
    for k in 0..n {
        let record = fixture.round(k, Tick::now(), &mut Spans::new(false));
        let want = &expected[k % expected.len()];
        checks.push(Check::new(
            format!("warm-up round {k} equals its independent reference bitwise"),
            &record.fingerprints() == want,
            format!("{:x?} vs {:x?}", record.fingerprints(), want),
        ));
    }
}

/// Counts requests of `records` that failed or whose result differs from the
/// warm-up reference, and (on closed loops) checks that the modeled seconds
/// of a request repeat exactly from round to round.
pub fn verify_rounds(
    workload: Workload,
    records: &[RoundRecord],
    expected: &[Vec<u64>],
    checks: &mut Vec<Check>,
) -> (usize, usize) {
    let mut attempted = 0;
    let mut failed = 0;
    for (k, record) in records.iter().enumerate() {
        let want = &expected[k % expected.len()];
        for (request, want) in record.requests.iter().zip(want) {
            attempted += 1;
            if request.failed || request.fingerprint != *want {
                failed += 1;
            }
        }
    }
    checks.push(Check::new(
        "every measured round equals the warm-up round bitwise",
        failed == 0,
        format!("{failed} of {attempted} requests failed or differed"),
    ));
    if workload != Workload::ServeMix {
        let modeled: Vec<f64> = requests(records).map(|q| q.modeled_s).collect();
        let first = modeled.first().copied().unwrap_or(0.0);
        let exact = modeled.iter().all(|m| m.to_bits() == first.to_bits());
        checks.push(Check::new(
            "modeled seconds per request identical across rounds",
            exact,
            format!("{first:.12e} s over {} requests", modeled.len()),
        ));
    }
    (attempted, failed)
}

/// Everything an untraced run prepared before its measured window.
pub struct Prepared {
    /// The force field every request uses.
    pub ff: ForceField,
    /// The workload's rounds.
    pub specs: Vec<Vec<JobSpec>>,
    /// The warm fixture.
    pub fixture: Fixture,
    /// Cold set-up samples, seconds.
    pub setup_samples: Vec<f64>,
    /// Reference fingerprints per round variant.
    pub expected: Vec<Vec<u64>>,
}

/// `setups` cold set-ups, references and warm-up for `workload` under `seed`.
pub fn prepare(workload: Workload, seed: u64, setups: usize, checks: &mut Vec<Check>) -> Prepared {
    let ff = ForceField::charmm_like();
    let specs = rounds(workload, seed);
    let (fixture, setup_samples) = cold_setups(workload, &specs, &ff, setups);
    let expected = references(workload, &specs, &ff);
    warm_up(&fixture, &expected, checks);
    Prepared { ff, specs, fixture, setup_samples, expected }
}

/// The `--trace 0` run.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> RunOutput {
    let mut checks = Vec::new();
    let prepared = prepare(workload, seed, SETUP_REPEATS, &mut checks);
    let table1 = table1_at_scale(&prepared.specs[0][0], &prepared.ff);

    let fixture = &prepared.fixture;
    let alloc_before = alloc::snapshot();
    let mut spans = Spans::new(false);
    let records = window(seconds, fixture.period_s(), |k, due| fixture.round(k, due, &mut spans));
    let alloc_after = alloc::snapshot();

    let (attempted, failed) = verify_rounds(workload, &records, &prepared.expected, &mut checks);
    let requests_per_round = prepared.specs[0].len() as f64;
    let round_wall = round_walls(&records);
    let modeled: Vec<f64> = requests(&records).map(|q| q.modeled_s).collect();
    let latency: Vec<f64> = requests(&records).map(|q| q.latency_modeled_s).collect();
    let alloc_mib = (alloc_after.bytes - alloc_before.bytes) as f64 / (1024.0 * 1024.0);
    eprintln!(
        "{}: {} rounds, fastest {:.6} s, p50 {:.6} s, p90 {:.6} s, {} requests",
        workload.name(),
        records.len(),
        fastest(&round_wall),
        percentile(&round_wall, 0.5),
        percentile(&round_wall, 0.9),
        attempted
    );

    let value = |name: &str| match name {
        "setup_s" => fastest(&prepared.setup_samples),
        "req_per_wall_s" => requests_per_round / fastest(&round_wall),
        "modeled_s_per_req" => mean(&modeled),
        "modeled_latency_p50_s" => percentile(&latency, 0.50),
        "modeled_latency_p95_s" => percentile(&latency, 0.95),
        "alloc_mib_per_req" => alloc_mib / attempted.max(1) as f64,
        "paper_err_log2" => table1.err_log2_mean,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let correct = report_checks(&checks);
    RunOutput {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: END_TO_END.iter().map(|metric| (*metric, value(metric.name))).collect(),
    }
}
