//! The traced run (`--trace 1`): the same workload again, with benchmark-side
//! spans around the calls into each layer, the request stream replayed
//! through a service with `ftmap-trace`'s `Recorder` attached, and the
//! per-layer microbenches — everything `BENCHMARK.json` lists under
//! `per_layer`.
//!
//! The window is split into phases so the whole run takes about as long as an
//! untraced one: untraced rounds (the baseline the span and recorder overheads
//! are measured against, and the source of the `host.*` figures), spanned
//! rounds, recorder-attached rounds, then the microbenches.

use crate::alloc;
use crate::clock::{fastest_of, fastest_prepared, Tick};
use crate::fixture::{MapJob, ServeFixture};
use crate::host;
use crate::layers::{self, REPS};
use crate::metrics::{LayerValues, BREAKDOWN};
use crate::rounds::{map_spanned, requests, round_walls, serve_round, window, RoundRecord};
use crate::run::{
    prepare, report_checks, table1_at_scale, verify_rounds, Check, Fixture, Prepared, RunOutput,
};
use crate::spans::{self_times, Spans};
use crate::stats::{fastest, mean, percentile};
use crate::workload::{JobKind, JobSpec, Workload};
use ftmap_serve::{BatchMappingService, ServeStats};
use ftmap_trace::recorder::resolve;
use ftmap_trace::{
    analyze_all, build_request_trees, export_chrome_trace, Category, Recorder, TraceEvent,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Share of `--seconds` spent on untraced rounds.
const UNTRACED_SHARE: f64 = 0.30;
/// Share of `--seconds` spent on spanned rounds.
const SPANNED_SHARE: f64 = 0.25;
/// Share of `--seconds` `serve_mix` spends on recorder-attached rounds.
const RECORDER_SHARE: f64 = 0.15;
/// Rounds a closed-loop workload replays through the service, per sink.
const PROBE_ROUNDS: usize = 5;
/// Span-attributed one-shot maps of a `serve_mix` job (its rounds run inside
/// the service's threads, where benchmark-side spans cannot reach).
const ATTRIBUTION_MAPS: usize = 10;
/// A generator starting a round later than this found the previous round
/// still draining (or the box stalled): the round started with a backlog.
const BACKLOG_LATE_S: f64 = 1e-3;

/// The `host.*` figures and the simulator's slow-down factor, from the
/// untraced phase.
struct HostPhase {
    records: Vec<RoundRecord>,
    cpu_user_s: f64,
    cpu_sys_s: f64,
    alloc_calls: u64,
}

fn untraced_phase(fixture: &Fixture, seconds: f64) -> HostPhase {
    let (user0, sys0) = host::cpu_s();
    let alloc0 = alloc::snapshot();
    let mut off = Spans::new(false);
    let records = window(seconds, fixture.period_s(), |k, due| fixture.round(k, due, &mut off));
    let (user1, sys1) = host::cpu_s();
    HostPhase {
        records,
        cpu_user_s: user1 - user0,
        cpu_sys_s: sys1 - sys0,
        alloc_calls: alloc::snapshot().calls - alloc0.calls,
    }
}

fn spanned_phase(fixture: &Fixture, seconds: f64, spans: &mut Spans) -> Vec<RoundRecord> {
    window(seconds, fixture.period_s(), |k, due| {
        spans.set_request(k as u64);
        fixture.round(k, due, spans)
    })
}

/// Self-time shares of the `map` call tree: `(dock, minimize, cluster,
/// unattributed)` as fractions of the root spans' total, plus the fastest
/// single dock span and minimize span (seconds).
struct Attribution {
    shares: [f64; 4],
    dock_best_s: f64,
    minimize_best_s: f64,
}

fn attribution(spans: &Spans) -> Attribution {
    let recorded = spans.spans();
    let totals = self_times(recorded);
    let get = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let parts = [
        get("ftmap-core.dock_probe_shard"),
        get("ftmap-core.minimize_pose_block"),
        get("ftmap-core.cluster_poses"),
        get("request.map"),
    ];
    let total = parts.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let best = |name: &str| {
        fastest(
            &recorded
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_s - s.start_s)
                .collect::<Vec<_>>(),
        )
    };
    Attribution {
        shares: parts.map(|p| p / total),
        dock_best_s: best("ftmap-core.dock_probe_shard"),
        minimize_best_s: best("ftmap-core.minimize_pose_block"),
    }
}

/// What replaying the workload through a service measured, per sink.
struct ServiceProbe {
    noop_records: Vec<RoundRecord>,
    noop_stats: ServeStats,
    estimate_s: f64,
    fingerprint_s: f64,
    stats_snapshot_s: f64,
    recorder_records: Vec<RoundRecord>,
    recorder_jobs: usize,
    raw_events: Vec<TraceEvent>,
}

/// Times the calls that need a running, calibrated service.
fn service_calls(service: &BatchMappingService, fx: &ServeFixture) -> (f64, f64, f64) {
    let request = &fx.rounds[0][0].1;
    (
        fastest_of(REPS, || service.estimate_request(request)),
        fastest_of(REPS, || request.receptor_fingerprint()),
        fastest_of(REPS, || service.stats()),
    )
}

fn closed_rounds(fx: &ServeFixture, n: usize) -> Vec<RoundRecord> {
    let mut off = Spans::new(false);
    (0..n).map(|k| serve_round(fx, k, Tick::now(), &mut off)).collect()
}

fn service_probe(
    workload: Workload,
    prepared: &Prepared,
    untraced: &[RoundRecord],
    seconds: f64,
) -> ServiceProbe {
    // The no-op-sink side: `serve_mix` already ran it (the untraced phase);
    // closed-loop workloads replay a few rounds through a fresh service.
    let probe_fixture;
    let (noop_fx, noop_records) = match &prepared.fixture {
        Fixture::Serve(fx) => (fx, untraced.to_vec()),
        Fixture::Map(_) => {
            probe_fixture =
                ServeFixture::cold(workload, &prepared.specs, &prepared.ff, ftmap_trace::noop());
            let records = closed_rounds(&probe_fixture, PROBE_ROUNDS);
            (&probe_fixture, records)
        }
    };
    let (estimate_s, fingerprint_s, stats_snapshot_s) = service_calls(&noop_fx.service, noop_fx);
    let noop_stats = noop_fx.service.stats();

    // The recorder side: same rounds, `Recorder` attached to every layer.
    let recorder = Arc::new(Recorder::new());
    let fx = ServeFixture::cold(workload, &prepared.specs, &prepared.ff, recorder.clone());
    let warm = closed_rounds(&fx, fx.rounds.len());
    let recorder_records = match workload {
        Workload::ServeMix => {
            let mut off = Spans::new(false);
            window(seconds * RECORDER_SHARE, prepared.fixture.period_s(), |k, due| {
                serve_round(&fx, k, due, &mut off)
            })
        }
        _ => closed_rounds(&fx, PROBE_ROUNDS),
    };
    let recorder_jobs = requests(&warm).count() + requests(&recorder_records).count();
    drop(fx); // joins the dispatcher: every event is recorded before the drain below
    ServiceProbe {
        noop_records,
        noop_stats,
        estimate_s,
        fingerprint_s,
        stats_snapshot_s,
        recorder_records,
        recorder_jobs,
        raw_events: recorder.drain_raw(),
    }
}

fn serve_metrics(v: &mut LayerValues, probe: &ServiceProbe) {
    let records = &probe.noop_records;
    let stats = &probe.noop_stats;
    let submit_best: Vec<f64> = records.iter().map(|r| r.submit_best_s).collect();
    v.set("ftmap-serve.submit.us", fastest(&submit_best) * 1e6);
    v.set("ftmap-serve.estimate_request.us", probe.estimate_s * 1e6);
    v.set("ftmap-serve.fingerprint.us", probe.fingerprint_s * 1e6);
    v.set("ftmap-serve.stats_snapshot.us", probe.stats_snapshot_s * 1e6);

    let batches: BTreeSet<usize> = requests(records).map(|q| q.batch_index).collect();
    let jobs = requests(records).count();
    v.set("ftmap-serve.batches", batches.len() as f64);
    v.set("ftmap-serve.jobs_per_batch_mean", jobs as f64 / batches.len().max(1) as f64);
    v.set("ftmap-serve.cache_hit_ratio", stats.cache().hit_rate());
    v.set("ftmap-serve.derived_hit_ratio", stats.derived_cache().hit_rate());
    v.set("ftmap-serve.cache_evictions", stats.cache().evictions as f64);
    let not_admitted: f64 = ["rejected", "degraded", "reprioritized"]
        .iter()
        .flat_map(|verdict| ["interactive", "bulk"].map(|class| (*verdict, class)))
        .filter_map(|(verdict, class)| {
            stats.metrics.counter(
                "ftmap_serve_admission_verdicts_total",
                &[("verdict", verdict), ("class", class)],
            )
        })
        .fold(0.0, |sum, count| sum + count);
    v.set("ftmap-serve.verdicts_not_admitted", not_admitted);

    let wall_of = |kind: JobKind| -> Vec<f64> {
        let of_kind: Vec<f64> =
            requests(records).filter(|q| q.kind == kind).map(|q| q.wall_s).collect();
        // Closed-loop workloads have no hot/cold split: report every request.
        if of_kind.is_empty() {
            requests(records).map(|q| q.wall_s).collect()
        } else {
            of_kind
        }
    };
    v.set("ftmap-serve.hot_job_wall_best_s", fastest(&wall_of(JobKind::Hot)));
    v.set("ftmap-serve.cold_job_wall_best_s", fastest(&wall_of(JobKind::Cold)));
    let modeled_of = |interactive: bool| -> Vec<f64> {
        requests(records)
            .filter(|q| q.interactive == interactive)
            .map(|q| q.latency_modeled_s)
            .collect()
    };
    v.set("ftmap-serve.interactive_modeled_p95_s", percentile(&modeled_of(true), 0.95));
    v.set("ftmap-serve.bulk_modeled_p95_s", percentile(&modeled_of(false), 0.95));
    v.set("ftmap-serve.round_drain_p50_s", percentile(&round_walls(records), 0.5));
    let late: Vec<f64> = records.iter().map(|r| r.late_s).collect();
    v.set("ftmap-serve.generator_late_p99_ms", percentile(&late, 0.99) * 1e3);
    let backlog = late.iter().filter(|l| **l > BACKLOG_LATE_S).count();
    v.set("ftmap-serve.rounds_with_backlog_frac", backlog as f64 / late.len().max(1) as f64);

    // Scheduler balance as the service saw it.
    let skew = stats.metrics.gauge("ftmap_serve_device_skew", &[]).unwrap_or(0.0);
    v.set("gpu-sim.sched.device_skew", skew);
    let mut seen = BTreeSet::new();
    let (saved, makespan) = requests(records)
        .filter(|q| seen.insert(q.batch_index))
        .fold((0.0, 0.0), |(s, m), q| (s + q.batch_overlap_saved_s, m + q.batch_makespan_s));
    v.set("gpu-sim.sched.overlap_saved_frac", if makespan > 0.0 { saved / makespan } else { 0.0 });
}

fn trace_metrics(v: &mut LayerValues, probe: &ServiceProbe, rotations_per_job: f64) {
    let raw = &probe.raw_events;
    let jobs = probe.recorder_jobs.max(1) as f64;
    let kevents = (raw.len() as f64 / 1e3).max(f64::MIN_POSITIVE);
    v.set("ftmap-trace.events_per_job", raw.len() as f64 / jobs);
    let resolve_s = fastest_prepared(REPS, || raw.clone(), resolve);
    v.set("ftmap-trace.events_resolve.us_per_kevent", resolve_s * 1e6 / kevents);
    let events = resolve(raw.clone());
    let trees_s = fastest_of(REPS, || build_request_trees(&events));
    v.set("ftmap-trace.build_trees.us_per_kevent", trees_s * 1e6 / kevents);
    let trees = build_request_trees(&events);
    let analyze_s = fastest_of(REPS, || analyze_all(&trees));
    v.set("ftmap-trace.analyze_all.us_per_request", analyze_s * 1e6 / trees.len().max(1) as f64);
    let export_s = fastest_of(REPS, || export_chrome_trace(&events));
    v.set("ftmap-trace.export_chrome.us_per_kevent", export_s * 1e6 / kevents);

    let noop_best = fastest(&round_walls(&probe.noop_records));
    let recorder_best = fastest(&round_walls(&probe.recorder_records));
    v.set("ftmap-trace.recorder_wall_overhead_frac", (recorder_best - noop_best) / noop_best);

    let analyses = analyze_all(&trees);
    let mut sums = [0.0; 10];
    for analysis in &analyses {
        for (sum, (_, value)) in sums.iter_mut().zip(analysis.breakdown.segments()) {
            *sum += value;
        }
    }
    let total = sums.iter().sum::<f64>();
    for (metric, sum) in BREAKDOWN.iter().zip(sums) {
        v.set(metric, if total > 0.0 { sum / total } else { 0.0 });
    }

    let kernels = events.iter().filter(|e| e.cat == Category::Kernel).count();
    v.set("gpu-sim.kernel_events_per_req", kernels as f64 / jobs);
    // Result bytes crossing the modeled link inside dock items (minimize
    // items carry a pose range; dock items do not).
    let download_bytes: f64 = events
        .iter()
        .filter(|e| e.cat == Category::Transfer && e.name == "download")
        .filter(|e| e.tags.pose_range.is_none())
        .flat_map(|e| e.tags.nums.iter().filter(|(k, _)| *k == "bytes").map(|(_, b)| *b))
        .sum();
    v.set("piper-dock.download_bytes_per_rotation", download_bytes / (jobs * rotations_per_job));
}

fn write_spans(workload: Workload, spans: &Spans) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "benchmark/target".to_string());
    let dir = std::path::Path::new(&dir).join("bench-out");
    let path = dir.join(format!("spans-{}.jsonl", workload.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json_lines()));
    match written {
        Ok(()) => eprintln!("{} spans written to {}", spans.spans().len(), path.display()),
        Err(error) => eprintln!("spans not written to {}: {error}", path.display()),
    }
}

/// Runs one layer's microbenches and says on stderr how long they took (the
/// traced run's time budget is mostly theirs).
fn timed_layer(layer: &str, microbenches: impl FnOnce()) {
    let start = Tick::now();
    microbenches();
    eprintln!("{layer} microbenches took {:.2} s", start.elapsed_s());
}

fn isolation_checks(workload: Workload, v: &LayerValues, checks: &mut Vec<Check>) {
    let get = |name: &str| v.get(name).expect("set before the isolation checks");
    let mut at_least = |name: &str, floor: f64| {
        let value = get(name);
        checks.push(Check::new(
            format!("{name} >= {floor}"),
            value >= floor,
            format!("{value:.4}"),
        ));
    };
    match workload {
        Workload::MapDirect | Workload::MapFft => at_least("ftmap-core.map.dock_wall_frac", 0.85),
        Workload::MapMinimize => at_least("ftmap-core.map.minimize_wall_frac", 0.85),
        Workload::ServeMix => {
            at_least("ftmap-serve.cache_evictions", 1.0);
            let ratio = get("ftmap-serve.cache_hit_ratio");
            checks.push(Check::new(
                "ftmap-serve.cache_hit_ratio strictly between 0 and 1",
                ratio > 0.0 && ratio < 1.0,
                format!("{ratio:.4}"),
            ));
        }
    }
    let mut at_most = |name: &str, ceiling: f64| {
        let value = get(name);
        checks.push(Check::new(
            format!("{name} <= {ceiling}"),
            value <= ceiling,
            format!("{value:.4}"),
        ));
    };
    if workload == Workload::ServeMix {
        // ≥ 95 % of rounds start on an idle service. How late the generator
        // ran (`generator_late_p99_ms`) is reported but not held to a limit:
        // over ~100 rounds its p99 is the single worst round, and one stall
        // of this shared box must not fail a run whose estimators (fastest
        // round, modeled clock) that stall cannot touch.
        at_most("ftmap-serve.rounds_with_backlog_frac", 0.05);
    } else {
        at_most("ftmap-core.map.unattributed_frac", 0.05);
    }
}

/// The `--trace 1` run.
pub fn per_layer(workload: Workload, seed: u64, seconds: f64) -> RunOutput {
    let mut checks = Vec::new();
    let mut v = LayerValues::new();
    let prepared = prepare(workload, seed, 1, &mut checks);
    let fixture = &prepared.fixture;
    let first_spec: &JobSpec = &prepared.specs[0][0];

    // Untraced rounds: the baseline, and the host.* figures.
    let phase = untraced_phase(fixture, seconds * UNTRACED_SHARE);
    let untraced = &phase.records;
    let (attempted_u, failed_u) =
        verify_rounds(workload, untraced, &prepared.expected, &mut checks);
    let n_requests = attempted_u.max(1) as f64;
    let untraced_best = fastest(&round_walls(untraced));
    v.set("host.rounds", untraced.len() as f64);
    v.set("host.round_wall_p50_s", percentile(&round_walls(untraced), 0.5));
    v.set("host.round_wall_p90_s", percentile(&round_walls(untraced), 0.9));
    v.set("host.req_per_wall_s_mean", n_requests / round_walls(untraced).iter().sum::<f64>());
    let cpu_s = phase.cpu_user_s + phase.cpu_sys_s;
    v.set("host.cpu_s_per_req", cpu_s / n_requests);
    v.set("host.sys_cpu_frac", if cpu_s > 0.0 { phase.cpu_sys_s / cpu_s } else { 0.0 });
    v.set("host.allocs_per_req", phase.alloc_calls as f64 / n_requests);
    let request_wall: Vec<f64> = requests(untraced).map(|q| q.wall_s).collect();
    let modeled: Vec<f64> = requests(untraced).map(|q| q.modeled_s).collect();
    v.set("gpu-sim.host_s_per_modeled_s", fastest(&request_wall) / mean(&modeled));

    // Spanned rounds: where a request's wall time goes, layer by layer.
    let mut spans = Spans::new(true);
    let spanned = spanned_phase(fixture, seconds * SPANNED_SHARE, &mut spans);
    let (attempted_s, failed_s) =
        verify_rounds(workload, &spanned, &prepared.expected, &mut checks);
    v.set(
        "host.span_overhead_frac",
        (fastest(&round_walls(&spanned)) - untraced_best) / untraced_best,
    );
    let attributed = match fixture {
        Fixture::Map(_) => attribution(&spans),
        Fixture::Serve(_) => {
            let job = MapJob::cold(first_spec, &prepared.ff);
            let mut one_shot = Spans::new(true);
            for _ in 0..ATTRIBUTION_MAPS {
                std::hint::black_box(map_spanned(&job, &mut one_shot));
            }
            attribution(&one_shot)
        }
    };
    let [dock, minimize, cluster, unattributed] = attributed.shares;
    v.set("ftmap-core.map.dock_wall_frac", dock);
    v.set("ftmap-core.map.minimize_wall_frac", minimize);
    v.set("ftmap-core.map.cluster_wall_frac", cluster);
    v.set("ftmap-core.map.unattributed_frac", unattributed);
    v.set("ftmap-core.dock_probe_shard.ms", attributed.dock_best_s * 1e3);
    let poses = first_spec.conformations.max(1) as f64;
    v.set("ftmap-core.minimize_pose_block.ms_per_pose", attributed.minimize_best_s * 1e3 / poses);
    v.set(
        "ftmap-core.pipeline_new.ms",
        fastest_of(REPS, || MapJob::cold(first_spec, &prepared.ff)) * 1e3,
    );
    write_spans(workload, &spans);

    // The request stream through a service, with and without a recorder.
    let probe = service_probe(workload, &prepared, untraced, seconds);
    for (side, records) in [("no-op", &probe.noop_records), ("recorder", &probe.recorder_records)] {
        let failed = requests(records).filter(|q| q.failed).count();
        checks.push(Check::new(
            format!("every job through the {side}-sink service resolved"),
            failed == 0,
            format!("{failed} failed of {}", requests(records).count()),
        ));
    }
    serve_metrics(&mut v, &probe);
    let rotations_per_job = (first_spec.n_rotations * first_spec.probes.len()) as f64;
    trace_metrics(&mut v, &probe, rotations_per_job);

    // Table 1 at this workload's scale: the components of `paper_err_log2`.
    let table1 = table1_at_scale(first_spec, &prepared.ff);
    v.set("piper-dock.table1_speedup.correlation", table1.speedup[0]);
    v.set("piper-dock.table1_speedup.accumulation", table1.speedup[1]);
    v.set("piper-dock.table1_speedup.scoring_filtering", table1.speedup[2]);
    v.set("piper-dock.table1_speedup.total", table1.speedup[3]);
    v.set("piper-dock.table1_err_log2_max", table1.err_log2_max);
    v.set("piper-dock.table1_rows_skipped", table1.rows_skipped as f64);

    timed_layer("ftmap-math", || layers::math(&mut v, seed));
    timed_layer("ftmap-molecule", || layers::molecule(&mut v, seed));
    timed_layer("gpu-sim", || layers::gpu_sim(&mut v));
    timed_layer("piper-dock", || layers::piper_dock(&mut v, seed));
    timed_layer("ftmap-energy", || layers::energy(&mut v, seed));
    timed_layer("ftmap-core", || layers::core_cluster(&mut v, seed));
    timed_layer("ftmap-serve", || layers::serve_structures(&mut v, seed));
    timed_layer("ftmap-trace", || layers::trace_sinks(&mut v));
    v.set("host.peak_rss_mib", host::peak_rss_mib());
    v.set("host.peak_live_mib", alloc::peak_live_bytes() as f64 / (1024.0 * 1024.0));

    isolation_checks(workload, &v, &mut checks);
    let correct = report_checks(&checks);
    RunOutput {
        correct,
        attempted: (attempted_u + attempted_s).max(1),
        failed: failed_u + failed_s,
        metrics: v.into_ordered(),
    }
}
