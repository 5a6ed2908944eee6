//! The observability acceptance gates: a traced run's timeline is not a
//! parallel bookkeeping system but the *same* modeled numbers the profiles
//! and reports carry, viewed per event.
//!
//! * A pipelined mapping run traced through `map_pipelined_traced` must
//!   reconstruct, from its per-device item spans alone, the per-device busy
//!   seconds, stream-overlap savings, and makespan that `MappingProfile` /
//!   `BatchReport` report — within floating-point rounding.
//! * A warm serve run traced through `BatchMappingService::builder(..).trace(..)` must
//!   produce a Perfetto-loadable export, and its metrics snapshot must agree
//!   with every `ServeStats` figure it mirrors (latency percentiles, cache
//!   hit ratios, job/batch counters).

use ftmap::prelude::*;
use ftmap::trace::json::{parse, JsonValue};
use ftmap::trace::{Anchor, Category, TraceEvent, Track};
use std::sync::Arc;

/// The scheduler's three-stage stream-overlap recurrence (upload, kernel,
/// download engines pipelining across consecutive ops), replayed from trace
/// data — deliberately re-derived here rather than imported, so the test
/// proves the *trace* carries enough to reproduce the model's numbers.
fn overlapped_s(ops: &[(f64, f64, f64)]) -> f64 {
    let (mut upload_free, mut kernel_free, mut download_free) = (0.0_f64, 0.0_f64, 0.0_f64);
    for (upload, kernel, download) in ops {
        upload_free += upload;
        kernel_free = kernel_free.max(upload_free) + kernel;
        download_free = download_free.max(kernel_free) + download;
    }
    download_free
}

/// Rebuilds one item's `StreamOp` from its anchored children: upload and
/// download seconds from the transfer spans inside the item's window, kernel
/// seconds from the `kernel_s` figure the item span carries.
fn op_of(item: &TraceEvent, events: &[TraceEvent]) -> (f64, f64, f64) {
    let inside = |e: &&TraceEvent| {
        e.track == item.track
            && e.start_s >= item.start_s - 1e-9
            && e.end_s() <= item.end_s() + 1e-9
    };
    let transfer = |name: &str| -> f64 {
        events
            .iter()
            .filter(inside)
            .filter(|e| e.cat == Category::Transfer && e.name == name)
            .map(|e| e.dur_s)
            .sum()
    };
    let kernel_s = item
        .tags
        .nums
        .iter()
        .find(|(key, _)| *key == "kernel_s")
        .map(|(_, value)| *value)
        .expect("item spans carry kernel_s");
    (transfer("upload"), kernel_s, transfer("download"))
}

fn small_config() -> FtMapConfig {
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 2;
    config.conformations_per_probe = 2;
    config
}

#[test]
fn device_track_spans_reconstruct_profile_and_report_numbers() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let library = ProbeLibrary::subset(
        &ff,
        &[ProbeType::Ethanol, ProbeType::Acetone, ProbeType::Urea, ProbeType::Benzene],
    );
    let n_devices = 2;
    let pipeline =
        FtMapPipeline::with_pool(protein, ff, small_config(), DevicePool::tesla(n_devices));

    let recorder = Arc::new(Recorder::new());
    let result = pipeline.map_pipelined_traced(&library, Arc::clone(&recorder) as _);
    let events = recorder.events();
    assert!(!events.is_empty());

    let profile = &result.profile;
    let schedule = profile.schedule.as_ref().expect("sharded runs keep a schedule");
    assert_eq!(schedule.per_device.len(), n_devices);
    let (mut reconstructed_busy, mut reconstructed_saved) = (Vec::new(), 0.0);
    for (index, device) in schedule.per_device.iter().enumerate() {
        let track = Track::Device(index as u32);
        // The scheduler's item spans (dock/minimize) on this device's track,
        // already in start order — which on a serial device track is also the
        // order the scheduler fed its stream accounting.
        let items: Vec<_> = events
            .iter()
            .filter(|e| e.track == track && e.cat == Category::Sched && !e.is_instant())
            .filter(|e| matches!(e.anchor, Anchor::Defines(_)))
            .collect();
        assert!(!items.is_empty(), "device {index} ran items but traced none");
        // Item spans occupy the device's virtual timeline with the item's
        // serialized upload+kernel+download cost: their sum is exactly the
        // no-overlap busy figure the schedule reports.
        let serialized: f64 = items.iter().map(|e| e.dur_s).sum();
        let reported_serialized = device.dock.serialized_s + device.minimize.serialized_s;
        assert!(
            (serialized - reported_serialized).abs() < 1e-9,
            "device {index}: traced serialized {serialized} != schedule {reported_serialized}"
        );
        // Minimize items become runnable when their probe's dock lands; the
        // trace must never show one starting earlier.
        for item in &items {
            if let Some((_, ready)) = item.tags.nums.iter().find(|(key, _)| *key == "ready_v_s") {
                assert!(
                    item.start_s >= ready - 1e-9,
                    "item at {} starts before its ready instant {ready}",
                    item.start_s
                );
            }
        }
        // Replay the copy/compute overlap model from the trace alone: each
        // item's op rebuilt from its anchored transfer children, one stream
        // per phase, and the recurrence above. The result must land on the
        // overlapped busy seconds and overlap savings the schedule reports.
        let mut busy = 0.0;
        for phase in ["dock", "minimize"] {
            let ops: Vec<(f64, f64, f64)> = items
                .iter()
                .filter(|e| e.name == phase)
                .map(|item| {
                    let op = op_of(item, &events);
                    // Sanity: the rebuilt op serializes back to the item span.
                    assert!((op.0 + op.1 + op.2 - item.dur_s).abs() < 1e-9);
                    op
                })
                .collect();
            busy += overlapped_s(&ops);
        }
        assert!(
            (busy - device.busy_s()).abs() < 1e-9,
            "device {index}: reconstructed busy {busy} != schedule {}",
            device.busy_s()
        );
        assert!(
            (serialized - busy - device.overlap_saved_s()).abs() < 1e-9,
            "device {index}: reconstructed savings {} != schedule {}",
            serialized - busy,
            device.overlap_saved_s()
        );
        reconstructed_busy.push(busy);
        reconstructed_saved += serialized - busy;
    }
    // Pool-level figures follow: the profile's makespan is the busiest
    // device's overlapped time, its overlap total the sum of the savings.
    let makespan = reconstructed_busy.iter().copied().fold(0.0, f64::max);
    assert!(
        (makespan - profile.makespan_modeled_s()).abs() < 1e-9,
        "reconstructed makespan {makespan} != profile {}",
        profile.makespan_modeled_s()
    );
    assert!((reconstructed_saved - profile.overlap_saved_s()).abs() < 1e-9);

    // The batch lane carries the BatchReport numbers: its span must close at
    // the last item completion across all devices, and its duration is the
    // batch's reported modeled span.
    let batch_span = events
        .iter()
        .find(|e| matches!(e.track, Track::Batch(_)) && e.name == "batch")
        .expect("one batch span");
    let last_completion = events
        .iter()
        .filter(|e| matches!(e.track, Track::Device(_)) && e.cat == Category::Sched)
        .map(|e| e.end_s())
        .fold(0.0, f64::max);
    assert!(
        (batch_span.end_s() - last_completion).abs() < 1e-9,
        "batch span ends at {} but the last item completes at {last_completion}",
        batch_span.end_s()
    );
    // And the phase-overlap number the profile carries rides the batch span.
    let overlap = batch_span
        .tags
        .nums
        .iter()
        .find(|(key, _)| *key == "overlap_saved_s")
        .map(|(_, value)| *value)
        .expect("batch span carries overlap_saved_s");
    assert!((overlap - profile.pipeline_overlap_saved_s()).abs() < 1e-9);

    // Every anchored child must sit inside its item span (well-nestedness on
    // the real workload, not just the property-test harness).
    for child in events.iter().filter(|e| e.cat == Category::Kernel) {
        let track = child.track;
        assert!(
            events.iter().any(|item| {
                item.track == track
                    && matches!(item.anchor, Anchor::Defines(_))
                    && child.start_s >= item.start_s - 1e-9
                    && child.end_s() <= item.end_s() + 1e-9
            }),
            "kernel span at {} escapes every item on {track:?}",
            child.start_s
        );
    }
}

#[test]
fn serve_metrics_snapshot_matches_serve_stats() {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let recorder = Arc::new(Recorder::new());
    let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
        .batch(BatchConfig { max_batch_jobs: 2, ..BatchConfig::default() })
        .trace(Arc::clone(&recorder) as _)
        .build();
    let request = |tag: &str, class: LatencyClass| {
        MappingRequest::new(
            protein.clone(),
            ff.clone(),
            vec![ProbeType::Ethanol, ProbeType::Acetone],
            small_config(),
        )
        .with_tag(tag)
        .with_class(class)
    };
    let handles = vec![
        service.submit(request("bulk-0", LatencyClass::Bulk)).expect_admitted("admitted"),
        service.submit(request("bulk-1", LatencyClass::Bulk)).expect_admitted("admitted"),
        service.submit(request("inter-0", LatencyClass::Interactive)).expect_admitted("admitted"),
    ];
    for handle in &handles {
        handle.wait();
    }
    let stats = service.shutdown();
    let metrics = &stats.metrics;

    // Per-class latency percentiles are the ClassLatency figures verbatim.
    for (name, view) in [("bulk", stats.bulk), ("interactive", stats.interactive)] {
        for (stat, expected) in [("mean", view.mean_s), ("p95", view.p95_s), ("max", view.max_s)] {
            let gauge = metrics
                .gauge("ftmap_serve_latency_modeled_seconds", &[("class", name), ("stat", stat)])
                .unwrap_or_else(|| panic!("latency gauge {name}/{stat} missing"));
            assert_eq!(gauge, expected, "{name} {stat} gauge drifted from ServeStats");
        }
        let hist = metrics
            .histogram("ftmap_serve_batch_latency_modeled_seconds", &[("class", name)])
            .unwrap_or_else(|| panic!("latency histogram {name} missing"));
        assert_eq!(hist.count as usize, view.batches);
    }

    // Cache hit-ratio gauges mirror the side-by-side + combined accessors.
    for (bucket, expected) in [
        ("raw", stats.cache().hit_rate()),
        ("derived", stats.derived_cache().hit_rate()),
        ("combined", stats.combined_hit_ratio()),
    ] {
        let gauge = metrics
            .gauge("ftmap_serve_cache_hit_ratio", &[("bucket", bucket)])
            .unwrap_or_else(|| panic!("hit-ratio gauge {bucket} missing"));
        assert_eq!(gauge, expected);
    }
    // The combined window really is both buckets folded together.
    let combined = stats.combined_cache();
    assert_eq!(combined.hits, stats.cache().hits + stats.derived_cache().hits);
    assert_eq!(combined.lookups(), stats.cache().lookups() + stats.derived_cache().lookups());

    // The Prometheus rendering carries the same series.
    let text = stats.prometheus();
    assert!(text.contains("# TYPE ftmap_serve_jobs_submitted_total counter"));
    assert!(text.contains("# TYPE ftmap_serve_latency_modeled_seconds gauge"));
    assert!(text.contains("# TYPE ftmap_serve_batch_latency_modeled_seconds histogram"));
    assert!(text.contains("ftmap_serve_cache_hit_ratio{bucket=\"combined\"}"));

    // The trace is Perfetto-loadable: admit instants for every job, at least
    // one batch lane, and the whole export parses back as trace-event JSON.
    let events = recorder.events();
    let admits = events.iter().filter(|e| e.track == Track::Queue && e.name == "admit").count();
    assert_eq!(admits, stats.jobs_submitted);
    let resolves =
        events.iter().filter(|e| e.track == Track::Queue && e.name == "batch-resolve").count();
    assert!(resolves >= 2, "both classes completed at least one batch");
    assert!(events.iter().any(|e| matches!(e.track, Track::Batch(_)) && e.name == "batch"));
    assert!(events.iter().any(|e| e.track == Track::Queue && e.name == "queue_depth"));
    let doc = ftmap::trace::export_chrome_trace(&events);
    let parsed = parse(&doc).expect("serve trace exports as valid JSON");
    let rows = parsed.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents array");
    assert!(rows.len() > events.len(), "metadata rows accompany the events");
}
