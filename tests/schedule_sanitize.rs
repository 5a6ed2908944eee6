//! The schedule sanitizer's acceptance gates, on a **real** traced run:
//!
//! * A warm pipelined serve workload's event stream replays cleanly — the
//!   scheduler actually honors the happens-before structure the sanitizer
//!   checks (dock→minimize edges, ready gating, serial device lanes, batch
//!   tallies, transfer attribution).
//! * The same guarantees survive the Chrome trace-event export/import round
//!   trip, which is the path CI's `trace_sanitize` binary exercises.
//! * Hand-mutated streams fail **loudly**: each corruption class applied to
//!   the real recording trips its named check. A sanitizer that stays quiet
//!   on corrupted data would be worse than none.

use ftmap::prelude::*;
use ftmap::trace::sanitize::EPS_S;
use ftmap::trace::{import_chrome_trace, Category, TraceEvent, Track};
use std::sync::Arc;

/// Runs a small warm serve workload (two devices, bulk + interactive mix)
/// and returns its resolved event stream.
fn traced_run() -> Vec<TraceEvent> {
    let ff = ForceField::charmm_like();
    let protein = SyntheticProtein::generate(&ProteinSpec::small_test(), &ff);
    let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
    config.docking.n_rotations = 2;
    config.conformations_per_probe = 2;

    let recorder = Arc::new(Recorder::new());
    let service = BatchMappingService::builder(Arc::new(DevicePool::tesla(2)))
        .batch(BatchConfig { max_batch_jobs: 2, ..BatchConfig::default() })
        .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .build();
    let request = |tag: &str, probes: &[ProbeType]| {
        MappingRequest::new(protein.clone(), ff.clone(), probes.to_vec(), config.clone())
            .with_tag(tag)
    };
    let handles = vec![
        service
            .submit(request("bulk-0", &[ProbeType::Ethanol, ProbeType::Acetone]))
            .expect_admitted("admitted"),
        service.submit(request("bulk-1", &[ProbeType::Urea])).expect_admitted("admitted"),
        service
            .submit(request("fast-0", &[ProbeType::Benzene]).with_class(LatencyClass::Interactive))
            .expect_admitted("admitted"),
    ];
    for handle in &handles {
        handle.wait();
    }
    service.shutdown();
    recorder.events()
}

fn item_spans(events: &[TraceEvent]) -> Vec<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            matches!(e.track, Track::Device(_))
                && e.cat == Category::Sched
                && !e.is_instant()
                && (e.name == "dock" || e.name == "minimize")
        })
        .map(|(i, _)| i)
        .collect()
}

fn assert_catches(events: &[TraceEvent], check: &str, what: &str) {
    let report = sanitize(events);
    assert!(
        report.violations.iter().any(|v| v.check == check),
        "{what}: expected check {check:?} to fire, got {:?}",
        report.violations
    );
}

#[test]
fn real_pipelined_run_replays_clean_and_survives_the_export_round_trip() {
    let events = traced_run();
    let report = sanitize(&events);
    assert!(report.is_clean(), "real schedule flagged:\n{:#?}", report.violations);
    assert!(report.items >= 4, "run too small to exercise the checks: {} items", report.items);
    assert!(report.batches >= 1 && report.transfers >= 1 && report.devices == 2);

    // The CI path: export to Chrome trace JSON, import, replay again.
    let json = export_chrome_trace(&events);
    let imported = import_chrome_trace(&json).expect("re-import");
    let round_trip = sanitize(&imported);
    assert!(round_trip.is_clean(), "round-trip flagged:\n{:#?}", round_trip.violations);
    assert_eq!(round_trip.items, report.items);
    assert_eq!(round_trip.transfers, report.transfers);
}

#[test]
fn mutated_streams_fail_loudly() {
    let events = traced_run();
    assert!(sanitize(&events).is_clean());
    let items = item_spans(&events);
    let minimize_at = *items
        .iter()
        .find(|&&i| events[i].name == "minimize")
        .expect("run produced minimize items");
    let dock_at =
        *items.iter().find(|&&i| events[i].name == "dock").expect("run produced dock items");

    // 1. Swap a minimize item's start to before its dock dependency lands.
    let mut warped = events.clone();
    warped[minimize_at].start_s = 0.0;
    assert_catches(&warped, "happens-before", "time-warped minimize");

    // 2. Duplicate an executed item: same (batch, phase, probe, poses) twice.
    let mut doubled = events.clone();
    let copy = doubled[dock_at].clone();
    doubled.push(copy);
    assert_catches(&doubled, "duplicate-item", "duplicated dock item");

    // 3. Drop an executed item the batch span still accounts for.
    let mut lossy = events.clone();
    lossy.remove(minimize_at);
    assert_catches(&lossy, "lost-item", "dropped minimize item");

    // 4. Re-attribute a transfer to a different batch than the item it ran
    //    inside — the cross-batch double-counting the accounting must never see.
    let mut cross = events.clone();
    let transfer_at = cross
        .iter()
        .position(|e| e.cat == Category::Transfer && matches!(e.track, Track::Device(_)))
        .expect("run recorded device transfers");
    let owner = cross[transfer_at].tags.batch_seq.expect("transfers carry their batch");
    cross[transfer_at].tags.batch_seq = Some(owner + 1000);
    assert_catches(&cross, "cross-batch-transfer", "re-attributed transfer");

    // 5. Regress a device lane's clock: an item starts while the lane's
    //    previous item still runs.
    let mut regressed = events.clone();
    let (lane_a, lane_b) = {
        let device = regressed[dock_at].track;
        let mut on_lane = items.iter().filter(|&&i| events[i].track == device);
        (*on_lane.next().unwrap(), *on_lane.next().expect("lane ran at least two items"))
    };
    let (first, second) = if events[lane_a].start_s <= events[lane_b].start_s {
        (lane_a, lane_b)
    } else {
        (lane_b, lane_a)
    };
    regressed[second].start_s = events[first].start_s + EPS_S;
    assert_catches(&regressed, "lane-overlap", "regressed device clock");
}
