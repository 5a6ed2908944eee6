//! Trace-replay schedule sanitizer: replays a resolved event stream and
//! checks the scheduler's causal invariants with vector clocks.
//!
//! The phase pipeline promises a specific happens-before structure on the
//! modeled timeline: a probe's minimize items only become runnable when its
//! dock completes, a device lane runs one item at a time, every item starts
//! at or after its recorded ready instant, batches account exactly the items
//! that ran for them, and every transfer belongs to exactly one item (and
//! therefore one batch). [`sanitize`] re-derives that structure from the
//! events alone — per-device lane program order plus dock→minimize
//! dependency edges, summarized as vector clocks — and reports every event
//! that contradicts it. One serve-layer check rides along: every admitted
//! request resolves exactly once, completed or failed.
//!
//! Input is any **resolved** event list: live from
//! [`crate::Recorder::events`], or re-imported from an exported `trace.json`
//! via [`crate::import_chrome_trace`] (the `trace_sanitize` binary does the
//! latter; CI runs it against the `trace_mapping` example's export).

use crate::event::{Category, TraceEvent, Track};
use std::collections::BTreeMap;
use std::fmt;

/// Comparison tolerance on the modeled timeline: one trace microsecond, the
/// unit the Chrome trace-event export rounds through.
pub const EPS_S: f64 = 1e-6;

/// The checks [`sanitize`] runs, as `(name, description)` pairs — the
/// vocabulary of [`ScheduleViolation::check`].
pub const CHECKS: &[(&str, &str)] = &[
    (
        "happens-before",
        "a minimize item must start at or after its probe's dock completes \
         (dock→minimize dependency edge)",
    ),
    ("minimize-without-dock", "every minimize item names a (batch, probe) some dock item ran for"),
    ("ready-gate", "an item must start at or after the ready_v_s instant it was unlocked at"),
    ("lane-overlap", "a device lane runs one item at a time; spans on one track must not overlap"),
    ("duplicate-item", "no (batch, phase, probe, pose-range) work item executes twice"),
    ("lost-item", "a batch span's docks/blocks tallies must not exceed the items that ran"),
    ("phantom-item", "no batch runs more dock/minimize items than its span accounts"),
    ("batch-containment", "every item lies inside its batch's recorded span"),
    ("pose-overlap", "minimize pose ranges for one (batch, probe) must not overlap"),
    ("unattributed-transfer", "every device transfer happens inside some item span"),
    ("double-attributed-transfer", "no transfer is contained by two item spans"),
    ("cross-batch-transfer", "a transfer's batch tag matches the batch of the item containing it"),
    ("admit-resolved", "every admitted request (trace id) has exactly one job-resolve"),
];

/// One invariant violation found while replaying the schedule.
#[derive(Debug, Clone)]
pub struct ScheduleViolation {
    /// Which check fired (a name from [`CHECKS`]).
    pub check: &'static str,
    /// Modeled instant the offending event starts at.
    pub at_s: f64,
    /// Human-readable description with the offending values.
    pub message: String,
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s: {}: {}", self.at_s, self.check, self.message)
    }
}

/// The sanitizer's result: every violation plus the shape of what it
/// replayed (so a "clean" verdict on an empty stream is visibly vacuous).
#[derive(Debug, Clone, Default)]
pub struct SanitizeReport {
    /// Violations in timeline order.
    pub violations: Vec<ScheduleViolation>,
    /// Item spans replayed.
    pub items: usize,
    /// Batch spans replayed.
    pub batches: usize,
    /// Transfer events replayed.
    pub transfers: usize,
    /// Distinct device lanes seen.
    pub devices: usize,
}

impl SanitizeReport {
    /// True when no check fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A vector clock over device lanes: lane index → number of items that lane
/// has completed in this item's causal past.
type VClock = BTreeMap<u32, u64>;

fn vc_join(into: &mut VClock, other: &VClock) {
    for (&lane, &tick) in other {
        let slot = into.entry(lane).or_insert(0);
        *slot = (*slot).max(tick);
    }
}

fn vc_fmt(vc: &VClock) -> String {
    let parts: Vec<String> = vc.iter().map(|(lane, tick)| format!("{lane}:{tick}")).collect();
    format!("[{}]", parts.join(" "))
}

/// Identity of one executed work item: (batch, is-minimize, probe, poses).
type ItemKey = (Option<u64>, bool, Option<u32>, Option<(u32, u32)>);

/// Minimize pose ranges per (batch, probe): `(lo, hi, start_s)` triples.
type PoseSpans = BTreeMap<(u64, u32), Vec<(u32, u32, f64)>>;

/// One scheduler item span, decoded.
struct Item<'a> {
    span: &'a TraceEvent,
    device: u32,
    minimize: bool,
    batch: Option<u64>,
    probe: Option<u32>,
    pose: Option<(u32, u32)>,
    ready_v_s: Option<f64>,
}

impl Item<'_> {
    fn describe(&self) -> String {
        let phase = if self.minimize { "minimize" } else { "dock" };
        let mut out = format!("{phase} on device {}", self.device);
        if let Some(batch) = self.batch {
            out.push_str(&format!(" (batch {batch}"));
            if let Some(probe) = self.probe {
                out.push_str(&format!(", probe {probe}"));
            }
            if let Some((lo, hi)) = self.pose {
                out.push_str(&format!(", poses {lo}..{hi}"));
            }
            out.push(')');
        }
        out
    }
}

fn num(event: &TraceEvent, key: &str) -> Option<f64> {
    event.tags.nums.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn decode_item(event: &TraceEvent) -> Option<Item<'_>> {
    let Track::Device(device) = event.track else { return None };
    if event.cat != Category::Sched
        || event.is_instant()
        || (event.name != "dock" && event.name != "minimize")
    {
        return None;
    }
    Some(Item {
        span: event,
        device,
        minimize: event.name == "minimize",
        batch: event.tags.batch_seq,
        probe: event.tags.probe,
        pose: event.tags.pose_range,
        ready_v_s: num(event, "ready_v_s"),
    })
}

/// Replays `events` (a resolved list) against the scheduler's causal
/// invariants and reports every violation. See [`CHECKS`] for the catalog.
pub fn sanitize(events: &[TraceEvent]) -> SanitizeReport {
    let mut report = SanitizeReport::default();
    let mut items: Vec<Item<'_>> = events.iter().filter_map(decode_item).collect();
    // Chronological replay order; the scheduler's virtual timeline fixes
    // each item's start, so (start, end) order is execution order.
    items.sort_by(|a, b| {
        a.span.start_s.total_cmp(&b.span.start_s).then(a.span.end_s().total_cmp(&b.span.end_s()))
    });
    report.items = items.len();
    let mut violations: Vec<ScheduleViolation> = Vec::new();
    let mut violation = |check: &'static str, at_s: f64, message: String| {
        violations.push(ScheduleViolation { check, at_s, message });
    };

    // duplicate-item: each (batch, phase, probe, pose-range) runs once.
    let mut seen: BTreeMap<ItemKey, usize> = BTreeMap::new();
    for item in &items {
        let count = seen.entry((item.batch, item.minimize, item.probe, item.pose)).or_insert(0);
        *count += 1;
        if *count > 1 {
            violation(
                "duplicate-item",
                item.span.start_s,
                format!("{} executed {count} times", item.describe()),
            );
        }
    }

    // Vector-clock replay: lane program order + dock→minimize edges.
    // A lane's clock after k items is the join of everything causally
    // before them; a minimize item additionally joins its dock's clock.
    let mut lane_clock: BTreeMap<u32, VClock> = BTreeMap::new();
    // (batch, probe) → (dock end, dock's vector clock), recorded as docks
    // replay; a minimize item consults it for its dependency edge.
    let mut dock_done: BTreeMap<(u64, u32), (f64, VClock)> = BTreeMap::new();
    let mut lane_last: BTreeMap<u32, (f64, String)> = BTreeMap::new();
    for item in &items {
        let start = item.span.start_s;
        // ready-gate: the scheduler stamps the instant the item became
        // runnable; starting earlier means the replay clock ran backwards.
        if let Some(ready) = item.ready_v_s {
            if start < ready - EPS_S {
                violation(
                    "ready-gate",
                    start,
                    format!(
                        "{} starts at {start:.6}s, before its ready instant {ready:.6}s",
                        item.describe()
                    ),
                );
            }
        }
        // lane-overlap: one item at a time per device lane.
        if let Some((prev_end, prev_desc)) = lane_last.get(&item.device) {
            if start < prev_end - EPS_S {
                violation(
                    "lane-overlap",
                    start,
                    format!(
                        "{} starts at {start:.6}s while {prev_desc} still runs until {prev_end:.6}s",
                        item.describe()
                    ),
                );
            }
        }
        let mut clock = lane_clock.get(&item.device).cloned().unwrap_or_default();
        if item.minimize {
            match (item.batch, item.probe) {
                (Some(batch), Some(probe)) => match dock_done.get(&(batch, probe)) {
                    Some((dock_end, dock_clock)) => {
                        // happens-before: the dependency edge dock→minimize
                        // must point forward on the modeled timeline.
                        if start < dock_end - EPS_S {
                            violation(
                                "happens-before",
                                start,
                                format!(
                                    "{} starts at {start:.6}s before its dock completes at \
                                     {dock_end:.6}s (item clock {}, dock clock {})",
                                    item.describe(),
                                    vc_fmt(&clock),
                                    vc_fmt(dock_clock)
                                ),
                            );
                        }
                        vc_join(&mut clock, dock_clock);
                    }
                    None => violation(
                        "minimize-without-dock",
                        start,
                        format!("{} has no completed dock at its start", item.describe()),
                    ),
                },
                _ => violation(
                    "minimize-without-dock",
                    start,
                    format!("{} carries no (batch, probe) identity", item.describe()),
                ),
            }
        }
        *clock.entry(item.device).or_insert(0) += 1;
        if !item.minimize {
            if let (Some(batch), Some(probe)) = (item.batch, item.probe) {
                dock_done.insert((batch, probe), (item.span.end_s(), clock.clone()));
            }
        }
        lane_last.insert(item.device, (item.span.end_s(), item.describe()));
        lane_clock.insert(item.device, clock);
    }
    report.devices = lane_clock.len();

    // pose-overlap: a probe's minimize pose ranges partition its poses.
    let mut ranges: PoseSpans = BTreeMap::new();
    for item in &items {
        if let (true, Some(batch), Some(probe), Some((lo, hi))) =
            (item.minimize, item.batch, item.probe, item.pose)
        {
            ranges.entry((batch, probe)).or_default().push((lo, hi, item.span.start_s));
        }
    }
    for ((batch, probe), mut spans) in ranges {
        spans.sort_by_key(|&(lo, hi, _)| (lo, hi));
        for pair in spans.windows(2) {
            let (lo_a, hi_a, _) = pair[0];
            let (lo_b, _, at_s) = pair[1];
            if lo_b < hi_a && (lo_a, hi_a) != (lo_b, pair[1].1) {
                violation(
                    "pose-overlap",
                    at_s,
                    format!(
                        "batch {batch} probe {probe}: pose ranges {lo_a}..{hi_a} and {lo_b}..{} \
                         overlap",
                        pair[1].1
                    ),
                );
            }
        }
    }

    // Batch accounting: the batch span's docks/blocks tallies versus the
    // items that actually executed, and span containment.
    let batch_spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            matches!(e.track, Track::Batch(_)) && e.cat == Category::Batch && e.name == "batch"
        })
        .collect();
    report.batches = batch_spans.len();
    for span in &batch_spans {
        let Track::Batch(seq) = span.track else { continue };
        let docks_expected = num(span, "docks").unwrap_or(0.0) as usize;
        let blocks_expected = num(span, "blocks").unwrap_or(0.0) as usize;
        let mut docks = 0usize;
        let mut blocks = 0usize;
        for item in &items {
            if item.batch != Some(seq) {
                continue;
            }
            if item.minimize {
                blocks += 1;
            } else {
                docks += 1;
            }
            if item.span.start_s < span.start_s - EPS_S || item.span.end_s() > span.end_s() + EPS_S
            {
                violation(
                    "batch-containment",
                    item.span.start_s,
                    format!(
                        "{} runs {:.6}s..{:.6}s outside batch {seq}'s span \
                         {:.6}s..{:.6}s",
                        item.describe(),
                        item.span.start_s,
                        item.span.end_s(),
                        span.start_s,
                        span.end_s()
                    ),
                );
            }
        }
        for (check, phase, ran, expected) in [
            ("lost-item", "dock", docks, docks_expected),
            ("lost-item", "minimize", blocks, blocks_expected),
        ] {
            if ran < expected {
                violation(
                    check,
                    span.start_s,
                    format!(
                        "batch {seq} accounts {expected} {phase} item(s) but only {ran} executed"
                    ),
                );
            } else if ran > expected {
                violation(
                    "phantom-item",
                    span.start_s,
                    format!("batch {seq} ran {ran} {phase} item(s) but accounts only {expected}"),
                );
            }
        }
    }

    // Transfer attribution: each device transfer belongs to exactly one item
    // span on its lane, and to that item's batch.
    for event in events {
        if event.cat != Category::Transfer || !matches!(event.track, Track::Device(_)) {
            continue;
        }
        report.transfers += 1;
        let containing: Vec<&Item<'_>> = items
            .iter()
            .filter(|item| {
                item.span.track == event.track
                    && event.start_s >= item.span.start_s - EPS_S
                    && event.end_s() <= item.span.end_s() + EPS_S
            })
            .collect();
        let bytes = num(event, "bytes").unwrap_or(0.0);
        match containing.as_slice() {
            [] => violation(
                "unattributed-transfer",
                event.start_s,
                format!(
                    "{} of {bytes} byte(s) at {:.6}s lies inside no item span on its lane",
                    event.name, event.start_s
                ),
            ),
            [item] => {
                if let (Some(claimed), Some(owner)) = (event.tags.batch_seq, item.batch) {
                    if claimed != owner {
                        violation(
                            "cross-batch-transfer",
                            event.start_s,
                            format!(
                                "{} of {bytes} byte(s) claims batch {claimed} but runs inside \
                                 {} of batch {owner}",
                                event.name,
                                item.describe()
                            ),
                        );
                    }
                }
            }
            many => violation(
                "double-attributed-transfer",
                event.start_s,
                format!(
                    "{} of {bytes} byte(s) is contained by {} item spans — its bytes would be \
                     accounted twice",
                    event.name,
                    many.len()
                ),
            ),
        }
    }

    // admit-resolved: per trace id, the admit instant and the admit and
    // job-resolve counts; each admit needs exactly one resolve.
    let mut requests: BTreeMap<u64, (f64, usize, usize)> = BTreeMap::new();
    for event in events.iter().filter(|e| e.cat == Category::Serve) {
        let Some(trace) = event.tags.trace else { continue };
        match event.name.as_str() {
            "admit" => {
                let request = requests.entry(trace).or_insert((event.start_s, 0, 0));
                request.0 = request.0.min(event.start_s);
                request.1 += 1;
            }
            "job-resolve" => requests.entry(trace).or_insert((event.start_s, 0, 0)).2 += 1,
            _ => {}
        }
    }
    for (trace, (at_s, admits, resolves)) in requests {
        if admits > 0 && resolves != admits {
            violation(
                "admit-resolved",
                at_s,
                format!("request {trace}: {admits} admit(s) but {resolves} job-resolve(s)"),
            );
        }
    }

    violations.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.check.cmp(b.check)));
    report.violations = violations;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Tags, TraceEvent};

    fn item(
        device: u32,
        name: &str,
        start: f64,
        dur: f64,
        batch: u64,
        probe: u32,
        ready: f64,
    ) -> TraceEvent {
        let mut tags = Tags::device(device).with_num("ready_v_s", ready);
        tags.batch_seq = Some(batch);
        tags.probe = Some(probe);
        TraceEvent::span(Track::Device(device), name, Category::Sched, start, dur).with_tags(tags)
    }

    fn minimize(
        device: u32,
        start: f64,
        dur: f64,
        batch: u64,
        probe: u32,
        pose: (u32, u32),
        ready: f64,
    ) -> TraceEvent {
        let mut event = item(device, "minimize", start, dur, batch, probe, ready);
        event.tags.pose_range = Some(pose);
        event
    }

    fn transfer(device: u32, start: f64, dur: f64, batch: u64, bytes: f64) -> TraceEvent {
        let mut tags = Tags::device(device).with_num("bytes", bytes);
        tags.batch_seq = Some(batch);
        TraceEvent::span(Track::Device(device), "upload", Category::Transfer, start, dur)
            .with_tags(tags)
    }

    fn batch_span(seq: u64, start: f64, dur: f64, docks: f64, blocks: f64) -> TraceEvent {
        let mut tags = Tags::default().with_num("docks", docks).with_num("blocks", blocks);
        tags.batch_seq = Some(seq);
        TraceEvent::span(Track::Batch(seq), "batch", Category::Batch, start, dur).with_tags(tags)
    }

    /// A small well-formed schedule: batch 0 docks two probes on two
    /// devices, then minimizes three pose blocks, with one attributed upload.
    fn valid_stream() -> Vec<TraceEvent> {
        vec![
            item(0, "dock", 0.0, 0.30, 0, 0, 0.0),
            item(1, "dock", 0.0, 0.40, 0, 1, 0.0),
            transfer(0, 0.05, 0.01, 0, 4096.0),
            minimize(0, 0.30, 0.10, 0, 0, (0, 8), 0.30),
            minimize(1, 0.40, 0.05, 0, 0, (8, 16), 0.30),
            minimize(0, 0.42, 0.08, 0, 1, (0, 8), 0.40),
            batch_span(0, 0.0, 0.50, 2.0, 3.0),
        ]
    }

    fn checks_fired(events: &[TraceEvent]) -> Vec<&'static str> {
        let report = sanitize(events);
        let mut names: Vec<&'static str> = report.violations.iter().map(|v| v.check).collect();
        names.dedup();
        names
    }

    #[test]
    fn valid_schedule_is_clean() {
        let report = sanitize(&valid_stream());
        assert!(report.is_clean(), "clean stream flagged: {:?}", report.violations);
        assert_eq!((report.items, report.batches, report.transfers), (5, 1, 1));
        assert_eq!(report.devices, 2);
    }

    #[test]
    fn empty_stream_is_vacuously_clean_but_says_so() {
        let report = sanitize(&[]);
        assert!(report.is_clean());
        assert_eq!(report.items, 0);
    }

    #[test]
    fn minimize_before_dock_completion_is_a_happens_before_violation() {
        let mut events = valid_stream();
        // Pull probe 1's minimize back before its dock's completion.
        events[5].start_s = 0.35;
        let report = sanitize(&events);
        assert!(report.violations.iter().any(|v| v.check == "happens-before"));
        let text = report.violations.iter().find(|v| v.check == "happens-before").unwrap();
        assert!(text.message.contains("clock"), "vector clocks missing: {text}");
    }

    #[test]
    fn start_before_ready_instant_is_a_ready_gate_violation() {
        let mut events = valid_stream();
        events[3].start_s = 0.25; // ready_v_s stays 0.30
        assert!(checks_fired(&events).contains(&"ready-gate"));
    }

    #[test]
    fn overlapping_items_on_one_lane_are_flagged() {
        let mut events = valid_stream();
        // A third dock squeezed onto device 0 while probe 0's dock still
        // runs: no dependency edge is violated, only the one-item-per-lane
        // rule (the batch tally then also sees a phantom dock).
        events.push(item(0, "dock", 0.10, 0.05, 0, 2, 0.0));
        let fired = checks_fired(&events);
        assert!(fired.contains(&"lane-overlap"), "fired: {fired:?}");
    }

    #[test]
    fn duplicated_item_is_flagged_as_duplicate_and_phantom() {
        let mut events = valid_stream();
        let copy = events[3].clone();
        events.push(copy);
        let fired = checks_fired(&events);
        assert!(fired.contains(&"duplicate-item"), "fired: {fired:?}");
        assert!(fired.contains(&"phantom-item"), "fired: {fired:?}");
    }

    #[test]
    fn dropped_item_is_flagged_as_lost() {
        let mut events = valid_stream();
        events.remove(4); // lose one minimize the batch span accounts
        assert!(checks_fired(&events).contains(&"lost-item"));
    }

    #[test]
    fn minimize_with_no_dock_is_flagged() {
        let events =
            vec![minimize(0, 0.1, 0.1, 0, 7, (0, 8), 0.0), batch_span(0, 0.0, 0.3, 0.0, 1.0)];
        assert!(checks_fired(&events).contains(&"minimize-without-dock"));
    }

    #[test]
    fn item_outside_its_batch_span_is_flagged() {
        let mut events = valid_stream();
        events[6] = batch_span(0, 0.0, 0.45, 2.0, 3.0); // truncate the batch
        assert!(checks_fired(&events).contains(&"batch-containment"));
    }

    #[test]
    fn overlapping_pose_ranges_are_flagged() {
        let mut events = valid_stream();
        events[4] = minimize(1, 0.40, 0.05, 0, 0, (4, 12), 0.30);
        assert!(checks_fired(&events).contains(&"pose-overlap"));
    }

    #[test]
    fn transfer_outside_any_item_is_unattributed() {
        let mut events = valid_stream();
        events[2].start_s = 0.95; // no item runs there
        assert!(checks_fired(&events).contains(&"unattributed-transfer"));
    }

    #[test]
    fn transfer_claiming_another_batch_is_cross_batch() {
        let mut events = valid_stream();
        events[2].tags.batch_seq = Some(9);
        assert!(checks_fired(&events).contains(&"cross-batch-transfer"));
    }

    #[test]
    fn transfer_spanning_two_items_is_double_attributed() {
        let mut events = valid_stream();
        // Two overlapping items (lane check fires too) sharing a transfer.
        events[3] = minimize(0, 0.20, 0.20, 0, 0, (0, 8), 0.10);
        events[0].dur_s = 0.25;
        events[2] = transfer(0, 0.21, 0.02, 0, 512.0);
        let fired = checks_fired(&events);
        assert!(fired.contains(&"double-attributed-transfer"), "fired: {fired:?}");
    }

    fn request_edge(name: &'static str, at_s: f64, trace: u64) -> TraceEvent {
        let tags = Tags { trace: Some(trace), ..Tags::default() };
        TraceEvent::instant(Track::Queue, name, Category::Serve, at_s).with_tags(tags)
    }

    /// Two admitted requests, each resolved once.
    fn resolved_requests() -> Vec<TraceEvent> {
        let mut events = valid_stream();
        events.extend([
            request_edge("admit", 0.0, 7),
            request_edge("admit", 0.0, 8),
            request_edge("job-resolve", 0.5, 7),
            request_edge("job-resolve", 0.5, 8),
        ]);
        events
    }

    #[test]
    fn resolved_requests_are_clean() {
        let report = sanitize(&resolved_requests());
        assert!(report.is_clean(), "clean stream flagged: {:?}", report.violations);
    }

    #[test]
    fn an_admit_without_a_resolve_is_flagged() {
        let mut events = resolved_requests();
        events.retain(|e| !(e.name == "job-resolve" && e.tags.trace == Some(8)));
        let report = sanitize(&events);
        let flagged: Vec<&str> = report.violations.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(flagged, ["request 8: 1 admit(s) but 0 job-resolve(s)"]);
    }

    #[test]
    fn a_duplicated_resolve_is_flagged() {
        let mut events = resolved_requests();
        events.push(request_edge("job-resolve", 0.6, 7));
        let report = sanitize(&events);
        let flagged: Vec<&str> = report.violations.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(flagged, ["request 7: 1 admit(s) but 2 job-resolve(s)"]);
    }

    #[test]
    fn violations_render_with_instant_and_check_name() {
        let mut events = valid_stream();
        // Raise the ready instant above the recorded start: only the ready
        // gate fires (the dock edge still holds), so the first rendered
        // violation is deterministic.
        events[3] = minimize(0, 0.30, 0.10, 0, 0, (0, 8), 0.35);
        let report = sanitize(&events);
        let rendered = report.violations[0].to_string();
        assert!(rendered.starts_with("t=0.300000s: ready-gate: "), "got: {rendered}");
    }

    #[test]
    fn every_check_name_is_cataloged() {
        // Guards the CLI's --list-checks against drifting from the code.
        let catalog: Vec<&str> = CHECKS.iter().map(|(name, _)| *name).collect();
        for name in [
            "happens-before",
            "minimize-without-dock",
            "ready-gate",
            "lane-overlap",
            "duplicate-item",
            "lost-item",
            "phantom-item",
            "batch-containment",
            "pose-overlap",
            "unattributed-transfer",
            "double-attributed-transfer",
            "cross-batch-transfer",
            "admit-resolved",
        ] {
            assert!(catalog.contains(&name), "{name} missing from CHECKS");
        }
    }
}
