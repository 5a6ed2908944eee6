//! The flight recorder: an always-on bounded ring sink with tail-sampling.
//!
//! Recording everything forever is incompatible with the ≤1.01× overhead
//! gate; recording nothing means the one request you need to explain is
//! gone. The flight recorder threads that needle:
//!
//! * every event lands in a **bounded ring** (sharded like
//!   [`crate::Recorder`]; the oldest events are evicted once a shard fills —
//!   evictions are counted and surfaced via
//!   [`TraceSink::dropped_events`]);
//! * when the serve layer resolves a request it calls
//!   [`FlightRecorder::note_request`] with the tail-sampling verdict: for
//!   SLO-breaching / p99-outlier requests the request's full causal tree
//!   (every event carrying its trace id) is **extracted from the ring and
//!   retained**; everything else ages out naturally;
//! * [`FlightRecorder::dump_perfetto`] renders the retained trees (plus
//!   their critical-path flows) as a Chrome trace JSON document — the
//!   post-incident artifact.
//!
//! Retention is itself bounded ([`FlightRecorder::with_capacity`]): keeping
//! the newest `max_retained` trees, oldest evicted first.

use crate::critical_path::analyze_all;
use crate::event::TraceEvent;
use crate::perfetto::export_chrome_trace_with_flows;
use crate::recorder::resolve_counted;
use crate::sink::TraceSink;
use crate::sync::locked;
use crate::tree::build_request_trees;
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ring shards (same sharding scheme as [`crate::Recorder`]).
const SHARDS: usize = 16;
/// Default per-recorder event capacity (split across shards).
const DEFAULT_CAPACITY: usize = 65_536;
/// Default number of retained (tail-sampled) request trees.
const DEFAULT_RETAINED: usize = 32;

#[derive(Debug, Default)]
struct Retained {
    /// Newest-last retained trees: `(trace_id, raw events)`.
    trees: VecDeque<(u64, Vec<TraceEvent>)>,
}

/// A bounded, always-on [`TraceSink`] retaining full causal trees only for
/// tail-sampled (slow / SLO-breaching) requests.
#[derive(Debug)]
pub struct FlightRecorder {
    shards: [Mutex<VecDeque<TraceEvent>>; SHARDS],
    shard_capacity: usize,
    max_retained: usize,
    retained: Mutex<Retained>,
    evicted: AtomicU64,
    retained_total: AtomicU64,
    dropped_orphans: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default ring (65 536 events) and retention
    /// (32 trees) capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY, DEFAULT_RETAINED)
    }

    /// A recorder bounding the live ring at `capacity_events` (split across
    /// shards) and retention at `max_retained` trees.
    pub fn with_capacity(capacity_events: usize, max_retained: usize) -> Self {
        FlightRecorder {
            shards: Default::default(),
            shard_capacity: (capacity_events / SHARDS).max(1),
            max_retained: max_retained.max(1),
            retained: Mutex::new(Retained::default()),
            evicted: AtomicU64::new(0),
            retained_total: AtomicU64::new(0),
            dropped_orphans: AtomicU64::new(0),
        }
    }

    fn shard_index() -> usize {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        (hasher.finish() as usize) % SHARDS
    }

    /// Events currently buffered in the live ring.
    pub fn ring_len(&self) -> usize {
        self.shards.iter().map(|s| locked(s).len()).sum()
    }

    /// Total trees retained by tail-sampling so far (including ones since
    /// evicted from the bounded retention window).
    pub fn retained_total(&self) -> u64 {
        self.retained_total.load(Ordering::Relaxed)
    }

    /// The serve layer's per-request tail-sampling decision: when `keep` is
    /// true, every ring event carrying `trace_id` is moved into the retained
    /// store (bounded, oldest tree evicted first). When `keep` is false this
    /// is a no-op — the request's events age out of the ring on their own.
    pub fn note_request(&self, trace_id: u64, keep: bool) {
        if !keep {
            return;
        }
        let mut events = Vec::new();
        for shard in &self.shards {
            let mut shard = locked(shard);
            let mut kept = VecDeque::with_capacity(shard.len());
            for event in shard.drain(..) {
                if event.tags.trace == Some(trace_id) {
                    events.push(event);
                } else {
                    kept.push_back(event);
                }
            }
            *shard = kept;
        }
        if events.is_empty() {
            return;
        }
        self.retained_total.fetch_add(1, Ordering::Relaxed);
        let mut retained = locked(&self.retained);
        retained.trees.push_back((trace_id, events));
        while retained.trees.len() > self.max_retained {
            retained.trees.pop_front();
        }
    }

    /// Trace ids currently retained, oldest first.
    pub fn retained_trace_ids(&self) -> Vec<u64> {
        locked(&self.retained).trees.iter().map(|(id, _)| *id).collect()
    }

    /// The retained events, anchor-resolved and merged onto one timeline
    /// (retention is non-destructive — breach dumps shouldn't race each
    /// other for the evidence).
    fn retained_events(&self) -> Vec<TraceEvent> {
        let raw: Vec<TraceEvent> = locked(&self.retained)
            .trees
            .iter()
            .flat_map(|(_, events)| events.iter().cloned())
            .collect();
        let (resolved, orphans) = resolve_counted(raw);
        self.dropped_orphans.fetch_add(orphans, Ordering::Relaxed);
        resolved
    }

    /// Renders the retained trees as a Chrome trace JSON document, with each
    /// request's critical path as flow arrows — the artifact to write out
    /// when an SLO pages.
    pub fn dump_perfetto(&self) -> String {
        let events = self.retained_events();
        let trees = build_request_trees(&events);
        let flows: Vec<_> = analyze_all(&trees).iter().map(|a| a.flow()).collect();
        export_chrome_trace_with_flows(&events, &flows)
    }
}

impl TraceSink for FlightRecorder {
    fn record(&self, event: TraceEvent) {
        let mut shard = locked(&self.shards[Self::shard_index()]);
        if shard.len() >= self.shard_capacity {
            shard.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(event);
    }

    fn dropped_events(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed) + self.dropped_orphans.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, Track};

    fn event(name: &str, trace: u64, at: f64) -> TraceEvent {
        let mut e = TraceEvent::instant(Track::Queue, name, Category::Serve, at);
        e.tags.trace = Some(trace);
        e
    }

    #[test]
    fn tail_sampling_retains_only_kept_traces() {
        let flight = FlightRecorder::with_capacity(1024, 4);
        for id in 0..4u64 {
            flight.record(event("admit", id, id as f64));
            flight.record(event("job-resolve", id, id as f64 + 1.0));
        }
        assert_eq!(flight.ring_len(), 8);
        flight.note_request(1, false);
        flight.note_request(2, true);
        assert_eq!(flight.retained_trace_ids(), vec![2]);
        assert_eq!(flight.retained_total(), 1);
        // Trace 2's events left the ring; the rest are still aging there.
        assert_eq!(flight.ring_len(), 6);
        let retained = flight.retained_events();
        assert_eq!(retained.len(), 2);
        assert!(retained.iter().all(|e| e.tags.trace == Some(2)));
        // Retaining a trace with no ring events is a no-op.
        flight.note_request(99, true);
        assert_eq!(flight.retained_total(), 1);
    }

    #[test]
    fn retention_window_is_bounded_oldest_first() {
        let flight = FlightRecorder::with_capacity(1024, 2);
        for id in 0..3u64 {
            flight.record(event("admit", id, id as f64));
            flight.note_request(id, true);
        }
        assert_eq!(flight.retained_trace_ids(), vec![1, 2]);
        assert_eq!(flight.retained_total(), 3);
    }

    #[test]
    fn ring_eviction_is_counted_and_surfaced() {
        let flight = FlightRecorder::with_capacity(SHARDS, 4);
        // shard capacity is 1; this thread lands on one shard, so the second
        // record evicts the first.
        flight.record(event("a", 0, 0.0));
        flight.record(event("b", 0, 1.0));
        assert_eq!(flight.evicted.load(Ordering::Relaxed), 1);
        assert_eq!(flight.dropped_events(), 1);
        assert_eq!(flight.ring_len(), 1);
    }

    #[test]
    fn dump_renders_valid_chrome_trace() {
        let flight = FlightRecorder::with_capacity(1024, 4);
        flight.record(event("admit", 7, 0.0));
        flight.record(event("job-resolve", 7, 1.0));
        flight.note_request(7, true);
        let doc = flight.dump_perfetto();
        let parsed = crate::json::parse(&doc).expect("valid JSON");
        assert!(parsed.get("traceEvents").is_some());
    }
}
