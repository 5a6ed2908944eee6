//! The in-memory recorder: per-worker buffers, drained and anchor-resolved at
//! export time.

use crate::event::{Anchor, TraceEvent};
use crate::sink::TraceSink;
use crate::sync::locked;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independent event buffers. Each recording thread hashes to one
/// shard, so with a handful of scheduler workers every worker effectively owns
/// a buffer and records without contention.
const SHARDS: usize = 16;

/// A lock-cheap [`TraceSink`] that buffers events in memory.
///
/// Recording appends to the shard owned by the calling thread's hash — an
/// uncontended `std::sync::Mutex` in the steady state. [`Recorder::events`]
/// merges the shards, rebases anchored sub-events onto their defining item
/// spans, and returns the timeline sorted by start instant.
#[derive(Debug, Default)]
pub struct Recorder {
    shards: [Mutex<Vec<TraceEvent>>; SHARDS],
    dropped_orphans: AtomicU64,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    fn shard_index() -> usize {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        (hasher.finish() as usize) % SHARDS
    }

    /// Number of events buffered so far (across all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| locked(s).len()).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every buffered event, **unresolved** (anchored sub-events still
    /// carry offsets). Most callers want [`Recorder::events`].
    pub fn drain_raw(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut locked(shard));
        }
        all
    }

    /// The recorded timeline: anchored sub-events rebased onto their defining
    /// spans, sorted by absolute start instant (ties broken longest-first so
    /// enclosing spans sort before their children). Leaves the buffers empty.
    /// Orphans dropped during resolution are added to
    /// [`Recorder::dropped_orphans`].
    pub fn events(&self) -> Vec<TraceEvent> {
        let (resolved, orphans) = resolve_counted(self.drain_raw());
        self.dropped_orphans.fetch_add(orphans, Ordering::Relaxed);
        resolved
    }

    /// Total anchored sub-events dropped so far because their defining item
    /// span was never recorded (counted across every [`Recorder::events`]
    /// call). Surfaced through [`TraceSink::dropped_events`] so the serve
    /// layer can export trace data loss as a gauge.
    pub fn dropped_orphans(&self) -> u64 {
        self.dropped_orphans.load(Ordering::Relaxed)
    }
}

impl TraceSink for Recorder {
    fn record(&self, event: TraceEvent) {
        locked(&self.shards[Self::shard_index()]).push(event);
    }

    fn dropped_events(&self) -> u64 {
        self.dropped_orphans()
    }
}

/// Rebases [`Anchor::Within`] events onto the absolute start of the span
/// defining their anchor, then sorts by start instant. Anchored events whose
/// defining span was never recorded (an item that panicked mid-flight) are
/// dropped — an offset with no origin has no place on the timeline.
pub fn resolve(events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    resolve_counted(events).0
}

/// [`resolve`], also returning how many orphaned anchored events were dropped.
pub fn resolve_counted(events: Vec<TraceEvent>) -> (Vec<TraceEvent>, u64) {
    let mut origins: HashMap<u64, f64> = HashMap::new();
    for event in &events {
        if let Anchor::Defines(id) = event.anchor {
            origins.insert(id, event.start_s);
        }
    }
    let mut orphans = 0u64;
    let mut resolved: Vec<TraceEvent> = events
        .into_iter()
        .filter_map(|mut event| match event.anchor {
            Anchor::Absolute | Anchor::Defines(_) => Some(event),
            Anchor::Within(id) => {
                let origin = origins.get(&id);
                if origin.is_none() {
                    orphans += 1;
                }
                origin.map(|origin| {
                    event.start_s += origin;
                    event.anchor = Anchor::Absolute;
                    event
                })
            }
        })
        .collect();
    resolved.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(b.dur_s.total_cmp(&a.dur_s)));
    (resolved, orphans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, Track};

    #[test]
    fn records_and_resolves_anchored_events() {
        let recorder = Recorder::new();
        assert!(recorder.is_empty());
        recorder.record(
            TraceEvent::span(Track::Device(0), "dock", Category::Sched, 10.0, 4.0).defines(7),
        );
        let mut sub = TraceEvent::span(Track::Device(0), "kernel", Category::Kernel, 1.5, 2.0);
        sub.anchor = Anchor::Within(7);
        recorder.record(sub);
        let mut orphan = TraceEvent::instant(Track::Device(0), "lost", Category::Cache, 0.5);
        orphan.anchor = Anchor::Within(99);
        recorder.record(orphan);
        assert_eq!(recorder.len(), 3);

        let events = recorder.events();
        assert!(recorder.is_empty(), "events() drains the buffers");
        assert_eq!(events.len(), 2, "orphaned anchored events are dropped");
        assert_eq!(events[0].name, "dock");
        assert_eq!(events[1].name, "kernel");
        assert!((events[1].start_s - 11.5).abs() < 1e-12);
        assert_eq!(events[1].anchor, Anchor::Absolute);
        assert_eq!(recorder.dropped_orphans(), 1, "the dropped orphan is counted");
        assert_eq!(recorder.dropped_events(), 1, "and surfaced through the sink trait");
    }

    #[test]
    fn orphan_counter_accumulates_across_drains() {
        let recorder = Recorder::new();
        for round in 0..3u64 {
            let mut orphan = TraceEvent::instant(Track::Device(0), "lost", Category::Cache, 0.5);
            orphan.anchor = Anchor::Within(1000 + round);
            recorder.record(orphan);
            assert!(recorder.events().is_empty());
            assert_eq!(recorder.dropped_orphans(), round + 1);
        }
    }

    #[test]
    fn resolve_sorts_enclosing_spans_first() {
        let a = TraceEvent::span(Track::Device(0), "outer", Category::Sched, 5.0, 10.0);
        let b = TraceEvent::span(Track::Device(0), "inner", Category::Kernel, 5.0, 2.0);
        let sorted = resolve(vec![b, a]);
        assert_eq!(sorted[0].name, "outer");
        assert_eq!(sorted[1].name, "inner");
    }
}
