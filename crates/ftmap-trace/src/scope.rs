//! Thread-local item scopes: how leaf layers attach sub-events to the work
//! item a scheduler is running on the current thread.
//!
//! A scheduler worker computes an item's virtual start instant only *after*
//! the item executes (start = max(device clock, ready instant)), so kernel
//! launches, transfers and cache lookups inside the item cannot know their
//! absolute time. Instead the worker opens an [`ItemScope`]; the leaf [`hook`]
//! functions append [`crate::Anchor::Within`] events at the scope's running
//! cursor (offset from item start, advancing by each stage's modeled
//! duration); and the worker finally records the item span with
//! [`crate::Anchor::Defines`], letting [`crate::recorder::resolve`] rebase the
//! children.
//!
//! When no scope is active — the untraced default — every hook is a single
//! thread-local read.

use crate::event::{Anchor, Category, Tags, TraceEvent, Track};
use crate::sink::TraceSink;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global anchor-id allocator (anchor ids only need to be unique within one
/// recorder's lifetime; a process-wide counter is unique across all of them).
static NEXT_ANCHOR: AtomicU64 = AtomicU64::new(1);

struct ActiveScope {
    sink: Arc<dyn TraceSink>,
    track: Track,
    tags: Tags,
    anchor: u64,
    cursor_s: f64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveScope>> = const { RefCell::new(None) };
}

/// RAII guard for one scheduled work item on the current thread.
///
/// While alive, the [`hook`] functions route anchored sub-events (kernel
/// launches, transfers, cache events) into `sink`, tagged with the item's
/// identity. [`ItemScope::enter`] returns `None` when the sink is disabled,
/// so the untraced path never installs a scope.
#[must_use = "dropping the scope immediately detaches the hooks"]
pub struct ItemScope(());

impl ItemScope {
    /// Activates a scope for the current thread. `tags` carry the item's
    /// identity (device, batch seq, probe/pose ids) onto every sub-event.
    pub fn enter(sink: &Arc<dyn TraceSink>, track: Track, tags: Tags) -> Option<ItemScope> {
        if !sink.enabled() {
            return None;
        }
        let anchor = NEXT_ANCHOR.fetch_add(1, Ordering::Relaxed);
        ACTIVE.with(|active| {
            *active.borrow_mut() =
                Some(ActiveScope { sink: Arc::clone(sink), track, tags, anchor, cursor_s: 0.0 });
        });
        Some(ItemScope(()))
    }

    /// The anchor id sub-events of this scope are recorded under. The worker
    /// records the item span with [`crate::TraceEvent::defines`] on this id.
    pub fn anchor(&self) -> u64 {
        ACTIVE.with(|active| active.borrow().as_ref().map(|s| s.anchor).unwrap_or(0))
    }
}

impl Drop for ItemScope {
    fn drop(&mut self) {
        ACTIVE.with(|active| *active.borrow_mut() = None);
    }
}

/// Leaf instrumentation hooks, called by `gpu-sim` and `piper-dock` on every
/// modeled kernel launch, transfer, and residency lookup. Each is a no-op
/// (one thread-local read) unless an [`ItemScope`] is active on the calling
/// thread.
pub mod hook {
    use super::*;

    /// True when an item scope is active on this thread (lets callers skip
    /// preparing hook arguments that themselves cost something).
    pub fn active() -> bool {
        ACTIVE.with(|active| active.borrow().is_some())
    }

    fn emit(name: &str, cat: Category, dur_s: f64, nums: &[(&'static str, f64)]) {
        ACTIVE.with(|active| {
            let mut borrow = active.borrow_mut();
            let Some(scope) = borrow.as_mut() else { return };
            let mut tags = scope.tags.clone();
            tags.nums.extend_from_slice(nums);
            let event = TraceEvent {
                track: scope.track,
                name: name.to_string(),
                cat,
                start_s: scope.cursor_s,
                dur_s: dur_s.max(0.0),
                anchor: Anchor::Within(scope.anchor),
                tags,
            };
            scope.cursor_s += dur_s.max(0.0);
            scope.sink.record(event);
        });
    }

    /// A modeled kernel launch: a stage span of `modeled_s` at the scope
    /// cursor. `name` is the phase/kernel label the caller charges the launch
    /// to.
    pub fn kernel(name: &str, modeled_s: f64, grid_blocks: usize, threads_per_block: usize) {
        emit(
            name,
            Category::Kernel,
            modeled_s,
            &[("grid_blocks", grid_blocks as f64), ("threads_per_block", threads_per_block as f64)],
        );
    }

    /// A host↔device transfer: a stage span of `modeled_s`. `direction` is
    /// `"upload"` or `"download"`.
    pub fn transfer(direction: &'static str, bytes: u64, modeled_s: f64) {
        emit(direction, Category::Transfer, modeled_s, &[("bytes", bytes as f64)]);
    }

    /// A named phase marker at the scope cursor (instant, no modeled cost):
    /// `piper-dock` drops these at each batched-FFT phase boundary so the
    /// per-phase kernel spans that follow can be grouped under the ledger's
    /// phase names.
    pub fn mark(name: &str) {
        emit(name, Category::Sched, 0.0, &[]);
    }

    /// A residency-cache event at the scope cursor (instant — cache bookkeeping
    /// has no modeled cost; the miss's upload is charged by the transfer hook).
    /// `kind` is `"hit"`, `"miss"` or `"evict"`; `bucket` is `"raw"` or
    /// `"derived"`.
    pub fn cache(kind: &'static str, bucket: &'static str, key: u64) {
        // The key is informational; fold it to f64 losslessly enough for
        // display (52 bits of the hash survive).
        emit(
            &format!("cache-{kind}"),
            Category::Cache,
            0.0,
            &[
                ("bucket_derived", (bucket == "derived") as u8 as f64),
                ("key_lo32", (key & 0xffff_ffff) as f64),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::sink::noop;

    #[test]
    fn disabled_sink_installs_no_scope() {
        assert!(ItemScope::enter(&noop(), Track::Device(0), Tags::default()).is_none());
        assert!(!hook::active());
        hook::kernel("k", 1.0, 1, 1); // must be a silent no-op
    }

    #[test]
    fn hooks_attach_anchored_stage_events_with_scope_tags() {
        let recorder = Arc::new(Recorder::new());
        let sink: Arc<dyn TraceSink> = Arc::clone(&recorder) as _;
        let anchor;
        {
            let scope =
                ItemScope::enter(&sink, Track::Device(2), Tags::device(2)).expect("enabled sink");
            anchor = scope.anchor();
            assert!(hook::active());
            hook::transfer("upload", 64, 0.5);
            hook::kernel("dock", 2.0, 8, 128);
            hook::cache("hit", "raw", 0xdead_beef);
            let cursor_s = ACTIVE.with(|active| active.borrow().as_ref().map(|s| s.cursor_s));
            assert!(cursor_s.is_some_and(|c| (c - 2.5).abs() < 1e-12));
        }
        assert!(!hook::active());
        // Record the defining span the way a scheduler worker would.
        recorder.record(
            TraceEvent::span(Track::Device(2), "item", Category::Sched, 10.0, 2.5).defines(anchor),
        );
        let events = recorder.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name, "item");
        assert_eq!(events[1].name, "upload");
        assert!((events[1].start_s - 10.0).abs() < 1e-12);
        assert_eq!(events[2].name, "dock");
        assert!((events[2].start_s - 10.5).abs() < 1e-12);
        assert_eq!(events[2].tags.device, Some(2));
        assert_eq!(events[3].name, "cache-hit");
        assert!((events[3].start_s - 12.5).abs() < 1e-12);
    }
}
