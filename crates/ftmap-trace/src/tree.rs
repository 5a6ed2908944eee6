//! Per-request causal trees, reassembled from the flat resolved event stream.
//!
//! The serve layer stamps every job with a trace id and threads it through
//! the whole request lifecycle ([`crate::Tags::trace`]):
//!
//! * `admit` instant on the queue track — admission at `admitted_v_s`;
//! * `job-batched` instant on the queue track — the job joined a formed
//!   batch (`batch_seq` tag);
//! * `dock` / `minimize` item spans on device tracks (with their anchored
//!   kernel / transfer / cache children, which inherit the scope tags and so
//!   carry the same trace id);
//! * `job-resolve` instant on the queue track — batch completion resolved the
//!   job (`latency_s` num = admission-to-completion modeled latency).
//!
//! [`build_request_trees`] groups a resolved event list (from
//! [`crate::Recorder::events`] or re-imported via
//! [`crate::import_chrome_trace`]) by trace id into [`RequestTrace`] values —
//! the input to `crate::critical_path` analysis.

use crate::event::{Category, TraceEvent};
use std::collections::BTreeMap;

/// Tolerance for containment tests between an item span and its children on
/// the modeled timeline (mirrors the reconstruction tests).
const EPS: f64 = 1e-9;

/// One scheduler work item (a `dock` or `minimize` span) executed on behalf
/// of a request, with its anchored leaf children.
#[derive(Debug, Clone)]
pub struct ItemNode {
    /// The item span itself (name `"dock"` or `"minimize"`, device track).
    pub span: TraceEvent,
    /// Leaf children (kernel / transfer / cache / marker events) recorded
    /// inside the item, in timeline order.
    pub children: Vec<TraceEvent>,
}

impl ItemNode {
    /// True for a dock-phase item.
    pub fn is_dock(&self) -> bool {
        self.span.name == "dock"
    }

    /// The entry (probe) index the item worked on, if tagged.
    pub fn entry(&self) -> Option<u32> {
        self.span.tags.probe
    }

    /// The item's ready instant (`ready_v_s` num): batch submit for dock
    /// items, the dock's completion for minimize items.
    pub fn ready_v_s(&self) -> Option<f64> {
        self.span.tags.nums.iter().find(|(k, _)| *k == "ready_v_s").map(|(_, v)| *v)
    }

    /// Sum of modeled transfer seconds among the children, split as
    /// `(upload_s, download_s)`.
    pub(crate) fn transfer_split_s(&self) -> (f64, f64) {
        let mut upload = 0.0;
        let mut download = 0.0;
        for child in &self.children {
            if child.cat == Category::Transfer {
                match child.name.as_str() {
                    "upload" => upload += child.dur_s,
                    "download" => download += child.dur_s,
                    _ => {}
                }
            }
        }
        (upload, download)
    }

    /// True when a residency-cache miss was recorded inside this item (its
    /// uploads paid a cache-miss penalty rather than steady-state staging).
    pub(crate) fn had_cache_miss(&self) -> bool {
        self.children.iter().any(|c| c.cat == Category::Cache && c.name == "cache-miss")
    }
}

/// The causal tree of one request: its lifecycle instants plus every
/// scheduler item that ran on its behalf.
#[derive(Debug, Clone, Default)]
pub struct RequestTrace {
    /// The request's trace id.
    pub trace_id: u64,
    /// Tenant tag, if the admit event carried one.
    pub tenant: Option<String>,
    /// Admission verdict name, if the admit event carried one
    /// (`"admitted"` / `"reprioritized"` / `"degraded"`; rejected requests
    /// never reach the queue, so their verdict only shows in metrics).
    pub verdict: Option<&'static str>,
    /// Latency class name.
    pub class: Option<&'static str>,
    /// Admission instant on the modeled timeline (`admit` event).
    pub admitted_v_s: Option<f64>,
    /// Batch-formation instant and the batch sequence number (`job-batched`).
    pub batched: Option<(f64, u64)>,
    /// Resolve instant (`job-resolve` = the batch's completion instant).
    pub resolved_v_s: Option<f64>,
    /// Admission-to-completion modeled latency as stamped by the serve layer
    /// (`latency_s` num on `job-resolve`).
    pub latency_modeled_s: Option<f64>,
    /// Scheduler items that ran for this request, in timeline order.
    pub items: Vec<ItemNode>,
}

impl RequestTrace {
    /// The request's admission-to-completion latency, preferring the stamped
    /// value and falling back to `resolved - admitted`.
    pub fn latency_s(&self) -> Option<f64> {
        self.latency_modeled_s.or(match (self.admitted_v_s, self.resolved_v_s) {
            (Some(a), Some(r)) => Some(r - a),
            _ => None,
        })
    }

    /// The item finishing last — the one that gates this request's batch
    /// completion from the request's own point of view.
    pub(crate) fn last_item(&self) -> Option<&ItemNode> {
        self.items.iter().max_by(|a, b| a.span.end_s().total_cmp(&b.span.end_s()))
    }

    /// The dock item for `entry`, if recorded.
    pub(crate) fn dock_for_entry(&self, entry: Option<u32>) -> Option<&ItemNode> {
        self.items.iter().find(|item| item.is_dock() && item.entry() == entry)
    }
}

fn is_item_span(event: &TraceEvent) -> bool {
    event.cat == Category::Sched
        && !event.is_instant()
        && (event.name == "dock" || event.name == "minimize")
}

fn is_leaf(event: &TraceEvent) -> bool {
    matches!(event.cat, Category::Kernel | Category::Transfer | Category::Cache)
        || (event.cat == Category::Sched && event.is_instant())
}

/// Groups a **resolved** event list by trace id into per-request causal
/// trees, ordered by trace id. Events without a trace tag (device utilisation
/// counters, batch lifecycle edges) are ignored; leaf events are attached to
/// the item span containing them on the same track.
pub fn build_request_trees(events: &[TraceEvent]) -> Vec<RequestTrace> {
    let mut trees: BTreeMap<u64, RequestTrace> = BTreeMap::new();
    fn tree(trees: &mut BTreeMap<u64, RequestTrace>, id: u64) -> &mut RequestTrace {
        trees.entry(id).or_insert_with(|| RequestTrace { trace_id: id, ..RequestTrace::default() })
    }
    // First pass: lifecycle instants and item spans.
    for event in events {
        let Some(id) = event.tags.trace else { continue };
        if is_item_span(event) {
            tree(&mut trees, id).items.push(ItemNode { span: event.clone(), children: Vec::new() });
            continue;
        }
        let node = tree(&mut trees, id);
        match event.name.as_str() {
            "admit" => {
                node.admitted_v_s = Some(event.start_s);
                node.tenant = event.tags.tenant.clone();
                node.verdict = node.verdict.or(event.tags.verdict);
                node.class = node.class.or(event.tags.class);
            }
            "job-batched" => {
                node.batched = Some((event.start_s, event.tags.batch_seq.unwrap_or(0)));
                node.class = node.class.or(event.tags.class);
            }
            "job-resolve" => {
                node.resolved_v_s = Some(event.start_s);
                node.class = node.class.or(event.tags.class);
                node.latency_modeled_s =
                    event.tags.nums.iter().find(|(k, _)| *k == "latency_s").map(|(_, v)| *v);
            }
            _ => {}
        }
    }
    // Second pass: attach leaves to the containing item on the same track.
    for event in events {
        let Some(id) = event.tags.trace else { continue };
        if is_item_span(event) || !is_leaf(event) {
            continue;
        }
        if let Some(node) = trees.get_mut(&id) {
            if let Some(item) = node.items.iter_mut().find(|item| {
                item.span.track == event.track
                    && event.start_s >= item.span.start_s - EPS
                    && event.end_s() <= item.span.end_s() + EPS
            }) {
                item.children.push(event.clone());
            }
        }
    }
    // Deterministic order within each tree.
    let mut out: Vec<RequestTrace> = trees.into_values().collect();
    for tree in &mut out {
        tree.items.sort_by(|a, b| a.span.start_s.total_cmp(&b.span.start_s));
        for item in &mut tree.items {
            item.children.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, Track};

    fn tagged(mut event: TraceEvent, trace: u64) -> TraceEvent {
        event.tags.trace = Some(trace);
        event
    }

    #[test]
    fn trees_group_lifecycle_items_and_children_by_trace_id() {
        let mut admit = tagged(TraceEvent::instant(Track::Queue, "admit", Category::Serve, 0.0), 5);
        admit.tags.tenant = Some("t".to_string());
        admit.tags.class = Some("bulk");
        admit.tags.verdict = Some("admitted");
        let mut batched =
            tagged(TraceEvent::instant(Track::Queue, "job-batched", Category::Serve, 0.1), 5);
        batched.tags.batch_seq = Some(3);
        let mut dock =
            tagged(TraceEvent::span(Track::Device(0), "dock", Category::Sched, 0.2, 0.4), 5);
        dock.tags.probe = Some(0);
        dock.tags.nums.push(("ready_v_s", 0.15));
        let upload =
            tagged(TraceEvent::span(Track::Device(0), "upload", Category::Transfer, 0.2, 0.1), 5);
        let miss =
            tagged(TraceEvent::instant(Track::Device(0), "cache-miss", Category::Cache, 0.2), 5);
        let mut resolve =
            tagged(TraceEvent::instant(Track::Queue, "job-resolve", Category::Serve, 0.9), 5);
        resolve.tags.nums.push(("latency_s", 0.9));
        let other = tagged(TraceEvent::instant(Track::Queue, "admit", Category::Serve, 0.05), 8);
        let untagged = TraceEvent::instant(Track::Queue, "queue_depth", Category::Serve, 0.0);

        let trees =
            build_request_trees(&[admit, batched, dock, upload, miss, resolve, other, untagged]);
        assert_eq!(trees.len(), 2);
        let tree = &trees[0];
        assert_eq!(tree.trace_id, 5);
        assert_eq!(tree.tenant.as_deref(), Some("t"));
        assert_eq!(tree.class, Some("bulk"));
        assert_eq!(tree.verdict, Some("admitted"));
        assert_eq!(tree.admitted_v_s, Some(0.0));
        assert_eq!(tree.batched, Some((0.1, 3)));
        assert_eq!(tree.resolved_v_s, Some(0.9));
        assert!((tree.latency_s().unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(tree.items.len(), 1);
        let item = &tree.items[0];
        assert!(item.is_dock());
        assert_eq!(item.entry(), Some(0));
        assert!((item.ready_v_s().unwrap() - 0.15).abs() < 1e-12);
        assert_eq!(item.children.len(), 2);
        assert!(item.had_cache_miss());
        let (up, down) = item.transfer_split_s();
        assert!((up - 0.1).abs() < 1e-12 && down == 0.0);
        assert_eq!(trees[1].trace_id, 8);
    }
}
