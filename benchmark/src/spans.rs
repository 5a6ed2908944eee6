//! Benchmark-side spans: wall-clock intervals recorded around the calls the
//! harness makes into each layer.
//!
//! Nothing inside the ten crates is instrumented in wall time (their own
//! trace stack is on the modeled timeline), so the traced run wraps each call
//! across a layer boundary in a span here. Spans are kept in memory, written
//! out once when the run ends, and reduced to per-name *self time*: a span's
//! duration minus the part of it its child spans cover.

use crate::clock::Tick;
use std::collections::BTreeMap;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name (`"ftmap-core.dock_probe_shard"`, …).
    pub name: &'static str,
    /// Index of the span that caused this one (`None` for a request root).
    pub parent: Option<usize>,
    /// Request (round) identifier shared by every span of one request.
    pub request: u64,
    /// Start, seconds since the recorder's origin.
    pub start_s: f64,
    /// End, seconds since the recorder's origin.
    pub end_s: f64,
}

/// An in-memory span recorder for the single load-generating thread.
#[derive(Debug)]
pub struct Spans {
    origin: Tick,
    enabled: bool,
    request: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; when `enabled` is false [`Spans::scope`] only runs its body.
    pub fn new(enabled: bool) -> Self {
        Spans { origin: Tick::now(), enabled, request: 0, spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether this recorder records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request identifier stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `body` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return body(self);
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_s = Tick::now().since(self.origin);
        self.spans.push(Span { name, parent, request: self.request, start_s, end_s: start_s });
        self.stack.push(index);
        let out = body(self);
        self.stack.pop();
        self.spans[index].end_s = Tick::now().since(self.origin);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `name`, `parent`, `request`, `start_s`, `end_s`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_s\":{:.9},\"end_s\":{:.9}}}\n",
                span.name, parent, span.request, span.start_s, span.end_s
            ));
        }
        out
    }
}

/// Total self time per span name: each span's duration minus the union of
/// its direct children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_s, span.end_s));
        }
    }
    let mut totals = BTreeMap::new();
    for (span, mut kids) in spans.iter().zip(children) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = span.start_s;
        for (start, end) in kids {
            let start = start.max(cursor);
            let end = end.min(span.end_s);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        *totals.entry(span.name).or_insert(0.0) += (span.end_s - span.start_s - covered).max(0.0);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span { name, parent, request: 0, start_s, end_s }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = [
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            // Overlaps `a` by one second: the union covers 1..6, not 3 + 3.
            span("a", Some(0), 3.0, 6.0),
            span("leaf", Some(1), 2.0, 3.0),
            // Sticks out past its parent: only the clipped part counts.
            span("b", Some(0), 9.0, 12.0),
        ];
        let totals = self_times(&spans);
        assert!((totals["root"] - 4.0).abs() < 1e-12, "10 - (5 + 1) = 4, got {}", totals["root"]);
        assert!((totals["a"] - 5.0).abs() < 1e-12, "(3 - 1) + 3 = 5, got {}", totals["a"]);
        assert!((totals["leaf"] - 1.0).abs() < 1e-12);
        assert!((totals["b"] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn scopes_nest_and_disabled_recorders_record_nothing() {
        let mut spans = Spans::new(true);
        spans.set_request(7);
        let out = spans.scope("outer", |s| s.scope("inner", |_| 41) + 1);
        assert_eq!(out, 42);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 2);
        assert_eq!((recorded[0].name, recorded[0].parent), ("outer", None));
        assert_eq!((recorded[1].name, recorded[1].parent), ("inner", Some(0)));
        assert!(recorded[0].start_s <= recorded[1].start_s);
        assert!(recorded[1].end_s <= recorded[0].end_s);
        assert_eq!(recorded[1].request, 7);
        assert_eq!(spans.to_json_lines().lines().count(), 2);

        let mut off = Spans::new(false);
        assert_eq!(off.scope("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
