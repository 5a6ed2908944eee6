//! A small metrics registry: counters, gauges, and fixed-bucket histograms,
//! with a Prometheus-style text exposition.
//!
//! Everything is fed from **modeled instants and modeled durations** — no
//! wall clock. Metric identity is `(name, sorted label pairs)`; the render is
//! deterministic (BTreeMap order) so snapshots diff cleanly.

use crate::sync::locked;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Metric identity: name plus sorted label pairs. Shared, so a snapshot
/// copies a pointer per series instead of every name and label string.
type Key = Arc<(String, Vec<(String, String)>)>;

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut pairs: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    pairs.sort();
    Arc::new((name.to_string(), pairs))
}

/// A fixed-bucket histogram: counts of observations ≤ each upper bound, plus
/// sum and count (Prometheus histogram semantics, cumulative buckets at
/// render time).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the buckets, ascending. An implicit `+Inf` bucket
    /// catches the rest.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts, one per bound plus the
    /// overflow bucket (`counts.len() == bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0, count: 0 }
    }

    fn observe(&mut self, value: f64) {
        let slot = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Cumulative count of observations ≤ `bounds[i]` (Prometheus `le`
    /// semantics); `i == bounds.len()` is the `+Inf` bucket (== `count`).
    pub fn cumulative(&self, i: usize) -> u64 {
        self.counts.iter().take(i + 1).sum()
    }

    /// Fraction of observations ≤ `value` (the empirical CDF at a bucket
    /// boundary). `value` is rounded **up** to the nearest bucket bound, the
    /// resolution the histogram actually has; exact when `value` is a bound.
    /// Returns 1.0 for an empty histogram (no observations ⇒ no breaches).
    pub fn fraction_le(&self, value: f64) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.cumulative(i) as f64 / self.count as f64,
            None => 1.0,
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) estimated Prometheus
    /// `histogram_quantile`-style: find the first bucket whose cumulative
    /// count reaches `q·count`, then interpolate linearly within it (the first
    /// bucket's lower bound is 0). Exact at bucket bounds: if exactly a
    /// fraction `q` of observations are ≤ `bounds[i]`, returns `bounds[i]`.
    /// Quantiles landing in the `+Inf` overflow bucket clamp to the last
    /// finite bound. Returns `None` for an empty histogram or `q` outside
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            let lower_cumulative = cumulative;
            cumulative += bucket_count;
            if (cumulative as f64) < rank {
                continue;
            }
            if i == self.bounds.len() {
                // Overflow bucket: no finite upper bound to interpolate
                // toward; clamp like histogram_quantile does.
                return self.bounds.last().copied();
            }
            let upper = self.bounds[i];
            let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            if bucket_count == 0 {
                return Some(upper);
            }
            let within = (rank - lower_cumulative as f64) / bucket_count as f64;
            return Some(lower + (upper - lower) * within);
        }
        self.bounds.last().copied()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, f64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// A shared, thread-safe metrics registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `value` to the counter `name{labels}` (created at 0).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        *locked(&self.inner).counters.entry(key(name, labels)).or_insert(0.0) += value;
    }

    /// Sets the gauge `name{labels}`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        locked(&self.inner).gauges.insert(key(name, labels), value);
    }

    /// Observes `value` into the histogram `name{labels}` with the given
    /// bucket upper bounds (bounds are fixed on first observation).
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
        locked(&self.inner)
            .histograms
            .entry(key(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = locked(&self.inner);
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// A cloneable point-in-time view of a [`MetricsRegistry`], carried on
/// service stats and rendered with
/// [`prometheus`](MetricsSnapshot::prometheus).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<Key, f64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// Escapes a label value per the Prometheus text exposition format: backslash
/// first (so later escapes aren't double-escaped), then newline, then quote.
fn escape_label_value(value: &str) -> String {
    value.replace('\\', "\\\\").replace('\n', "\\n").replace('"', "\\\"")
}

fn labels_text(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    format!("{{{}}}", body.join(","))
}

impl MetricsSnapshot {
    /// The counter value, if recorded.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.counters.get(&key(name, labels)).copied()
    }

    /// The gauge value, if recorded.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&key(name, labels)).copied()
    }

    /// The histogram, if recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&key(name, labels))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# TYPE` headers, `name{labels} value` samples, histograms as
    /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for (key, value) in &self.counters {
            let (name, labels) = &**key;
            if *name != last_name {
                let _ = writeln!(out, "# TYPE {name} counter");
                last_name = name.clone();
            }
            let _ = writeln!(out, "{name}{} {value}", labels_text(labels));
        }
        last_name.clear();
        for (key, value) in &self.gauges {
            let (name, labels) = &**key;
            if *name != last_name {
                let _ = writeln!(out, "# TYPE {name} gauge");
                last_name = name.clone();
            }
            let _ = writeln!(out, "{name}{} {value}", labels_text(labels));
        }
        last_name.clear();
        for (key, hist) in &self.histograms {
            let (name, labels) = &**key;
            if *name != last_name {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last_name = name.clone();
            }
            for (i, bound) in hist.bounds.iter().enumerate() {
                let mut with_le = labels.clone();
                with_le.push(("le".to_string(), format!("{bound}")));
                with_le.sort();
                let _ =
                    writeln!(out, "{name}_bucket{} {}", labels_text(&with_le), hist.cumulative(i));
            }
            let mut with_inf = labels.clone();
            with_inf.push(("le".to_string(), "+Inf".to_string()));
            with_inf.sort();
            let _ = writeln!(out, "{name}_bucket{} {}", labels_text(&with_inf), hist.count);
            let _ = writeln!(out, "{name}_sum{} {}", labels_text(labels), hist.sum);
            let _ = writeln!(out, "{name}_count{} {}", labels_text(labels), hist.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let registry = MetricsRegistry::new();
        registry.counter_add("jobs_total", &[("class", "bulk")], 1.0);
        registry.counter_add("jobs_total", &[("class", "bulk")], 2.0);
        registry.gauge_set("queue_depth", &[], 5.0);
        let bounds = [0.1, 1.0, 10.0];
        for v in [0.05, 0.5, 0.5, 100.0] {
            registry.observe("latency_s", &[("class", "bulk")], &bounds, v);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("jobs_total", &[("class", "bulk")]), Some(3.0));
        assert_eq!(snap.gauge("queue_depth", &[]), Some(5.0));
        let hist = snap.histogram("latency_s", &[("class", "bulk")]).expect("histogram");
        assert_eq!(hist.count, 4);
        assert_eq!(hist.cumulative(0), 1);
        assert_eq!(hist.cumulative(1), 3);
        assert_eq!(hist.cumulative(2), 3);
        assert!((hist.sum - 101.05).abs() < 1e-9);
        // Label order never matters.
        registry.gauge_set("multi", &[("a", "1"), ("b", "2")], 7.0);
        assert_eq!(registry.snapshot().gauge("multi", &[("b", "2"), ("a", "1")]), Some(7.0));
    }

    #[test]
    fn prometheus_text_exposition_shape() {
        let registry = MetricsRegistry::new();
        registry.counter_add("ftmap_jobs_total", &[("class", "interactive")], 4.0);
        registry.gauge_set("ftmap_queue_depth", &[], 2.0);
        registry.observe("ftmap_latency_seconds", &[], &[0.5], 0.25);
        let text = registry.snapshot().prometheus();
        assert!(text.contains("# TYPE ftmap_jobs_total counter"));
        assert!(text.contains("ftmap_jobs_total{class=\"interactive\"} 4"));
        assert!(text.contains("# TYPE ftmap_queue_depth gauge"));
        assert!(text.contains("ftmap_queue_depth 2"));
        assert!(text.contains("ftmap_latency_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("ftmap_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ftmap_latency_seconds_sum 0.25"));
        assert!(text.contains("ftmap_latency_seconds_count 1"));
    }

    #[test]
    fn label_values_escape_backslash_newline_and_quote() {
        let registry = MetricsRegistry::new();
        registry.gauge_set("g", &[("tenant", "a\\b\n\"c\"")], 1.0);
        let text = registry.snapshot().prometheus();
        // Exposition format: backslash → \\, newline → \n, quote → \". The
        // backslash must be escaped first so the others aren't double-escaped.
        assert!(
            text.contains(r#"g{tenant="a\\b\n\"c\""} 1"#),
            "unexpected exposition line in:\n{text}"
        );
        // A value that is itself a literal `\n` (backslash + n) must stay
        // distinguishable from a newline: it renders as `\\n`, not `\n`.
        let registry = MetricsRegistry::new();
        registry.gauge_set("g", &[("tenant", "\\n")], 1.0);
        let text = registry.snapshot().prometheus();
        assert!(text.contains(r#"g{tenant="\\n"} 1"#), "unexpected exposition line in:\n{text}");
    }

    #[test]
    fn quantile_interpolates_and_is_exact_at_bounds() {
        let registry = MetricsRegistry::new();
        let bounds = [1.0, 2.0, 4.0];
        // 2 obs in (0,1], 2 in (1,2], 4 in (2,4]: CDF is 0.25 @1, 0.5 @2, 1.0 @4.
        for v in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0] {
            registry.observe("h", &[], &bounds, v);
        }
        let snap = registry.snapshot();
        let hist = snap.histogram("h", &[]).expect("histogram");
        // Exact at bucket bounds.
        assert!((hist.quantile(0.25).unwrap() - 1.0).abs() < 1e-12);
        assert!((hist.quantile(0.5).unwrap() - 2.0).abs() < 1e-12);
        assert!((hist.quantile(1.0).unwrap() - 4.0).abs() < 1e-12);
        // Linear interpolation inside a bucket: q=0.75 is rank 6 of 8 —
        // halfway through the (2,4] bucket of 4 observations → 3.0.
        assert!((hist.quantile(0.75).unwrap() - 3.0).abs() < 1e-12);
        // First bucket interpolates from lower bound 0.
        assert!((hist.quantile(0.125).unwrap() - 0.5).abs() < 1e-12);
        // q=0 is the distribution floor.
        assert!((hist.quantile(0.0).unwrap() - 0.0).abs() < 1e-12);
        // Out-of-range q is rejected.
        assert_eq!(hist.quantile(1.5), None);
        // fraction_le is exact at bounds and rounds interior values up.
        assert!((hist.fraction_le(2.0) - 0.5).abs() < 1e-12);
        assert!((hist.fraction_le(1.5) - 0.5).abs() < 1e-12);
        assert!((hist.fraction_le(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_overflow_and_handles_empty() {
        let registry = MetricsRegistry::new();
        let bounds = [1.0, 2.0];
        registry.observe("h", &[], &bounds, 0.5);
        registry.observe("h", &[], &bounds, 50.0); // overflow bucket
        let snap = registry.snapshot();
        let hist = snap.histogram("h", &[]).expect("histogram");
        // The p100 lands in +Inf: clamp to the last finite bound.
        assert!((hist.quantile(1.0).unwrap() - 2.0).abs() < 1e-12);
        let empty = Histogram::new(&bounds);
        assert_eq!(empty.quantile(0.5), None);
        assert!((empty.fraction_le(1.0) - 1.0).abs() < 1e-12);
    }
}
