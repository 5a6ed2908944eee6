//! Declarative latency SLOs evaluated as multi-window burn rates.
//!
//! An [`SloSpec`] states the contract per latency class: "`objective` of
//! requests complete within `target_s` modeled seconds" (e.g. 99% of
//! interactive requests under 100 ms). The error *budget* is `1 - objective`;
//! the **burn rate** is how fast observed breaches consume it:
//!
//! ```text
//! burn = error_rate / (1 - objective)
//! ```
//!
//! A burn of 1.0 spends the budget exactly at the sustainable pace; 2.0
//! spends it twice as fast. Following the multi-window alerting pattern, the
//! engine evaluates the burn over two windows and only raises an alert when
//! **both** agree — a long window (the cumulative per-class latency histogram
//! in the [`MetricsRegistry`]) filters noise, a short
//! window (the most recent 32 samples, `SHORT_WINDOW`) makes the alert reset
//! quickly once the condition clears:
//!
//! * [`AlertState::Page`] — both windows burn ≥ [`PAGE_BURN`];
//! * [`AlertState::Warn`] — both windows burn ≥ 1.0 (`WARN_BURN`);
//! * [`AlertState::Ok`] — otherwise.
//!
//! All timing is modeled seconds; the engine never reads a wall clock.

use crate::metrics::{Histogram, MetricsRegistry};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Samples in the short (recent) evaluation window.
const SHORT_WINDOW: usize = 32;
/// Burn-rate threshold (on both windows) for [`AlertState::Warn`].
pub(crate) const WARN_BURN: f64 = 1.0;
/// Burn-rate threshold (on both windows) for [`AlertState::Page`].
pub const PAGE_BURN: f64 = 2.0;
/// Minimum long-window samples before p99-outlier tail-sampling activates
/// (below this the quantile estimate is mostly bucket shape).
const MIN_OUTLIER_SAMPLES: u64 = 16;

/// One declarative latency objective: "`objective` of `class` requests
/// complete within `target_s` modeled seconds".
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Latency class name the objective applies to (`"interactive"`, `"bulk"`).
    pub class: String,
    /// Latency target in modeled seconds.
    pub target_s: f64,
    /// Fraction of requests that must meet the target, in `(0, 1)` —
    /// e.g. `0.99`.
    pub objective: f64,
}

impl SloSpec {
    /// A spec for `class`: `objective` of requests under `target_s`.
    pub fn new(class: impl Into<String>, target_s: f64, objective: f64) -> Self {
        SloSpec { class: class.into(), target_s, objective }
    }

    /// The error budget, floored away from zero so burn rates stay finite.
    fn budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }
}

/// Alert state of one SLO, derived from the two burn-rate windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlertState {
    /// Burning within budget.
    #[default]
    Ok,
    /// Both windows burn at ≥ 1.0.
    Warn,
    /// Both windows burn at ≥ [`PAGE_BURN`].
    Page,
}

impl AlertState {
    /// Gauge encoding: Ok = 0, Warn = 1, Page = 2.
    fn as_gauge(self) -> f64 {
        match self {
            AlertState::Ok => 0.0,
            AlertState::Warn => 1.0,
            AlertState::Page => 2.0,
        }
    }

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warn => "warn",
            AlertState::Page => "page",
        }
    }
}

/// Evaluated status of one SLO at a point in time.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The objective being evaluated.
    pub spec: SloSpec,
    /// Long-window sample count.
    pub samples: u64,
    /// Long-window breach count (latency > target).
    pub breaches: u64,
    /// Long-window error rate (`breaches / samples`; 0 when empty).
    pub error_rate: f64,
    /// Long-window burn rate.
    pub burn_long: f64,
    /// Short-window burn rate (last 32 samples).
    pub burn_short: f64,
    /// Long-window p99 latency estimate, when a histogram was available.
    pub p99_s: Option<f64>,
    /// The derived alert state.
    pub state: AlertState,
}

/// Point-in-time evaluation of every configured SLO — carried on the serve
/// layer's `ServeStats`.
#[derive(Debug, Clone, Default)]
pub struct SloReport {
    /// One status per configured spec, in spec order.
    pub classes: Vec<SloStatus>,
}

impl SloReport {
    /// The worst alert state across classes ([`AlertState::Ok`] when no SLOs
    /// are configured).
    pub fn worst_state(&self) -> AlertState {
        self.classes.iter().map(|s| s.state).max_by_key(|s| s.as_gauge() as u8).unwrap_or_default()
    }

    /// The status for `class`, if configured.
    pub fn class(&self, class: &str) -> Option<&SloStatus> {
        self.classes.iter().find(|s| s.spec.class == class)
    }

    /// Exports burn rates and alert states as gauges:
    /// `{prefix}_burn_rate{class,window}` and `{prefix}_alert_state{class}`.
    pub fn export_gauges(&self, registry: &MetricsRegistry, prefix: &str) {
        for status in &self.classes {
            let class = status.spec.class.as_str();
            registry.gauge_set(
                &format!("{prefix}_burn_rate"),
                &[("class", class), ("window", "long")],
                status.burn_long,
            );
            registry.gauge_set(
                &format!("{prefix}_burn_rate"),
                &[("class", class), ("window", "short")],
                status.burn_short,
            );
            registry.gauge_set(
                &format!("{prefix}_alert_state"),
                &[("class", class)],
                status.state.as_gauge(),
            );
        }
    }
}

/// Verdict on a single completed request — drives flight-recorder
/// tail-sampling.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleVerdict {
    /// The request exceeded its class's SLO target.
    pub breach: bool,
    /// The request exceeded the long-window p99 for its class (with at least
    /// 16 prior samples).
    pub outlier: bool,
}

impl SampleVerdict {
    /// True when the request should be retained by tail-sampling.
    pub fn retain(&self) -> bool {
        self.breach || self.outlier
    }
}

#[derive(Debug, Default)]
struct ClassWindow {
    recent: VecDeque<f64>,
    samples: u64,
    breaches: u64,
}

/// Evaluates [`SloSpec`]s over observed per-request latencies: a short
/// in-engine sample window plus the long-window histograms the caller feeds
/// in at evaluation time.
#[derive(Debug, Default)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    windows: BTreeMap<String, ClassWindow>,
}

impl SloEngine {
    /// An engine for the given objectives.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        SloEngine { specs, windows: BTreeMap::new() }
    }

    /// The objective for `class`, if configured.
    fn spec_for(&self, class: &str) -> Option<&SloSpec> {
        self.specs.iter().find(|s| s.class == class)
    }

    /// Records one completed request's latency and classifies it for
    /// tail-sampling. `long_window` is the class's cumulative latency
    /// histogram (p99 source), when available; the observation itself is
    /// *not* yet part of it when the serve layer calls this before recording
    /// the metric, which is exactly the comparison tail-sampling wants.
    pub fn observe(
        &mut self,
        class: &str,
        latency_s: f64,
        long_window: Option<&Histogram>,
    ) -> SampleVerdict {
        let Some(spec) = self.spec_for(class).cloned() else {
            return SampleVerdict::default();
        };
        let breach = latency_s > spec.target_s;
        let outlier = long_window
            .filter(|h| h.count >= MIN_OUTLIER_SAMPLES)
            .and_then(|h| h.quantile(0.99))
            .map(|p99| latency_s > p99)
            .unwrap_or(false);
        let window = self.windows.entry(spec.class.clone()).or_default();
        window.samples += 1;
        window.breaches += breach as u64;
        window.recent.push_back(latency_s);
        while window.recent.len() > SHORT_WINDOW {
            window.recent.pop_front();
        }
        SampleVerdict { breach, outlier }
    }

    /// Evaluates every configured SLO. `long_window` maps a class name to
    /// its cumulative latency histogram (typically from a
    /// [`MetricsSnapshot`](crate::MetricsSnapshot)); when absent the engine's
    /// own cumulative counters stand in.
    pub fn evaluate<'h>(
        &self,
        mut long_window: impl FnMut(&str) -> Option<&'h Histogram>,
    ) -> SloReport {
        let classes = self
            .specs
            .iter()
            .map(|spec| {
                let window = self.windows.get(&spec.class);
                let hist = long_window(&spec.class);
                let (samples, error_rate, p99_s) = match hist {
                    Some(h) if h.count > 0 => {
                        (h.count, 1.0 - h.fraction_le(spec.target_s), h.quantile(0.99))
                    }
                    _ => {
                        let (samples, breaches) =
                            window.map(|w| (w.samples, w.breaches)).unwrap_or((0, 0));
                        let rate = if samples > 0 { breaches as f64 / samples as f64 } else { 0.0 };
                        (samples, rate, None)
                    }
                };
                let breaches = window.map(|w| w.breaches).unwrap_or(0);
                let burn_long = error_rate / spec.budget();
                let burn_short = window
                    .filter(|w| !w.recent.is_empty())
                    .map(|w| {
                        let recent_breaches =
                            w.recent.iter().filter(|&&l| l > spec.target_s).count();
                        (recent_breaches as f64 / w.recent.len() as f64) / spec.budget()
                    })
                    .unwrap_or(0.0);
                let state = if burn_long >= PAGE_BURN && burn_short >= PAGE_BURN {
                    AlertState::Page
                } else if burn_long >= WARN_BURN && burn_short >= WARN_BURN {
                    AlertState::Warn
                } else {
                    AlertState::Ok
                };
                SloStatus {
                    spec: spec.clone(),
                    samples,
                    breaches,
                    error_rate,
                    burn_long,
                    burn_short,
                    p99_s,
                    state,
                }
            })
            .collect();
        SloReport { classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn burn_rates_and_states_from_engine_windows() {
        let mut engine = SloEngine::new(vec![
            SloSpec::new("interactive", 0.1, 0.9),
            SloSpec::new("bulk", 1.0, 0.5),
        ]);
        // interactive: 4 of 8 breach → error 0.5, budget 0.1 → burn 5.0 on
        // both windows → Page.
        for latency in [0.05, 0.2, 0.05, 0.2, 0.05, 0.2, 0.05, 0.2] {
            let verdict = engine.observe("interactive", latency, None);
            assert_eq!(verdict.breach, latency > 0.1);
        }
        // bulk: no breaches → Ok.
        for _ in 0..4 {
            assert!(!engine.observe("bulk", 0.5, None).breach);
        }
        // Unconfigured classes are ignored.
        assert!(!engine.observe("background", 100.0, None).retain());
        let report = engine.evaluate(|_| None);
        assert_eq!(report.classes.len(), 2);
        let interactive = report.class("interactive").expect("status");
        assert_eq!(interactive.samples, 8);
        assert_eq!(interactive.breaches, 4);
        assert!((interactive.burn_long - 5.0).abs() < 1e-9);
        assert!((interactive.burn_short - 5.0).abs() < 1e-9);
        assert_eq!(interactive.state, AlertState::Page);
        assert_eq!(report.class("bulk").expect("status").state, AlertState::Ok);
        assert_eq!(report.worst_state(), AlertState::Page);
    }

    #[test]
    fn long_window_prefers_registry_histogram() {
        let registry = MetricsRegistry::new();
        let bounds = [0.1, 1.0];
        // 1 of 10 over target 0.1 → error 0.1, budget 0.1 → burn 1.0 long.
        for i in 0..10 {
            registry.observe(
                "latency",
                &[("class", "interactive")],
                &bounds,
                if i == 0 { 0.5 } else { 0.05 },
            );
        }
        let snap = registry.snapshot();
        let mut engine = SloEngine::new(vec![SloSpec::new("interactive", 0.1, 0.9)]);
        // Short window all-breaching → burn 10 short, but long window gates
        // the state at Warn (long burn exactly 1.0 < PAGE_BURN).
        for _ in 0..4 {
            engine.observe("interactive", 0.5, None);
        }
        let report = engine.evaluate(|class| snap.histogram("latency", &[("class", class)]));
        let status = report.class("interactive").expect("status");
        assert_eq!(status.samples, 10);
        assert!((status.error_rate - 0.1).abs() < 1e-9);
        assert!((status.burn_long - 1.0).abs() < 1e-9);
        assert!(status.burn_short > PAGE_BURN);
        assert_eq!(status.state, AlertState::Warn);
        assert!(status.p99_s.is_some());
    }

    #[test]
    fn outlier_detection_needs_enough_samples() {
        let registry = MetricsRegistry::new();
        let bounds = [0.1, 1.0];
        let mut engine = SloEngine::new(vec![SloSpec::new("bulk", 10.0, 0.9)]);
        // Below MIN_OUTLIER_SAMPLES: never an outlier.
        for _ in 0..4 {
            registry.observe("latency", &[("class", "bulk")], &bounds, 0.05);
        }
        let snap = registry.snapshot();
        let hist = snap.histogram("latency", &[("class", "bulk")]);
        assert!(!engine.observe("bulk", 5.0, hist).outlier);
        for _ in 0..MIN_OUTLIER_SAMPLES {
            registry.observe("latency", &[("class", "bulk")], &bounds, 0.05);
        }
        let snap = registry.snapshot();
        let hist = snap.histogram("latency", &[("class", "bulk")]);
        // 5.0 ≫ p99 of a distribution entirely under 0.1 — outlier, and
        // retained even though it meets the (loose) target.
        let verdict = engine.observe("bulk", 5.0, hist);
        assert!(verdict.outlier && !verdict.breach && verdict.retain());
    }

    #[test]
    fn gauges_export_burn_and_state() {
        let mut engine = SloEngine::new(vec![SloSpec::new("interactive", 0.1, 0.9)]);
        engine.observe("interactive", 0.2, None);
        let report = engine.evaluate(|_| None);
        let registry = MetricsRegistry::new();
        report.export_gauges(&registry, "ftmap_serve_slo");
        let snap = registry.snapshot();
        assert!(snap
            .gauge("ftmap_serve_slo_burn_rate", &[("class", "interactive"), ("window", "long")])
            .is_some());
        assert!(snap
            .gauge("ftmap_serve_slo_burn_rate", &[("class", "interactive"), ("window", "short")])
            .is_some());
        assert_eq!(
            snap.gauge("ftmap_serve_slo_alert_state", &[("class", "interactive")]),
            Some(2.0)
        );
    }
}
