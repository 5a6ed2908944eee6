//! # ftmap-trace
//!
//! Tracing and metrics for the modeled GPU stack: a lock-cheap span/event
//! recorder on the **modeled virtual timeline**, a Chrome trace-event
//! (Perfetto) JSON exporter, and a Prometheus-style metrics registry.
//!
//! This crate sits *below* `gpu-sim` in the dependency graph: it knows nothing
//! about devices or schedulers, only about [`TraceEvent`]s on abstract
//! [`Track`]s. The layers above emit into a [`TraceSink`]:
//!
//! * schedulers (`gpu_sim::sched`) open an [`ItemScope`] around each work item
//!   and record the item's span once its virtual start/completion instants are
//!   known;
//! * leaf layers (kernel launches, transfers, residency lookups) call the
//!   [`hook`] free functions, which attach **anchored** sub-events to whatever
//!   item scope is active on the current thread — and cost one thread-local
//!   read when none is (the no-op default);
//! * the serve layer records queue/batch lifecycle events with absolute
//!   virtual instants and feeds the [`MetricsRegistry`].
//!
//! On top of the raw stream sit the request-centric analysis layers:
//! [`tree`] reassembles per-request **causal trees** from trace-id tags,
//! [`critical_path`] cuts each request's admission-to-completion latency
//! into exact summing segments and extracts its critical path (exported to
//! Perfetto as flow arrows), [`slo`] evaluates declarative latency
//! objectives as multi-window burn rates, and [`flight`] is the bounded
//! always-on ring sink that tail-samples full trees for slow requests only.
//!
//! Everything is keyed to modeled seconds; no wall clock enters any event or
//! metric.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod critical_path;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod recorder;
pub mod sanitize;
pub mod scope;
pub mod sink;
pub mod slo;
pub mod sync;
pub mod tree;

pub use critical_path::{analyze, analyze_all, Breakdown, CriticalPath, RequestAnalysis};
pub use event::{Anchor, Category, Tags, TraceEvent, Track};
pub use flight::FlightRecorder;
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use perfetto::{
    export_chrome_trace, export_chrome_trace_with_flows, import_chrome_trace, Flow,
};
pub use recorder::Recorder;
pub use sanitize::{sanitize, SanitizeReport, ScheduleViolation};
pub use scope::{hook, ItemScope};
pub use sink::{noop, TraceSink};
pub use slo::{
    AlertState, SampleVerdict, SloEngine, SloReport, SloSpec, SloStatus, PAGE_BURN, WARN_BURN,
};
pub use tree::{build_request_trees, ItemNode, RequestTrace};
