//! The sink trait instrumented layers emit into, and the no-op default.

use crate::event::TraceEvent;
use std::sync::Arc;

/// Receives trace events from instrumented layers.
///
/// The contract the instrumentation relies on: when [`TraceSink::enabled`]
/// returns `false`, callers skip event construction entirely — so a disabled
/// sink costs one virtual call (schedulers check once per item) or one
/// thread-local read (leaf hooks), never an allocation. [`noop`] returns the
/// canonical disabled sink, the default everywhere a sink is optional.
pub trait TraceSink: Send + Sync {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. Must be cheap and safe to call from any worker
    /// thread concurrently.
    fn record(&self, event: TraceEvent);

    /// How many recorded events this sink has since lost — orphaned anchored
    /// sub-events a [`crate::Recorder`] dropped at resolve time, or ring
    /// evictions in a bounded flight recorder. Trace data loss must itself be
    /// observable; the serve layer exports this as a gauge. Defaults to 0 for
    /// sinks that never drop.
    fn dropped_events(&self) -> u64 {
        0
    }
}

/// The disabled sink: [`TraceSink::enabled`] is `false` and
/// [`TraceSink::record`] drops events (it is never reached by well-behaved
/// callers).
struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

/// A shared handle to the no-op sink — the default for every `with_trace`
/// seam in the stack.
pub fn noop() -> Arc<dyn TraceSink> {
    Arc::new(NoopSink)
}
