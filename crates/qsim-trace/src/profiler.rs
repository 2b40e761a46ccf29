//! Span collection: the [`Profiler`] is a [`TraceSink`] that buffers every
//! device activity, like `rocprof` recording an application run.

use std::sync::{Mutex, MutexGuard, PoisonError};

use gpu_model::trace::{TraceSink, TraceSpan};

/// Collects trace spans from one or more simulated devices.
///
/// Wrap in an `Arc` and hand to `Gpu::with_trace` /
/// `SimBackend::with_trace`; afterwards read the spans back with
/// [`Profiler::spans`] or export with [`crate::perfetto::to_json`].
#[derive(Default)]
pub struct Profiler {
    spans: Mutex<Vec<TraceSpan>>,
}

impl Profiler {
    /// Empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all spans recorded so far, in enqueue order.
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.lock().clone()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drop all recorded spans (e.g. between benchmark repetitions).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// The span buffer, recovered if a panicking holder poisoned the lock.
    fn lock(&self) -> MutexGuard<'_, Vec<TraceSpan>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl TraceSink for Profiler {
    fn record(&self, span: TraceSpan) {
        self.lock().push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::trace::SpanKind;

    fn span(name: &str, start: f64) -> TraceSpan {
        TraceSpan {
            name: name.into(),
            kind: SpanKind::Kernel,
            stream: 0,
            start_us: start,
            dur_us: 1.0,
            device: "dev".into(),
        }
    }

    #[test]
    fn collects_in_order() {
        let p = Profiler::new();
        assert!(p.is_empty());
        p.record(span("A", 0.0));
        p.record(span("B", 1.0));
        assert_eq!(p.len(), 2);
        let spans = p.spans();
        assert_eq!(spans[0].name, "A");
        assert_eq!(spans[1].name, "B");
    }

    #[test]
    fn clear_resets() {
        let p = Profiler::new();
        p.record(span("A", 0.0));
        p.clear();
        assert!(p.is_empty());
    }
}
