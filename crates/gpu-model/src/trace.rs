//! Trace hooks: every kernel launch and memcpy the runtime schedules is
//! reported to an optional [`TraceSink`]. The `qsim-trace` crate
//! implements a sink that exports Perfetto/Chrome trace-event JSON — the
//! rocprof + Perfetto UI workflow of the paper's Figures 1 and 6.

/// What kind of device activity a span records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A kernel execution.
    Kernel,
    /// `hipMemcpyAsync` host → device.
    MemcpyH2D,
    /// `hipMemcpyAsync` device → host.
    MemcpyD2H,
    /// Device-to-device copy.
    MemcpyD2D,
}

impl SpanKind {
    /// Label used in trace output.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::MemcpyH2D => "hipMemcpyAsync (H2D)",
            SpanKind::MemcpyD2H => "hipMemcpyAsync (D2H)",
            SpanKind::MemcpyD2D => "hipMemcpy (D2D)",
        }
    }
}

/// One completed device activity on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Kernel symbol (e.g. `ApplyGateH_Kernel`) or memcpy label.
    pub name: String,
    /// Activity kind.
    pub kind: SpanKind,
    /// Stream the activity ran on.
    pub stream: usize,
    /// Simulated start time, µs.
    pub start_us: f64,
    /// Simulated duration, µs.
    pub dur_us: f64,
    /// Device name (trace "process").
    pub device: String,
}

/// Receiver for trace spans. Implementations must be thread-safe; the
/// runtime calls `record` inline at enqueue time.
pub trait TraceSink: Send + Sync {
    /// Record one completed span.
    fn record(&self, span: TraceSpan);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::Mutex;

    #[derive(Default)]
    struct VecSink(Mutex<Vec<TraceSpan>>);

    impl TraceSink for VecSink {
        fn record(&self, span: TraceSpan) {
            self.0.lock().unwrap().push(span);
        }
    }

    #[test]
    fn sink_collects_spans() {
        let sink = Arc::new(VecSink::default());
        let s: Arc<dyn TraceSink> = sink.clone();
        s.record(TraceSpan {
            name: "ApplyGateH_Kernel".into(),
            kind: SpanKind::Kernel,
            stream: 0,
            start_us: 1.0,
            dur_us: 2.0,
            device: "test".into(),
        });
        assert_eq!(sink.0.lock().unwrap().len(), 1);
        assert_eq!(sink.0.lock().unwrap()[0].name, "ApplyGateH_Kernel");
    }

    #[test]
    fn labels() {
        assert_eq!(SpanKind::Kernel.label(), "kernel");
        assert!(SpanKind::MemcpyH2D.label().contains("H2D"));
        assert!(SpanKind::MemcpyD2H.label().contains("D2H"));
    }
}
