//! In-memory span recorder owned by the harness.
//!
//! The harness sees the program only from outside, so a span is one
//! call into a layer's public function (or, on the serve path, one
//! stage of a job as the client observes it). Spans carry the layer
//! they belong to, the pass or job they serve, and the span that caused
//! them. They stay in memory until the workload ends and are then
//! written as one Chrome/Perfetto trace file.
//!
//! A recorder that is switched off records nothing, so the untraced run
//! that yields the end-to-end metrics pays one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its recorder.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (crate) the call went into, e.g. `qsim-fusion`.
    pub layer: &'static str,
    /// What was called, e.g. `plan_circuit`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Pass or job the span belongs to.
    pub op: u64,
    /// Placed from numbers the program reported (a job's `wall_seconds`),
    /// not from clock readings the harness took at both ends.
    pub derived: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and count recorder. See the module documentation.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn on() -> Recorder {
        Recorder::new(true)
    }

    /// A recorder that drops everything (the untraced run).
    pub fn off() -> Recorder {
        Recorder::new(false)
    }

    fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now, as a child of the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
            derived: false,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span [`Recorder::begin`] returned. Spans close in the
    /// reverse order they opened.
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Record a finished interval with explicit ends and parent: job
    /// stages overlap other jobs, so they cannot use the open-span stack.
    pub fn add(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        (start, end): (Instant, Instant),
        parent: Option<SpanId>,
        derived: bool,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
            derived,
        });
        Some(self.spans.len() - 1)
    }

    /// Add to a named count, taken at the same boundary as a span.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover. Children are clipped to the
    /// parent and overlapping children are counted once.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Self time summed per layer, seconds.
    pub fn layer_self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.layer).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Sum of all self times over the sum of root durations. 1 when
    /// every child lies inside its parent and siblings do not overlap.
    pub fn self_sum_frac(&self) -> f64 {
        let roots: u64 = self.spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum();
        if roots == 0 {
            return 0.0;
        }
        self.self_times_ns().iter().sum::<u64>() as f64 / roots as f64
    }

    /// Write the spans as Chrome trace-event JSON (loads in Perfetto and
    /// `chrome://tracing`). One track per lane of non-overlapping root
    /// spans; children share their root's track.
    pub fn write_perfetto(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times_ns();
        let lanes = assign_lanes(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{workload}\"}}}}"
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\
                 \"self_us\":{:.3},\"derived\":{}}}}}",
                span.name,
                span.layer,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                lanes[i] + 1,
                i,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op,
                selfs[i] as f64 / 1e3,
                span.derived,
            )?;
        }
        for (name, n) in &self.counts {
            write!(
                out,
                ",\n{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"args\":{{\"count\":{n}}}}}"
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (s, e) = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if e > s {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Greedy interval colouring of the root spans; a child takes its
/// root's lane. Trace viewers need the events of one track to nest.
fn assign_lanes(spans: &[Span]) -> Vec<usize> {
    let mut lanes = vec![0usize; spans.len()];
    let mut roots: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].parent.is_none()).collect();
    roots.sort_by_key(|&i| spans[i].start_ns);
    let mut lane_free_at: Vec<u64> = Vec::new();
    for i in roots {
        let lane = match lane_free_at.iter().position(|&free| free <= spans[i].start_ns) {
            Some(lane) => lane,
            None => {
                lane_free_at.push(0);
                lane_free_at.len() - 1
            }
        };
        lane_free_at[lane] = spans[i].end_ns;
        lanes[i] = lane;
    }
    // Parents are always recorded before their children.
    for i in 0..spans.len() {
        if let Some(p) = spans[i].parent {
            lanes[i] = lanes[p];
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { layer: "l", name: "n", start_ns, end_ns, parent, op: 0, derived: false }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60; grandchild 20..30.
        let spans = vec![span(0, 100, None), span(10, 60, Some(0)), span(20, 30, Some(1))];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // children 10..50 and 30..70 cover 10..70 = 60 of the root.
        let spans = vec![span(0, 100, None), span(10, 50, Some(0)), span(30, 70, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 40);
        // a child contained in an earlier sibling adds nothing.
        let spans = vec![span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(10, 50, None), span(0, 20, Some(0)), span(40, 90, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 20);
        // entirely outside: ignored.
        let spans = vec![span(10, 50, None), span(60, 90, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn sequential_children_make_the_self_sum_equal_the_root() {
        let mut rec = Recorder::on();
        let t = rec.origin;
        let at = |ns: u64| t + std::time::Duration::from_nanos(ns);
        let root = rec.add("a", "root", 1, (at(0), at(1000)), None, false);
        rec.add("b", "x", 1, (at(0), at(400)), root, false);
        rec.add("c", "y", 1, (at(400), at(900)), root, false);
        assert!((rec.self_sum_frac() - 1.0).abs() < 1e-12);
        let layers = rec.layer_self_seconds();
        assert!((layers["a"] - 100e-9).abs() < 1e-15);
        assert!((layers["b"] - 400e-9).abs() < 1e-15);
        assert!((layers["c"] - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn begin_end_nest_by_call_order() {
        let mut rec = Recorder::on();
        let outer = rec.begin("a", "outer", 7);
        let inner = rec.begin("b", "inner", 7);
        rec.end(inner);
        rec.end(outer);
        rec.count("gates", 3);
        rec.count("gates", 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].parent, None);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert_eq!(rec.counts()["gates"], 5);
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut rec = Recorder::off();
        let id = rec.begin("a", "x", 0);
        rec.end(id);
        rec.count("c", 1);
        let now = Instant::now();
        assert_eq!(rec.add("a", "y", 0, (now, now), None, false), None);
        assert!(rec.spans().is_empty() && rec.counts().is_empty());
    }

    #[test]
    fn overlapping_roots_get_separate_lanes() {
        let spans = vec![
            span(0, 100, None),
            span(50, 150, None),
            span(10, 20, Some(0)),
            span(100, 200, None),
        ];
        assert_eq!(assign_lanes(&spans), vec![0, 1, 0, 0]);
    }

    #[test]
    fn trace_file_is_json_with_one_event_per_span() {
        let mut rec = Recorder::on();
        let root = rec.begin("qsim-core", "pass", 1);
        let child = rec.begin("qsim-fusion", "plan", 1);
        rec.end(child);
        rec.end(root);
        rec.count("fused_gates", 56);
        let dir = crate::env::out_dir().join(format!("unit-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        rec.write_perfetto(&path, "unit").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let complete =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).count();
        assert_eq!(complete, 2);
    }
}
