//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name (`layer` plus operation), start, end and the span that caused
//! it. Calls too frequent to record one by one (`next_inst`, backend
//! calls) are folded into one aggregate child span per parent, whose
//! duration is the summed call time and which carries the call count.
//! A layer's self time is its spans' durations minus the time their
//! children cover. Spans stay in memory and are written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the span's time belongs to (`gpusim`, `core`, `serve`, ...).
    pub layer: &'static str,
    /// The call the span covers.
    pub op: &'static str,
    /// Free-form detail (the matrix cell, the sweep id).
    pub detail: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// For an aggregate span, the number of calls folded into it.
    pub calls: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store; times count from now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span whose start and end were taken elsewhere.
    pub fn record(
        &mut self,
        (layer, op): (&'static str, &'static str),
        detail: String,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        self.spans.push(Span { layer, op, detail, start_ns, end_ns, parent, calls: None });
        self.spans.len() - 1
    }

    /// Opens a span starting now and returns its index.
    pub fn open(
        &mut self,
        layer: &'static str,
        op: &'static str,
        detail: String,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { layer, op, detail, start_ns, end_ns: start_ns, parent, calls: None });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `calls` calls totalling `busy_ns` made inside `parent`.
    pub fn aggregate(
        &mut self,
        layer: &'static str,
        op: &'static str,
        parent: usize,
        busy_ns: u64,
        calls: u64,
    ) {
        let start_ns = self.spans[parent].start_ns;
        let end_ns = start_ns + busy_ns;
        self.spans.push(Span {
            layer,
            op,
            detail: String::new(),
            start_ns,
            end_ns,
            parent: Some(parent),
            calls: Some(calls),
        });
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// durations of its children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.layer).or_insert(0.0) +=
                span.duration_ns().saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Total duration and count of the spans named `layer`/`op`.
    pub fn total(&self, layer: &str, op: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .fold((0.0, 0), |(sum, n), s| (sum + s.duration_ns() as f64 * 1e-9, n + 1))
    }

    /// Writes every span as one JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"op\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.layer,
                s.op,
                s.detail.replace('"', "'"),
                s.start_ns,
                s.end_ns
            );
            if let Some(parent) = s.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some(calls) = s.calls {
                let _ = write!(out, ",\"calls\":{calls}");
            }
            out.push_str(if i + 1 < self.spans.len() { "},\n" } else { "}\n" });
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
