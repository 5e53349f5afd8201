//! Span recording for the traced replay.
//!
//! A span is one call into a layer's public function: its name, start and
//! end (ns since the tracer's origin), the span that caused it, and the id
//! of the request it belongs to. Spans stay in memory and are written out
//! once, at the end of the run. With recording off, [`Tracer::enter`] and
//! [`Tracer::exit`] do nothing, so the replay can be timed both ways to
//! measure the tracing overhead.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `trace.parse`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans of a single-threaded replay.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans that follow with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span; returns
    /// its handle (`None` while recording is off).
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            self.open.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus the part of it that its
/// direct children cover (children of one span never overlap, since the
/// replay is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_record_parents_and_self_times() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        let root = t.enter("request");
        let a = t.enter("a");
        busy(200_000);
        t.exit(a);
        let b = t.enter("b");
        let c = t.enter("c");
        busy(100_000);
        t.exit(c);
        t.exit(b);
        t.exit(root);
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["request", "a", "b", "c"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.request == 7));
        let selfs = self_times(spans);
        // Self times of the whole tree sum to the root's duration.
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].duration_ns());
        assert!(selfs[1] >= 200_000 && selfs[3] >= 100_000);
        assert!(selfs[2] < spans[2].duration_ns());
        let lines = to_json_lines(spans);
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.contains("\"name\":\"c\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.enter("x");
        assert_eq!(x, None);
        t.exit(x);
        assert!(t.spans().is_empty());
    }
}
