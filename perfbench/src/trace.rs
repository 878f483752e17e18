//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions from
//! the benchmark's own code: name (the layer and call), start, end, parent
//! span and the id of the study the work belongs to. Nothing is written
//! until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub study: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans when enabled; a disabled tracer runs the wrapped calls and
/// records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, study: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            study,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, study: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, study);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            span.duration_ns() - covered
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

/// Durations in seconds of every span called `name`, in record order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect()
}

/// Share of `[0, wall_ns]` covered by spans without a parent.
pub fn top_level_coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered_ns(top, 0, wall_ns) as f64 / wall_ns.max(1) as f64
}

/// The spans as a JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"study\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.name, s.study, s.start_ns, s.end_ns, self_ns
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            study: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > leaf [15,25); root > b [50,70)
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "leaf", 15, 25),
            span(3, Some(0), "b", 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(0), "b", 40, 80),
            span(3, Some(0), "late", 90, 130),
        ];
        // Children cover [10,80) and [90,100) of the root.
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span(0, None, "wave", 0, 10),
            span(1, Some(0), "save", 6, 10),
            span(2, None, "wave", 10, 30),
            span(3, Some(2), "save", 25, 30),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["wave"],
            SpanTotals {
                count: 2,
                total_ns: 30,
                self_ns: 21
            }
        );
        assert_eq!(totals["save"].self_ns, 9);
        assert!((top_level_coverage(&spans, 40) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.enter("outer", 7);
        let x = tracer.time("inner", 7, || 41 + 1);
        tracer.exit();
        assert_eq!(x, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        off.enter("outer", 7);
        assert_eq!(off.time("inner", 7, || 3), 3);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
