//! In-memory span recorder for the traced replay.
//!
//! Spans are opened and closed from the benchmark's own code around calls
//! into the simulation crates; nothing inside those crates is touched.
//! Each span keeps its name, start, end and parent. The spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `scheduler.fov`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans with explicit enter/exit, so a span can enclose code that
/// itself opens spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the replay.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON document: `{"spans": [{"name", "start_ns",
    /// "end_ns", "parent"}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                quote(span.name),
                span.start_ns,
                span.end_ns,
                parent
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged first).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time, in seconds, per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)), // overlaps `a` by 5
            span("leaf", 12, 18, Some(1)),
            span("a", 60, 70, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100 - 50, 20 - 6, 25, 6, 10]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["a"] - 24e-9).abs() < 1e-18);
        // Overlapping siblings each keep their own self time, so the sum
        // exceeds the root's interval by exactly the 5 ns overlap.
        assert_eq!(selfs.iter().sum::<u64>(), 100 + 5);
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::new();
        let root = t.enter("core.campaign");
        let v = t.time("scheduler.new", || 7);
        t.exit(root);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = crate::json::parse(&t.to_json()).expect("trace must be valid JSON");
        let list = doc.as_object().unwrap().get("spans").unwrap().as_array().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(
            list[1].as_object().unwrap().get("name").unwrap().as_str(),
            Some("scheduler.new")
        );
    }
}
