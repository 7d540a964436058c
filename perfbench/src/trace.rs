//! In-memory spans around the calls the traced pass makes into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! method it works for. Spans stay in memory until the benchmark ends. A
//! span's self time is its duration minus its children's durations: the
//! tracer nests spans, so children are disjoint and inside their parent.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub method: Option<usize>,
}

/// Records spans as a tree: a span opened while another is open is its
/// child.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, name: &'static str, method: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            method,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        method: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, method);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a closed child of `parent` covering the last `len` of the
    /// parent's interval: a phase the callee timed itself and reported.
    pub fn tail_child(&mut self, parent: usize, name: &'static str, len: Duration) {
        let p = &self.spans[parent];
        let span = Span {
            name,
            start: p.end.saturating_sub(len).max(p.start),
            end: p.end,
            parent: Some(parent),
            method: p.method,
        };
        self.spans.push(span);
    }

    /// Time since span `id` opened.
    pub fn elapsed_in(&self, id: usize) -> Duration {
        self.origin.elapsed() - self.spans[id].start
    }

    /// Duration of span `id`.
    pub fn duration(&self, id: usize) -> Duration {
        self.spans[id].end - self.spans[id].start
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut times: Vec<Duration> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            times[p] -= s.end - s.start;
        }
    }
    times
}

/// The spans of one name, added up.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: usize,
    pub total: Duration,
    pub self_time: Duration,
}

/// Totals per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total += s.end - s.start;
        e.self_time += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: ms(start),
            end: ms(end),
            parent,
            method: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild counts against its parent, not the root.
            span("d", 62, 65, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], ms(100 - 20 - 20 - 10));
        assert_eq!(t[1], ms(20));
        assert_eq!(t[2], ms(20));
        assert_eq!(t[3], ms(7));
        assert_eq!(t[4], ms(3));
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("x", 0, 40, Some(0)),
            span("y", 5, 15, Some(1)),
            span("x", 50, 90, Some(0)),
        ];
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["pass"].self_time, ms(20));
        assert_eq!(by_name["x"].self_time, ms(70));
        assert_eq!(by_name["x"].total, ms(80));
        assert_eq!(by_name["x"].count, 2);
        assert_eq!(by_name["y"].self_time, ms(10));
        assert_eq!(
            by_name.values().map(|t| t.self_time).sum::<Duration>(),
            ms(100)
        );
    }

    #[test]
    fn tracer_nests_and_tail_child_ends_with_parent() {
        let mut tr = Tracer::new();
        let root = tr.open("pass", None);
        let p = tr.open("prepare", Some(3));
        std::thread::sleep(ms(2));
        tr.close(p);
        tr.tail_child(p, "vcgen", ms(1));
        tr.time("key", Some(3), || ());
        tr.close(root);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.spans[2].end, tr.spans[1].end);
        assert_eq!(tr.spans[2].method, Some(3));
        assert_eq!(tr.duration(2), ms(1));
        assert_eq!(tr.spans[3].parent, Some(0));
        let t = self_times(&tr.spans);
        assert_eq!(t[1] + t[2], tr.duration(1));
    }
}
