//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions.
//!
//! A span has a name, a start, an end, a parent and a request id shared
//! by every span of one request. A [`Tracer`] that is off records
//! nothing and reads no clock, so the untraced run pays nothing for the
//! calls that would record spans. Spans stay in memory until the run
//! ends; [`Tracer::write_jsonl`] then writes them out.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Request id of spans that belong to no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.deliver`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id ([`NO_REQUEST`] for spans above the request level).
    pub request: u64,
}

impl Span {
    /// Length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Parent given to this tracer's outermost spans when it is merged
    /// into the tracer that created it.
    root_parent: Option<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), root_parent: None }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A tracer for another thread: same epoch, and its outermost spans
    /// become children of the span open here now.
    #[must_use]
    pub fn child(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
            root_parent: self.open.last().copied(),
        }
    }

    /// Merges a [`Tracer::child`]'s spans back in.
    pub fn absorb(&mut self, child: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(child.root_parent);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already measured interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let to_ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).expect("fits")
        };
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: to_ns(start), end_ns: to_ns(end), parent, request });
    }

    /// Every recorded span, in the order they were opened (per thread).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of the spans named `name`.
    #[must_use]
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Each span's self time in nanoseconds: its duration minus the part
    /// of it that its children cover.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                let clipped: Vec<(u64, u64)> = kids
                    .into_iter()
                    .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| b > a)
                    .collect();
                s.duration_ns() - union_ns(clipped)
            })
            .collect()
    }

    /// Share of `[start_ns, end_ns)` covered by spans whose name passes
    /// `counts`.
    #[must_use]
    pub fn coverage(&self, start_ns: u64, end_ns: u64, counts: impl Fn(&str) -> bool) -> f64 {
        if end_ns <= start_ns {
            return 0.0;
        }
        let covered = union_ns(
            self.spans
                .iter()
                .filter(|s| counts(s.name))
                .map(|s| (s.start_ns.max(start_ns), s.end_ns.min(end_ns)))
                .filter(|(a, b)| b > a)
                .collect(),
        );
        covered as f64 / (end_ns - start_ns) as f64
    }

    /// Per-name count, total and self time, in name order.
    #[must_use]
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += self_ns;
        }
        out
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// I/O failure creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request =
                if s.request == NO_REQUEST { "null".to_string() } else { s.request.to_string() };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of half-open intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 1, |t| t.span("b", 1, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let span =
            |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, request: 3 };
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("outer", 100, 200, None),
            span("inner", 110, 160, Some(0)),
            span("inner", 150, 170, Some(0)),
        ];
        // The children cover [110, 170): 60 ns of the parent's 100.
        assert_eq!(t.self_times_ns(), vec![40, 50, 20]);
        assert!((t.coverage(100, 300, |n| n == "inner") - 0.3).abs() < 1e-12);
        assert_eq!(t.summary()["inner"], (2, 70, 70));
    }

    #[test]
    fn child_tracers_merge_under_the_open_span() {
        let mut t = Tracer::new(true);
        t.span("phase", NO_REQUEST, |t| {
            let mut c = t.child();
            c.span("work", 9, |_| ());
            t.absorb(c);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "work");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 9);
    }
}
