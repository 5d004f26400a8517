//! In-memory span recording for the traced runs.
//!
//! A span covers one call into a layer's public function, made from the
//! benchmark's own code: its name, start, end, the span that caused it
//! and the request (design, audit cell or daemon request) it belongs
//! to. Spans stay in memory until the run ends, when [`write_jsonl`]
//! writes them out. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover ([`self_times`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, as `<crate>.<module>[.<operation>]`.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request every span of one job shares.
    pub request: u64,
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags every span opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Sums self times by span name over the spans `keep` accepts.
pub fn self_by_name(
    spans: &[Span],
    selfs: &[u64],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, &t) in spans.iter().zip(selfs) {
        if keep(s) {
            *out.entry(s.name).or_insert(0) += t;
        }
    }
    out
}

/// Sums self times by span name per pass. Requests are numbered from 1
/// in run order and `request_pass[r - 1]` is request `r`'s pass; spans
/// of other requests (set-up) are left out.
pub fn self_by_pass(
    spans: &[Span],
    selfs: &[u64],
    request_pass: &[usize],
    passes: usize,
) -> Vec<BTreeMap<&'static str, u64>> {
    let mut out = vec![BTreeMap::new(); passes];
    for (s, &t) in spans.iter().zip(selfs) {
        let pass = s
            .request
            .checked_sub(1)
            .and_then(|r| request_pass.get(r as usize));
        if let Some(&pass) = pass {
            *out[pass].entry(s.name).or_insert(0) += t;
        }
    }
    out
}

/// The tracing overhead in percent: the summed durations of the spans
/// named `root` against the untraced time `e2e_ns` of the same jobs.
pub fn overhead_pct(spans: &[Span], root: &str, e2e_ns: u64) -> f64 {
    let traced: u64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.end - s.start)
        .sum();
    (traced as f64 / e2e_ns as f64 - 1.0) * 100.0
}

/// How much of the untraced end-to-end time `e2e_ns` the layer spans
/// account for: the summed self times of every span below a span named
/// `root`, over `e2e_ns`. Near 1 when the traced layers cover the
/// untraced run; the roots' own self time (glue and recording) is left
/// out.
pub fn coverage(spans: &[Span], selfs: &[u64], root: &str, e2e_ns: u64) -> f64 {
    let under_root = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            if spans[p].name == root {
                return true;
            }
            i = p;
        }
        false
    };
    let covered: u64 = (0..spans.len())
        .filter(|&i| under_root(i))
        .map(|i| selfs[i])
        .sum();
    covered as f64 / e2e_ns as f64
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start, s.end, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_children_union() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // clipped to the parent: 90..100
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration_without_overlap() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("x", 0, 400, Some(0)),
            span("y", 400, 900, Some(0)),
            span("y.z", 500, 600, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
        let by = self_by_name(&spans, &selfs, |_| true);
        assert_eq!(by["y"], 400);
        assert_eq!(by["root"], 100);
    }

    #[test]
    fn coverage_counts_only_spans_below_a_root() {
        let spans = vec![
            span("flow", 0, 100, None),
            span("stage", 0, 60, Some(0)),
            span("stage", 60, 90, Some(0)),
            span("stage.inner", 60, 70, Some(2)),
            span("proof", 100, 150, None), // outside every root
        ];
        let selfs = self_times(&spans);
        // Stages and their children cover 90 of the 100 ns run.
        assert!((coverage(&spans, &selfs, "flow", 100) - 0.9).abs() < 1e-12);
        // Against a slower untraced run the share drops.
        assert!((coverage(&spans, &selfs, "flow", 180) - 0.5).abs() < 1e-12);
        assert_eq!(coverage(&spans, &selfs, "absent", 100), 0.0);
        // The root ran 100 ns against an 80 ns untraced run.
        assert!((overhead_pct(&spans, "flow", 80) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn self_times_split_by_pass() {
        let mut spans = vec![
            span("a", 0, 10, None),
            span("a", 10, 30, None),
            span("b", 30, 35, None),
            span("setup", 35, 40, None),
        ];
        spans[1].request = 1;
        spans[2].request = 2;
        spans[3].request = u64::MAX;
        // Request 0 is unnumbered; request 1 is in pass 0, 2 in pass 1.
        let by = self_by_pass(&spans, &self_times(&spans), &[0, 1], 2);
        assert_eq!(by[0].get("a"), Some(&20));
        assert_eq!(by[1].get("b"), Some(&5));
        assert!(by.iter().all(|m| !m.contains_key("setup")));
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let mut t = Tracer::new(Instant::now());
        t.set_request(7);
        let root = t.enter("root");
        let v = t.time("leaf", || 41 + 1);
        t.exit(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
