//! Spans recorded by the benchmark around each public layer call of a
//! traced op. Spans stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// One layer call: its name, interval, parent span and the request id
/// of the op it belongs to.
struct Span {
    req: u64,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder. Span ids are indices into its span list.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, req: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start = self.t0.elapsed();
        self.spans.push(Span {
            req,
            parent,
            name,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let req = self.spans[parent].req;
        let id = self.begin(req, Some(parent), name);
        let r = f();
        self.end(id);
        r
    }

    /// Duration of the most recent span named `name`.
    pub fn last(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(Duration::ZERO, Span::dur)
    }

    /// Moves another recorder's spans in (one recorder per client
    /// thread), keeping parent links valid.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.t0.saturating_duration_since(self.t0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start += shift;
            s.end += shift;
            s
        }));
    }

    /// Self time of every span: its duration minus what its children
    /// cover (children of one op run one after another).
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur());
            }
        }
        own
    }

    /// Self times grouped by span name, in microseconds.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            by.entry(s.name).or_default().push(own.as_secs_f64() * 1e6);
        }
        by
    }

    /// Writes one JSON line per span to `path`.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"req\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                s.req,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                own.as_micros()
            )?;
        }
        out.flush()
    }

    /// Prints total self time per layer to stderr, largest first.
    pub fn print_summary(&self) {
        let mut rows: Vec<(&str, usize, f64)> = self
            .self_us_by_name()
            .into_iter()
            .map(|(name, v)| (name, v.len(), v.iter().sum::<f64>()))
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        eprintln!(
            "{:<28} {:>8} {:>12} {:>10}",
            "span", "count", "self_ms", "mean_us"
        );
        for (name, n, total) in rows {
            eprintln!(
                "{name:<28} {n:>8} {:>12.1} {:>10.1}",
                total / 1e3,
                total / n as f64
            );
        }
    }
}
