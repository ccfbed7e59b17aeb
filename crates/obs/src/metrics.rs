//! A lock-cheap metrics registry.
//!
//! Three instrument kinds, all named by `&str` keys using the
//! `layer.noun_verb` convention documented in DESIGN.md §11:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, tuples, bytes);
//! * [`Gauge`] — a point-in-time `u64` that can move both ways (sizes);
//! * [`Histogram`] — a distribution over fixed **log₂ buckets** (bucket
//!   *i* counts samples in `[2^i, 2^(i+1))`, with bucket 0 also taking 0),
//!   plus total count and sum. 64 buckets cover the whole `u64` range, so
//!   there is no configuration and no allocation on the record path.
//!
//! Looking an instrument up by name takes a mutex on the registry's name
//! map and is expected to happen once per evaluation (or once ever, if the
//! caller caches the handle); *recording* is atomic-only. Handles are
//! `Arc`s onto the shared cells, so a clone taken before a snapshot keeps
//! counting into the same instrument.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds 1 atomically — for live occupancy gauges (queue depths,
    /// in-flight counts) moved from several threads at once.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1 atomically, saturating at 0 (a racy double-decrement
    /// must not wrap an occupancy gauge to `u64::MAX`).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: covers all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A histogram over fixed log₂ buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCells>);

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in: `floor(log2(v))`, with 0 → bucket 0.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn read(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// One histogram, frozen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket *i* counts samples in `[2^i, 2^(i+1))` (0 included in 0).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: name → instrument. Cloning shares the underlying map, so
/// every layer holding a clone records into the same instruments.
///
/// A registry handle can carry a **namespace prefix**
/// ([`Registry::namespaced`]): every instrument it registers has the
/// prefix prepended to its name, while still landing in the shared map.
/// This is how a multi-tenant layer gives each tenant its own
/// `tenant.<name>.…` metric family without threading tenant names through
/// every engine — the engines keep using their fixed names, the handle
/// does the qualification.
#[derive(Clone, Default)]
pub struct Registry {
    names: Arc<Mutex<BTreeMap<String, Instrument>>>,
    /// Prepended to every instrument name this handle registers. Empty on
    /// a root handle; composes across nested [`Registry::namespaced`]
    /// calls.
    prefix: String,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.names.lock().map(|m| m.len()).unwrap_or(0);
        if self.prefix.is_empty() {
            write!(f, "Registry({n} instruments)")
        } else {
            write!(f, "Registry({n} instruments, prefix `{}`)", self.prefix)
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A handle onto the **same** underlying map whose instrument names
    /// are all prefixed with `prefix` (pass it with its trailing
    /// separator, e.g. `"tenant.alice."`). Prefixes compose: namespacing
    /// an already-namespaced handle appends.
    pub fn namespaced(&self, prefix: &str) -> Registry {
        Registry {
            names: Arc::clone(&self.names),
            prefix: format!("{}{prefix}", self.prefix),
        }
    }

    /// The namespace prefix of this handle (empty for a root handle).
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The instrument name `name` resolves to under this handle's prefix.
    fn qualify(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    /// The counter named `name`, creating it on first use. Panics if the
    /// name is already registered as a different instrument kind — a
    /// naming bug worth failing loudly on.
    pub fn counter(&self, name: &str) -> Counter {
        let mut names = self.names.lock().expect("metrics registry poisoned");
        match names
            .entry(self.qualify(name))
            .or_insert_with(|| Instrument::Counter(Counter::default()))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut names = self.names.lock().expect("metrics registry poisoned");
        match names
            .entry(self.qualify(name))
            .or_insert_with(|| Instrument::Gauge(Gauge::default()))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// The histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut names = self.names.lock().expect("metrics registry poisoned");
        match names
            .entry(self.qualify(name))
            .or_insert_with(|| Instrument::Histogram(Histogram::default()))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// A consistent-enough snapshot of every instrument (each cell is read
    /// atomically; across cells the snapshot is only as consistent as
    /// relaxed ordering allows — fine for reporting).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let names = self.names.lock().expect("metrics registry poisoned");
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, inst) in names.iter() {
            match inst {
                Instrument::Counter(c) => {
                    counters.insert(name.clone(), c.get());
                }
                Instrument::Gauge(g) => {
                    gauges.insert(name.clone(), g.get());
                }
                Instrument::Histogram(h) => {
                    histograms.insert(name.clone(), h.read());
                }
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// All instruments, frozen, sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's `(count, sum)`, if registered.
    pub fn histogram(&self, name: &str) -> Option<(u64, u64)> {
        self.histograms.get(name).map(|h| (h.count, h.sum))
    }
}

impl crate::Render for MetricsSnapshot {
    fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} = {v} (gauge)\n"));
        }
        for (name, h) in &self.histograms {
            let mean = if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            };
            out.push_str(&format!(
                "{name} = {{count: {}, sum: {}, mean: {mean:.1}}}\n",
                h.count, h.sum
            ));
        }
        out
    }

    fn render_json(&self) -> crate::Json {
        use crate::Json;
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::U64(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Json::U64(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let nonzero: Vec<Json> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        Json::Object(vec![
                            ("bucket".into(), Json::U64(i as u64)),
                            ("count".into(), Json::U64(c)),
                        ])
                    })
                    .collect();
                (
                    k.clone(),
                    Json::Object(vec![
                        ("count".into(), Json::U64(h.count)),
                        ("sum".into(), Json::U64(h.sum)),
                        ("buckets".into(), Json::Array(nonzero)),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("counters".into(), Json::Object(counters)),
            ("gauges".into(), Json::Object(gauges)),
            ("histograms".into(), Json::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Render;

    #[test]
    fn counters_accumulate_across_clones() {
        let r = Registry::new();
        let c = r.counter("x.events");
        c.inc();
        r.counter("x.events").add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.snapshot().counter("x.events"), Some(5));
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("x.size");
        g.set(10);
        g.set(3);
        assert_eq!(r.snapshot().gauge("x.size"), Some(3));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        let r = Registry::new();
        let h = r.histogram("x.delta");
        for v in [0, 1, 2, 5, 1000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = &snap.histograms["x.delta"];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1008);
        assert_eq!(hs.buckets[0], 2); // 0 and 1
        assert_eq!(hs.buckets[1], 1); // 2
        assert_eq!(hs.buckets[2], 1); // 5
        assert_eq!(hs.buckets[9], 1); // 1000
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn snapshot_renders_both_forms() {
        let r = Registry::new();
        r.counter("a.n").add(2);
        r.histogram("b.h").observe(7);
        let snap = r.snapshot();
        let text = snap.render_text();
        assert!(text.contains("a.n = 2"));
        assert!(text.contains("b.h"));
        let json = snap.render_json().to_string();
        assert!(json.contains("\"a.n\": 2"), "{json}");
    }
}
