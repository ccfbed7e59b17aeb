//! Result assembly: percentiles, the metric catalogue, and the one-line
//! JSON result the benchmark prints last.

use clogic::obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::time::Duration;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// workload that never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("parser.parse_query_us", "us"),
    ("core.translate_query_us", "us"),
    ("folog.magic.evaluate_ms", "ms"),
    ("folog.magic.match_attempts", "count"),
    ("folog.magic.facts_derived", "count"),
    ("folog.magic.answers_per_fact", "ratio"),
    ("folog.index.hit_ratio", "ratio"),
    ("folog.magic.rewritten_rules", "count"),
    ("folog.tabled.evaluate_ms", "ms"),
    ("folog.tabled.clause_activations", "count"),
    ("folog.tabled.answers_per_activation", "ratio"),
    ("engine.direct.solve_us", "us"),
    ("serve.net.overhead_ms", "ms"),
    ("serve.net.queue_wait_ms", "ms"),
    ("serve.protocol.codec_us", "us"),
    ("serve.manager.query_us", "us"),
    ("serve.net.reaped", "count"),
    ("session.snapshot.cache_hit_ratio", "ratio"),
    ("session.load_ms", "ms"),
    ("session.prepare_ms", "ms"),
    ("session.retract_ms", "ms"),
    ("session.read_after_write_ms", "ms"),
    ("session.read_warm_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("folog.fixpoint.match_attempts_per_write", "count"),
    ("folog.dred.rederived_per_retract", "count"),
    ("folog.dred.fallbacks", "count"),
    ("store.fsyncs_per_write", "count"),
    ("store.bytes_written_per_user_byte", "ratio"),
    ("store.compactions", "count"),
    ("store.compaction_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("durable.write_p50_ms", "ms"),
    ("durable.write_p90_ms", "ms"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counters that must stay 0 on a healthy run: sheds, connection reaps,
/// write errors, storage retries and breaker trips (tenant-namespaced
/// copies included). Any nonzero one fails the run.
pub fn report_faults(snap: &MetricsSnapshot) -> Result<(), String> {
    let faults: Vec<String> = snap
        .counters
        .iter()
        .filter(|(name, &v)| {
            v > 0
                && (name.starts_with("net.reaped.")
                    || *name == "net.write_errors"
                    || [
                        "serve.shed",
                        "serve.retry",
                        "store.retry.exhausted",
                        "serve.breaker_open",
                    ]
                    .iter()
                    .any(|f| name.ends_with(f)))
        })
        .map(|(name, v)| format!("{name} = {v}"))
        .collect();
    if faults.is_empty() {
        Ok(())
    } else {
        Err(format!("fault counters not zero: {}", faults.join(", ")))
    }
}

/// `name`'s counter in `snap`, 0 if never registered.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Mean of a µs histogram over the interval between two snapshots, in ms.
pub fn hist_mean_ms(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let (c0, s0) = before.histogram(name).unwrap_or((0, 0));
    let (c1, s1) = after.histogram(name).unwrap_or((0, 0));
    ratio((s1 - s0) as f64, (c1 - c0) as f64) / 1e3
}

/// What one timed loop measured, before it becomes metrics.
#[derive(Default)]
pub struct Loop {
    /// Read latencies in ms, one per completed read.
    pub reads_ms: Vec<f64>,
    /// Write latencies in ms, one per completed write.
    pub writes_ms: Vec<f64>,
    /// Ops started (reads plus writes).
    pub attempted: u64,
    /// Ops that were shed, refused, failed in transport, or came back
    /// incomplete.
    pub failed: u64,
    /// Seconds the loop's ops took: wall time, or for the CPU-bound
    /// workloads the op time scaled to reference speed (see `speed.rs`).
    pub time_s: f64,
    /// The same seconds, unscaled.
    pub wall_s: f64,
}

impl Loop {
    pub fn ops_per_s(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.time_s)
    }

    pub fn absorb(&mut self, other: Loop) {
        self.reads_ms.extend(other.reads_ms);
        self.writes_ms.extend(other.writes_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.time_s = self.time_s.max(other.time_s);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    /// Prints to stderr the unscaled figures behind a scaled loop:
    /// p50 and p95 of `raw_ms` (the unscaled latencies of `what`) and
    /// completed ops over unscaled wall time, next to the scaled
    /// `ops_per_s` the result line reports.
    pub fn print_raw(&self, workload: &str, what: &str, raw_ms: &[f64]) {
        eprintln!(
            "{workload}: unscaled {what} p50 {:.4} ms, p95 {:.4} ms; \
             unscaled ops_per_s {:.2} (scaled {:.2})",
            percentile(raw_ms, 0.5),
            percentile(raw_ms, 0.95),
            ratio((self.attempted - self.failed) as f64, self.wall_s),
            self.ops_per_s()
        );
    }
}

/// The benchmark's result line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The end-to-end metrics of an untraced loop plus set-up times.
    pub fn end_to_end(run: &Loop, setup_s: &[f64]) -> Report {
        if run.reads_ms.len() < 200 {
            eprintln!(
                "perfbench: only {} reads; read_p95_ms has fewer than 10 samples beyond it",
                run.reads_ms.len()
            );
        }
        let mut metrics = BTreeMap::new();
        metrics.insert("read_p50_ms", percentile(&run.reads_ms, 0.5));
        metrics.insert("read_p95_ms", percentile(&run.reads_ms, 0.95));
        metrics.insert("ops_per_s", run.ops_per_s());
        metrics.insert("setup_s", median(setup_s));
        metrics.insert("peak_rss_mb", peak_rss_mb());
        Report {
            attempted: run.attempted,
            failed: run.failed,
            metrics,
        }
    }

    /// The per-layer report of a trace run: `layers` holds what the
    /// workload measured; every other per-layer metric reads 0.
    /// `untraced` is the first half of the run, `traced` the second.
    pub fn per_layer(
        untraced: &Loop,
        traced: &Loop,
        mut layers: BTreeMap<&'static str, f64>,
    ) -> Report {
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        layers.insert("durable.write_p50_ms", percentile(&untraced.writes_ms, 0.5));
        layers.insert("durable.write_p90_ms", percentile(&untraced.writes_ms, 0.9));
        layers.insert("error_rate", ratio(failed as f64, attempted as f64));
        layers.insert(
            "trace.overhead_pct",
            (ratio(untraced.ops_per_s(), traced.ops_per_s()) - 1.0) * 100.0,
        );
        let metrics = PER_LAYER
            .iter()
            .map(|(name, _)| (*name, layers.get(name).copied().unwrap_or(0.0)))
            .collect();
        Report {
            attempted,
            failed,
            metrics,
        }
    }

    /// The result line: one JSON object, metrics in catalogue order.
    pub fn to_json(&self, trace: bool) -> String {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
