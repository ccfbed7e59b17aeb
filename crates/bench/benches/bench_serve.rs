//! E9 — serving throughput: the lock-free snapshot query path through
//! the `clogic-serve` thread pool vs the same workload run serially on
//! the same published snapshot, through its uncached `query`.
//!
//! The design claim under test: after `Session::prepare` publishes an
//! immutable `SessionSnapshot`, workers answer entirely from the pinned
//! snapshot — no session lock, no per-query artifact clone — and the
//! snapshot's cross-strategy answer cache absorbs repeated queries. With
//! zero faults the serving layer's robustness machinery stays entirely
//! off the books (no sheds, no retries, no breaker transitions).
//!
//! Hand-written harness (`harness = false`): `--test` runs a small smoke
//! configuration for CI; either mode dumps `BENCH_serve.json` at the
//! workspace root, including per-job latency percentiles (p50/p95/p99,
//! interpolated within log₂ buckets) for queue wait and evaluation, and the
//! snapshot cache hit/miss counts. Answer counts are cross-checked
//! between every configuration, so a speedup can never come from
//! dropped work. Setting `BENCH_SERVE_MIN_SPEEDUP` (e.g. in CI) fails
//! the run if the 2-worker zero-fault speedup drops below it.

use clogic::folog::Budget;
use clogic::{Session, SessionOptions, Strategy};
use clogic_bench::graphs;
use clogic_bench::measure::{dump_json, print_table, us};
use clogic_serve::{ServeOptions, Server};
use std::time::{Duration, Instant};

/// The job mix: one endpoint query per chain, under a strategy rotation
/// that mixes cheap saturated-model reads with per-query evaluations
/// (tabling, magic sets), repeated `reps` times. The repeats are what
/// the snapshot answer cache is for: every chain's query recurs under
/// rotating strategies, and complete answers are strategy-agnostic.
fn jobs(chains: usize, reps: usize) -> Vec<(String, Strategy)> {
    let rotation = [Strategy::BottomUpSemiNaive, Strategy::Tabled, Strategy::Magic];
    let mut out = Vec::new();
    for r in 0..reps {
        for c in 0..chains {
            out.push((
                format!("path: P[src => c{c}n0, dest => D]"),
                rotation[(r + c) % rotation.len()],
            ));
        }
    }
    out
}

fn session(chains: usize, len: usize) -> Session {
    let mut s = Session::with_options(SessionOptions {
        termination_guard: false,
        ..SessionOptions::default()
    });
    s.load_program(graphs::with_rules(
        &graphs::disjoint_chains(chains, len),
        graphs::path_rules_by_endpoints(),
    ));
    s.prepare().expect("prepare artifacts");
    s
}

/// Serial reference: the same pinned snapshot on one thread, through
/// its uncached `query` — **without** the answer cache, every job
/// evaluates.
fn run_serial(s: &Session, jobs: &[(String, Strategy)]) -> (usize, Duration) {
    let snap = s.current_snapshot().expect("prepare publishes a snapshot");
    let unlimited = Budget::unlimited();
    let start = Instant::now();
    let mut rows = 0;
    for (q, strategy) in jobs {
        rows += snap
            .query(q, *strategy, &unlimited)
            .expect("query")
            .rows
            .len();
    }
    (rows, start.elapsed())
}

/// Per-job latency percentiles (interpolated within log₂ buckets, µs).
#[derive(Clone, Copy, Default)]
struct Percentiles {
    p50: u64,
    p95: u64,
    p99: u64,
}

impl Percentiles {
    fn cell(&self) -> String {
        format!("{}/{}/{}", self.p50, self.p95, self.p99)
    }
}

/// One pooled run's readout: answers, wall time, where the time went
/// per job — waiting in the admission queue vs evaluating (means and
/// percentiles from the `serve.queue_wait_us` / `serve.eval_us`
/// histograms) — and how the snapshot answer cache fared.
struct PoolRun {
    rows: usize,
    wall: Duration,
    /// Mean microseconds a job sat queued before a worker picked it up.
    queue_wait_us: f64,
    /// Mean microseconds a worker spent evaluating a job.
    eval_us: f64,
    queue_wait: Percentiles,
    eval: Percentiles,
    /// Jobs served from the snapshot's cross-strategy answer cache.
    cache_hits: u64,
    /// Jobs that evaluated (and, when complete, filled the cache).
    cache_misses: u64,
    /// The `sessions.snapshot_epoch` gauge: epoch of the last published
    /// snapshot.
    snapshot_epoch: u64,
}

/// The same jobs through a server with `workers` threads; all submitted
/// before any ticket is redeemed, so evaluations overlap fully.
fn run_pool(s: Session, workers: usize, jobs: &[(String, Strategy)]) -> PoolRun {
    let server = Server::start(
        s,
        ServeOptions {
            workers,
            queue_depth: jobs.len().max(64),
            default_deadline: None,
        },
    )
    .expect("start server");
    let start = Instant::now();
    let pending: Vec<_> = jobs
        .iter()
        .map(|(q, strategy)| server.submit(q, *strategy).expect("submit"))
        .collect();
    let mut rows = 0;
    for p in pending {
        rows += p.wait().expect("answer").rows.len();
    }
    let wall = start.elapsed();
    let snap = server.obs().metrics.snapshot();
    assert_eq!(snap.counter("serve.shed").unwrap_or(0), 0, "zero-fault sheds");
    assert_eq!(snap.counter("serve.retry").unwrap_or(0), 0, "zero-fault retries");
    assert_eq!(snap.counter("serve.worker_panics").unwrap_or(0), 0);
    let mean = |name: &str| match snap.histogram(name) {
        Some((count, sum)) if count > 0 => sum as f64 / count as f64,
        _ => 0.0,
    };
    let pcts = |name: &str| {
        snap.histograms
            .get(name)
            .map(|h| Percentiles {
                p50: h.percentile(0.50).unwrap_or(0),
                p95: h.percentile(0.95).unwrap_or(0),
                p99: h.percentile(0.99).unwrap_or(0),
            })
            .unwrap_or_default()
    };
    let run = PoolRun {
        rows,
        wall,
        queue_wait_us: mean("serve.queue_wait_us"),
        eval_us: mean("serve.eval_us"),
        queue_wait: pcts("serve.queue_wait_us"),
        eval: pcts("serve.eval_us"),
        cache_hits: snap.counter("serve.snapshot.cache.hit").unwrap_or(0),
        cache_misses: snap.counter("serve.snapshot.cache.miss").unwrap_or(0),
        snapshot_epoch: snap.gauge("sessions.snapshot_epoch").unwrap_or(0),
    };
    server.shutdown();
    run
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (chains, len, reps) = if test_mode { (8, 8, 3) } else { (24, 12, 4) };
    // The headline configuration is 2 workers — the smallest pool that
    // can demonstrate the lock-free read path, and the one the CI
    // speedup gate (BENCH_SERVE_MIN_SPEEDUP) judges.
    let pool = 2;
    let jobs = jobs(chains, reps);

    let (serial_rows, serial) = run_serial(&session(chains, len), &jobs);
    let one = run_pool(session(chains, len), 1, &jobs);
    let pooled = run_pool(session(chains, len), pool, &jobs);
    assert_eq!(serial_rows, one.rows, "1-worker pool changed answers");
    assert_eq!(serial_rows, pooled.rows, "{pool}-worker pool changed answers");

    let speedup = serial.as_secs_f64() / pooled.wall.as_secs_f64().max(1e-9);
    let qps = |wall: Duration| jobs.len() as f64 / wall.as_secs_f64().max(1e-9);
    print_table(
        "e9_serve (snapshot-path throughput, zero faults)",
        &[
            "config",
            "rows",
            "wall (us)",
            "queries/s",
            "q-wait p50/p95/p99",
            "eval p50/p95/p99",
            "cache h/m",
        ],
        &[
            vec![
                "serial (snapshot, uncached)".into(),
                serial_rows.to_string(),
                us(serial),
                format!("{:.0}", qps(serial)),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
            vec![
                "pool x1".into(),
                one.rows.to_string(),
                us(one.wall),
                format!("{:.0}", qps(one.wall)),
                one.queue_wait.cell(),
                one.eval.cell(),
                format!("{}/{}", one.cache_hits, one.cache_misses),
            ],
            vec![
                format!("pool x{pool}"),
                pooled.rows.to_string(),
                us(pooled.wall),
                format!("{:.0}", qps(pooled.wall)),
                pooled.queue_wait.cell(),
                pooled.eval.cell(),
                format!("{}/{}", pooled.cache_hits, pooled.cache_misses),
            ],
        ],
    );
    println!("\npool x{pool} speedup over serial: {speedup:.2}x");
    println!(
        "pool x{pool} mean per-job split: {:.0}us queued, {:.0}us evaluating; snapshot epoch {}",
        pooled.queue_wait_us, pooled.eval_us, pooled.snapshot_epoch
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    dump_json(
        out,
        &[
            ("mode", format!("\"{}\"", if test_mode { "test" } else { "full" })),
            ("chains", chains.to_string()),
            ("jobs", jobs.len().to_string()),
            ("rows", serial_rows.to_string()),
            ("workers", pool.to_string()),
            ("serial_us", us(serial)),
            ("pool1_us", us(one.wall)),
            ("pool_us", us(pooled.wall)),
            ("speedup", format!("{speedup:.3}")),
            ("pool1_queue_wait_us", format!("{:.1}", one.queue_wait_us)),
            ("pool1_eval_us", format!("{:.1}", one.eval_us)),
            ("pool_queue_wait_us", format!("{:.1}", pooled.queue_wait_us)),
            ("pool_eval_us", format!("{:.1}", pooled.eval_us)),
            ("pool_queue_wait_p50_us", pooled.queue_wait.p50.to_string()),
            ("pool_queue_wait_p95_us", pooled.queue_wait.p95.to_string()),
            ("pool_queue_wait_p99_us", pooled.queue_wait.p99.to_string()),
            ("pool_eval_p50_us", pooled.eval.p50.to_string()),
            ("pool_eval_p95_us", pooled.eval.p95.to_string()),
            ("pool_eval_p99_us", pooled.eval.p99.to_string()),
            ("pool1_eval_p50_us", one.eval.p50.to_string()),
            ("pool1_eval_p95_us", one.eval.p95.to_string()),
            ("pool1_eval_p99_us", one.eval.p99.to_string()),
            ("pool_cache_hits", pooled.cache_hits.to_string()),
            ("pool_cache_misses", pooled.cache_misses.to_string()),
            ("snapshot_epoch", pooled.snapshot_epoch.to_string()),
        ],
    )
    .expect("dump BENCH_serve.json");
    println!("wrote {out}");

    // CI gate: the lock-free snapshot path must actually pay off. Only
    // enforced when the environment asks (local runs stay informative).
    if let Ok(min) = std::env::var("BENCH_SERVE_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("BENCH_SERVE_MIN_SPEEDUP is a float");
        assert!(
            speedup >= min,
            "zero-fault {pool}-worker speedup {speedup:.3}x fell below the {min}x floor"
        );
    }
}
