//! `durable_update`: single-edge asserts and retracts on a file-backed
//! persistent `Server`, each followed by reads under BottomUpSemiNaive.
//! Stresses the write path: parser, delta translation, WAL, prepare and
//! DRed.

use crate::counting::{CountingStorage, StoreCounts};
use crate::goal::{chain_rows, path_options, path_query, path_rows};
use crate::report::{hist_mean_ms, median, ms, ratio, report_faults, Loop, Report};
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::{plan_rng, Args, Digest};
use clogic::store::{FileStorage, RetryPolicy, RetryingStorage};
use clogic::{Session, Strategy};
use clogic_bench::graphs;
use clogic_serve::{ServeError, ServeOptions, Server};
use rand::Rng as _;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The base store: disjoint chains of path edges plus the §2.1 rules.
const CHAINS: usize = 50;
const LEN: usize = 10;
/// Writes come in blocks of this many: all asserts but one retract.
const BLOCK: usize = 4;
/// Reads after each write: the written component, then this many other
/// chains, so reads after a write and warm reads mix 1:3.
const OTHER_READS: usize = 3;
const MAX_WRITES: usize = 20_000;
/// Restarts per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The loop is one closed-loop client, so one worker serves it; with
/// more, which worker answers a read (and drops the snapshot the last
/// write replaced) would be a race.
const WORKERS: usize = 1;

/// A write names a spur: a one-edge component `s{i} → s{i}e`, so the
/// database grows by one path fact per assert rather than by a chain.
#[derive(Clone, Copy)]
enum Write {
    Assert(usize),
    Retract(usize),
}

struct Step {
    write: Write,
    /// Chains read after the written component.
    reads: [usize; OTHER_READS],
}

fn spur_fact(i: usize) -> String {
    format!("node: s{i}[linkto => s{i}e].")
}

pub struct Plan {
    base: String,
    steps: Vec<Step>,
    chain_rows: Vec<Vec<(String, String)>>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let base = graphs::with_rules(
            &graphs::disjoint_chains(CHAINS, LEN),
            graphs::path_rules_by_endpoints(),
        )
        .to_string();
        let mut rng = plan_rng(seed, 3);
        let mut live = Vec::new();
        let mut next = 0;
        let mut steps = Vec::with_capacity(MAX_WRITES);
        while steps.len() < MAX_WRITES {
            // never first in its block, so a live spur always exists
            let retract_at = rng.gen_range(1..BLOCK);
            for i in 0..BLOCK {
                let write = if i == retract_at {
                    Write::Retract(live.swap_remove(rng.gen_range(0..live.len())))
                } else {
                    live.push(next);
                    next += 1;
                    Write::Assert(next - 1)
                };
                // distinct chains: 7 is coprime to CHAINS
                let a = rng.gen_range(0..CHAINS);
                steps.push(Step {
                    write,
                    reads: std::array::from_fn(|j| (a + 7 * j) % CHAINS),
                });
            }
        }
        let chain_rows = (0..CHAINS)
            .map(|c| chain_rows(&format!("c{c}n0"), (1..=LEN).map(|i| format!("c{c}n{i}"))))
            .collect();
        Plan {
            base,
            steps,
            chain_rows,
        }
    }

    /// The reads after `step`, with their expected rows.
    fn reads(&self, step: &Step) -> Vec<(String, Vec<(String, String)>)> {
        let (spur, present) = match step.write {
            Write::Assert(i) => (i, true),
            Write::Retract(i) => (i, false),
        };
        let src = format!("s{spur}");
        let mut reads = vec![(
            path_query(&src),
            if present {
                chain_rows(&src, std::iter::once(format!("s{spur}e")))
            } else {
                Vec::new()
            },
        )];
        for &c in &step.reads {
            reads.push((path_query(&format!("c{c}n0")), self.chain_rows[c].clone()));
        }
        reads
    }

    pub fn digests(&self) -> (Digest, Digest) {
        let mut ops = Digest::default();
        let mut answers = Digest::default();
        ops.add(self.base.as_bytes());
        for step in &self.steps {
            let (kind, i) = match step.write {
                Write::Assert(i) => ("assert", i),
                Write::Retract(i) => ("retract", i),
            };
            ops.add(format!("{kind} {}", spur_fact(i)).as_bytes());
            for (src, rows) in self.reads(step) {
                ops.add(src.as_bytes());
                for (d, p) in rows {
                    answers.add(d.as_bytes());
                    answers.add(p.as_bytes());
                }
            }
        }
        (ops, answers)
    }
}

/// The store directory, removed however the run ends.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `Server::persistent` with the counting wrapper between the retry
/// layer and the file: recover, then start the pool (which prepares).
/// Returns the server and the time spent in recovery alone.
fn open(dir: &Path, counts: &Arc<StoreCounts>) -> Result<(Server, Duration), String> {
    let opts = path_options();
    let file = FileStorage::create(dir).map_err(|e| e.to_string())?;
    let storage = RetryingStorage::with_policy(
        CountingStorage::new(file, Arc::clone(counts)),
        RetryPolicy::default(),
    )
    .with_obs(opts.obs.clone());
    let t = Instant::now();
    let (session, report) =
        Session::recover_from(Box::new(storage), opts).map_err(|e| e.to_string())?;
    let recover = t.elapsed();
    if !report.is_clean() {
        return Err(format!("recovery was not clean: {report:?}"));
    }
    let server = Server::start(
        session,
        ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    Ok((server, recover))
}

/// Running state of the loop, shared by both halves of a trace run.
#[derive(Default)]
struct State {
    /// Spurs whose last acknowledged write was an assert.
    live: BTreeSet<usize>,
    writes: u64,
    user_bytes: u64,
}

impl State {
    fn acknowledge(&mut self, w: Write, src: &str) {
        match w {
            Write::Assert(i) => self.live.insert(i),
            Write::Retract(i) => self.live.remove(&i),
        };
        self.writes += 1;
        self.user_bytes += src.len() as u64;
    }
}

/// Checks one read; `Ok(false)` for a failure, `Err` for a wrong answer.
fn check_read(
    got: Result<clogic::Answers, ServeError>,
    src: &str,
    want: &[(String, String)],
) -> Result<bool, String> {
    match got {
        Ok(a) if a.complete => {
            let rows = path_rows(&a);
            if rows == want {
                Ok(true)
            } else {
                Err(format!(
                    "wrong answer to {src}: got {rows:?}, want {want:?}"
                ))
            }
        }
        _ => Ok(false),
    }
}

/// Per-layer tallies of the traced half.
#[derive(Default)]
struct Tally {
    match_attempts: f64,
    rederived: f64,
    fallbacks: f64,
    retracts: f64,
}

fn drive(
    plan: &Plan,
    server: &Server,
    state: &mut State,
    from: usize,
    secs: Duration,
    speed: &mut Speed,
    mut trace: Option<(&mut Tracer, &mut Tally)>,
) -> Result<(Loop, usize), String> {
    let mut run = Loop::default();
    let start = Instant::now();
    let mut next = from;
    let metrics = &server.obs().metrics;
    let count = |name: &str| metrics.counter(name).get() as f64;
    let (mut raw_reads_ms, mut raw_writes_ms) = (Vec::new(), Vec::new());
    let eval_us = metrics.histogram("serve.eval_us");
    // (wall, evaluation) ms of the current step's reads
    let mut reads = Vec::new();
    while next < plan.steps.len() && start.elapsed() < secs {
        let step = &plan.steps[next];
        next += 1;
        let slot = Instant::now();
        let (src, retract) = match step.write {
            Write::Assert(i) => (spur_fact(i), false),
            Write::Retract(i) => (spur_fact(i), true),
        };
        run.attempted += 1;
        let (ok, write_ms) = match trace.as_mut() {
            None => {
                let t = Instant::now();
                let r = if retract {
                    server.retract(&src)
                } else {
                    server.load(&src)
                };
                let lat = t.elapsed();
                let ok = matches!(r, Ok(ref report) if report.persisted());
                (ok, ms(lat))
            }
            Some((tr, tally)) => {
                let before = (
                    count("folog.fixpoint.match_attempts"),
                    count("folog.dred.rederived"),
                    count("folog.dred.fallbacks"),
                );
                let root = tr.begin(next as u64, None, "write");
                let changed = if retract {
                    tr.time(root, "session.retract", || {
                        server.with_session(|s| s.retract(&src))
                    })
                } else {
                    tr.time(root, "session.load", || {
                        server.with_session(|s| s.load(&src))
                    })
                };
                let prepared = tr.time(root, "session.prepare", || {
                    server.with_session(|s| s.prepare())
                });
                tr.end(root);
                let ok = changed.is_ok() && prepared.is_ok();
                if ok {
                    tally.match_attempts += count("folog.fixpoint.match_attempts") - before.0;
                    if retract {
                        tally.retracts += 1.0;
                        tally.rederived += count("folog.dred.rederived") - before.1;
                        tally.fallbacks += count("folog.dred.fallbacks") - before.2;
                    }
                }
                (ok, ms(tr.last("write")))
            }
        };
        if !ok {
            // A write whose effect is unknown makes later answers
            // uncheckable.
            return Err(format!("write `{src}` failed"));
        }
        state.acknowledge(step.write, &src);

        for (k, (query, want)) in plan.reads(step).into_iter().enumerate() {
            run.attempted += 1;
            let eval_before = eval_us.sum();
            let (got, lat) = match trace.as_mut() {
                None => {
                    let t = Instant::now();
                    let got = server.query(&query, Strategy::BottomUpSemiNaive);
                    (got, t.elapsed())
                }
                Some((tr, _)) => {
                    let root = tr.begin(next as u64, None, "read");
                    let name = if k == 0 {
                        "read.after_write"
                    } else {
                        "read.warm"
                    };
                    let got = tr.time(root, name, || {
                        server.query(&query, Strategy::BottomUpSemiNaive)
                    });
                    tr.end(root);
                    (got, tr.last("read"))
                }
            };
            // The worker records the evaluation before it replies.
            let eval_ms = (eval_us.sum() - eval_before) as f64 / 1e3;
            if check_read(got, &query, &want)? {
                reads.push((ms(lat), eval_ms.min(ms(lat))));
            } else {
                run.failed += 1;
            }
        }
        let slot_s = slot.elapsed().as_secs_f64();
        let f = speed.factor();
        run.time_s += slot_s * f;
        run.wall_s += slot_s;
        run.writes_ms.push(write_ms * f);
        raw_writes_ms.push(write_ms);
        // A read's evaluation is CPU-bound and scaled; the rest of it,
        // the hand-off to the worker and back, does not slow down with
        // the CPU and is not.
        for (wall, eval) in reads.drain(..) {
            run.reads_ms.push(wall - eval + eval * f);
            raw_reads_ms.push(wall);
        }
    }
    run.print_raw("durable_update", "read", &raw_reads_ms);
    run.print_raw("durable_update", "write", &raw_writes_ms);
    Ok((run, next))
}

/// Reopens the store with `Session::recover_from` and checks that every
/// acknowledged write survived: exactly the base chains plus live spurs.
fn verify_durable(dir: &Path, state: &State) -> Result<(), String> {
    let file = FileStorage::create(dir).map_err(|e| e.to_string())?;
    let (mut s, _) =
        Session::recover_from(Box::new(file), path_options()).map_err(|e| e.to_string())?;
    let base_loads = 1;
    if s.epoch() != base_loads + state.writes {
        return Err(format!(
            "recovered epoch {} after {} acknowledged writes",
            s.epoch(),
            state.writes
        ));
    }
    let a = s
        .query("node: X[linkto => Y]", Strategy::Direct)
        .map_err(|e| e.to_string())?;
    let got: BTreeSet<(String, String)> = a
        .rows
        .iter()
        .map(|r| {
            (
                r.get("X").unwrap_or_default(),
                r.get("Y").unwrap_or_default(),
            )
        })
        .collect();
    let mut want = BTreeSet::new();
    for c in 0..CHAINS {
        for i in 0..LEN {
            want.insert((format!("c{c}n{i}"), format!("c{c}n{}", i + 1)));
        }
    }
    for &i in &state.live {
        want.insert((format!("s{i}"), format!("s{i}e")));
    }
    if got != want || !a.complete {
        return Err(format!(
            "durability check failed: {} edges recovered, {} expected",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args.seed);
    let dir = StoreDir(PathBuf::from(".bench_out").join(format!("durable-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    {
        // The base store, written off the clock.
        let file = FileStorage::create(&dir.0).map_err(|e| e.to_string())?;
        let (mut s, _) =
            Session::recover_from(Box::new(file), path_options()).map_err(|e| e.to_string())?;
        s.load(&plan.base).map_err(|e| e.to_string())?;
    }

    let counts = Arc::new(StoreCounts::default());
    let mut setup_s = Vec::new();
    let mut recover_ms = Vec::new();
    let mut server = None;
    let mut speed = Speed::new();
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        let (s, recover) = open(&dir.0, &counts)?;
        let secs = t.elapsed().as_secs_f64();
        setup_s.push(secs * speed.factor());
        recover_ms.push(ms(recover));
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let get = |c: &AtomicU64| StoreCounts::get(c) as f64;
    let store_before = (
        get(&counts.bytes),
        get(&counts.fsyncs),
        get(&counts.compactions),
        get(&counts.compaction_ns),
    );
    let mut state = State::default();

    let report = if !args.trace {
        let (run, _) = drive(
            &plan,
            &server,
            &mut state,
            0,
            args.seconds,
            &mut speed,
            None,
        )?;
        Report::end_to_end(&run, &setup_s)
    } else {
        let half = args.seconds / 2;
        let (first, next) = drive(&plan, &server, &mut state, 0, half, &mut speed, None)?;
        let mut tr = Tracer::new(Instant::now());
        let mut tally = Tally::default();
        let before = server.obs().metrics.snapshot();
        let writes_before = state.writes as f64;
        let (second, _) = drive(
            &plan,
            &server,
            &mut state,
            next,
            half,
            &mut speed,
            Some((&mut tr, &mut tally)),
        )?;
        let after = server.obs().metrics.snapshot();
        let traced_writes = state.writes as f64 - writes_before;
        let by = tr.self_us_by_name();
        let med_ms = |name: &str| by.get(name).map_or(0.0, |v| median(v)) / 1e3;
        let compactions = get(&counts.compactions) - store_before.2;
        let mut layers = BTreeMap::new();
        layers.insert("session.load_ms", med_ms("session.load"));
        layers.insert("session.prepare_ms", med_ms("session.prepare"));
        layers.insert("session.retract_ms", med_ms("session.retract"));
        layers.insert("session.read_after_write_ms", med_ms("read.after_write"));
        layers.insert("session.read_warm_ms", med_ms("read.warm"));
        layers.insert(
            "serve.queue_wait_ms",
            hist_mean_ms(&before, &after, "serve.queue_wait_us"),
        );
        layers.insert(
            "folog.fixpoint.match_attempts_per_write",
            ratio(tally.match_attempts, traced_writes),
        );
        layers.insert(
            "folog.dred.rederived_per_retract",
            ratio(tally.rederived, tally.retracts),
        );
        layers.insert("folog.dred.fallbacks", tally.fallbacks);
        layers.insert(
            "store.fsyncs_per_write",
            ratio(get(&counts.fsyncs) - store_before.1, state.writes as f64),
        );
        layers.insert(
            "store.bytes_written_per_user_byte",
            ratio(get(&counts.bytes) - store_before.0, state.user_bytes as f64),
        );
        layers.insert("store.compactions", compactions);
        layers.insert(
            "store.compaction_ms",
            ratio(get(&counts.compaction_ns) - store_before.3, compactions) / 1e6,
        );
        layers.insert("store.recover_ms", median(&recover_ms));
        tr.print_summary();
        tr.dump(&args.span_path())
            .map_err(|e| format!("writing spans: {e}"))?;
        Report::per_layer(&first, &second, layers)
    };

    let faults = report_faults(&server.obs().metrics.snapshot());
    server.shutdown();
    verify_durable(&dir.0, &state)?;
    faults?;
    Ok(report)
}
