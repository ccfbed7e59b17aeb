//! Concurrent serving under chaos: the `clogic-serve` front-end must
//! answer every **accepted** query — across all six strategies, from a
//! thread pool of at least four workers — with exactly the answers a
//! serial session gives, while storage faults fire mid-flight.
//!
//! Three layers are exercised together:
//!
//! * the writer/reader discipline (loads serialize and publish immutable
//!   `SessionSnapshot`s; queries fan out over pinned snapshots without
//!   ever taking the session lock);
//! * admission control (a full queue sheds with a structured
//!   `Degradation`, visible in `serve.shed`);
//! * circuit-broken persistence (`RetryingStorage` absorbs transient
//!   fault bursts with bounded backoff; longer outages open the breaker,
//!   the server keeps answering read-only, and a healed disk closes it).
//!
//! The chaos sweep mirrors `tests/recovery.rs`: measure a clean run's
//! I/O operation count, then re-run once per (fault kind, trigger) pair
//! with an intermittent fault burst at that operation — while a second
//! thread hammers queries the whole time. The snapshot stress runs a
//! writer publishing epochs in a loop while four readers pin snapshots:
//! no reader may see a torn read.

use clogic::folog::bottom_up::EvalError;
use clogic::folog::{Budget, FOLD_BOUND};
use clogic::obs::Obs;
use clogic::session::{
    Answers, Session, SessionError, SessionOptions, Strategy, ANSWER_CACHE_CAPACITY,
};
use clogic::store::{ChaosStorage, Fault, MemStorage, RetryingStorage, Sleeper};
use clogic_serve::{ManagerOptions, ServeError, ServeOptions, Server, SessionManager};
use common::{baseline, chunks, fast_policy, opts, QUERIES};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;

/// Worker-pool width: at least four, so the sweeps genuinely run
/// queries in parallel.
const WORKERS: usize = 4;

fn no_sleep() -> Sleeper {
    Arc::new(|_| {})
}

/// Zero faults: a pool of ≥4 workers answering interleaved queries under
/// every strategy gives exactly the serial answers, with zero sheds and
/// zero retries on the books.
#[test]
fn parallel_equals_serial_on_all_strategies_with_zero_faults() {
    let chunks = chunks();
    let mut base = baseline(&chunks);
    let session = baseline(&chunks);
    let server = Server::start(
        session,
        ServeOptions {
            workers: WORKERS,
            queue_depth: 1024,
            default_deadline: None,
        },
    )
    .unwrap();

    // Fan out: several submitter threads × all strategies × all queries,
    // redeemed out of order.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut pending = Vec::new();
                for strategy in Strategy::ALL {
                    for q in QUERIES {
                        pending.push((strategy, q, server.submit(q, strategy).unwrap()));
                    }
                }
                for (strategy, q, p) in pending {
                    let served = p.wait().unwrap();
                    let serial = baseline(&chunks).query(q, strategy).unwrap();
                    assert_eq!(served.rendered(), serial.rendered(), "{strategy:?} on {q}");
                }
            });
        }
    });

    let state = server.with_session(|s| common::state(s));
    common::assert_equivalent(state, &server, &mut base, QUERIES, "zero faults");
    let snap = server.obs().metrics.snapshot();
    assert_eq!(snap.counter("serve.shed").unwrap_or(0), 0, "no sheds");
    assert_eq!(snap.counter("serve.retry").unwrap_or(0), 0, "no retries");
    assert_eq!(snap.counter("serve.worker_panics").unwrap_or(0), 0);
    assert_eq!(snap.gauge("serve.queue_depth").unwrap_or(0), 0, "queue drained");
    server.shutdown();
}

/// Loads concurrent with queries, without chaos: while a writer thread
/// publishes new snapshots in a loop, ≥4 reader threads each pin one
/// snapshot `Arc` and answer two queries from it. Both answers must be
/// consistent with exactly the pinned snapshot's epoch — never a mix of
/// two epochs (a torn read), never an epoch that was never published.
#[test]
fn pinned_snapshot_readers_never_see_torn_epochs() {
    let chunks = chunks();
    // The writer's script: the remaining chunks, then a stream of
    // heartbeat facts so snapshots keep publishing while readers run.
    // Because `t1 < t2`, every heartbeat changes the answer to `t2: X`,
    // so that answer pins its epoch uniquely.
    let mut script: Vec<String> = chunks[1..].to_vec();
    for i in 0..8 {
        script.push(format!("t1: h{i}."));
    }

    // Expected answers per epoch, from a serial replay of the same
    // script. `Q_EPOCH` changes on every load; `Q_STABLE` settles early —
    // a torn pair (each answer from a different epoch) matches no entry.
    const Q_EPOCH: &str = "t2: X";
    const Q_STABLE: &str = "t3: O[l2 => V]";
    let expect = |b: &mut Session| {
        (
            b.query(Q_EPOCH, Strategy::Sld).unwrap().rendered(),
            b.query(Q_STABLE, Strategy::BottomUpSemiNaive)
                .unwrap()
                .rendered(),
        )
    };
    let mut base = baseline(&chunks[..1]);
    let mut expected = HashMap::new();
    expected.insert(base.epoch(), expect(&mut base));
    for src in &script {
        base.load(src).expect("baseline load");
        expected.insert(base.epoch(), expect(&mut base));
    }

    let mut seed = baseline(&chunks[..1]);
    seed.prepare().expect("publish the first snapshot");
    let server = Server::start(
        seed,
        ServeOptions {
            workers: WORKERS,
            queue_depth: 1024,
            default_deadline: None,
        },
    )
    .unwrap();
    let cell = server.with_session(|s| s.snapshot_cell());
    let done = AtomicBool::new(false);
    let observed = Mutex::new(HashSet::new());
    let unlimited = Budget::unlimited();
    // Answers the pool reader accepts: any single published epoch's.
    let pool_answers: HashSet<Vec<String>> = expected.values().map(|(a, _)| a.clone()).collect();

    std::thread::scope(|scope| {
        // Pinned readers: grab one snapshot, answer both queries from
        // it. The pin must stay internally consistent even though the
        // writer publishes newer epochs underneath.
        for _ in 0..WORKERS {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let Some(pin) = cell.load() else { continue };
                    let epoch = pin.epoch();
                    let got = (
                        pin.query(Q_EPOCH, Strategy::Sld, &unlimited)
                            .unwrap()
                            .rendered(),
                        pin.query(Q_STABLE, Strategy::BottomUpSemiNaive, &unlimited)
                            .unwrap()
                            .rendered(),
                    );
                    let want = expected
                        .get(&epoch)
                        .unwrap_or_else(|| panic!("reader pinned unpublished epoch {epoch}"));
                    assert_eq!(&got, want, "torn read at epoch {epoch}");
                    observed.lock().unwrap().insert(epoch);
                }
            });
        }
        // One reader goes through the worker pool instead of pinning:
        // the serving layer may answer from any published epoch, but
        // always from exactly one of them.
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let a = server
                    .query(Q_EPOCH, Strategy::Sld)
                    .expect("pool query mid-load");
                assert!(
                    pool_answers.contains(&a.rendered()),
                    "pool answer matches no published epoch: {:?}",
                    a.rendered()
                );
            }
        });
        // Writer: replay the script; every load publishes a snapshot.
        for src in &script {
            server.load(src).expect("load mid-stress");
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, Ordering::Release);
    });

    let observed = observed.into_inner().unwrap();
    assert!(!observed.is_empty(), "readers never pinned a snapshot");
    server.shutdown();
}

/// One chaos scenario: a burst of `fault` starting at I/O operation
/// `trigger`, short enough for the retry budget to absorb, while queries
/// run concurrently with the loads. No accepted query may lose its
/// answer; the final state must match the serial baseline.
fn chaos_serve_scenario(chunks: &[String], trigger: u64, fault: Fault) {
    let context = format!("fault={fault:?} trigger={trigger}");
    let mem = MemStorage::new();
    // Burst of 2 ≤ max_retries: every storage operation eventually
    // succeeds, so the faults surface only as retries — never as lost
    // answers or failed loads.
    let chaos = ChaosStorage::intermittent(mem, trigger, 2, fault);
    let retrying = RetryingStorage::with_sleeper(chaos, fast_policy(), no_sleep());
    let (session, _report) = Session::recover_from(Box::new(retrying), opts())
        .unwrap_or_else(|e| panic!("recover under absorbed faults ({context}): {e}"));
    let server = Server::start(
        session,
        ServeOptions {
            workers: WORKERS,
            queue_depth: 1024,
            default_deadline: None,
        },
    )
    .unwrap();

    std::thread::scope(|scope| {
        // Reader side: keep queries in flight for the whole load
        // sequence. Answers race with loads, so only delivery (not
        // content) is asserted here; content is pinned after quiesce.
        let handle = scope.spawn(|| {
            for round in 0..3 {
                for (i, q) in QUERIES.iter().enumerate() {
                    let strategy = Strategy::ALL[(round + i) % Strategy::ALL.len()];
                    let a = server
                        .query(q, strategy)
                        .unwrap_or_else(|e| panic!("mid-flight query lost: {e}"));
                    // Every mid-flight answer reflects *some* prefix of
                    // the loads, never garbage: at most the baseline's
                    // final row count for this query.
                    drop(a);
                }
            }
        });
        // Writer side: the full load sequence, with faults striking.
        for c in chunks {
            let report = server
                .load(c)
                .unwrap_or_else(|e| panic!("load under absorbed faults ({context}): {e}"));
            assert!(
                report.persisted(),
                "burst within retry budget must persist ({context})"
            );
        }
        handle.join().unwrap();
    });

    let mut base = baseline(chunks);
    let state = server.with_session(|s| common::state(s));
    common::assert_equivalent(state, &server, &mut base, &QUERIES[..2], &context);
    let snap = server.obs().metrics.snapshot();
    assert_eq!(snap.counter("serve.worker_panics").unwrap_or(0), 0);
    assert_eq!(snap.counter("serve.shed").unwrap_or(0), 0, "{context}");
    server.shutdown();
}

/// The sweep: every fault kind × every I/O boundary of a clean run, with
/// a ≥4-thread pool serving queries throughout.
#[test]
fn chaos_sweep_concurrent_serving_never_loses_answers() {
    let chunks = chunks();

    let total = common::clean_io_ops(|s| chunks.iter().for_each(|c| s.load(c).unwrap()));

    for fault in Fault::ALL {
        for trigger in 1..=total {
            chaos_serve_scenario(&chunks, trigger, fault);
        }
    }
}

/// A persistence outage longer than the retry budget: loads report the
/// failure instead of failing, the breaker opens (visible in metrics and
/// `Server::breaker_open`), queries keep flowing read-only, and once the
/// storage heals a probe closes the breaker and persistence resumes.
#[test]
fn breaker_opens_under_outage_and_recovers_read_only_service() {
    // Outage length: long enough to exhaust several retry rounds and
    // open the breaker, short enough that the open breaker's slow probe
    // cadence (one I/O per `probe_after` loads) burns it within the
    // heartbeat loop below.
    const BURST: u64 = 12;
    let mem = MemStorage::new();
    // Clean during recovery/startup, then dead for the burst.
    let chaos = ChaosStorage::intermittent(mem, 8, BURST, Fault::Fail);
    let fired = chaos.fault_counter();
    // One metrics registry spanning storage, session, and server, so
    // retries, breaker transitions, and sheds land in one snapshot.
    let obs = clogic::obs::Obs::new();
    let retrying =
        RetryingStorage::with_sleeper(chaos, fast_policy(), no_sleep()).with_obs(obs.clone());
    let options = SessionOptions {
        obs: obs.clone(),
        ..opts()
    };
    let (session, report) = Session::recover_from(Box::new(retrying), options).unwrap();
    assert!(!report.breaker_open, "breaker closed on a clean open");
    let server = Server::start(
        session,
        ServeOptions {
            workers: WORKERS,
            queue_depth: 1024,
            default_deadline: None,
        },
    )
    .unwrap();

    let chunks = chunks();
    let mut outage_seen = false;
    let mut breaker_seen = false;
    server.load(&chunks[0]).unwrap();
    // Keep loading the remaining chunks (re-loading the last one as a
    // heartbeat) until persistence recovers end to end. Every load must
    // succeed in memory; queries must flow throughout.
    let mut next = 1;
    for round in 0..64 {
        let src = if next < chunks.len() {
            let c = chunks[next].clone();
            next += 1;
            c
        } else {
            format!("t1: h{round}.")
        };
        let report = server.load(&src).unwrap();
        if !report.persisted() {
            outage_seen = true;
        }
        if report.breaker_open {
            breaker_seen = true;
            assert!(server.breaker_open());
        }
        // Read-only service continues regardless of persistence health.
        let a = server.query("t2: X", Strategy::Sld).unwrap();
        assert!(!a.rows.is_empty(), "queries must flow during the outage");
        if outage_seen
            && breaker_seen
            && report.persisted()
            && !report.breaker_open
            && fired.load(Ordering::Relaxed) >= BURST
        {
            break;
        }
    }
    assert!(outage_seen, "the outage must surface in a LoadReport");
    assert!(breaker_seen, "the breaker must open during the outage");
    assert!(!server.breaker_open(), "breaker must close after healing");

    let snap = server.obs().metrics.snapshot();
    assert!(snap.counter("serve.retry").unwrap_or(0) > 0, "retries visible");
    assert!(
        snap.counter("serve.breaker_open").unwrap_or(0) >= 1,
        "breaker openings visible"
    );
    assert!(
        snap.counter("serve.load.persist_failures").unwrap_or(0) >= 1,
        "persist failures visible"
    );
    assert_eq!(snap.gauge("store.breaker.open").unwrap_or(0), 0);
    server.shutdown();
}

/// Overload: a one-worker server with a one-slot queue must shed — with
/// the structured `Degradation` and a metrics trace — while every
/// *accepted* submission still gets its answer.
#[test]
fn overload_sheds_structurally_and_answers_the_accepted() {
    let s = baseline(&chunks()[..1]);
    let server = Server::start(
        s,
        ServeOptions {
            workers: 1,
            queue_depth: 1,
            default_deadline: Some(Duration::from_secs(5)),
        },
    )
    .unwrap();

    let mut accepted = Vec::new();
    let mut sheds = 0u64;
    for _ in 0..256 {
        match server.submit("t2: X", Strategy::Sld) {
            Ok(p) => accepted.push(p),
            Err(ServeError::Shed(d)) => {
                assert_eq!(d.strategy, "serve");
                assert!(d.detail.contains("queue full"), "{}", d.detail);
                sheds += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for p in accepted {
        let a = p.wait().expect("accepted query must be answered");
        assert!(!a.rows.is_empty());
    }
    let snap = server.obs().metrics.snapshot();
    assert_eq!(snap.counter("serve.shed").unwrap_or(0), sheds);
    if sheds > 0 {
        assert!(snap.counter("serve.shed").unwrap() > 0);
    }
    server.shutdown();
}

fn fixpoint_evaluations(s: &Session) -> u64 {
    s.metrics().counter("folog.fixpoint.evaluations").unwrap_or(0)
}

/// A write to a served session copies its delta, not the saturated
/// model: the rows and terms the model's copy-on-write copies
/// (`session.publish.rows_copied`) stay within `FOLD_BOUND` for every
/// one-edge assert and retract, at two database sizes 8× apart, while
/// the larger model holds several times that many facts.
#[test]
fn served_writes_copy_their_delta_not_the_model() {
    for chains in [4, 32] {
        let obs = Obs::default();
        let mut session = Session::with_options(common::path_options(&obs));
        session.load(&common::disjoint_chains(chains, 8)).unwrap();
        let server = Server::start(session, ServeOptions::default()).unwrap();
        let copied = || {
            obs.metrics
                .snapshot()
                .counter("session.publish.rows_copied")
                .unwrap_or(0)
        };
        let write = |op: &dyn Fn(&Server) -> Result<(), ServeError>, what: &str| {
            let before = copied();
            op(&server).unwrap();
            let delta = copied() - before;
            assert!(
                delta <= FOLD_BOUND as u64,
                "{what} at {chains} chains copied {delta} rows and terms"
            );
        };
        for k in 0..24 {
            let spur = common::spur(k % chains, 3, k);
            write(&|sv| sv.load(&spur).map(drop), &spur);
            if k % 3 == 2 {
                let old = common::spur((k - 2) % chains, 3, k - 2);
                write(&|sv| sv.retract(&old).map(drop), &old);
            }
        }
        assert!(copied() > 0, "writes cloned the pinned model");
        let facts = server.with_session(|s| {
            s.model_stats(Strategy::BottomUpSemiNaive)
                .expect("published")
                .facts_derived
        });
        if chains == 32 {
            assert!(facts > 4 * FOLD_BOUND as u64, "{facts} facts");
        }
    }
}

/// `prepare` resumes only the semi-naive model; a snapshot saturates its
/// naive model on the first naive query and shares it with every later
/// one, including concurrent first queries.
#[test]
fn prepare_runs_one_fixpoint_per_write_and_snapshots_saturate_naive_once() {
    let chunks = chunks();
    let unlimited = Budget::unlimited();
    let mut s = baseline(&chunks[..1]);
    s.prepare().unwrap();
    for c in &chunks[1..3] {
        let before = fixpoint_evaluations(&s);
        s.load(c).unwrap();
        s.prepare().unwrap();
        assert_eq!(fixpoint_evaluations(&s), before + 1, "one fixpoint per write");
    }

    let snap = s.current_snapshot().expect("prepare publishes a snapshot");
    let before = fixpoint_evaluations(&s);
    for q in QUERIES {
        let semi = snap.query(q, Strategy::BottomUpSemiNaive, &unlimited).unwrap();
        for _ in 0..2 {
            let naive = snap.query(q, Strategy::BottomUpNaive, &unlimited).unwrap();
            assert!(naive.complete, "{q}");
            assert_eq!(naive.rendered(), semi.rendered(), "{q}");
        }
    }
    assert_eq!(fixpoint_evaluations(&s), before + 1, "one naive saturation per snapshot");

    s.load(&chunks[3]).unwrap();
    s.prepare().unwrap();
    let snap = s.current_snapshot().expect("republished");
    let before = fixpoint_evaluations(&s);
    let start = std::sync::Barrier::new(4);
    let answers: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let a = snap
                        .query("t3: O[l2 => V]", Strategy::BottomUpNaive, &unlimited)
                        .unwrap();
                    assert!(a.complete);
                    a.rendered()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let want = baseline(&chunks)
        .query("t3: O[l2 => V]", Strategy::BottomUpNaive)
        .unwrap()
        .rendered();
    assert!(answers.iter().all(|a| *a == want), "{answers:?}");
    assert_eq!(fixpoint_evaluations(&s), before + 1, "racing first queries share one saturation");
}

/// A snapshot's answer cache is bounded: more distinct complete answers
/// than its capacity clear it (counted as evictions), and a repeat right
/// after an insert still hits.
#[test]
fn snapshot_answer_cache_is_bounded() {
    let mut s = baseline(&chunks()[..1]);
    s.prepare().unwrap();
    let snap = s.current_snapshot().expect("prepare publishes a snapshot");
    let unlimited = Budget::unlimited();
    for i in 0..ANSWER_CACHE_CAPACITY + 100 {
        let q = format!("t1: c{i}");
        let (a, hit) = snap.query_cached(&q, Strategy::Direct, &unlimited).unwrap();
        assert!(a.complete && !hit, "{q}");
        assert!(snap.cached_answers() <= ANSWER_CACHE_CAPACITY);
        assert!(
            snap.query_cached(&q, Strategy::Direct, &unlimited)
                .unwrap()
                .1,
            "{q}"
        );
    }
    let evictions = s
        .metrics()
        .counter("session.snapshot.cache.evictions")
        .unwrap_or(0);
    assert!(evictions > 0);
}

fn is_unstratifiable(r: Result<Answers, ServeError>) -> bool {
    matches!(
        r,
        Err(ServeError::Session(SessionError::Eval(EvalError::Unstratifiable(_))))
    )
}

/// A load the log accepts but bottom-up evaluation rejects (a negative
/// cycle) must still publish: the server keeps taking writes, restarts
/// from the store, and every non-bottom-up strategy keeps answering.
/// Bottom-up queries report the program's error — never an answer the
/// cross-strategy cache got from another strategy — until a retraction
/// breaks the cycle.
#[test]
fn unstratifiable_load_keeps_a_persistent_server_writable() {
    const CYCLE: &str = "p: X :- seed: X, \\+ q: X.\nq: X :- seed: X, \\+ p: X.";
    let serve_opts = || ServeOptions {
        workers: WORKERS,
        queue_depth: 1024,
        default_deadline: None,
    };
    let mem = MemStorage::new();
    let (session, _) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
    let server = Server::start(session, serve_opts()).unwrap();
    server.load("seed: s.").unwrap();
    server.load(CYCLE).expect("a logged load publishes");
    server.load("seed: t.").expect("later loads still publish");
    let both = server.query("seed: X", Strategy::Direct).unwrap();
    assert_eq!(both.rendered(), ["X = s", "X = t"]);
    for strategy in [Strategy::BottomUpNaive, Strategy::BottomUpSemiNaive] {
        for q in ["seed: X", "p: X"] {
            assert!(is_unstratifiable(server.query(q, strategy)), "{strategy:?} on {q}");
        }
    }
    server.shutdown();

    let (session, report) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
    assert_eq!(report.recovered_epoch, 3);
    let server = Server::start(session, serve_opts()).expect("restart over the store");
    let mut exclusive = baseline(&["seed: s.", CYCLE, "seed: t."].map(String::from));
    for strategy in [Strategy::Direct, Strategy::Sld, Strategy::Tabled, Strategy::Magic] {
        let served = match server.query("seed: X", strategy) {
            Ok(a) => Ok(a.rendered()),
            Err(ServeError::Session(e)) => Err(e.to_string()),
            Err(e) => panic!("{strategy:?}: {e}"),
        };
        let want = common::evaluate(&mut exclusive, "seed: X", strategy)
            .map(|a| a.rendered())
            .map_err(|e| e.to_string());
        assert_eq!(served, want, "{strategy:?}");
    }
    assert!(is_unstratifiable(server.query("seed: X", Strategy::BottomUpSemiNaive)));

    server.retract("q: X :- seed: X, \\+ p: X.").unwrap();
    for strategy in [Strategy::BottomUpNaive, Strategy::BottomUpSemiNaive] {
        let a = server.query("p: X", strategy).unwrap();
        assert_eq!(a.rendered(), ["X = s", "X = t"], "{strategy:?}");
    }
    server.shutdown();

    // A tenant holding the cycle can be evicted and reopened.
    let mgr = SessionManager::new(common::mem_factory(), ManagerOptions::default());
    mgr.load("a", CYCLE).unwrap();
    mgr.load("a", "seed: s.").unwrap();
    assert!(mgr.evict("a").unwrap());
    let a = mgr.query("a", "seed: X", Strategy::Direct).expect("reopened");
    assert_eq!(a.rendered(), ["X = s"]);
}

// ---------- proptest: random interleaved workloads ----------

fn workload() -> impl proptest::strategy::Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec(
        (0..QUERIES.len(), 0..Strategy::ALL.len()),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaved parallel workload over the entity-creating
    /// program answers exactly like the same workload run serially —
    /// for every strategy mix, with ≥4 workers. In particular the `skN`
    /// identities in the answers never fork across threads.
    #[test]
    fn interleaved_parallel_workload_equals_serial(
        ops in workload(),
        prefix in 1usize..5,
    ) {
        let loaded: Vec<String> = chunks().into_iter().take(prefix).collect();
        let mut serial = baseline(&loaded);
        let expected: Vec<Vec<String>> = ops
            .iter()
            .map(|&(q, s)| {
                common::evaluate(&mut serial, QUERIES[q], Strategy::ALL[s])
                    .unwrap()
                    .rendered()
            })
            .collect();

        let server = Server::start(
            baseline(&loaded),
            ServeOptions {
                workers: WORKERS,
                queue_depth: 1024,
                default_deadline: None,
            },
        )
        .unwrap();
        // Submit everything before redeeming anything, so evaluations
        // genuinely overlap in the pool.
        let pending: Vec<_> = ops
            .iter()
            .map(|&(q, s)| server.submit(QUERIES[q], Strategy::ALL[s]).unwrap())
            .collect();
        for (p, want) in pending.into_iter().zip(&expected) {
            let got = p.wait().unwrap().rendered();
            prop_assert_eq!(&got, want);
        }
        server.shutdown();
    }

    /// Direct snapshot reads equal each strategy's own evaluation on a
    /// second session, over the entity-creating program — including the
    /// `skN` identities — and the snapshot's cross-strategy answer
    /// cache hands back exactly the answers it was filled with, even
    /// when the hit comes from a different strategy than the fill.
    #[test]
    fn snapshot_equals_exclusive_across_strategies(
        ops in workload(),
        prefix in 1usize..5,
    ) {
        let loaded: Vec<String> = chunks().into_iter().take(prefix).collect();
        let mut exclusive = baseline(&loaded);
        let mut shared = baseline(&loaded);
        shared.prepare().unwrap();
        let snap = shared.current_snapshot().expect("prepare publishes a snapshot");
        let unlimited = Budget::unlimited();
        for &(q, s) in &ops {
            let (query, strategy) = (QUERIES[q], Strategy::ALL[s]);
            let want = common::evaluate(&mut exclusive, query, strategy).unwrap();
            let (got, _) = snap.query_cached(query, strategy, &unlimited).unwrap();
            prop_assert_eq!(
                got.rendered(),
                want.rendered(),
                "{:?} on {}",
                strategy,
                query
            );
            if got.complete {
                let (again, hit) = snap.query_cached(query, strategy, &unlimited).unwrap();
                prop_assert!(hit, "complete answers must cache ({:?} on {})", strategy, query);
                prop_assert_eq!(again.rendered(), want.rendered());
            }
        }
    }
}
