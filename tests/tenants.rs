//! Multi-tenant serving under chaos: one `SessionManager` multiplexing
//! many named durable sessions must keep tenants **isolated** — a tenant
//! whose storage is down is served read-only with its breaker surfaced,
//! while neighbors on healthy storage see zero retries, zero sheds, and
//! answers identical to a serial session — and its eviction/recovery
//! cycle must be invisible: `evict ∘ recover ≡ never-evicted`, answers
//! and skolem identities included, at **every** fault boundary.
//!
//! Four layers are exercised together:
//!
//! * per-tenant fault isolation (namespaced metrics, per-tenant retry
//!   budget and circuit breaker);
//! * the eviction-safety predicate (`Session::fully_persisted`): a
//!   mid-outage tenant defers eviction rather than losing unlogged
//!   loads, and heals by compaction once the disk returns;
//! * LRU eviction bounding resident sessions at capacity while the
//!   tenant *population* stays unbounded;
//! * the length-prefixed JSON wire protocol over a real `TcpFront`.
//!
//! The chaos sweep mirrors `tests/recovery.rs` and `tests/serve.rs`:
//! measure a clean run's I/O operation count with a pure-counter chaos
//! wrapper, then re-run the whole load→evict→recover scenario once per
//! (fault kind, trigger) pair.

use clogic::obs::{Json, Obs};
use clogic::session::{Session, SessionOptions, Strategy};
use clogic::store::{ChaosStorage, Fault, MemStorage, RetryPolicy, Storage};
use clogic_serve::protocol::get;
use clogic_serve::{
    Client, ManagerOptions, Request, RequestOp, SessionManager, StorageFactory, TcpFront,
    TcpFrontOptions, TenantState,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;

const QUERIES: &[&str] = &["t2: X", "t3: O[l2 => V]", "p(X)", "t1: X[l1 => Y]"];

/// Same shape as the serve/recovery suites: facts, molecules, a subtype
/// declaration, rules, and an entity-creating rule whose head-only
/// variable mints `skN` identities on load — so equivalence checks also
/// pin skolem identity across eviction and recovery.
fn chunks() -> Vec<String> {
    vec![
        "t1 < t2.\nt1: c1[l1 => c2].\nt3: C[l2 => X] :- t1: X.".to_string(),
        "t1: c3.\np(X) :- t1: X[l1 => Y].".to_string(),
        "t2: c4[l2 => c5].\nt3: D[l1 => X] :- t2: X[l2 => Y].".to_string(),
        "t1: c2[l1 => c4].\nt3: X :- t2: X.".to_string(),
    ]
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        breaker_threshold: 2,
        probe_after: 2,
    }
}

fn manager_opts(obs: &Obs, capacity: usize) -> ManagerOptions {
    ManagerOptions {
        capacity,
        retry: fast_policy(),
        session: SessionOptions {
            snapshot_every: Some(2),
            obs: obs.clone(),
            ..SessionOptions::default()
        },
        sleeper: Arc::new(|_| {}),
    }
}

/// A serial, non-persistent session over the same load sequence — the
/// ground truth every tenant must match.
fn serial(loads: &[String]) -> Session {
    let mut s = Session::with_options(SessionOptions {
        snapshot_every: Some(2),
        ..SessionOptions::default()
    });
    for c in loads {
        s.load(c).expect("serial load");
    }
    s
}

type Stores = Arc<Mutex<HashMap<String, MemStorage>>>;

/// A factory handing each tenant its own `MemStorage`, stable across
/// evictions (clones share bytes).
fn mem_factory(stores: &Stores) -> StorageFactory {
    let stores = Arc::clone(stores);
    Arc::new(move |name| {
        let mut stores = stores.lock().unwrap();
        Ok(Box::new(stores.entry(name.to_string()).or_default().clone()) as Box<dyn Storage>)
    })
}

/// Ops a clean open + first-chunk load costs through the manager,
/// measured with a pure-counter chaos — so outage triggers can be placed
/// right after the first load without hardcoding the durability
/// protocol's op sequence.
fn first_load_clean_ops(chunks: &[String]) -> u64 {
    let chaos = ChaosStorage::new(MemStorage::new(), 0, Fault::Fail);
    let counter = chaos.op_counter();
    let slot = Arc::new(Mutex::new(Some(Box::new(chaos) as Box<dyn Storage>)));
    let factory: StorageFactory =
        Arc::new(move |_| Ok(slot.lock().unwrap().take().expect("probe tenant opens once")));
    let mgr = SessionManager::new(factory, manager_opts(&Obs::new(), 4));
    mgr.load("probe", &chunks[0]).expect("clean probe load");
    counter.load(Ordering::Relaxed)
}

/// Every strategy's answers through the manager must equal the serial
/// session's — program text too, which pins the skolem identities.
fn assert_tenant_equals_serial(
    mgr: &SessionManager,
    name: &str,
    base: &mut Session,
    context: &str,
) {
    {
        let pin = mgr
            .open(name)
            .unwrap_or_else(|e| panic!("open {name} ({context}): {e}"));
        let s = pin.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(s.epoch(), base.epoch(), "epoch ({context})");
        assert_eq!(
            s.program().to_string(),
            base.program().to_string(),
            "program and skolem identities ({context})"
        );
    }
    for strategy in Strategy::ALL {
        for q in QUERIES {
            let served = mgr
                .query(name, q, strategy)
                .unwrap_or_else(|e| panic!("{strategy:?} on {q} ({context}): {e}"));
            let expected = common::evaluate(base, q, strategy).expect("serial query");
            assert_eq!(
                served.rendered(),
                expected.rendered(),
                "{strategy:?} on {q} ({context})"
            );
        }
    }
}

/// The acceptance scenario: one tenant's storage goes down permanently
/// after its first load; four healthy neighbors load and query through
/// the same manager **concurrently**. The sick tenant keeps answering
/// read-only with its breaker surfaced in the `LoadReport`, its status
/// row, and its metric namespace; every healthy tenant persists every
/// load, records zero retries, and answers exactly like a serial
/// session.
#[test]
fn sick_tenant_is_read_only_while_neighby_tenants_serve_unaffected() {
    let chunks = chunks();
    let healthy: Vec<String> = (0..4).map(|i| format!("h{i}")).collect();
    let trigger = first_load_clean_ops(&chunks) + 1;

    let obs = Obs::new();
    let stores: Stores = Arc::new(Mutex::new(HashMap::new()));
    let mem = mem_factory(&stores);
    let factory: StorageFactory = Arc::new(move |name| {
        let storage = mem(name)?;
        if name == "sick" {
            // Clean through the first load, then a permanent outage.
            Ok(
                Box::new(ChaosStorage::intermittent(storage, trigger, u64::MAX, Fault::Fail))
                    as Box<dyn Storage>,
            )
        } else {
            Ok(storage)
        }
    });
    let mgr = SessionManager::new(factory, manager_opts(&obs, 16));

    // Everyone's first load persists; the outage starts after.
    for name in healthy.iter().map(String::as_str).chain(["sick"]) {
        let report = mgr.load(name, &chunks[0]).unwrap();
        assert!(report.persisted(), "first load of {name} should persist");
        assert!(!report.breaker_open);
    }

    std::thread::scope(|scope| {
        let mgr = &mgr;
        let chunks = &chunks;
        scope.spawn(move || {
            let mut last = None;
            for c in &chunks[1..] {
                last = Some(mgr.load("sick", c).unwrap());
            }
            let last = last.expect("three outage loads");
            assert!(
                last.store_error.is_some(),
                "the outage must surface in the LoadReport"
            );
            assert!(
                last.breaker_open,
                "the breaker must open once the retry budget drains"
            );
            // Read-only service: the unpersisted loads still answer,
            // identically to a serial session, under every strategy.
            let mut base = serial(chunks);
            for strategy in Strategy::ALL {
                for q in QUERIES {
                    let served = mgr.query("sick", q, strategy).unwrap();
                    let expected = common::evaluate(&mut base, q, strategy).unwrap();
                    assert_eq!(served.rendered(), expected.rendered(), "sick {strategy:?} {q}");
                }
            }
        });
        for name in &healthy {
            scope.spawn(move || {
                for c in &chunks[1..] {
                    let report = mgr.load(name, c).unwrap();
                    assert!(report.persisted(), "healthy {name} must persist every load");
                    assert!(!report.breaker_open, "healthy {name} breaker must stay closed");
                }
                let mut base = serial(chunks);
                for strategy in Strategy::ALL {
                    for q in QUERIES {
                        let served = mgr.query(name, q, strategy).unwrap();
                        let expected = common::evaluate(&mut base, q, strategy).unwrap();
                        assert_eq!(
                            served.rendered(),
                            expected.rendered(),
                            "{name} {strategy:?} {q}"
                        );
                    }
                }
            });
        }
    });

    // Fault isolation on the books: the sick tenant's namespace shows
    // the open breaker; every healthy namespace shows zero retries and
    // zero exhaustions; nothing was shed anywhere.
    let snap = obs.metrics.snapshot();
    assert!(
        snap.counter("tenant.sick.serve.breaker_open").unwrap_or(0) >= 1,
        "sick breaker-open transitions should be counted"
    );
    assert_eq!(
        snap.gauge("tenant.sick.store.breaker.open"),
        Some(1),
        "sick breaker gauge should read open"
    );
    assert!(snap.counter("manager.persist_failures").unwrap_or(0) >= 1);
    for name in &healthy {
        assert_eq!(
            snap.counter(&format!("tenant.{name}.serve.retry")).unwrap_or(0),
            0,
            "healthy {name} must record zero retries"
        );
        assert_eq!(
            snap.counter(&format!("tenant.{name}.store.retry.exhausted"))
                .unwrap_or(0),
            0,
            "healthy {name} must record zero retry exhaustions"
        );
    }
    assert_eq!(snap.counter("serve.shed").unwrap_or(0), 0, "zero sheds");

    // And in the status listing.
    let status: HashMap<String, (TenantState, Option<bool>)> = mgr
        .tenants()
        .into_iter()
        .map(|t| (t.name.clone(), (t.state, t.breaker_open)))
        .collect();
    assert_eq!(status["sick"].0, TenantState::Live);
    assert_eq!(status["sick"].1, Some(true), "status must surface the breaker");
    for name in &healthy {
        assert_eq!(status[name.as_str()].1, Some(false));
    }
}

/// A mid-outage tenant must refuse (defer) eviction — its in-memory
/// state is ahead of its log — and, once the disk heals, persist the
/// backlog by compaction so eviction becomes safe and recovery loses
/// nothing.
#[test]
fn eviction_mid_outage_is_deferred_until_the_disk_heals() {
    let chunks = chunks();
    let trigger = first_load_clean_ops(&chunks) + 1;
    const BURST: u64 = 9;

    let obs = Obs::new();
    let stores: Stores = Arc::new(Mutex::new(HashMap::new()));
    let mem = mem_factory(&stores);
    let factory: StorageFactory = Arc::new(move |name| {
        let storage = mem(name)?;
        if name == "t" {
            Ok(Box::new(ChaosStorage::intermittent(storage, trigger, BURST, Fault::Fail))
                as Box<dyn Storage>)
        } else {
            Ok(storage)
        }
    });
    let mgr = SessionManager::new(factory, manager_opts(&obs, 8));

    let mut applied: Vec<String> = Vec::new();
    let report = mgr.load("t", &chunks[0]).unwrap();
    applied.push(chunks[0].clone());
    assert!(report.persisted());

    // The outage begins: this load lands in memory but not in the log.
    let report = mgr.load("t", &chunks[1]).unwrap();
    applied.push(chunks[1].clone());
    assert!(!report.persisted(), "mid-outage load must report unpersisted");

    // Eviction must defer — dropping the session now would lose the
    // unlogged load.
    assert!(!mgr.evict("t").unwrap(), "mid-outage eviction must defer");
    let deferrals = obs
        .metrics
        .snapshot()
        .counter("manager.eviction_deferrals")
        .unwrap_or(0);
    assert!(deferrals >= 1);
    assert_eq!(
        mgr.tenants()
            .into_iter()
            .find(|t| t.name == "t")
            .unwrap()
            .state,
        TenantState::Live,
        "a deferred tenant stays resident"
    );

    // Heartbeat loads drain the fault burst; once the disk heals, the
    // gap left by the outage is persisted by compaction.
    let mut healed = false;
    for i in 0..50 {
        let src = format!("hb{i}: beat.");
        let report = mgr.load("t", &src).unwrap();
        applied.push(src);
        if report.persisted() && !report.breaker_open {
            healed = true;
            break;
        }
    }
    assert!(healed, "the burst should drain within the heartbeat budget");

    // Now eviction succeeds, and lazy recovery replays everything — the
    // mid-outage load included, with identical answers and skolems.
    assert!(mgr.evict("t").unwrap(), "post-heal eviction must proceed");
    assert_eq!(
        mgr.tenants()
            .into_iter()
            .find(|t| t.name == "t")
            .unwrap()
            .state,
        TenantState::Evicted
    );
    let mut base = serial(&applied);
    assert_tenant_equals_serial(&mgr, "t", &mut base, "post-outage recovery");
}

/// Ops a clean open + all-chunk load + explicit evict costs, for the
/// fault-boundary sweep below.
fn scenario_clean_ops(chunks: &[String]) -> u64 {
    let chaos = ChaosStorage::new(MemStorage::new(), 0, Fault::Fail);
    let counter = chaos.op_counter();
    let slot = Arc::new(Mutex::new(Some(Box::new(chaos) as Box<dyn Storage>)));
    let factory: StorageFactory =
        Arc::new(move |_| Ok(slot.lock().unwrap().take().expect("probe tenant opens once")));
    let mgr = SessionManager::new(factory, manager_opts(&Obs::new(), 4));
    for c in chunks {
        mgr.load("t", c).expect("clean probe load");
    }
    assert!(mgr.evict("t").expect("clean probe evict"));
    counter.load(Ordering::Relaxed)
}

/// One sweep cell: load every chunk with a one-shot `fault` at operation
/// `trigger` (absorbed by the per-tenant retry layer), evict, recover
/// lazily, and demand the recovered tenant is indistinguishable from a
/// session that was never evicted. Note the factory re-arms the fault
/// for the recovery's own storage instance, so late triggers exercise
/// fault-during-recovery too.
fn assert_evict_recover_equivalent(fault: Fault, trigger: u64) {
    let chunks = chunks();
    let context = format!("{fault:?}@{trigger}");
    let stores: Stores = Arc::new(Mutex::new(HashMap::new()));
    let mem = mem_factory(&stores);
    let factory: StorageFactory = Arc::new(move |name| {
        let storage = mem(name)?;
        Ok(Box::new(ChaosStorage::new(storage, trigger, fault)) as Box<dyn Storage>)
    });
    let obs = Obs::new();
    let mgr = SessionManager::new(factory, manager_opts(&obs, 4));

    for c in &chunks {
        mgr.load("t", c)
            .unwrap_or_else(|e| panic!("load under {context}: {e}"));
    }
    let evicted = mgr
        .evict("t")
        .unwrap_or_else(|e| panic!("evict under {context}: {e}"));
    assert!(
        evicted,
        "a one-shot fault within the retry budget must not defer eviction ({context})"
    );
    assert_eq!(
        mgr.tenants()
            .into_iter()
            .find(|t| t.name == "t")
            .unwrap()
            .state,
        TenantState::Evicted,
        "{context}"
    );

    let mut base = serial(&chunks);
    assert_tenant_equals_serial(&mgr, "t", &mut base, &context);
}

/// evict ∘ recover ≡ never-evicted at **every** I/O boundary of the
/// scenario, for every fault kind.
#[test]
fn evict_recover_equals_never_evicted_across_all_fault_boundaries() {
    let total = scenario_clean_ops(&chunks());
    assert!(total >= 10, "probe sanity: only {total} clean ops");
    for fault in Fault::ALL {
        for trigger in 1..=total {
            assert_evict_recover_equivalent(fault, trigger);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same property at random fault points, including triggers past
    /// the clean-run count (faults landing during recovery itself).
    #[test]
    fn evict_recover_equivalence_holds_at_random_fault_points(
        fault_idx in 0usize..Fault::ALL.len(),
        trigger in 1u64..64,
    ) {
        assert_evict_recover_equivalent(Fault::ALL[fault_idx], trigger);
    }
}

/// LRU eviction bounds *resident* sessions at capacity while the tenant
/// population grows unbounded, and every cold tenant still answers
/// (recovering transparently on first use).
#[test]
fn lru_eviction_bounds_resident_sessions_at_capacity() {
    const CAPACITY: usize = 4;
    const TENANTS: usize = 20;
    let obs = Obs::new();
    let stores: Stores = Arc::new(Mutex::new(HashMap::new()));
    let mgr = SessionManager::new(mem_factory(&stores), manager_opts(&obs, CAPACITY));

    for i in 0..TENANTS {
        mgr.load(&format!("tenant{i:02}"), &format!("t{i}: c{i}."))
            .unwrap();
        assert!(
            mgr.resident() <= CAPACITY,
            "resident {} exceeds capacity after tenant{i:02}",
            mgr.resident()
        );
    }
    assert_eq!(mgr.tenants().len(), TENANTS);
    let snap = obs.metrics.snapshot();
    assert!(snap.gauge("manager.sessions.live").unwrap_or(0) <= CAPACITY as u64);
    assert!(
        snap.counter("manager.evictions").unwrap_or(0) >= (TENANTS - CAPACITY) as u64,
        "idle tenants beyond capacity must have been evicted"
    );

    // Every tenant — cold or warm — still answers correctly.
    for i in 0..TENANTS {
        let answers = mgr
            .query(&format!("tenant{i:02}"), &format!("t{i}: X"), Strategy::Sld)
            .unwrap();
        assert_eq!(answers.rows.len(), 1, "tenant{i:02}");
        assert!(mgr.resident() <= CAPACITY);
    }
}

/// The wire protocol end to end: a real `TcpFront` on an ephemeral port,
/// loads and queries framed over TCP, status listing, structured errors
/// that keep the connection alive, and several concurrent connections.
#[test]
fn tcp_front_round_trips_load_query_status_and_errors() {
    let chunks = chunks();
    let obs = Obs::new();
    let stores: Stores = Arc::new(Mutex::new(HashMap::new()));
    let mgr = Arc::new(SessionManager::new(
        mem_factory(&stores),
        manager_opts(&obs, 8),
    ));
    let front = TcpFront::start(Arc::clone(&mgr), "127.0.0.1:0", TcpFrontOptions::default())
        .expect("bind ephemeral port");
    let mut client = Client::connect(front.addr()).expect("connect");

    // Load every chunk over the wire.
    for (i, c) in chunks.iter().enumerate() {
        let resp = client
            .request(&Request {
                tenant: "wire".into(),
                op: RequestOp::Load { src: c.clone() },
            })
            .unwrap();
        assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "load {i}: {resp}");
        assert_eq!(get(&resp, "epoch"), Some(&Json::U64(i as u64 + 1)));
        assert_eq!(get(&resp, "persisted"), Some(&Json::Bool(true)));
        assert_eq!(get(&resp, "breaker_open"), Some(&Json::Bool(false)));
    }

    // Query under every strategy; bindings must match the serial session
    // exactly, through the JSON round trip.
    let mut base = serial(&chunks);
    for strategy in Strategy::ALL {
        for q in QUERIES {
            let resp = client
                .request(&Request {
                    tenant: "wire".into(),
                    op: RequestOp::Query {
                        src: q.to_string(),
                        strategy,
                        deadline_ms: Some(30_000),
                    },
                })
                .unwrap();
            assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "{strategy:?} {q}: {resp}");
            assert_eq!(get(&resp, "complete"), Some(&Json::Bool(true)));
            let Some(Json::Array(rows)) = get(&resp, "rows") else {
                panic!("rows missing in {resp}");
            };
            let got: Vec<Vec<(String, String)>> = rows
                .iter()
                .map(|row| match row {
                    Json::Object(fields) => fields
                        .iter()
                        .map(|(k, v)| match v {
                            Json::Str(s) => (k.clone(), s.clone()),
                            other => (k.clone(), other.to_string()),
                        })
                        .collect(),
                    other => panic!("row is not an object: {other}"),
                })
                .collect();
            let expected: Vec<Vec<(String, String)>> = common::evaluate(&mut base, q, strategy)
                .unwrap()
                .rows
                .iter()
                .map(|row| {
                    row.bindings
                        .iter()
                        .map(|(var, term)| (var.to_string(), term.to_string()))
                        .collect()
                })
                .collect();
            assert_eq!(got, expected, "{strategy:?} on {q}");
        }
    }

    // Status lists the tenant as live.
    let resp = client
        .request(&Request {
            tenant: "wire".into(),
            op: RequestOp::Status,
        })
        .unwrap();
    assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)));
    let Some(Json::Array(tenants)) = get(&resp, "tenants") else {
        panic!("tenants missing in {resp}");
    };
    assert!(
        tenants.iter().any(|t| get(t, "name") == Some(&Json::Str("wire".into()))
            && get(t, "state") == Some(&Json::Str("live".into()))),
        "status should list tenant `wire` as live: {resp}"
    );

    // A bad tenant name is a structured error and the connection
    // survives it.
    let resp = client
        .request(&Request {
            tenant: "no/pe".into(),
            op: RequestOp::Load { src: "t: a.".into() },
        })
        .unwrap();
    assert_eq!(get(&resp, "ok"), Some(&Json::Bool(false)));
    match get(&resp, "error") {
        Some(Json::Str(msg)) => assert!(msg.contains("invalid tenant name"), "{msg}"),
        other => panic!("expected error string, got {other:?}"),
    }
    let resp = client
        .request(&Request {
            tenant: "wire".into(),
            op: RequestOp::Status,
        })
        .unwrap();
    assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "connection must survive");

    // Several concurrent connections, distinct tenants.
    let addr = front.addr();
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let resp = c
                    .request(&Request {
                        tenant: format!("par{t}"),
                        op: RequestOp::Load {
                            src: format!("t: a{t}."),
                        },
                    })
                    .unwrap();
                assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "par{t}: {resp}");
                for _ in 0..5 {
                    let resp = c
                        .request(&Request {
                            tenant: format!("par{t}"),
                            op: RequestOp::Query {
                                src: "t: X".into(),
                                strategy: Strategy::Sld,
                                deadline_ms: None,
                            },
                        })
                        .unwrap();
                    assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "par{t}: {resp}");
                    let Some(Json::Array(rows)) = get(&resp, "rows") else {
                        panic!("rows missing: {resp}");
                    };
                    assert_eq!(rows.len(), 1, "par{t}");
                }
            });
        }
    });

    front.shutdown();
}
