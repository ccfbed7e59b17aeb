//! E10 — multi-tenant serving at scale: one `SessionManager` carrying
//! ~1k named durable sessions with LRU eviction bounding residency at a
//! small capacity, a warm/cold query mix forcing continual lazy
//! recovery, and chaotic storage under 10% of the tenants.
//!
//! The design claims under test:
//!
//! * residency stays at the LRU capacity no matter how many tenants
//!   exist — memory is bounded by configuration, not by population;
//! * a cold tenant's first query transparently recovers it from its
//!   durable store and answers exactly its own data (no cross-tenant
//!   leaks), at a sustained queries/s the readout reports;
//! * transient storage faults on the chaotic subset are absorbed by the
//!   per-tenant retry layer without a single exhaustion, and healthy
//!   tenants never see them.
//!
//! Hand-written harness (`harness = false`): `--test` runs a small smoke
//! configuration for CI; either mode dumps `BENCH_tenants.json` at the
//! workspace root.

use clogic::obs::Obs;
use clogic::{SessionOptions, Strategy};
use clogic_bench::measure::{dump_json, print_table, us};
use clogic::store::{ChaosStorage, Fault, MemStorage, RetryPolicy, Storage};
use clogic_serve::{ManagerOptions, SessionManager, StorageFactory};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every 10th tenant gets chaotic storage: a two-strike fault burst
/// early in each storage instance's life (so it also recurs on every
/// recovery, which re-invokes the factory). Two strikes sit inside the
/// three-retry budget — the point is absorbed chaos, not outages.
const CHAOS_STRIDE: usize = 10;
const CHAOS_TRIGGER: u64 = 5;
const CHAOS_BURST: u64 = 2;

fn tenant_name(i: usize) -> String {
    format!("tenant{i:04}")
}

/// Each tenant's program: one distinctively-named object plus a rule,
/// so a recovered tenant answering the wrong tenant's data is caught.
fn tenant_program(i: usize) -> String {
    format!("item: w{i}[price => p{i}].\ncheap(X) :- item: X[price => Y].")
}

fn factory(tenants: usize) -> StorageFactory {
    let stores: Arc<Mutex<HashMap<String, MemStorage>>> = Arc::default();
    Arc::new(move |name| {
        let mut stores = stores.lock().unwrap();
        let storage = stores.entry(name.to_string()).or_default().clone();
        let index: usize = name
            .strip_prefix("tenant")
            .and_then(|d| d.parse().ok())
            .unwrap_or(0);
        if index < tenants && index.is_multiple_of(CHAOS_STRIDE) {
            Ok(Box::new(ChaosStorage::intermittent(
                storage,
                CHAOS_TRIGGER,
                CHAOS_BURST,
                Fault::Fail,
            )) as Box<dyn Storage>)
        } else {
            Ok(Box::new(storage) as Box<dyn Storage>)
        }
    })
}

fn manager(obs: &Obs, tenants: usize, capacity: usize) -> SessionManager {
    SessionManager::new(
        factory(tenants),
        ManagerOptions {
            capacity,
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(200),
                breaker_threshold: 4,
                probe_after: 2,
            },
            session: SessionOptions {
                snapshot_every: Some(4),
                obs: obs.clone(),
                ..SessionOptions::default()
            },
            sleeper: Arc::new(|_| {}),
        },
    )
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (tenants, capacity, queries) = if test_mode {
        (128, 16, 512)
    } else {
        (1024, 64, 6144)
    };
    let obs = Obs::new();
    let mgr = manager(&obs, tenants, capacity);
    let rotation = [Strategy::Sld, Strategy::Tabled, Strategy::BottomUpSemiNaive];

    // Populate: one load per tenant; the LRU must bound residency the
    // whole way through.
    let mut max_resident = 0;
    let load_start = Instant::now();
    for i in 0..tenants {
        mgr.load(&tenant_name(i), &tenant_program(i))
            .expect("tenant load");
        max_resident = max_resident.max(mgr.resident());
    }
    let load_wall = load_start.elapsed();
    assert!(
        max_resident <= capacity,
        "residency {max_resident} broke the LRU bound {capacity}"
    );

    // Sustained warm/cold mix: 80% of queries hit a hot set half the
    // LRU capacity wide (these stay resident), 20% walk the cold tail
    // (each one a lazy recovery that evicts someone else).
    let hot = (capacity / 2).max(1);
    let mut warm = 0usize;
    let mut cold = 0usize;
    let query_start = Instant::now();
    for k in 0..queries {
        let i = if k % 5 == 4 {
            cold += 1;
            hot + (k / 5) % (tenants - hot)
        } else {
            warm += 1;
            k % hot
        };
        let answers = mgr
            .query(&tenant_name(i), "cheap(X)", rotation[k % rotation.len()])
            .expect("tenant query");
        assert_eq!(answers.rows.len(), 1, "tenant {i} row count");
        assert!(
            answers.rendered().concat().contains(&format!("w{i}")),
            "tenant {i} answered someone else's data"
        );
        max_resident = max_resident.max(mgr.resident());
    }
    let query_wall = query_start.elapsed();
    assert!(
        max_resident <= capacity,
        "residency {max_resident} broke the LRU bound {capacity}"
    );

    let snap = obs.metrics.snapshot();
    let evictions = snap.counter("manager.evictions").unwrap_or(0);
    let recoveries = snap.counter("manager.recoveries").unwrap_or(0);
    assert!(evictions > 0 && recoveries > 0, "the mix never went cold");
    assert_eq!(snap.counter("manager.recovery_failures").unwrap_or(0), 0);
    // Chaos bursts must be absorbed by retries, never exhausted, in any
    // tenant's namespace.
    let retries: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.ends_with(".serve.retry"))
        .map(|(_, v)| v)
        .sum();
    let exhausted: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.ends_with(".store.retry.exhausted"))
        .map(|(_, v)| v)
        .sum();
    assert!(retries > 0, "the chaotic subset never struck");
    assert_eq!(exhausted, 0, "a chaos burst exhausted a retry budget");

    let qps = queries as f64 / query_wall.as_secs_f64().max(1e-9);
    let loads_ps = tenants as f64 / load_wall.as_secs_f64().max(1e-9);
    print_table(
        "e10_tenants (multi-tenant serving, LRU eviction, 10% chaos)",
        &["phase", "ops", "wall (us)", "ops/s"],
        &[
            vec![
                format!("populate x{tenants}"),
                tenants.to_string(),
                us(load_wall),
                format!("{loads_ps:.0}"),
            ],
            vec![
                format!("query mix ({warm} warm / {cold} cold)"),
                queries.to_string(),
                us(query_wall),
                format!("{qps:.0}"),
            ],
        ],
    );
    println!(
        "\nresident peak {max_resident}/{capacity} over {tenants} tenants; \
         {evictions} evictions, {recoveries} recoveries, {retries} retries absorbed"
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tenants.json");
    dump_json(
        out,
        &[
            ("mode", format!("\"{}\"", if test_mode { "test" } else { "full" })),
            ("tenants", tenants.to_string()),
            ("capacity", capacity.to_string()),
            ("chaos_tenants", tenants.div_ceil(CHAOS_STRIDE).to_string()),
            ("max_resident", max_resident.to_string()),
            ("load_us", us(load_wall)),
            ("queries", queries.to_string()),
            ("warm", warm.to_string()),
            ("cold", cold.to_string()),
            ("query_us", us(query_wall)),
            ("qps", format!("{qps:.1}")),
            ("evictions", evictions.to_string()),
            ("recoveries", recoveries.to_string()),
            ("retries_absorbed", retries.to_string()),
        ],
    )
    .expect("dump BENCH_tenants.json");
    println!("wrote {out}");
}
