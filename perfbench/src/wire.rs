//! `wire_lookup`: point lookups over `TcpFront` from two `Client`
//! connections into several tenants of one `SessionManager` on
//! `MemStorage`. Stresses the serve layer; the engine stays nearly idle.

use crate::report::{counter, hist_mean_ms, median, ms, report_faults, Loop, Report};
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::{plan_rng, shuffle, Args, Digest};
use clogic::core::transform::Transformer;
use clogic::folog::Budget;
use clogic::obs::Json;
use clogic::parser::parse_query;
use clogic::store::{MemStorage, Storage};
use clogic::{Answers, SessionSnapshot, Strategy};
use clogic_bench::objects;
use clogic_serve::protocol::{self, get, parse_json};
use clogic_serve::{
    Client, ManagerOptions, Request, RequestOp, Response, SessionManager, StorageFactory, TcpFront,
    TcpFrontOptions,
};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
/// Objects per tenant; every object not in the hot set is one cold key.
const OBJECTS: usize = 5000;
const LABELS: usize = 4;
const VALUE_POOL: usize = 50;
const HOT_PER_TENANT: usize = 32;
/// One op in every block of this many uses a cold key, the rest a hot
/// one, so the snapshot cache hit ratio of the timed loop is 0.9.
const BLOCK: usize = 10;
/// Client connections (one thread each); the box has two cores.
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A response slower than this is a transport failure, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy)]
struct Op {
    tenant: usize,
    object: usize,
}

struct Tenant {
    name: String,
    /// Program text, rendered from `objects::functional_objects`.
    text: String,
    /// `values[i][j]`: the value index of object `i`'s label `j`.
    values: Vec<[usize; LABELS]>,
}

pub struct Plan {
    tenants: Vec<Tenant>,
    hot: Vec<Op>,
    ops: Vec<Op>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut rng = plan_rng(seed, 1);
        let tenants: Vec<Tenant> = (0..TENANTS)
            .map(|t| {
                let tseed = rng.next_u64();
                // Replays `functional_objects`' draws to know every value.
                let mut draw = SmallRng::seed_from_u64(tseed);
                let values: Vec<[usize; LABELS]> = (0..OBJECTS)
                    .map(|_| std::array::from_fn(|_| draw.gen_range(0..VALUE_POOL)))
                    .collect();
                let last = OBJECTS - 1;
                assert_eq!(
                    objects::functional_value(OBJECTS, LABELS, VALUE_POOL, tseed, last, LABELS - 1),
                    format!("v{}", values[last][LABELS - 1]),
                    "replayed values must match the generator"
                );
                Tenant {
                    name: format!("t{t}"),
                    text: objects::functional_objects(OBJECTS, LABELS, VALUE_POOL, tseed)
                        .to_string(),
                    values,
                }
            })
            .collect();
        let mut hot = Vec::new();
        let mut cold = Vec::new();
        for tenant in 0..TENANTS {
            let mut objs: Vec<usize> = (0..OBJECTS).collect();
            shuffle(&mut rng, &mut objs);
            for (k, object) in objs.into_iter().enumerate() {
                let op = Op { tenant, object };
                if k < HOT_PER_TENANT {
                    hot.push(op);
                } else {
                    cold.push(op);
                }
            }
        }
        shuffle(&mut rng, &mut cold);
        let mut ops = Vec::with_capacity(cold.len() * BLOCK);
        for c in cold {
            let at = rng.gen_range(0..BLOCK);
            for i in 0..BLOCK {
                ops.push(if i == at {
                    c
                } else {
                    hot[rng.gen_range(0..hot.len())]
                });
            }
        }
        Plan { tenants, hot, ops }
    }

    /// The lookup: every label but the last bound to its stored value.
    fn query(&self, op: Op) -> String {
        let v = &self.tenants[op.tenant].values[op.object];
        let bound: Vec<String> = (0..LABELS - 1)
            .map(|j| format!("{} => v{}", objects::label(j), v[j]))
            .collect();
        format!(
            "item: {}[{}, {} => V]",
            objects::object(op.object),
            bound.join(", "),
            objects::label(LABELS - 1)
        )
    }

    fn expected(&self, op: Op) -> String {
        format!("v{}", self.tenants[op.tenant].values[op.object][LABELS - 1])
    }

    fn request(&self, op: Op) -> Request {
        Request {
            tenant: self.tenants[op.tenant].name.clone(),
            op: RequestOp::Query {
                src: self.query(op),
                strategy: Strategy::Direct,
                deadline_ms: None,
            },
        }
    }

    pub fn digests(&self) -> (Digest, Digest) {
        let mut ops = Digest::default();
        let mut answers = Digest::default();
        for t in &self.tenants {
            ops.add(t.text.as_bytes());
        }
        for &op in self.hot.iter().chain(&self.ops) {
            ops.add(self.query(op).as_bytes());
            answers.add(self.expected(op).as_bytes());
        }
        (ops, answers)
    }
}

fn manager() -> SessionManager {
    let stores: Arc<Mutex<HashMap<String, MemStorage>>> = Arc::default();
    let factory: StorageFactory = Arc::new(move |name| {
        let mut stores = stores.lock().expect("storage map lock");
        Ok(Box::new(stores.entry(name.to_string()).or_default().clone()) as Box<dyn Storage>)
    });
    SessionManager::new(factory, ManagerOptions::default())
}

fn load_all(plan: &Plan, mgr: &SessionManager) -> Result<(), String> {
    for t in &plan.tenants {
        let report = mgr.load(&t.name, &t.text).map_err(|e| e.to_string())?;
        if !report.persisted() {
            return Err(format!("tenant {} load was not persisted", t.name));
        }
    }
    Ok(())
}

/// Checks a wire response: `Ok(true)` when right, `Ok(false)` on a
/// failure (error response, incomplete answer), `Err` on a wrong answer.
fn check(resp: &Json, want: &str) -> Result<bool, String> {
    if get(resp, "ok") != Some(&Json::Bool(true))
        || get(resp, "complete") != Some(&Json::Bool(true))
    {
        return Ok(false);
    }
    let rows = match get(resp, "rows") {
        Some(Json::Array(rows)) => rows,
        _ => return Err(format!("response without rows: {resp}")),
    };
    match rows.as_slice() {
        [row] if get(row, "V") == Some(&Json::Str(want.to_string())) => Ok(true),
        _ => Err(format!("wrong answer: got {resp}, want V = {want}")),
    }
}

/// What the traced op compares the wire round trip against.
struct Probes<'a> {
    /// A second manager with the same tenants and the same cache state,
    /// for the paired in-process `SessionManager::query`.
    shadow: &'a SessionManager,
    /// Each tenant's published snapshot, for the uncached Direct solve.
    snaps: Vec<Arc<SessionSnapshot>>,
}

/// Encode, decode and parse the request, render the response, and
/// decode it again: the protocol work of one round trip, in-process.
fn codec_round_trip(req: &Request, answers: &Answers) -> Result<(), String> {
    let mut buf = protocol::encode_frame(&req.render_json());
    let payload = protocol::decode_frame(&mut buf)?.ok_or("short request frame")?;
    Request::parse(&payload)?;
    let mut buf = protocol::encode_frame(&Response::from_answers(answers).render_json());
    let payload = protocol::decode_frame(&mut buf)?.ok_or("short response frame")?;
    let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
    std::hint::black_box(parse_json(text)?);
    Ok(())
}

/// One client's share of a timed loop.
#[derive(Default)]
struct ClientRun {
    run: Loop,
    sent: u64,
    last: usize,
    /// Requests that got no response (a frame may never have arrived).
    transport_errors: u64,
    tracer: Option<Tracer>,
    /// Per traced op: wire round trip minus the paired in-process query, in ms.
    overhead_ms: Vec<f64>,
}

fn client_loop(
    plan: &Plan,
    addr: SocketAddr,
    c: usize,
    from: usize,
    deadline: Instant,
    probes: Option<&Probes>,
    t0: Instant,
) -> Result<ClientRun, String> {
    let mut out = ClientRun {
        tracer: probes.map(|_| Tracer::new(t0)),
        last: from,
        ..ClientRun::default()
    };
    let mut client = Client::connect_timeout(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut i = from + c;
    while i < plan.ops.len() && Instant::now() < deadline {
        let op = plan.ops[i];
        out.last = i;
        let req = plan.request(op);
        out.run.attempted += 1;
        out.sent += 1;
        let (resp, lat) = match (&mut out.tracer, probes) {
            (Some(tr), Some(p)) => {
                let root = tr.begin(i as u64, None, "op");
                let resp = tr.time(root, "wire.request", || client.request(&req));
                let lat = tr.last("wire.request");
                let src = plan.query(op);
                let q = tr
                    .time(root, "parse_query", || parse_query(&src))
                    .map_err(|e| e.to_string())?;
                tr.time(root, "translate_query", || {
                    std::hint::black_box(Transformer::new().query(&q))
                });
                tr.time(root, "direct.solve", || {
                    p.snaps[op.tenant].query_ast(&q, Strategy::Direct, &Budget::unlimited())
                })
                .map_err(|e| e.to_string())?;
                let tenant = &plan.tenants[op.tenant].name;
                let answers = tr
                    .time(root, "manager.query", || {
                        p.shadow.query(tenant, &src, Strategy::Direct)
                    })
                    .map_err(|e| e.to_string())?;
                out.overhead_ms
                    .push(ms(lat.saturating_sub(tr.last("manager.query"))));
                tr.time(root, "codec", || codec_round_trip(&req, &answers))?;
                tr.end(root);
                (resp, lat)
            }
            _ => {
                let t = Instant::now();
                let resp = client.request(&req);
                (resp, t.elapsed())
            }
        };
        match resp {
            Ok(json) if check(&json, &plan.expected(op))? => out.run.reads_ms.push(ms(lat)),
            Ok(_) => out.run.failed += 1,
            Err(e) => {
                eprintln!("perfbench: client {c}: {e}");
                out.run.failed += 1;
                out.transport_errors += 1;
                client = Client::connect_timeout(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
            }
        }
        i += CLIENTS;
    }
    out.run.time_s = start.elapsed().as_secs_f64();
    out.run.wall_s = out.run.time_s;
    Ok(out)
}

/// Runs every client from op `from` until `secs` have passed.
fn drive(
    plan: &Plan,
    addr: SocketAddr,
    from: usize,
    secs: Duration,
    probes: Option<&Probes>,
) -> Result<Vec<ClientRun>, String> {
    let t0 = Instant::now();
    let deadline = t0 + secs;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(plan, addr, c, from, deadline, probes, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn merged(runs: &mut [ClientRun]) -> Loop {
    let mut run = Loop::default();
    for r in runs {
        run.absorb(std::mem::take(&mut r.run));
    }
    run
}

pub fn run(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args.seed);
    // The bulk load is CPU-bound: scale it like the CPU-bound workloads.
    // The lookups are not (most of a round trip is the accept loop's
    // poll sleep), so their times stay raw wall time.
    let mut speed = Speed::new();
    let mut setup_s = Vec::new();
    let mut mgr = None;
    for _ in 0..SETUP_REPS {
        drop(mgr.take());
        let m = manager();
        let t = Instant::now();
        load_all(&plan, &m)?;
        let secs = t.elapsed().as_secs_f64();
        setup_s.push(secs * speed.factor());
        mgr = Some(m);
    }
    let mgr = Arc::new(mgr.expect("at least one set-up"));
    let front = TcpFront::start(
        Arc::clone(&mgr),
        "127.0.0.1:0",
        TcpFrontOptions {
            workers: CLIENTS,
            ..TcpFrontOptions::default()
        },
    )
    .map_err(|e| format!("starting the TCP front: {e}"))?;
    let addr = front.addr();

    // Warm the hot keys over the wire, so every timed hot read hits.
    let mut client = Client::connect_timeout(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    for &op in &plan.hot {
        let resp = client.request(&plan.request(op))?;
        if !check(&resp, &plan.expected(op))? {
            return Err(format!("warm-up lookup failed: {resp}"));
        }
    }
    drop(client);
    let mut sent = plan.hot.len() as u64;
    let mut lost = 0;

    let report = if !args.trace {
        let mut runs = drive(&plan, addr, 0, args.seconds, None)?;
        sent += runs.iter().map(|r| r.sent).sum::<u64>();
        lost += runs.iter().map(|r| r.transport_errors).sum::<u64>();
        Report::end_to_end(&merged(&mut runs), &setup_s)
    } else {
        let half = args.seconds / 2;
        let mut runs = drive(&plan, addr, 0, half, None)?;
        sent += runs.iter().map(|r| r.sent).sum::<u64>();
        lost += runs.iter().map(|r| r.transport_errors).sum::<u64>();
        let first = merged(&mut runs);
        let next = runs.iter().map(|r| r.last).max().unwrap_or(0) + CLIENTS;
        let next = next - next % CLIENTS;

        let shadow = manager();
        load_all(&plan, &shadow)?;
        let mut snaps = Vec::new();
        for t in &plan.tenants {
            let session = mgr.open(&t.name).map_err(|e| e.to_string())?;
            let snap = session.lock().expect("tenant lock").current_snapshot();
            snaps.push(snap.ok_or("tenant has no snapshot")?);
        }
        for &op in &plan.hot {
            shadow
                .query(
                    &plan.tenants[op.tenant].name,
                    &plan.query(op),
                    Strategy::Direct,
                )
                .map_err(|e| e.to_string())?;
        }
        let probes = Probes {
            shadow: &shadow,
            snaps,
        };
        let before = mgr.obs().metrics.snapshot();
        let mut runs = drive(&plan, addr, next, half, Some(&probes))?;
        let after = mgr.obs().metrics.snapshot();
        sent += runs.iter().map(|r| r.sent).sum::<u64>();
        lost += runs.iter().map(|r| r.transport_errors).sum::<u64>();
        let mut tr = Tracer::new(Instant::now());
        let mut overhead = Vec::new();
        for r in &mut runs {
            tr.merge(r.tracer.take().expect("traced client"));
            overhead.append(&mut r.overhead_ms);
        }
        let second = merged(&mut runs);
        let by = tr.self_us_by_name();
        let med = |name: &str| by.get(name).map_or(0.0, |v| median(v));
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        let (hit, miss) = (
            delta("serve.snapshot.cache.hit"),
            delta("serve.snapshot.cache.miss"),
        );
        let mut layers = BTreeMap::new();
        layers.insert("parser.parse_query_us", med("parse_query"));
        layers.insert("core.translate_query_us", med("translate_query"));
        layers.insert("engine.direct.solve_us", med("direct.solve"));
        layers.insert("serve.net.overhead_ms", median(&overhead));
        layers.insert(
            "serve.net.queue_wait_ms",
            hist_mean_ms(&before, &after, "net.queue_wait_us"),
        );
        layers.insert("serve.protocol.codec_us", med("codec"));
        layers.insert("serve.manager.query_us", med("manager.query"));
        layers.insert(
            "session.snapshot.cache_hit_ratio",
            hit / (hit + miss).max(1.0),
        );
        tr.print_summary();
        tr.dump(&args.span_path())
            .map_err(|e| format!("writing spans: {e}"))?;
        let mut report = Report::per_layer(&first, &second, layers);
        let snap = mgr.obs().metrics.snapshot();
        let reaped: f64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("net.reaped.") || *n == "net.write_errors")
            .map(|(_, &v)| v as f64)
            .sum();
        report.metrics.insert("serve.net.reaped", reaped);
        report
    };

    let snap = mgr.obs().metrics.snapshot();
    front.shutdown();
    report_faults(&snap)?;
    let frames = snap.counter("net.frames.in").unwrap_or(0);
    // Every request is one decoded frame; one that got no response may
    // or may not have arrived.
    if frames > sent || frames < sent - lost {
        return Err(format!(
            "net.frames.in = {frames}, but {sent} requests were sent ({lost} unanswered)"
        ));
    }
    Ok(report)
}
