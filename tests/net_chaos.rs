//! Network chaos: the hardened wire front-end under adversarial peers
//! and injected wire faults.
//!
//! The storage layer earns its robustness claims by injecting faults at
//! every I/O boundary (`tests/recovery.rs`); this suite does the same
//! for the wire, the only boundary an unauthenticated peer reaches:
//!
//! * **Adversarial sweep** — slowloris writers, a connection flood, a
//!   stalled reader that never drains its responses, torn- and
//!   oversized-frame writers, and a silent idler all run *concurrently*
//!   against healthy clients whose answers must stay identical to a
//!   serial session across all six strategies. Every adversary class
//!   must show up in the `net.reaped.*` ledger, the
//!   `net.connections.open` gauge must never exceed the configured cap,
//!   and shutdown must complete promptly — no wedged worker, no leaked
//!   connection.
//! * **ChaosStream client sweep** — a client whose wire injects
//!   partial reads, short writes, delays, resets, and corruption at
//!   every I/O call boundary (mirroring `ChaosStorage`'s trigger
//!   sweep): each exchange either round-trips correctly or fails with a
//!   structured error, and the front keeps serving clean clients
//!   afterwards.
//! * **Misbehaving servers** — `Client::request` gets torn frames,
//!   resets, oversized frames, and a stalled server; it must return a
//!   structured error every time, never hang or panic.
//! * **Deadline propagation** — a request's `deadline_ms` covers queue
//!   wait: a trivial query with a 1 ms deadline stuck behind a pile of
//!   divergent-program blockers must come back *incomplete*, because
//!   its deadline expired in the queue.
//! * **Governance clocks** — focused idle-timeout, slow-read, and
//!   read-buffer-cap reaping, plus the `health` op and
//!   drain-with-deadline shutdown.
//!
//! Iteration counts are env-tunable for CI (`NET_CHAOS_ITERS`,
//! `NET_CHAOS_PIPELINE`); the sweep writes its final metrics snapshot
//! to `target/net-chaos/metrics.json` (override with
//! `NET_CHAOS_METRICS_PATH`) so CI can archive the ledger.

use clogic::obs::{Json, Obs, Render};
use clogic::session::{Session, SessionOptions, Strategy};
use clogic::store::{MemStorage, RetryPolicy, Storage};
use clogic_serve::protocol::{self, get};
use clogic_serve::{
    ChaosStream, Client, ManagerOptions, Request, RequestOp, SessionManager, StorageFactory,
    TcpFront, TcpFrontOptions, WireFault,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

mod common;

const QUERIES: &[&str] = &["t2: X", "t3: O[l2 => V]", "p(X)", "t1: X[l1 => Y]"];

/// Same program as the serve/tenants suites — facts, molecules, a
/// subtype, rules, and an entity-creating rule, so answer equivalence
/// also pins skolem identities.
fn chunks() -> Vec<String> {
    vec![
        "t1 < t2.\nt1: c1[l1 => c2].\nt3: C[l2 => X] :- t1: X.".to_string(),
        "t1: c3.\np(X) :- t1: X[l1 => Y].".to_string(),
        "t2: c4[l2 => c5].\nt3: D[l1 => X] :- t2: X[l2 => Y].".to_string(),
        "t1: c2[l1 => c4].\nt3: X :- t2: X.".to_string(),
    ]
}

/// An infinite-least-model program (`tests/governor.rs`): any query
/// with a deadline runs until the deadline trips — the reliable way to
/// occupy a worker for an exact, bounded time.
const DIVERGENT: &str = "t: a.\nt: X[next => Y] :- t: Y.";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn manager_opts(obs: &Obs) -> ManagerOptions {
    ManagerOptions {
        capacity: 16,
        retry: RetryPolicy::default(),
        session: SessionOptions {
            snapshot_every: Some(2),
            obs: obs.clone(),
            ..SessionOptions::default()
        },
        sleeper: Arc::new(|_| {}),
    }
}

type Stores = Arc<Mutex<HashMap<String, MemStorage>>>;

fn mem_factory(stores: &Stores) -> StorageFactory {
    let stores = Arc::clone(stores);
    Arc::new(move |name| {
        let mut stores = stores.lock().unwrap();
        Ok(Box::new(stores.entry(name.to_string()).or_default().clone()) as Box<dyn Storage>)
    })
}

fn start_front(obs: &Obs, opts: TcpFrontOptions) -> (Arc<SessionManager>, TcpFront) {
    let stores: Stores = Arc::new(Mutex::new(HashMap::new()));
    let mgr = Arc::new(SessionManager::new(mem_factory(&stores), manager_opts(obs)));
    let front = TcpFront::start(Arc::clone(&mgr), "127.0.0.1:0", opts).expect("bind");
    (mgr, front)
}

fn query_req(tenant: &str, src: &str, strategy: Strategy, deadline_ms: Option<u64>) -> Request {
    Request {
        tenant: tenant.into(),
        op: RequestOp::Query {
            src: src.to_string(),
            strategy,
            deadline_ms,
        },
    }
}

/// Bindings of a wire query response, as (var, term) rows.
fn rows_of(resp: &Json) -> Rows {
    let Some(Json::Array(rows)) = get(resp, "rows") else {
        panic!("rows missing in {resp}");
    };
    rows.iter()
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
        .collect()
}

/// One answer set as comparable `(var, term)` binding rows.
type Rows = Vec<Vec<(String, String)>>;

/// The serial ground truth: every (strategy, query) pair's bindings.
fn serial_expected(loads: &[String]) -> HashMap<(usize, usize), Rows> {
    let mut s = Session::with_options(SessionOptions {
        snapshot_every: Some(2),
        ..SessionOptions::default()
    });
    for c in loads {
        s.load(c).expect("serial load");
    }
    let mut expected = HashMap::new();
    for (si, strategy) in Strategy::ALL.into_iter().enumerate() {
        for (qi, q) in QUERIES.iter().enumerate() {
            let rows: Rows = common::evaluate(&mut s, q, strategy)
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
            expected.insert((si, qi), rows);
        }
    }
    expected
}

/// A hand-framed client over any byte stream — what lets the chaos
/// sweeps speak the protocol through a `ChaosStream`.
struct RawClient<S> {
    s: S,
    buf: Vec<u8>,
}

impl<S: Read + Write> RawClient<S> {
    fn new(s: S) -> RawClient<S> {
        RawClient { s, buf: Vec::new() }
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        self.s.write_all(&protocol::encode_frame(&req.render_json()))
    }

    fn recv(&mut self) -> Result<Json, String> {
        loop {
            if let Some(payload) =
                protocol::decode_frame(&mut self.buf).map_err(|e| format!("frame: {e}"))?
            {
                let text =
                    std::str::from_utf8(&payload).map_err(|e| format!("invalid UTF-8: {e}"))?;
                return protocol::parse_json(text);
            }
            let mut chunk = [0u8; 4096];
            match self.s.read(&mut chunk) {
                Ok(0) => return Err("connection closed".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn request(&mut self, req: &Request) -> Result<Json, String> {
        self.send(req).map_err(|e| format!("write: {e}"))?;
        self.recv()
    }
}

/// Polls `cond` until it holds or `timeout` passes; true on success.
fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Shuts the front down under a watchdog: a wedged worker or accept
/// loop turns into a test failure instead of a hung suite.
fn shutdown_within(front: TcpFront, timeout: Duration) -> Duration {
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    std::thread::spawn(move || {
        front.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(timeout)
        .expect("shutdown wedged: a worker or the accept loop failed to exit");
    start.elapsed()
}

// ---------- the adversarial sweep ----------

/// Slowloris, flood, stalled reader, torn/oversized frames, and a
/// silent idler, concurrent with healthy clients — the acceptance sweep.
#[test]
fn adversarial_peers_cannot_starve_or_corrupt_healthy_clients() {
    const MAX_CONNS: usize = 16;
    let iters = env_usize("NET_CHAOS_ITERS", 3);
    let pipeline = env_usize("NET_CHAOS_PIPELINE", 300);

    let obs = Obs::new();
    // Clocks sized for a loaded single-core CI box: a healthy client
    // thread can be descheduled for hundreds of milliseconds under this
    // thread count, so the idle clock must be far above that (precise
    // idle timing is covered by the focused governance test), and the
    // queue must be deep enough that the stalled reader's burst can
    // never shed a healthy request.
    let (mgr, front) = start_front(
        &obs,
        TcpFrontOptions {
            workers: 2,
            queue_depth: 512,
            max_connections: MAX_CONNS,
            idle_timeout: Duration::from_secs(3),
            frame_timeout: Duration::from_millis(250),
            write_budget: Duration::from_millis(150),
            ..TcpFrontOptions::default()
        },
    );
    let addr = front.addr();
    for c in &chunks() {
        mgr.load("healthy", c).expect("load healthy");
    }
    // A tenant whose every answer is deliberately fat (~50 KiB), so a
    // reader that never drains its responses fills the socket buffers
    // and trips the write budget.
    let mega: String = (0..4000).map(|i| format!("mega: m{i}.\n")).collect();
    mgr.load("mega", &mega).expect("load mega");

    let expected = Arc::new(serial_expected(&chunks()));
    let stop = Arc::new(AtomicBool::new(false));
    let max_open_seen = Arc::new(AtomicU64::new(0));
    let healthy_ready = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Gauge monitor: samples `net.connections.open` through the
        // whole run; its maximum must respect the cap. Reads through a
        // shared handle (an atomic load), not a full registry snapshot,
        // so the monitor itself adds no meaningful load.
        {
            let open = obs.metrics.gauge("net.connections.open");
            let stop = Arc::clone(&stop);
            let max_open_seen = Arc::clone(&max_open_seen);
            scope.spawn(move || {
                // Also self-bounded by wall clock: if the scope body
                // panics before setting `stop`, the scope must still be
                // able to join this thread and propagate the panic.
                let bound = Instant::now() + Duration::from_secs(120);
                while !stop.load(Ordering::Acquire) && Instant::now() < bound {
                    max_open_seen.fetch_max(open.get(), Ordering::AcqRel);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }

        // Healthy clients: connect *before* the adversaries so the
        // flood cannot displace them, then hammer queries whose answers
        // must stay serial-identical throughout the chaos.
        let mut healthy = Vec::new();
        for t in 0..4 {
            let expected = Arc::clone(&expected);
            let healthy_ready = Arc::clone(&healthy_ready);
            let obs = obs.clone();
            healthy.push(scope.spawn(move || {
                let mut c = Client::connect_timeout(addr, Duration::from_secs(30))
                    .expect("healthy connect");
                // Warm-up proves the connection is registered.
                let resp = c
                    .request(&query_req("healthy", QUERIES[0], Strategy::Sld, Some(30_000)))
                    .expect("warm-up");
                assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "warm-up: {resp}");
                healthy_ready.fetch_add(1, Ordering::AcqRel);
                for _ in 0..iters {
                    for (si, strategy) in Strategy::ALL.into_iter().enumerate() {
                        for (qi, q) in QUERIES.iter().enumerate() {
                            let resp = c
                                .request(&query_req("healthy", q, strategy, Some(30_000)))
                                .unwrap_or_else(|e| {
                                    panic!(
                                        "healthy {t}: {e}; net ledger: {:?}",
                                        obs.metrics.snapshot().counters
                                    )
                                });
                            assert_eq!(
                                get(&resp, "ok"),
                                Some(&Json::Bool(true)),
                                "healthy {t}: {resp}"
                            );
                            assert_eq!(
                                get(&resp, "complete"),
                                Some(&Json::Bool(true)),
                                "healthy {t}: {resp}"
                            );
                            assert_eq!(
                                rows_of(&resp),
                                expected[&(si, qi)],
                                "healthy {t}: {strategy:?} on {q} diverged from serial"
                            );
                        }
                    }
                }
            }));
        }
        assert!(
            eventually(Duration::from_secs(30), || {
                healthy_ready.load(Ordering::Acquire) == 4
            }),
            "healthy clients never finished warming up"
        );

        // Silent idler: connects and never says a word — the idle clock
        // must reap it.
        scope.spawn(move || {
            let s = TcpStream::connect(addr).expect("idler connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut s = s;
            let mut buf = [0u8; 64];
            // Reaping closes the socket: read returns 0 (or a reset).
            let _ = s.read(&mut buf);
        });

        // Slowloris: starts a frame and trickles one byte at a time —
        // the frame clock must reap it even though bytes keep arriving.
        scope.spawn(move || {
            let mut s = TcpStream::connect(addr).expect("slowloris connect");
            let _ = s.write_all(&1000u32.to_be_bytes());
            for _ in 0..40 {
                if s.write_all(b"x").is_err() {
                    return; // reaped — writes now fail
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });

        // Stalled reader: trickles cache-hot fat queries and never
        // reads a single response byte; once the socket buffers fill,
        // the worker's write budget must kill it.
        scope.spawn(move || {
            let mut s = TcpStream::connect(addr).expect("stalled connect");
            let frame = protocol::encode_frame(
                &query_req("mega", "mega: X", Strategy::Sld, Some(30_000)).render_json(),
            );
            for _ in 0..pipeline {
                if s.write_all(&frame).is_err() {
                    return; // killed — the budget did its job
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        // Oversized-frame writer: declares a frame past the cap — must
        // get a structured refusal and a reap, not an allocation.
        scope.spawn(move || {
            let mut s = TcpStream::connect(addr).expect("oversized connect");
            let _ = s.write_all(&(protocol::MAX_FRAME + 1).to_be_bytes());
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut raw = RawClient::new(s);
            // Best-effort: the refusal frame may race the close.
            if let Ok(resp) = raw.recv() {
                assert_eq!(get(&resp, "ok"), Some(&Json::Bool(false)), "{resp}");
            }
        });

        // Torn-frame writer: half a valid frame, then gone. The server
        // must treat it as a clean close, not wedge waiting for the
        // rest.
        scope.spawn(move || {
            let mut s = TcpStream::connect(addr).expect("torn connect");
            let _ = s.write_all(&100u32.to_be_bytes());
            let _ = s.write_all(&[b'{'; 50]);
        });

        // Connection flood: well past the cap. Excess connects get at
        // most one refusal frame; the registered population must never
        // exceed the cap.
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let mut held = Vec::new();
            for _ in 0..(MAX_CONNS + 24) {
                if let Ok(s) = TcpStream::connect(addr) {
                    held.push(s);
                }
            }
            std::thread::sleep(Duration::from_millis(300));
            drop(held);
        });

        for h in healthy {
            h.join().expect("healthy client panicked");
        }
        stop.store(true, Ordering::Release);
    });

    // Every adversary class must appear in the reap ledger. The clocks
    // are asynchronous, so poll briefly rather than racing them.
    let ledger_complete = eventually(Duration::from_secs(10), || {
        let snap = obs.metrics.snapshot();
        snap.counter("net.reaped.idle").unwrap_or(0) >= 1
            && snap.counter("net.reaped.slow_read").unwrap_or(0) >= 1
            && snap.counter("net.reaped.overflow").unwrap_or(0) >= 1
            && snap.counter("net.reaped.frame_error").unwrap_or(0) >= 1
            && snap.counter("net.reaped.write_stall").unwrap_or(0)
                + snap.counter("net.write_errors").unwrap_or(0)
                >= 1
            && snap.counter("net.connections.closed").unwrap_or(0) >= 1
    });
    let snap = obs.metrics.snapshot();
    assert!(
        ledger_complete,
        "reap ledger incomplete: idle={:?} slow_read={:?} overflow={:?} frame_error={:?} \
         write_stall={:?} write_errors={:?} closed={:?}",
        snap.counter("net.reaped.idle"),
        snap.counter("net.reaped.slow_read"),
        snap.counter("net.reaped.overflow"),
        snap.counter("net.reaped.frame_error"),
        snap.counter("net.reaped.write_stall"),
        snap.counter("net.write_errors"),
        snap.counter("net.connections.closed"),
    );
    assert!(
        max_open_seen.load(Ordering::Acquire) <= MAX_CONNS as u64,
        "connection cap violated: saw {} open with cap {MAX_CONNS}",
        max_open_seen.load(Ordering::Acquire)
    );
    assert!(
        snap.counter("net.frames.in").unwrap_or(0) >= (4 * iters as u64 * 24),
        "healthy traffic missing from net.frames.in: {snap:?}"
    );

    // No wedged worker at exit, and the gauge returns to zero once the
    // front is gone.
    shutdown_within(front, Duration::from_secs(30));
    let snap = obs.metrics.snapshot();
    assert_eq!(
        snap.gauge("net.connections.open"),
        Some(0),
        "connections leaked past shutdown"
    );

    // Archive the ledger for CI.
    let path = std::env::var("NET_CHAOS_METRICS_PATH")
        .unwrap_or_else(|_| "target/net-chaos/metrics.json".to_string());
    let path = std::path::Path::new(&path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, format!("{}\n", snap.render_json()))
        .expect("write metrics artifact");
}

// ---------- ChaosStream client sweep ----------

/// A client speaking through an injected-fault wire, the fault swept
/// across every I/O call boundary of a two-request exchange: each
/// request either round-trips with the clean answer or fails
/// structurally, and the front keeps serving clean clients afterwards.
#[test]
fn chaos_wire_client_sweep_leaves_the_front_serving() {
    let obs = Obs::new();
    let (mgr, front) = start_front(
        &obs,
        TcpFrontOptions {
            workers: 2,
            frame_timeout: Duration::from_millis(500),
            idle_timeout: Duration::from_millis(2000),
            ..TcpFrontOptions::default()
        },
    );
    let addr = front.addr();
    for c in &chunks() {
        mgr.load("healthy", c).expect("load");
    }
    let expected = serial_expected(&chunks());
    let clean = &expected[&(0, 0)]; // (Sld, QUERIES[0])

    for fault in WireFault::ALL {
        for trigger in 1..=5u64 {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream
                .set_write_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let chaos =
                ChaosStream::new(stream, trigger, fault).with_delay(Duration::from_millis(20));
            let mut raw = RawClient::new(chaos);
            for round in 0..2 {
                match raw.request(&query_req("healthy", QUERIES[0], Strategy::Sld, Some(30_000))) {
                    Ok(resp) => {
                        // A response that arrives at all must be either
                        // the exact clean answer or a structured error
                        // (e.g. the server refusing a corrupted frame).
                        if get(&resp, "ok") == Some(&Json::Bool(true)) {
                            assert_eq!(
                                rows_of(&resp),
                                *clean,
                                "{fault:?}@{trigger} round {round}: wrong answer"
                            );
                        } else {
                            assert!(
                                matches!(get(&resp, "error"), Some(Json::Str(m)) if !m.is_empty()),
                                "{fault:?}@{trigger}: unstructured failure: {resp}"
                            );
                        }
                    }
                    Err(e) => {
                        assert!(!e.is_empty(), "{fault:?}@{trigger}: empty error");
                        break; // the wire is gone; nothing more to say on it
                    }
                }
            }
            // Whatever the chaos client suffered, a clean client must
            // still be served correctly.
            let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).expect("clean");
            let resp = c
                .request(&query_req("healthy", QUERIES[0], Strategy::Sld, Some(30_000)))
                .unwrap_or_else(|e| panic!("front wedged after {fault:?}@{trigger}: {e}"));
            assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "{resp}");
            assert_eq!(rows_of(&resp), *clean, "after {fault:?}@{trigger}");
        }
    }
    shutdown_within(front, Duration::from_secs(30));
}

// ---------- Client vs misbehaving servers ----------

/// Starts a one-shot fake server; returns its address.
fn fake_server(
    behave: impl FnOnce(TcpStream) + Send + 'static,
) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            behave(stream);
        }
    });
    addr
}

/// Reads one full frame off the stream (so the fake server misbehaves
/// *after* a well-formed request, like a real buggy peer would).
fn read_request(stream: &mut TcpStream) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok(Some(_)) = protocol::decode_frame(&mut buf) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Satellite: `Client::request` against servers that tear frames, reset
/// mid-response, declare absurd lengths, or stall — always a structured
/// error, never a hang or panic.
#[test]
fn client_survives_misbehaving_servers_with_structured_errors() {
    let status = Request {
        tenant: "t".into(),
        op: RequestOp::Status,
    };

    // Torn mid-frame: half a response, then a clean close.
    let addr = fake_server(|mut s| {
        read_request(&mut s);
        let _ = s.write_all(&100u32.to_be_bytes());
        let _ = s.write_all(&[b'{'; 40]);
    });
    let mut c = Client::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    let err = c.request(&status).unwrap_err();
    assert!(
        err.contains("connection closed") || err.contains("read:"),
        "torn frame: {err}"
    );

    // Reset mid-response: the server dies with the request unread, so
    // the kernel sends RST rather than FIN.
    let addr = fake_server(|s| {
        std::thread::sleep(Duration::from_millis(50));
        drop(s); // request bytes still unread -> RST
    });
    let mut c = Client::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    let err = c.request(&status).unwrap_err();
    assert!(!err.is_empty(), "reset must surface an error");

    // Oversized frame: a declared length past the cap must be refused
    // by the framing, not allocated.
    let addr = fake_server(|mut s| {
        read_request(&mut s);
        let _ = s.write_all(&(protocol::MAX_FRAME + 1).to_be_bytes());
        let _ = s.write_all(b"junk");
        std::thread::sleep(Duration::from_millis(200));
    });
    let mut c = Client::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    let err = c.request(&status).unwrap_err();
    assert!(err.contains("frame"), "oversized: {err}");

    // Stalled server: reads the request and never answers — the I/O
    // timeout must turn that into an error instead of a forever-hang.
    let addr = fake_server(|mut s| {
        read_request(&mut s);
        std::thread::sleep(Duration::from_secs(20));
    });
    let mut c = Client::connect_timeout(addr, Duration::from_millis(300)).unwrap();
    let start = Instant::now();
    let err = c.request(&status).unwrap_err();
    assert!(err.contains("timed out"), "stall: {err}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "timeout failed to bound the stall"
    );
}

// ---------- deadline propagation ----------

/// Satellite: the wire deadline covers queue wait. A trivial query with
/// a 1 ms deadline queued behind ~600 ms of divergent blockers must
/// come back incomplete — its budget was spent waiting — while the same
/// query with a generous deadline completes.
#[test]
fn wire_deadlines_subtract_queue_wait_like_the_in_process_server() {
    let obs = Obs::new();
    let (mgr, front) = start_front(
        &obs,
        TcpFrontOptions {
            workers: 1,
            queue_depth: 64,
            drain_deadline: Duration::from_secs(3),
            ..TcpFrontOptions::default()
        },
    );
    mgr.load("d", DIVERGENT).expect("load divergent");
    mgr.load("triv", "t: a.").expect("load trivial");

    let probe_stream = TcpStream::connect(front.addr()).unwrap();
    probe_stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut probe = RawClient::new(probe_stream);
    let blocker_stream = TcpStream::connect(front.addr()).unwrap();
    blocker_stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut blockers = RawClient::new(blocker_stream);

    // Pipeline four blockers; each pins the single worker for ~200 ms
    // (incomplete answers are never cached, so each re-evaluates).
    for _ in 0..4 {
        blockers
            .send(&query_req("d", "t: X", Strategy::Sld, Some(200)))
            .expect("send blocker");
    }
    // Let the pump admit them so the probe is strictly behind.
    std::thread::sleep(Duration::from_millis(100));

    // The probe uses magic sets: that path re-evaluates per query (the
    // rewrite is query-specific) and fixpoint evaluation consults the
    // wall-clock at every round boundary, so a zero remaining budget
    // trips before the first round. SLD only samples the clock every
    // 1024 resolution steps (a trivial proof finishes under any
    // deadline, expired or not), and plain bottom-up answers from the
    // prebuilt snapshot model without consulting the budget at all —
    // neither proves anything about queue-wait subtraction.
    probe
        .send(&query_req("triv", "t: X", Strategy::Magic, Some(1)))
        .expect("send probe");

    // Drain the blocker answers as the worker produces them (their
    // divergent partial answer sets are big; leaving them unread would
    // stall the worker's writes and — correctly — get the connection
    // reaped for the stall). Every blocker gets its partial answer.
    for i in 0..4 {
        let resp = blockers.recv().unwrap_or_else(|e| panic!("blocker {i}: {e}"));
        assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "blocker {i}: {resp}");
        assert_eq!(
            get(&resp, "complete"),
            Some(&Json::Bool(false)),
            "blocker {i}: {resp}"
        );
    }

    let resp = probe.recv().expect("probe");
    assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "{resp}");
    assert_eq!(
        get(&resp, "complete"),
        Some(&Json::Bool(false)),
        "a 1 ms deadline that expired in the queue must trip, not grant \
         a fresh 1 ms budget: {resp}"
    );

    // Control: with queue wait subtracted from a generous deadline,
    // the same trivial query completes.
    let resp = probe
        .request(&query_req("triv", "t: X", Strategy::Magic, Some(30_000)))
        .expect("control");
    assert_eq!(get(&resp, "complete"), Some(&Json::Bool(true)), "{resp}");

    let snap = obs.metrics.snapshot();
    let (count, _) = snap.histogram("net.queue_wait_us").unwrap_or((0, 0));
    assert!(count >= 6, "queue-wait histogram missing samples: {count}");
    shutdown_within(front, Duration::from_secs(30));
}

// ---------- health + drain ----------

/// The `health` op answers without a tenant and without touching any
/// session lock, and shutdown drains admitted work within its deadline.
#[test]
fn health_answers_and_shutdown_drains_admitted_work() {
    let obs = Obs::new();
    let (mgr, front) = start_front(
        &obs,
        TcpFrontOptions {
            workers: 1,
            drain_deadline: Duration::from_secs(2),
            ..TcpFrontOptions::default()
        },
    );
    // The divergent generator filtered to zero answers: a blocker query
    // burns its whole engine budget but responds with a tiny frame.
    // This client deliberately reads nothing until after shutdown, so a
    // big partial answer set would overflow the socket buffer and get
    // the connection — correctly — reaped for the write stall,
    // destroying the very answers this test drains.
    let filtered = format!("{DIVERGENT}\nblocked(X) :- t: X, missing: X.");
    mgr.load("d", &filtered).expect("load");

    let stream = TcpStream::connect(front.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut c = RawClient::new(stream);
    let resp = c
        .request(&Request {
            tenant: String::new(),
            op: RequestOp::Health,
        })
        .expect("health");
    assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "{resp}");
    assert_eq!(get(&resp, "draining"), Some(&Json::Bool(false)), "{resp}");
    assert_eq!(get(&resp, "resident"), Some(&Json::U64(1)), "{resp}");
    match get(&resp, "open_connections") {
        Some(Json::U64(n)) => assert!(*n >= 1, "{resp}"),
        other => panic!("open_connections missing: {other:?}"),
    }
    assert!(matches!(get(&resp, "queued"), Some(Json::U64(_))), "{resp}");

    // Two CPU-blockers on the single worker, then shutdown: the drain
    // deadline covers both, so both answers arrive before the socket
    // closes, and shutdown returns promptly.
    for _ in 0..2 {
        c.send(&query_req("d", "blocked(X)", Strategy::Sld, Some(100)))
            .expect("send");
    }
    // Wait until the pump has actually admitted both queries (the
    // single worker is CPU-bound on the first one, which can starve the
    // accept loop for a while on a small box): draining stops reading,
    // so a frame still in the socket would be dropped — and an unread
    // receive buffer at close turns the FIN into an RST that destroys
    // the buffered answers on the client side.
    assert!(
        eventually(Duration::from_secs(10), || {
            obs.metrics
                .snapshot()
                .counter("net.frames.in")
                .unwrap_or(0)
                >= 3 // health + two queries
        }),
        "pump never admitted both queries"
    );
    let elapsed = shutdown_within(front, Duration::from_secs(30));
    assert!(
        elapsed < Duration::from_secs(10),
        "drain overran its deadline: {elapsed:?}"
    );
    for i in 0..2 {
        let resp = c.recv().unwrap_or_else(|e| panic!("drained answer {i}: {e}"));
        assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "{i}: {resp}");
    }
}

// ---------- request latency ----------

/// A closed-loop client is served as soon as its bytes arrive: 200
/// sequential `health` round trips on one connection take a few
/// milliseconds, where a front that polls its sockets on a 1 ms nap
/// makes each one wait out the nap (over 200 ms in all). The best of
/// three attempts counts, so a descheduled thread on a loaded box does
/// not fail the test; a polling front fails every attempt.
#[test]
fn sequential_round_trips_are_not_paced_by_a_poll() {
    let obs = Obs::new();
    let (_mgr, front) = start_front(
        &obs,
        TcpFrontOptions {
            workers: 1,
            ..TcpFrontOptions::default()
        },
    );
    let mut c = Client::connect_timeout(front.addr(), Duration::from_secs(30)).expect("connect");
    let health = Request {
        tenant: String::new(),
        op: RequestOp::Health,
    };
    c.request(&health).expect("warm-up");
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            for i in 0..200 {
                let resp = c
                    .request(&health)
                    .unwrap_or_else(|e| panic!("round trip {i}: {e}"));
                assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "{resp}");
            }
            start.elapsed()
        })
        .min()
        .expect("three attempts");
    assert!(
        best < Duration::from_millis(100),
        "200 sequential round trips took {best:?} at best"
    );
    shutdown_within(front, Duration::from_secs(30));
}

// ---------- focused governance clocks ----------

/// Idle, slow-read, and buffer-cap reaping, each on its own connection
/// against one front with tight clocks.
#[test]
fn governance_clocks_reap_idle_slow_and_oversized_buffers() {
    let obs = Obs::new();
    let (mgr, front) = start_front(
        &obs,
        TcpFrontOptions {
            workers: 1,
            idle_timeout: Duration::from_millis(150),
            frame_timeout: Duration::from_millis(150),
            read_buf_cap: 4096,
            ..TcpFrontOptions::default()
        },
    );
    mgr.load("t", "t: a.").expect("load");
    let addr = front.addr();

    // Idle: says nothing, gets reaped.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Slowloris: starts a frame, never finishes.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.write_all(&1000u32.to_be_bytes()).unwrap();

    // Buffer hog: a legal frame declaration far past the read-buffer
    // cap, streamed for real.
    let mut hog = TcpStream::connect(addr).unwrap();
    hog.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    hog.write_all(&(1024u32 * 1024).to_be_bytes()).unwrap();
    let _ = hog.write_all(&vec![b'x'; 64 * 1024]);

    // All three sockets must be closed on us...
    let mut buf = [0u8; 256];
    assert!(matches!(idle.read(&mut buf), Ok(0) | Err(_)), "idle not reaped");
    assert!(matches!(slow.read(&mut buf), Ok(0) | Err(_)), "slowloris not reaped");
    assert!(matches!(hog.read(&mut buf), Ok(0) | Err(_)), "buffer hog not reaped");
    // ...with each reap on the right ledger line.
    assert!(
        eventually(Duration::from_secs(10), || {
            let snap = obs.metrics.snapshot();
            snap.counter("net.reaped.idle").unwrap_or(0) >= 1
                && snap.counter("net.reaped.slow_read").unwrap_or(0) >= 1
                && snap.counter("net.reaped.buffer").unwrap_or(0) >= 1
        }),
        "reap ledger: {:?}",
        obs.metrics.snapshot().counters
    );

    // The front still serves after all that.
    let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).unwrap();
    let resp = c
        .request(&query_req("t", "t: X", Strategy::Sld, Some(30_000)))
        .expect("serve after reaps");
    assert_eq!(get(&resp, "ok"), Some(&Json::Bool(true)), "{resp}");
    shutdown_within(front, Duration::from_secs(30));
}
