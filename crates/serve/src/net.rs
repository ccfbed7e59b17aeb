//! Length-prefixed JSONL-over-TCP front-end for a [`SessionManager`],
//! hardened against hostile and merely unlucky peers.
//!
//! A [`TcpFront`] binds a listener and runs one **blocking accept
//! thread** plus one **blocking reader thread per registered
//! connection**. A reader sleeps in `read` until its peer's bytes arrive,
//! splits complete frames (see [`protocol`] for the framing), and pushes
//! each request into the same bounded [`AdmissionQueue`] the in-process
//! server uses — so network traffic is subject to exactly the overload
//! policy as local submissions: when the queue is full the request is
//! shed *immediately* with a structured error response instead of
//! buffering unboundedly. A worker pool drains the queue, dispatches to
//! the manager, and writes each response back under a per-connection
//! write lock (workers finish out of order; responses interleave but
//! never tear).
//!
//! # Connection governance
//!
//! The wire is the only boundary an adversary reaches without
//! authenticating, so every resource a connection can pin is bounded and
//! every stall is reaped (policy in [`TcpFrontOptions`], accounting in
//! the `net.*` metrics namespace):
//!
//! * **Accept-time shedding** — at most
//!   [`max_connections`](TcpFrontOptions::max_connections) connections
//!   are registered; a connect beyond the cap receives one best-effort
//!   error frame and is dropped (`net.reaped.overflow`), so a
//!   connection flood cannot grow the conn table, its buffers or its
//!   reader threads.
//! * **Slow-read (slowloris) reaping** — a peer that starts a frame
//!   must finish it within
//!   [`frame_timeout`](TcpFrontOptions::frame_timeout); trickling bytes
//!   does not reset the clock (`net.reaped.slow_read`).
//! * **Idle reaping** — a connection with no partial frame, no response
//!   in flight, and no bytes for
//!   [`idle_timeout`](TcpFrontOptions::idle_timeout) is closed
//!   (`net.reaped.idle`).
//! * **Read-buffer caps** — a connection's accumulation buffer never
//!   exceeds [`read_buf_cap`](TcpFrontOptions::read_buf_cap)
//!   (`net.reaped.buffer`); oversized frame prefixes are refused before
//!   any allocation, as before (`net.reaped.frame_error`).
//! * **Write budgets** — a worker writing a response spends at most
//!   [`write_budget`](TcpFrontOptions::write_budget) blocked on a slow
//!   consumer; on exhaustion (`net.reaped.write_stall`) or any
//!   mid-frame write failure the connection is marked **dead**: no
//!   later response is ever written into the torn stream (which would
//!   desynchronize framing for everything after it), and its reader
//!   reaps the carcass.
//!
//! Deadlines propagate end to end: a request's `deadline_ms` covers
//! **queue wait plus evaluation**, exactly as
//! [`Server::submit_with_deadline`](crate::Server::submit_with_deadline)
//! — time spent in the admission queue is subtracted before the rest is
//! handed to the engine budget, so a request that waited out its
//! deadline trips immediately (still answering, with its degradation
//! report) instead of burning a full budget the client has stopped
//! waiting for. Shutdown **drains with a deadline**: the front stops
//! accepting and reading, lets workers finish what was admitted for up
//! to [`drain_deadline`](TcpFrontOptions::drain_deadline), then sheds
//! the remainder with structured errors. A `health` wire op reports the
//! front's vitals without touching any session lock.
//!
//! Both halves of every socket block, and nothing polls. A reader's read
//! timeout is its connection's next governance deadline, so the clocks
//! above fire without a timer thread; a writer's write timeout is what
//! remains of its budget. Anything that must interrupt a reader early —
//! drain, stop, or a worker marking the connection dead — shuts down the
//! socket's read side, which returns the blocked `read` at once without
//! touching the write side or the peer. The accept thread is woken for
//! shutdown by one loopback connect to its own listener. A request is
//! thus admitted as soon as its last byte arrives, at the cost of one
//! small-stack thread per open connection (bounded by the cap).

use crate::admission::{AdmissionQueue, AdmitError};
use crate::manager::SessionManager;
use crate::protocol::{self, Request, RequestOp, Response};
use crate::{LoadReport, ServeError};
use clogic_obs::{Counter, Gauge, Histogram, Json, Obs};
use folog::Budget;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stack size of a connection's reader thread. A reader only reads,
/// splits frames and writes the odd shed or frame-error response, so a
/// small stack keeps a full connection table cheap.
const READER_STACK: usize = 128 * 1024;

/// Added to every governance read timeout, so that a clock has strictly
/// run out when its reader wakes (the clocks reap on `>`), and so that a
/// timeout is never zero.
const CLOCK_SLACK: Duration = Duration::from_millis(1);

/// How often a reader rechecks an idle clock that ran out while a
/// response was still in flight: the clock resumes once the response is
/// written, which the reader is not told about.
const HELD_IDLE_RECHECK: Duration = Duration::from_millis(10);

/// Bound on the loopback connect that wakes the accept thread.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause after a failed `accept` (say, out of descriptors), so a
/// persistent error does not spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Tuning for a [`TcpFront`]: pool sizing plus the connection-governance
/// policy (see the [module docs](self) for what each bound defends
/// against).
#[derive(Clone, Debug)]
pub struct TcpFrontOptions {
    /// Worker threads dispatching requests to the manager (default 4).
    pub workers: usize,
    /// Admission-queue capacity shared by every connection (default 64).
    pub queue_depth: usize,
    /// Maximum registered connections; a connect beyond this is shed at
    /// accept time with one best-effort error frame (default 256,
    /// minimum 1).
    pub max_connections: usize,
    /// Per-connection read-buffer cap in bytes; exceeding it reaps the
    /// connection (default `MAX_FRAME + 4`, i.e. one maximal frame —
    /// the framing already refuses larger declared lengths).
    pub read_buf_cap: usize,
    /// A connection with no partial frame, no response in flight and no
    /// bytes read for this long is reaped (default 60 s).
    pub idle_timeout: Duration,
    /// A peer that begins a frame must complete it within this long —
    /// the slowloris bound; trickling bytes does not reset it (default
    /// 10 s).
    pub frame_timeout: Duration,
    /// Longest a worker may spend blocked writing one response to a
    /// slow consumer before the connection is marked dead (default 2 s).
    pub write_budget: Duration,
    /// On shutdown, how long to let workers finish already-admitted
    /// requests before shedding the remainder (default 1 s).
    pub drain_deadline: Duration,
}

impl Default for TcpFrontOptions {
    fn default() -> Self {
        TcpFrontOptions {
            workers: 4,
            queue_depth: 64,
            max_connections: 256,
            read_buf_cap: protocol::MAX_FRAME as usize + 4,
            idle_timeout: Duration::from_secs(60),
            frame_timeout: Duration::from_secs(10),
            write_budget: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(1),
        }
    }
}

/// The `net.*` instrument handles, registered once at start-up so every
/// counter is visible (at zero) in the very first metrics snapshot and no
/// request takes the registry lock.
struct NetMetrics {
    /// `net.connections.open` — registered connections right now.
    conns_open: Gauge,
    /// `net.connections.accepted` — connections ever registered.
    accepted: Counter,
    /// `net.connections.closed` — peer-initiated closes and read errors.
    closed: Counter,
    /// `net.frames.in` — complete request frames decoded.
    frames_in: Counter,
    /// `net.frames.out` — complete response frames written.
    frames_out: Counter,
    /// `net.reaped.overflow` — connects shed at the connection cap.
    reaped_overflow: Counter,
    /// `net.reaped.idle` — idle-timeout reaps.
    reaped_idle: Counter,
    /// `net.reaped.slow_read` — slowloris (frame-timeout) reaps.
    reaped_slow_read: Counter,
    /// `net.reaped.buffer` — read-buffer-cap reaps.
    reaped_buffer: Counter,
    /// `net.reaped.frame_error` — unframeable streams dropped.
    reaped_frame_error: Counter,
    /// `net.reaped.write_stall` — write-budget kills of slow consumers.
    reaped_write_stall: Counter,
    /// `net.write_errors` — mid-frame write failures marking conns dead.
    write_errors: Counter,
    /// `net.queue_wait_us` — how long each admitted frame waited for a
    /// worker.
    queue_wait_us: Histogram,
}

impl NetMetrics {
    fn new(obs: &Obs) -> NetMetrics {
        let m = &obs.metrics;
        NetMetrics {
            conns_open: m.gauge("net.connections.open"),
            accepted: m.counter("net.connections.accepted"),
            closed: m.counter("net.connections.closed"),
            frames_in: m.counter("net.frames.in"),
            frames_out: m.counter("net.frames.out"),
            reaped_overflow: m.counter("net.reaped.overflow"),
            reaped_idle: m.counter("net.reaped.idle"),
            reaped_slow_read: m.counter("net.reaped.slow_read"),
            reaped_buffer: m.counter("net.reaped.buffer"),
            reaped_frame_error: m.counter("net.reaped.frame_error"),
            reaped_write_stall: m.counter("net.reaped.write_stall"),
            write_errors: m.counter("net.write_errors"),
            queue_wait_us: m.histogram("net.queue_wait_us"),
        }
    }
}

/// One registered connection, shared by its reader thread and the
/// workers answering its requests.
struct Conn {
    /// The socket, blocking in both directions. The reader reads through
    /// `&TcpStream`; responses are written under `write_lock`. Read and
    /// write timeouts are separate socket options, so the reader's clocks
    /// and a writer's budget never disturb each other.
    stream: TcpStream,
    /// Serializes whole response frames.
    write_lock: Mutex<()>,
    /// Set on any mid-frame write failure or write-budget exhaustion:
    /// the stream may hold a torn partial frame, so nothing must ever
    /// be written to it again (a later response would be parsed against
    /// the torn frame's leftover length prefix). Setting it wakes the
    /// reader, which reaps the connection.
    dead: AtomicBool,
    /// Requests admitted but not yet answered — an idle-looking socket
    /// waiting on a slow query is *not* idle.
    in_flight: AtomicU64,
    /// Longest one response write may spend blocked on the peer.
    write_budget: Duration,
    /// `net.reaped.write_stall` handle.
    stall_kills: Counter,
    /// `net.write_errors` handle.
    write_errors: Counter,
}

impl Conn {
    fn new(stream: TcpStream, write_budget: Duration, stats: &NetMetrics) -> Conn {
        Conn {
            stream,
            write_lock: Mutex::new(()),
            dead: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            write_budget,
            stall_kills: stats.reaped_write_stall.clone(),
            write_errors: stats.write_errors.clone(),
        }
    }

    /// Frames and writes one response; returns `false` when the
    /// connection is (or just became) dead. Each blocking write is
    /// bounded by a write timeout of whatever remains of the budget, so
    /// a writer is never parked indefinitely behind a consumer that
    /// stopped reading: when the budget runs out the connection is
    /// **killed**. Any failure mid-frame (including `Ok(0)` and hard
    /// errors) also marks the connection dead instead of silently
    /// leaving a torn frame on the stream. A response too big to frame
    /// goes out as a structured error instead (see
    /// [`Response::to_frame`]).
    fn send(&self, resp: &Response) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let frame = resp.to_frame();
        let _writing = self.write_lock.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the lock: another writer may have torn the
        // stream while we waited for it.
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let start = Instant::now();
        let mut sent = 0;
        while sent < frame.len() {
            let left = self.write_budget.saturating_sub(start.elapsed());
            if left.is_zero() {
                return self.kill(&self.stall_kills);
            }
            if self.stream.set_write_timeout(Some(left)).is_err() {
                return self.kill(&self.write_errors);
            }
            match (&self.stream).write(&frame[sent..]) {
                Ok(0) => return self.kill(&self.write_errors),
                Ok(n) => sent += n,
                // The timeout fired: the budget check above decides
                // (a timeout that fired early retries with what is left).
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return self.kill(&self.write_errors),
            }
        }
        true
    }

    /// Marks the connection dead, books why on `counter`, and wakes the
    /// reader to reap it. Returns `false`, `send`'s verdict.
    fn kill(&self, counter: &Counter) -> bool {
        counter.inc();
        self.dead.store(true, Ordering::Release);
        self.wake();
        false
    }

    /// Returns the reader's blocked `read` at once (with end-of-stream)
    /// by shutting down the socket's read side; responses can still be
    /// written.
    fn wake(&self) {
        let _ = self.stream.shutdown(Shutdown::Read);
    }
}

struct NetJob {
    conn: Arc<Conn>,
    payload: Vec<u8>,
    /// When the frame was admitted — queue wait is subtracted from the
    /// request's deadline, mirroring the in-process server.
    enqueued: Instant,
}

/// A registered connection as the front tracks it: the handle to wake
/// it with and its reader thread to join.
struct Registered {
    conn: Arc<Conn>,
    reader: JoinHandle<()>,
}

/// Everything the accept thread, the readers, the workers and the front
/// handle share.
struct FrontShared {
    manager: Arc<SessionManager>,
    admission: AdmissionQueue<NetJob>,
    stats: NetMetrics,
    opts: TcpFrontOptions,
    /// Registered connections by id. `net.connections.open` mirrors its
    /// size: both change only under its lock.
    conns: Mutex<HashMap<u64, Registered>>,
    /// Graceful phase: stop accepting and reading, keep answering.
    draining: AtomicBool,
    /// Jobs a worker has popped but not yet answered (drain barrier).
    in_flight: AtomicU64,
}

impl FrontShared {
    fn conns(&self) -> MutexGuard<'_, HashMap<u64, Registered>> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running TCP front-end over a [`SessionManager`]. Shuts down on
/// drop; see the [module docs](self) for the serving and governance
/// model.
pub struct TcpFront {
    addr: SocketAddr,
    shared: Arc<FrontShared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TcpFront {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `manager`.
    pub fn start(
        manager: Arc<SessionManager>,
        addr: &str,
        opts: TcpFrontOptions,
    ) -> std::io::Result<TcpFront> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(FrontShared {
            admission: AdmissionQueue::new(opts.queue_depth, manager.obs().clone()),
            stats: NetMetrics::new(manager.obs()),
            manager,
            conns: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            opts,
        });
        let workers = (0..shared.opts.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clogic-net-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn net worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("clogic-net-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(TcpFront {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains (see [`TcpFrontOptions::drain_deadline`]), sheds whatever
    /// did not finish in time, and joins the threads. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let shared = &self.shared;
        // Phase 1 — drain: no new connections or frames, but workers
        // keep answering what was already admitted, up to the deadline.
        shared.draining.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            // The accept thread blocks in `accept`; a connect of our own
            // wakes it to see the drain flag. Should even that connect
            // fail (say, descriptors exhausted), the thread is left to
            // exit on its next accept rather than wedging shutdown.
            if TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_CONNECT_TIMEOUT).is_ok() {
                let _ = handle.join();
            }
        }
        // Registration checks the drain flag under the table lock, so
        // every connection is either woken here or never registered.
        for registered in shared.conns().values() {
            registered.conn.wake();
        }
        let deadline = Instant::now() + shared.opts.drain_deadline;
        let mut settled = 0u32;
        while Instant::now() < deadline {
            if shared.admission.is_empty() && shared.in_flight.load(Ordering::Acquire) == 0 {
                // Require the quiescent state to hold for two
                // consecutive polls: a worker between `pop` and its
                // in-flight increment is invisible for one instant.
                settled += 1;
                if settled >= 2 {
                    break;
                }
            } else {
                settled = 0;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Phase 2 — stop: close the queue, shed the remainder with
        // structured errors, join every thread.
        for job in shared.admission.close() {
            job.conn.send(&Response::Error {
                message: "server shutting down".to_string(),
            });
        }
        let remaining: Vec<Registered> = {
            let mut conns = shared.conns();
            for _ in 0..conns.len() {
                shared.stats.conns_open.dec();
            }
            conns.drain().map(|(_, registered)| registered).collect()
        };
        for registered in remaining {
            registered.conn.wake();
            let _ = registered.reader.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpFront {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Where to connect to reach a listener bound to `addr`: the address
/// itself, or loopback when it is bound to every interface.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn accept_loop(listener: &TcpListener, shared: &Arc<FrontShared>) {
    let mut next_id = 0u64;
    loop {
        let accepted = listener.accept();
        // Draining: stop accepting. This is also how shutdown's wake-up
        // connect ends the loop.
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                next_id += 1;
                register(stream, next_id, shared);
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Registers a fresh connection and starts its reader thread, or sheds
/// it at the cap. The socket stays blocking — the reader blocks in
/// `read` under its governance timeout and writers bound each write with
/// a write timeout — so one descriptor serves both halves.
fn register(stream: TcpStream, id: u64, shared: &Arc<FrontShared>) {
    let mut conns = shared.conns();
    if shared.draining.load(Ordering::Acquire) {
        return;
    }
    let cap = shared.opts.max_connections.max(1);
    if conns.len() >= cap {
        shared.stats.reaped_overflow.inc();
        let open = conns.len();
        drop(conns);
        refuse(stream, open, cap);
        return;
    }
    let conn = Arc::new(Conn::new(stream, shared.opts.write_budget, &shared.stats));
    let reader = {
        let conn = Arc::clone(&conn);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("clogic-net-conn-{id}"))
            .stack_size(READER_STACK)
            .spawn(move || read_loop(id, conn, &shared))
    };
    // A reader that cannot be started leaves the connection unregistered;
    // dropping it closes the socket.
    if let Ok(reader) = reader {
        conns.insert(id, Registered { conn, reader });
        shared.stats.accepted.inc();
        shared.stats.conns_open.inc();
    }
}

/// Best-effort structured refusal of a connect beyond the cap: one
/// non-blocking write into the empty socket buffer, then drop.
fn refuse(stream: TcpStream, open: usize, cap: usize) {
    let _ = stream.set_nonblocking(true);
    let frame = Response::Error {
        message: format!("connection shed: {open} open, capacity {cap}"),
    }
    .to_frame();
    let _ = (&stream).write(&frame);
}

/// One connection's read side, owned by its reader thread, with its
/// governance clocks.
struct Reading {
    conn: Arc<Conn>,
    buf: Vec<u8>,
    /// Last instant any byte arrived (or the accept instant).
    last_byte: Instant,
    /// When the currently-buffered partial frame began — the slowloris
    /// clock. `None` while the buffer is empty.
    frame_start: Option<Instant>,
}

/// Why a reader stopped.
enum Exit {
    /// Peer closed (or the read errored) — its right; not a reap.
    Closed,
    /// The stream is unframeable.
    FrameError,
    /// Already accounted for: reaped by [`govern`], killed by a writer,
    /// or the front is draining.
    Quiet,
}

/// A connection's reader thread: serves the connection until it ends,
/// books why, and deregisters it (unless shutdown already did).
fn read_loop(id: u64, conn: Arc<Conn>, shared: &FrontShared) {
    let mut c = Reading {
        conn,
        buf: Vec::new(),
        last_byte: Instant::now(),
        frame_start: None,
    };
    match serve_reads(&mut c, shared) {
        Exit::Closed => shared.stats.closed.inc(),
        Exit::FrameError => shared.stats.reaped_frame_error.inc(),
        Exit::Quiet => {}
    }
    // The gauge changes under the table lock, so it never counts a
    // connection the table does not hold. The entry carries this
    // thread's own handle; dropping it detaches a thread that is about
    // to return.
    let mut conns = shared.conns();
    if conns.remove(&id).is_some() {
        shared.stats.conns_open.dec();
    }
}

/// Blocks until bytes arrive or a governance clock comes due, admits
/// every complete frame, and repeats until the connection ends.
fn serve_reads(c: &mut Reading, shared: &FrontShared) -> Exit {
    let mut chunk = [0u8; 4096];
    loop {
        if shared.draining.load(Ordering::Acquire) {
            return Exit::Quiet;
        }
        let now = Instant::now();
        if !govern(c, now, shared) {
            return Exit::Quiet;
        }
        if c.conn
            .stream
            .set_read_timeout(read_timeout(c, now, &shared.opts))
            .is_err()
        {
            return hung_up(c, shared);
        }
        match (&c.conn.stream).read(&mut chunk) {
            Ok(0) => return hung_up(c, shared),
            Ok(n) => {
                c.buf.extend_from_slice(&chunk[..n]);
                c.last_byte = Instant::now();
                if c.frame_start.is_none() {
                    c.frame_start = Some(c.last_byte);
                }
                if let Some(exit) = admit(c, shared) {
                    return exit;
                }
            }
            // A clock came due (`govern` decides) or a signal landed.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return hung_up(c, shared),
        }
    }
}

/// The read side ended: the peer's doing, unless the front shut it down
/// to wake this reader.
fn hung_up(c: &Reading, shared: &FrontShared) -> Exit {
    if shared.draining.load(Ordering::Acquire) || c.conn.dead.load(Ordering::Acquire) {
        Exit::Quiet
    } else {
        Exit::Closed
    }
}

/// How long the reader may block before a governance clock comes due:
/// the frame clock while a frame is partial, else the idle clock. Work
/// in flight holds the idle clock, so one that has run out is rechecked
/// every [`HELD_IDLE_RECHECK`] until the work is answered. `None` (block
/// without limit) only for a clock too long to add to.
fn read_timeout(c: &Reading, now: Instant, opts: &TcpFrontOptions) -> Option<Duration> {
    let (since, limit) = match c.frame_start {
        Some(started) => (started, opts.frame_timeout),
        None => (c.last_byte, opts.idle_timeout),
    };
    let left = limit.saturating_sub(now.duration_since(since));
    if left.is_zero() && c.frame_start.is_none() {
        return Some(HELD_IDLE_RECHECK);
    }
    left.checked_add(CLOCK_SLACK)
}

/// Applies the governance policy to one connection; `false` reaps it.
fn govern(c: &Reading, now: Instant, shared: &FrontShared) -> bool {
    let opts = &shared.opts;
    // A writer already declared the stream torn; the write path counted
    // the kill (`net.reaped.write_stall` / `net.write_errors`).
    if c.conn.dead.load(Ordering::Acquire) {
        return false;
    }
    if c.buf.len() > opts.read_buf_cap {
        shared.stats.reaped_buffer.inc();
        return false;
    }
    if let Some(started) = c.frame_start {
        if now.duration_since(started) > opts.frame_timeout {
            shared.stats.reaped_slow_read.inc();
            return false;
        }
    } else if c.conn.in_flight.load(Ordering::Acquire) == 0
        && now.duration_since(c.last_byte) > opts.idle_timeout
    {
        shared.stats.reaped_idle.inc();
        return false;
    }
    true
}

/// Admits every complete frame in the buffer; `Some` ends the
/// connection. Shed and frame-error responses are written right here, on
/// this connection's own reader, so a peer that does not read stalls
/// nobody else.
fn admit(c: &mut Reading, shared: &FrontShared) -> Option<Exit> {
    loop {
        match protocol::decode_frame(&mut c.buf) {
            Ok(Some(payload)) => {
                shared.stats.frames_in.inc();
                // Whatever bytes remain start the *next* frame: restart
                // its completion clock at the decode instant.
                c.frame_start = (!c.buf.is_empty()).then(Instant::now);
                c.conn.in_flight.fetch_add(1, Ordering::AcqRel);
                match shared.admission.push(NetJob {
                    conn: Arc::clone(&c.conn),
                    payload,
                    enqueued: Instant::now(),
                }) {
                    Ok(()) => {}
                    Err(AdmitError::Full(d)) => {
                        c.conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                        c.conn.send(&Response::Error {
                            message: format!("request shed: {d}"),
                        });
                    }
                    Err(AdmitError::Closed) => {
                        c.conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                        return Some(Exit::Quiet);
                    }
                }
            }
            Ok(None) => return None,
            Err(message) => {
                c.conn.send(&Response::Error { message });
                return Some(Exit::FrameError);
            }
        }
    }
}

fn worker_loop(shared: &FrontShared) {
    while let Some(job) = shared.admission.pop() {
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let waited = job.enqueued.elapsed();
        shared
            .stats
            .queue_wait_us
            .observe(waited.as_micros() as u64);
        let resp = handle(shared, &job.payload, waited);
        if job.conn.send(&resp) {
            shared.stats.frames_out.inc();
        }
        job.conn.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle(shared: &FrontShared, payload: &[u8], waited: Duration) -> Response {
    let manager = &shared.manager;
    let req = match Request::parse(payload) {
        Ok(req) => req,
        Err(message) => return Response::Error { message },
    };
    match req.op {
        RequestOp::Load { src } => loaded(manager.load(&req.tenant, &src)),
        RequestOp::Retract { src } => loaded(manager.retract(&req.tenant, &src)),
        RequestOp::Query {
            src,
            strategy,
            deadline_ms,
        } => {
            // The deadline covers queue wait plus evaluation, exactly as
            // `Server::submit_with_deadline`: subtract what the job
            // already spent queued. An expired deadline still evaluates
            // (zero remaining budget), so every admitted query gets an
            // answer — at worst a partial one with its degradation
            // report.
            let mut extra = Budget::unlimited();
            if let Some(ms) = deadline_ms {
                extra.deadline = Some(Duration::from_millis(ms).saturating_sub(waited));
            }
            match manager.query_with_budget(&req.tenant, &src, strategy, &extra) {
                Ok(answers) => Response::from_answers(&answers),
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
        RequestOp::Status => Response::Status {
            tenants: manager.tenants(),
        },
        RequestOp::Health => Response::Health {
            open_connections: shared.stats.conns_open.get(),
            queued: shared.admission.len() as u64,
            resident: manager.resident() as u64,
            draining: shared.draining.load(Ordering::Acquire),
        },
    }
}

/// The response to a load or a retraction.
fn loaded(written: Result<LoadReport, ServeError>) -> Response {
    match written {
        Ok(report) => Response::Loaded {
            epoch: report.epoch,
            persisted: report.persisted(),
            breaker_open: report.breaker_open,
        },
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    }
}

/// A minimal blocking client for the wire protocol — what the tests,
/// benches and README examples speak through.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a [`TcpFront`]. The client blocks indefinitely for
    /// responses; use [`Client::connect_timeout`] to bound waits against
    /// a server that might stall.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            buf: Vec::new(),
        })
    }

    /// [`Client::connect`] with per-operation read/write timeouts: a
    /// stalled or misbehaving server makes [`Client::request`] return a
    /// structured timeout error instead of hanging forever.
    pub fn connect_timeout(addr: SocketAddr, io_timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and blocks for its response. Note responses on
    /// a connection pipelining multiple outstanding requests may arrive
    /// out of order; this simple client sends one at a time.
    ///
    /// Every failure mode of a misbehaving server comes back as a
    /// structured `Err` — a response torn mid-frame is `connection
    /// closed`, a reset surfaces the I/O error, an oversized frame is a
    /// framing error, and (with [`Client::connect_timeout`]) a stalled
    /// server is a timeout. The client never panics on wire data.
    pub fn request(&mut self, req: &Request) -> Result<Json, String> {
        let frame = protocol::encode_frame(&req.render_json());
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("write: {e}"))?;
        loop {
            if let Some(payload) =
                protocol::decode_frame(&mut self.buf).map_err(|e| format!("frame: {e}"))?
            {
                let text =
                    std::str::from_utf8(&payload).map_err(|e| format!("invalid UTF-8: {e}"))?;
                return protocol::parse_json(text);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err("timed out waiting for the response".to_string())
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socketpair over loopback: (governed connection, peer). The
    /// server side stays blocking, as a registered connection does.
    fn pair(budget: Duration) -> (Arc<Conn>, TcpStream, Obs) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let obs = Obs::new();
        let conn = Arc::new(Conn::new(server_side, budget, &NetMetrics::new(&obs)));
        (conn, peer, obs)
    }

    #[test]
    fn send_kills_the_connection_when_the_write_budget_runs_out() {
        // The peer never reads, so loopback buffers eventually fill and
        // the blocking write times out once the budget is spent. A
        // response big enough to overwhelm any default socket buffer
        // pair forces that within one send.
        let (conn, peer, obs) = pair(Duration::from_millis(50));
        let huge = Response::Error {
            message: "x".repeat(8 * 1024 * 1024),
        };
        let start = Instant::now();
        assert!(!conn.send(&huge), "send into a stalled peer must fail");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "budget must bound the stall"
        );
        assert!(conn.dead.load(Ordering::Acquire));
        assert_eq!(
            obs.metrics.snapshot().counter("net.reaped.write_stall"),
            Some(1)
        );
        // Dead means dead: no further bytes are ever written.
        assert!(!conn.send(&Response::Error {
            message: "after".into()
        }));
        drop(peer);
    }

    #[test]
    fn send_marks_the_connection_dead_on_write_error() {
        let (conn, peer, obs) = pair(Duration::from_secs(5));
        drop(peer); // peer resets the connection
        let big = Response::Error {
            message: "y".repeat(4 * 1024 * 1024),
        };
        // The first send may need a second attempt before the kernel
        // notices the reset; both must end with a dead connection and
        // no torn-frame retries.
        let _ = conn.send(&big);
        let _ = conn.send(&big);
        assert!(conn.dead.load(Ordering::Acquire));
        assert!(
            obs.metrics
                .snapshot()
                .counter("net.write_errors")
                .unwrap_or(0)
                >= 1
        );
        assert!(!conn.send(&Response::Error { message: "z".into() }));
    }

    #[test]
    fn send_replaces_an_oversize_response_with_one_error_frame() {
        let (conn, mut peer, obs) = pair(Duration::from_secs(10));
        let oversize = Response::Error {
            message: "x".repeat(protocol::MAX_FRAME as usize),
        };
        let size = oversize.render_json().to_string().len();
        assert!(conn.send(&oversize), "the refusal goes out");
        assert!(
            conn.send(&Response::Error {
                message: "next".into()
            }),
            "the connection stays usable"
        );
        assert!(!conn.dead.load(Ordering::Acquire));

        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        while frames.len() < 2 {
            if let Some(payload) = protocol::decode_frame(&mut buf).expect("frames decode") {
                let text = std::str::from_utf8(&payload).expect("UTF-8 frame");
                frames.push(protocol::parse_json(text).expect("JSON frame"));
                continue;
            }
            let mut chunk = [0u8; 4096];
            let n = peer.read(&mut chunk).expect("frames arrive");
            assert!(n > 0, "connection closed");
            buf.extend_from_slice(&chunk[..n]);
        }
        assert!(buf.is_empty(), "nothing follows the two frames");
        // Exactly one frame stands for the oversize response: a
        // structured error naming its size and the limit.
        assert_eq!(protocol::get(&frames[0], "ok"), Some(&Json::Bool(false)));
        let Some(Json::Str(message)) = protocol::get(&frames[0], "error") else {
            panic!("no error message: {}", frames[0]);
        };
        assert!(
            message.contains(&size.to_string())
                && message.contains(&protocol::MAX_FRAME.to_string()),
            "{message}"
        );
        assert_eq!(
            protocol::get(&frames[1], "error"),
            Some(&Json::Str("next".into()))
        );
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("net.write_errors"), Some(0));
        assert_eq!(snap.counter("net.reaped.write_stall"), Some(0));
    }
}
