//! # clogic-serve — concurrent serving front-end for C-logic sessions
//!
//! A [`Server`] owns one [`Session`] behind a **lock-free snapshot
//! discipline**: loads (and artifact preparation) serialize behind a
//! mutex, and every [`Session::prepare`] publishes an epoch-stamped
//! [`SessionSnapshot`] into a shared
//! [`SnapshotCell`] with a single pointer swap. Queries fan out across
//! a thread pool and answer **entirely from the snapshot they pinned**
//! ([`SessionSnapshot::query_cached`]) — the read path takes no session
//! lock, clones no artifact, and keeps serving the previous snapshot
//! while a load builds the next one off to the side. The snapshot also
//! carries a cross-strategy answer cache (all six strategies agree on
//! complete answers), counted in `serve.snapshot.cache.{hit,miss}`.
//!
//! Three robustness mechanisms stack on top:
//!
//! * **Admission control.** Submissions land in a bounded queue
//!   ([`ServeOptions::queue_depth`]). When the queue is full the request
//!   is *shed* immediately with a structured [`Degradation`] report
//!   (trip kind [`TripKind::Shed`](folog::TripKind::Shed)) instead of queueing unboundedly —
//!   the same vocabulary the engines use for budget trips, so callers
//!   handle overload and slow queries uniformly. Every shed bumps the
//!   `serve.shed` counter; queue occupancy is the `serve.queue_depth`
//!   gauge.
//! * **Per-request deadlines.** A submission can carry a deadline that
//!   covers *queue wait plus evaluation*: whatever time the job spent
//!   queued is subtracted before the rest is threaded into the engine's
//!   [`Budget`]. An expired deadline still evaluates (with a zero
//!   remaining budget), so every accepted query gets an answer — at
//!   worst a partial one carrying its degradation report. A server-wide
//!   [`CancelToken`] is merged into every request so shutdown can
//!   interrupt in-flight work.
//! * **Circuit-broken persistence.** When the session's storage is
//!   wrapped in [`RetryingStorage`],
//!   transient I/O faults are retried with bounded backoff and repeated
//!   failure opens a circuit breaker. [`Server::load`] degrades
//!   gracefully on a persistence failure: the in-memory session has
//!   already advanced, so the server keeps answering queries **read-only**
//!   and reports the failure (and breaker state) in the [`LoadReport`]
//!   instead of refusing service.
//!
//! Workers never die: evaluation runs under `catch_unwind`, a panic is
//! reported to the submitter as [`ServeError::Panicked`] and counted in
//! `serve.worker_panics`, and the worker moves on to the next job.

#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod manager;
pub mod net;
pub mod protocol;

pub use admission::{AdmissionQueue, AdmitError};
pub use chaos::{ChaosListener, ChaosStream, WireFault};
pub use manager::{ManagerOptions, SessionManager, StorageFactory, TenantState, TenantStatus};
pub use net::{Client, TcpFront, TcpFrontOptions};
pub use protocol::{Request, RequestOp, Response};

use clogic::{Answers, Session, SessionError, SessionSnapshot, SnapshotCell, Strategy};
use clogic_obs::Obs;
use clogic_store::{FileStorage, RecoveryReport, RetryPolicy, RetryingStorage, StoreError};
use folog::{Budget, CancelToken, Degradation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads evaluating queries (default 4, minimum 1).
    pub workers: usize,
    /// Admission-queue capacity: submissions beyond this many waiting
    /// jobs are shed (default 64, minimum 1).
    pub queue_depth: usize,
    /// Deadline applied to every submission that does not carry its own
    /// (default `None`: only session/engine budgets bound the work).
    pub default_deadline: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_depth: 64,
            default_deadline: None,
        }
    }
}

/// Why the serving layer (not the engine) refused or failed a request.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control refused the request: the queue was full (or the
    /// server was shutting down with the job still queued). The
    /// [`Degradation`] carries trip kind [`TripKind::Shed`](folog::TripKind::Shed) and the queue
    /// occupancy observed at refusal.
    Shed(Degradation),
    /// The server has shut down; no more submissions are accepted.
    Closed,
    /// A worker panicked while evaluating this query. The worker itself
    /// survived; the payload is the panic message.
    Panicked(String),
    /// The session failed the request (parse error, engine error,
    /// persistence error, …).
    Session(SessionError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed(d) => write!(f, "request shed: {d}"),
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            ServeError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> ServeError {
        ServeError::Session(e)
    }
}

/// What [`Server::load`] did, including how persistence fared.
#[derive(Debug)]
pub struct LoadReport {
    /// Session epoch after the load.
    pub epoch: u64,
    /// The persistence failure, if the in-memory load succeeded but the
    /// write-ahead append (after retries) did not. The session keeps
    /// serving queries read-only; a later load retries persistence (and
    /// probes a half-open breaker).
    pub store_error: Option<StoreError>,
    /// Whether the storage circuit breaker was open after this load.
    pub breaker_open: bool,
}

impl LoadReport {
    /// True when the load reached stable storage (or the session is not
    /// persistent and there was nothing to persist).
    pub fn persisted(&self) -> bool {
        self.store_error.is_none()
    }
}

/// A ticket for a submitted query; redeem with [`Pending::wait`].
pub struct Pending {
    rx: mpsc::Receiver<Result<Answers, ServeError>>,
}

impl Pending {
    /// Blocks until the worker pool answers (or sheds/fails) the query.
    pub fn wait(self) -> Result<Answers, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }
}

struct Job {
    src: String,
    strategy: Strategy,
    deadline: Option<Duration>,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Answers, ServeError>>,
}

struct Shared {
    /// The session, taken only by **writers** (loads, maintenance,
    /// prepare escalation). The query path never touches it.
    session: Mutex<Session>,
    /// The session's snapshot publication cell: workers read the latest
    /// published [`SessionSnapshot`] from here, lock-free with respect
    /// to the session mutex.
    snapshots: Arc<SnapshotCell>,
    admission: AdmissionQueue<Job>,
    cancel_all: CancelToken,
    obs: Obs,
    default_deadline: Option<Duration>,
}

impl Shared {
    // A panic while holding the lock poisons it; the write path only
    // loads programs and prepares artifacts (idempotent), so recover
    // the guard.
    fn lock_session(&self) -> MutexGuard<'_, Session> {
        self.session.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A thread-pool query server over one [`Session`]. See the crate docs
/// for the serving model.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server over `session`, preparing its artifacts for the
    /// current epoch and spawning the worker pool.
    pub fn start(mut session: Session, opts: ServeOptions) -> Result<Server, SessionError> {
        session.prepare()?;
        let obs = session.obs().clone();
        let snapshots = session.snapshot_cell();
        let shared = Arc::new(Shared {
            session: Mutex::new(session),
            snapshots,
            admission: AdmissionQueue::new(opts.queue_depth, obs.clone()),
            cancel_all: CancelToken::new(),
            obs,
            default_deadline: opts.default_deadline,
        });
        let workers = (0..opts.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clogic-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Server { shared, workers })
    }

    /// Starts a persistent server: recovers (or initializes) the store at
    /// `path` through a [`RetryingStorage`] with `policy`, so every WAL
    /// append retries transient faults and repeated failure opens the
    /// circuit breaker instead of wedging loads.
    pub fn persistent(
        path: impl AsRef<std::path::Path>,
        policy: RetryPolicy,
        session_options: clogic::SessionOptions,
        opts: ServeOptions,
    ) -> Result<(Server, RecoveryReport), ServeError> {
        let obs = session_options.obs.clone();
        let file = FileStorage::create(&path).map_err(SessionError::Store)?;
        let storage = RetryingStorage::with_policy(file, policy).with_obs(obs);
        let (session, report) = Session::recover_from(Box::new(storage), session_options)?;
        let server = Server::start(session, opts)?;
        Ok((server, report))
    }

    /// Submits a query for evaluation under `strategy`, subject to the
    /// server's default deadline. Sheds immediately when the admission
    /// queue is full.
    pub fn submit(&self, src: &str, strategy: Strategy) -> Result<Pending, ServeError> {
        self.submit_with_deadline(src, strategy, self.shared.default_deadline)
    }

    /// [`Server::submit`] with an explicit deadline covering queue wait
    /// plus evaluation (`None` = no per-request deadline).
    pub fn submit_with_deadline(
        &self,
        src: &str,
        strategy: Strategy,
        deadline: Option<Duration>,
    ) -> Result<Pending, ServeError> {
        let shared = &self.shared;
        let (reply, rx) = mpsc::channel();
        let job = Job {
            src: src.to_string(),
            strategy,
            deadline,
            enqueued: Instant::now(),
            reply,
        };
        match shared.admission.push(job) {
            Ok(()) => Ok(Pending { rx }),
            Err(AdmitError::Closed) => Err(ServeError::Closed),
            Err(AdmitError::Full(d)) => Err(ServeError::Shed(d)),
        }
    }

    /// Convenience: submit and wait.
    pub fn query(&self, src: &str, strategy: Strategy) -> Result<Answers, ServeError> {
        self.submit(src, strategy)?.wait()
    }

    /// Loads program text into the session and re-prepares the artifacts
    /// for the new epoch, publishing a fresh [`SessionSnapshot`] — even
    /// for a program bottom-up evaluation rejects, whose snapshot
    /// returns that error to bottom-up queries. Loads serialize with
    /// each other on the session mutex, but **queries never wait**:
    /// workers keep answering from the previously published snapshot
    /// until the swap.
    ///
    /// A **persistence** failure does not fail the load: the in-memory
    /// session has already advanced, so the server stays up — read-only
    /// with respect to durability — and the failure is reported in the
    /// [`LoadReport`] alongside the breaker state. Parse and other
    /// session errors (which leave the session unchanged) are returned
    /// as errors.
    pub fn load(&self, src: &str) -> Result<LoadReport, ServeError> {
        let shared = &self.shared;
        let mut session = shared.lock_session();
        let epoch_before = session.epoch();
        let store_error = match session.load(src) {
            Ok(()) => None,
            Err(SessionError::Store(e)) if session.epoch() > epoch_before => {
                shared.obs.metrics.counter("serve.load.persist_failures").inc();
                Some(e)
            }
            Err(e) => return Err(ServeError::Session(e)),
        };
        session.prepare()?;
        Ok(LoadReport {
            epoch: session.epoch(),
            store_error,
            breaker_open: session.persistence_breaker_open(),
        })
    }

    /// Retracts clauses under the same publish discipline as
    /// [`Server::load`]: the retraction (and the snapshot republish)
    /// happens off to the side while queries keep answering from the
    /// previously published [`SessionSnapshot`] — a reader that pinned
    /// the pre-retraction snapshot keeps serving it untorn until it
    /// drops its `Arc`. A persistence failure is tolerated exactly as in
    /// a load (the in-memory retraction already happened); other errors
    /// — including [`SessionError::NoSuchClause`] — leave the session
    /// unchanged and are returned.
    pub fn retract(&self, src: &str) -> Result<LoadReport, ServeError> {
        let shared = &self.shared;
        let mut session = shared.lock_session();
        let epoch_before = session.epoch();
        let store_error = match session.retract(src) {
            Ok(()) => None,
            Err(SessionError::Store(e)) if session.epoch() > epoch_before => {
                shared
                    .obs
                    .metrics
                    .counter("serve.retract.persist_failures")
                    .inc();
                Some(e)
            }
            Err(e) => return Err(ServeError::Session(e)),
        };
        session.prepare()?;
        Ok(LoadReport {
            epoch: session.epoch(),
            store_error,
            breaker_open: session.persistence_breaker_open(),
        })
    }

    /// Runs `f` with exclusive access to the session — for maintenance
    /// (snapshots, metric snapshots, option changes). Queries are **not**
    /// blocked: they keep answering from the last published
    /// [`SessionSnapshot`] the whole time, so if `f` changed the
    /// program, call [`Session::prepare`] inside `f` — queries see
    /// nothing of the change until a prepare publishes it.
    pub fn with_session<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        f(&mut self.shared.lock_session())
    }

    /// Whether the session's persistence circuit breaker is currently
    /// open (see [`RetryingStorage`]), as captured by the last published
    /// snapshot — answering does not touch the session lock, so status
    /// endpoints stay responsive mid-load. Falls back to asking the
    /// session when nothing has been published yet.
    pub fn breaker_open(&self) -> bool {
        match self.shared.snapshots.load() {
            Some(snap) => snap.breaker_open(),
            None => self.shared.lock_session().persistence_breaker_open(),
        }
    }

    /// The server's observability handle (shared with the session).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Stops accepting submissions, cancels in-flight evaluations via
    /// the server-wide [`CancelToken`], sheds everything still queued,
    /// and joins the workers. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let shared = &self.shared;
        shared.cancel_all.cancel();
        for job in shared.admission.close() {
            let err = ServeError::Shed(
                shared
                    .admission
                    .shed(0, "server shutting down".to_string()),
            );
            let _ = job.reply.send(Err(err));
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.admission.pop() {
        // Time-in-queue vs time-evaluating, recorded separately so a
        // disappointing pool speedup is diagnosable from the metrics
        // alone: queue wait dominating means admission/worker-count
        // pressure, evaluation dominating means the shared read path
        // itself is the bottleneck.
        let waited = job.enqueued.elapsed();
        shared
            .obs
            .metrics
            .histogram("serve.queue_wait_us")
            .observe(waited.as_micros() as u64);

        // Per-request budget: the remaining deadline (queue wait already
        // spent) plus the server-wide cancel token. A deadline that
        // expired in the queue becomes a zero budget — the engine starts,
        // trips immediately, and the submitter still gets an answer with
        // its degradation report rather than silence.
        let mut extra = Budget::unlimited();
        extra.cancel = Some(shared.cancel_all.clone());
        if let Some(d) = job.deadline {
            extra.deadline = Some(d.saturating_sub(waited));
        }

        let eval_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job, &extra)))
            .unwrap_or_else(|payload| {
                shared.obs.metrics.counter("serve.worker_panics").inc();
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                Err(ServeError::Panicked(msg))
            });
        shared
            .obs
            .metrics
            .histogram("serve.eval_us")
            .observe(eval_start.elapsed().as_micros() as u64);
        if outcome.is_ok() {
            shared.obs.metrics.counter("serve.answered").inc();
        }
        // The submitter may have dropped its ticket; that's its right.
        let _ = job.reply.send(outcome);
    }
}

fn run_job(shared: &Shared, job: &Job, extra: &Budget) -> Result<Answers, ServeError> {
    // Lock-free fast path: pin the latest published snapshot and answer
    // entirely from it. A load in progress keeps the previous snapshot
    // serving — queries never wait on the writer, and the snapshot's
    // cross-strategy answer cache absorbs repeats.
    let snap = match shared.snapshots.load() {
        Some(snap) => snap,
        None => {
            // Nothing published yet (e.g. the session was mutated
            // through `with_session` without a `prepare`): escalate once
            // to the writer, then pin what it published.
            shared.obs.metrics.counter("serve.prepare_escalations").inc();
            shared.lock_session().prepare()?;
            shared.snapshots.load().expect("prepare always publishes")
        }
    };
    answer_from(shared, &snap, job, extra)
}

fn answer_from(
    shared: &Shared,
    snap: &SessionSnapshot,
    job: &Job,
    extra: &Budget,
) -> Result<Answers, ServeError> {
    let (answers, hit) = snap
        .query_cached(&job.src, job.strategy, extra)
        .map_err(ServeError::Session)?;
    let name = if hit {
        "serve.snapshot.cache.hit"
    } else {
        "serve.snapshot.cache.miss"
    };
    shared.obs.metrics.counter(name).inc();
    Ok(answers)
}

// The whole point of the crate: the server (and its error type) must be
// shareable across threads. A regression fails the build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<LoadReport>();
    assert_send::<Pending>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use folog::TripKind;

    fn server() -> Server {
        let mut s = Session::new();
        s.load("person: alice[likes => bob]. person: bob.").unwrap();
        Server::start(s, ServeOptions::default()).unwrap()
    }

    #[test]
    fn answers_queries_from_the_pool() {
        let srv = server();
        for strat in [Strategy::Direct, Strategy::Sld, Strategy::BottomUpSemiNaive] {
            let a = srv.query("person: X", strat).unwrap();
            assert_eq!(a.rows.len(), 2, "{strat:?}");
        }
        srv.shutdown();
    }

    #[test]
    fn sheds_when_queue_is_full() {
        let mut s = Session::new();
        s.load("t: a.").unwrap();
        let srv = Server::start(
            s,
            ServeOptions {
                workers: 1,
                queue_depth: 1,
                default_deadline: None,
            },
        )
        .unwrap();
        // Saturate: the worker may grab one job, but pushing enough
        // submissions faster than they drain must eventually shed.
        let mut shed = None;
        let mut pending = Vec::new();
        for _ in 0..64 {
            match srv.submit("t: X", Strategy::Sld) {
                Ok(p) => pending.push(p),
                Err(e) => {
                    shed = Some(e);
                    break;
                }
            }
        }
        match shed {
            Some(ServeError::Shed(d)) => {
                assert_eq!(d.trip, TripKind::Shed);
                assert_eq!(d.strategy, "serve");
            }
            other => panic!("expected a shed, got {other:?}"),
        }
        for p in pending {
            p.wait().unwrap();
        }
        let snap = srv.obs().metrics.snapshot();
        assert!(snap.counter("serve.shed").unwrap_or(0) >= 1);
        srv.shutdown();
    }

    #[test]
    fn load_bumps_epoch_and_queries_see_it() {
        let srv = server();
        let before = srv.query("person: X", Strategy::Direct).unwrap();
        assert_eq!(before.rows.len(), 2);
        let report = srv.load("person: carol.").unwrap();
        assert!(report.persisted());
        assert!(!report.breaker_open);
        let after = srv.query("person: X", Strategy::Direct).unwrap();
        assert_eq!(after.rows.len(), 3);
        srv.shutdown();
    }

    #[test]
    fn expired_deadline_still_gets_an_answer() {
        let srv = server();
        let a = srv
            .submit_with_deadline("person: X", Strategy::Sld, Some(Duration::ZERO))
            .unwrap()
            .wait()
            .unwrap();
        // Zero budget: the engine trips immediately but still replies.
        assert!(!a.complete || a.rows.len() == 2);
        srv.shutdown();
    }

    #[test]
    fn closed_server_refuses_submissions() {
        let srv = server();
        let shared = Arc::clone(&srv.shared);
        srv.shutdown();
        assert!(!shared.admission.is_open());
    }
}
