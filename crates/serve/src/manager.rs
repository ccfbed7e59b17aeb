//! Multi-tenant session management: many named durable sessions
//! multiplexed over one process.
//!
//! A [`SessionManager`] owns a map of *tenants*, each a persistent
//! [`Session`] recovered on demand from its own storage (produced by the
//! injected [`StorageFactory`] and wrapped in a per-tenant
//! [`RetryingStorage`], so every tenant has its **own** retry budget and
//! circuit breaker). The lifecycle per tenant is
//!
//! ```text
//! (unknown) ──open──▶ recovering ──▶ live ──idle, over capacity──▶ evicted
//!                          ▲                                          │
//!                          └───────────── first use after ────────────┘
//! ```
//!
//! * **Live** sessions are resident: writers serialize on an
//!   `Arc<Mutex<Session>>` while queries answer lock-free from the
//!   tenant's published [`SessionSnapshot`](clogic::SessionSnapshot),
//!   exactly as in [`Server`](crate::Server). Status listings read the
//!   snapshots too, so `:tenants` stays responsive while a tenant is
//!   mid-load.
//! * When the number of live sessions exceeds [`ManagerOptions::capacity`],
//!   the least-recently-used *idle* tenants (no outstanding handles) are
//!   **evicted**: compacted into their snapshot (best effort) and dropped
//!   from memory. Eviction is refused — *deferred* — unless the session
//!   is [`fully persisted`](Session::fully_persisted) with its breaker
//!   closed: evicting a session whose in-memory state is ahead of its log
//!   (a mid-outage tenant) would silently lose the unlogged loads.
//! * An evicted tenant is **recovered** lazily on its next open: the
//!   factory re-produces its storage and [`Session::recover_from`]
//!   replays snapshot + WAL, preserving skolem identities. Recovery runs
//!   *outside* the manager lock, so one tenant's slow (or broken)
//!   recovery never blocks its neighbors.
//!
//! **Fault isolation** is the point of the per-tenant plumbing: each
//! session's metrics land in an [`Obs::namespaced`] registry
//! (`tenant.<name>.…`), its breaker state is its own, and a tenant whose
//! storage is down is served read-only (persistence failures surface in
//! its [`LoadReport`], exactly the single-session `Server` contract)
//! while neighbors on healthy storage see zero retries and zero sheds.

use crate::{write, LoadReport, ServeError, PUBLISHED};
use clogic::{Answers, Session, SessionError, SessionOptions, SnapshotCell, Strategy};
use clogic_obs::{Counter, Obs};
use clogic_store::{RetryPolicy, RetryingStorage, Sleeper, Storage, StoreError};
use folog::Budget;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Produces the [`Storage`] backing a named tenant. Must be
/// deterministic per name: re-invoking it after an eviction has to reach
/// the **same** bytes the evicted session persisted (a directory keyed
/// by tenant name; a shared [`MemStorage`](clogic_store::MemStorage)
/// clone in tests).
pub type StorageFactory = Arc<dyn Fn(&str) -> Result<Box<dyn Storage>, StoreError> + Send + Sync>;

/// Tuning for a [`SessionManager`].
#[derive(Clone)]
pub struct ManagerOptions {
    /// Maximum *live* (resident) sessions before LRU eviction kicks in
    /// (default 64, minimum 1). Evicted tenants cost no memory; the
    /// total tenant population is unbounded.
    pub capacity: usize,
    /// Retry/breaker policy applied to every tenant's storage.
    pub retry: RetryPolicy,
    /// Template session options. Per tenant, `obs` is replaced with a
    /// [namespaced](Obs::namespaced) handle under `tenant.<name>.`; the
    /// rest (budget governor, snapshot cadence, engine options) applies
    /// to every tenant alike.
    pub session: SessionOptions,
    /// Backoff sleeper for the per-tenant [`RetryingStorage`];
    /// injectable so tests run fault storms without wall-clock cost.
    pub sleeper: Sleeper,
}

impl Default for ManagerOptions {
    fn default() -> Self {
        ManagerOptions {
            capacity: 64,
            retry: RetryPolicy::default(),
            session: SessionOptions::default(),
            sleeper: Arc::new(std::thread::sleep),
        }
    }
}

/// Where a tenant stands in the lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantState {
    /// Resident in memory, serving queries.
    Live,
    /// Dropped from memory; durable state on storage, recovered on next
    /// open.
    Evicted,
    /// Being recovered (or evicted) right now; opens wait.
    Recovering,
}

impl std::fmt::Display for TenantState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TenantState::Live => "live",
            TenantState::Evicted => "evicted",
            TenantState::Recovering => "recovering",
        })
    }
}

/// One row of [`SessionManager::tenants`] — the `:tenants` listing.
#[derive(Clone, Debug)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Lifecycle state.
    pub state: TenantState,
    /// Load epoch of the tenant's last published snapshot, when live.
    pub epoch: Option<u64>,
    /// Whether the tenant's persistence breaker was open as of its last
    /// published snapshot, when live.
    pub breaker_open: Option<bool>,
}

enum TenantSlot {
    Live {
        /// Writer handle: loads and maintenance serialize here.
        session: Arc<Mutex<Session>>,
        /// The session's snapshot cell: queries and status listings read
        /// the latest published snapshot from here without touching the
        /// session lock.
        snapshots: Arc<SnapshotCell>,
    },
    Evicted,
    Recovering,
}

struct Tenant {
    slot: TenantSlot,
    /// LRU stamp: the manager clock at last open.
    last_used: u64,
}

struct ManagerState {
    tenants: HashMap<String, Tenant>,
    clock: u64,
}

impl ManagerState {
    fn live(&self) -> usize {
        self.tenants
            .values()
            .filter(|t| matches!(t.slot, TenantSlot::Live { .. }))
            .count()
    }

    fn evicted(&self) -> usize {
        self.tenants
            .values()
            .filter(|t| matches!(t.slot, TenantSlot::Evicted))
            .count()
    }
}

/// Many named durable sessions behind one handle. See the [module
/// docs](self) for the lifecycle and isolation model.
pub struct SessionManager {
    factory: StorageFactory,
    opts: ManagerOptions,
    /// Root observability handle; tenant handles are namespaced off it.
    obs: Obs,
    /// `serve.snapshot.cache.hit` — queries answered from a snapshot's
    /// answer cache.
    cache_hit: Counter,
    /// `serve.snapshot.cache.miss` — queries the snapshot evaluated.
    cache_miss: Counter,
    state: Mutex<ManagerState>,
    /// Signalled whenever a Recovering slot resolves (either way).
    changed: Condvar,
}

impl SessionManager {
    /// A manager producing tenant storage through `factory`.
    pub fn new(factory: StorageFactory, opts: ManagerOptions) -> SessionManager {
        let obs = opts.session.obs.clone();
        SessionManager {
            factory,
            opts,
            cache_hit: obs.metrics.counter("serve.snapshot.cache.hit"),
            cache_miss: obs.metrics.counter("serve.snapshot.cache.miss"),
            obs,
            state: Mutex::new(ManagerState {
                tenants: HashMap::new(),
                clock: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// The root observability handle (tenant metrics appear under
    /// `tenant.<name>.` in its registry; manager gauges under
    /// `manager.`).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Live (resident) session count.
    pub fn resident(&self) -> usize {
        self.lock().live()
    }

    /// Status of every tenant the manager has seen, sorted by name.
    pub fn tenants(&self) -> Vec<TenantStatus> {
        let st = self.lock();
        let mut rows: Vec<TenantStatus> = st
            .tenants
            .iter()
            .map(|(name, t)| {
                let (state, epoch, breaker_open) = match &t.slot {
                    // Read the published snapshot, never the session
                    // lock: a tenant mid-load still reports its last
                    // published epoch instead of blanking out (or
                    // blocking the listing).
                    TenantSlot::Live { snapshots, .. } => match snapshots.load() {
                        Some(snap) => (
                            TenantState::Live,
                            Some(snap.epoch()),
                            Some(snap.breaker_open()),
                        ),
                        None => (TenantState::Live, None, None),
                    },
                    TenantSlot::Evicted => (TenantState::Evicted, None, None),
                    TenantSlot::Recovering => (TenantState::Recovering, None, None),
                };
                TenantStatus {
                    name: name.clone(),
                    state,
                    epoch,
                    breaker_open,
                }
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Opens (creating or recovering as needed) the named tenant and
    /// returns its session (writer) handle. Holding the handle pins the
    /// tenant live — drop it promptly, or use the [`load`](Self::load) /
    /// [`query`](Self::query) conveniences which do.
    pub fn open(&self, name: &str) -> Result<Arc<Mutex<Session>>, ServeError> {
        self.open_slot(name).map(|(session, _)| session)
    }

    /// [`open`](Self::open), also returning the tenant's snapshot cell
    /// for the lock-free read path.
    fn open_slot(
        &self,
        name: &str,
    ) -> Result<(Arc<Mutex<Session>>, Arc<SnapshotCell>), ServeError> {
        validate_name(name).map_err(ServeError::Session)?;
        let mut st = self.lock();
        loop {
            st.clock += 1;
            let now = st.clock;
            match st.tenants.get_mut(name) {
                Some(tenant) => match &tenant.slot {
                    TenantSlot::Live { session, snapshots } => {
                        let handles = (Arc::clone(session), Arc::clone(snapshots));
                        tenant.last_used = now;
                        return Ok(handles);
                    }
                    TenantSlot::Recovering => {
                        st = self.changed.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    TenantSlot::Evicted => {
                        tenant.slot = TenantSlot::Recovering;
                        self.obs.metrics.counter("manager.recoveries").inc();
                        break;
                    }
                },
                None => {
                    st.tenants.insert(
                        name.to_string(),
                        Tenant {
                            slot: TenantSlot::Recovering,
                            last_used: 0,
                        },
                    );
                    self.obs.metrics.counter("manager.tenants_created").inc();
                    break;
                }
            }
        }
        drop(st);

        // Build outside the lock: a slow or broken recovery (dead disk,
        // retry storm) must not block other tenants' opens.
        let built = self.build_session(name);
        let mut st = self.lock();
        st.clock += 1;
        let now = st.clock;
        let tenant = st.tenants.get_mut(name).expect("recovering slot present");
        let result = match built {
            Ok(session) => {
                let snapshots = session.snapshot_cell();
                let arc = Arc::new(Mutex::new(session));
                tenant.slot = TenantSlot::Live {
                    session: Arc::clone(&arc),
                    snapshots: Arc::clone(&snapshots),
                };
                tenant.last_used = now;
                Ok((arc, snapshots))
            }
            Err(e) => {
                // The durable state (if any) is untouched; the next open
                // retries recovery.
                tenant.slot = TenantSlot::Evicted;
                self.obs.metrics.counter("manager.recovery_failures").inc();
                Err(ServeError::Session(e))
            }
        };
        self.update_gauges(&st);
        drop(st);
        self.changed.notify_all();
        if result.is_ok() {
            self.evict_over_capacity();
        }
        result
    }

    /// Loads program text into the named tenant. Mirrors
    /// [`Server::load`](crate::Server::load): a persistence failure does
    /// not fail the load — the tenant keeps serving read-only and the
    /// failure (plus breaker state) is reported in the [`LoadReport`].
    pub fn load(&self, name: &str, src: &str) -> Result<LoadReport, ServeError> {
        let arc = self.open(name)?;
        let mut session = arc.lock().unwrap_or_else(|e| e.into_inner());
        write(&mut session, &self.obs, "manager.persist_failures", |s| {
            s.load(src)
        })
    }

    /// Retracts clauses from the named tenant. Mirrors
    /// [`SessionManager::load`]: a persistence failure does not fail the
    /// retraction (the in-memory state already advanced) — it is
    /// reported in the [`LoadReport`] — while any other error leaves the
    /// tenant unchanged.
    pub fn retract(&self, name: &str, src: &str) -> Result<LoadReport, ServeError> {
        let arc = self.open(name)?;
        let mut session = arc.lock().unwrap_or_else(|e| e.into_inner());
        write(&mut session, &self.obs, "manager.persist_failures", |s| {
            s.retract(src)
        })
    }

    /// Queries the named tenant with no extra budget.
    pub fn query(&self, name: &str, src: &str, strategy: Strategy) -> Result<Answers, ServeError> {
        self.query_with_budget(name, src, strategy, &Budget::unlimited())
    }

    /// Queries the named tenant, merging `extra` (per-request deadline,
    /// cancel token) into the session budget. Answers come lock-free
    /// from the tenant's published [`SessionSnapshot`](clogic::SessionSnapshot)
    /// (through its cross-strategy answer cache), as in the
    /// single-session server.
    pub fn query_with_budget(
        &self,
        name: &str,
        src: &str,
        strategy: Strategy,
        extra: &Budget,
    ) -> Result<Answers, ServeError> {
        let (_, snapshots) = self.open_slot(name)?;
        let snap = snapshots.load().expect(PUBLISHED);
        let (answers, hit) = snap
            .query_cached(src, strategy, extra)
            .map_err(ServeError::Session)?;
        if hit {
            self.cache_hit.inc();
        } else {
            self.cache_miss.inc();
        }
        Ok(answers)
    }

    /// Explicitly evicts the named tenant if it is live, idle and safe
    /// to evict. Returns `true` if evicted, `false` if deferred (held
    /// handles, breaker open, or unpersisted loads) or not live.
    pub fn evict(&self, name: &str) -> Result<bool, ServeError> {
        validate_name(name).map_err(ServeError::Session)?;
        Ok(self.try_evict(name))
    }

    /// Evicts least-recently-used idle tenants until the live count is
    /// back within capacity. One pass: tenants whose eviction is unsafe
    /// are deferred (counted in `manager.eviction_deferrals`), so a
    /// mid-outage tenant can hold the live count above capacity — by
    /// design, never at the cost of losing its unlogged loads.
    fn evict_over_capacity(&self) {
        let candidates: Vec<String> = {
            let st = self.lock();
            let over = st.live().saturating_sub(self.opts.capacity.max(1));
            if over == 0 {
                return;
            }
            let mut live: Vec<(&String, &Tenant)> = st
                .tenants
                .iter()
                .filter(|(_, t)| matches!(t.slot, TenantSlot::Live { .. }))
                .collect();
            live.sort_by_key(|(_, t)| t.last_used);
            live.iter().map(|(name, _)| (*name).clone()).collect()
        };
        for name in candidates {
            {
                let st = self.lock();
                if st.live() <= self.opts.capacity.max(1) {
                    return;
                }
            }
            self.try_evict(&name);
        }
    }

    /// Attempts to evict one tenant; true on success.
    fn try_evict(&self, name: &str) -> bool {
        // Claim the slot (Recovering) so a concurrent open waits instead
        // of racing a recovery against the still-resident session.
        let arc = {
            let mut st = self.lock();
            let Some(tenant) = st.tenants.get_mut(name) else {
                return false;
            };
            let TenantSlot::Live { session: arc, .. } = &tenant.slot else {
                return false;
            };
            // Idle = the map holds the only handle; anything else means
            // a query or load is in flight (or a caller pinned it).
            if Arc::strong_count(arc) != 1 {
                self.obs.metrics.counter("manager.eviction_deferrals").inc();
                return false;
            }
            let arc = Arc::clone(arc);
            tenant.slot = TenantSlot::Recovering;
            arc
        };

        // Safety predicate, checked outside the manager lock: every load
        // must be durably logged and the breaker closed. A best-effort
        // compaction keeps recovery replay short; its failure does not
        // block eviction as long as the WAL still covers the state.
        let safe = {
            let mut session = arc.lock().unwrap_or_else(|e| e.into_inner());
            if session.fully_persisted() && !session.persistence_breaker_open() {
                let _ = session.snapshot();
                session.fully_persisted() && !session.persistence_breaker_open()
            } else {
                false
            }
        };

        let mut st = self.lock();
        st.clock += 1;
        let now = st.clock;
        let tenant = st.tenants.get_mut(name).expect("claimed slot present");
        let evicted = if safe {
            drop(arc);
            tenant.slot = TenantSlot::Evicted;
            self.obs.metrics.counter("manager.evictions").inc();
            true
        } else {
            let snapshots = arc.lock().unwrap_or_else(|e| e.into_inner()).snapshot_cell();
            tenant.slot = TenantSlot::Live {
                session: arc,
                snapshots,
            };
            // Freshen the LRU stamp so the next pass tries a different
            // candidate instead of re-deferring this one forever.
            tenant.last_used = now;
            self.obs.metrics.counter("manager.eviction_deferrals").inc();
            false
        };
        self.update_gauges(&st);
        drop(st);
        self.changed.notify_all();
        evicted
    }

    fn build_session(&self, name: &str) -> Result<Session, SessionError> {
        let obs = self.obs.namespaced(&format!("tenant.{name}."));
        let storage = (self.factory)(name).map_err(SessionError::Store)?;
        let retry = RetryingStorage::with_sleeper(
            storage,
            self.opts.retry.clone(),
            Arc::clone(&self.opts.sleeper),
        )
        .with_obs(obs.clone());
        let mut session_options = self.opts.session.clone();
        session_options.obs = obs;
        let (mut session, _report) = Session::recover_from(Box::new(retry), session_options)?;
        session.prepare()?;
        Ok(session)
    }

    fn update_gauges(&self, st: &ManagerState) {
        let m = &self.obs.metrics;
        m.gauge("manager.sessions.live").set(st.live() as u64);
        m.gauge("manager.sessions.evicted").set(st.evicted() as u64);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ManagerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Tenant names become metric prefixes and (for file-backed factories)
/// directory names, so they are restricted to a safe alphabet.
fn validate_name(name: &str) -> Result<(), SessionError> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && name != "."
        && name != ".."
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(SessionError::Store(StoreError::new(
            "open-tenant",
            name,
            "invalid tenant name (want 1-128 chars of [A-Za-z0-9._-], not `.`/`..`)",
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clogic_store::MemStorage;
    use std::collections::HashMap as Map;

    /// A factory handing each tenant its own MemStorage, stable across
    /// evictions (clones share bytes).
    fn mem_factory() -> (StorageFactory, Arc<Mutex<Map<String, MemStorage>>>) {
        let stores: Arc<Mutex<Map<String, MemStorage>>> = Arc::new(Mutex::new(Map::new()));
        let stores2 = Arc::clone(&stores);
        let factory: StorageFactory = Arc::new(move |name| {
            let mut stores = stores2.lock().unwrap();
            Ok(Box::new(
                stores.entry(name.to_string()).or_default().clone(),
            ) as Box<dyn Storage>)
        });
        (factory, stores)
    }

    fn no_sleep_opts(capacity: usize) -> ManagerOptions {
        ManagerOptions {
            capacity,
            sleeper: Arc::new(|_| {}),
            ..ManagerOptions::default()
        }
    }

    #[test]
    fn tenants_are_isolated_namespaces() {
        let (factory, _) = mem_factory();
        let mgr = SessionManager::new(factory, no_sleep_opts(8));
        mgr.load("alice", "t: a.").unwrap();
        mgr.load("bob", "t: b. t: c.").unwrap();
        assert_eq!(mgr.query("alice", "t: X", Strategy::Sld).unwrap().rows.len(), 1);
        assert_eq!(mgr.query("bob", "t: X", Strategy::Sld).unwrap().rows.len(), 2);
        // Per-tenant metrics landed under their namespaces.
        let snap = mgr.obs().metrics.snapshot();
        assert_eq!(snap.counter("tenant.alice.session.loads"), Some(1));
        assert_eq!(snap.counter("tenant.bob.session.loads"), Some(1));
    }

    #[test]
    fn eviction_recovers_lazily_with_identical_answers() {
        let (factory, _) = mem_factory();
        let mgr = SessionManager::new(factory, no_sleep_opts(1));
        mgr.load("a", "p: x[f => y].").unwrap();
        let before = mgr.query("a", "p: X", Strategy::Direct).unwrap();
        // Opening a second tenant pushes `a` out (capacity 1).
        mgr.load("b", "q: z.").unwrap();
        let rows: Map<String, TenantState> = mgr
            .tenants()
            .into_iter()
            .map(|t| (t.name, t.state))
            .collect();
        assert_eq!(rows["a"], TenantState::Evicted);
        assert_eq!(rows["b"], TenantState::Live);
        assert_eq!(mgr.resident(), 1);
        // First query after eviction recovers transparently.
        let after = mgr.query("a", "p: X", Strategy::Direct).unwrap();
        assert_eq!(before, after);
        let snap = mgr.obs().metrics.snapshot();
        assert!(snap.counter("manager.evictions").unwrap_or(0) >= 1);
        assert!(snap.counter("manager.recoveries").unwrap_or(0) >= 1);
    }

    #[test]
    fn pinned_tenants_are_not_evicted() {
        let (factory, _) = mem_factory();
        let mgr = SessionManager::new(factory, no_sleep_opts(1));
        mgr.load("a", "t: a.").unwrap();
        let pin = mgr.open("a").unwrap();
        mgr.load("b", "t: b.").unwrap();
        // `a` was not evictable (handle outstanding): both stay live.
        assert_eq!(mgr.resident(), 2);
        assert!(
            mgr.obs()
                .metrics
                .snapshot()
                .counter("manager.eviction_deferrals")
                .unwrap_or(0)
                >= 1
        );
        drop(pin);
        assert!(mgr.evict("a").unwrap());
        assert_eq!(mgr.resident(), 1);
    }

    #[test]
    fn invalid_names_are_refused() {
        let (factory, _) = mem_factory();
        let mgr = SessionManager::new(factory, no_sleep_opts(4));
        for bad in ["", ".", "..", "a/b", "a b", "tenant\n"] {
            assert!(mgr.open(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
