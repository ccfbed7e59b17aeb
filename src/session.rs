//! A high-level session API over the whole C-logic stack.
//!
//! A [`Session`] holds one C-logic program and answers queries through any
//! of the implemented evaluation strategies:
//!
//! * [`Strategy::Direct`] — direct resolution over complex objects
//!   (clustered store, order-sorted types, residuation);
//! * [`Strategy::Sld`] — Theorem 1 translation, then top-down SLD;
//! * [`Strategy::BottomUpNaive`] / [`Strategy::BottomUpSemiNaive`] —
//!   translation, least-model fixpoint, query matching;
//! * [`Strategy::Tabled`] — translation, tabled top-down evaluation;
//! * [`Strategy::Magic`] — translation, magic-sets rewrite, bottom-up.
//!
//! All strategies return the same answer sets (the executable content of
//! Theorem 1; property-tested in `tests/equivalence.rs`).
//!
//! ```
//! use clogic::session::{Session, Strategy};
//!
//! let mut s = Session::new();
//! s.load(
//!     "person: john[children => {bob, bill}].
//!      parent(X) :- person: X[children => Y].",
//! )
//! .unwrap();
//! let answers = s.query("parent(X)", Strategy::Direct).unwrap();
//! assert_eq!(answers.rows.len(), 1);
//! assert_eq!(answers.rows[0].get("X"), Some("john".to_string()));
//! ```

use clogic_core::fol::{FoAtom, FoClause, FoProgram, FoTerm};
use clogic_core::optimize::Optimizer;
use clogic_core::program::Program;
use clogic_core::skolem::{auto_skolemize_from, SkolemReport, SkolemState};
use clogic_core::symbol::Symbol;
use clogic_core::transform::{TranslationState, TranslationStats, Transformer};
use clogic_core::Query;
use clogic_engine::{DirectEngine, DirectOptions, DirectProgram};
use clogic_obs::{Json, MetricsSnapshot, Obs, Render};
use clogic_parser::{parse_query, parse_source, ParseError, ParseErrors};
use clogic_store::{
    DurableLog, FileStorage, LoadRecord, RecoveryIssue, RecoveryReport, SnapshotRecord, Storage,
    StoreError, WalOp, SNAPSHOT_FILE, WAL_FILE,
};
use folog::bottom_up::EvalError;
use folog::builtins::builtin_symbols;
use folog::magic::solve_magic_rewritten;
use folog::tabling::{TabledEngine, TablingOptions};
use folog::{
    Budget, ClauseOverlay, ClauseView, CompiledProgram, Degradation, Evaluation, FixpointOptions,
    FixpointStats, SldEngine, SldOptions, Strategy as FixpointStrategy,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// An evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Direct resolution over complex objects (no translation).
    Direct,
    /// Translate to first-order clauses, run SLD resolution.
    Sld,
    /// Translate, compute the least model naively, match the query.
    BottomUpNaive,
    /// Translate, compute the least model semi-naively, match the query.
    BottomUpSemiNaive,
    /// Translate, run tabled top-down evaluation.
    Tabled,
    /// Translate, apply the magic-sets rewrite, evaluate bottom-up.
    Magic,
}

impl Strategy {
    /// All strategies, for cross-checking loops.
    pub const ALL: [Strategy; 6] = [
        Strategy::Direct,
        Strategy::Sld,
        Strategy::BottomUpNaive,
        Strategy::BottomUpSemiNaive,
        Strategy::Tabled,
        Strategy::Magic,
    ];
}

/// One answer row: query variable → ground term (display form available
/// via [`AnswerRow::get`]).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AnswerRow {
    /// Variable bindings, sorted by variable name.
    pub bindings: BTreeMap<Symbol, FoTerm>,
}

impl AnswerRow {
    /// The binding of a variable, rendered.
    pub fn get(&self, var: &str) -> Option<String> {
        self.bindings.get(&Symbol::new(var)).map(|t| t.to_string())
    }
}

impl fmt::Display for AnswerRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bindings.is_empty() {
            return write!(f, "yes");
        }
        for (i, (k, v)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

/// The result of a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answers {
    /// Sorted, deduplicated answer rows.
    pub rows: Vec<AnswerRow>,
    /// Whether the strategy explored its whole search space. Every
    /// strategy reports `false` when cut off by an engine limit or a
    /// [`Budget`] ceiling; the rows found so far are still returned.
    pub complete: bool,
    /// Why evaluation stopped early, when `complete` is false.
    pub degradation: Option<Degradation>,
}

impl Answers {
    /// True iff at least one answer.
    pub fn holds(&self) -> bool {
        !self.rows.is_empty()
    }

    /// The rows rendered, for golden tests.
    pub fn rendered(&self) -> Vec<String> {
        self.rows.iter().map(|r| r.to_string()).collect()
    }
}

/// Any error the session can raise.
#[derive(Debug)]
pub enum SessionError {
    /// Source failed to parse; carries **every** diagnostic the parser
    /// collected (it recovers at each `.` and keeps going).
    Parse(ParseErrors),
    /// The strategy does not support a feature the program/query uses.
    Unsupported(String),
    /// A built-in raised an error.
    Builtin(folog::builtins::BuiltinError),
    /// Bottom-up evaluation failed.
    Eval(folog::bottom_up::EvalError),
    /// Tabled evaluation failed.
    Tabling(folog::tabling::TablingError),
    /// Durable storage failed. The in-memory session may be ahead of the
    /// log when this is returned from [`Session::load`] — treat it as a
    /// crash and recover from the store.
    Store(StoreError),
    /// [`Session::retract`] found no loaded clause matching one of the
    /// clauses in its source. Nothing was retracted (the operation is
    /// all-or-nothing).
    NoSuchClause(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Unsupported(m) => write!(f, "unsupported: {m}"),
            SessionError::Builtin(e) => write!(f, "{e}"),
            SessionError::Eval(e) => write!(f, "{e}"),
            SessionError::Tabling(e) => write!(f, "{e}"),
            SessionError::Store(e) => write!(f, "{e}"),
            SessionError::NoSuchClause(c) => {
                write!(f, "retract: no loaded clause matches `{c}`")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Parse(e) => Some(e),
            SessionError::Unsupported(_) | SessionError::NoSuchClause(_) => None,
            SessionError::Builtin(e) => Some(e),
            SessionError::Eval(e) => Some(e),
            SessionError::Tabling(e) => Some(e),
            SessionError::Store(e) => Some(e),
        }
    }
}

// Compile-time thread-safety contracts: `clogic-serve` serializes writes
// behind a `Mutex<Session>` while readers fan out over published
// `Arc<SessionSnapshot>`s, so `Session: Send + Sync`, the snapshot types,
// and everything a worker can return must hold by construction, not by
// test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<SessionError>();
    assert_send_sync::<Answers>();
    assert_send_sync::<QueryProfile>();
    assert_send_sync::<SessionSnapshot>();
    assert_send_sync::<SnapshotCell>();
};

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e.into())
    }
}
impl From<ParseErrors> for SessionError {
    fn from(e: ParseErrors) -> Self {
        SessionError::Parse(e)
    }
}
impl From<StoreError> for SessionError {
    fn from(e: StoreError) -> Self {
        SessionError::Store(e)
    }
}
impl From<folog::builtins::BuiltinError> for SessionError {
    fn from(e: folog::builtins::BuiltinError) -> Self {
        SessionError::Builtin(e)
    }
}
impl From<folog::bottom_up::EvalError> for SessionError {
    fn from(e: folog::bottom_up::EvalError) -> Self {
        SessionError::Eval(e)
    }
}
impl From<folog::tabling::TablingError> for SessionError {
    fn from(e: folog::tabling::TablingError) -> Self {
        SessionError::Tabling(e)
    }
}

/// Tuning knobs for a session.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Apply the §4 redundancy-elimination rules to the translated
    /// program (on by default).
    pub optimize_translation: bool,
    /// Automatically skolemize head-only object variables (§2.1 high-
    /// level interface; on by default).
    pub auto_skolemize: bool,
    /// Session-wide resource budget, merged (tighter ceiling wins, per
    /// axis) into every engine's own budget on each query. Unlimited by
    /// default; see [`SessionOptions::termination_guard`] for the safety
    /// net that kicks in on provably dangerous programs.
    pub budget: Budget,
    /// Statically analyse the translated program before each query and,
    /// when skolem-function recursion is detected (a recursive predicate
    /// whose head constructs non-ground function terms — the signature of
    /// an infinite least model, see `clogic_core::termination`), bound the
    /// effective budget with a default deadline and a small fact ceiling
    /// so no strategy can hang or build pathologically deep terms. On by
    /// default; the injected bounds never *loosen* an explicitly
    /// configured budget.
    pub termination_guard: bool,
    /// Options for the direct engine.
    pub direct: DirectOptions,
    /// Options for SLD.
    pub sld: SldOptions,
    /// Options for tabling.
    pub tabling: TablingOptions,
    /// For a persistent session, compact the write-ahead log into a
    /// snapshot automatically after this many logged loads (`None` turns
    /// periodic compaction off; [`Session::snapshot`] is always available
    /// manually). Compaction bounds both recovery replay time and log
    /// growth.
    pub snapshot_every: Option<u64>,
    /// Options for the bottom-up fixpoint (shared by the naive,
    /// semi-naive and magic strategies).
    ///
    /// Unlike the *library* default ([`FixpointOptions::default`], which
    /// is fully unbounded for programmatic callers that manage their own
    /// limits), the *session* default caps the fixpoint at 1,000,000
    /// facts and 100,000 iterations, so an unexpectedly large least model
    /// degrades into partial answers instead of consuming the machine.
    /// Set the fields to `None` to opt back into unbounded evaluation.
    pub fixpoint: FixpointOptions,
    /// Observability handle: session-level counters (loads, cache
    /// hits/misses, recovery, translation work) land in its metrics
    /// registry, engine evaluations flush their tallies into it, and its
    /// tracer (disabled by default — effectively free) receives spans for
    /// loads, recovery and every evaluation. Clone-shared with the
    /// durable log and every engine invocation.
    pub obs: Obs,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            optimize_translation: true,
            auto_skolemize: true,
            budget: Budget::unlimited(),
            termination_guard: true,
            direct: DirectOptions::default(),
            sld: SldOptions::default(),
            tabling: TablingOptions::default(),
            snapshot_every: Some(64),
            fixpoint: FixpointOptions {
                max_facts: Some(1_000_000),
                max_iterations: Some(100_000),
                ..FixpointOptions::default()
            },
            obs: Obs::default(),
        }
    }
}

impl SessionOptions {
    /// Fixpoint options for one evaluation, under the effective budget.
    fn fixpoint_for(
        &self,
        strategy: FixpointStrategy,
        may_diverge: bool,
        extra: &Budget,
        obs: &Obs,
    ) -> FixpointOptions {
        FixpointOptions {
            strategy,
            budget: self.effective(may_diverge, &self.fixpoint.budget, extra),
            obs: obs.clone(),
            ..self.fixpoint.clone()
        }
    }

    /// The effective budget for one engine invocation: the engine budget
    /// tightened by the session budget and the caller's `extra`, then
    /// bounded by the termination guard when the translated program
    /// `may_diverge`.
    fn effective(&self, may_diverge: bool, engine_budget: &Budget, extra: &Budget) -> Budget {
        let mut b = engine_budget.merged(&self.budget).merged(extra);
        if self.termination_guard && may_diverge {
            if b.deadline.is_none() {
                b.deadline = Some(GUARD_DEADLINE);
            }
            if b.max_facts.is_none() {
                b.max_facts = Some(GUARD_MAX_FACTS);
            }
        }
        b
    }
}

/// How an epoch-versioned artifact (translation, compiled program,
/// direct-engine program) was brought up to date for a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactProvenance {
    /// Already current for this epoch — no work done.
    Current,
    /// Extended in place from the load delta.
    Extended,
    /// Rebuilt from scratch (first use, or a delta the incremental path
    /// cannot handle — see [`Session`]'s artifact docs).
    Rebuilt,
}

impl fmt::Display for ArtifactProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactProvenance::Current => "current",
            ArtifactProvenance::Extended => "extended",
            ArtifactProvenance::Rebuilt => "rebuilt",
        })
    }
}

/// How a saturated bottom-up model was obtained for a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelProvenance {
    /// A cached model current for this epoch was served as-is.
    Reused,
    /// A complete model from an earlier epoch was resumed by seeding the
    /// fixpoint with the load delta.
    Resumed,
    /// Computed from scratch.
    Computed,
}

impl fmt::Display for ModelProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ModelProvenance::Reused => "reused",
            ModelProvenance::Resumed => "resumed",
            ModelProvenance::Computed => "computed",
        })
    }
}

/// Deadline injected by the termination guard when the effective budget
/// has none and the program shows skolem-function recursion.
const GUARD_DEADLINE: std::time::Duration = std::time::Duration::from_secs(2);
/// Fact/answer ceiling injected alongside [`GUARD_DEADLINE`]. Deliberately
/// small: a flagged program nests its skolem terms one level deeper per
/// derived generation, and terms beyond a few thousand levels break the
/// recursive term operations (conversion, comparison, drop) regardless of
/// how fast the machine reached them — so the structural cap, not the
/// deadline, is what actually bounds term depth.
const GUARD_MAX_FACTS: usize = 2_000;

/// Complete answer sets a [`SessionSnapshot`] memoizes before an insert
/// clears its answer cache (see [`SessionSnapshot::query_cached`]).
pub const ANSWER_CACHE_CAPACITY: usize = 1_024;

/// Hit/miss counters of [`Session::query`]'s answer-cache lookups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to be evaluated.
    pub misses: u64,
}

/// Wall time of one pipeline phase inside [`Session::explain`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name (`parse`, `translate`, `compile`, `model`, `evaluate`).
    pub name: &'static str,
    /// Wall time in microseconds.
    pub micros: u64,
}

/// Provenance of one artifact consulted by the profiled query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactNote {
    /// Artifact name (`translation`, `compiled`, `direct`, `model` — the
    /// semi-naive one — or `naive model`).
    pub artifact: &'static str,
    /// How it was brought up to date (`current` / `extended` / `rebuilt`,
    /// or `reused` / `resumed` / `computed` for models).
    pub provenance: String,
}

/// Tuples one rule produced during the profiled evaluation. What a
/// "tuple" is depends on the strategy: derived facts before dedup for the
/// bottom-up strategies, successful head unifications for SLD and the
/// direct engine, table answers for tabling. Zero-count rules are
/// omitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleTuples {
    /// The rule, rendered. For [`Strategy::Magic`] this is a rule of the
    /// *rewritten* program (magic/supplementary predicates included).
    pub rule: String,
    /// Tuples produced by that rule.
    pub tuples: u64,
}

/// The governor budget the profiled evaluation ran under, and what it
/// consumed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BudgetUse {
    /// Wall-clock ceiling, in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Step ceiling, if any.
    pub max_steps: Option<u64>,
    /// Derived-fact / answer ceiling, if any.
    pub max_facts: Option<u64>,
    /// Heap ceiling in bytes, if any.
    pub max_memory_bytes: Option<u64>,
    /// True when the ceilings were injected by the termination guard
    /// (skolem-function recursion detected) rather than configured.
    pub guard_injected: bool,
    /// Wall time the evaluation phase actually spent, in microseconds.
    pub elapsed_us: u64,
}

/// What [`SessionSnapshot::explain`] (or [`Session::explain`]) found: an
/// EXPLAIN-style profile of one query under one strategy.
///
/// The profile is built by *evaluating the query for real* against a
/// published snapshot — bypassing its answer cache but reporting whether
/// it would have hit — with a fresh metrics registry attached, so
/// [`QueryProfile::metrics`] holds exactly this evaluation's engine
/// counters. Render it with [`Render::render_text`] (the REPL's
/// `:explain`) or [`Render::render_json`].
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// The query, canonicalized.
    pub query: String,
    /// Strategy profiled.
    pub strategy: Strategy,
    /// Epoch of the snapshot the query was profiled against.
    pub epoch: u64,
    /// Whether [`SessionSnapshot::query_cached`] (and so
    /// [`Session::query`]) would have served this from the snapshot's
    /// answer cache instead of evaluating.
    pub cache_would_hit: bool,
    /// Wall time per pipeline phase, in pipeline order.
    pub phases: Vec<PhaseTiming>,
    /// Provenance of each artifact the strategy consulted.
    pub artifacts: Vec<ArtifactNote>,
    /// Per-rule tuple production (zero-count rules omitted). For the
    /// bottom-up strategies the counts come from the snapshot's saturated
    /// model and are cumulative over its whole life (resumed across
    /// epochs), not this query alone — the `model` artifact note says how
    /// the model was obtained.
    pub rules: Vec<RuleTuples>,
    /// Answers the evaluation produced.
    pub answers: usize,
    /// Whether the search space was fully explored.
    pub complete: bool,
    /// Why evaluation stopped early, when `complete` is false.
    pub degradation: Option<Degradation>,
    /// Budget ceilings and consumption.
    pub budget: BudgetUse,
    /// Engine metrics flushed during this evaluation only.
    pub metrics: MetricsSnapshot,
}

impl Render for QueryProfile {
    fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN {} [strategy: {:?}, epoch {}]\n",
            self.query, self.strategy, self.epoch
        ));
        out.push_str(&format!(
            "  cache: {}\n",
            if self.cache_would_hit {
                "would hit (bypassed for profiling)"
            } else {
                "miss"
            }
        ));
        out.push_str("  phases:\n");
        for p in &self.phases {
            out.push_str(&format!("    {:<10} {:>8} µs\n", p.name, p.micros));
        }
        if !self.artifacts.is_empty() {
            out.push_str("  artifacts:\n");
            for a in &self.artifacts {
                out.push_str(&format!("    {:<12} {}\n", a.artifact, a.provenance));
            }
        }
        if !self.rules.is_empty() {
            out.push_str("  rules (tuples produced):\n");
            for r in &self.rules {
                out.push_str(&format!("    {:>8}  {}\n", r.tuples, r.rule));
            }
        }
        let b = &self.budget;
        let mut limits = Vec::new();
        if let Some(ms) = b.deadline_ms {
            limits.push(format!("deadline {ms} ms"));
        }
        if let Some(s) = b.max_steps {
            limits.push(format!("max steps {s}"));
        }
        if let Some(fa) = b.max_facts {
            limits.push(format!("max facts {fa}"));
        }
        if let Some(m) = b.max_memory_bytes {
            limits.push(format!("max memory {m} B"));
        }
        let limits = if limits.is_empty() {
            "unlimited".to_string()
        } else {
            limits.join(", ")
        };
        out.push_str(&format!(
            "  budget: {}{}; evaluation took {} µs\n",
            limits,
            if b.guard_injected {
                " (termination guard)"
            } else {
                ""
            },
            b.elapsed_us
        ));
        if let Some(d) = &self.degradation {
            out.push_str(&format!("  degraded: {d}\n"));
        }
        out.push_str(&format!(
            "  answers: {}{}\n",
            self.answers,
            if self.complete { " (complete)" } else { " (partial)" }
        ));
        let metrics = self.metrics.render_text();
        if !metrics.is_empty() {
            out.push_str("  metrics:\n");
            for line in metrics.lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        out
    }

    fn render_json(&self) -> Json {
        let opt_u64 = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        Json::Object(vec![
            ("query".into(), Json::str(self.query.clone())),
            ("strategy".into(), Json::str(format!("{:?}", self.strategy))),
            ("epoch".into(), Json::U64(self.epoch)),
            ("cache_would_hit".into(), Json::Bool(self.cache_would_hit)),
            (
                "phases".into(),
                Json::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::Object(vec![
                                ("name".into(), Json::str(p.name)),
                                ("micros".into(), Json::U64(p.micros)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "artifacts".into(),
                Json::Array(
                    self.artifacts
                        .iter()
                        .map(|a| {
                            Json::Object(vec![
                                ("artifact".into(), Json::str(a.artifact)),
                                ("provenance".into(), Json::str(a.provenance.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rules".into(),
                Json::Array(
                    self.rules
                        .iter()
                        .map(|r| {
                            Json::Object(vec![
                                ("rule".into(), Json::str(r.rule.clone())),
                                ("tuples".into(), Json::U64(r.tuples)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("answers".into(), Json::U64(self.answers as u64)),
            ("complete".into(), Json::Bool(self.complete)),
            (
                "degradation".into(),
                match &self.degradation {
                    Some(d) => d.render_json(),
                    None => Json::Null,
                },
            ),
            (
                "budget".into(),
                Json::Object(vec![
                    ("deadline_ms".into(), opt_u64(self.budget.deadline_ms)),
                    ("max_steps".into(), opt_u64(self.budget.max_steps)),
                    ("max_facts".into(), opt_u64(self.budget.max_facts)),
                    (
                        "max_memory_bytes".into(),
                        opt_u64(self.budget.max_memory_bytes),
                    ),
                    (
                        "guard_injected".into(),
                        Json::Bool(self.budget.guard_injected),
                    ),
                    ("elapsed_us".into(), Json::U64(self.budget.elapsed_us)),
                ]),
            ),
            ("metrics".into(), self.metrics.render_json()),
        ])
    }
}

/// The translated first-order program together with the state needed to
/// extend it when the next load epoch arrives.
struct TranslatedArtifact {
    /// Load epoch this artifact is current for.
    epoch: u64,
    /// Bumped on every full re-translation; dependent artifacts
    /// (compiled program, saturated models) check it to know whether
    /// they may extend in place or must start over.
    generation: u64,
    /// `subtype_decls` already reflected in the translation.
    subtypes: usize,
    /// Incremental translation state (dedup set, aux counter, axiom
    /// bookkeeping, whether the optimizer dropped clauses globally).
    state: TranslationState,
    /// Cached termination-guard verdict for `fo` — the skolem-recursion
    /// analysis is linear in the program, so it runs once per (re-)
    /// translation instead of once per query.
    may_diverge: bool,
    /// Translation counters already flushed to the metrics registry;
    /// flushing reports only the delta since this snapshot, so counters
    /// measure marginal work per load rather than re-reporting totals.
    stats_flushed: TranslationStats,
    /// `Arc`d so a published [`SessionSnapshot`] shares it for free; the
    /// writer extends it copy-on-write ([`Arc::make_mut`]), paying one
    /// clone per load only while a snapshot still pins the old value.
    fo: Arc<FoProgram>,
}

/// The indexed runtime form of the translated program.
struct CompiledArtifact {
    /// Generation of the [`TranslatedArtifact`] this was compiled from.
    generation: u64,
    /// Number of translated clauses already compiled in.
    fo_len: usize,
    /// `Arc`d for snapshot sharing; extended copy-on-write.
    cp: Arc<CompiledProgram>,
}

/// The direct engine's compiled program. Never rebuilt: deltas merge
/// into the clustered store and append clauses.
struct DirectArtifact {
    epoch: u64,
    /// C-logic clauses already compiled in.
    clauses: usize,
    /// `Arc`d for snapshot sharing; extended copy-on-write.
    dp: Arc<DirectProgram>,
}

/// The saturated (or budget-cut) semi-naive model, kept for resumption.
struct ModelArtifact {
    epoch: u64,
    /// Generation of the translation it was computed over.
    generation: u64,
    /// Compiled rules already reflected in the model.
    rules: usize,
    /// `Arc`d for snapshot sharing; resumption unwraps (or clones, when a
    /// snapshot still pins it) the saturated store to seed the fixpoint.
    ev: Arc<Evaluation>,
}

/// An epoch-stamped bundle of every artifact a query needs — the one
/// place a query is answered, and the unit of publication of the
/// lock-free serving design.
///
/// [`Session::prepare`] builds one from the session's (Arc-shared)
/// artifacts and publishes it into the session's [`SnapshotCell`] with a
/// single pointer swap; [`Session::query`] and [`Session::explain`]
/// publish first when a write has made the last snapshot stale, then
/// answer through it. Readers that hold an `Arc<SessionSnapshot>` keep
/// answering against exactly the epoch they pinned, no matter how many
/// loads the writer runs concurrently: a later publish swaps the cell's
/// pointer but never touches (or frees) a pinned snapshot. Queries
/// through a snapshot never block on the session and never clone an
/// artifact — per-query clause additions ride a [`ClauseOverlay`] and
/// conjunction-shaped negation is checked lazily against the saturated
/// model.
///
/// Every artifact is fixed at publish except the naive least model:
/// the first [`Strategy::BottomUpNaive`] query against the snapshot
/// saturates it from scratch over the snapshot's own compiled program,
/// under the frozen session budget and termination guard, and every
/// later naive query shares it. The model is a function of the pinned
/// epoch alone, so filling the slot changes no answer — concurrent first
/// queries wait for the one saturation rather than racing their own.
///
/// A bottom-up model that cannot be built (an unstratifiable program)
/// does not stop the publish: its slot holds the [`EvalError`], which
/// bottom-up queries return as [`SessionError::Eval`] while every other
/// strategy keeps answering.
///
/// The snapshot also carries the session's only answer cache, a
/// **cross-strategy** one ([`SessionSnapshot::query_cached`]): all six
/// strategies return identical complete answer sets (Theorem 1; enforced
/// by `tests/equivalence.rs`), so complete answers are keyed by the
/// canonical query text alone and a hit under any strategy serves every
/// other. Incomplete (budget-cut) answers are never cached, and
/// strategy-specific rejections (negation under tabling/magic, a
/// bottom-up model error) are checked before the cache so a hit can
/// never mask them. The cache holds at most [`ANSWER_CACHE_CAPACITY`]
/// answers: an insert that finds it full clears it first, and the
/// dropped entries are counted in `session.snapshot.cache.evictions`.
pub struct SessionSnapshot {
    /// Load epoch this snapshot is current for.
    epoch: u64,
    /// Cached termination-guard verdict for the translated program.
    may_diverge: bool,
    /// Breaker state of the durable storage at publish time — lets
    /// status listings report persistence health without touching the
    /// session lock.
    breaker_open: bool,
    /// Session options frozen at publish (budget governor, engine
    /// options, observability handle).
    options: SessionOptions,
    fo: Arc<FoProgram>,
    cp: Arc<CompiledProgram>,
    dp: Arc<DirectProgram>,
    /// Saturated (or budget-cut) model for the semi-naive fixpoint,
    /// built by [`Session::prepare`].
    semi: Result<Arc<Evaluation>, EvalError>,
    /// Saturated (or budget-cut) model for the naive fixpoint, built by
    /// the first naive query (see [`SessionSnapshot::model`]).
    naive: OnceLock<Result<Arc<Evaluation>, EvalError>>,
    /// Complete answers memoized by canonical query text (strategy-
    /// agnostic — see the type docs). Interior mutability keeps the
    /// snapshot shareable as a plain `Arc`.
    answers: Mutex<HashMap<String, Answers>>,
}

/// The program an evaluation's per-rule counts index into, which
/// [`SessionSnapshot::explain`] renders rule labels from.
enum RuleSource<'a> {
    /// [`DirectProgram::clauses`]: the direct engine's rules and
    /// non-ground facts (ground facts live in its clustered store).
    Direct(&'a DirectProgram),
    /// The snapshot's compiled first-order program.
    Compiled(&'a CompiledProgram),
    /// The compiled program plus the query's auxiliary clauses.
    Overlay(ClauseOverlay<'a>),
    /// The magic-sets rewrite of the program for this query.
    Rewritten(CompiledProgram),
}

impl RuleSource<'_> {
    fn label(&self, i: usize) -> String {
        let rules: &dyn ClauseView = match self {
            RuleSource::Direct(dp) => return dp.clauses[i].to_string(),
            RuleSource::Compiled(cp) => *cp,
            RuleSource::Overlay(view) => view,
            RuleSource::Rewritten(cp) => cp,
        };
        if i < rules.len() {
            rules.rule(i).to_string()
        } else {
            // Only tabling counts past the program: its goal wrapper.
            "__query (goal wrapper)".to_string()
        }
    }
}

/// What the snapshot's dispatch returns: the answers, plus what a
/// profile needs. The extra parts are moved or borrowed out of the
/// evaluation, so a plain query pays nothing for them.
struct Evaluated<'a> {
    answers: Answers,
    /// Tuples each rule produced, indexed into `rules`.
    per_rule: Cow<'a, [u64]>,
    rules: RuleSource<'a>,
    /// The engine budget the effective budget was derived from.
    engine_budget: &'a Budget,
}

fn answers(
    rows: Vec<BTreeMap<Symbol, FoTerm>>,
    complete: bool,
    degradation: Option<Degradation>,
) -> Answers {
    Answers {
        rows: rows
            .into_iter()
            .map(|bindings| AnswerRow { bindings })
            .collect(),
        complete,
        degradation,
    }
}

impl SessionSnapshot {
    /// The load epoch this snapshot was published for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the session's persistence circuit breaker was open when
    /// this snapshot was published.
    pub fn breaker_open(&self) -> bool {
        self.breaker_open
    }

    /// Number of answers currently memoized in the snapshot's cache
    /// (at most [`ANSWER_CACHE_CAPACITY`]).
    pub fn cached_answers(&self) -> usize {
        self.lock_answers().len()
    }

    fn lock_answers(&self) -> std::sync::MutexGuard<'_, HashMap<String, Answers>> {
        // The lock only guards map operations (no user code runs under
        // it), so a poisoned guard is still structurally sound.
        self.answers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// [`SessionOptions::effective`] under this snapshot's verdict.
    fn effective(&self, engine_budget: &Budget, extra: &Budget) -> Budget {
        self.options
            .effective(self.may_diverge, engine_budget, extra)
    }

    /// The saturated model a bottom-up strategy reads. The naive one is
    /// saturated by the first call that asks for it, under the frozen
    /// session budget and termination guard rather than any request's
    /// `extra`, so the memoized model — complete or budget-cut — does not
    /// depend on which request happened to come first.
    fn model(&self, fs: FixpointStrategy) -> &Result<Arc<Evaluation>, EvalError> {
        match fs {
            FixpointStrategy::SemiNaive => &self.semi,
            FixpointStrategy::Naive => self
                .naive
                .get_or_init(|| self.saturate_naive(&self.options.obs)),
        }
    }

    /// One naive fixpoint over the snapshot's compiled program, flushing
    /// its engine metrics into `obs`.
    fn saturate_naive(&self, obs: &Obs) -> Result<Arc<Evaluation>, EvalError> {
        let (fs, unlimited) = (FixpointStrategy::Naive, Budget::unlimited());
        let opts = self.options.fixpoint_for(fs, self.may_diverge, &unlimited, obs);
        folog::evaluate(&*self.cp, opts).map(Arc::new)
    }

    /// The compiled program plus query-local aux clauses, copy-on-write.
    fn overlay(&self, aux: &[FoClause]) -> ClauseOverlay<'_> {
        let mut view = ClauseOverlay::new(&*self.cp);
        for c in aux {
            view.push_clause(c);
        }
        view
    }

    /// Parses and answers a query against this snapshot's pinned epoch.
    /// See [`SessionSnapshot::query_ast`].
    pub fn query(
        &self,
        src: &str,
        strategy: Strategy,
        extra: &Budget,
    ) -> Result<Answers, SessionError> {
        let q = parse_query(src)?;
        self.query_ast(&q, strategy, extra)
    }

    /// Answers an already-parsed query against the snapshot's artifacts.
    ///
    /// Never blocks on the session, never mutates or clones an artifact:
    /// per-query auxiliary clauses (conjunction-shaped negated goals)
    /// extend the compiled program through a [`ClauseOverlay`] view, and
    /// against a *complete* saturated model they are checked lazily
    /// instead of resuming the fixpoint. `extra` is merged (tighter
    /// ceiling wins) into the effective budget — the seam for
    /// per-request deadlines and cancellation. It does not bound the
    /// one-time naive saturation (see [`SessionSnapshot`]).
    pub fn query_ast(
        &self,
        q: &Query,
        strategy: Strategy,
        extra: &Budget,
    ) -> Result<Answers, SessionError> {
        let ev = self.dispatch(q, strategy, extra, &self.options.obs)?;
        Ok(ev.answers)
    }

    /// The one query dispatch: evaluates `q` under `strategy` against
    /// the snapshot's artifacts, flushing engine metrics into `obs`.
    fn dispatch(
        &self,
        q: &Query,
        strategy: Strategy,
        extra: &Budget,
        obs: &Obs,
    ) -> Result<Evaluated<'_>, SessionError> {
        match strategy {
            Strategy::Direct => {
                let mut opts = self.options.direct.clone();
                opts.budget = self.effective(&opts.budget, extra);
                opts.obs = obs.clone();
                let r = DirectEngine::new(&self.dp, opts).solve(q)?;
                Ok(Evaluated {
                    answers: answers(r.answers, r.complete, r.degradation),
                    per_rule: Cow::Owned(r.per_rule),
                    rules: RuleSource::Direct(&self.dp),
                    engine_budget: &self.options.direct.budget,
                })
            }
            Strategy::Sld => {
                let mut aux = Vec::new();
                let (goals, neg_goals) = Transformer::new().query_parts(q, &mut aux, &mut 0);
                let mut opts = self.options.sld.clone();
                opts.budget = self.effective(&opts.budget, extra);
                opts.obs = obs.clone();
                let (r, rules) = if aux.is_empty() {
                    let r =
                        SldEngine::new(&*self.cp, opts).solve_with_negation(&goals, &neg_goals)?;
                    (r, RuleSource::Compiled(&self.cp))
                } else {
                    // Conjunction-shaped negated goals need their
                    // auxiliary clauses in the program: a COW overlay
                    // extends the shared artifact without cloning it.
                    let view = self.overlay(&aux);
                    let r = SldEngine::new(&view, opts).solve_with_negation(&goals, &neg_goals)?;
                    (r, RuleSource::Overlay(view))
                };
                Ok(Evaluated {
                    answers: answers(r.answers, r.complete, r.degradation),
                    per_rule: Cow::Owned(r.per_rule),
                    rules,
                    engine_budget: &self.options.sld.budget,
                })
            }
            Strategy::BottomUpNaive | Strategy::BottomUpSemiNaive => {
                let mut aux = Vec::new();
                let (goals, neg_goals) = Transformer::new().query_parts(q, &mut aux, &mut 0);
                let fs = if strategy == Strategy::BottomUpNaive {
                    FixpointStrategy::Naive
                } else {
                    FixpointStrategy::SemiNaive
                };
                let engine_budget = &self.options.fixpoint.budget;
                let m = self.model(fs).as_ref().map_err(|e| e.clone())?;
                if aux.is_empty() || m.complete {
                    // Against a complete model the query-local `__naux…`
                    // clauses are checked lazily per candidate answer —
                    // exact for the translation's aux clauses, and no
                    // model clone or fixpoint resumption.
                    let rows = m.query_with_negation_aux(&goals, &neg_goals, &aux)?;
                    Ok(Evaluated {
                        answers: answers(rows, m.complete, m.degradation.clone()),
                        per_rule: Cow::Borrowed(&m.stats.per_rule),
                        rules: RuleSource::Compiled(&self.cp),
                        engine_budget,
                    })
                } else {
                    // A budget-cut model cannot be resumed; re-evaluate
                    // over an overlay carrying the aux clauses.
                    let opts = self.options.fixpoint_for(fs, self.may_diverge, extra, obs);
                    let view = self.overlay(&aux);
                    let ev = folog::evaluate(&view, opts)?;
                    let rows = ev.query_with_negation(&goals, &neg_goals)?;
                    Ok(Evaluated {
                        answers: answers(rows, ev.complete, ev.degradation),
                        per_rule: Cow::Owned(ev.stats.per_rule),
                        rules: RuleSource::Overlay(view),
                        engine_budget,
                    })
                }
            }
            Strategy::Tabled => {
                if q.has_negation() {
                    return Err(SessionError::Unsupported(
                        "tabled evaluation does not support negation".into(),
                    ));
                }
                let goals = Transformer::new().query(q);
                let mut opts = self.options.tabling.clone();
                opts.budget = self.effective(&opts.budget, extra);
                opts.obs = obs.clone();
                let r = TabledEngine::new(&*self.cp, opts).solve(&goals)?;
                Ok(Evaluated {
                    answers: answers(r.answers, r.complete, r.degradation),
                    per_rule: Cow::Owned(r.per_rule),
                    rules: RuleSource::Compiled(&self.cp),
                    engine_budget: &self.options.tabling.budget,
                })
            }
            Strategy::Magic => {
                if q.has_negation() {
                    return Err(SessionError::Unsupported(
                        "magic sets do not support negation".into(),
                    ));
                }
                let goals = Transformer::new().query(q);
                let fs = self.options.fixpoint.strategy;
                let opts = self.options.fixpoint_for(fs, self.may_diverge, extra, obs);
                let builtins = builtin_symbols().collect();
                let (rows, ev, rewritten) =
                    solve_magic_rewritten(&self.fo, &goals, &builtins, opts)?;
                Ok(Evaluated {
                    answers: answers(rows, ev.complete, ev.degradation),
                    per_rule: Cow::Owned(ev.stats.per_rule),
                    rules: RuleSource::Rewritten(rewritten),
                    engine_budget: &self.options.fixpoint.budget,
                })
            }
        }
    }

    /// The answer-cache key of `q`: its canonical text, or `None` when
    /// `strategy` rejects the query (see [`SessionSnapshot`]) — checked
    /// before any lookup, so a naive query saturates the naive model
    /// even when another strategy's answer is cached.
    fn cache_key(&self, q: &Query, strategy: Strategy) -> Option<String> {
        let rejected = match strategy {
            Strategy::Tabled => q.has_negation(),
            Strategy::Magic => q.has_negation() || self.cp.has_negation(),
            Strategy::BottomUpNaive => self.model(FixpointStrategy::Naive).is_err(),
            Strategy::BottomUpSemiNaive => self.model(FixpointStrategy::SemiNaive).is_err(),
            Strategy::Direct | Strategy::Sld => false,
        };
        (!rejected).then(|| q.to_string())
    }

    /// [`SessionSnapshot::query`] through the snapshot's cross-strategy
    /// answer cache (see [`SessionSnapshot`]); the returned flag is `true`
    /// on a cache hit. Only **complete** answer sets are cached, and an
    /// insert that finds [`ANSWER_CACHE_CAPACITY`] answers clears the
    /// cache first, so a repeat right after an insert always hits.
    pub fn query_cached(
        &self,
        src: &str,
        strategy: Strategy,
        extra: &Budget,
    ) -> Result<(Answers, bool), SessionError> {
        let q = parse_query(src)?;
        self.query_ast_cached(&q, strategy, extra)
    }

    fn query_ast_cached(
        &self,
        q: &Query,
        strategy: Strategy,
        extra: &Budget,
    ) -> Result<(Answers, bool), SessionError> {
        let Some(key) = self.cache_key(q, strategy) else {
            // Fall through to the honest rejection.
            return self.query_ast(q, strategy, extra).map(|a| (a, false));
        };
        if let Some(hit) = self.lock_answers().get(&key) {
            return Ok((hit.clone(), true));
        }
        let a = self.query_ast(q, strategy, extra)?;
        if a.complete {
            let mut cache = self.lock_answers();
            if cache.len() >= ANSWER_CACHE_CAPACITY {
                self.options
                    .obs
                    .metrics
                    .counter("session.snapshot.cache.evictions")
                    .add(cache.len() as u64);
                cache.clear();
            }
            cache.insert(key, a.clone());
        }
        Ok((a, false))
    }

    /// Profiles one query under one strategy against this snapshot's
    /// pinned epoch: per-phase wall time, artifact provenance, per-rule
    /// tuple counts, budget consumption, and the engine metrics of
    /// exactly this evaluation.
    ///
    /// The query runs **for real** through the same dispatch as
    /// [`SessionSnapshot::query_ast`] (with `extra`), under a fresh metrics
    /// registry. The answer cache is never filled, but
    /// [`QueryProfile::cache_would_hit`] reports whether
    /// [`SessionSnapshot::query_cached`]'s lookup would hit. The publish
    /// built every artifact, so none takes time here — except the naive
    /// model, which the snapshot's first naive query saturates: when this
    /// call does, the saturation is noted `computed`, timed as the
    /// `model` phase, and its engine metrics are the profile's.
    pub fn explain(
        &self,
        src: &str,
        strategy: Strategy,
        extra: &Budget,
    ) -> Result<QueryProfile, SessionError> {
        let t = Instant::now();
        let q = parse_query(src)?;
        let mut phases = vec![("parse", micros(t)), ("translate", 0)];
        // A fresh registry so the profile's metrics cover exactly this
        // evaluation; the session's own registry is untouched by it.
        let obs = Obs::new();
        let current = ArtifactProvenance::Current.to_string();
        let read = match strategy {
            Strategy::Direct => Some(("direct", current.clone())),
            Strategy::Sld | Strategy::Tabled => Some(("compiled", current.clone())),
            Strategy::BottomUpSemiNaive => Some(("model", ModelProvenance::Reused.to_string())),
            Strategy::BottomUpNaive => {
                let t = Instant::now();
                let mut provenance = ModelProvenance::Reused;
                self.naive.get_or_init(|| {
                    provenance = ModelProvenance::Computed;
                    self.saturate_naive(&obs)
                });
                phases.push(("model", micros(t)));
                Some(("naive model", provenance.to_string()))
            }
            Strategy::Magic => None,
        };
        let artifacts = std::iter::once(("translation", current))
            .chain(read)
            .map(|(artifact, provenance)| ArtifactNote {
                artifact,
                provenance,
            })
            .collect();

        let t = Instant::now();
        let ev = self.dispatch(&q, strategy, extra, &obs)?;
        let eval_us = micros(t);
        phases.push(("evaluate", eval_us));
        let phases = phases
            .into_iter()
            .map(|(name, micros)| PhaseTiming { name, micros })
            .collect();
        let cache_would_hit = self
            .cache_key(&q, strategy)
            .is_some_and(|key| self.lock_answers().contains_key(&key));
        let rules = rule_tuples(&ev.per_rule, |i| ev.rules.label(i));
        let budget = self.effective(ev.engine_budget, extra);
        let base = ev.engine_budget.merged(&self.options.budget).merged(extra);
        Ok(QueryProfile {
            query: q.to_string(),
            strategy,
            epoch: self.epoch,
            cache_would_hit,
            phases,
            artifacts,
            rules,
            answers: ev.answers.rows.len(),
            complete: ev.answers.complete,
            degradation: ev.answers.degradation,
            budget: BudgetUse {
                deadline_ms: budget.deadline.map(|d| d.as_millis() as u64),
                max_steps: budget.max_steps,
                max_facts: budget.max_facts.map(|v| v as u64),
                max_memory_bytes: budget.max_memory_bytes.map(|v| v as u64),
                guard_injected: budget.deadline != base.deadline
                    || budget.max_facts != base.max_facts,
                elapsed_us: eval_us,
            },
            metrics: obs.metrics.snapshot(),
        })
    }
}

fn micros(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

/// The publication point of [`SessionSnapshot`]s: one slot, swapped
/// atomically (a mutex held only for the pointer swap — never across
/// evaluation), shared by the owning [`Session`] and any number of
/// serving threads.
///
/// Readers [`load`](SnapshotCell::load) the current snapshot and then
/// work entirely against their pinned `Arc` — the read path never blocks
/// on loads, and a snapshot outlives both later publishes and the
/// session itself (eviction of a session does not invalidate answers
/// in flight).
#[derive(Default)]
pub struct SnapshotCell {
    latest: Mutex<Option<Arc<SessionSnapshot>>>,
}

impl SnapshotCell {
    /// The most recently published snapshot, if any.
    pub fn load(&self) -> Option<Arc<SessionSnapshot>> {
        self.latest.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Swaps in a new snapshot (or none); readers pin whichever pointer
    /// they already loaded.
    fn publish(&self, snap: Option<Arc<SessionSnapshot>>) {
        *self.latest.lock().unwrap_or_else(|e| e.into_inner()) = snap;
    }
}

/// A loaded C-logic program plus every compiled artefact needed by the
/// strategies.
///
/// Artefacts are built lazily, cached, and — this is the serving-workload
/// design — *extended* rather than rebuilt when more program text is
/// loaded. Each [`Session::load`] bumps the session **epoch**; every
/// artifact records the epoch it is current for and, at the next publish
/// ([`Session::prepare`], or the first query after the write), catches
/// up from the delta alone: the translator appends the new clauses'
/// translation (falling back to a full re-translation only in the
/// documented cases, see `Optimizer::extend_optimized`), the compiled
/// program indexes the new clauses in place, the direct engine merges new
/// ground facts into its clustered store, and the saturated semi-naive
/// model is resumed by seeding the fixpoint with the delta instead of
/// starting from nothing.
///
/// Every query is answered by a published [`SessionSnapshot`]: the
/// session publishes one when a write made the last one stale, and
/// complete answers are memoized in that snapshot's cross-strategy cache
/// until the next write — see [`Session::cache_stats`].
#[derive(Default)]
pub struct Session {
    options: SessionOptions,
    program: Program,
    skolem_reports: Vec<SkolemReport>,
    /// Skolem numbering state threaded across loads so `skN` identities
    /// are stable under cumulative loading.
    skolem_counter: usize,
    /// Bumped on every load.
    epoch: u64,
    // epoch-versioned artifacts
    translated: Option<TranslatedArtifact>,
    compiled_fo: Option<CompiledArtifact>,
    direct: Option<DirectArtifact>,
    model: Option<ModelArtifact>,
    cache_stats: CacheStats,
    /// Durable snapshot + WAL storage, when the session is persistent.
    durable: Option<DurableLog>,
    /// Loads appended to the WAL since the last compaction.
    loads_since_snapshot: u64,
    /// The highest epoch known to be safely in the durable store. Trails
    /// [`Session::epoch`] exactly when a persistence failure left the
    /// in-memory state ahead of the log — the condition that makes
    /// evicting the session unsafe (see [`Session::fully_persisted`]).
    durable_epoch: u64,
    /// Publication point for immutable [`SessionSnapshot`]s. Shared
    /// (via [`Session::snapshot_cell`]) with serving layers, which read
    /// it without ever taking the session lock.
    snapshots: Arc<SnapshotCell>,
}

impl Session {
    /// An empty session with default options.
    pub fn new() -> Session {
        Session::default()
    }

    /// An empty session with explicit options.
    pub fn with_options(options: SessionOptions) -> Session {
        Session {
            options,
            ..Session::default()
        }
    }

    /// Opens (or initializes) a **persistent** session backed by a
    /// snapshot + write-ahead-log store at `path` (a directory), with
    /// default options. Existing state is recovered through the normal
    /// incremental load pipeline; every subsequent successful
    /// [`Session::load`] is logged durably before it returns. The
    /// [`RecoveryReport`] says what was found on disk (and is
    /// [clean](RecoveryReport::is_clean) for a fresh directory).
    pub fn persistent(path: impl AsRef<std::path::Path>) -> Result<(Session, RecoveryReport), SessionError> {
        Session::persistent_with_options(path, SessionOptions::default())
    }

    /// [`Session::persistent`] with explicit options.
    pub fn persistent_with_options(
        path: impl AsRef<std::path::Path>,
        options: SessionOptions,
    ) -> Result<(Session, RecoveryReport), SessionError> {
        let storage = FileStorage::create(path)?;
        Session::recover_from(Box::new(storage), options)
    }

    /// Recovers a session from an **existing** store at `path`, with
    /// default options. Unlike [`Session::persistent`] this refuses a
    /// path holding no durable state, so a typo can't silently start an
    /// empty session.
    pub fn recover(path: impl AsRef<std::path::Path>) -> Result<(Session, RecoveryReport), SessionError> {
        let path = path.as_ref();
        let has_state =
            path.join(SNAPSHOT_FILE).exists() || path.join(WAL_FILE).exists();
        if !has_state {
            return Err(SessionError::Store(StoreError::new(
                "recover",
                &path.display().to_string(),
                "no durable session state found (expected wal.log or snapshot.clg)",
            )));
        }
        Session::persistent_with_options(path, SessionOptions::default())
    }

    /// Recovers a session from any [`Storage`] implementation — the
    /// injection point for the fault harness.
    ///
    /// The protocol: restore the snapshot (if any), then replay every
    /// structurally valid WAL record through the ordinary epoch-versioned
    /// load pipeline, skipping records whose epoch the snapshot already
    /// covers (left behind by an interrupted compaction). Torn or corrupt
    /// tails were already dropped by the framing scan; a CRC-valid record
    /// whose *content* fails to parse stops replay there and truncates
    /// the log at that record so future appends stay consistent. A
    /// corrupt snapshot with surviving WAL records is refused outright —
    /// replaying them onto the wrong base would fork history.
    pub fn recover_from(
        storage: Box<dyn Storage>,
        options: SessionOptions,
    ) -> Result<(Session, RecoveryReport), SessionError> {
        let obs = options.obs.clone();
        let mut span = obs.tracer.span("session.recover");
        let opened = DurableLog::open_with(storage, obs.clone())?;
        let mut report = opened.report;
        let mut log = opened.log;
        let mut session = Session::with_options(options);

        let snapshot_corrupt = report.corruption.iter().any(|c| c.file == SNAPSHOT_FILE);
        match opened.snapshot {
            Some(snap) => {
                if let Err(message) = session.restore_snapshot(&snap) {
                    if !opened.records.is_empty() {
                        return Err(SessionError::Store(StoreError::new(
                            "recover",
                            SNAPSHOT_FILE,
                            format!("{message}; refusing to replay the log onto the wrong base"),
                        )));
                    }
                    report.issues.push(RecoveryIssue::SnapshotUnusable { message });
                }
            }
            None if snapshot_corrupt && !opened.records.is_empty() => {
                return Err(SessionError::Store(StoreError::new(
                    "recover",
                    SNAPSHOT_FILE,
                    "snapshot is corrupt but WAL records survive; refusing to replay onto the wrong base",
                )));
            }
            None => {}
        }

        let mut kept: u64 = 0;
        for sr in &opened.records {
            if sr.record.epoch <= session.epoch {
                report.records_skipped += 1;
                kept += 1;
                continue;
            }
            match session.replay_record(&sr.record, &mut report) {
                Ok(()) => {
                    report.records_replayed += 1;
                    match sr.record.op {
                        WalOp::Load => report.loads_replayed += 1,
                        WalOp::Retract => report.retracts_replayed += 1,
                    }
                    kept += 1;
                }
                Err(e) => {
                    report.issues.push(RecoveryIssue::RecordUnusable {
                        epoch: sr.record.epoch,
                        message: e.to_string(),
                    });
                    log.truncate_wal(sr.offset)?;
                    report.wal_truncated_to = Some(sr.offset);
                    break;
                }
            }
        }
        report.recovered_epoch = session.epoch;
        session.durable = Some(log);
        session.loads_since_snapshot = kept;
        // Everything the session now holds came *from* the store.
        session.durable_epoch = session.epoch;
        let m = &obs.metrics;
        m.counter("session.recovery.runs").inc();
        m.counter("session.recovery.records_replayed")
            .add(report.records_replayed as u64);
        m.counter("session.recovery.records_skipped")
            .add(report.records_skipped as u64);
        m.counter("session.recovery.issues")
            .add(report.issues.len() as u64);
        span.record("epoch", report.recovered_epoch);
        span.record("replayed", report.records_replayed as u64);
        span.record("clean", u64::from(report.is_clean()));
        Ok((session, report))
    }

    /// Attaches durable storage at `path` to this session, **discarding**
    /// any store already there: the current state is written as a fresh
    /// snapshot and subsequent loads are logged. Save-as semantics.
    pub fn save(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), SessionError> {
        let storage = FileStorage::create(path)?;
        let mut log = DurableLog::create(Box::new(storage))?;
        log.set_obs(self.options.obs.clone());
        log.compact(&self.snapshot_record())?;
        self.durable = Some(log);
        self.loads_since_snapshot = 0;
        self.durable_epoch = self.epoch;
        Ok(())
    }

    /// Compacts the write-ahead log into a single snapshot file (tmp
    /// write + fsync + atomic rename). Errors if the session is not
    /// persistent.
    pub fn snapshot(&mut self) -> Result<(), SessionError> {
        let snap = self.snapshot_record();
        let Some(log) = self.durable.as_mut() else {
            return Err(SessionError::Store(StoreError::new(
                "snapshot",
                SNAPSHOT_FILE,
                "session has no durable storage; open it with Session::persistent or save it first",
            )));
        };
        log.compact(&snap)?;
        self.loads_since_snapshot = 0;
        self.durable_epoch = self.epoch;
        Ok(())
    }

    /// Whether loads are being logged durably.
    pub fn is_persistent(&self) -> bool {
        self.durable.is_some()
    }

    /// The highest epoch known to be safely in the durable store: 0 until
    /// something is persisted, equal to [`Session::epoch`] while every
    /// load has reached the log, and trailing it after a persistence
    /// failure (the session is ahead of its own history).
    pub fn durable_epoch(&self) -> u64 {
        self.durable_epoch
    }

    /// True when this session can be dropped from memory and later
    /// rebuilt from its store with nothing lost: it is persistent and the
    /// durable log covers the current epoch. This is the eviction-safety
    /// predicate the multi-tenant `SessionManager` checks — a session
    /// whose in-memory state is ahead of its log (mid-outage, breaker
    /// open) must be kept resident or its unlogged loads would vanish.
    pub fn fully_persisted(&self) -> bool {
        self.durable.is_some() && self.durable_epoch == self.epoch
    }

    /// The skolem-minting state after the loads so far: the next `skN`
    /// counter plus the function symbols it must avoid. Logged with every
    /// record so recovery can verify identity stability.
    pub fn skolem_state(&self) -> SkolemState {
        SkolemState {
            counter: self.skolem_counter,
            taken: self.program.signature().functions,
        }
    }

    fn snapshot_record(&self) -> SnapshotRecord {
        SnapshotRecord {
            epoch: self.epoch,
            skolem: self.skolem_state(),
            program: self.program.to_string(),
        }
    }

    /// Restores snapshot state directly — the snapshot text is the
    /// already-skolemized program, so it bypasses [`Session::load_program`]
    /// (no re-skolemization, no epoch bump). Returns a message rather
    /// than an error so the caller decides whether an unusable snapshot
    /// is fatal.
    fn restore_snapshot(&mut self, snap: &SnapshotRecord) -> Result<(), String> {
        let parsed = parse_source(&snap.program).map_err(|e| e.to_string())?;
        if !parsed.queries.is_empty() {
            return Err("snapshot contains queries".to_string());
        }
        self.program = parsed.program;
        self.epoch = snap.epoch;
        self.skolem_counter = snap.skolem.counter;
        Ok(())
    }

    /// Replays one WAL record through the normal load path, then checks
    /// the epoch and skolem counter against what the record logged.
    /// Drift means the replayed environment differs from the one that
    /// wrote the log (it should be impossible within one version); the
    /// recorded values win, because they are what later records' object
    /// identities were minted against.
    fn replay_record(
        &mut self,
        rec: &LoadRecord,
        report: &mut RecoveryReport,
    ) -> Result<(), SessionError> {
        match rec.op {
            WalOp::Load => {
                let parsed = parse_source(&rec.source)?;
                if !parsed.queries.is_empty() {
                    return Err(SessionError::Parse(
                        ParseError {
                            message: "logged source contains queries".into(),
                            line: 0,
                            col: 0,
                        }
                        .into(),
                    ));
                }
                self.load_program(parsed.program);
            }
            WalOp::Retract => self.retract_program(&rec.source)?,
        }
        if self.epoch != rec.epoch {
            report.issues.push(RecoveryIssue::EpochDrift {
                replayed: self.epoch,
                recorded: rec.epoch,
            });
            self.epoch = rec.epoch;
        }
        if self.skolem_counter != rec.skolem.counter {
            report.issues.push(RecoveryIssue::SkolemDrift {
                replayed: self.skolem_counter as u64,
                recorded: rec.skolem.counter as u64,
            });
            self.skolem_counter = rec.skolem.counter;
        }
        Ok(())
    }

    /// Logs a successful load durably; called after the in-memory state
    /// has advanced. On storage failure the in-memory session is ahead of
    /// the log — the error tells the caller to treat the session as
    /// crashed and recover from the store.
    fn persist_load(&mut self, src: &str) -> Result<(), SessionError> {
        self.persist_record(WalOp::Load, src)
    }

    /// Logs one durable mutation (load or retract) — see
    /// [`Session::persist_load`]'s contract, which both kinds share.
    fn persist_record(&mut self, op: WalOp, src: &str) -> Result<(), SessionError> {
        if self.durable.is_none() {
            return Ok(());
        }
        if self.durable_epoch + 1 != self.epoch {
            // A previous load never reached the log (persistence failed
            // mid-outage), so appending this record alone would leave a
            // gap replay cannot bridge — recovery would silently skip
            // the missing loads. Heal by full compaction instead: the
            // snapshot carries the complete current program, gap
            // included.
            return self.snapshot();
        }
        let rec = LoadRecord {
            op,
            epoch: self.epoch,
            skolem: self.skolem_state(),
            source: src.to_string(),
        };
        let log = self.durable.as_mut().expect("checked above");
        log.append(&rec)?;
        self.durable_epoch = self.epoch;
        self.loads_since_snapshot += 1;
        if let Some(every) = self.options.snapshot_every {
            if every > 0 && self.loads_since_snapshot >= every {
                self.snapshot()?;
            }
        }
        Ok(())
    }

    /// Parses and loads more program text (cumulative). Queries embedded
    /// in the source are rejected — use [`Session::query`]. In a
    /// persistent session the load is appended to the write-ahead log
    /// (and periodically compacted into a snapshot) before returning.
    pub fn load(&mut self, src: &str) -> Result<(), SessionError> {
        let parsed = parse_source(src)?;
        if !parsed.queries.is_empty() {
            return Err(SessionError::Parse(
                ParseError {
                    message: "queries are not allowed in loaded sources; use Session::query".into(),
                    line: 0,
                    col: 0,
                }
                .into(),
            ));
        }
        self.load_program(parsed.program);
        self.persist_load(src)
    }

    /// Loads an already-built program (cumulative). Bumps the session
    /// epoch; compiled artefacts catch up incrementally at the next
    /// publish.
    pub fn load_program(&mut self, mut p: Program) {
        let mut span = self
            .options
            .obs
            .tracer
            .span_with("session.load", vec![("clauses", p.clauses.len().into())]);
        self.retire_unshared_snapshot();
        let skolems_before = self.skolem_counter;
        if self.options.auto_skolemize {
            let taken = self.program.signature().functions;
            let (sk, reports) = auto_skolemize_from(&p, &mut self.skolem_counter, &taken);
            p = sk;
            let offset = self.program.clauses.len();
            self.skolem_reports.extend(reports.into_iter().map(|mut r| {
                r.clause_index += offset;
                r
            }));
        }
        self.program.subtype_decls.extend(p.subtype_decls);
        self.program.clauses.extend(p.clauses);
        self.epoch += 1;
        let m = &self.options.obs.metrics;
        m.counter("session.loads").inc();
        m.gauge("session.epoch").set(self.epoch);
        m.gauge("session.program_clauses")
            .set(self.program.clauses.len() as u64);
        let minted = (self.skolem_counter - skolems_before) as u64;
        if minted > 0 {
            m.counter("session.skolems_minted").add(minted);
        }
        span.record("epoch", self.epoch);
        span.record("skolems_minted", minted);
    }

    /// Retracts previously loaded clauses (facts or rules) and repairs
    /// every cached artefact **incrementally** where possible.
    ///
    /// The source is parsed like a load, and each clause must match a
    /// loaded clause textually *after* skolemization — retracting a
    /// skolemized fact means quoting it the way [`Session::program`]
    /// renders it (e.g. `person: sk1[...]`), so object identities are
    /// never re-minted or guessed. Queries and subtype declarations are
    /// rejected; a clause with no match fails the whole call with
    /// [`SessionError::NoSuchClause`] and retracts nothing.
    ///
    /// The saturated semi-naive model is patched with a DRed
    /// delete-rederive pass ([`folog::retract_facts`]) when the
    /// retraction only removes ground base facts at the first-order
    /// level; if the translated rule set itself changed (the optimizer's
    /// global analyses may re-fire), or the model was budget-cut or lags
    /// the translation, it is dropped and recomputed at the next publish
    /// instead. The direct engine's clustered store is append-only, so
    /// it is always rebuilt at the next publish. In a persistent
    /// session the retraction is appended to the write-ahead log (as a
    /// [`WalOp::Retract`](clogic_store::WalOp) record) before returning,
    /// under the same gap-healing contract as [`Session::load`].
    pub fn retract(&mut self, src: &str) -> Result<(), SessionError> {
        self.retract_program(src)?;
        self.persist_record(WalOp::Retract, src)
    }

    /// The in-memory half of [`Session::retract`] — also the replay
    /// target for [`WalOp::Retract`] records during recovery.
    fn retract_program(&mut self, src: &str) -> Result<(), SessionError> {
        let parsed = parse_source(src)?;
        if !parsed.queries.is_empty() {
            return Err(SessionError::Parse(
                ParseError {
                    message: "queries are not allowed in retracted sources".into(),
                    line: 0,
                    col: 0,
                }
                .into(),
            ));
        }
        if !parsed.program.subtype_decls.is_empty() {
            return Err(SessionError::Unsupported(
                "subtype declarations cannot be retracted; the hierarchy only grows".into(),
            ));
        }
        if parsed.program.clauses.is_empty() {
            return Err(SessionError::NoSuchClause("(empty source)".into()));
        }
        let mut span = self.options.obs.tracer.span_with(
            "session.retract",
            vec![("clauses", parsed.program.clauses.len().into())],
        );

        // Resolve every clause before mutating anything: all-or-nothing.
        let mut doomed: Vec<usize> = Vec::new();
        for c in &parsed.program.clauses {
            let want = c.to_string();
            let hit = self
                .program
                .clauses
                .iter()
                .enumerate()
                .find(|(i, have)| !doomed.contains(i) && have.to_string() == want)
                .map(|(i, _)| i);
            match hit {
                Some(i) => doomed.push(i),
                None => return Err(SessionError::NoSuchClause(want.trim_end().to_string())),
            }
        }

        // Snapshot the old artifacts for the incremental repair below.
        self.retire_unshared_snapshot();
        let prev_translated = self.translated.take();
        let prev_model = self.model.take();

        doomed.sort_unstable();
        for &i in doomed.iter().rev() {
            self.program.clauses.remove(i);
        }
        self.epoch += 1;
        // The clustered store's indexes are append-only; rebuild lazily.
        self.direct = None;

        // Full re-translation. The generation must move *past* the old
        // one — a fresh build restarts numbering at 0, which could
        // collide with a stale artifact's generation and let
        // `ensure_model` resume a model whose basis silently changed.
        self.ensure_translated();
        let old_gen = prev_translated.as_ref().map_or(0, |t| t.generation);
        let new_gen = old_gen + 1;
        self.translated.as_mut().expect("ensured").generation = new_gen;
        self.compiled_fo = None;
        self.ensure_compiled();

        // Diff the first-order programs. When only ground unit facts
        // disappeared (the common case), a complete saturated model is
        // repaired by a DRed delete-rederive pass over exactly those
        // facts instead of a fixpoint from scratch. The diff only
        // describes a model of the old translation itself: one that lags
        // it (the translation was brought up after the last publish) is
        // dropped, not patched.
        let diff = prev_translated.as_ref().and_then(|t| {
            fo_unit_diff(&t.fo, &self.translated.as_ref().expect("ensured").fo)
        });
        let old_epoch = prev_translated.as_ref().map_or(0, |t| t.epoch);
        let cp = Arc::clone(&self.compiled_fo.as_ref().expect("ensured").cp);
        let (mut patched, mut dropped) = (0u64, 0u64);
        match (prev_model, diff) {
            (None, _) => {}
            (Some(art), Some((removed, added)))
                if art.generation == old_gen && art.epoch == old_epoch && art.ev.complete =>
            {
                let opts = FixpointOptions {
                    strategy: FixpointStrategy::SemiNaive,
                    obs: self.options.obs.clone(),
                    ..self.options.fixpoint.clone()
                };
                // COW: reclaim the saturated store when this session
                // holds the only reference; clone only while a pinned
                // snapshot still holds the pre-retraction model (which
                // keeps serving its own epoch untorn).
                let seed = Arc::try_unwrap(art.ev).unwrap_or_else(|a| (*a).clone());
                match folog::retract_facts(cp.as_ref(), seed, &removed, &added, opts) {
                    Ok((ev, _stats)) => {
                        self.model = Some(ModelArtifact {
                            epoch: self.epoch,
                            generation: new_gen,
                            rules: cp.rules.len(),
                            ev: Arc::new(ev),
                        });
                        patched = 1;
                    }
                    Err(_) => dropped = 1,
                }
            }
            (Some(_), _) => dropped = 1,
        }

        let m = &self.options.obs.metrics;
        m.counter("session.retracts").inc();
        m.counter("session.retract.clauses").add(doomed.len() as u64);
        if patched > 0 {
            m.counter("session.retract.models_patched").add(patched);
        }
        if dropped > 0 {
            m.counter("session.retract.models_dropped").add(dropped);
        }
        m.gauge("session.epoch").set(self.epoch);
        m.gauge("session.program_clauses")
            .set(self.program.clauses.len() as u64);
        span.record("epoch", self.epoch);
        span.record("models_patched", patched);
        span.record("models_dropped", dropped);
        Ok(())
    }

    /// The loaded program (after skolemization).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// What was skolemized on load.
    pub fn skolem_reports(&self) -> &[SkolemReport] {
        &self.skolem_reports
    }

    /// The current load epoch: 0 for an empty session, bumped by every
    /// [`Session::load`] / [`Session::load_program`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Hit/miss counters of [`Session::query`] against the snapshots'
    /// answer cache (cumulative over the session). A query that returns
    /// an error counts as neither.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// The session's observability handle (configure it via
    /// [`SessionOptions::obs`]).
    pub fn obs(&self) -> &Obs {
        &self.options.obs
    }

    /// A snapshot of every metric the session and its engines have
    /// recorded (the REPL's `:metrics`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.options.obs.metrics.snapshot()
    }

    /// Fixpoint statistics of the session's saturated semi-naive model,
    /// once a publish has computed it. A model resumed across epochs
    /// keeps accumulating into the same counters.
    ///
    /// The session holds no other model: `None` for every other
    /// strategy, [`Strategy::BottomUpNaive`] included — each
    /// [`SessionSnapshot`] saturates its own naive model on its first
    /// naive query.
    pub fn model_stats(&self, strategy: Strategy) -> Option<&FixpointStats> {
        match strategy {
            Strategy::BottomUpSemiNaive => self.model.as_ref().map(|m| &m.ev.stats),
            _ => None,
        }
    }

    /// Brings the translated program up to the current epoch.
    ///
    /// Three outcomes: already current (no work); *extendable* — the
    /// delta's translation is appended to the cached program, reusing the
    /// incremental [`TranslationState`]; or a full re-translation, which
    /// bumps the artifact generation so downstream artefacts (compiled
    /// program, saturated models) know their basis changed.
    ///
    /// With the §4 optimizer off, translation is clause-local and the
    /// delta path is always sound (new subtype declarations only append
    /// inclusion axioms). With the optimizer on, we fall back to a full
    /// re-translation when the delta adds subtype declarations (rules 1–2
    /// consult the hierarchy, so earlier clauses' optimizations may be
    /// invalidated), when the previous build's dead-clause elimination
    /// actually dropped clauses (a global analysis the delta may
    /// re-legitimize), or when the cumulative program uses negation.
    fn ensure_translated(&mut self) -> ArtifactProvenance {
        let plan = match &self.translated {
            None => ArtifactProvenance::Rebuilt,
            Some(t) if t.epoch == self.epoch => ArtifactProvenance::Current,
            Some(t) => {
                let extendable = if self.options.optimize_translation {
                    self.program.subtype_decls.len() == t.subtypes
                        && !t.state.dropped_clauses
                        && self.program.clauses.iter().all(|c| c.neg_body.is_empty())
                } else {
                    true
                };
                if extendable {
                    ArtifactProvenance::Extended
                } else {
                    ArtifactProvenance::Rebuilt
                }
            }
        };
        let tr = Transformer::new();
        match plan {
            ArtifactProvenance::Current => return plan,
            ArtifactProvenance::Extended => {
                let t = self.translated.as_mut().expect("extend plan");
                // COW: clones the program only while a published
                // snapshot still pins the previous value.
                let fo = Arc::make_mut(&mut t.fo);
                if self.options.optimize_translation {
                    Optimizer::new(&self.program).extend_optimized(
                        &tr,
                        &self.program,
                        fo,
                        &mut t.state,
                    );
                } else {
                    tr.extend_program(&self.program, fo, &mut t.state);
                }
                t.epoch = self.epoch;
                t.subtypes = self.program.subtype_decls.len();
                t.may_diverge = clogic_core::termination::may_diverge(&t.fo);
            }
            ArtifactProvenance::Rebuilt => {
                let generation = self.translated.as_ref().map_or(0, |t| t.generation + 1);
                let (fo, state) = if self.options.optimize_translation {
                    Optimizer::new(&self.program).optimized_program_with_state(&tr, &self.program)
                } else {
                    tr.program_with_state(&self.program)
                };
                self.translated = Some(TranslatedArtifact {
                    epoch: self.epoch,
                    generation,
                    subtypes: self.program.subtype_decls.len(),
                    state,
                    may_diverge: clogic_core::termination::may_diverge(&fo),
                    stats_flushed: TranslationStats::default(),
                    fo: Arc::new(fo),
                });
            }
        }
        self.flush_translation_metrics();
        plan
    }

    /// Flushes the translation counters accumulated since the last flush
    /// into the metrics registry (`core.translate.*` / `core.optimize.*`).
    /// clogic-core stays dependency-free, so the session does the flush.
    fn flush_translation_metrics(&mut self) {
        let t = self.translated.as_mut().expect("ensured");
        let cur = t.state.stats.clone();
        let prev = &t.stats_flushed;
        let m = &self.options.obs.metrics;
        let flush = |name: &str, now: u64, before: u64| {
            let delta = now.saturating_sub(before);
            if delta > 0 {
                m.counter(name).add(delta);
            }
        };
        flush(
            "core.translate.clauses_transformed",
            cur.clauses_transformed,
            prev.clauses_transformed,
        );
        flush(
            "core.translate.clauses_emitted",
            cur.clauses_emitted,
            prev.clauses_emitted,
        );
        flush(
            "core.translate.duplicates_suppressed",
            cur.duplicates_suppressed,
            prev.duplicates_suppressed,
        );
        flush(
            "core.translate.type_axioms",
            cur.type_axioms_emitted,
            prev.type_axioms_emitted,
        );
        flush(
            "core.translate.aux_clauses",
            cur.aux_clauses,
            prev.aux_clauses,
        );
        flush(
            "core.optimize.rule1_deletions",
            cur.rule1_deletions,
            prev.rule1_deletions,
        );
        flush(
            "core.optimize.rule2_deletions",
            cur.rule2_deletions,
            prev.rule2_deletions,
        );
        flush(
            "core.optimize.rule3_object_prunes",
            cur.rule3_object_prunes,
            prev.rule3_object_prunes,
        );
        flush(
            "core.optimize.clauses_subsumed",
            cur.clauses_subsumed,
            prev.clauses_subsumed,
        );
        flush(
            "core.optimize.dead_clauses_removed",
            cur.dead_clauses_removed,
            prev.dead_clauses_removed,
        );
        t.stats_flushed = cur;
    }

    /// The translated first-order program (Theorem 1), optimized per the
    /// session options. Cached and extended across epochs.
    pub fn translated(&mut self) -> &FoProgram {
        self.ensure_translated();
        &self.translated.as_ref().expect("ensured").fo
    }

    /// Brings the compiled first-order program up to date: recompiled
    /// from scratch only when the translation's generation changed,
    /// otherwise new translated clauses are pushed into the existing
    /// indexes.
    fn ensure_compiled(&mut self) -> ArtifactProvenance {
        self.ensure_translated();
        let t = self.translated.as_ref().expect("ensured");
        let m = &self.options.obs.metrics;
        match &mut self.compiled_fo {
            Some(c) if c.generation == t.generation => {
                let from = c.fo_len.min(t.fo.clauses.len());
                let pushed = t.fo.clauses.len() - from;
                if pushed > 0 {
                    // COW: clones the indexes only while a snapshot
                    // still pins the previous compiled program.
                    let cp = Arc::make_mut(&mut c.cp);
                    for clause in &t.fo.clauses[from..] {
                        cp.push_clause(clause);
                    }
                }
                c.fo_len = t.fo.clauses.len();
                if pushed == 0 {
                    ArtifactProvenance::Current
                } else {
                    m.counter("folog.compile.clauses_pushed").add(pushed as u64);
                    ArtifactProvenance::Extended
                }
            }
            _ => {
                let mut cp = CompiledProgram::compile(&t.fo, builtin_symbols());
                cp.set_index_mode(self.options.fixpoint.index_mode);
                self.compiled_fo = Some(CompiledArtifact {
                    generation: t.generation,
                    fo_len: t.fo.clauses.len(),
                    cp: Arc::new(cp),
                });
                m.counter("folog.compile.builds").inc();
                ArtifactProvenance::Rebuilt
            }
        }
    }

    /// Brings the direct engine's program up to date. Never rebuilt:
    /// delta clauses are compiled and their ground facts merged into the
    /// clustered store (indexes are appended to, not rebuilt); the type
    /// hierarchy is refreshed from the cumulative program.
    fn ensure_direct(&mut self) -> ArtifactProvenance {
        let m = &self.options.obs.metrics;
        match &mut self.direct {
            Some(d) if d.epoch == self.epoch => ArtifactProvenance::Current,
            Some(d) => {
                // COW: clones the clustered store only while a snapshot
                // still pins the previous direct program.
                let dp = Arc::make_mut(&mut d.dp);
                dp.objects.set_epoch(self.epoch);
                dp.preds.set_epoch(self.epoch);
                dp.extend(&self.program, d.clauses);
                d.epoch = self.epoch;
                d.clauses = self.program.clauses.len();
                m.counter("engine.index.extends").inc();
                ArtifactProvenance::Extended
            }
            None => {
                let mut dp = DirectProgram::compile(&self.program, builtin_symbols());
                dp.preds.set_index_mode(self.options.fixpoint.index_mode);
                dp.objects.set_epoch(self.epoch);
                dp.preds.set_epoch(self.epoch);
                self.direct = Some(DirectArtifact {
                    epoch: self.epoch,
                    clauses: self.program.clauses.len(),
                    dp: Arc::new(dp),
                });
                m.counter("engine.index.builds").inc();
                ArtifactProvenance::Rebuilt
            }
        }
    }

    /// The saturated semi-naive model, current for this epoch. A cached
    /// *complete* model from an earlier epoch of the same translation
    /// generation is resumed — the fixpoint is seeded with the delta and
    /// run forward over the already-saturated store — instead of
    /// recomputed. Incomplete (budget-cut) models are served for the
    /// epoch they were computed in but never resumed.
    fn ensure_model(&mut self, opts: FixpointOptions) -> Result<ModelProvenance, EvalError> {
        let gen = self.translated.as_ref().expect("ensured").generation;
        let cp = &self.compiled_fo.as_ref().expect("ensured").cp;
        let rules = cp.rules.len();
        if self
            .model
            .as_ref()
            .is_some_and(|m| m.epoch == self.epoch && m.generation == gen && m.rules == rules)
        {
            return Ok(ModelProvenance::Reused);
        }
        let (ev, provenance) = match self.model.take() {
            Some(m) if m.generation == gen && m.rules <= rules && m.ev.complete => {
                // COW resumption: reclaim the store when this session
                // holds the only reference; clone only while a pinned
                // snapshot still holds the old model.
                let seed = Arc::try_unwrap(m.ev).unwrap_or_else(|a| (*a).clone());
                (
                    folog::evaluate_delta(cp.as_ref(), seed, m.rules, opts)?,
                    ModelProvenance::Resumed,
                )
            }
            _ => (
                folog::evaluate(cp.as_ref(), opts)?,
                ModelProvenance::Computed,
            ),
        };
        self.model = Some(ModelArtifact {
            epoch: self.epoch,
            generation: gen,
            rules,
            ev: Arc::new(ev),
        });
        Ok(provenance)
    }

    /// Parses and answers a query with the given strategy.
    pub fn query(&mut self, src: &str, strategy: Strategy) -> Result<Answers, SessionError> {
        let q = parse_query(src)?;
        self.query_ast(&q, strategy)
    }

    /// Answers an already-parsed query: publishes a snapshot first if a
    /// write made the last one stale, then answers through
    /// [`SessionSnapshot::query_cached`] on it — so a repeat hits under
    /// any strategy until the next write, while budget-cut answers are
    /// recomputed. Hits and misses are counted in [`Session::cache_stats`]
    /// and `session.cache.hits`/`session.cache.misses`.
    pub fn query_ast(&mut self, q: &Query, strategy: Strategy) -> Result<Answers, SessionError> {
        let (snap, _) = self.fresh_snapshot();
        let (answers, hit) = snap.query_ast_cached(q, strategy, &Budget::unlimited())?;
        let name = if hit {
            self.cache_stats.hits += 1;
            "session.cache.hits"
        } else {
            self.cache_stats.misses += 1;
            "session.cache.misses"
        };
        self.options.obs.metrics.counter(name).inc();
        Ok(answers)
    }

    /// Whether the durable storage's circuit breaker is open (persistence
    /// suspended — see `clogic_store::RetryingStorage`). Always `false`
    /// for a non-persistent session or a storage without a breaker.
    pub fn persistence_breaker_open(&self) -> bool {
        self.durable.as_ref().is_some_and(|log| log.breaker_open())
    }

    /// Brings the serving artifacts up to the current epoch — the
    /// translation, the compiled first-order program, the direct
    /// engine's program and the saturated semi-naive model — and
    /// publishes them as a [`SessionSnapshot`]. After `prepare` returns,
    /// any query can be answered through the published snapshot with no
    /// further artifact work, except that the first
    /// [`Strategy::BottomUpNaive`] query against the snapshot saturates
    /// the naive model from scratch. This is the writer's half of the
    /// writer/reader discipline the `clogic-serve` crate builds on: loads
    /// (and this call) serialize behind exclusive access, queries then
    /// fan out over the epoch-stamped artifacts from as many threads as
    /// the caller likes. [`Session::query`] calls it itself when a write
    /// made the last snapshot stale.
    ///
    /// Model saturation runs under the session budget (plus termination
    /// guard); a budget-cut model is kept and served — queries over it
    /// return partial answers with the usual [`Degradation`] report. A
    /// model that cannot be built at all (an unstratifiable program) is
    /// published as its error, which bottom-up queries against the
    /// snapshot return; the call itself always succeeds, so a write that
    /// the log has already accepted is never left unpublished.
    pub fn prepare(&mut self) -> Result<(), SessionError> {
        self.publish();
        Ok(())
    }

    /// The snapshot of the current epoch, publishing one first (and
    /// returning its steps) when a write made the last one stale.
    fn fresh_snapshot(&mut self) -> (Arc<SessionSnapshot>, Vec<PublishStep>) {
        match self.snapshots.load() {
            Some(snap) if snap.epoch == self.epoch => (snap, Vec::new()),
            _ => self.publish(),
        }
    }

    /// [`Session::prepare`]'s work: brings every artifact up to date,
    /// timing each step, and publishes them — one pointer swap — into the
    /// session's [`SnapshotCell`]. Readers that loaded an earlier
    /// snapshot keep it pinned; nothing they hold is mutated or freed.
    fn publish(&mut self) -> (Arc<SessionSnapshot>, Vec<PublishStep>) {
        let mut steps = Vec::with_capacity(4);
        let mut step = |artifact, phase, provenance: &dyn fmt::Display, t: Instant| {
            steps.push((artifact, phase, provenance.to_string(), micros(t)));
        };
        let t = Instant::now();
        step("translation", "translate", &self.ensure_translated(), t);
        let t = Instant::now();
        step("compiled", "compile", &self.ensure_compiled(), t);
        let t = Instant::now();
        step("direct", "compile", &self.ensure_direct(), t);

        let may_diverge = self.translated.as_ref().expect("ensured").may_diverge;
        let (fs, o) = (FixpointStrategy::SemiNaive, &self.options);
        let opts = o.fixpoint_for(fs, may_diverge, &Budget::unlimited(), &o.obs);
        let t = Instant::now();
        let semi = self.ensure_model(opts);
        if let Ok(provenance) = &semi {
            step("model", "model", provenance, t);
        }

        let t = self.translated.as_ref().expect("ensured");
        let snap = Arc::new(SessionSnapshot {
            epoch: self.epoch,
            may_diverge: t.may_diverge,
            breaker_open: self.persistence_breaker_open(),
            options: self.options.clone(),
            fo: Arc::clone(&t.fo),
            cp: Arc::clone(&self.compiled_fo.as_ref().expect("ensured").cp),
            dp: Arc::clone(&self.direct.as_ref().expect("ensured").dp),
            semi: semi.map(|_| Arc::clone(&self.model.as_ref().expect("ensured").ev)),
            naive: OnceLock::new(),
            answers: Mutex::new(HashMap::new()),
        });
        self.options
            .obs
            .metrics
            .gauge("sessions.snapshot_epoch")
            .set(self.epoch);
        self.snapshots.publish(Some(Arc::clone(&snap)));
        (snap, steps)
    }

    /// Drops the published snapshot before a write when no serving layer
    /// shares the cell, so that it does not pin this session's own
    /// artifacts and make the next publish clone each of them. A snapshot
    /// pinned through [`Session::current_snapshot`] keeps its epoch.
    fn retire_unshared_snapshot(&mut self) {
        if Arc::strong_count(&self.snapshots) == 1 {
            self.snapshots.publish(None);
        }
    }

    /// The session's snapshot publication cell. A serving layer clones
    /// this `Arc` once at startup and thereafter reads the current
    /// snapshot per query **without taking any session lock** — the
    /// heart of the lock-free read path.
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.snapshots)
    }

    /// The most recently published snapshot, if any. On a session whose
    /// cell no serving layer shares ([`Session::snapshot_cell`]), a write
    /// drops the published snapshot, so this returns `None` from then
    /// until the next query, [`Session::explain`] or [`Session::prepare`].
    pub fn current_snapshot(&self) -> Option<Arc<SessionSnapshot>> {
        self.snapshots.load()
    }

    /// Profiles one query under one strategy: publishes a snapshot first
    /// if a write made the last one stale, then runs
    /// [`SessionSnapshot::explain`] on it, which evaluates the query for
    /// real and leaves the answer cache untouched. When this call had to
    /// publish, the notes of the artifacts the strategy reads, and the
    /// `translate`, `compile` or `model` phase each belongs to, report
    /// the steps that publish ran for them (their engine counters land in
    /// the session's registry, not the profile's).
    ///
    /// ```
    /// use clogic::session::{Session, Strategy};
    /// use clogic::obs::Render;
    ///
    /// let mut s = Session::new();
    /// s.load("person: john[children => {bob, bill}].").unwrap();
    /// let profile = s
    ///     .explain("john[children => {bob, bill}]", Strategy::BottomUpSemiNaive)
    ///     .unwrap();
    /// assert_eq!(profile.answers, 1);
    /// assert!(profile.complete);
    /// println!("{}", profile.render_text()); // the REPL's `:explain`
    /// ```
    pub fn explain(&mut self, src: &str, strategy: Strategy) -> Result<QueryProfile, SessionError> {
        let (snap, steps) = self.fresh_snapshot();
        let mut profile = snap.explain(src, strategy, &Budget::unlimited())?;
        let evaluate = profile.phases.pop();
        for (artifact, name, provenance, micros) in steps {
            let notes = &mut profile.artifacts;
            let Some(note) = notes.iter_mut().find(|a| a.artifact == artifact) else {
                continue; // built for other strategies
            };
            note.provenance = provenance;
            match profile.phases.iter_mut().find(|p| p.name == name) {
                Some(p) => p.micros += micros,
                None => profile.phases.push(PhaseTiming { name, micros }),
            }
        }
        profile.phases.extend(evaluate);
        Ok(profile)
    }
}

/// One step of a publish: the artifact it brought up to date, the
/// profile phase its wall time (µs) belongs to, and how it did.
type PublishStep = (&'static str, &'static str, String, u64);

/// Multiset-diffs two translated programs. `Some((removed, added))` when
/// every differing clause is a ground unit fact — the shape a saturated
/// model can be DRed-patched over — `None` when any rule or non-ground
/// clause changed (the model's derivational basis moved and it must be
/// recomputed).
fn fo_unit_diff(old: &FoProgram, new: &FoProgram) -> Option<(Vec<FoAtom>, Vec<FoAtom>)> {
    let mut counts: HashMap<&FoClause, i64> = HashMap::new();
    for c in &old.clauses {
        *counts.entry(c).or_default() += 1;
    }
    for c in &new.clauses {
        *counts.entry(c).or_default() -= 1;
    }
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    for (c, n) in counts {
        if n == 0 {
            continue;
        }
        if !c.is_fact() || !c.head.is_ground() {
            return None;
        }
        let out = if n > 0 { &mut removed } else { &mut added };
        for _ in 0..n.unsigned_abs() {
            out.push(c.head.clone());
        }
    }
    Some((removed, added))
}

/// Zips per-rule tuple counts with rendered rule labels, dropping
/// zero-count rules.
fn rule_tuples(per_rule: &[u64], label: impl Fn(usize) -> String) -> Vec<RuleTuples> {
    per_rule
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| RuleTuples {
            rule: label(i),
            tuples: n,
        })
        .collect()
}
