//! Bottom-up evaluation: naive and semi-naive fixpoints (§4, "known query
//! evaluation techniques, including both bottom-up and top-down methods").
//!
//! The engine computes the least model of a first-order definite-clause
//! program by iterating its immediate-consequence operator. *Naive*
//! evaluation re-joins the full relations every round; *semi-naive*
//! evaluation restricts one body atom per join to the previous round's
//! delta, which is sound and non-redundant because relations are
//! append-only and deltas are contiguous row ranges.

use crate::budget::{Budget, BudgetMeter, Degradation, TripKind};
use crate::builtins::{ready, solve_pattern, BuiltinError};
use crate::facts::{
    bound_positions, instantiate, match_term, trail_undo, Env, FactStore, IndexMode, IndexStats,
    FOLD_BOUND,
};
use crate::ground::{TermId, TermStore};
#[cfg(test)]
use crate::program::CompiledProgram;
use crate::program::{ClauseView, Rule};
use crate::retract::derivable_once;
use crate::rterm::{RAtom, RTerm, VarAlloc, VarId};
use clogic_core::fol::{FoAtom, FoClause, FoTerm};
use clogic_core::symbol::Symbol;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::OnceLock;

/// Evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Full re-evaluation every round.
    Naive,
    /// Delta-restricted joins.
    SemiNaive,
}

/// Options for fixpoint evaluation.
///
/// Limit trips are **not** errors: when any ceiling here (or in
/// [`budget`](Self::budget)) is reached, evaluation stops expanding, keeps
/// the partial model, and reports `complete: false` with a
/// [`Degradation`] record on the returned [`Evaluation`].
///
/// The library-level [`Default`] is **unbounded** (`max_facts`,
/// `max_iterations`: `None`, empty budget): a program whose least model is
/// infinite — e.g. a skolemizing recursive rule — will run until memory is
/// exhausted. Embedders that accept untrusted or generated programs should
/// set ceilings; `clogic::Session` does so by default and treats unbounded
/// evaluation as opt-in.
#[derive(Clone, Debug)]
pub struct FixpointOptions {
    /// The strategy.
    pub strategy: Strategy,
    /// Degrade gracefully after this many stored facts, if set.
    pub max_facts: Option<usize>,
    /// Degrade gracefully after this many iterations, if set.
    pub max_iterations: Option<usize>,
    /// Shared resource ceilings (deadline, steps, memory, cancellation).
    pub budget: Budget,
    /// Observability handles. The default is a disabled tracer and a
    /// private registry, so instrumentation costs one branch per span and
    /// a handful of relaxed atomic adds per evaluation. Counter deltas are
    /// flushed once at the end of each run — never from the join loops.
    pub obs: clogic_obs::Obs,
    /// Whether joins probe lazy pattern indices ([`IndexMode::Indexed`],
    /// the default) or scan whole row ranges ([`IndexMode::Scan`] — the
    /// baseline for benchmarks and equivalence tests).
    pub index_mode: IndexMode,
}

impl Default for FixpointOptions {
    fn default() -> Self {
        FixpointOptions {
            strategy: Strategy::SemiNaive,
            max_facts: None,
            max_iterations: None,
            budget: Budget::unlimited(),
            obs: clogic_obs::Obs::default(),
            index_mode: IndexMode::default(),
        }
    }
}

/// Operation counters for the experiments. On a resumed evaluation
/// ([`evaluate_delta`]) the counters accumulate across runs, so the
/// marginal cost of a delta is visible as the difference between
/// snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Fixpoint rounds executed.
    pub iterations: usize,
    /// Rule bodies evaluated (rule × delta-position activations).
    pub rule_activations: u64,
    /// Pattern-vs-tuple match attempts.
    pub match_attempts: u64,
    /// Facts newly inserted.
    pub facts_derived: u64,
    /// Derivations that produced an already-known fact.
    pub duplicates: u64,
    /// Facts inserted per fixpoint round, in order. A resumed run keeps
    /// appending, so the tail shows how little work a delta needed.
    pub delta_sizes: Vec<u64>,
    /// Tuples produced per rule, indexed by the rule's position in the
    /// compiled program (facts count their one tuple). Counted *before*
    /// deduplication: under the naive strategy a rule re-deriving known
    /// facts keeps counting, which is exactly the redundancy the
    /// semi-naive strategy exists to avoid.
    pub per_rule: Vec<u64>,
}

impl FixpointStats {
    /// Adds `n` produced tuples to rule `idx`, growing the vector on
    /// demand (rules may be appended between resumed runs).
    pub fn bump_rule(&mut self, idx: usize, n: u64) {
        if self.per_rule.len() <= idx {
            self.per_rule.resize(idx + 1, 0);
        }
        self.per_rule[idx] += n;
    }
}

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A rule derived a non-ground head (not range-restricted and not
    /// completed by built-ins).
    NonGroundDerivation(String),
    /// A built-in raised an error (e.g. unbound arithmetic).
    Builtin(BuiltinError),
    /// The program is not stratifiable: a predicate depends on itself
    /// through negation.
    Unstratifiable(String),
    /// A negated atom was not ground when checked (unsafe rule).
    Floundered(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NonGroundDerivation(r) => write!(f, "non-ground derivation from rule {r}"),
            EvalError::Builtin(e) => write!(f, "builtin error: {e}"),
            EvalError::Unstratifiable(p) => {
                write!(
                    f,
                    "program is not stratifiable (negative cycle through {p})"
                )
            }
            EvalError::Floundered(r) => write!(f, "negated atom not ground in rule {r}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<BuiltinError> for EvalError {
    fn from(e: BuiltinError) -> EvalError {
        EvalError::Builtin(e)
    }
}

/// The result of a fixpoint run: the term arena, the (possibly partial)
/// model, and the operation counters.
///
/// `complete` is `true` iff the fixpoint closed without hitting any
/// resource ceiling; otherwise `degradation` says which ceiling tripped
/// and the `facts` hold the partial model derived up to that point.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The term arena all tuples reference.
    pub store: TermStore,
    /// The least model (partial if `complete` is false).
    pub facts: FactStore,
    /// Counters.
    pub stats: FixpointStats,
    /// Whether the fixpoint closed (no ceiling tripped).
    pub complete: bool,
    /// Why evaluation stopped early, when `complete` is false.
    pub degradation: Option<Degradation>,
}

impl Default for Evaluation {
    fn default() -> Self {
        Evaluation {
            store: TermStore::default(),
            facts: FactStore::default(),
            stats: FixpointStats::default(),
            complete: true,
            degradation: None,
        }
    }
}

impl Evaluation {
    /// All derived facts as first-order atoms (sorted display order).
    pub fn ground_atoms(&self) -> Vec<FoAtom> {
        let mut out = Vec::with_capacity(self.facts.total);
        for (pred, arity) in self.facts.predicates() {
            if let Some(rel) = self.facts.relation(pred, arity) {
                for t in rel.tuples() {
                    out.push(FoAtom::new(
                        pred,
                        t.iter().map(|&id| self.store.to_fo(id)).collect(),
                    ));
                }
            }
        }
        out.sort();
        out
    }

    /// Answers to a conjunctive query over the model: each answer maps
    /// the query's variable names to ground terms.
    ///
    /// The query is one more rule, `__query(V̄) :- goals, \+ neg_goals`,
    /// ordered by the fixpoint's planner (`plan_order`) and joined once
    /// by its join (`eval_body`), so a built-in goal works here as it
    /// does in a rule body. The join interns into a query-local clone of
    /// the term store, which copies the store's tail only once a term is
    /// interned (a built-in's result, say), so readers of one model can
    /// query it concurrently.
    ///
    /// A negated goal whose predicate heads a clause in `aux` is checked
    /// per answer: it holds iff one application of those clauses derives
    /// it from the model (DRed's `derivable_once`). This is exact for the
    /// auxiliary clauses the C-logic translation generates for negated
    /// conjunctions (`__nauxN(V̄) :- conj`): their predicates occur only
    /// under negation, so they derive nothing the program's rules
    /// consume, and the model need not be cloned and re-saturated with
    /// them. A built-in that fails to evaluate is an error.
    pub fn query(
        &self,
        goals: &[FoAtom],
        neg_goals: &[FoAtom],
        aux: &[FoClause],
    ) -> Result<Vec<BTreeMap<Symbol, FoTerm>>, EvalError> {
        let mut vars = VarAlloc::new();
        let head = FoAtom::new(query_pred(), Vec::new());
        let mut rule = Rule::from_fo(&head, goals, neg_goals, &mut vars);
        // The goals' variables are numbered first, `0..k`. The head lists
        // them, so an answer tuple holds variable `i` at position `i`.
        let mut goal_vars = Vec::new();
        for a in &rule.body {
            a.args.iter().for_each(|t| t.collect_vars(&mut goal_vars));
        }
        let k = goal_vars.iter().max().map_or(0, |&v| v + 1);
        rule.head.args = (0..k).map(RTerm::Var).collect();
        let aux_rules: Vec<Rule> = aux
            .iter()
            .map(|c| Rule::from_fo(&c.head, &c.body, &c.negative_body, &mut VarAlloc::new()))
            .collect();
        let mut aux_negs = Vec::new();
        if !aux_rules.is_empty() {
            let heads_aux = |n: &RAtom| {
                aux_rules
                    .iter()
                    .any(|r| r.head.pred == n.pred && r.head.args.len() == n.args.len())
            };
            let neg_body = std::mem::take(&mut rule.neg_body);
            for (n, shown) in neg_body.into_iter().zip(neg_goals) {
                if heads_aux(&n) {
                    aux_negs.push((n, shown));
                } else {
                    rule.neg_body.push(n);
                }
            }
        }

        let builtins = crate::builtins::builtin_table();
        let mut store = self.store.clone();
        let mut stats = FixpointStats::default();
        let mut meter = BudgetMeter::new(&Budget::unlimited());
        let mut env: Env = vec![None; rule.n_vars as usize];
        let mut out = Vec::new();
        eval_body(
            &rule,
            &plan_order(&rule, None, builtins, &self.facts),
            0,
            None,
            &HashMap::new(),
            &self.facts,
            &mut store,
            &mut stats,
            builtins,
            &mut env,
            &mut Vec::new(),
            &mut out,
            &mut meter,
        )?;
        let mut answers = Vec::with_capacity(out.len());
        'answers: for (_, tuple) in out {
            for (n, shown) in &aux_negs {
                let env: Env = tuple.iter().copied().map(Some).collect();
                let goal = n
                    .args
                    .iter()
                    .map(|a| instantiate(a, &env, &mut store))
                    .collect::<Option<Vec<TermId>>>()
                    .ok_or_else(|| EvalError::Floundered(shown.to_string()))?;
                let fact = (n.pred, goal);
                if derivable_once(
                    builtins,
                    &aux_rules,
                    &fact,
                    &self.facts,
                    &mut store,
                    &mut stats,
                    &mut meter,
                )? {
                    continue 'answers;
                }
            }
            let mut answer = BTreeMap::new();
            for (v, &id) in tuple.iter().enumerate() {
                let name = vars.name(v as VarId).expect("query variables are named");
                answer.insert(name, store.to_fo(id));
            }
            answers.push(answer);
        }
        answers.sort();
        answers.dedup();
        Ok(answers)
    }

    /// Tail rows, dead rows and tail terms: what a clone of this
    /// evaluation copies (the bases are shared, and the term tail is
    /// copied only once the clone interns a term).
    pub fn tail_len(&self) -> usize {
        self.facts.tail_rows() + self.store.tail_len()
    }

    /// Folds the fact store and the term arena into their bases once
    /// [`Evaluation::tail_len`] passes [`FOLD_BOUND`], so that clones
    /// stay O(delta). Row ids change: call it only between runs.
    /// Returns whether it folded.
    pub fn fold_if_due(&mut self) -> bool {
        let due = self.tail_len() > FOLD_BOUND;
        if due {
            self.facts.fold();
            self.store.fold();
        }
        due
    }

    /// Convenience: whether a conjunctive query has an answer. A query
    /// whose built-in fails to evaluate does not hold.
    pub fn holds(&self, goals: &[FoAtom]) -> bool {
        self.query(goals, &[], &[]).is_ok_and(|a| !a.is_empty())
    }

    /// Total facts newly inserted over this evaluation (accumulated
    /// across resumed runs).
    pub fn facts_derived(&self) -> u64 {
        self.stats.facts_derived
    }

    /// Fixpoint rounds executed (accumulated across resumed runs).
    pub fn iterations(&self) -> usize {
        self.stats.iterations
    }

    /// Facts inserted per fixpoint round, in order. After a resume, the
    /// tail entries are the rounds the delta needed.
    pub fn delta_sizes(&self) -> &[u64] {
        &self.stats.delta_sizes
    }
}

/// The head predicate of a query rule, interned once.
fn query_pred() -> Symbol {
    static QUERY: OnceLock<Symbol> = OnceLock::new();
    *QUERY.get_or_init(|| Symbol::new("__query"))
}

/// The distinct variables of an atom, in first-occurrence order.
fn atom_vars(atom: &RAtom) -> Vec<VarId> {
    let mut vs = Vec::new();
    for a in &atom.args {
        a.collect_vars(&mut vs);
    }
    vs
}

/// Whether every variable of `t` is bound.
fn term_bound(t: &RTerm, bound: &[bool]) -> bool {
    match t {
        RTerm::Var(v) => bound[*v as usize],
        RTerm::Const(_) => true,
        RTerm::App(_, args) => args.iter().all(|a| term_bound(a, bound)),
    }
}

/// Whether argument `t` can key an index probe once `bound` is bound.
/// Mirrors the index families `candidate_rows` probes: a fully bound
/// position (exact) or a compound with bound first argument (sub).
fn arg_indexable(t: &RTerm, bound: &[bool]) -> bool {
    match t {
        RTerm::Const(_) => true,
        RTerm::Var(v) => bound[*v as usize],
        RTerm::App(_, args) => {
            term_bound(t, bound) || args.first().is_some_and(|a| term_bound(a, bound))
        }
    }
}

/// Per-relation row boundaries for one semi-naive round.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Frontier {
    /// Rows `< old` existed before the previous round.
    pub(crate) old: u32,
    /// Rows `old..cur` are the previous round's delta; `cur` is the
    /// relation length at the start of this round.
    pub(crate) cur: u32,
}

/// Runs the fixpoint for a compiled program.
///
/// ```
/// use clogic_core::fol::{FoAtom, FoClause, FoProgram, FoTerm};
/// use folog::{evaluate, CompiledProgram, FixpointOptions};
///
/// let mut p = FoProgram::new();
/// p.push(FoClause::fact(FoAtom::new("edge", vec![FoTerm::constant("a"), FoTerm::constant("b")])));
/// p.push(FoClause::rule(
///     FoAtom::new("path", vec![FoTerm::var("X"), FoTerm::var("Y")]),
///     vec![FoAtom::new("edge", vec![FoTerm::var("X"), FoTerm::var("Y")])],
/// ));
/// let compiled = CompiledProgram::compile(&p, folog::builtins::builtin_symbols());
/// let model = evaluate(&compiled, FixpointOptions::default()).unwrap();
/// assert!(model.holds(&[FoAtom::new("path", vec![FoTerm::constant("a"), FoTerm::constant("b")])]));
/// ```
pub fn evaluate<P: ClauseView>(program: &P, opts: FixpointOptions) -> Result<Evaluation, EvalError> {
    let mut ev = Evaluation::default();
    ev.facts.set_index_mode(opts.index_mode);
    let mut meter = BudgetMeter::new(&opts.budget);
    let derivable: Vec<(Symbol, usize)> = program.head_predicates();
    let mut span = opts.obs.tracer.span_with(
        "folog.evaluate",
        vec![
            ("strategy", strategy_name(opts.strategy).into()),
            ("rules", program.len().into()),
        ],
    );

    // Round 0: insert facts.
    insert_fact_rules(
        (0..program.len())
            .map(|i| (i, program.rule(i)))
            .filter(|(_, r)| r.is_fact()),
        &mut ev,
        &mut meter,
    )?;

    // Stratify: rules whose head depends on a predicate through negation
    // must evaluate after that predicate's stratum is complete. Programs
    // without negation form a single stratum.
    let all_rules: Vec<(usize, &Rule)> = (0..program.len())
        .map(|i| (i, program.rule(i)))
        .filter(|(_, r)| !r.is_fact())
        .collect();
    let strata = stratify(&all_rules, program)?;
    for (si, stratum_rules) in strata.iter().enumerate() {
        if !meter.check_time_and_cancel() {
            break;
        }
        let before_iters = ev.stats.iterations;
        let before_facts = ev.stats.facts_derived;
        let mut stratum_span = span.child("folog.stratum");
        run_stratum(
            stratum_rules,
            &derivable,
            program,
            &opts,
            &mut ev,
            &mut meter,
            None,
        )?;
        stratum_span.record("stratum", si);
        stratum_span.record("iterations", ev.stats.iterations - before_iters);
        stratum_span.record("facts", ev.stats.facts_derived - before_facts);
        drop(stratum_span);
        if meter.tripped().is_some() {
            break;
        }
    }
    finish(&mut ev, &meter, &opts);
    span.record("iterations", ev.stats.iterations);
    span.record("facts", ev.facts.total);
    span.record("complete", u64::from(ev.complete));
    flush_metrics(
        &opts.obs,
        &FixpointStats::default(),
        &ev.stats,
        &IndexStats::default(),
        &ev.facts.index_stats(),
    );
    Ok(ev)
}

/// Resumes a saturated evaluation over a program that grew by appended
/// rules: `prev` must be a **complete** model of `program.rules[..prev_rules]`,
/// and `program.rules[prev_rules..]` is the delta (new facts and/or new
/// rules). The previous [`FactStore`] — tuples, hash indexes and term
/// arena — is kept and extended in place; the semi-naive frontier is
/// seeded so that only the delta's consequences are recomputed.
///
/// Falls back to a full [`evaluate`] when the program uses negation
/// (stratified negation is non-monotonic: an appended fact can retract
/// earlier conclusions, so the saturated model is not reusable) or when
/// `prev` is incomplete (a tripped ceiling means the old model is not
/// the least model of the old program, so there is nothing sound to
/// resume from).
///
/// The resume itself is exact, not approximate: after the catch-up pass
/// (each new rule evaluated once against the whole existing model) and
/// the seeded semi-naive rounds (every rule joined against rows appended
/// since the seed snapshot), the standard semi-naive invariant holds and
/// the result equals `evaluate` on the full program.
pub fn evaluate_delta<P: ClauseView>(
    program: &P,
    prev: Evaluation,
    prev_rules: usize,
    opts: FixpointOptions,
) -> Result<Evaluation, EvalError> {
    if program.has_negation() || !prev.complete {
        return evaluate(program, opts);
    }
    let mut ev = prev;
    ev.degradation = None;
    ev.facts.set_index_mode(opts.index_mode);
    let stats_before = ev.stats.clone();
    let idx_before = ev.facts.index_stats();
    let mut meter = BudgetMeter::new(&opts.budget);
    let derivable: Vec<(Symbol, usize)> = program.head_predicates();
    let offset = prev_rules.min(program.len());
    let mut span = opts.obs.tracer.span_with(
        "folog.evaluate_delta",
        vec![
            ("strategy", strategy_name(opts.strategy).into()),
            ("rules", program.len().into()),
            ("delta_rules", (program.len() - offset).into()),
        ],
    );

    // Seed snapshot: everything stored before the delta counts as "old";
    // rows appended from here on are the frontier of the first resumed
    // round.
    let base = ev.facts.lens();

    // Round 0 of the delta: insert its facts.
    insert_fact_rules(
        (offset..program.len())
            .map(|i| (i, program.rule(i)))
            .filter(|(_, r)| r.is_fact()),
        &mut ev,
        &mut meter,
    )?;

    // Catch-up pass: a rule the old run never saw must join against the
    // *whole* existing model once (the seeded rounds below only cover
    // combinations that involve at least one appended row).
    let new_rules: Vec<(usize, &Rule)> = (offset..program.len())
        .map(|i| (i, program.rule(i)))
        .filter(|(_, r)| !r.is_fact())
        .collect();
    if !new_rules.is_empty() && meter.tripped().is_none() {
        let full: HashMap<(Symbol, usize), Frontier> = HashMap::new();
        let mut new_facts: Vec<(Symbol, Vec<TermId>)> = Vec::new();
        for &(ri, rule) in &new_rules {
            ev.stats.rule_activations += 1;
            let produced_before = new_facts.len();
            eval_rule(
                rule,
                &full,
                None,
                &ev.facts,
                &mut ev.store,
                &mut ev.stats,
                program,
                &mut new_facts,
                &mut meter,
            )?;
            let produced = (new_facts.len() - produced_before) as u64;
            ev.stats.bump_rule(ri, produced);
            if meter.tripped().is_some() {
                break;
            }
        }
        insert_derived(new_facts, &mut ev, &opts, &mut meter);
    }

    // Seeded semi-naive continuation over all rules.
    let all_rules: Vec<(usize, &Rule)> = (0..program.len())
        .map(|i| (i, program.rule(i)))
        .filter(|(_, r)| !r.is_fact())
        .collect();
    if meter.tripped().is_none() {
        run_stratum(
            &all_rules,
            &derivable,
            program,
            &opts,
            &mut ev,
            &mut meter,
            Some(&base),
        )?;
    }
    finish(&mut ev, &meter, &opts);
    span.record("iterations", ev.stats.iterations - stats_before.iterations);
    span.record("facts", ev.stats.facts_derived - stats_before.facts_derived);
    span.record("complete", u64::from(ev.complete));
    flush_metrics(
        &opts.obs,
        &stats_before,
        &ev.stats,
        &idx_before,
        &ev.facts.index_stats(),
    );
    Ok(ev)
}

/// Interns and stores the head tuples of ground fact rules.
pub(crate) fn insert_fact_rules<'r>(
    rules: impl Iterator<Item = (usize, &'r Rule)>,
    ev: &mut Evaluation,
    meter: &mut BudgetMeter,
) -> Result<(), EvalError> {
    for (ri, rule) in rules {
        if !meter.tick() {
            break;
        }
        let env: Env = Vec::new();
        let mut tuple = Vec::with_capacity(rule.head.args.len());
        for a in &rule.head.args {
            tuple.push(
                instantiate(a, &env, &mut ev.store)
                    .ok_or_else(|| EvalError::NonGroundDerivation(rule.to_string()))?,
            );
        }
        ev.stats.bump_rule(ri, 1);
        if ev.facts.insert(rule.head.pred, tuple, &ev.store) {
            ev.stats.facts_derived += 1;
        } else {
            ev.stats.duplicates += 1;
        }
    }
    Ok(())
}

/// Flushes the run's counter *deltas* into the registry, once per
/// evaluation. Snapshot-and-diff (rather than live counters in the join
/// loops) keeps the hot path free of atomics and makes resumed runs —
/// whose [`FixpointStats`] accumulate across calls — report only their
/// marginal work.
pub(crate) fn flush_metrics(
    obs: &clogic_obs::Obs,
    before: &FixpointStats,
    after: &FixpointStats,
    idx_before: &IndexStats,
    idx_after: &IndexStats,
) {
    let m = &obs.metrics;
    m.counter("folog.fixpoint.evaluations").inc();
    // Saturating: a retraction that empties a relation drops its index
    // counters from the store-wide sum, so `after` can dip below
    // `before` — report zero marginal work rather than underflowing.
    m.counter("folog.index.builds")
        .add(idx_after.builds.saturating_sub(idx_before.builds));
    m.counter("folog.index.extends")
        .add(idx_after.extends.saturating_sub(idx_before.extends));
    m.counter("folog.index.hits")
        .add(idx_after.hits.saturating_sub(idx_before.hits));
    m.counter("folog.index.misses")
        .add(idx_after.misses.saturating_sub(idx_before.misses));
    m.counter("folog.fixpoint.iterations")
        .add((after.iterations - before.iterations) as u64);
    m.counter("folog.fixpoint.rule_activations")
        .add(after.rule_activations - before.rule_activations);
    m.counter("folog.fixpoint.match_attempts")
        .add(after.match_attempts - before.match_attempts);
    m.counter("folog.fixpoint.facts_derived")
        .add(after.facts_derived - before.facts_derived);
    m.counter("folog.fixpoint.duplicates")
        .add(after.duplicates - before.duplicates);
    let h = m.histogram("folog.fixpoint.delta_size");
    for &d in &after.delta_sizes[before.delta_sizes.len().min(after.delta_sizes.len())..] {
        h.observe(d);
    }
}

/// Stores a batch of derived tuples, enforcing the fact ceiling; returns
/// how many were new.
pub(crate) fn insert_derived(
    new_facts: Vec<(Symbol, Vec<TermId>)>,
    ev: &mut Evaluation,
    opts: &FixpointOptions,
    meter: &mut BudgetMeter,
) -> u64 {
    let mut inserted = 0u64;
    for (pred, tuple) in new_facts {
        if ev.facts.insert(pred, tuple, &ev.store) {
            ev.stats.facts_derived += 1;
            inserted += 1;
        } else {
            ev.stats.duplicates += 1;
        }
        let effective_max = match (opts.max_facts, meter.budget().max_facts) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        if let Some(limit) = effective_max {
            if ev.facts.total > limit {
                // Keep the partial model (including this tuple) and
                // stop deriving; remaining new_facts are dropped.
                meter.trip(TripKind::Facts);
                break;
            }
        }
    }
    inserted
}

/// Stamps completeness and the degradation report from the meter state,
/// then folds the stores' tails once they pass [`FOLD_BOUND`]: the run is
/// over, so no semi-naive frontier holds row ids any more.
pub(crate) fn finish(ev: &mut Evaluation, meter: &BudgetMeter, opts: &FixpointOptions) {
    if ev.fold_if_due() {
        opts.obs.metrics.counter("folog.store.folds").inc();
    }
    if let Some(trip) = meter.tripped() {
        ev.complete = false;
        ev.degradation = Some(meter.degradation_for(
            trip,
            strategy_name(opts.strategy),
            ev.stats.facts_derived,
            format!(
                "{trip} after {} iterations, {} facts",
                ev.stats.iterations, ev.facts.total
            ),
        ));
    }
}

/// Stable strategy label used in [`Degradation`] reports.
pub(crate) fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Naive => "bottom-up-naive",
        Strategy::SemiNaive => "bottom-up-semi-naive",
    }
}

/// Assigns each rule to a stratum; returns the rules grouped by stratum.
///
/// The active-domain axioms `object(X) :- t(X)` are special-cased: they
/// never create new terms (an `object` fact always accompanies, in the
/// same generalized clause, the typed fact that justifies it), so instead
/// of pinning `object` to one stratum — which would drag every type
/// mentioned under negation into a spurious negative cycle — the axioms
/// are replicated into every stratum and `object` stays in sync with each
/// stratum's fixpoint. Negating `object` itself remains unstratifiable.
fn stratify<'r, P: ClauseView>(
    rules: &[(usize, &'r Rule)],
    program: &P,
) -> Result<Vec<Vec<(usize, &'r Rule)>>, EvalError> {
    use std::collections::HashMap as Map;
    if rules.iter().all(|(_, r)| !r.has_negation()) {
        // Fast path: no negation, one stratum.
        return Ok(vec![rules.to_vec()]);
    }
    let object = Symbol::new(crate::OBJECT_TYPE_NAME);
    let is_object_axiom = |r: &Rule| {
        r.head.pred == object
            && r.head.args.len() == 1
            && r.body.len() == 1
            && r.neg_body.is_empty()
            && r.body[0].args.len() == 1
            && r.head.args[0] == r.body[0].args[0]
    };
    if rules.iter().any(|(_, r)| {
        r.neg_body
            .iter()
            .any(|n| n.pred == object && n.args.len() == 1)
    }) {
        return Err(EvalError::Unstratifiable(object.to_string()));
    }
    type IndexedRules<'a> = Vec<(usize, &'a Rule)>;
    let (axioms, others): (IndexedRules, IndexedRules) = rules
        .iter()
        .copied()
        .partition(|&(_, r)| is_object_axiom(r));

    let mut stratum: Map<(Symbol, usize), usize> = Map::new();
    let preds: Vec<(Symbol, usize)> = program.head_predicates();
    for &p in &preds {
        stratum.insert(p, 0);
    }
    let bound = preds.len() + 1;
    loop {
        let mut changed = false;
        for (_, rule) in &others {
            let head_key = (rule.head.pred, rule.head.args.len());
            let mut need = stratum.get(&head_key).copied().unwrap_or(0);
            for b in &rule.body {
                if program.is_builtin(b.pred) || (b.pred == object && b.args.len() == 1) {
                    continue;
                }
                need = need.max(stratum.get(&(b.pred, b.args.len())).copied().unwrap_or(0));
            }
            for n in &rule.neg_body {
                if program.is_builtin(n.pred) {
                    continue;
                }
                need = need.max(stratum.get(&(n.pred, n.args.len())).copied().unwrap_or(0) + 1);
            }
            if need > bound {
                return Err(EvalError::Unstratifiable(rule.head.pred.to_string()));
            }
            if need > stratum.get(&head_key).copied().unwrap_or(0) {
                stratum.insert(head_key, need);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let max_stratum = others
        .iter()
        .map(|(_, r)| stratum[&(r.head.pred, r.head.args.len())])
        .max()
        .unwrap_or(0);
    let mut out: Vec<Vec<(usize, &Rule)>> = vec![Vec::new(); max_stratum + 1];
    for &(ri, rule) in &others {
        let sidx = stratum[&(rule.head.pred, rule.head.args.len())];
        out[sidx].push((ri, rule));
    }
    // Replicate the object axioms into every stratum.
    for level in &mut out {
        level.extend(axioms.iter().copied());
    }
    Ok(out)
}

/// Runs the fixpoint rounds for one stratum's rules.
///
/// With `seed = None` (a fresh run) the frontier map starts empty, so
/// every fact visible at stratum entry (lower strata and the extensional
/// base) counts as delta in the first round.
///
/// With `seed = Some(base)` (a resumed run, see [`evaluate_delta`]) the
/// frontiers are pre-populated from the `base` length snapshot: rows
/// below `base` are already-saturated "old" rows, rows appended since are
/// the first round's delta. `first_round` is also suppressed, so
/// builtin-only rules don't refire and an empty delta terminates
/// immediately.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stratum<P: ClauseView>(
    rules: &[(usize, &Rule)],
    derivable: &[(Symbol, usize)],
    program: &P,
    opts: &FixpointOptions,
    ev: &mut Evaluation,
    meter: &mut BudgetMeter,
    seed: Option<&HashMap<(Symbol, usize), u32>>,
) -> Result<(), EvalError> {
    let mut frontiers: HashMap<(Symbol, usize), Frontier> = match seed {
        Some(base) => base
            .iter()
            .map(|(&k, &len)| (k, Frontier { old: 0, cur: len }))
            .collect(),
        None => HashMap::new(),
    };
    let mut first_round = seed.is_none();
    loop {
        // Round boundary: prompt deadline/cancel check plus an approximate
        // memory check (arena terms dominate; tuples are TermId rows).
        if !meter.check_time_and_cancel()
            || !meter.check_memory(ev.store.len() * 64 + ev.facts.total * 24)
        {
            return Ok(());
        }
        ev.stats.iterations += 1;
        if let Some(limit) = opts.max_iterations {
            if ev.stats.iterations > limit {
                ev.stats.iterations -= 1;
                meter.trip(TripKind::Iterations);
                return Ok(());
            }
        }
        // Snapshot current lengths.
        let mut lens: HashMap<(Symbol, usize), u32> = HashMap::new();
        for &(p, a) in derivable {
            let len = ev.facts.relation(p, a).map_or(0, |r| r.row_end());
            lens.insert((p, a), len);
        }
        let current_frontiers: HashMap<(Symbol, usize), Frontier> = lens
            .iter()
            .map(|(&k, &len)| {
                let old = frontiers.get(&k).map_or(0, |f| f.cur);
                (k, Frontier { old, cur: len })
            })
            .collect();
        let any_delta = current_frontiers.values().any(|f| f.old < f.cur) || first_round;
        if !any_delta {
            ev.stats.iterations -= 1; // the empty round doesn't count
            break;
        }

        let mut new_facts: Vec<(Symbol, Vec<TermId>)> = Vec::new();
        for &(ri, rule) in rules {
            let body_derivable: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, a)| !program.is_builtin(a.pred))
                .map(|(i, _)| i)
                .collect();
            let produced_before = new_facts.len();
            match opts.strategy {
                Strategy::Naive => {
                    ev.stats.rule_activations += 1;
                    eval_rule(
                        rule,
                        &current_frontiers,
                        None,
                        &ev.facts,
                        &mut ev.store,
                        &mut ev.stats,
                        program,
                        &mut new_facts,
                        meter,
                    )?;
                }
                Strategy::SemiNaive => {
                    if body_derivable.is_empty() {
                        // No derivable atoms: fire exactly once, in round 1.
                        if first_round {
                            ev.stats.rule_activations += 1;
                            eval_rule(
                                rule,
                                &current_frontiers,
                                None,
                                &ev.facts,
                                &mut ev.store,
                                &mut ev.stats,
                                program,
                                &mut new_facts,
                                meter,
                            )?;
                            let produced = (new_facts.len() - produced_before) as u64;
                            ev.stats.bump_rule(ri, produced);
                        }
                        continue;
                    }
                    for &delta_pos in &body_derivable {
                        // An empty delta joins nothing (`eval_body` puts the
                        // delta atom first): skip it before planning.
                        let atom = &rule.body[delta_pos];
                        let key = (atom.pred, atom.args.len());
                        let delta_empty = match current_frontiers.get(&key) {
                            Some(f) => f.old >= f.cur,
                            None => ev.facts.relation(key.0, key.1).is_none_or(|r| r.is_empty()),
                        };
                        if delta_empty {
                            continue;
                        }
                        ev.stats.rule_activations += 1;
                        eval_rule(
                            rule,
                            &current_frontiers,
                            Some(delta_pos),
                            &ev.facts,
                            &mut ev.store,
                            &mut ev.stats,
                            program,
                            &mut new_facts,
                            meter,
                        )?;
                    }
                }
            }
            let produced = (new_facts.len() - produced_before) as u64;
            ev.stats.bump_rule(ri, produced);
            if meter.tripped().is_some() {
                break;
            }
        }

        let inserted = insert_derived(new_facts, ev, opts, meter);
        ev.stats.delta_sizes.push(inserted);
        if meter.tripped().is_some() {
            return Ok(());
        }
        frontiers = current_frontiers;
        first_round = false;
        if inserted == 0 {
            break;
        }
    }
    Ok(())
}

/// Evaluates one rule body left-to-right. With `delta_pos = Some(i)`, atom
/// `i` ranges over its relation's delta, atoms before `i` over pre-delta
/// rows, and atoms after `i` over everything known at round start
/// (semi-naive); with `None`, every atom ranges over all known rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_rule<P: ClauseView>(
    rule: &Rule,
    frontiers: &HashMap<(Symbol, usize), Frontier>,
    delta_pos: Option<usize>,
    facts: &FactStore,
    store: &mut TermStore,
    stats: &mut FixpointStats,
    program: &P,
    out: &mut Vec<(Symbol, Vec<TermId>)>,
    meter: &mut BudgetMeter,
) -> Result<(), EvalError> {
    let mut env: Env = vec![None; rule.n_vars as usize];
    let mut trail: Vec<VarId> = Vec::new();
    let builtins = program.builtins();
    let order = plan_order(rule, delta_pos, builtins, facts);
    eval_body(
        rule, &order, 0, delta_pos, frontiers, facts, store, stats, builtins, &mut env, &mut trail,
        out, meter,
    )
}

/// Greedy join planning for one activation. The delta atom (if any) goes
/// first — it is the small slice this activation exists for. Then,
/// repeatedly: a built-in whose inputs are bound runs as early as
/// possible (cheap filter), otherwise the relational atom with the best
/// *index availability* is chosen — some argument position fully bound
/// (exact index) or a compound argument with bound first sub-argument
/// (sub index) — breaking ties by fewest unbound variables, then the
/// smaller relation, then source order. This turns translated bodies
/// like `node(X), object(Z), linkto(X, Z), …` into `node(X),
/// linkto(X, Z), object(Z), …`: filters before generators, and among
/// equally-bound generators the cheaper scan goes first.
pub(crate) fn plan_order(
    rule: &Rule,
    delta_pos: Option<usize>,
    builtins: &[Symbol],
    facts: &FactStore,
) -> Vec<usize> {
    let n = rule.body.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // `bound[v]`: variable `v` is bound by the atoms ordered so far.
    let mut bound = vec![false; rule.n_vars as usize];
    let atom_vars = |j: usize| atom_vars(&rule.body[j]);
    let bind = |j: usize, bound: &mut Vec<bool>| {
        for v in atom_vars(j) {
            bound[v as usize] = true;
        }
    };
    let is_builtin = |j: usize| builtins.contains(&rule.body[j].pred);

    if let Some(d) = delta_pos {
        remaining.retain(|&j| j != d);
        order.push(d);
        bind(d, &mut bound);
    }
    while !remaining.is_empty() {
        // A ready built-in filters earliest.
        if let Some(pos) = remaining.iter().position(|&j| {
            let atom = &rule.body[j];
            is_builtin(j) && ready(atom.pred, &atom.args, |t| term_bound(t, &bound))
        }) {
            let j = remaining.remove(pos);
            order.push(j);
            bind(j, &mut bound);
            continue;
        }
        // Best relational atom by (index availability, unbound vars, pos);
        // unready built-ins are postponed to the very end.
        let best = remaining
            .iter()
            .enumerate()
            .filter(|(_, &j)| !is_builtin(j))
            .min_by_key(|(_, &j)| {
                let atom = &rule.body[j];
                let indexable = atom.args.iter().any(|a| arg_indexable(a, &bound));
                let unbound = atom_vars(j).iter().filter(|&&v| !bound[v as usize]).count();
                let size = facts
                    .relation(atom.pred, atom.args.len())
                    .map_or(0, |r| r.len());
                (usize::from(!indexable), unbound, size, j)
            })
            .map(|(pos, _)| pos);
        let pos = best.unwrap_or(0); // only unready built-ins left: source order
        let j = remaining.remove(pos);
        order.push(j);
        bind(j, &mut bound);
    }
    order
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_body(
    rule: &Rule,
    order: &[usize],
    i: usize,
    delta_pos: Option<usize>,
    frontiers: &HashMap<(Symbol, usize), Frontier>,
    facts: &FactStore,
    store: &mut TermStore,
    stats: &mut FixpointStats,
    builtins: &[Symbol],
    env: &mut Env,
    trail: &mut Vec<VarId>,
    out: &mut Vec<(Symbol, Vec<TermId>)>,
    meter: &mut BudgetMeter,
) -> Result<(), EvalError> {
    if i == order.len() {
        // (`order` is normally the whole body, but the retraction pass
        // evaluates partial orders with the pinned atom pre-bound.)
        // Negation as failure: every negated atom must be absent. The
        // stratification guarantees the negated relations are complete
        // by the time this stratum runs.
        for n in &rule.neg_body {
            if builtins.contains(&n.pred) {
                let mark = trail.len();
                let holds = solve_pattern(n, env, trail, store)?;
                trail_undo(env, trail, mark);
                if holds {
                    return Ok(());
                }
                continue;
            }
            let mut tuple = Vec::with_capacity(n.args.len());
            for a in &n.args {
                tuple.push(
                    instantiate(a, env, store)
                        .ok_or_else(|| EvalError::Floundered(rule.to_string()))?,
                );
            }
            if facts.contains(n.pred, &tuple) {
                return Ok(());
            }
        }
        let mut tuple = Vec::with_capacity(rule.head.args.len());
        for a in &rule.head.args {
            tuple.push(
                instantiate(a, env, store)
                    .ok_or_else(|| EvalError::NonGroundDerivation(rule.to_string()))?,
            );
        }
        out.push((rule.head.pred, tuple));
        return Ok(());
    }
    let atom_idx = order[i];
    let atom = &rule.body[atom_idx];
    if builtins.contains(&atom.pred) {
        let mark = trail.len();
        let ok = solve_pattern(atom, env, trail, store)?;
        if ok {
            eval_body(
                rule,
                order,
                i + 1,
                delta_pos,
                frontiers,
                facts,
                store,
                stats,
                builtins,
                env,
                trail,
                out,
                meter,
            )?;
        }
        trail_undo(env, trail, mark);
        return Ok(());
    }
    let key = (atom.pred, atom.args.len());
    let Some(rel) = facts.relation(key.0, key.1) else {
        return Ok(());
    };
    let f = frontiers.get(&key).copied().unwrap_or(Frontier {
        old: 0,
        cur: rel.row_end(),
    });
    // The range class is tied to the atom's *original* position relative
    // to the delta atom, not its place in the join order.
    let range = match delta_pos {
        None => 0..f.cur,
        Some(d) if atom_idx < d => 0..f.old,
        Some(d) if atom_idx == d => f.old..f.cur,
        Some(_) => 0..f.cur,
    };
    if range.is_empty() {
        return Ok(());
    }
    let bound = bound_positions(&atom.args, env, store);
    let rows = rel.candidate_rows(&bound, range, store, facts.index_mode());
    for row in rows {
        if !meter.tick() {
            return Ok(());
        }
        let mark = trail.len();
        stats.match_attempts += 1;
        let ok = atom
            .args
            .iter()
            .zip(rel.tuple(row))
            .all(|(p, &d)| match_term(p, d, store, env, trail));
        if ok {
            eval_body(
                rule,
                order,
                i + 1,
                delta_pos,
                frontiers,
                facts,
                store,
                stats,
                builtins,
                env,
                trail,
                out,
                meter,
            )?;
        }
        trail_undo(env, trail, mark);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::builtin_symbols;
    use clogic_core::fol::{FoClause, FoProgram};
    use clogic_core::symbol::sym;

    fn atom(p: &str, args: Vec<FoTerm>) -> FoAtom {
        FoAtom::new(p, args)
    }

    fn c(s: &str) -> FoTerm {
        FoTerm::constant(s)
    }

    fn v(s: &str) -> FoTerm {
        FoTerm::var(s)
    }

    fn chain_program(n: usize) -> FoProgram {
        // edge(n0,n1), …, edge(n_{n-1},n_n); path(X,Y) :- edge; transitive
        let mut p = FoProgram::new();
        for i in 0..n {
            p.push(FoClause::fact(atom(
                "edge",
                vec![c(&format!("n{i}")), c(&format!("n{}", i + 1))],
            )));
        }
        p.push(FoClause::rule(
            atom("path", vec![v("X"), v("Y")]),
            vec![atom("edge", vec![v("X"), v("Y")])],
        ));
        p.push(FoClause::rule(
            atom("path", vec![v("X"), v("Z")]),
            vec![
                atom("edge", vec![v("X"), v("Y")]),
                atom("path", vec![v("Y"), v("Z")]),
            ],
        ));
        p
    }

    fn eval_with(p: &FoProgram, strategy: Strategy) -> Evaluation {
        let cp = CompiledProgram::compile(p, builtin_symbols());
        evaluate(
            &cp,
            FixpointOptions {
                strategy,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn transitive_closure_chain() {
        let p = chain_program(4);
        let ev = eval_with(&p, Strategy::SemiNaive);
        // paths: all i<j pairs over 5 nodes = 10
        assert_eq!(ev.facts.relation(sym("path"), 2).unwrap().len(), 10);
        assert!(ev.holds(&[atom("path", vec![c("n0"), c("n4")])]));
        assert!(!ev.holds(&[atom("path", vec![c("n4"), c("n0")])]));
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let p = chain_program(6);
        let naive = eval_with(&p, Strategy::Naive);
        let semi = eval_with(&p, Strategy::SemiNaive);
        assert_eq!(naive.ground_atoms(), semi.ground_atoms());
        // and semi-naive does strictly fewer matches
        assert!(semi.stats.match_attempts < naive.stats.match_attempts);
        // naive rederives facts every round
        assert!(naive.stats.duplicates > semi.stats.duplicates);
    }

    #[test]
    fn cycles_terminate() {
        let mut p = chain_program(3);
        p.push(FoClause::fact(atom("edge", vec![c("n3"), c("n0")])));
        let ev = eval_with(&p, Strategy::SemiNaive);
        // strongly connected: 4×4 = 16 paths
        assert_eq!(ev.facts.relation(sym("path"), 2).unwrap().len(), 16);
    }

    #[test]
    fn builtin_arithmetic_in_rules() {
        // dist(X, Y, 1) :- edge(X, Y).
        // dist(X, Z, N) :- edge(X, Y), dist(Y, Z, M), N is M + 1, N =< 3.
        let mut p = FoProgram::new();
        for i in 0..5 {
            p.push(FoClause::fact(atom(
                "edge",
                vec![c(&format!("n{i}")), c(&format!("n{}", i + 1))],
            )));
        }
        p.push(FoClause::rule(
            atom("dist", vec![v("X"), v("Y"), FoTerm::int(1)]),
            vec![atom("edge", vec![v("X"), v("Y")])],
        ));
        p.push(FoClause::rule(
            atom("dist", vec![v("X"), v("Z"), v("N")]),
            vec![
                atom("edge", vec![v("X"), v("Y")]),
                atom("dist", vec![v("Y"), v("Z"), v("M")]),
                atom(
                    "is",
                    vec![v("N"), FoTerm::App(sym("+"), vec![v("M"), FoTerm::int(1)])],
                ),
                atom("=<", vec![v("N"), FoTerm::int(3)]),
            ],
        ));
        let ev = eval_with(&p, Strategy::SemiNaive);
        assert!(ev.holds(&[atom("dist", vec![c("n0"), c("n3"), FoTerm::int(3)])]));
        assert!(!ev.holds(&[atom("dist", vec![c("n0"), c("n4"), FoTerm::int(4)])]));
        // the bound keeps it finite
        let total: usize = ev.facts.relation(sym("dist"), 3).unwrap().len();
        assert_eq!(total, 5 + 4 + 3);
    }

    #[test]
    fn non_range_restricted_rule_errors() {
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("a", vec![c("x")])));
        p.push(FoClause::rule(
            atom("p", vec![v("Y")]),
            vec![atom("a", vec![v("X")])],
        ));
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let err = evaluate(&cp, FixpointOptions::default()).unwrap_err();
        assert!(matches!(err, EvalError::NonGroundDerivation(_)));
    }

    #[test]
    fn fact_limit_degrades_gracefully() {
        let p = chain_program(20);
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let ev = evaluate(
            &cp,
            FixpointOptions {
                max_facts: Some(30),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!ev.complete);
        let d = ev.degradation.as_ref().expect("degradation report");
        assert_eq!(d.trip, TripKind::Facts);
        assert_eq!(d.strategy, "bottom-up-semi-naive");
        // The partial model is retained: all 20 edges plus some paths,
        // stopping right after the ceiling.
        assert!(ev.facts.total > 30);
        assert!(ev.facts.total <= 31);
        assert!(ev.holds(&[atom("edge", vec![c("n0"), c("n1")])]));
    }

    #[test]
    fn iteration_limit_degrades_gracefully() {
        let p = chain_program(20);
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let ev = evaluate(
            &cp,
            FixpointOptions {
                max_iterations: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!ev.complete);
        assert_eq!(
            ev.degradation.as_ref().unwrap().trip,
            TripKind::Iterations
        );
        assert_eq!(ev.stats.iterations, 3);
        // Short paths derived before the cutoff survive.
        assert!(ev.holds(&[atom("path", vec![c("n0"), c("n1")])]));
    }

    #[test]
    fn budget_deadline_degrades_gracefully() {
        use std::time::Duration;
        // An infinite least model: count(s(X)) :- count(X). Without a
        // ceiling this diverges; an expired deadline must stop it with a
        // partial model rather than hang or error.
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("count", vec![c("zero")])));
        p.push(FoClause::rule(
            atom("count", vec![FoTerm::App(sym("s"), vec![v("X")])]),
            vec![atom("count", vec![v("X")])],
        ));
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let ev = evaluate(
            &cp,
            FixpointOptions {
                budget: crate::budget::Budget::with_deadline(Duration::from_millis(20)),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!ev.complete);
        let d = ev.degradation.unwrap();
        assert!(
            matches!(d.trip, TripKind::Deadline),
            "expected deadline trip, got {:?}",
            d.trip
        );
        assert!(ev.facts.total >= 1);
    }

    #[test]
    fn budget_step_ceiling_degrades_gracefully() {
        let p = chain_program(20);
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let ev = evaluate(
            &cp,
            FixpointOptions {
                budget: crate::budget::Budget::unlimited().max_steps(25),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!ev.complete);
        let d = ev.degradation.unwrap();
        assert!(matches!(d.trip, TripKind::Steps | TripKind::Deadline));
    }

    #[test]
    fn cancel_token_stops_evaluation() {
        use crate::budget::CancelToken;
        let p = chain_program(10);
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let token = CancelToken::new();
        token.cancel(); // cancelled before the run even starts
        let ev = evaluate(
            &cp,
            FixpointOptions {
                budget: crate::budget::Budget::unlimited().cancel_token(token),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!ev.complete);
        assert_eq!(ev.degradation.unwrap().trip, TripKind::Cancelled);
    }

    #[test]
    fn query_with_multiple_goals_and_join() {
        let p = chain_program(4);
        let ev = eval_with(&p, Strategy::SemiNaive);
        // pairs X,Z connected through an explicit middle node Y=n2
        let answers = ev
            .query(
                &[
                    atom("path", vec![v("X"), c("n2")]),
                    atom("path", vec![c("n2"), v("Z")]),
                ],
                &[],
                &[],
            )
            .unwrap();
        // X ∈ {n0,n1}, Z ∈ {n3,n4}
        assert_eq!(answers.len(), 4);
        for a in &answers {
            assert!(a.contains_key(&sym("X")));
            assert!(a.contains_key(&sym("Z")));
        }
    }

    #[test]
    fn query_on_empty_relation() {
        let p = chain_program(2);
        let ev = eval_with(&p, Strategy::SemiNaive);
        assert!(ev
            .query(&[atom("nothing", vec![v("X")])], &[], &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rules_with_builtin_only_bodies_fire_once() {
        let mut p = FoProgram::new();
        p.push(FoClause::rule(
            atom("answer", vec![v("X")]),
            vec![atom(
                "is",
                vec![
                    v("X"),
                    FoTerm::App(sym("+"), vec![FoTerm::int(40), FoTerm::int(2)]),
                ],
            )],
        ));
        let ev = eval_with(&p, Strategy::SemiNaive);
        assert!(ev.holds(&[atom("answer", vec![FoTerm::int(42)])]));
        assert_eq!(ev.facts.total, 1);
    }

    #[test]
    fn stats_are_populated() {
        let p = chain_program(4);
        let ev = eval_with(&p, Strategy::SemiNaive);
        assert!(ev.stats.iterations >= 4); // path lengths grow one per round
        assert!(ev.stats.facts_derived >= 14);
        assert!(ev.stats.rule_activations > 0);
        assert!(ev.stats.match_attempts > 0);
    }

    #[test]
    fn evaluate_delta_matches_full_evaluation() {
        // Saturate a chain, append one edge, resume — must equal the
        // from-scratch model, with far less matching work.
        let p = chain_program(6);
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let prev = evaluate(&cp, FixpointOptions::default()).unwrap();
        let prev_rules = cp.len();
        let mut p2 = p.clone();
        p2.push(FoClause::fact(atom("edge", vec![c("n7"), c("n8")])));
        p2.push(FoClause::fact(atom("edge", vec![c("n6"), c("n7")])));
        let cp2 = CompiledProgram::compile(&p2, builtin_symbols());
        let full = evaluate(&cp2, FixpointOptions::default()).unwrap();
        let before_matches = prev.stats.match_attempts;
        let resumed = evaluate_delta(&cp2, prev, prev_rules, FixpointOptions::default()).unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.ground_atoms(), full.ground_atoms());
        let delta_matches = resumed.stats.match_attempts - before_matches;
        assert!(
            delta_matches < full.stats.match_attempts,
            "resume did {delta_matches} matches, full run {}",
            full.stats.match_attempts
        );
    }

    #[test]
    fn evaluate_delta_with_new_rules_catches_up() {
        // The delta appends a *rule* (not just facts): the catch-up pass
        // must join it against the whole pre-existing saturated store.
        let mut p = FoProgram::new();
        for i in 0..4 {
            p.push(FoClause::fact(atom(
                "edge",
                vec![c(&format!("n{i}")), c(&format!("n{}", i + 1))],
            )));
        }
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let prev = evaluate(&cp, FixpointOptions::default()).unwrap();
        let prev_rules = cp.len();
        let mut p2 = p.clone();
        p2.push(FoClause::rule(
            atom("path", vec![v("X"), v("Y")]),
            vec![atom("edge", vec![v("X"), v("Y")])],
        ));
        p2.push(FoClause::rule(
            atom("path", vec![v("X"), v("Z")]),
            vec![
                atom("edge", vec![v("X"), v("Y")]),
                atom("path", vec![v("Y"), v("Z")]),
            ],
        ));
        let cp2 = CompiledProgram::compile(&p2, builtin_symbols());
        let full = evaluate(&cp2, FixpointOptions::default()).unwrap();
        let resumed = evaluate_delta(&cp2, prev, prev_rules, FixpointOptions::default()).unwrap();
        assert_eq!(resumed.ground_atoms(), full.ground_atoms());
        assert_eq!(
            resumed.facts.relation(sym("path"), 2).unwrap().len(),
            10 // all i<j pairs over 5 nodes
        );
    }

    #[test]
    fn evaluate_delta_with_empty_delta_is_a_noop_round() {
        let p = chain_program(4);
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let prev = evaluate(&cp, FixpointOptions::default()).unwrap();
        let iterations = prev.stats.iterations;
        let total = prev.facts.total;
        let resumed = evaluate_delta(&cp, prev, cp.len(), FixpointOptions::default()).unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.facts.total, total);
        // the empty termination round is not counted
        assert_eq!(resumed.stats.iterations, iterations);
    }

    #[test]
    fn evaluate_delta_falls_back_on_negation() {
        // Stratified negation is non-monotonic: adding reached(b) must
        // *retract* unreachable(b), which a resumed run can't do — so
        // evaluate_delta recomputes from scratch and stays correct.
        let mut p = FoProgram::new();
        for n in ["a", "b"] {
            p.push(FoClause::fact(atom("node", vec![c(n)])));
        }
        p.push(FoClause::fact(atom("reached", vec![c("a")])));
        p.push(FoClause::rule_with_negation(
            atom("unreachable", vec![v("X")]),
            vec![atom("node", vec![v("X")])],
            vec![atom("reached", vec![v("X")])],
        ));
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let prev = evaluate(&cp, FixpointOptions::default()).unwrap();
        assert!(prev.holds(&[atom("unreachable", vec![c("b")])]));
        let prev_rules = cp.len();
        let mut p2 = p.clone();
        p2.push(FoClause::fact(atom("reached", vec![c("b")])));
        let cp2 = CompiledProgram::compile(&p2, builtin_symbols());
        let resumed = evaluate_delta(&cp2, prev, prev_rules, FixpointOptions::default()).unwrap();
        assert!(!resumed.holds(&[atom("unreachable", vec![c("b")])]));
    }

    #[test]
    fn delta_sizes_track_per_round_insertions() {
        let p = chain_program(4);
        let ev = eval_with(&p, Strategy::SemiNaive);
        let sizes = ev.delta_sizes();
        assert_eq!(sizes.iter().sum::<u64>() + 4, ev.facts_derived()); // 4 edges in round 0
        assert_eq!(sizes.len(), ev.iterations()); // one entry per counted round
        // round 1 derives the 4 one-step paths
        assert_eq!(sizes[0], 4);
    }

    #[test]
    fn fact_store_epoch_stamps_grown_relations() {
        let p = chain_program(2);
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let mut prev = evaluate(&cp, FixpointOptions::default()).unwrap();
        assert_eq!(prev.facts.relation(sym("edge"), 2).unwrap().stamp(), 0);
        prev.facts.set_epoch(7);
        let prev_rules = cp.len();
        let mut p2 = p.clone();
        p2.push(FoClause::fact(atom("edge", vec![c("n2"), c("n3")])));
        let cp2 = CompiledProgram::compile(&p2, builtin_symbols());
        let resumed = evaluate_delta(&cp2, prev, prev_rules, FixpointOptions::default()).unwrap();
        // grown relations carry the new stamp; the indexes were extended,
        // not rebuilt (same store, same tuple prefix)
        assert_eq!(resumed.facts.relation(sym("edge"), 2).unwrap().stamp(), 7);
        assert_eq!(resumed.facts.epoch(), 7);
    }

    /// The plan of `durable_update`'s read, `path: P[src => c0n0,
    /// dest => D]`: the constant's goals first, so that every later goal
    /// probes an index. The model is the translated shape of one saturated
    /// chain, so relation sizes are those a served read sees.
    #[test]
    fn single_source_path_query_plan_is_pinned() {
        use clogic_core::formula::{Atomic, Query};
        use clogic_core::term::{LabelSpec, Term};
        use clogic_core::transform::Transformer;
        let q = Query::new(vec![Atomic::term(
            Term::molecule(
                Term::typed_var("path", "P"),
                vec![
                    LabelSpec::one("src", Term::constant("c0n0")),
                    LabelSpec::one("dest", Term::var("D")),
                ],
            )
            .unwrap(),
        )]);
        let goals = Transformer::new().query(&q);
        let mut p = FoProgram::new();
        let nodes: Vec<FoTerm> = (0..5).map(|i| c(&format!("c0n{i}"))).collect();
        for (i, x) in nodes.iter().enumerate() {
            p.push(FoClause::fact(atom("node", vec![x.clone()])));
            p.push(FoClause::fact(atom("object", vec![x.clone()])));
            for y in &nodes[i + 1..] {
                let id = FoTerm::App(sym("id"), vec![x.clone(), y.clone()]);
                p.push(FoClause::fact(atom("path", vec![id.clone()])));
                p.push(FoClause::fact(atom("object", vec![id.clone()])));
                p.push(FoClause::fact(atom("src", vec![id.clone(), x.clone()])));
                p.push(FoClause::fact(atom("dest", vec![id, y.clone()])));
            }
            if let Some(y) = nodes.get(i + 1) {
                p.push(FoClause::fact(atom("linkto", vec![x.clone(), y.clone()])));
            }
        }
        let ev = eval_with(&p, Strategy::SemiNaive);
        let head = atom("__query", vec![v("D"), v("P")]);
        let rule = Rule::from_fo(&head, &goals, &[], &mut VarAlloc::new());
        let order = plan_order(&rule, None, crate::builtins::builtin_table(), &ev.facts);
        let planned: Vec<String> = order.iter().map(|&j| goals[j].to_string()).collect();
        assert_eq!(
            planned,
            [
                "object(c0n0)",
                "src(P, c0n0)",
                "path(P)",
                "dest(P, D)",
                "object(D)"
            ]
        );
        let answers = ev.query(&goals, &[], &[]).unwrap();
        assert_eq!(answers.len(), 4);
    }

    #[test]
    fn ground_atoms_sorted_and_complete() {
        let p = chain_program(2);
        let ev = eval_with(&p, Strategy::SemiNaive);
        let atoms = ev.ground_atoms();
        assert_eq!(atoms.len(), ev.facts.total);
        let mut sorted = atoms.clone();
        sorted.sort();
        assert_eq!(atoms, sorted);
    }
}

#[cfg(test)]
mod negation_tests {
    use super::*;
    use crate::builtins::builtin_symbols;
    use crate::program::CompiledProgram;
    use clogic_core::fol::{FoClause, FoProgram};
    use clogic_core::symbol::sym;

    fn atom(p: &str, args: Vec<FoTerm>) -> FoAtom {
        FoAtom::new(p, args)
    }
    fn c(s: &str) -> FoTerm {
        FoTerm::constant(s)
    }
    fn v(s: &str) -> FoTerm {
        FoTerm::var(s)
    }

    fn eval(p: &FoProgram) -> Result<Evaluation, EvalError> {
        let cp = CompiledProgram::compile(p, builtin_symbols());
        evaluate(&cp, FixpointOptions::default())
    }

    #[test]
    fn stratified_negation_basic() {
        // unreachable(X) :- node(X), \+ reached(X).
        let mut p = FoProgram::new();
        for n in ["a", "b", "c"] {
            p.push(FoClause::fact(atom("node", vec![c(n)])));
        }
        p.push(FoClause::fact(atom("reached", vec![c("a")])));
        p.push(FoClause::rule_with_negation(
            atom("unreachable", vec![v("X")]),
            vec![atom("node", vec![v("X")])],
            vec![atom("reached", vec![v("X")])],
        ));
        let ev = eval(&p).unwrap();
        assert!(ev.holds(&[atom("unreachable", vec![c("b")])]));
        assert!(ev.holds(&[atom("unreachable", vec![c("c")])]));
        assert!(!ev.holds(&[atom("unreachable", vec![c("a")])]));
    }

    #[test]
    fn negation_over_derived_relation() {
        // reached via recursion, complement computed in a later stratum.
        let mut p = FoProgram::new();
        for n in ["a", "b", "c", "d"] {
            p.push(FoClause::fact(atom("node", vec![c(n)])));
        }
        p.push(FoClause::fact(atom("edge", vec![c("a"), c("b")])));
        p.push(FoClause::fact(atom("edge", vec![c("b"), c("c")])));
        p.push(FoClause::rule(atom("reached", vec![c("a")]), vec![]));
        p.push(FoClause::rule(
            atom("reached", vec![v("Y")]),
            vec![
                atom("reached", vec![v("X")]),
                atom("edge", vec![v("X"), v("Y")]),
            ],
        ));
        p.push(FoClause::rule_with_negation(
            atom("unreachable", vec![v("X")]),
            vec![atom("node", vec![v("X")])],
            vec![atom("reached", vec![v("X")])],
        ));
        let ev = eval(&p).unwrap();
        let q = ev
            .query(&[atom("unreachable", vec![v("X")])], &[], &[])
            .unwrap();
        let xs: Vec<String> = q.iter().map(|a| a[&sym("X")].to_string()).collect();
        assert_eq!(xs, vec!["d"]);
    }

    #[test]
    fn three_strata_chain() {
        // s2 negates s1 which negates s0.
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("base", vec![c("x")])));
        p.push(FoClause::fact(atom("all", vec![c("x")])));
        p.push(FoClause::fact(atom("all", vec![c("y")])));
        p.push(FoClause::rule_with_negation(
            atom("not_base", vec![v("X")]),
            vec![atom("all", vec![v("X")])],
            vec![atom("base", vec![v("X")])],
        ));
        p.push(FoClause::rule_with_negation(
            atom("base_again", vec![v("X")]),
            vec![atom("all", vec![v("X")])],
            vec![atom("not_base", vec![v("X")])],
        ));
        let ev = eval(&p).unwrap();
        assert!(ev.holds(&[atom("not_base", vec![c("y")])]));
        assert!(!ev.holds(&[atom("not_base", vec![c("x")])]));
        assert!(ev.holds(&[atom("base_again", vec![c("x")])]));
        assert!(!ev.holds(&[atom("base_again", vec![c("y")])]));
    }

    #[test]
    fn unstratifiable_program_rejected() {
        // p :- \+ q.  q :- \+ p.  — negative cycle.
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("seed", vec![c("s")])));
        p.push(FoClause::rule_with_negation(
            atom("p", vec![v("X")]),
            vec![atom("seed", vec![v("X")])],
            vec![atom("q", vec![v("X")])],
        ));
        p.push(FoClause::rule_with_negation(
            atom("q", vec![v("X")]),
            vec![atom("seed", vec![v("X")])],
            vec![atom("p", vec![v("X")])],
        ));
        assert!(matches!(eval(&p), Err(EvalError::Unstratifiable(_))));
    }

    #[test]
    fn unsafe_negation_flounders() {
        // head var appears only in the negated atom.
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("seed", vec![c("s")])));
        p.push(FoClause::fact(atom("q", vec![c("z")])));
        p.push(FoClause::rule_with_negation(
            atom("p", vec![v("X")]),
            vec![atom("seed", vec![v("X")])],
            vec![atom("q", vec![v("Y")])],
        ));
        assert!(matches!(eval(&p), Err(EvalError::Floundered(_))));
    }

    #[test]
    fn negated_builtins() {
        // keep(X, N) :- val(X, N), \+ N >= 10.
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("val", vec![c("a"), FoTerm::int(5)])));
        p.push(FoClause::fact(atom("val", vec![c("b"), FoTerm::int(15)])));
        p.push(FoClause::rule_with_negation(
            atom("keep", vec![v("X")]),
            vec![atom("val", vec![v("X"), v("N")])],
            vec![atom(">=", vec![v("N"), FoTerm::int(10)])],
        ));
        let ev = eval(&p).unwrap();
        assert!(ev.holds(&[atom("keep", vec![c("a")])]));
        assert!(!ev.holds(&[atom("keep", vec![c("b")])]));
    }

    #[test]
    fn sld_agrees_with_stratified_bottom_up() {
        use crate::sld::{SldEngine, SldOptions};
        let mut p = FoProgram::new();
        for n in ["a", "b", "c"] {
            p.push(FoClause::fact(atom("node", vec![c(n)])));
        }
        p.push(FoClause::fact(atom("reached", vec![c("a")])));
        p.push(FoClause::rule_with_negation(
            atom("unreachable", vec![v("X")]),
            vec![atom("node", vec![v("X")])],
            vec![atom("reached", vec![v("X")])],
        ));
        let ev = eval(&p).unwrap();
        let bu = ev
            .query(&[atom("unreachable", vec![v("X")])], &[], &[])
            .unwrap();
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let sld = SldEngine::new(&cp, SldOptions::default())
            .solve(&[atom("unreachable", vec![v("X")])])
            .unwrap();
        assert_eq!(sld.answers, bu);
        assert_eq!(sld.answers.len(), 2);
    }

    #[test]
    fn sld_floundering_is_an_error() {
        use crate::builtins::BuiltinError;
        use crate::sld::{SldEngine, SldOptions};
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("q", vec![c("z")])));
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        // :- \+ q(Y). with Y unbound
        let e = SldEngine::new(&cp, SldOptions::default());
        let err = e
            .solve_with_negation(&[], &[atom("q", vec![v("Y")])])
            .unwrap_err();
        assert!(matches!(err, BuiltinError::Floundered(_)));
    }

    #[test]
    fn tabling_and_magic_reject_negation() {
        use crate::magic::solve_magic;
        use crate::tabling::{TabledEngine, TablingError, TablingOptions};
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("seed", vec![c("s")])));
        p.push(FoClause::rule_with_negation(
            atom("p", vec![v("X")]),
            vec![atom("seed", vec![v("X")])],
            vec![atom("q", vec![v("X")])],
        ));
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let t = TabledEngine::new(&cp, TablingOptions::default()).solve(&[atom("p", vec![v("X")])]);
        assert!(matches!(t, Err(TablingError::NegationUnsupported)));
        let builtins: std::collections::BTreeSet<_> = builtin_symbols().collect();
        let m = solve_magic(
            &p,
            &[atom("p", vec![v("X")])],
            &builtins,
            FixpointOptions::default(),
        );
        assert!(matches!(m, Err(EvalError::Unstratifiable(_))));
    }
}
