//! Direct resolution over complex objects, with residuation (§4).
//!
//! The engine answers C-logic queries without translating to first-order
//! clauses. A molecular goal is resolved in two ways:
//!
//! * **against the clustered store** — the goal's identity is matched to a
//!   candidate object (found through the type / label-value indexes) and
//!   every piece the object's merged record can supply is consumed at
//!   once. Pieces the record cannot supply form a *residual* goal, marked
//!   rules-only so the store is not consulted twice;
//! * **against a clause head** — the head molecule may describe only part
//!   of the object ("several rules, each of which deals with partial
//!   information about the same object"), so the head covers a subset of
//!   the goal's pieces, the clause body is solved, and the uncovered
//!   pieces continue as a residual goal.
//!
//! This implements exactly the paper's example: the query
//! `path: p[src ⇒ a, dest ⇒ d]` solves `src` against the first fact,
//! leaves the residual `path: p[dest ⇒ d]`, and solves that against the
//! second — where naive whole-molecule unification would fail.
//!
//! Type pieces are handled order-sortedly: an object satisfies `τ : id`
//! when it was asserted with any type `τ' ≤ τ` — no type-axiom clauses
//! are ever executed.

use crate::goal::{DirectProgram, Goal, MolGoal};
use clogic_core::formula::Query;
use clogic_core::hierarchy::object_type;
use clogic_core::symbol::Symbol;
use folog::budget::{Budget, BudgetMeter, Degradation, TripKind};
use folog::builtins::BuiltinError;
use folog::program::{shift_atom, shift_term};
use folog::rterm::{RAtom, RTerm, VarAlloc, VarId};
use folog::sld::fo_of_rterm;
use folog::unify::{unify, Bindings};
use folog::{TermId, TermStore};
use std::collections::{BTreeMap, HashMap};

/// How aggressively pieces of a molecular goal are residuated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResiduationMode {
    /// Residuate a piece when the current source (store record or
    /// clause head) has **no** unifiable value for its label, when its
    /// label is duplicated in the goal (the §5 subset pattern
    /// `children => {X, Y}`: each duplicate may take its value from a
    /// different source), or when its value is still unbound: another
    /// source may supply a different value for it (`t1: X[l1 => V]` over
    /// a stored `l1` value and a rule deriving another one). A ground
    /// piece a stored record or a ground head value matches is settled;
    /// one a head variable matched is not, since the clause body may
    /// fail for that value where another clause supplies it
    /// (`r1: X[m1 => c2]`, `r1` derived by one rule and `m1 => c2` by
    /// another). A piece a clause head matched residuates towards the
    /// other sources only, since that head's instances were all tried.
    /// Cost: each open piece whose label is both stored and derived
    /// doubles the branches of a source that matches it, as `Full` does
    /// for every piece. What it gives up: answers that take one such
    /// piece from one instance of a clause and another piece from a
    /// second instance of it.
    OnFailure,
    /// Try the residual branch for every piece (2^pieces branches per
    /// source): fully complete cross-source combinations, exponentially
    /// more expensive.
    Full,
}

/// Options for the direct engine.
///
/// Hitting any limit (depth, steps, solutions, or a [`budget`](Self::budget)
/// ceiling) degrades gracefully: the answers found so far are returned with
/// `complete: false` and a [`Degradation`] report.
#[derive(Clone, Debug)]
pub struct DirectOptions {
    /// Maximum resolution depth.
    pub max_depth: Option<usize>,
    /// Maximum resolution steps.
    pub max_steps: Option<u64>,
    /// Stop after this many solutions.
    pub max_solutions: Option<usize>,
    /// Residuation aggressiveness.
    pub residuation: ResiduationMode,
    /// Shared resource ceilings (deadline, steps, memory, cancellation).
    pub budget: Budget,
    /// Observability handles; counter deltas are flushed once per solve,
    /// never from the resolution loop.
    pub obs: clogic_obs::Obs,
}

impl Default for DirectOptions {
    fn default() -> Self {
        DirectOptions {
            max_depth: Some(10_000),
            max_steps: Some(10_000_000),
            max_solutions: None,
            residuation: ResiduationMode::OnFailure,
            budget: Budget::unlimited(),
            obs: clogic_obs::Obs::default(),
        }
    }
}

/// Counters for a direct-engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirectStats {
    /// Goal-resolution steps.
    pub steps: u64,
    /// Store candidates examined.
    pub store_candidates: u64,
    /// Clause-head resolution attempts.
    pub clause_attempts: u64,
    /// Residual goals created (the paper's residuation).
    pub residuals: u64,
    /// Piece-level match attempts.
    pub piece_matches: u64,
    /// Clause resolutions skipped because the goal is a variant of an
    /// in-progress ancestor goal (loop check).
    pub loop_prunes: u64,
}

/// The outcome of a direct run.
#[derive(Clone, Debug)]
pub struct DirectResult {
    /// Answers: query-variable name → term.
    pub answers: Vec<BTreeMap<Symbol, clogic_core::fol::FoTerm>>,
    /// Counters.
    pub stats: DirectStats,
    /// Whether the search space was exhausted within the limits.
    pub complete: bool,
    /// Why the search stopped or pruned early, when `complete` is false.
    pub degradation: Option<Degradation>,
    /// Successful head resolutions per clause, indexed by the clause's
    /// position in the compiled program — the direct engine's analogue of
    /// the fixpoint's per-rule tuple counts. (Lives on the result, not
    /// [`DirectStats`], which stays `Copy`.)
    pub per_rule: Vec<u64>,
}

/// Stack size for the dedicated search thread (resolution recursion is
/// depth-limited but can legitimately go thousands of frames deep).
const SEARCH_STACK_BYTES: usize = 256 * 1024 * 1024;

/// The direct C-logic engine.
///
/// ```
/// use clogic_engine::{DirectEngine, DirectOptions, DirectProgram};
///
/// let program = clogic_parser::parse_program(
///     "path: p[src => a, dest => b].\n\
///      path: p[src => c, dest => d].",
/// )
/// .unwrap();
/// let compiled = DirectProgram::compile(&program, folog::builtins::builtin_symbols());
/// let engine = DirectEngine::new(&compiled, DirectOptions::default());
/// // §4: labels of a term are independent — the cross query succeeds.
/// let query = clogic_parser::parse_query("path: p[src => a, dest => d]").unwrap();
/// assert_eq!(engine.solve(&query).unwrap().answers.len(), 1);
/// ```
pub struct DirectEngine<'p> {
    program: &'p DirectProgram,
    opts: DirectOptions,
}

struct Search<'p> {
    p: &'p DirectProgram,
    opts: DirectOptions,
    bind: Bindings,
    next_var: VarId,
    stats: DirectStats,
    truncated: bool,
    /// The engine-local limit that first truncated the search, if any.
    /// Local limits only prune branches (the search continues elsewhere),
    /// so they are tracked separately from the latching budget meter.
    trunc: Option<TripKind>,
    meter: BudgetMeter,
    emitted: usize,
    /// Canonical forms of molecular goals whose clause resolution is in
    /// progress on the current derivation branch (variant loop check):
    /// pushed when it starts, popped by the [`Goal::Exit`] that ends
    /// its body and residual.
    in_progress: Vec<MolGoal>,
    /// Successful head resolutions per clause index.
    per_rule: Vec<u64>,
}

impl Search<'_> {
    fn bump_rule(&mut self, ci: usize) {
        if self.per_rule.len() <= ci {
            self.per_rule.resize(ci + 1, 0);
        }
        self.per_rule[ci] += 1;
    }
}

impl<'p> DirectEngine<'p> {
    /// Creates an engine over a compiled program.
    pub fn new(program: &'p DirectProgram, opts: DirectOptions) -> DirectEngine<'p> {
        DirectEngine { program, opts }
    }

    /// Solves a C-logic query directly.
    pub fn solve(&self, query: &Query) -> Result<DirectResult, BuiltinError> {
        let mut map: HashMap<Symbol, VarId> = HashMap::new();
        let mut alloc = VarAlloc::new();
        let mut goals: Vec<Goal> = Vec::new();
        for g in &query.goals {
            goals.extend(crate::goal::compile_atomic(
                g,
                &mut map,
                &mut alloc,
                &self.program.builtins,
                crate::goal::EmitMode::Checks,
            ));
        }
        for n in &query.neg_goals {
            let inner = crate::goal::compile_atomic(
                n,
                &mut map,
                &mut alloc,
                &self.program.builtins,
                crate::goal::EmitMode::Checks,
            );
            goals.push(Goal::Neg(inner));
        }
        let query_vars: Vec<(Symbol, VarId)> = {
            let mut v: Vec<_> = map.into_iter().collect();
            v.sort();
            v
        };
        let mut search = Search {
            p: self.program,
            opts: self.opts.clone(),
            bind: Bindings::new(),
            next_var: alloc.len() as VarId,
            stats: DirectStats::default(),
            truncated: false,
            trunc: None,
            meter: BudgetMeter::new(&self.opts.budget),
            emitted: 0,
            in_progress: Vec::new(),
            per_rule: Vec::new(),
        };
        let idx_before = self.program.preds.index_stats();
        let mut answers = Vec::new();
        let mut span = self.opts.obs.tracer.span_with(
            "engine.direct.solve",
            vec![("goals", (query.goals.len() + query.neg_goals.len()).into())],
        );
        // Resolution recurses once per goal; deep (but depth-limited)
        // searches need more stack than a default test thread provides,
        // so the search runs on a dedicated big-stack thread.
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("clogic-direct-search".into())
                .stack_size(SEARCH_STACK_BYTES)
                .spawn_scoped(scope, || {
                    search.solve(&goals, 0, &mut |bind| {
                        let mut answer = BTreeMap::new();
                        for &(name, v) in &query_vars {
                            answer.insert(name, fo_of_rterm(&bind.resolve(&RTerm::Var(v))));
                        }
                        answers.push(answer);
                    })
                })
                .expect("spawn search thread")
                .join()
                .expect("search thread panicked")
        })?;
        let hit_cap = self.opts.max_solutions.is_some_and(|m| answers.len() >= m);
        answers.sort();
        answers.dedup();
        // Loop pruning terminates variant recursion; answers reachable
        // only through deeper unrolling may be missing, so the run is
        // reported incomplete whenever pruning fired.
        let complete = !search.truncated && !hit_cap && search.stats.loop_prunes == 0;
        let degradation = if complete {
            None
        } else {
            let trip = search
                .meter
                .tripped()
                .or(search.trunc)
                .unwrap_or(if hit_cap {
                    TripKind::Solutions
                } else {
                    TripKind::VariantLoop
                });
            Some(search.meter.degradation_for(
                trip,
                "direct",
                search.stats.steps,
                format!(
                    "{trip} after {} steps, {} answers, {} loop prunes",
                    search.stats.steps,
                    answers.len(),
                    search.stats.loop_prunes
                ),
            ))
        };
        span.record("steps", search.stats.steps);
        span.record("answers", answers.len());
        span.record("residuals", search.stats.residuals);
        span.record("complete", u64::from(complete));
        drop(span);
        let m = &self.opts.obs.metrics;
        m.counter("engine.direct.queries").inc();
        m.counter("engine.direct.steps").add(search.stats.steps);
        m.counter("engine.direct.clause_attempts")
            .add(search.stats.clause_attempts);
        m.counter("engine.direct.piece_matches")
            .add(search.stats.piece_matches);
        m.counter("engine.direct.residuals")
            .add(search.stats.residuals);
        m.counter("engine.direct.loop_prunes")
            .add(search.stats.loop_prunes);
        let idx = self.program.preds.index_stats();
        m.counter("folog.index.builds").add(idx.builds - idx_before.builds);
        m.counter("folog.index.extends")
            .add(idx.extends - idx_before.extends);
        m.counter("folog.index.hits").add(idx.hits - idx_before.hits);
        m.counter("folog.index.misses").add(idx.misses - idx_before.misses);
        Ok(DirectResult {
            answers,
            stats: search.stats,
            complete,
            degradation,
            per_rule: search.per_rule,
        })
    }
}

/// Reconstructs a runtime term from a ground interned term.
pub fn rterm_of_ground(terms: &TermStore, id: TermId) -> RTerm {
    match terms.get(id) {
        folog::GroundTerm::Const(c) => RTerm::Const(c),
        folog::GroundTerm::App(f, args) => RTerm::App(
            f,
            args.iter().map(|&a| rterm_of_ground(terms, a)).collect(),
        ),
    }
}

/// Looks up the interned id of a resolved ground runtime term without
/// inserting; `None` when non-ground or never interned (hence not in any
/// store).
pub fn ground_lookup(terms: &TermStore, t: &RTerm) -> Option<TermId> {
    match t {
        RTerm::Var(_) => None,
        RTerm::Const(c) => terms.lookup(folog::GroundTerm::Const(*c)),
        RTerm::App(f, args) => {
            let mut ids = Vec::with_capacity(args.len());
            for a in args {
                ids.push(ground_lookup(terms, a)?);
            }
            terms.lookup(folog::GroundTerm::App(*f, &ids))
        }
    }
}

impl Search<'_> {
    /// Records an engine-local truncation (branch prune, search continues).
    fn cut(&mut self, kind: TripKind) {
        self.truncated = true;
        if self.trunc.is_none() {
            self.trunc = Some(kind);
        }
    }

    fn limits_ok(&mut self, depth: usize) -> bool {
        if self.opts.max_depth.is_some_and(|m| depth > m) {
            self.cut(TripKind::Depth);
            return false;
        }
        if self.opts.max_steps.is_some_and(|m| self.stats.steps > m) {
            self.cut(TripKind::Steps);
            return false;
        }
        // Direct-resolution steps are heavyweight (store scans, variant
        // checks over growing goals), so the deadline is checked unmasked
        // on every step rather than at the meter's coarse tick interval.
        if !self.meter.tick() || !self.meter.check_time_and_cancel() {
            // Budget trip: latch and unwind the whole search.
            self.truncated = true;
            return false;
        }
        true
    }

    /// Returns `Ok(false)` to stop the whole search (solution cap).
    fn solve(
        &mut self,
        goals: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        let Some((goal, rest)) = goals.split_first() else {
            emit(&self.bind);
            self.emitted += 1;
            return Ok(self.opts.max_solutions.is_none_or(|m| self.emitted < m));
        };
        if matches!(goal, Goal::Exit) {
            return self.exit(rest, depth, emit);
        }
        if !self.limits_ok(depth) {
            return Ok(true);
        }
        self.stats.steps += 1;
        match goal {
            Goal::Exit => unreachable!("exits take no step"),
            Goal::Pred { pred, args } => self.solve_pred(*pred, args, rest, depth, emit),
            Goal::Mol(m) => self.solve_mol(m, rest, depth, emit),
            Goal::Neg(inner) => {
                // NAF: the inner conjunction must be ground under the
                // current bindings, and must have no solution.
                if !self.goals_ground(inner) {
                    return Err(BuiltinError::Floundered(
                        inner
                            .iter()
                            .map(|g| g.to_string())
                            .collect::<Vec<_>>()
                            .join(", "),
                    ));
                }
                if self.exists(inner, depth)? {
                    Ok(true)
                } else {
                    self.solve(rest, depth, emit)
                }
            }
        }
    }

    /// Solves `rest`, the continuation of the innermost goal under
    /// clause resolution, with that goal no longer in progress: a
    /// variant of it there is a repeat, not a loop.
    fn exit(
        &mut self,
        rest: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        let done = self.in_progress.pop();
        let cont = self.solve(rest, depth, emit);
        self.in_progress.extend(done);
        cont
    }

    /// Whether every term of every goal is ground under current bindings.
    fn goals_ground(&self, goals: &[Goal]) -> bool {
        let term_ground = |t: &RTerm| self.bind.resolve(t).is_ground();
        goals.iter().all(|g| match g {
            Goal::Mol(m) => term_ground(&m.id) && m.specs.iter().all(|(_, v)| term_ground(v)),
            Goal::Pred { args, .. } => args.iter().all(term_ground),
            Goal::Neg(_) => true, // nested negation checked when selected
            Goal::Exit => true,
        })
    }

    /// Existence sub-search: does the conjunction have any solution?
    /// Bindings are restored afterwards; limits are shared.
    fn exists(&mut self, goals: &[Goal], depth: usize) -> Result<bool, BuiltinError> {
        let saved_emitted = self.emitted;
        let saved_max = self.opts.max_solutions;
        self.emitted = 0;
        self.opts.max_solutions = Some(1);
        let cp = self.bind.checkpoint();
        self.solve(goals, depth + 1, &mut |_| {})?;
        let found = self.emitted > 0;
        self.bind.rollback(cp);
        self.emitted = saved_emitted;
        self.opts.max_solutions = saved_max;
        Ok(found)
    }

    fn solve_pred(
        &mut self,
        pred: Symbol,
        args: &[RTerm],
        rest: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        // By symbol id: the set's own lookup compares strings.
        if self.p.builtins.iter().any(|&b| b == pred) {
            let goal = RAtom {
                pred,
                args: args.to_vec(),
            };
            let cp = self.bind.checkpoint();
            let ok = folog::builtins::solve(&goal, &mut self.bind)?;
            let cont = if ok {
                self.solve(rest, depth, emit)?
            } else {
                true
            };
            self.bind.rollback(cp);
            return Ok(cont);
        }
        // Extensional tuples, selected through the relation's pattern
        // index: every argument ground under the current bindings pins
        // its position. A ground argument that was never interned cannot
        // equal any stored value, so the whole branch is skipped.
        if let Some(rel) = self.p.preds.relation(pred, args.len()) {
            let mut keys: Vec<folog::IndexKey> = Vec::new();
            let mut unmatchable = false;
            for (i, a) in args.iter().enumerate() {
                let r = self.bind.resolve(a);
                if r.is_ground() {
                    match ground_lookup(&self.p.terms, &r) {
                        Some(id) => keys.push(folog::IndexKey::Exact(i as u32, id)),
                        None => {
                            unmatchable = true;
                            break;
                        }
                    }
                }
            }
            if !unmatchable {
                let rows = rel.candidate_rows(
                    &keys,
                    0..rel.row_end(),
                    &self.p.terms,
                    self.p.preds.index_mode(),
                );
                for row in rows {
                    let tuple = rel.tuple(row);
                    let cp = self.bind.checkpoint();
                    self.stats.piece_matches += 1;
                    let ok = args.iter().zip(tuple).all(|(a, &id)| {
                        unify(a, &rterm_of_ground(&self.p.terms, id), &mut self.bind)
                    });
                    if ok && !self.solve(rest, depth + 1, emit)? {
                        self.bind.rollback(cp);
                        return Ok(false);
                    }
                    self.bind.rollback(cp);
                }
            }
        }
        // Intensional clauses with predicate heads.
        if self.p.intensional_preds.contains(&pred) {
            for ci in 0..self.p.clauses.len() {
                let clause = &self.p.clauses[ci];
                for (hi, head) in clause.heads.iter().enumerate() {
                    let Goal::Pred {
                        pred: hp,
                        args: hargs,
                    } = head
                    else {
                        continue;
                    };
                    if *hp != pred || hargs.len() != args.len() {
                        continue;
                    }
                    self.stats.clause_attempts += 1;
                    let offset = self.next_var;
                    let cp = self.bind.checkpoint();
                    let ok = args
                        .iter()
                        .zip(hargs)
                        .all(|(a, h)| unify(a, &shift_term(h, offset), &mut self.bind));
                    if ok {
                        self.bump_rule(ci);
                        let saved = self.next_var;
                        self.next_var += clause.n_vars;
                        let mut new_goals: Vec<Goal> =
                            Vec::with_capacity(clause.body.len() + rest.len());
                        new_goals.extend(clause.body.iter().map(|b| shift_goal(b, offset)));
                        new_goals.extend_from_slice(rest);
                        let cont = self.solve(&new_goals, depth + 1, emit)?;
                        self.next_var = self.next_var.max(saved);
                        if !cont {
                            self.bind.rollback(cp);
                            return Ok(false);
                        }
                    }
                    self.bind.rollback(cp);
                    let _ = hi;
                }
            }
        }
        Ok(true)
    }

    fn solve_mol(
        &mut self,
        g: &MolGoal,
        rest: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        // (A) The clustered store.
        if !g.rules_only {
            if !self.solve_mol_store(g, rest, depth, emit)? {
                return Ok(false);
            }
            // The store held this very object with the goal's type, so
            // it took every piece from the store and, through residuals,
            // from the rules: a head covering the type adds nothing.
            // (`solve_mol_clauses_inner` skips such heads one by one when
            // the goal names no object.)
            if self.stored_with_type(g) {
                return Ok(true);
            }
        }
        // (B) Clause heads.
        self.solve_mol_clauses(g, rest, depth, emit)
    }

    /// Whether `g`'s identity is a ground object the store holds with
    /// `g`'s type.
    fn stored_with_type(&self, g: &MolGoal) -> bool {
        ground_lookup(&self.p.terms, &self.bind.resolve(&g.id))
            .is_some_and(|o| self.p.objects.has_type(o, g.ty, &self.p.hierarchy))
    }

    /// Candidate objects for a molecular goal, via the cheapest index.
    fn candidates(&mut self, g: &MolGoal) -> Vec<TermId> {
        let id = self.bind.resolve(&g.id);
        if id.is_ground() {
            return ground_lookup(&self.p.terms, &id).into_iter().collect();
        }
        if g.ty != object_type() {
            // Composite selection: when the goal also fixes a label to a
            // ground value, the (label, value) posting list intersected
            // with the type check is usually far smaller than the type
            // extent. Only provably answer-preserving cases qualify: the
            // type must not be rule-derivable (so membership in the
            // stored extent is mandatory) and the label must not be
            // intensional (so a store match is mandatory — the piece can
            // never residuate towards the rules).
            if !self.p.type_derivable(g.ty) {
                for (l, v) in &g.specs {
                    if self.p.intensional_labels.contains(l) {
                        continue;
                    }
                    let rv = self.bind.resolve(v);
                    if rv.is_ground() {
                        return match ground_lookup(&self.p.terms, &rv) {
                            Some(vid) => self
                                .p
                                .objects
                                .with_label_value(*l, vid)
                                .iter()
                                .copied()
                                .filter(|&o| self.p.objects.has_type(o, g.ty, &self.p.hierarchy))
                                .collect(),
                            None => Vec::new(), // value unknown to the store
                        };
                    }
                }
            }
            return self.p.objects.with_type(g.ty, &self.p.hierarchy);
        }
        // Ground label value? Its posting list holds every object the
        // store path owes an answer only when the store must supply that
        // piece: no rule derives its label, or it is the selected (first)
        // piece, which otherwise a clause head covers.
        for (k, (l, v)) in g.specs.iter().enumerate() {
            if k > 0 && self.p.intensional_labels.contains(l) {
                continue;
            }
            let rv = self.bind.resolve(v);
            if rv.is_ground() {
                return match ground_lookup(&self.p.terms, &rv) {
                    Some(vid) => self.p.objects.with_label_value(*l, vid).to_vec(),
                    None => Vec::new(), // value unknown to the store
                };
            }
        }
        if let Some((l, _)) = g.specs.first() {
            return self.p.objects.with_label(*l).to_vec();
        }
        self.p.objects.identities().to_vec()
    }

    fn solve_mol_store(
        &mut self,
        g: &MolGoal,
        rest: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        let candidates = self.candidates(g);
        for oid in candidates {
            self.stats.store_candidates += 1;
            let cp = self.bind.checkpoint();
            if !unify(&g.id, &rterm_of_ground(&self.p.terms, oid), &mut self.bind) {
                self.bind.rollback(cp);
                continue;
            }
            let ty_covered = self.p.objects.has_type(oid, g.ty, &self.p.hierarchy);
            if !ty_covered && !self.p.type_derivable(g.ty) {
                self.bind.rollback(cp);
                continue;
            }
            let cont =
                self.cover_store_specs(g, oid, 0, ty_covered, &mut Vec::new(), rest, depth, emit)?;
            self.bind.rollback(cp);
            if !cont {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Covers `g.specs[i..]` against object `oid`'s record, residuating
    /// pieces the record lacks (when the rules could still derive them).
    #[allow(clippy::too_many_arguments)]
    fn cover_store_specs(
        &mut self,
        g: &MolGoal,
        oid: TermId,
        i: usize,
        ty_covered: bool,
        residual: &mut Vec<(Symbol, RTerm)>,
        rest: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        if i == g.specs.len() {
            let covered = usize::from(ty_covered) + (g.specs.len() - residual.len());
            if covered == 0 {
                // Nothing consumed: leave this goal entirely to the rules.
                return Ok(true);
            }
            let mut new_goals: Vec<Goal> = Vec::new();
            if !ty_covered || !residual.is_empty() {
                self.stats.residuals += 1;
                new_goals.push(Goal::Mol(MolGoal {
                    ty: if ty_covered { object_type() } else { g.ty },
                    id: g.id.clone(),
                    specs: residual.clone(),
                    rules_only: true,
                    skip_clause: g.skip_clause,
                }));
                // A fully-typed residual with no pieces is vacuous.
                if ty_covered && residual.is_empty() {
                    new_goals.clear();
                }
            }
            new_goals.extend_from_slice(rest);
            return self.solve(&new_goals, depth + 1, emit);
        }
        let (label, value) = &g.specs[i];
        let stored: Vec<TermId> = self
            .p
            .objects
            .record(oid)
            .map(|r| r.values(*label).to_vec())
            .unwrap_or_default();
        let mut matched_any = false;
        for v in stored {
            self.stats.piece_matches += 1;
            let cp = self.bind.checkpoint();
            if unify(value, &rterm_of_ground(&self.p.terms, v), &mut self.bind) {
                matched_any = true;
                if !self.cover_store_specs(
                    g,
                    oid,
                    i + 1,
                    ty_covered,
                    residual,
                    rest,
                    depth,
                    emit,
                )? {
                    self.bind.rollback(cp);
                    return Ok(false);
                }
            }
            self.bind.rollback(cp);
        }
        // Residuate this piece towards the rules, if they could derive it.
        // Pieces whose label is duplicated in the goal (the §5 subset
        // pattern, `children => {X, Y}`) residuate even when matched:
        // each duplicate may take its value from a different source. So
        // does an unbound piece: the rules may derive other values.
        let dup = g.specs.iter().filter(|(l, _)| l == label).count() > 1;
        let try_residual = self.p.intensional_labels.contains(label)
            && (self.opts.residuation == ResiduationMode::Full
                || !matched_any
                || dup
                || !self.bind.resolve(value).is_ground());
        if try_residual {
            residual.push((*label, value.clone()));
            let cont =
                self.cover_store_specs(g, oid, i + 1, ty_covered, residual, rest, depth, emit)?;
            residual.pop();
            return Ok(cont);
        }
        Ok(true)
    }

    /// The canonical (variant-normalized) form of a molecular goal under
    /// the current bindings: variables renumbered in first occurrence
    /// order, so two goals are variants iff their canonical forms are
    /// equal.
    fn canonical_mol(&self, g: &MolGoal) -> MolGoal {
        let mut map: HashMap<VarId, VarId> = HashMap::new();
        fn go(t: &RTerm, bind: &Bindings, map: &mut HashMap<VarId, VarId>) -> RTerm {
            let w = bind.walk(t).clone();
            match w {
                RTerm::Var(v) => {
                    let n = map.len() as VarId;
                    RTerm::Var(*map.entry(v).or_insert(n))
                }
                RTerm::Const(_) => w,
                RTerm::App(f, args) => {
                    RTerm::App(f, args.iter().map(|a| go(a, bind, map)).collect())
                }
            }
        }
        MolGoal {
            ty: g.ty,
            id: go(&g.id, &self.bind, &mut map),
            specs: g
                .specs
                .iter()
                .map(|(l, v)| (*l, go(v, &self.bind, &mut map)))
                .collect(),
            rules_only: false,
            skip_clause: g.skip_clause,
        }
    }

    fn solve_mol_clauses(
        &mut self,
        g: &MolGoal,
        rest: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        // Variant loop check: resolving a goal that is a variant of an
        // ancestor goal whose body or residual is being solved would
        // unroll the same derivations forever (e.g. `senior: X :- student:
        // X[…]` with `senior < student`). Prune it; answers reachable
        // only through such unrolling require the tabled strategy, and
        // the result is reported incomplete whenever pruning fired.
        let canon = self.canonical_mol(g);
        if self.in_progress.contains(&canon) {
            self.stats.loop_prunes += 1;
            return Ok(true);
        }
        self.in_progress.push(canon);
        let out = self.solve_mol_clauses_inner(g, rest, depth, emit);
        self.in_progress.pop();
        out
    }

    fn solve_mol_clauses_inner(
        &mut self,
        g: &MolGoal,
        rest: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        for (ci, clause) in self.p.clauses.iter().enumerate() {
            if g.skip_clause == Some(ci) {
                continue;
            }
            for head in &clause.heads {
                let Goal::Mol(h) = head else { continue };
                self.stats.clause_attempts += 1;
                let offset = self.next_var;
                let cp = self.bind.checkpoint();
                if !unify(&g.id, &shift_term(&h.id, offset), &mut self.bind) {
                    self.bind.rollback(cp);
                    continue;
                }
                // A head that names a stored object of the goal's type adds
                // nothing either: the store path's candidates for a typed
                // goal are the type's whole extent (see `solve_mol`).
                if !g.rules_only && g.ty != object_type() && self.stored_with_type(g) {
                    self.bind.rollback(cp);
                    continue;
                }
                // Ordered selection: the clause must cover the goal's
                // *selected* piece — the type piece when it is non-trivial
                // (`g.ty ≠ object`), otherwise the first label piece
                // (enforced inside `cover_clause_specs`). Pieces the head
                // cannot supply residuate in a canonical order, so a
                // description split across r sources is assembled once,
                // not once per source permutation. A goal whose type
                // piece this head cannot supply is resolved only after
                // another source covers the type (the residual is then
                // `object`-typed and selects its first label piece).
                let ty_covered = self.p.hierarchy.is_subtype(h.ty, g.ty);
                if !ty_covered {
                    self.bind.rollback(cp);
                    continue;
                }
                self.bump_rule(ci);
                let h_shifted: Vec<(Symbol, RTerm)> = h
                    .specs
                    .iter()
                    .map(|(l, v)| (*l, shift_term(v, offset)))
                    .collect();
                let saved = self.next_var;
                self.next_var += clause.n_vars;
                let body: Vec<Goal> = clause.body.iter().map(|b| shift_goal(b, offset)).collect();
                let cover = ClauseCover {
                    ci,
                    specs: &h_shifted,
                    body: &body,
                };
                let cont = self.cover_clause_specs(
                    g,
                    &cover,
                    0,
                    &mut Vec::new(),
                    &mut Covered::default(),
                    rest,
                    depth,
                    emit,
                )?;
                self.next_var = self.next_var.max(saved);
                self.bind.rollback(cp);
                if !cont {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Covers `g.specs[i..]` against a clause head's pieces; uncovered
    /// pieces residuate. Requires ≥ 1 covered piece overall (type counts).
    #[allow(clippy::too_many_arguments)]
    fn cover_clause_specs(
        &mut self,
        g: &MolGoal,
        cover: &ClauseCover<'_>,
        i: usize,
        residual: &mut Vec<(Symbol, RTerm)>,
        covered: &mut Covered,
        rest: &[Goal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        if i == g.specs.len() {
            // A trivially-satisfied `object` type piece is not progress
            // unless the goal is a bare existence check — otherwise a head
            // could "cover" nothing and residuate the same goal forever.
            // The head covered the type piece (`solve_mol_clauses_inner`
            // skips heads that cannot).
            let ty_progress = g.ty != object_type() || g.specs.is_empty();
            if covered.pieces + usize::from(ty_progress) == 0 {
                return Ok(true); // no progress through this head
            }
            let mut new_goals: Vec<Goal> = Vec::with_capacity(cover.body.len() + rest.len() + 2);
            new_goals.extend_from_slice(cover.body);
            if !residual.is_empty() {
                self.stats.residuals += 1;
                new_goals.push(Goal::Mol(MolGoal {
                    ty: object_type(),
                    id: g.id.clone(),
                    specs: residual.clone(),
                    // A residual of the store's residual stays off the
                    // store: the store has already offered every value
                    // it holds for these pieces. It also keeps skipping
                    // the clause that left them open, unless this head
                    // left some open itself.
                    rules_only: g.rules_only,
                    skip_clause: if covered.reopened > 0 {
                        Some(cover.ci)
                    } else {
                        g.skip_clause
                    },
                }));
            }
            new_goals.push(Goal::Exit);
            new_goals.extend_from_slice(rest);
            return self.solve(&new_goals, depth + 1, emit);
        }
        let (label, value) = &g.specs[i];
        let mut matched_any = false;
        // Whether a match bound a variable on either side, so that the
        // clause body decides the value.
        let mut open_match = false;
        let ground = self.bind.resolve(value).is_ground();
        for (hl, hv) in cover.specs {
            if hl != label {
                continue;
            }
            self.stats.piece_matches += 1;
            let cp = self.bind.checkpoint();
            let head_open = ground && !self.bind.resolve(hv).is_ground();
            if unify(value, hv, &mut self.bind) {
                matched_any = true;
                open_match |= !ground || head_open;
                covered.pieces += 1;
                let cont =
                    self.cover_clause_specs(g, cover, i + 1, residual, covered, rest, depth, emit)?;
                covered.pieces -= 1;
                if !cont {
                    self.bind.rollback(cp);
                    return Ok(false);
                }
            }
            self.bind.rollback(cp);
        }
        // Residuate this piece (some other source supplies it). The
        // selected piece — the first label piece of an `object`-typed
        // goal — must be covered by *this* head, never residuated:
        // that is what keeps residuation chains canonical. Duplicated
        // labels residuate even when matched (see `cover_store_specs`),
        // and so does a piece whose match bound a variable: another
        // source may hold another value, or hold this one where the
        // clause body fails for it. Under `OnFailure` such a piece goes
        // towards the other sources only: this clause's own values for
        // it were all tried above.
        let selectable = i > 0 || g.ty != object_type();
        let full = self.opts.residuation == ResiduationMode::Full;
        let dup = g.specs.iter().filter(|(l, _)| l == label).count() > 1;
        let reopened = selectable && open_match && !full && !dup;
        if selectable && (full || !matched_any || dup || reopened) {
            residual.push((*label, value.clone()));
            covered.reopened += usize::from(reopened);
            let cont =
                self.cover_clause_specs(g, cover, i + 1, residual, covered, rest, depth, emit)?;
            covered.reopened -= usize::from(reopened);
            residual.pop();
            return Ok(cont);
        }
        Ok(true)
    }
}

/// The clause head a molecular goal is being covered by.
struct ClauseCover<'a> {
    /// The clause's index, skipped by a residual of reopened pieces.
    ci: usize,
    /// The head's label pieces, shifted into the goal's variables.
    specs: &'a [(Symbol, RTerm)],
    /// The clause body, shifted likewise.
    body: &'a [Goal],
}

/// Counts kept while covering a goal's label pieces with one head.
#[derive(Default)]
struct Covered {
    /// Pieces the head covers.
    pieces: usize,
    /// Pieces the head matched but left to other sources.
    reopened: usize,
}

/// Shifts all variables in a goal by `offset`.
pub fn shift_goal(g: &Goal, offset: VarId) -> Goal {
    match g {
        Goal::Mol(m) => Goal::Mol(MolGoal {
            ty: m.ty,
            id: shift_term(&m.id, offset),
            specs: m
                .specs
                .iter()
                .map(|(l, v)| (*l, shift_term(v, offset)))
                .collect(),
            rules_only: m.rules_only,
            skip_clause: m.skip_clause,
        }),
        Goal::Pred { pred, args } => {
            let shifted = shift_atom(
                &RAtom {
                    pred: *pred,
                    args: args.clone(),
                },
                offset,
            );
            Goal::Pred {
                pred: shifted.pred,
                args: shifted.args,
            }
        }
        Goal::Neg(inner) => Goal::Neg(inner.iter().map(|g| shift_goal(g, offset)).collect()),
        Goal::Exit => Goal::Exit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::DirectProgram;
    use clogic_parser::{parse_program, parse_query};
    use folog::builtins::builtin_symbols;

    fn engine_answers(program: &str, query: &str) -> Vec<String> {
        let p = parse_program(program).unwrap();
        let dp = DirectProgram::compile(&p, builtin_symbols());
        let e = DirectEngine::new(&dp, DirectOptions::default());
        let r = e.solve(&parse_query(query).unwrap()).unwrap();
        assert!(r.complete, "search truncated");
        r.answers
            .iter()
            .map(|a| {
                a.iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect()
    }

    #[test]
    fn ground_molecule_against_merged_store() {
        // §4: piecewise facts about p; the cross query succeeds.
        let program = "path: p[src => a, dest => b].\npath: p[src => c, dest => d].";
        assert_eq!(
            engine_answers(program, "path: p[src => a, dest => d]"),
            vec![""]
        );
        assert_eq!(
            engine_answers(program, "path: p[src => a, dest => b]"),
            vec![""]
        );
        assert!(engine_answers(program, "path: p[src => z]").is_empty());
        assert!(engine_answers(program, "route: p[src => a]").is_empty());
    }

    #[test]
    fn open_query_enumerates_label_values() {
        let program = "path: p1[src => a, dest => b].\npath: p2[src => c, dest => d].";
        let answers = engine_answers(program, "path: X[src => S, dest => D]");
        assert_eq!(answers, vec!["D=b,S=a,X=p1", "D=d,S=c,X=p2"]);
    }

    #[test]
    fn subset_query_over_multivalued_label() {
        // §5: children => {X, Y} has 3×3 bindings.
        let program = "person: john[children => {bob, bill, joe}].";
        let answers = engine_answers(program, "person: john[children => {X, Y}]");
        assert_eq!(answers.len(), 9);
    }

    #[test]
    fn residuation_across_store_and_rules() {
        // One label pair comes from a fact, the other from a rule: naive
        // whole-molecule unification fails, residuation succeeds.
        let program = "path: p[src => a].\n\
                       dummy: k.\n\
                       path: p[dest => d] :- dummy: k.";
        assert_eq!(
            engine_answers(program, "path: p[src => a, dest => d]"),
            vec![""]
        );
        let open = engine_answers(program, "path: p[dest => D]");
        assert_eq!(open, vec!["D=d"]);
    }

    #[test]
    fn residuation_across_two_rules() {
        // "several rules, each of which deals with partial information
        // about the same object" (§4).
        let program = "seed: s.\n\
                       obj: o[a => 1] :- seed: s.\n\
                       obj: o[b => 2] :- seed: s.";
        assert_eq!(engine_answers(program, "obj: o[a => 1, b => 2]"), vec![""]);
        assert_eq!(
            engine_answers(program, "obj: o[a => A, b => B]"),
            vec!["A=1,B=2"]
        );
    }

    #[test]
    fn order_sorted_type_resolution() {
        let program = "propernp < noun_phrase.\n\
                       propernp: john.\n\
                       commonnp < noun_phrase.";
        assert_eq!(engine_answers(program, "noun_phrase: X"), vec!["X=john"]);
        assert_eq!(engine_answers(program, "propernp: X"), vec!["X=john"]);
        assert!(engine_answers(program, "commonnp: X").is_empty());
    }

    #[test]
    fn paper_noun_phrase_program() {
        // Example 3: the full grammar program, solved directly.
        let program = r#"
            name: john.
            name: bob.
            determiner: the[num => {singular, plural}, def => definite].
            determiner: a[num => singular, def => indef].
            determiner: all[num => plural, def => indef].
            noun: student[num => singular].
            noun: students[num => plural].
            propernp: X[pers => 3, num => singular, def => definite] :-
                name: X.
            commonnp: np(Det, Noun)[pers => 3, num => N, def => D] :-
                determiner: Det[num => N, def => D],
                noun: Noun[num => N].
            propernp < noun_phrase.
            commonnp < noun_phrase.
        "#;
        let answers = engine_answers(program, "noun_phrase: X[num => plural]");
        assert_eq!(answers, vec!["X=np(all, students)", "X=np(the, students)"]);
        // singular: john and bob (propernps), np(the, student), np(a, student)
        let singular = engine_answers(program, "noun_phrase: X[num => singular]");
        assert_eq!(
            singular,
            vec!["X=bob", "X=john", "X=np(a, student)", "X=np(the, student)"]
        );
    }

    #[test]
    fn skolemized_path_rules_with_arithmetic() {
        let program = r#"
            node: a[linkto => b].
            node: b[linkto => c].
            node: c[linkto => d].
            path: id(X, Y)[src => X, dest => Y, length => 1] :-
                node: X[linkto => Y].
            path: id(X, Y)[src => X, dest => Y, length => L] :-
                node: X[linkto => Z],
                path: id(Z, Y)[src => Z, dest => Y, length => LO],
                L is LO + 1.
        "#;
        let answers = engine_answers(program, "path: P[src => a, dest => d, length => L]");
        assert_eq!(answers, vec!["L=3,P=id(a, d)"]);
        let all = engine_answers(program, "path: P[src => a, dest => D]");
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn open_pieces_take_values_from_every_source() {
        // A stored value does not hide a rule-derived one...
        let program = "t1: c1[l1 => c2].\nX[l1 => c3] :- t1: X.";
        let answers = engine_answers(program, "t1: X[l1 => V]");
        assert_eq!(answers, vec!["V=c2,X=c1", "V=c3,X=c1"]);
        // ...nor does the value of the head that covers the type hide
        // another head's.
        let program = "t2: c2[l3 => c3].\n\
                       t3: c2[l1 => c5].\n\
                       r1: X[m1 => V] :- t2: X[l3 => V].\n\
                       r2: X[m1 => V] :- t3: X[l1 => V].";
        let answers = engine_answers(program, "r2: X[m1 => V]");
        assert_eq!(answers, vec!["V=c3,X=c2", "V=c5,X=c2"]);
        // ...and a piece a head left open does not lead back to that
        // head through the store, where the loop check would prune it.
        let program = "t1: c1[l2 => c1].\n\
                       r1: X[m1 => V] :- t3: X[l2 => V].\n\
                       t3: X :- t1: X.";
        assert_eq!(engine_answers(program, "r1: c1[m1 => U]"), vec!["U=c1"]);
        // A ground piece a head variable matched is not settled either:
        // `r1` holds for c5 through the first rule, whose body fails for
        // `m1 => c2`, which the second rule supplies.
        let program = "t2: c5[l1 => c4, l2 => c2].\n\
                       r1: X[m1 => V] :- t2: X[l1 => V].\n\
                       r2: X[m1 => V] :- t2: X[l2 => V].";
        assert_eq!(engine_answers(program, "r1: X[m1 => c2]"), vec!["X=c5"]);
        // A ground piece a rule derives does not pick the candidates of
        // an `object` goal whose first piece the store holds.
        let program = "t2: c1[l1 => c3, l2 => c1].\n\
                       r1: X[m2 => V] :- t2: X[l2 => V].";
        let answers = engine_answers(program, "object: X[l1 => V, m2 => c1]");
        assert_eq!(answers, vec!["V=c3,X=c1"]);
    }

    #[test]
    fn a_repeat_in_the_continuation_is_no_loop() {
        // Both rules' bodies resolve `t3: c5` through `t3: X :- t2: X`;
        // the second does so after the first's body is done.
        let program = "t2: c5[l1 => a, l2 => b].\n\
                       t3: X :- t2: X.\n\
                       r: X[m2 => V] :- t3: X[l1 => V].\n\
                       r: X[m3 => V] :- t3: X[l2 => V].";
        let answers = engine_answers(program, "r: c5[m2 => U, m3 => W]");
        assert_eq!(answers, vec!["U=a,W=b"]);
    }

    #[test]
    fn predicate_goals_and_builtins() {
        let program = "likes(john, tea).\nlikes(bob, coffee).\n\
                       strange(X) :- likes(X, coffee).";
        assert_eq!(engine_answers(program, "likes(john, X)"), vec!["X=tea"]);
        assert_eq!(engine_answers(program, "strange(X)"), vec!["X=bob"]);
        assert_eq!(
            engine_answers(program, "likes(X, Y), X \\= john"),
            vec!["X=bob,Y=coffee"]
        );
        let program2 = "n(3).";
        assert_eq!(
            engine_answers(program2, "n(X), Y is X * X + 1"),
            vec!["X=3,Y=10"]
        );
    }

    #[test]
    fn nested_molecule_query() {
        let program = "person: john[spouse => mary].\nperson: mary[age => 27].";
        assert_eq!(
            engine_answers(program, "person: john[spouse => mary[age => 27]]"),
            vec![""]
        );
        assert!(engine_answers(program, "person: john[spouse => mary[age => 30]]").is_empty());
    }

    #[test]
    fn dynamic_types_via_rules() {
        // A type derived by rule, then queried with a label from a fact.
        let program = "thing: t[color => red].\n\
                       special: X :- thing: X[color => red].";
        assert_eq!(engine_answers(program, "special: X"), vec!["X=t"]);
        // combining the rule-derived type with the stored label
        assert_eq!(
            engine_answers(program, "special: X[color => red]"),
            vec!["X=t"]
        );
    }

    #[test]
    fn bare_object_queries() {
        let program = "person: john[age => 28].";
        let all = engine_answers(program, "object: X");
        // john, 28 are both objects
        assert_eq!(all.len(), 2);
        assert_eq!(engine_answers(program, "object: john"), vec![""]);
        assert!(engine_answers(program, "object: ghost").is_empty());
    }

    #[test]
    fn stats_and_limits() {
        let p = parse_program(
            "edge: a[to => b].\nedge: b[to => a].\n\
                               reach: X[to => Y] :- edge: X[to => Y].\n\
                               reach: X[to => Y] :- edge: X[to => Z], reach: Z[to => Y].",
        )
        .unwrap();
        let dp = DirectProgram::compile(&p, builtin_symbols());
        let e = DirectEngine::new(
            &dp,
            DirectOptions {
                max_depth: Some(30),
                max_steps: Some(5_000),
                ..Default::default()
            },
        );
        let r = e.solve(&parse_query("reach: a[to => Y]").unwrap()).unwrap();
        // cyclic recursion: finds answers but cannot exhaust the tree
        assert!(!r.answers.is_empty());
        assert!(!r.complete);
        assert!(r.stats.steps > 0);
        assert!(r.stats.clause_attempts > 0);
        let d = r.degradation.expect("degradation report");
        assert_eq!(d.strategy, "direct");
        assert!(d.work > 0);
    }

    #[test]
    fn budget_deadline_degrades_gracefully() {
        // Recursion over skolemized ids diverges without the variant loop
        // check catching it (each unrolled subgoal `t: next(next(…))` is
        // structurally fresh); a deadline budget must stop it with the
        // partial answers found before the trip.
        let p = parse_program(
            "t: a.\n\
             t: X :- t: next(X).",
        )
        .unwrap();
        let dp = DirectProgram::compile(&p, builtin_symbols());
        let e = DirectEngine::new(
            &dp,
            DirectOptions {
                max_depth: None,
                max_steps: None,
                budget: Budget::with_deadline(std::time::Duration::from_millis(20)),
                ..Default::default()
            },
        );
        let start = std::time::Instant::now();
        let r = e.solve(&parse_query("t: X").unwrap()).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert!(!r.complete);
        assert!(!r.answers.is_empty());
        let d = r.degradation.expect("degradation report");
        assert_eq!(d.trip, TripKind::Deadline);
        assert_eq!(d.strategy, "direct");
    }

    #[test]
    fn max_solutions_cap() {
        let p = parse_program("t: a.\nt: b.\nt: c.").unwrap();
        let dp = DirectProgram::compile(&p, builtin_symbols());
        let e = DirectEngine::new(
            &dp,
            DirectOptions {
                max_solutions: Some(2),
                ..Default::default()
            },
        );
        let r = e.solve(&parse_query("t: X").unwrap()).unwrap();
        assert_eq!(r.answers.len(), 2);
        assert!(!r.complete);
        assert_eq!(
            r.degradation.expect("degradation report").trip,
            TripKind::Solutions
        );
    }

    #[test]
    fn ground_lookup_and_rterm_roundtrip() {
        let mut ts = TermStore::new();
        let t = RTerm::App(
            clogic_core::sym("id"),
            vec![
                RTerm::Const(clogic_core::Const::Sym(clogic_core::sym("a"))),
                RTerm::Const(clogic_core::Const::Int(1)),
            ],
        );
        assert_eq!(ground_lookup(&ts, &t), None);
        let a = ts.intern_const(clogic_core::Const::Sym(clogic_core::sym("a")));
        let one = ts.intern_const(clogic_core::Const::Int(1));
        let id = ts.intern_app(clogic_core::sym("id"), &[a, one]);
        assert_eq!(ground_lookup(&ts, &t), Some(id));
        assert_eq!(rterm_of_ground(&ts, id), t);
        assert_eq!(ground_lookup(&ts, &RTerm::Var(0)), None);
    }
}

#[cfg(test)]
mod residuation_mode_tests {
    use super::*;
    use crate::goal::DirectProgram;
    use clogic_parser::{parse_program, parse_query};
    use folog::builtins::builtin_symbols;

    fn answers(program: &str, query: &str, mode: ResiduationMode) -> (Vec<String>, DirectStats) {
        let p = parse_program(program).unwrap();
        let dp = DirectProgram::compile(&p, builtin_symbols());
        let opts = DirectOptions {
            residuation: mode,
            ..DirectOptions::default()
        };
        let r = DirectEngine::new(&dp, opts)
            .solve(&parse_query(query).unwrap())
            .unwrap();
        (
            r.answers
                .iter()
                .map(|a| {
                    a.iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect(),
            r.stats,
        )
    }

    const SPLIT: &str = "seed: s.\n\
                         obj: o[a => 1] :- seed: s.\n\
                         obj: o[a => 2] :- seed: s.\n\
                         obj: o[b => 9] :- seed: s.";

    #[test]
    fn full_and_on_failure_agree_here() {
        // Multi-valued intensional label + distinct-label piece: both
        // modes find all four (A, B) combinations.
        let q = "obj: o[a => A, b => B]";
        let (on_failure, s1) = answers(SPLIT, q, ResiduationMode::OnFailure);
        let (full, s2) = answers(SPLIT, q, ResiduationMode::Full);
        assert_eq!(on_failure, vec!["A=1,B=9", "A=2,B=9"]);
        assert_eq!(full, on_failure);
        // Full explores at least as many residuals.
        assert!(s2.residuals >= s1.residuals);
    }

    #[test]
    fn duplicate_labels_complete_in_both_modes() {
        // a => {X, Y} over two rule sources: 4 combinations.
        let q = "obj: o[a => X, a => Y]";
        let (on_failure, _) = answers(SPLIT, q, ResiduationMode::OnFailure);
        let (full, _) = answers(SPLIT, q, ResiduationMode::Full);
        assert_eq!(on_failure.len(), 4, "{on_failure:?}");
        assert_eq!(full, on_failure);
    }

    #[test]
    fn loop_prunes_reported_incomplete() {
        // senior < student + senior rule: the variant loop check fires.
        let src = "student: ann[credits => 24].\n\
                   senior < student.\n\
                   senior: X :- student: X[credits => C], C >= 18.";
        let p = parse_program(src).unwrap();
        let dp = DirectProgram::compile(&p, builtin_symbols());
        let r = DirectEngine::new(&dp, DirectOptions::default())
            .solve(&parse_query("student: X[credits => C]").unwrap())
            .unwrap();
        assert_eq!(r.answers.len(), 1);
        assert!(r.stats.loop_prunes > 0);
        assert!(!r.complete);
        assert_eq!(
            r.degradation.expect("degradation report").trip,
            TripKind::VariantLoop
        );
    }
}
