//! Tabled evaluation: goal-directed top-down resolution that terminates
//! where plain SLD loops.
//!
//! Recursive programs such as the paper's `path` rules make SLD diverge on
//! cyclic data. Tabling memoizes answers per *variant subgoal*: every
//! derivable predicate is tabled, each table's answers are produced by
//! one-clause-deep resolution in which tabled subgoals consume answers
//! from their own tables, and the whole table space is iterated to a
//! fixpoint (answers only grow, so this converges whenever the answer set
//! is finite — always, for datalog). This is the classic OLDT/DRA scheme
//! in its simplest correct form, chosen over suspended-consumer SLG for
//! clarity; the asymptotics match.

use crate::budget::{Budget, BudgetMeter, Degradation, TripKind};
use crate::builtins::BuiltinError;
use crate::program::{shift_atom, ClauseOverlay, ClauseView, CompiledProgram};
use crate::rterm::{RAtom, RTerm, VarId};
use crate::sips::bound_first;
use crate::sld::fo_of_rterm;
use crate::unify::{unify_atoms, Bindings};
use clogic_core::fol::{FoAtom, FoTerm};
use clogic_core::symbol::Symbol;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Options for tabled evaluation.
///
/// Hitting `max_answers` or any [`budget`](Self::budget) ceiling degrades
/// gracefully: the answers derived so far are returned with
/// `complete: false` and a [`Degradation`] report.
#[derive(Clone, Debug)]
pub struct TablingOptions {
    /// Stop expanding once the total number of answers across all tables
    /// exceeds this, if set — the guard against programs with genuinely
    /// infinite answer sets (e.g. unbounded path lengths on a cycle).
    pub max_answers: Option<usize>,
    /// Shared resource ceilings (deadline, steps, memory, cancellation).
    pub budget: Budget,
    /// Observability handles; counter deltas are flushed once per solve,
    /// never from the production loop.
    pub obs: clogic_obs::Obs,
}

impl Default for TablingOptions {
    fn default() -> Self {
        TablingOptions {
            max_answers: Some(1_000_000),
            budget: Budget::unlimited(),
            obs: clogic_obs::Obs::default(),
        }
    }
}

/// Counters for a tabled run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TablingStats {
    /// Distinct variant subgoals tabled.
    pub tables_created: usize,
    /// Total answers across all tables.
    pub answers: usize,
    /// Fixpoint passes over the table space.
    pub passes: usize,
    /// Clause activations attempted.
    pub clause_activations: u64,
}

/// Tabled evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TablingError {
    /// A built-in raised an error.
    Builtin(BuiltinError),
    /// The program uses negation, which the tabled engine does not
    /// support (use stratified bottom-up or SLD).
    NegationUnsupported,
}

impl std::fmt::Display for TablingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TablingError::Builtin(e) => write!(f, "builtin error: {e}"),
            TablingError::NegationUnsupported => {
                write!(f, "tabled evaluation does not support negation")
            }
        }
    }
}

impl std::error::Error for TablingError {}

impl From<BuiltinError> for TablingError {
    fn from(e: BuiltinError) -> TablingError {
        TablingError::Builtin(e)
    }
}

/// The result of a tabled run.
#[derive(Clone, Debug)]
pub struct TabledResult {
    /// Answers: query-variable name → term.
    pub answers: Vec<BTreeMap<Symbol, FoTerm>>,
    /// Counters.
    pub stats: TablingStats,
    /// True iff the table space reached its fixpoint within the limits.
    pub complete: bool,
    /// Why evaluation stopped early, when `complete` is false.
    pub degradation: Option<Degradation>,
    /// Table answers produced per clause, indexed by the clause's position
    /// in the compiled program. The synthetic `__query` wrapper rule is
    /// one past the program's last clause. (Lives on the result, not
    /// [`TablingStats`], which stays `Copy`.)
    pub per_rule: Vec<u64>,
}

/// Canonical (variant-normalized) form of a goal: variables renumbered in
/// first-occurrence order.
fn canonicalize(goal: &RAtom, bind: &Bindings) -> RAtom {
    let mut map: HashMap<VarId, VarId> = HashMap::new();
    fn go(t: &RTerm, bind: &Bindings, map: &mut HashMap<VarId, VarId>) -> RTerm {
        let w = bind.walk(t).clone();
        match w {
            RTerm::Var(v) => {
                let n = map.len() as VarId;
                RTerm::Var(*map.entry(v).or_insert(n))
            }
            RTerm::Const(_) => w,
            RTerm::App(f, args) => RTerm::App(f, args.iter().map(|a| go(a, bind, map)).collect()),
        }
    }
    RAtom {
        pred: goal.pred,
        args: goal.args.iter().map(|a| go(a, bind, &mut map)).collect(),
    }
}

#[derive(Clone, Debug, Default)]
struct Table {
    /// Ground (or maximally instantiated) instances of the canonical goal.
    answers: Vec<RAtom>,
    seen: HashSet<RAtom>,
}

/// The tabled engine, over a compiled program or any [`ClauseView`].
pub struct TabledEngine<'p, P: ClauseView = CompiledProgram> {
    program: &'p P,
    opts: TablingOptions,
}

struct TableSpace {
    tables: HashMap<RAtom, Table>,
    /// Keys in creation order, so fixpoint passes are deterministic.
    order: Vec<RAtom>,
    /// producer table → consumer tables that read its answers.
    consumers: HashMap<RAtom, HashSet<RAtom>>,
    /// Tables that gained answers during the current pass.
    gained: HashSet<RAtom>,
    stats: TablingStats,
    opts: TablingOptions,
    meter: BudgetMeter,
    per_rule: Vec<u64>,
}

impl TableSpace {
    fn ensure(&mut self, key: RAtom) -> bool {
        if self.tables.contains_key(&key) {
            return false;
        }
        self.tables.insert(key.clone(), Table::default());
        self.order.push(key);
        self.stats.tables_created += 1;
        true
    }

    fn add_answer(&mut self, key: &RAtom, answer: RAtom) -> bool {
        let table = self.tables.get_mut(key).expect("table exists");
        if table.seen.contains(&answer) {
            return false;
        }
        table.seen.insert(answer.clone());
        table.answers.push(answer);
        self.gained.insert(key.clone());
        self.stats.answers += 1;
        // The answer that crossed the ceiling is kept; production stops
        // at the next check point.
        let effective_max = match (self.opts.max_answers, self.meter.budget().max_facts) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        if effective_max.is_some_and(|m| self.stats.answers > m) {
            self.meter.trip(TripKind::Answers);
        }
        true
    }
}

impl<'p, P: ClauseView> TabledEngine<'p, P> {
    /// Creates an engine.
    pub fn new(program: &'p P, opts: TablingOptions) -> TabledEngine<'p, P> {
        TabledEngine { program, opts }
    }

    /// Whether any rule using negation is reachable from the query goals
    /// through the predicate-dependency graph.
    fn negation_reachable(&self, goals: &[FoAtom]) -> bool {
        use std::collections::VecDeque;
        let mut seen: HashSet<(Symbol, usize)> = HashSet::new();
        let mut queue: VecDeque<(Symbol, usize)> = VecDeque::new();
        for g in goals {
            if seen.insert((g.pred, g.arity())) {
                queue.push_back((g.pred, g.arity()));
            }
        }
        while let Some((pred, arity)) = queue.pop_front() {
            for ri in self.program.rules_for(pred, arity) {
                let rule = self.program.rule(ri);
                if rule.has_negation() {
                    return true;
                }
                for b in &rule.body {
                    let key = (b.pred, b.args.len());
                    if !self.program.is_builtin(b.pred) && seen.insert(key) {
                        queue.push_back(key);
                    }
                }
            }
        }
        false
    }

    /// Solves a conjunctive query. Internally wraps the query in a
    /// synthetic `__query(V1,…,Vk)` rule, tables it alongside the
    /// program's own predicates, and reads the answers off its table.
    pub fn solve(&self, goals: &[FoAtom]) -> Result<TabledResult, TablingError> {
        // Negation is unsupported — but only rules *reachable* from the
        // query matter; an unrelated negated rule elsewhere in the
        // program is fine.
        if self.negation_reachable(goals) {
            return Err(TablingError::NegationUnsupported);
        }
        // Collect query variables in sorted order.
        let mut var_set = std::collections::BTreeSet::new();
        for g in goals {
            g.collect_vars(&mut var_set);
        }
        let vars: Vec<Symbol> = var_set.into_iter().collect();
        let query_pred = Symbol::new("__query");
        // The synthetic `__query` wrapper lives in a private overlay tail
        // (index one past the program's last clause, as before) — the
        // shared program itself is never cloned or mutated. Its body is
        // the query ordered bound-first, so the first call carries the
        // query's constants. Rule bodies keep source order: ordering them
        // per call pattern made no fewer activations and cost more time.
        let mut program = ClauseOverlay::new(self.program);
        let head = FoAtom::new(query_pred, vars.iter().map(|&v| FoTerm::Var(v)).collect());
        let body = bound_first(goals, &HashSet::new(), |p| self.program.is_builtin(p));
        program.push_clause(&clogic_core::fol::FoClause::rule(
            head,
            body.into_iter().cloned().collect(),
        ));

        let mut space = TableSpace {
            tables: HashMap::new(),
            order: Vec::new(),
            consumers: HashMap::new(),
            gained: HashSet::new(),
            stats: TablingStats::default(),
            opts: self.opts.clone(),
            meter: BudgetMeter::new(&self.opts.budget),
            per_rule: Vec::new(),
        };
        let mut span = self
            .opts
            .obs
            .tracer
            .span_with("folog.tabling.solve", vec![("goals", goals.len().into())]);
        let root = RAtom {
            pred: query_pred,
            args: (0..vars.len()).map(|i| RTerm::Var(i as VarId)).collect(),
        };
        space.ensure(root.clone());

        // Iterate the table space to fixpoint, recomputing in each pass
        // only the tables whose consumed producers gained answers in the
        // previous pass (plus tables never produced yet).
        let mut dirty: HashSet<RAtom> = [root.clone()].into_iter().collect();
        loop {
            // Pass boundary: prompt deadline/cancel check plus an
            // approximate memory check (answer atoms dominate).
            if !space.meter.check_time_and_cancel()
                || !space.meter.check_memory(space.stats.answers * 96)
                || space.meter.tripped().is_some()
            {
                break;
            }
            space.stats.passes += 1;
            space.gained.clear();
            let before_tables = space.order.len();
            let mut i = 0;
            while i < space.order.len() {
                let key = space.order[i].clone();
                let is_new = i >= before_tables;
                if is_new || dirty.contains(&key) {
                    self.produce(&program, &key, &mut space)?;
                }
                if space.meter.tripped().is_some() {
                    break;
                }
                i += 1;
            }
            // Next pass: consumers of tables that gained answers.
            dirty = space
                .gained
                .iter()
                .filter_map(|g| space.consumers.get(g))
                .flatten()
                .cloned()
                .collect();
            if dirty.is_empty() && space.gained.is_empty() {
                break;
            }
        }

        let table = &space.tables[&root];
        let mut answers: Vec<BTreeMap<Symbol, FoTerm>> = table
            .answers
            .iter()
            .map(|a| {
                vars.iter()
                    .zip(&a.args)
                    .map(|(&v, t)| (v, fo_of_rterm(t)))
                    .collect()
            })
            .collect();
        answers.sort();
        answers.dedup();
        let complete = space.meter.tripped().is_none();
        let degradation = space.meter.tripped().map(|trip| {
            space.meter.degradation_for(
                trip,
                "tabled",
                space.stats.answers as u64,
                format!(
                    "{trip} after {} passes, {} tables, {} answers",
                    space.stats.passes, space.stats.tables_created, space.stats.answers
                ),
            )
        });
        span.record("tables", space.stats.tables_created);
        span.record("passes", space.stats.passes);
        span.record("answers", space.stats.answers);
        span.record("complete", u64::from(complete));
        drop(span);
        let m = &self.opts.obs.metrics;
        m.counter("folog.tabling.queries").inc();
        m.counter("folog.tabling.tables_created")
            .add(space.stats.tables_created as u64);
        m.counter("folog.tabling.answers")
            .add(space.stats.answers as u64);
        m.counter("folog.tabling.clause_activations")
            .add(space.stats.clause_activations);
        m.histogram("folog.tabling.passes")
            .observe(space.stats.passes as u64);
        Ok(TabledResult {
            answers,
            stats: space.stats,
            complete,
            degradation,
            per_rule: space.per_rule,
        })
    }

    /// One production pass for a table: resolve the canonical goal against
    /// every matching clause, consuming subgoal answers from tables.
    /// Returns whether any new answer (or table) appeared.
    fn produce<Q: ClauseView>(
        &self,
        program: &Q,
        key: &RAtom,
        space: &mut TableSpace,
    ) -> Result<bool, TablingError> {
        let mut changed = false;
        // Variables of the canonical goal occupy 0..n; clause activations
        // start above them.
        let mut max_var: VarId = 0;
        let mut vs = Vec::new();
        for a in &key.args {
            a.collect_vars(&mut vs);
        }
        for v in vs {
            max_var = max_var.max(v + 1);
        }
        // Canonical goals are already resolved, so argument keys read
        // straight off the args; every bound position is offered and
        // `candidates_bound` selects through the most selective one.
        let keys: Vec<(u32, crate::program::ArgKey)> = key
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, a)| crate::program::arg_key(a).map(|k| (i as u32, k)))
            .collect();
        let candidates = program.candidates_bound(key.pred, key.args.len(), &keys);
        for ci in candidates {
            if !space.meter.tick() {
                return Ok(changed);
            }
            let rule = program.rule(ci);
            space.stats.clause_activations += 1;
            let mut bind = Bindings::new();
            let head = shift_atom(&rule.head, max_var);
            if !unify_atoms(key, &head, &mut bind) {
                continue;
            }
            let body: Vec<RAtom> = rule.body.iter().map(|b| shift_atom(b, max_var)).collect();
            let mut next_var = max_var + rule.n_vars;
            changed |=
                self.solve_body(program, key, ci, &body, 0, &mut bind, &mut next_var, space)?;
        }
        Ok(changed)
    }

    #[allow(clippy::too_many_arguments)]
    fn solve_body<Q: ClauseView>(
        &self,
        program: &Q,
        key: &RAtom,
        ci: usize,
        body: &[RAtom],
        i: usize,
        bind: &mut Bindings,
        next_var: &mut VarId,
        space: &mut TableSpace,
    ) -> Result<bool, TablingError> {
        if i == body.len() {
            // Instantiate the goal as an answer.
            let answer = RAtom {
                pred: key.pred,
                args: key.args.iter().map(|a| bind.resolve(a)).collect(),
            };
            let added = space.add_answer(key, answer);
            if added {
                if space.per_rule.len() <= ci {
                    space.per_rule.resize(ci + 1, 0);
                }
                space.per_rule[ci] += 1;
            }
            return Ok(added);
        }
        let goal = &body[i];
        if program.is_builtin(goal.pred) {
            let cp = bind.checkpoint();
            let ok = crate::builtins::solve(goal, bind)?;
            let mut changed = false;
            if ok {
                changed = self.solve_body(program, key, ci, body, i + 1, bind, next_var, space)?;
            }
            bind.rollback(cp);
            return Ok(changed);
        }
        // Tabled subgoal: consult (and create) its table.
        let sub_key = canonicalize(goal, bind);
        space
            .consumers
            .entry(sub_key.clone())
            .or_default()
            .insert(key.clone());
        let mut changed = space.ensure(sub_key.clone());
        // Consume a snapshot of current answers.
        let answers: Vec<RAtom> = space.tables[&sub_key].answers.clone();
        for ans in answers {
            if !space.meter.tick() {
                return Ok(changed);
            }
            let cp = bind.checkpoint();
            // Answers are canonical-variable instances: shift their
            // variables out of the way before unifying.
            let shifted = shift_atom(&ans, *next_var);
            let mut local_next = *next_var;
            let mut bump = Vec::new();
            for a in &shifted.args {
                a.collect_vars(&mut bump);
            }
            for v in &bump {
                local_next = local_next.max(v + 1);
            }
            if unify_atoms(goal, &shifted, bind) {
                let saved = *next_var;
                *next_var = local_next;
                changed |=
                    self.solve_body(program, key, ci, body, i + 1, bind, next_var, space)?;
                *next_var = (*next_var).max(saved);
            }
            bind.rollback(cp);
        }
        Ok(changed)
    }
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

    fn path_program(edges: &[(&str, &str)]) -> CompiledProgram {
        let mut p = FoProgram::new();
        for &(a, b) in edges {
            p.push(FoClause::fact(atom("edge", vec![c(a), c(b)])));
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
        CompiledProgram::compile(&p, builtin_symbols())
    }

    #[test]
    fn terminates_on_cyclic_graph() {
        // SLD diverges here; tabling must terminate with the full answer set.
        let cp = path_program(&[("a", "b"), ("b", "a"), ("b", "c")]);
        let e = TabledEngine::new(&cp, TablingOptions::default());
        let r = e.solve(&[atom("path", vec![c("a"), v("Y")])]).unwrap();
        let ys: Vec<String> = r.answers.iter().map(|a| a[&sym("Y")].to_string()).collect();
        assert_eq!(ys, vec!["a", "b", "c"]);
    }

    #[test]
    fn matches_bottom_up_on_chain() {
        let edges: Vec<(String, String)> = (0..6)
            .map(|i| (format!("n{i}"), format!("n{}", i + 1)))
            .collect();
        let edge_refs: Vec<(&str, &str)> = edges
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let cp = path_program(&edge_refs);
        let e = TabledEngine::new(&cp, TablingOptions::default());
        let r = e.solve(&[atom("path", vec![v("X"), v("Y")])]).unwrap();
        assert_eq!(r.answers.len(), 7 * 6 / 2); // all i<j pairs
    }

    #[test]
    fn ground_query() {
        let cp = path_program(&[("a", "b"), ("b", "c")]);
        let e = TabledEngine::new(&cp, TablingOptions::default());
        let yes = e.solve(&[atom("path", vec![c("a"), c("c")])]).unwrap();
        assert_eq!(yes.answers.len(), 1);
        let no = e.solve(&[atom("path", vec![c("c"), c("a")])]).unwrap();
        assert!(no.answers.is_empty());
    }

    #[test]
    fn conjunctive_query() {
        let cp = path_program(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let e = TabledEngine::new(&cp, TablingOptions::default());
        let r = e
            .solve(&[
                atom("path", vec![v("X"), c("c")]),
                atom("path", vec![c("c"), v("Z")]),
            ])
            .unwrap();
        // X ∈ {a, b}, Z ∈ {d}
        assert_eq!(r.answers.len(), 2);
    }

    #[test]
    fn goal_directedness_tables_fewer_than_whole_model() {
        // Querying from one node should not table goals for unreachable
        // components.
        let cp = path_program(&[("a", "b"), ("x", "y"), ("y", "z")]);
        let e = TabledEngine::new(&cp, TablingOptions::default());
        let r = e.solve(&[atom("path", vec![c("a"), v("Y")])]).unwrap();
        assert_eq!(r.answers.len(), 1);
        // tables: __query, path(a,V), edge(a,V), path(b,V), edge(b,V) — none for x/y/z.
        assert!(r.stats.tables_created <= 6, "{}", r.stats.tables_created);
    }

    #[test]
    fn builtins_inside_tabled_rules() {
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("edge", vec![c("a"), c("b")])));
        p.push(FoClause::fact(atom("edge", vec![c("b"), c("c")])));
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
            ],
        ));
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let e = TabledEngine::new(&cp, TablingOptions::default());
        let r = e
            .solve(&[atom("dist", vec![c("a"), c("c"), v("N")])])
            .unwrap();
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0][&sym("N")], FoTerm::int(2));
    }

    fn infinite_dist_program() -> CompiledProgram {
        // Unbounded lengths on a cycle: infinitely many dist answers.
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("edge", vec![c("a"), c("b")])));
        p.push(FoClause::fact(atom("edge", vec![c("b"), c("a")])));
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
            ],
        ));
        CompiledProgram::compile(&p, builtin_symbols())
    }

    #[test]
    fn answer_limit_degrades_gracefully() {
        let cp = infinite_dist_program();
        let e = TabledEngine::new(
            &cp,
            TablingOptions {
                max_answers: Some(100),
                ..Default::default()
            },
        );
        let r = e
            .solve(&[atom("dist", vec![c("a"), v("Y"), v("N")])])
            .unwrap();
        assert!(!r.complete);
        assert!(!r.answers.is_empty());
        let d = r.degradation.expect("degradation report");
        assert_eq!(d.trip, TripKind::Answers);
        assert_eq!(d.strategy, "tabled");
        assert!(d.work > 0);
    }

    #[test]
    fn budget_deadline_degrades_gracefully() {
        let cp = infinite_dist_program();
        let e = TabledEngine::new(
            &cp,
            TablingOptions {
                max_answers: None,
                budget: Budget::with_deadline(std::time::Duration::from_millis(20)),
                ..Default::default()
            },
        );
        let start = std::time::Instant::now();
        let r = e
            .solve(&[atom("dist", vec![c("a"), v("Y"), v("N")])])
            .unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert!(!r.complete);
        let d = r.degradation.expect("degradation report");
        assert_eq!(d.trip, TripKind::Deadline);
        assert_eq!(d.strategy, "tabled");
    }

    #[test]
    fn variant_canonicalization() {
        let bind = Bindings::new();
        let g1 = RAtom {
            pred: sym("p"),
            args: vec![RTerm::Var(7), RTerm::Var(7), RTerm::Var(9)],
        };
        let g2 = RAtom {
            pred: sym("p"),
            args: vec![RTerm::Var(1), RTerm::Var(1), RTerm::Var(0)],
        };
        assert_eq!(canonicalize(&g1, &bind), canonicalize(&g2, &bind));
        let g3 = RAtom {
            pred: sym("p"),
            args: vec![RTerm::Var(1), RTerm::Var(2), RTerm::Var(1)],
        };
        assert_ne!(canonicalize(&g1, &bind), canonicalize(&g3, &bind));
    }

    #[test]
    fn stats_populated() {
        let cp = path_program(&[("a", "b"), ("b", "c")]);
        let e = TabledEngine::new(&cp, TablingOptions::default());
        let r = e.solve(&[atom("path", vec![c("a"), v("Y")])]).unwrap();
        assert!(r.stats.tables_created >= 2);
        assert!(r.stats.passes >= 2);
        assert!(r.stats.clause_activations > 0);
        assert_eq!(r.answers.len(), 2);
    }
}
