//! Top-down evaluation: SLD resolution over definite clauses.
//!
//! Depth-first, left-to-right, with trailed backtracking, per-position
//! argument clause indexing, and resource limits (depth, resolution steps, number
//! of solutions). The result records whether the search space was
//! exhausted — an SLD run cut off by a limit reports `complete = false`,
//! which the experiments use to demonstrate that plain SLD diverges on
//! recursive programs over cyclic data where tabling terminates.

use crate::budget::{Budget, BudgetMeter, Degradation, TripKind};
use crate::builtins::BuiltinError;
use crate::program::{arg_key, shift_atom, ArgKey, ClauseView, CompiledProgram};
use crate::rterm::{RAtom, RTerm, VarAlloc, VarId};
use crate::unify::{unify_atoms, Bindings};
use clogic_core::fol::{FoAtom, FoTerm};
use clogic_core::symbol::Symbol;
use std::collections::{BTreeMap, HashMap};

/// Limits and options for an SLD run.
///
/// Hitting any limit is graceful: answers found so far are returned with
/// `complete: false` and a [`Degradation`] report.
#[derive(Clone, Debug)]
pub struct SldOptions {
    /// Maximum resolution depth (goal-stack depth); `None` = unbounded.
    pub max_depth: Option<usize>,
    /// Maximum number of resolution steps; `None` = unbounded.
    pub max_steps: Option<u64>,
    /// Stop after this many solutions; `None` = all.
    pub max_solutions: Option<usize>,
    /// Shared resource ceilings (deadline, steps, memory, cancellation).
    pub budget: Budget,
    /// Observability handles; counter deltas are flushed once per solve,
    /// never from the resolution loop.
    pub obs: clogic_obs::Obs,
}

impl Default for SldOptions {
    fn default() -> Self {
        SldOptions {
            max_depth: Some(10_000),
            max_steps: Some(10_000_000),
            max_solutions: None,
            budget: Budget::unlimited(),
            obs: clogic_obs::Obs::default(),
        }
    }
}

/// Counters for an SLD run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SldStats {
    /// Resolution steps (clause-activation attempts).
    pub steps: u64,
    /// Head-unification attempts.
    pub unify_attempts: u64,
    /// Successful head unifications.
    pub unify_successes: u64,
    /// Deepest goal stack reached.
    pub max_depth_reached: usize,
}

/// The outcome of an SLD run.
#[derive(Clone, Debug)]
pub struct SldResult {
    /// Answers: query-variable name → ground (or residual) term.
    pub answers: Vec<BTreeMap<Symbol, FoTerm>>,
    /// Counters.
    pub stats: SldStats,
    /// True iff the whole search space was explored within the limits
    /// (when false, missing answers prove nothing).
    pub complete: bool,
    /// Why the search was cut short, when `complete` is false.
    pub degradation: Option<Degradation>,
    /// Successful head unifications per clause, indexed by the clause's
    /// position in the compiled program — the top-down analogue of the
    /// fixpoint's per-rule tuple counts. (Lives on the result, not
    /// [`SldStats`], which stays `Copy`.)
    pub per_rule: Vec<u64>,
}

/// A resolution goal: a positive atom or a negated one (NAF).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SldGoal {
    /// Prove the atom.
    Pos(RAtom),
    /// Succeed iff the atom is *not* provable under the current bindings
    /// (which must ground it — otherwise the computation flounders).
    Neg(RAtom),
}

/// A query solver over a compiled program (or any [`ClauseView`], e.g. a
/// [`crate::program::ClauseOverlay`] layering query-local aux clauses
/// over a shared base).
pub struct SldEngine<'p, P: ClauseView = CompiledProgram> {
    program: &'p P,
    opts: SldOptions,
}

struct Search<'p, P: ClauseView> {
    program: &'p P,
    opts: SldOptions,
    bind: Bindings,
    next_var: VarId,
    stats: SldStats,
    truncated: bool,
    /// First engine-local cutoff cause (depth/step bound). Budget trips
    /// (deadline, cancel, budget steps) live in the meter instead.
    trunc: Option<TripKind>,
    meter: BudgetMeter,
    emitted: usize,
    per_rule: Vec<u64>,
}

impl<'p, P: ClauseView + Sync> SldEngine<'p, P> {
    /// Creates an engine.
    pub fn new(program: &'p P, opts: SldOptions) -> SldEngine<'p, P> {
        SldEngine { program, opts }
    }

    /// Solves a conjunctive query given as first-order atoms.
    pub fn solve(&self, goals: &[FoAtom]) -> Result<SldResult, BuiltinError> {
        self.solve_with_negation(goals, &[])
    }

    /// Solves a query with negated goals (checked after the positives).
    pub fn solve_with_negation(
        &self,
        goals: &[FoAtom],
        neg_goals: &[FoAtom],
    ) -> Result<SldResult, BuiltinError> {
        let mut alloc = VarAlloc::new();
        let mut map: HashMap<Symbol, VarId> = HashMap::new();
        let mut rgoals: Vec<SldGoal> = goals
            .iter()
            .map(|g| SldGoal::Pos(crate::rterm::ratom_of_fo(g, &mut map, &mut alloc)))
            .collect();
        rgoals.extend(
            neg_goals
                .iter()
                .map(|g| SldGoal::Neg(crate::rterm::ratom_of_fo(g, &mut map, &mut alloc))),
        );
        let query_vars: Vec<(Symbol, VarId)> = {
            let mut v: Vec<_> = map.into_iter().collect();
            v.sort();
            v
        };
        let meter = BudgetMeter::new(&self.opts.budget);
        let mut search = Search {
            program: self.program,
            opts: self.opts.clone(),
            bind: Bindings::new(),
            next_var: alloc.len() as VarId,
            stats: SldStats::default(),
            truncated: false,
            trunc: None,
            meter,
            emitted: 0,
            per_rule: Vec::new(),
        };
        let mut answers = Vec::new();
        let mut span = self.opts.obs.tracer.span_with(
            "folog.sld.solve",
            vec![("goals", (goals.len() + neg_goals.len()).into())],
        );
        // SLD recursion is depth-limited but can legitimately run
        // thousands of frames deep; use a dedicated big-stack thread so
        // callers (including 2 MiB test threads) never overflow.
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("folog-sld-search".into())
                .stack_size(256 * 1024 * 1024)
                .spawn_scoped(scope, || {
                    search.solve(&rgoals, 0, &mut |bind| {
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
        let hit_solution_cap = self.opts.max_solutions.is_some_and(|m| answers.len() >= m);
        let complete = !search.truncated && !hit_solution_cap;
        answers.sort();
        answers.dedup();
        let degradation = if complete {
            None
        } else {
            // Budget trips (deadline/cancel) outrank engine-local bounds,
            // which outrank the requested solution cap.
            let trip = search
                .meter
                .tripped()
                .or(search.trunc)
                .unwrap_or(TripKind::Solutions);
            Some(search.meter.degradation_for(
                trip,
                "sld",
                search.stats.steps,
                format!(
                    "{trip} after {} steps, {} answers, depth {}",
                    search.stats.steps,
                    answers.len(),
                    search.stats.max_depth_reached
                ),
            ))
        };
        span.record("steps", search.stats.steps);
        span.record("answers", answers.len());
        span.record("complete", u64::from(complete));
        drop(span);
        let m = &self.opts.obs.metrics;
        m.counter("folog.sld.queries").inc();
        m.counter("folog.sld.steps").add(search.stats.steps);
        m.counter("folog.sld.unify_attempts")
            .add(search.stats.unify_attempts);
        m.counter("folog.sld.unify_successes")
            .add(search.stats.unify_successes);
        m.histogram("folog.sld.depth")
            .observe(search.stats.max_depth_reached as u64);
        Ok(SldResult {
            answers,
            stats: search.stats,
            complete,
            degradation,
            per_rule: search.per_rule,
        })
    }
}

impl<P: ClauseView> Search<'_, P> {
    /// Record an engine-local cutoff: the search space was truncated.
    fn cut(&mut self, kind: TripKind) {
        self.truncated = true;
        if self.trunc.is_none() {
            self.trunc = Some(kind);
        }
    }

    /// Returns `Ok(true)` to continue searching, `Ok(false)` to stop
    /// (solution cap reached).
    fn solve(
        &mut self,
        goals: &[SldGoal],
        depth: usize,
        emit: &mut impl FnMut(&Bindings),
    ) -> Result<bool, BuiltinError> {
        self.stats.max_depth_reached = self.stats.max_depth_reached.max(depth);
        let Some((next, rest)) = goals.split_first() else {
            emit(&self.bind);
            self.emitted += 1;
            if self.opts.max_solutions.is_some_and(|m| self.emitted >= m) {
                return Ok(false);
            }
            return Ok(true);
        };
        if self.opts.max_depth.is_some_and(|m| depth > m) {
            self.cut(TripKind::Depth);
            return Ok(true);
        }
        if self.opts.max_steps.is_some_and(|m| self.stats.steps > m) {
            self.cut(TripKind::Steps);
            return Ok(true);
        }
        if self.meter.tripped().is_some() {
            self.truncated = true;
            return Ok(true);
        }
        let goal = match next {
            SldGoal::Neg(inner) => {
                // Negation as failure: the selected goal must be ground
                // under the current bindings (floundering otherwise), and
                // succeeds iff the positive goal has no proof.
                let resolved = RAtom {
                    pred: inner.pred,
                    args: inner.args.iter().map(|a| self.bind.resolve(a)).collect(),
                };
                if resolved.args.iter().any(|a| !a.is_ground()) {
                    return Err(BuiltinError::Floundered(resolved.to_string()));
                }
                let provable = self.provable(&resolved, depth)?;
                return if provable {
                    Ok(true)
                } else {
                    self.solve(rest, depth, emit)
                };
            }
            SldGoal::Pos(g) => g,
        };
        if self.program.is_builtin(goal.pred) {
            let cp = self.bind.checkpoint();
            let ok = crate::builtins::solve(goal, &mut self.bind)?;
            let cont = if ok {
                self.solve(rest, depth, emit)?
            } else {
                true
            };
            self.bind.rollback(cp);
            return Ok(cont);
        }
        // Resolve against program clauses, selecting through every
        // argument position bound (after walking) to a non-variable —
        // the most selective one wins inside `candidates_bound`.
        let keys: Vec<(u32, ArgKey)> = goal
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, a)| arg_key(self.bind.walk(a)).map(|k| (i as u32, k)))
            .collect();
        let candidates = self
            .program
            .candidates_bound(goal.pred, goal.args.len(), &keys);
        for ci in candidates {
            self.stats.steps += 1;
            if self.opts.max_steps.is_some_and(|m| self.stats.steps > m) {
                self.cut(TripKind::Steps);
                return Ok(true);
            }
            if !self.meter.tick() {
                self.truncated = true;
                return Ok(true);
            }
            let rule = self.program.rule(ci);
            let offset = self.next_var;
            let head = shift_atom(&rule.head, offset);
            let cp = self.bind.checkpoint();
            self.stats.unify_attempts += 1;
            if unify_atoms(goal, &head, &mut self.bind) {
                self.stats.unify_successes += 1;
                if self.per_rule.len() <= ci {
                    self.per_rule.resize(ci + 1, 0);
                }
                self.per_rule[ci] += 1;
                let saved_next = self.next_var;
                self.next_var += rule.n_vars;
                let mut new_goals: Vec<SldGoal> =
                    Vec::with_capacity(rule.body.len() + rule.neg_body.len() + rest.len());
                new_goals.extend(
                    rule.body
                        .iter()
                        .map(|b| SldGoal::Pos(shift_atom(b, offset))),
                );
                new_goals.extend(
                    rule.neg_body
                        .iter()
                        .map(|n| SldGoal::Neg(shift_atom(n, offset))),
                );
                new_goals.extend_from_slice(rest);
                let cont = self.solve(&new_goals, depth + 1, emit)?;
                self.next_var = saved_next.max(self.next_var);
                if !cont {
                    self.bind.rollback(cp);
                    return Ok(false);
                }
            }
            self.bind.rollback(cp);
        }
        Ok(true)
    }

    /// Existence sub-proof for NAF: succeeds iff `goal` has at least one
    /// solution. Bindings are restored afterwards; resource limits and
    /// step counters are shared with the outer search.
    fn provable(&mut self, goal: &RAtom, depth: usize) -> Result<bool, BuiltinError> {
        let saved_emitted = self.emitted;
        let saved_max = self.opts.max_solutions;
        self.emitted = 0;
        self.opts.max_solutions = Some(1);
        let cp = self.bind.checkpoint();
        self.solve(&[SldGoal::Pos(goal.clone())], depth + 1, &mut |_| {})?;
        let found = self.emitted > 0;
        self.bind.rollback(cp);
        self.emitted = saved_emitted;
        self.opts.max_solutions = saved_max;
        Ok(found)
    }
}

/// Converts a resolved runtime term back to a first-order term; residual
/// variables are rendered as `_Gn` named variables.
pub fn fo_of_rterm(t: &RTerm) -> FoTerm {
    match t {
        RTerm::Var(v) => FoTerm::Var(Symbol::new(&format!("_G{v}"))),
        RTerm::Const(c) => FoTerm::Const(*c),
        RTerm::App(f, args) => FoTerm::App(*f, args.iter().map(fo_of_rterm).collect()),
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

    fn family() -> CompiledProgram {
        let mut p = FoProgram::new();
        for (a, b) in [
            ("tom", "bob"),
            ("tom", "liz"),
            ("bob", "ann"),
            ("bob", "pat"),
        ] {
            p.push(FoClause::fact(atom("parent", vec![c(a), c(b)])));
        }
        p.push(FoClause::rule(
            atom("grandparent", vec![v("X"), v("Z")]),
            vec![
                atom("parent", vec![v("X"), v("Y")]),
                atom("parent", vec![v("Y"), v("Z")]),
            ],
        ));
        CompiledProgram::compile(&p, builtin_symbols())
    }

    #[test]
    fn ground_query_succeeds() {
        let cp = family();
        let e = SldEngine::new(&cp, SldOptions::default());
        let r = e
            .solve(&[atom("parent", vec![c("tom"), c("bob")])])
            .unwrap();
        assert_eq!(r.answers.len(), 1);
        assert!(r.complete);
        let r2 = e
            .solve(&[atom("parent", vec![c("bob"), c("tom")])])
            .unwrap();
        assert!(r2.answers.is_empty());
        assert!(r2.complete);
    }

    #[test]
    fn open_query_enumerates_answers() {
        let cp = family();
        let e = SldEngine::new(&cp, SldOptions::default());
        let r = e
            .solve(&[atom("grandparent", vec![c("tom"), v("Z")])])
            .unwrap();
        let zs: Vec<String> = r.answers.iter().map(|a| a[&sym("Z")].to_string()).collect();
        assert_eq!(zs, vec!["ann", "pat"]);
    }

    #[test]
    fn conjunctive_query_joins() {
        let cp = family();
        let e = SldEngine::new(&cp, SldOptions::default());
        let r = e
            .solve(&[
                atom("parent", vec![v("X"), v("Y")]),
                atom("parent", vec![v("Y"), v("Z")]),
            ])
            .unwrap();
        assert_eq!(r.answers.len(), 2); // tom-bob-ann, tom-bob-pat
    }

    #[test]
    fn recursion_terminates_on_acyclic_data() {
        let mut p = FoProgram::new();
        for i in 0..5 {
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
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let e = SldEngine::new(&cp, SldOptions::default());
        let r = e.solve(&[atom("path", vec![c("n0"), v("Y")])]).unwrap();
        assert_eq!(r.answers.len(), 5);
        assert!(r.complete);
    }

    #[test]
    fn cyclic_data_hits_limits_incomplete() {
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("edge", vec![c("a"), c("b")])));
        p.push(FoClause::fact(atom("edge", vec![c("b"), c("a")])));
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
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let e = SldEngine::new(
            &cp,
            SldOptions {
                max_depth: Some(50),
                max_steps: Some(10_000),
                ..Default::default()
            },
        );
        let r = e.solve(&[atom("path", vec![c("a"), v("Y")])]).unwrap();
        // It finds answers but cannot exhaust the infinite SLD tree.
        assert!(!r.answers.is_empty());
        assert!(!r.complete);
        let d = r.degradation.expect("incomplete result carries a report");
        assert!(matches!(d.trip, TripKind::Depth | TripKind::Steps));
        assert_eq!(d.strategy, "sld");
        assert!(d.work > 0);
    }

    #[test]
    fn budget_deadline_cuts_cyclic_search() {
        use std::time::Duration;
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("edge", vec![c("a"), c("b")])));
        p.push(FoClause::fact(atom("edge", vec![c("b"), c("a")])));
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
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let e = SldEngine::new(
            &cp,
            SldOptions {
                max_depth: None,
                max_steps: None,
                budget: crate::budget::Budget::with_deadline(Duration::from_millis(20)),
                ..Default::default()
            },
        );
        let start = std::time::Instant::now();
        let r = e.solve(&[atom("path", vec![c("a"), v("Y")])]).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1), "deadline ignored");
        assert!(!r.complete);
        assert_eq!(r.degradation.unwrap().trip, TripKind::Deadline);
        assert!(!r.answers.is_empty()); // partial answers retained
    }

    #[test]
    fn builtins_in_queries_and_rules() {
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("n", vec![FoTerm::int(3)])));
        p.push(FoClause::rule(
            atom("double", vec![v("X"), v("Y")]),
            vec![
                atom("n", vec![v("X")]),
                atom(
                    "is",
                    vec![v("Y"), FoTerm::App(sym("*"), vec![v("X"), FoTerm::int(2)])],
                ),
            ],
        ));
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let e = SldEngine::new(&cp, SldOptions::default());
        let r = e.solve(&[atom("double", vec![v("A"), v("B")])]).unwrap();
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0][&sym("B")], FoTerm::int(6));
    }

    #[test]
    fn builtin_error_propagates() {
        let cp = family();
        let e = SldEngine::new(&cp, SldOptions::default());
        let err = e.solve(&[atom("is", vec![v("X"), v("Y")])]).unwrap_err();
        assert!(matches!(err, BuiltinError::NotEvaluable(_)));
    }

    #[test]
    fn max_solutions_caps_and_reports_incomplete() {
        let cp = family();
        let e = SldEngine::new(
            &cp,
            SldOptions {
                max_solutions: Some(2),
                ..Default::default()
            },
        );
        let r = e.solve(&[atom("parent", vec![v("X"), v("Y")])]).unwrap();
        assert_eq!(r.answers.len(), 2);
        assert!(!r.complete);
        assert_eq!(r.degradation.unwrap().trip, TripKind::Solutions);
    }

    #[test]
    fn non_ground_answers_render_residual_vars() {
        let mut p = FoProgram::new();
        p.push(FoClause::fact(atom("any", vec![v("X")])));
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let e = SldEngine::new(&cp, SldOptions::default());
        let r = e.solve(&[atom("any", vec![v("Q")])]).unwrap();
        assert_eq!(r.answers.len(), 1);
        let t = r.answers[0][&sym("Q")].to_string();
        assert!(t.starts_with("_G"), "{t}");
    }

    #[test]
    fn stats_counted() {
        let cp = family();
        let e = SldEngine::new(&cp, SldOptions::default());
        let r = e
            .solve(&[atom("grandparent", vec![v("X"), v("Z")])])
            .unwrap();
        assert!(r.stats.steps > 0);
        assert!(r.stats.unify_attempts >= r.stats.unify_successes);
        assert!(r.stats.max_depth_reached >= 2);
    }

    #[test]
    fn first_arg_indexing_reduces_steps() {
        // A ground first argument should touch fewer clauses than an
        // unbound one.
        let mut p = FoProgram::new();
        for i in 0..100 {
            p.push(FoClause::fact(atom("f", vec![c(&format!("k{i}")), c("v")])));
        }
        let cp = CompiledProgram::compile(&p, builtin_symbols());
        let e = SldEngine::new(&cp, SldOptions::default());
        let bound = e.solve(&[atom("f", vec![c("k7"), v("V")])]).unwrap();
        let open = e.solve(&[atom("f", vec![v("K"), v("V")])]).unwrap();
        assert!(bound.stats.steps < open.stats.steps);
        assert_eq!(bound.answers.len(), 1);
        assert_eq!(open.answers.len(), 100);
    }
}
