//! Incremental retraction: a DRed-style delete-rederive pass over the
//! semi-naive machinery in [`bottom_up`](crate::bottom_up).
//!
//! Given a **complete** least model of a program and a set of base
//! facts removed from it, [`retract_facts`] produces the least model of
//! the shrunken program without a full fixpoint rebuild, in the
//! classic two phases (Gupta, Mumick & Subrahmanian's DRed):
//!
//! 1. **Overdelete.** Every stored fact with at least one derivation
//!    passing through a deleted fact is deleted, semi-naively: each
//!    round pins one body atom of each rule to a newly-deleted tuple
//!    and joins the remaining atoms against the *original* (still
//!    undeleted) store. This overapproximates the damage — a fact may
//!    also have derivations that avoid the deleted set.
//! 2. **Rederive.** After the overdeleted tuples are removed from the
//!    store, each one is checked for an alternative derivation: either
//!    it is a base fact of the new program, or one rule application
//!    over the post-deletion store reproduces it. The survivors are
//!    re-inserted and a seeded semi-naive run
//!    ([`run_stratum`](crate::bottom_up) with the post-deletion length
//!    snapshot) propagates their consequences, restoring exactly the
//!    least model.
//!
//! DRed was chosen over *counting* (per-fact derivation counters)
//! because counting taxes every insert on the hot path and multiplies
//! resident memory by the derivation multiplicity, while DRed pays
//! only when a retraction actually happens — the right trade for a
//! workload that is overwhelmingly assert-and-query (see DESIGN.md
//! §17).
//!
//! Negation and incomplete models fall back to a full
//! [`evaluate`]: stratified negation is non-monotonic (a deletion can
//! *grow* later strata), and a partial model is not a sound starting
//! point for deletion propagation. The fallback is recorded in
//! [`RetractStats::fell_back`] and the `folog.dred.fallbacks` counter.

use crate::bottom_up::{
    eval_body, evaluate, finish, flush_metrics, plan_order, run_stratum, EvalError, Evaluation,
    FixpointOptions, FixpointStats,
};
use crate::budget::BudgetMeter;
use crate::facts::{match_term, trail_undo, Env, FactStore};
use crate::ground::{GroundTerm, TermId, TermStore};
use crate::program::{ArgKey, ClauseView, Rule};
use clogic_core::fol::FoAtom;
use clogic_core::symbol::Symbol;
use std::collections::{HashMap, HashSet};

/// What one [`retract_facts`] run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetractStats {
    /// Facts deleted in the overdeletion phase (including the removed
    /// base facts themselves).
    pub overdeleted: u64,
    /// Overdeleted facts found to have an alternative derivation and
    /// re-inserted (phase-2 seeds; their downstream consequences are
    /// restored by the seeded semi-naive run, not counted here).
    pub rederived: u64,
    /// True when the pass could not run incrementally (negation or an
    /// incomplete previous model) and fell back to a full re-evaluation.
    pub fell_back: bool,
}

/// One stored fact, as the deletion pass tracks it.
type Fact = (Symbol, Vec<TermId>);

/// Computes the least model of `program` from `prev`, a complete least
/// model of the same program *plus* the base facts `removed` (and minus
/// `added`, normally empty — it exists for callers whose translation
/// diff can both drop and introduce unit clauses).
///
/// `program` must be the **post-retraction** program: its non-fact
/// rules must be those `prev` was computed with; its fact clauses are
/// consulted during rederivation, so a removed fact that is still a
/// base fact of `program` survives. Falls back to [`evaluate`] when the
/// program uses negation or `prev` is incomplete.
pub fn retract_facts<P: ClauseView>(
    program: &P,
    prev: Evaluation,
    removed: &[FoAtom],
    added: &[FoAtom],
    opts: FixpointOptions,
) -> Result<(Evaluation, RetractStats), EvalError> {
    let m = &opts.obs.metrics;
    m.counter("folog.dred.runs").inc();
    if program.has_negation() || !prev.complete {
        m.counter("folog.dred.fallbacks").inc();
        let ev = evaluate(program, opts)?;
        return Ok((
            ev,
            RetractStats {
                fell_back: true,
                ..RetractStats::default()
            },
        ));
    }
    let mut ev = prev;
    ev.degradation = None;
    ev.facts.set_index_mode(opts.index_mode);
    let stats_before = ev.stats.clone();
    let idx_before = ev.facts.index_stats();
    let mut meter = BudgetMeter::new(&opts.budget);
    let mut span = opts.obs.tracer.span_with(
        "folog.retract",
        vec![("removed", removed.len().into())],
    );

    let rules: Vec<(usize, &Rule)> = (0..program.len())
        .map(|i| (i, program.rule(i)))
        .filter(|(_, r)| !r.is_fact())
        .collect();

    // Phase 1 — overdelete. Seed with the removed base facts that are
    // actually stored, then propagate: a rule head joins the deleted
    // set whenever one body atom matches a newly-deleted tuple and the
    // rest of the body is satisfiable in the ORIGINAL store (tuples are
    // marked dead only after the phase converges, so every join sees the
    // pre-deletion relations).
    let mut deleted: HashSet<Fact> = HashSet::new();
    let mut delta: Vec<Fact> = Vec::new();
    for atom in removed {
        let mut tuple = Vec::with_capacity(atom.args.len());
        let mut ground = true;
        for a in &atom.args {
            match ev.store.intern_fo(a) {
                Some(id) => tuple.push(id),
                None => {
                    ground = false;
                    break;
                }
            }
        }
        if !ground || !ev.facts.contains(atom.pred, &tuple) {
            continue;
        }
        let fact = (atom.pred, tuple);
        if deleted.insert(fact.clone()) {
            delta.push(fact);
        }
    }
    let empty_frontiers = HashMap::new();
    while !delta.is_empty() {
        if !meter.check_time_and_cancel() {
            break;
        }
        let mut produced: Vec<Fact> = Vec::new();
        for &(_, rule) in &rules {
            for (pos, atom) in rule.body.iter().enumerate() {
                if program.is_builtin(atom.pred) {
                    continue;
                }
                let arity = atom.args.len();
                let mut pinned = delta
                    .iter()
                    .filter(|(p, t)| *p == atom.pred && t.len() == arity)
                    .peekable();
                // No delta tuple matches this position: skip it before
                // planning.
                if pinned.peek().is_none() {
                    continue;
                }
                let order = plan_order(rule, Some(pos), program.builtins(), &ev.facts);
                for (_, tuple) in pinned {
                    ev.stats.rule_activations += 1;
                    let mut env: Env = vec![None; rule.n_vars as usize];
                    let mut trail = Vec::new();
                    let pinned = atom
                        .args
                        .iter()
                        .zip(tuple)
                        .all(|(p, &d)| match_term(p, d, &ev.store, &mut env, &mut trail));
                    if pinned {
                        // `order[0]` is the pinned atom; evaluate the
                        // rest of the body with its bindings in place.
                        eval_body(
                            rule,
                            &order[1..],
                            0,
                            None,
                            &empty_frontiers,
                            &ev.facts,
                            &mut ev.store,
                            &mut ev.stats,
                            program.builtins(),
                            &mut env,
                            &mut trail,
                            &mut produced,
                            &mut meter,
                        )?;
                    }
                    trail_undo(&mut env, &mut trail, 0);
                    if meter.tripped().is_some() {
                        break;
                    }
                }
            }
        }
        delta.clear();
        for fact in produced {
            if ev.facts.contains(fact.0, &fact.1) && !deleted.contains(&fact) {
                deleted.insert(fact.clone());
                delta.push(fact);
            }
        }
        if meter.tripped().is_some() {
            break;
        }
    }

    // Mark the overdeleted tuples dead. Row ids stay put, so every
    // pattern index built so far keeps serving; probes skip the rows.
    let doomed: Vec<Fact> = deleted.iter().cloned().collect();
    let overdeleted = ev.facts.remove_all(&doomed) as u64;

    // Phase 2 — rederive. A deleted tuple survives if it is a base fact
    // of the (new) program, or one rule application over the
    // post-deletion store reproduces it. Survivors — plus any `added`
    // base atoms — are appended past the post-deletion row snapshot
    // (re-inserting a dead tuple appends it as a new row), so the seeded
    // semi-naive run treats exactly them as the delta and restores their
    // downstream consequences.
    let lens_after = ev.facts.lens();
    let mut reborn: Vec<Fact> = Vec::new();
    for fact in &doomed {
        if meter.tripped().is_some() {
            break;
        }
        if is_fact_clause(program, fact, &ev.store)
            || derivable_once(
                program.builtins(),
                rules.iter().map(|&(_, r)| r),
                fact,
                &ev.facts,
                &mut ev.store,
                &mut ev.stats,
                &mut meter,
            )?
        {
            reborn.push(fact.clone());
        }
    }
    for atom in added {
        let mut tuple = Vec::with_capacity(atom.args.len());
        let mut ground = true;
        for a in &atom.args {
            match ev.store.intern_fo(a) {
                Some(id) => tuple.push(id),
                None => {
                    ground = false;
                    break;
                }
            }
        }
        if ground {
            reborn.push((atom.pred, tuple));
        }
    }
    let rederived = reborn.len() as u64;
    for (pred, tuple) in reborn {
        if ev.facts.insert(pred, tuple, &ev.store) {
            ev.stats.facts_derived += 1;
        }
    }
    let derivable: Vec<(Symbol, usize)> = program.head_predicates();
    if meter.tripped().is_none() {
        run_stratum(
            &rules,
            &derivable,
            program,
            &opts,
            &mut ev,
            &mut meter,
            Some(&lens_after),
        )?;
    }
    ev.complete = true;
    finish(&mut ev, &meter, &opts);
    span.record("overdeleted", overdeleted);
    span.record("rederived", rederived);
    span.record("complete", u64::from(ev.complete));
    drop(span);
    m.counter("folog.dred.overdeleted").add(overdeleted);
    m.counter("folog.dred.rederived").add(rederived);
    flush_metrics(
        &opts.obs,
        &stats_before,
        &ev.stats,
        &idx_before,
        &ev.facts.index_stats(),
    );
    Ok((
        ev,
        RetractStats {
            overdeleted,
            rederived,
            fell_back: false,
        },
    ))
}

/// Whether `fact` is a fact clause of `program`, looked up through the
/// compiled clause index on its ground arguments. A fact clause whose
/// head holds a variable never counts (it would bind the variable).
fn is_fact_clause<P: ClauseView>(program: &P, fact: &Fact, store: &TermStore) -> bool {
    let (pred, tuple) = fact;
    let keys: Vec<(u32, ArgKey)> = tuple
        .iter()
        .enumerate()
        .map(|(pos, &id)| {
            let key = match store.get(id) {
                GroundTerm::Const(c) => ArgKey::Const(c),
                GroundTerm::App(f, args) => ArgKey::Functor(f, args.len()),
            };
            (pos as u32, key)
        })
        .collect();
    program
        .candidates_bound(*pred, tuple.len(), &keys)
        .into_iter()
        .map(|i| program.rule(i))
        .any(|r| {
            let (mut env, mut trail): (Env, Vec<_>) = (Vec::new(), Vec::new());
            r.is_fact()
                && r.head
                    .args
                    .iter()
                    .zip(tuple)
                    .all(|(p, &d)| match_term(p, d, store, &mut env, &mut trail))
                && trail.is_empty()
        })
}

/// Whether one application of `rules` over `facts` reproduces `fact`:
/// some rule head matches the tuple and its body is satisfiable under
/// those bindings. Because the tuple is ground, every solution
/// instantiates the head to exactly `fact`, so satisfiability is the
/// membership test. DRed asks it of each overdeleted fact over the
/// post-deletion store; a bottom-up query asks it of each negated
/// auxiliary goal (see [`Evaluation::query`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn derivable_once<'r>(
    builtins: &[Symbol],
    rules: impl IntoIterator<Item = &'r Rule>,
    fact: &Fact,
    facts: &FactStore,
    store: &mut TermStore,
    stats: &mut FixpointStats,
    meter: &mut BudgetMeter,
) -> Result<bool, EvalError> {
    let (pred, tuple) = fact;
    let empty_frontiers = HashMap::new();
    for rule in rules {
        if rule.head.pred != *pred || rule.head.args.len() != tuple.len() {
            continue;
        }
        stats.rule_activations += 1;
        let mut env: Env = vec![None; rule.n_vars as usize];
        let mut trail = Vec::new();
        let matched = rule
            .head
            .args
            .iter()
            .zip(tuple)
            .all(|(p, &d)| match_term(p, d, store, &mut env, &mut trail));
        if matched {
            let order = plan_order(rule, None, builtins, facts);
            let mut out: Vec<Fact> = Vec::new();
            eval_body(
                rule,
                &order,
                0,
                None,
                &empty_frontiers,
                facts,
                store,
                stats,
                builtins,
                &mut env,
                &mut trail,
                &mut out,
                meter,
            )?;
            if !out.is_empty() {
                return Ok(true);
            }
        }
        trail_undo(&mut env, &mut trail, 0);
        if meter.tripped().is_some() {
            break;
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::Strategy;
    use crate::builtins::builtin_symbols;
    use crate::program::CompiledProgram;
    use clogic_core::fol::{FoClause, FoProgram, FoTerm};

    fn atom(p: &str, args: Vec<FoTerm>) -> FoAtom {
        FoAtom::new(p, args)
    }

    fn c(s: &str) -> FoTerm {
        FoTerm::constant(s)
    }

    fn v(s: &str) -> FoTerm {
        FoTerm::var(s)
    }

    /// edge facts + transitive closure over them.
    fn path_program(edges: &[(&str, &str)]) -> FoProgram {
        let mut p = FoProgram::new();
        for (a, b) in edges {
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
        p
    }

    fn compile(p: &FoProgram) -> CompiledProgram {
        CompiledProgram::compile(p, builtin_symbols())
    }

    fn model(p: &CompiledProgram) -> Evaluation {
        evaluate(p, FixpointOptions::default()).expect("evaluates")
    }

    /// The golden comparison: retracting from the saturated model must
    /// equal evaluating the shrunken program from scratch.
    fn assert_retract_equals_rebuild(edges: &[(&str, &str)], drop: (&str, &str)) {
        let old = path_program(edges);
        let kept: Vec<(&str, &str)> = edges.iter().copied().filter(|&e| e != drop).collect();
        let new = path_program(&kept);
        let new_cp = compile(&new);
        let prev = model(&compile(&old));
        let removed = vec![atom("edge", vec![c(drop.0), c(drop.1)])];
        let (ev, stats) =
            retract_facts(&new_cp, prev, &removed, &[], FixpointOptions::default())
                .expect("retract runs");
        assert!(!stats.fell_back);
        assert!(ev.complete);
        let fresh = model(&new_cp);
        assert_eq!(
            ev.facts.display(&ev.store),
            fresh.facts.display(&fresh.store),
            "retract({drop:?}) from {edges:?}"
        );
    }

    #[test]
    fn retracting_an_edge_removes_exactly_its_consequences() {
        assert_retract_equals_rebuild(&[("a", "b"), ("b", "c"), ("c", "d")], ("b", "c"));
    }

    #[test]
    fn survivors_with_alternative_derivations_are_rederived() {
        // Two routes a→c; dropping one leaves path(a, c) derivable.
        assert_retract_equals_rebuild(
            &[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
            ("a", "c"),
        );
        assert_retract_equals_rebuild(
            &[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
            ("b", "c"),
        );
    }

    #[test]
    fn retracting_from_a_cycle_converges() {
        assert_retract_equals_rebuild(&[("a", "b"), ("b", "a"), ("b", "c")], ("b", "a"));
        assert_retract_equals_rebuild(&[("a", "b"), ("b", "a"), ("b", "c")], ("a", "b"));
    }

    #[test]
    fn retracting_a_fact_that_is_not_stored_is_a_no_op() {
        let p = path_program(&[("a", "b")]);
        let cp = compile(&p);
        let prev = model(&cp);
        let removed = vec![atom("edge", vec![c("x"), c("y")])];
        let (ev, stats) =
            retract_facts(&cp, prev, &removed, &[], FixpointOptions::default()).unwrap();
        assert_eq!(stats.overdeleted, 0);
        let fresh = model(&cp);
        assert_eq!(ev.facts.display(&ev.store), fresh.facts.display(&fresh.store));
    }

    #[test]
    fn a_removed_fact_still_asserted_by_the_program_survives() {
        // The program retains edge(a, b) as a base fact; "removing" it
        // must rederive it (and its consequences) from the fact clause.
        let p = path_program(&[("a", "b"), ("b", "c")]);
        let cp = compile(&p);
        let prev = model(&cp);
        let removed = vec![atom("edge", vec![c("a"), c("b")])];
        let (ev, stats) = retract_facts(&cp, prev, &removed, &[], FixpointOptions::default())
            .expect("retract runs");
        assert!(stats.rederived >= 1);
        let fresh = model(&cp);
        assert_eq!(ev.facts.display(&ev.store), fresh.facts.display(&fresh.store));
    }

    #[test]
    fn negation_falls_back_to_full_evaluation() {
        let mut p = path_program(&[("a", "b"), ("b", "c")]);
        p.push(FoClause::rule_with_negation(
            atom("isolated", vec![v("X")]),
            vec![atom("edge", vec![v("X"), v("X")])],
            vec![atom("path", vec![v("X"), v("X")])],
        ));
        let old_cp = compile(&p);
        let prev = evaluate(&old_cp, FixpointOptions::default()).unwrap();
        let (ev, stats) =
            retract_facts(&old_cp, prev, &[], &[], FixpointOptions::default()).unwrap();
        assert!(stats.fell_back);
        assert!(ev.complete);
    }

    #[test]
    fn naive_strategy_retracts_too() {
        let opts = FixpointOptions {
            strategy: Strategy::Naive,
            ..FixpointOptions::default()
        };
        let old = path_program(&[("a", "b"), ("b", "c")]);
        let new = path_program(&[("a", "b")]);
        let new_cp = compile(&new);
        let prev = evaluate(&compile(&old), opts.clone()).unwrap();
        let removed = vec![atom("edge", vec![c("b"), c("c")])];
        let (ev, _) = retract_facts(&new_cp, prev, &removed, &[], opts.clone()).unwrap();
        let fresh = evaluate(&new_cp, opts).unwrap();
        assert_eq!(ev.facts.display(&ev.store), fresh.facts.display(&fresh.store));
    }
}
