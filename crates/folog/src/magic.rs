//! The magic-sets transformation: goal-directed bottom-up evaluation.
//!
//! Bottom-up evaluation of a translated C-logic program computes the whole
//! least model even when the query touches a corner of it. Magic sets
//! rewrite the program so that the fixpoint derives only facts relevant to
//! the query: each derivable predicate is *adorned* with the
//! bound/free pattern of its calls, a `magic` predicate collects the bound
//! argument tuples that can actually be asked, and every rule is guarded
//! by the magic predicate of its head.
//!
//! Bindings pass bound-first ([`bound_first`]): the query and every rule
//! body, under its head's adornment, are ordered so that the goals that
//! arrive most bound are called first. The translated path query
//! `path(P), object(c0n0), src(P, c0n0), …` thus calls `src` with its
//! second argument bound before it calls `path`, and no predicate of the
//! path rules is asked with every argument free.
//!
//! Purely extensional predicates (defined by facts only) are left
//! unadorned. Built-in atoms pass bindings once they are ready: `is(L, E)`
//! binds `L`'s variables once `E`'s are bound; `=` binds either side from
//! the other.

use crate::bottom_up::{evaluate, EvalError, Evaluation, FixpointOptions};
use crate::program::CompiledProgram;
use crate::sips::{add_vars, bound_first, term_bound};
use clogic_core::fol::{FoAtom, FoClause, FoProgram, FoTerm};
use clogic_core::symbol::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A bound/free adornment: `true` = bound.
pub type Adornment = Vec<bool>;

fn adornment_suffix(a: &Adornment) -> String {
    a.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// The adorned name of a derivable predicate.
pub fn adorned_name(p: Symbol, a: &Adornment) -> Symbol {
    Symbol::new(&format!("{}__{}", p, adornment_suffix(a)))
}

/// The magic predicate name for an adorned predicate.
pub fn magic_name(p: Symbol, a: &Adornment) -> Symbol {
    Symbol::new(&format!("m__{}__{}", p, adornment_suffix(a)))
}

/// The result of the transformation.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten program (magic rules, guarded rules, EDB facts and
    /// the magic seed).
    pub program: FoProgram,
    /// The adorned name of the synthetic query predicate whose relation
    /// holds the answers.
    pub answer_pred: Symbol,
    /// The query variables, in answer-tuple order.
    pub query_vars: Vec<Symbol>,
}

/// Computes which predicates are intensional (defined by at least one
/// rule with a non-empty body).
fn intensional(p: &FoProgram) -> HashSet<(Symbol, usize)> {
    p.clauses
        .iter()
        .filter(|c| !c.body.is_empty())
        .map(|c| (c.head.pred, c.head.arity()))
        .collect()
}

/// Applies the transformation for a conjunctive query `goals` against
/// program `p`. `builtins` names evaluable predicates.
pub fn magic_transform(
    p: &FoProgram,
    goals: &[FoAtom],
    builtins: &BTreeSet<Symbol>,
) -> MagicProgram {
    // By symbol id: the set's own lookup compares strings.
    let is_builtin = |p: Symbol| builtins.iter().any(|&b| b == p);
    // Wrap the query: __query(V1,…,Vk) :- goals.
    let mut var_set = BTreeSet::new();
    for g in goals {
        g.collect_vars(&mut var_set);
    }
    let query_vars: Vec<Symbol> = var_set.into_iter().collect();
    let query_pred = Symbol::new("__query");
    let mut source = p.clone();
    source.push(FoClause::rule(
        FoAtom::new(
            query_pred,
            query_vars.iter().map(|&v| FoTerm::Var(v)).collect(),
        ),
        goals.to_vec(),
    ));

    let idb = intensional(&source);
    // Rules grouped by head predicate.
    let mut rules_for: HashMap<(Symbol, usize), Vec<&FoClause>> = HashMap::new();
    for c in &source.clauses {
        rules_for
            .entry((c.head.pred, c.head.arity()))
            .or_default()
            .push(c);
    }

    let mut out = FoProgram::new();
    // EDB facts (and facts of IDB preds are handled through rule
    // processing below, so only facts of non-IDB preds go in verbatim).
    for c in &source.clauses {
        if c.body.is_empty() && !idb.contains(&(c.head.pred, c.head.arity())) {
            out.push(c.clone());
        }
    }

    let query_adornment: Adornment = vec![false; query_vars.len()];
    let mut worklist: Vec<(Symbol, usize, Adornment)> =
        vec![(query_pred, query_vars.len(), query_adornment.clone())];
    let mut done: HashSet<(Symbol, usize, Adornment)> = HashSet::new();

    while let Some((pred, arity, adornment)) = worklist.pop() {
        if !done.insert((pred, arity, adornment.clone())) {
            continue;
        }
        let Some(rules) = rules_for.get(&(pred, arity)) else {
            continue;
        };
        for rule in rules {
            let mut bound: HashSet<Symbol> = HashSet::new();
            let mut magic_args: Vec<FoTerm> = Vec::new();
            for (i, arg) in rule.head.args.iter().enumerate() {
                if adornment[i] {
                    add_vars(arg, &mut bound);
                    magic_args.push(arg.clone());
                }
            }
            let guard = FoAtom::new(magic_name(pred, &adornment), magic_args);
            let mut processed: Vec<FoAtom> = vec![guard.clone()];
            // The order lets a built-in in only once it is ready (or after
            // every relational goal), so a goal's variables are bound once
            // it has run.
            for atom in bound_first(&rule.body, &bound, is_builtin) {
                let key = (atom.pred, atom.arity());
                if !is_builtin(atom.pred) && idb.contains(&key) {
                    let sub_adornment: Adornment =
                        atom.args.iter().map(|a| term_bound(a, &bound)).collect();
                    // Magic rule: m__q__a'(bound args) :- prefix.
                    let bound_args: Vec<FoTerm> = atom
                        .args
                        .iter()
                        .zip(&sub_adornment)
                        .filter(|(_, &b)| b)
                        .map(|(a, _)| a.clone())
                        .collect();
                    out.push(FoClause::rule(
                        FoAtom::new(magic_name(atom.pred, &sub_adornment), bound_args),
                        processed.clone(),
                    ));
                    worklist.push((atom.pred, atom.arity(), sub_adornment.clone()));
                    processed.push(FoAtom::new(
                        adorned_name(atom.pred, &sub_adornment),
                        atom.args.clone(),
                    ));
                } else {
                    processed.push(atom.clone());
                }
                for t in &atom.args {
                    add_vars(t, &mut bound);
                }
            }
            // Guarded rule for the adorned head (negated atoms carried
            // verbatim; `solve_magic` rejects programs where they occur).
            out.push(FoClause::rule_with_negation(
                FoAtom::new(adorned_name(pred, &adornment), rule.head.args.clone()),
                processed,
                rule.negative_body.clone(),
            ));
        }
    }

    // Seed: the query is asked with no bound arguments.
    out.push(FoClause::fact(FoAtom::new(
        magic_name(query_pred, &query_adornment),
        vec![],
    )));

    MagicProgram {
        program: out,
        answer_pred: adorned_name(query_pred, &query_adornment),
        query_vars,
    }
}

/// Transforms, evaluates bottom-up, and reads the answers: the
/// goal-directed counterpart of evaluating the full program and matching
/// the query against the least model.
pub fn solve_magic(
    p: &FoProgram,
    goals: &[FoAtom],
    builtins: &BTreeSet<Symbol>,
    opts: FixpointOptions,
) -> Result<(Vec<BTreeMap<Symbol, FoTerm>>, Evaluation), EvalError> {
    let (answers, ev, _rewritten) = solve_magic_rewritten(p, goals, builtins, opts)?;
    Ok((answers, ev))
}

/// [`solve_magic`], additionally returning the **rewritten** program it
/// evaluated. The evaluation's per-rule tuple counts
/// ([`crate::FixpointStats::per_rule`]) index into the rewritten program —
/// magic rules, guards and adorned copies — not the source program, so a
/// profiler renders its rules to say which rewritten rule produced what.
#[allow(clippy::type_complexity)]
pub fn solve_magic_rewritten(
    p: &FoProgram,
    goals: &[FoAtom],
    builtins: &BTreeSet<Symbol>,
    opts: FixpointOptions,
) -> Result<(Vec<BTreeMap<Symbol, FoTerm>>, Evaluation, CompiledProgram), EvalError> {
    if p.clauses.iter().any(|c| c.has_negation()) {
        // Magic rewriting of normal programs can break stratification;
        // out of scope (use stratified bottom-up).
        return Err(EvalError::Unstratifiable(
            "negation under magic sets".into(),
        ));
    }
    let mut span = opts.obs.tracer.span_with(
        "folog.magic.solve",
        vec![("source_clauses", p.clauses.len().into())],
    );
    let mp = magic_transform(p, goals, builtins);
    let compiled = CompiledProgram::compile(&mp.program, builtins.iter().copied());
    opts.obs.metrics.counter("folog.magic.queries").inc();
    opts.obs
        .metrics
        .histogram("folog.magic.rewritten_rules")
        .observe(compiled.rules.len() as u64);
    span.record("rewritten_rules", compiled.rules.len());
    let mut ev = evaluate(&compiled, opts)?;
    if let Some(d) = ev.degradation.as_mut() {
        d.strategy = "magic";
    }
    let mut answers = Vec::new();
    if let Some(rel) = ev.facts.relation(mp.answer_pred, mp.query_vars.len()) {
        for tuple in rel.tuples() {
            answers.push(
                mp.query_vars
                    .iter()
                    .zip(tuple)
                    .map(|(&v, &id)| (v, ev.store.to_fo(id)))
                    .collect(),
            );
        }
    }
    answers.sort();
    answers.dedup();
    span.record("answers", answers.len());
    span.record("complete", u64::from(ev.complete));
    Ok((answers, ev, compiled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::builtin_symbols;
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

    fn path_program(n: usize, extra_component: usize) -> FoProgram {
        let mut p = FoProgram::new();
        for i in 0..n {
            p.push(FoClause::fact(atom(
                "edge",
                vec![c(&format!("n{i}")), c(&format!("n{}", i + 1))],
            )));
        }
        for i in 0..extra_component {
            p.push(FoClause::fact(atom(
                "edge",
                vec![c(&format!("m{i}")), c(&format!("m{}", i + 1))],
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

    fn builtins() -> BTreeSet<Symbol> {
        builtin_symbols().collect()
    }

    #[test]
    fn answers_match_plain_bottom_up() {
        let p = path_program(5, 0);
        let goals = vec![atom("path", vec![c("n0"), v("Y")])];
        let (magic_answers, _) =
            solve_magic(&p, &goals, &builtins(), FixpointOptions::default()).unwrap();
        let compiled = CompiledProgram::compile(&p, builtin_symbols());
        let full = evaluate(&compiled, FixpointOptions::default()).unwrap();
        let plain_answers = full.query(&goals, &[], &[]).unwrap();
        assert_eq!(magic_answers, plain_answers);
        assert_eq!(magic_answers.len(), 5);
    }

    #[test]
    fn goal_directedness_derives_fewer_facts() {
        // Two disconnected chains; query touches only one.
        let p = path_program(8, 8);
        let goals = vec![atom("path", vec![c("n0"), v("Y")])];
        let (_, magic_ev) =
            solve_magic(&p, &goals, &builtins(), FixpointOptions::default()).unwrap();
        let compiled = CompiledProgram::compile(&p, builtin_symbols());
        let full = evaluate(&compiled, FixpointOptions::default()).unwrap();
        // Full evaluation derives paths in both components; magic only in one.
        assert!(
            magic_ev.facts.total < full.facts.total,
            "magic {} !< full {}",
            magic_ev.facts.total,
            full.facts.total
        );
    }

    #[test]
    fn ground_query() {
        let p = path_program(4, 0);
        let (yes, _) = solve_magic(
            &p,
            &[atom("path", vec![c("n0"), c("n4")])],
            &builtins(),
            FixpointOptions::default(),
        )
        .unwrap();
        assert_eq!(yes.len(), 1);
        let (no, _) = solve_magic(
            &p,
            &[atom("path", vec![c("n4"), c("n0")])],
            &builtins(),
            FixpointOptions::default(),
        )
        .unwrap();
        assert!(no.is_empty());
    }

    #[test]
    fn conjunctive_query_with_join_var() {
        let p = path_program(4, 0);
        let goals = vec![
            atom("path", vec![v("X"), c("n2")]),
            atom("path", vec![c("n2"), v("Z")]),
        ];
        let (answers, _) =
            solve_magic(&p, &goals, &builtins(), FixpointOptions::default()).unwrap();
        assert_eq!(answers.len(), 4); // X ∈ {n0,n1} × Z ∈ {n3,n4}
    }

    #[test]
    fn works_with_builtin_arithmetic() {
        let mut p = FoProgram::new();
        for i in 0..4 {
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
            ],
        ));
        let (answers, _) = solve_magic(
            &p,
            &[atom("dist", vec![c("n0"), c("n3"), v("N")])],
            &builtins(),
            FixpointOptions::default(),
        )
        .unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][&sym("N")], FoTerm::int(3));
    }

    #[test]
    fn cyclic_data_terminates() {
        let mut p = path_program(2, 0);
        p.push(FoClause::fact(atom("edge", vec![c("n2"), c("n0")])));
        let (answers, _) = solve_magic(
            &p,
            &[atom("path", vec![c("n0"), v("Y")])],
            &builtins(),
            FixpointOptions::default(),
        )
        .unwrap();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn budget_deadline_degrades_gracefully() {
        use crate::budget::{Budget, TripKind};
        // Infinite answer set: distances grow without bound on a cycle.
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
        let opts = FixpointOptions {
            budget: Budget::with_deadline(std::time::Duration::from_millis(20)),
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let (answers, ev) = solve_magic(
            &p,
            &[atom("dist", vec![c("a"), v("Y"), v("N")])],
            &builtins(),
            opts,
        )
        .unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert!(!ev.complete);
        assert!(!answers.is_empty());
        let d = ev.degradation.expect("degradation report");
        assert_eq!(d.trip, TripKind::Deadline);
        assert_eq!(d.strategy, "magic");
    }

    #[test]
    fn adorned_names_are_deterministic() {
        let a = vec![true, false];
        assert_eq!(adorned_name(sym("path"), &a), sym("path__bf"));
        assert_eq!(magic_name(sym("path"), &a), sym("m__path__bf"));
    }

    #[test]
    fn transform_emits_seed_and_guarded_rules() {
        let p = path_program(1, 0);
        let mp = magic_transform(&p, &[atom("path", vec![c("n0"), v("Y")])], &builtins());
        let shown = mp.program.to_string();
        assert!(shown.contains("m____query__f()."), "{shown}");
        assert!(shown.contains("path__bf"), "{shown}");
        assert!(mp.query_vars == vec![sym("Y")]);
    }
}
