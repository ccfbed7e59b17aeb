//! The epoch-versioned incremental pipeline: cumulative loading must be
//! indistinguishable from loading everything at once — across all six
//! strategies, with and without entity-creating (skolemized) rules — and
//! the caches that make re-querying cheap must never change answers.

use clogic::core::program::Program;
use clogic::core::{Atomic, DefiniteClause, LabelSpec, Term};
use clogic::folog::Budget;
use clogic::session::{Session, SessionOptions, Strategy};
use proptest::prelude::*;
use proptest::strategy::Strategy as ProptestStrategy;

mod common;

// ---------- generators ----------

fn const_name() -> impl ProptestStrategy<Value = String> {
    prop::sample::select(vec!["c1", "c2", "c3", "c4", "c5"]).prop_map(str::to_string)
}

fn type_name() -> impl ProptestStrategy<Value = String> {
    prop::sample::select(vec!["t1", "t2", "t3"]).prop_map(str::to_string)
}

fn label_name() -> impl ProptestStrategy<Value = String> {
    prop::sample::select(vec!["l1", "l2"]).prop_map(str::to_string)
}

/// A ground molecule fact: `ty: id[label ⇒ value, …]`.
fn fact() -> impl ProptestStrategy<Value = DefiniteClause> {
    (
        type_name(),
        const_name(),
        prop::collection::vec((label_name(), const_name()), 0..3),
    )
        .prop_map(|(ty, id, pairs)| {
            let specs: Vec<LabelSpec> = pairs
                .into_iter()
                .map(|(l, v)| LabelSpec::one(l.as_str(), Term::constant(v.as_str())))
                .collect();
            let head = if specs.is_empty() {
                Term::typed_constant(ty.as_str(), id.as_str())
            } else {
                Term::molecule(Term::typed_constant(ty.as_str(), id.as_str()), specs).unwrap()
            };
            DefiniteClause::fact(Atomic::term(head))
        })
}

/// A small pool of rules, including an entity-creating one whose
/// head-only variable `C` is auto-skolemized on load — the identity
/// `skN(…)` must come out the same whether the program is loaded in one
/// piece or two.
fn rule(entity_creating: bool) -> impl ProptestStrategy<Value = DefiniteClause> {
    let plain = vec![
        // p(X) :- t1: X[l1 => Y].
        DefiniteClause::rule(
            Atomic::pred("p", vec![Term::var("X")]),
            vec![Atomic::term(
                Term::molecule(
                    Term::typed_var("t1", "X"),
                    vec![LabelSpec::one("l1", Term::var("Y"))],
                )
                .unwrap(),
            )],
        ),
        // t3: X :- t2: X.
        DefiniteClause::rule(
            Atomic::term(Term::typed_var("t3", "X")),
            vec![Atomic::term(Term::typed_var("t2", "X"))],
        ),
    ];
    let creating = vec![
        // t3: C[l2 => X] :- t1: X.  (C is head-only: skolemized)
        DefiniteClause::rule(
            Atomic::term(
                Term::molecule(
                    Term::typed_var("t3", "C"),
                    vec![LabelSpec::one("l2", Term::var("X"))],
                )
                .unwrap(),
            ),
            vec![Atomic::term(Term::typed_var("t1", "X"))],
        ),
        // t3: D[l1 => X] :- t2: X[l2 => Y].  (non-recursive: t3 occurs
        // in no body, so SLD terminates and the guard stays quiet)
        DefiniteClause::rule(
            Atomic::term(
                Term::molecule(
                    Term::typed_var("t3", "D"),
                    vec![LabelSpec::one("l1", Term::var("X"))],
                )
                .unwrap(),
            ),
            vec![Atomic::term(
                Term::molecule(
                    Term::typed_var("t2", "X"),
                    vec![LabelSpec::one("l2", Term::var("Y"))],
                )
                .unwrap(),
            )],
        ),
    ];
    let pool = if entity_creating {
        let mut all = plain;
        all.extend(creating);
        all
    } else {
        plain
    };
    prop::sample::select(pool)
}

fn program(entity_creating: bool) -> impl ProptestStrategy<Value = Program> {
    (
        prop::collection::vec(fact(), 1..6),
        prop::collection::vec(rule(entity_creating), 0..3),
        prop::bool::ANY,
    )
        .prop_map(|(facts, rules, subtype)| {
            let mut p = Program::new();
            if subtype {
                p.declare_subtype("t1", "t2");
            }
            for f in facts {
                p.push(f);
            }
            for r in rules {
                p.push(r);
            }
            p
        })
}

const QUERIES: &[&str] = &["t2: X", "t3: O[l2 => V]", "p(X)", "t1: X[l1 => Y]"];

/// `load(a); load(b)` must answer exactly like `load(a + b)`, for every
/// strategy and query — the cumulative-loading soundness property of the
/// incremental pipeline (delta translation, resumed fixpoints, merged
/// object stores, threaded skolem numbering all sit behind this).
fn assert_split_load_equivalent(a: Program, b: Program) {
    let mut combined_program = a.clone();
    combined_program
        .subtype_decls
        .extend(b.subtype_decls.clone());
    combined_program.clauses.extend(b.clauses.clone());

    let mut split = Session::new();
    split.load_program(a);
    // Saturate bottom-up models at the intermediate epoch so the second
    // load exercises resumption rather than a cold start.
    for q in QUERIES {
        let _ = split.query(q, Strategy::BottomUpSemiNaive);
        let _ = split.query(q, Strategy::BottomUpNaive);
    }
    split.load_program(b);

    let mut combined = Session::new();
    combined.load_program(combined_program);

    for strategy in Strategy::ALL {
        for q in QUERIES {
            let s = common::evaluate(&mut split, q, strategy).unwrap();
            let c = common::evaluate(&mut combined, q, strategy).unwrap();
            assert_eq!(
                s.rendered(),
                c.rendered(),
                "{strategy:?} on {q}: split load must equal combined load"
            );
            assert!(s.complete, "{strategy:?} on {q} must saturate");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn split_load_equals_combined_load(a in program(false), b in program(false)) {
        assert_split_load_equivalent(a, b);
    }

    #[test]
    fn split_load_equals_combined_load_with_entity_creating_rules(
        a in program(true),
        b in program(true),
    ) {
        assert_split_load_equivalent(a, b);
    }
}

// ---------- delta translation ----------

/// The translated program as a sorted clause multiset: split and
/// combined loads interleave type axioms differently (each delta emits
/// the axioms *it* introduced right after its own clauses), but the set
/// of clauses must coincide.
fn clause_set(s: &mut Session) -> Vec<String> {
    let mut out: Vec<String> = s
        .translated()
        .clauses
        .iter()
        .map(|c| c.to_string())
        .collect();
    out.sort();
    out
}

/// Without the optimizer, extending the cached translation with a delta
/// must produce exactly the clauses a from-scratch translation of the
/// combined text produces.
#[test]
fn delta_translation_equals_full_translation_unoptimized() {
    let first = "t1: c1[l1 => c2].\np(X) :- t1: X[l1 => Y].";
    let second = "t2: c3.\nt1 < t2.\nq(X) :- t2: X, p(X).";
    let mut split = Session::with_options(SessionOptions {
        optimize_translation: false,
        ..SessionOptions::default()
    });
    split.load(first).unwrap();
    let _ = split.translated(); // force the epoch-1 artifact
    split.load(second).unwrap();

    let mut combined = Session::with_options(SessionOptions {
        optimize_translation: false,
        ..SessionOptions::default()
    });
    combined.load(&format!("{first}\n{second}")).unwrap();

    assert_eq!(clause_set(&mut split), clause_set(&mut combined));
}

/// With the §4 optimizer on, a delta that adds a subtype declaration
/// falls back to full re-translation (the hierarchy feeds rules 1–2), so
/// the result again matches the combined translation exactly.
#[test]
fn delta_translation_with_subtype_delta_falls_back_to_full() {
    let first = "t1: c1[l1 => c2].\np(X) :- t1: X[l1 => Y].";
    let second = "t1 < t2.\nt2: c3.";
    let mut split = Session::new();
    split.load(first).unwrap();
    let _ = split.translated();
    split.load(second).unwrap();

    let mut combined = Session::new();
    combined.load(&format!("{first}\n{second}")).unwrap();

    assert_eq!(split.translated(), combined.translated());
}

/// With the optimizer on and a hierarchy-neutral delta, the translation
/// is extended in place and must still cover the same clauses as the
/// combined translation.
#[test]
fn delta_translation_extends_in_place_when_optimized() {
    let first = "t1 < t2.\nt1: c1[l1 => c2].\np(X) :- t1: X[l1 => Y].";
    let second = "t1: c3[l1 => c4].\nq(X) :- p(X).";
    let mut split = Session::new();
    split.load(first).unwrap();
    let _ = split.translated();
    split.load(second).unwrap();

    let mut combined = Session::new();
    combined.load(&format!("{first}\n{second}")).unwrap();

    assert_eq!(clause_set(&mut split), clause_set(&mut combined));
}

// ---------- answer cache & epochs ----------

#[test]
fn epoch_bumps_on_every_load() {
    let mut s = Session::new();
    assert_eq!(s.epoch(), 0);
    s.load("t1: c1.").unwrap();
    assert_eq!(s.epoch(), 1);
    s.load("t1: c2.").unwrap();
    assert_eq!(s.epoch(), 2);
}

#[test]
fn answer_cache_hits_repeated_queries_and_invalidates_on_load() {
    let mut s = Session::new();
    s.load("t1: c1.\nt1: c2.").unwrap();
    let first = s.query("t1: X", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(s.cache_stats().hits, 0);
    assert_eq!(s.cache_stats().misses, 1);
    let again = s.query("t1: X", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(again, first);
    assert_eq!(s.cache_stats().hits, 1);

    // The cache is keyed by the query text alone (complete answers are
    // the same under every strategy), so an Sld repeat hits too.
    let _ = s.query("t1: X", Strategy::Sld).unwrap();
    assert_eq!(s.cache_stats().hits, 2);
    assert_eq!(s.cache_stats().misses, 1);

    // Loading bumps the epoch: the same query misses, and sees new data.
    s.load("t1: c3.").unwrap();
    let r = s.query("t1: X", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(s.cache_stats().hits, 2);
    assert_eq!(s.cache_stats().misses, 2);
}

/// `Session::query` answers through the published snapshot's cache, so
/// the snapshot serves the same answer to another strategy: there is one
/// answer cache, not one per path.
#[test]
fn session_queries_fill_the_one_snapshot_cache() {
    let mut s = Session::new();
    s.load("t1: c1.\nt1: c2.").unwrap();
    let semi = s.query("t1: X", Strategy::BottomUpSemiNaive).unwrap();
    let snap = s.current_snapshot().expect("the query published");
    let (sld, hit) = snap
        .query_cached("t1: X", Strategy::Sld, &Budget::unlimited())
        .unwrap();
    assert!(hit, "the exclusive query filled the snapshot's cache");
    assert_eq!(sld, semi);
}

#[test]
fn resumed_model_accumulates_stats_and_matches_fresh_session() {
    let mut s = Session::new();
    s.load("node: a[linkto => b].\nnode: b[linkto => c].\nreach(X, Y) :- node: X[linkto => Y].\nreach(X, Z) :- node: X[linkto => Y], reach(Y, Z).")
        .unwrap();
    let cold = s.query("reach(a, X)", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(cold.rows.len(), 2);
    let stats_before = s
        .model_stats(Strategy::BottomUpSemiNaive)
        .expect("model cached")
        .clone();

    s.load("node: c[linkto => d].").unwrap();
    let warm = s.query("reach(a, X)", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(warm.rows.len(), 3);
    let stats_after = s
        .model_stats(Strategy::BottomUpSemiNaive)
        .expect("model still cached")
        .clone();
    // The resumed run kept the old counters and appended the delta's
    // rounds — it did not start over.
    assert!(stats_after.iterations > stats_before.iterations);
    assert!(stats_after.facts_derived > stats_before.facts_derived);
    assert!(stats_after.delta_sizes.len() > stats_before.delta_sizes.len());
    assert!(stats_after.delta_sizes.starts_with(&stats_before.delta_sizes));

    let mut fresh = Session::new();
    fresh
        .load("node: a[linkto => b].\nnode: b[linkto => c].\nnode: c[linkto => d].\nreach(X, Y) :- node: X[linkto => Y].\nreach(X, Z) :- node: X[linkto => Y], reach(Y, Z).")
        .unwrap();
    let scratch = fresh.query("reach(a, X)", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(warm.rendered(), scratch.rendered());
}

/// Negated conjunction queries push auxiliary clauses as a scratch
/// overlay onto the shared compiled program and resume a clone of the
/// cached model; neither the overlay nor the query-local `__naux…` facts
/// may leak into later queries.
#[test]
fn negation_overlays_leave_no_residue() {
    let mut s = Session::new();
    s.load("person: ada[age => 28].\nperson: bob[age => 30].")
        .unwrap();
    for _ in 0..2 {
        for strategy in [Strategy::Sld, Strategy::BottomUpSemiNaive] {
            let r = common::evaluate(&mut s, "person: X, \\+ person: X[age => 28]", strategy)
                .unwrap();
            assert_eq!(r.rows.len(), 1, "{strategy:?}");
            assert_eq!(r.rows[0].get("X"), Some("bob".to_string()));
        }
    }
    // The plain query still sees exactly the loaded objects.
    let all = s.query("person: X", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(all.rows.len(), 2);
    assert!(all.complete);
}

/// Incomplete (budget-cut) answers are never cached: a repeat of the
/// same query goes back to the engine.
#[test]
fn incomplete_answers_are_not_cached() {
    let mut s = Session::with_options(SessionOptions {
        fixpoint: folog::FixpointOptions {
            max_facts: Some(2),
            ..folog::FixpointOptions::default()
        },
        ..SessionOptions::default()
    });
    s.load("t1: c1.\nt1: c2.\nt1: c3.").unwrap();
    let r = s.query("t1: X", Strategy::BottomUpSemiNaive).unwrap();
    assert!(!r.complete);
    assert_eq!(s.cache_stats().misses, 1);
    let _ = s.query("t1: X", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(s.cache_stats().hits, 0, "partial answers must not be served from cache");
    assert_eq!(s.cache_stats().misses, 2);
}

/// A retraction DRed-patches only a model of the translation it diffs.
/// A model that lags it — the naive model the exclusive path built
/// before loads that `prepare` (or another strategy) translated — must
/// be dropped and recomputed, or the facts loaded since would vanish.
#[test]
fn retract_recomputes_a_model_that_lags_the_translation() {
    let pairs = [
        (Strategy::BottomUpNaive, Strategy::BottomUpSemiNaive),
        (Strategy::BottomUpSemiNaive, Strategy::BottomUpNaive),
    ];
    for (lagging, other) in pairs {
        let mut s = Session::new();
        s.load("t1: c1.").unwrap();
        assert_eq!(s.query("t1: X", lagging).unwrap().rows.len(), 1);
        s.load("t1: c2.").unwrap();
        assert_eq!(s.query("t1: X", other).unwrap().rows.len(), 2);
        s.retract("t1: c1.").unwrap();
        let r = s.query("t1: X", lagging).unwrap();
        assert_eq!(r.rendered(), ["X = c2"], "{lagging:?}");
    }

    let mut s = Session::new();
    s.load("t1: c1.").unwrap();
    s.query("t1: X", Strategy::BottomUpNaive).unwrap();
    s.load("t1: c2.").unwrap();
    s.prepare().unwrap();
    s.retract("t1: c1.").unwrap();
    s.prepare().unwrap();
    let r = s.query("t1: X", Strategy::BottomUpNaive).unwrap();
    assert_eq!(r.rendered(), ["X = c2"]);
}
