//! The epoch-versioned incremental pipeline: cumulative loading must be
//! indistinguishable from loading everything at once — across all six
//! strategies, with and without entity-creating (skolemized) rules — and
//! the caches that make re-querying cheap must never change answers.

use clogic::folog::Budget;
use clogic::session::{Session, SessionOptions, Strategy};
use common::{corpus, Case, Features};
use proptest::prelude::*;

mod common;

/// `load(a); load(b)` must answer exactly like `load(a + b)`, for every
/// strategy and query — the cumulative-loading soundness property of the
/// incremental pipeline (delta translation, resumed fixpoints, merged
/// object stores, threaded skolem numbering all sit behind this). The
/// entity-creating rules' `skN(…)` identities must come out the same
/// whether the program is loaded in one piece or two.
fn assert_split_load_equivalent(a: Case, b: Case) {
    let queries = common::queries([&a, &b]);
    let mut combined_program = a.program.clone();
    combined_program
        .subtype_decls
        .extend(b.program.subtype_decls.clone());
    combined_program.clauses.extend(b.program.clauses.clone());

    let mut split = Session::new();
    split.load_program(a.program);
    // Saturate bottom-up models at the intermediate epoch so the second
    // load exercises resumption rather than a cold start.
    for q in &queries {
        let _ = split.query(q, Strategy::BottomUpSemiNaive);
        let _ = split.query(q, Strategy::BottomUpNaive);
    }
    split.load_program(b.program);

    let mut combined = Session::new();
    combined.load_program(combined_program);

    common::assert_answers(
        &mut split,
        &mut combined,
        &Strategy::ALL,
        &queries,
        "split load against combined load",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn split_load_equals_combined_load(
        a in corpus(Features { entity_creating: false, ..Features::RULES }),
        b in corpus(Features { entity_creating: false, ..Features::RULES }),
    ) {
        assert_split_load_equivalent(a, b);
    }

    #[test]
    fn split_load_equals_combined_load_with_entity_creating_rules(
        a in corpus(Features::RULES),
        b in corpus(Features::RULES),
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
