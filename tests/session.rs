//! The `Session` facade: option knobs, caching/invalidating, cumulative
//! loads, error surfaces.

use clogic::session::{Session, SessionError, SessionOptions, Strategy};

mod common;

#[test]
fn cumulative_loads_accumulate() {
    let mut s = Session::new();
    s.load("person: john.").unwrap();
    assert_eq!(
        s.query("person: X", Strategy::Direct).unwrap().rows.len(),
        1
    );
    s.load("person: mary.\nstudent < person.\nstudent: ada.")
        .unwrap();
    // caches invalidated: new facts and the new subtype both visible
    for strategy in Strategy::ALL {
        let r = common::evaluate(&mut s, "person: X", strategy).unwrap();
        assert_eq!(r.rows.len(), 3, "{strategy:?}");
    }
}

#[test]
fn queries_in_loaded_source_are_rejected() {
    let mut s = Session::new();
    let err = s.load("person: john.\n:- person: X.").unwrap_err();
    assert!(matches!(err, SessionError::Parse(_)));
    assert!(err.to_string().contains("Session::query"), "{err}");
}

#[test]
fn parse_errors_carry_positions() {
    let mut s = Session::new();
    let err = s.load("person: john[").unwrap_err();
    let shown = err.to_string();
    assert!(shown.contains("1:"), "{shown}");
}

#[test]
fn auto_skolemize_can_be_disabled() {
    let src = "node: a[linkto => b].\npath: C[src => X] :- node: X[linkto => Y].";
    let mut on = Session::new();
    on.load(src).unwrap();
    assert_eq!(on.skolem_reports().len(), 1);
    assert!(on.program().clauses[1].head.to_string().contains("sk1("));

    let mut off = Session::with_options(SessionOptions {
        auto_skolemize: false,
        ..SessionOptions::default()
    });
    off.load(src).unwrap();
    assert!(off.skolem_reports().is_empty());
    // the rule still carries its existential variable C…
    assert!(!off.program().clauses[1].head_only_vars().is_empty());
    // …so bottom-up evaluation reports the non-ground derivation.
    let err = off
        .query("path: P[src => S]", Strategy::BottomUpSemiNaive)
        .unwrap_err();
    assert!(matches!(
        err,
        SessionError::Eval(folog::bottom_up::EvalError::NonGroundDerivation(_))
    ));
}

#[test]
fn optimize_translation_toggle_changes_program_not_answers() {
    let src = "noun: students[num => plural].\n\
               np: X[num => N] :- noun: X[num => N].";
    let mut optimized = Session::new();
    optimized.load(src).unwrap();
    let mut plain = Session::with_options(SessionOptions {
        optimize_translation: false,
        ..SessionOptions::default()
    });
    plain.load(src).unwrap();
    assert!(optimized.translated().atom_count() < plain.translated().atom_count());
    for strategy in [
        Strategy::BottomUpSemiNaive,
        Strategy::Tabled,
        Strategy::Magic,
    ] {
        assert_eq!(
            common::evaluate(&mut optimized, "np: X[num => plural]", strategy)
                .unwrap()
                .rows,
            common::evaluate(&mut plain, "np: X[num => plural]", strategy)
                .unwrap()
                .rows,
            "{strategy:?}"
        );
    }
}

#[test]
fn answer_row_accessors() {
    let mut s = Session::new();
    s.load("person: ada[age => 36].").unwrap();
    let r = s.query("person: X[age => A]", Strategy::Direct).unwrap();
    assert!(r.holds());
    let row = &r.rows[0];
    assert_eq!(row.get("X"), Some("ada".to_string()));
    assert_eq!(row.get("A"), Some("36".to_string()));
    assert_eq!(row.get("Nope"), None);
    assert_eq!(row.to_string(), "A = 36, X = ada");
    // ground query → a single "yes" row
    let yes = s.query("person: ada", Strategy::Direct).unwrap();
    assert_eq!(yes.rendered(), vec!["yes"]);
}

#[test]
fn builtin_errors_surface() {
    let mut s = Session::new();
    s.load("n: 1.").unwrap();
    let err = s.query("X is Y + 1", Strategy::Sld).unwrap_err();
    assert!(matches!(err, SessionError::Builtin(_)), "{err}");
}

#[test]
fn load_program_ast_directly() {
    use clogic::core::{Atomic, Program, Term};
    let mut p = Program::new();
    p.push_fact(Atomic::term(Term::typed_constant("color", "red")));
    let mut s = Session::new();
    s.load_program(p);
    assert!(s.query("color: red", Strategy::Magic).unwrap().holds());
}

#[test]
fn translated_is_cached_until_invalidated() {
    let mut s = Session::new();
    s.load("a: x.").unwrap();
    let before = s.translated().len();
    // pure query does not change the program
    let _ = s.query("a: x", Strategy::Tabled).unwrap();
    assert_eq!(s.translated().len(), before);
    s.load("b: y.").unwrap();
    assert!(s.translated().len() > before);
}

const AGES: &str = "person: ann[age => 40].\nperson: bob[age => 20].";

/// Built-in goals in a query: a comparison filters the answers and `is`
/// binds a new variable, under every strategy. The answers are written
/// out because the §3.2 oracle has no built-ins.
#[test]
fn built_in_goals_answer_under_every_strategy() {
    let cases: [(&str, &[&str]); 2] = [
        ("person: X[age => A], A > 30", &["A = 40, X = ann"]),
        (
            "person: X[age => A], B is A + 1",
            &["A = 20, B = 21, X = bob", "A = 40, B = 41, X = ann"],
        ),
    ];
    let mut s = Session::new();
    s.load(AGES).unwrap();
    for (query, want) in cases {
        for strategy in Strategy::ALL {
            let a = common::evaluate(&mut s, query, strategy).unwrap();
            assert!(a.complete, "{query} under {strategy:?}");
            assert_eq!(a.rendered(), want, "{query} under {strategy:?}");
        }
    }
}

/// The answer cache is shared across strategies, so a bottom-up answer
/// to a query with a built-in goal is what Direct then reads.
#[test]
fn built_in_query_answers_are_cached_across_strategies() {
    let query = "person: X[age => A], A > 30";
    let mut s = Session::new();
    s.load(AGES).unwrap();
    let bottom_up = s.query(query, Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(bottom_up.rendered(), ["A = 40, X = ann"]);
    let direct = s.query(query, Strategy::Direct).unwrap();
    assert_eq!(direct.rendered(), ["A = 40, X = ann"]);
}
