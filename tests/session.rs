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
