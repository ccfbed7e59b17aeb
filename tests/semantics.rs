//! X2 — the semantic equivalences of §3.2: decomposition and
//! recombination of complex descriptions, the term/predicate asymmetry,
//! and model-theoretic satisfaction against the least model of the
//! translated program.

use clogic::core::decompose::{atoms, normalize, recombine, subsumes};
use clogic::core::structure::Assignment;
use clogic::core::transform::Transformer;
use clogic::core::{Atomic, Query, TypeHierarchy};
use clogic::session::{Session, Strategy};
use clogic_parser::{parse_program, parse_query, parse_term};
use common::least_model as least_model_structure;
use folog::builtins::builtin_symbols;
use folog::{evaluate, CompiledProgram, FixpointOptions};

mod common;

#[test]
fn molecule_satisfied_iff_all_atomic_pieces_are() {
    let p =
        parse_program("person: john[name => \"John Smith\", age => 28, children => {bob, bill}].")
            .unwrap();
    let st = least_model_structure(&p);
    let s = Assignment::new();
    let whole =
        parse_term("person: john[name => \"John Smith\", age => 28, children => {bob, bill}]")
            .unwrap();
    assert!(st.satisfies_term(&whole, &s));
    for piece in atoms(&whole) {
        assert!(st.satisfies_term(&piece, &s), "{piece}");
    }
    // recombination of the pieces is satisfied too
    let merged = recombine(&atoms(&whole)[1..]).unwrap();
    assert!(st.satisfies_term(&merged, &s));
    // and a wrong piece is not
    let wrong = parse_term("person: john[age => 29]").unwrap();
    assert!(!st.satisfies_term(&wrong, &s));
}

#[test]
fn labels_of_a_term_are_independent_but_predicate_arguments_are_not() {
    // §3.2: from p[src=>a,dest=>b] and p[src=>c,dest=>d] infer
    // p[src=>a,dest=>d]; from p(a,b) and p(c,d) do NOT infer p(a,d).
    let src = "path: p[src => a, dest => b].\n\
               path: p[src => c, dest => d].\n\
               conn(a, b).\n\
               conn(c, d).";
    for strategy in Strategy::ALL {
        let mut s = Session::new();
        s.load(src).unwrap();
        assert!(
            s.query("path: p[src => a, dest => d]", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}: cross description should hold"
        );
        assert!(
            s.query("path: p[src => c, dest => b]", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}"
        );
        assert!(
            !s.query("conn(a, d)", strategy).unwrap().holds(),
            "{strategy:?}: predicate tuples must not mix"
        );
        assert!(
            !s.query("conn(c, b)", strategy).unwrap().holds(),
            "{strategy:?}"
        );
    }
}

#[test]
fn piecewise_accumulation_across_clauses() {
    // §2.2: information about an object may be accumulated piecewise.
    let src = "person: john[name => \"John Smith\"].\n\
               person: john[age => 28].";
    for strategy in Strategy::ALL {
        let mut s = Session::new();
        s.load(src).unwrap();
        assert!(
            s.query("person: john[name => \"John Smith\", age => 28]", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}"
        );
    }
}

#[test]
fn least_model_satisfies_the_program() {
    // The structure built from the translated program's least model is a
    // model of the original C-logic program (Theorem 1, executable form).
    let p = parse_program(
        r#"
        student < person.
        student: ann[advisor => bob].
        person: bob.
        peer: X[of => Y] :- student: X[advisor => Y].
        "#,
    )
    .unwrap();
    let st = least_model_structure(&p);
    assert!(st.satisfies_program(&p));
    // and the derived rule head is satisfied
    let s = Assignment::new();
    let derived = parse_term("peer: ann[of => bob]").unwrap();
    assert!(st.satisfies_term(&derived, &s));
    // type monotonicity holds in the model: ann is a person
    assert!(st.satisfies_term(&parse_term("person: ann").unwrap(), &s));
}

#[test]
fn model_answers_match_engine_answers() {
    let p = parse_program("person: john[children => {bob, bill}].\nperson: sue[children => bob].")
        .unwrap();
    let st = least_model_structure(&p);
    let q: Query = parse_query("person: X[children => bob]").unwrap();
    let model_answers = st.answers(&q);
    assert_eq!(model_answers.len(), 2);

    let mut session = Session::new();
    session
        .load("person: john[children => {bob, bill}].\nperson: sue[children => bob].")
        .unwrap();
    let engine_answers = session
        .query("person: X[children => bob]", Strategy::Direct)
        .unwrap();
    assert_eq!(engine_answers.rows.len(), 2);
}

#[test]
fn normal_forms_and_description_ordering() {
    let h = TypeHierarchy::new();
    let merged = parse_term("path: p[src => {a, c}, dest => {b, d}]").unwrap();
    let q1 = parse_term("path: p[src => a, dest => d]").unwrap();
    let q2 = parse_term("path: p[src => {c, a}]").unwrap();
    assert!(subsumes(&q1, &merged, &h));
    assert!(subsumes(&q2, &merged, &h));
    assert!(!subsumes(&merged, &q1, &h));
    // normalization makes set order irrelevant
    assert_eq!(
        normalize(&parse_term("p[l => {b, a}]").unwrap()),
        normalize(&parse_term("p[l => {a, b}, l => a]").unwrap())
    );
}

#[test]
fn transformation_preserves_satisfaction_pointwise() {
    // For each atomic formula α and the Herbrand structure M of a small
    // database: M ⊨ α iff the FO translation α* holds in the least model.
    let src = "person: john[children => {bob, bill}, age => 28].\nstudent < person.";
    let p = parse_program(src).unwrap();
    let st = least_model_structure(&p);
    let fo = Transformer::new().program(&p);
    let compiled = CompiledProgram::compile(&fo, builtin_symbols());
    let ev = evaluate(&compiled, FixpointOptions::default()).unwrap();
    let cases = [
        ("person: john", true),
        ("john[children => bob]", true),
        ("john[children => {bob, bill}]", true),
        ("john[children => john]", false),
        ("student: john", false),
        ("person: john[age => 28, children => bill]", true),
        ("person: bob", false),
        ("object: bob", true),
    ];
    let tr = Transformer::new();
    for (text, expected) in cases {
        let t = parse_term(text).unwrap();
        let a = Atomic::term(t);
        let direct = st.satisfies_atomic(&a, &Assignment::new());
        let translated = ev.holds(&tr.atomic(&a));
        assert_eq!(direct, expected, "structure: {text}");
        assert_eq!(translated, expected, "least model: {text}");
    }
}
