//! Theorem 1, exercised end-to-end: the transformation preserves
//! satisfaction in both directions, the generalized-clause machinery
//! matches the paper's §4 walk-through, and the built-in handling is the
//! only (documented) deviation.

use clogic::core::fol::GeneralizedClause;
use clogic::core::structure::{Assignment, Structure};
use clogic::core::transform::{Transformer, DEFAULT_BUILTINS};
use clogic::core::{object_type, Atomic, Program};
use clogic_parser::{parse_program, parse_query, parse_term};
use folog::builtins::builtin_symbols;
use folog::{evaluate, CompiledProgram, FixpointOptions};

fn least_model(p: &Program) -> folog::Evaluation {
    let fo = Transformer::new().program(p);
    let compiled = CompiledProgram::compile(&fo, builtin_symbols());
    evaluate(&compiled, FixpointOptions::default()).unwrap()
}

#[test]
fn translation_direction_1_structure_to_fo() {
    // M ⊨ α iff M* ⊨ α*: build a structure by hand, check a batch of
    // atomic formulas against both readings.
    let mut st = Structure::new();
    let john = st.add_named_constant("john");
    let bob = st.add_named_constant("bob");
    st.add_type_member(object_type(), john);
    st.add_type_member(object_type(), bob);
    st.add_type_member("person", john);
    st.add_label_pair("children", john, bob);

    let _ = (john, bob);
    // The FO reading of the same structure is the set of atoms
    // { object(john), object(bob), person(john), children(john, bob) };
    // M ⊨ α must coincide with "every conjunct of α* is in that set".
    let fo_atoms: std::collections::BTreeSet<String> = [
        "object(john)",
        "object(bob)",
        "person(john)",
        "children(john, bob)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let tr = Transformer::new();
    let cases = [
        ("person: john[children => bob]", true),
        ("person: bob", false),
        ("john[children => bob]", true),
        ("john[children => john]", false),
        ("object: bob", true),
    ];
    for (text, expected) in cases {
        let t = parse_term(text).unwrap();
        let a = Atomic::term(t);
        assert_eq!(
            st.satisfies_atomic(&a, &Assignment::new()),
            expected,
            "{text}"
        );
        let all_hold = tr
            .atomic(&a)
            .iter()
            .all(|c| fo_atoms.contains(&c.to_string()));
        assert_eq!(all_hold, expected, "FO reading of {text}");
    }
}

#[test]
fn translation_direction_2_least_model_to_structure() {
    // Any FO model of the translation satisfying the type axioms
    // corresponds to a structure of L; the least model is such a model.
    let p = parse_program(
        r#"
        student < person.
        student: ann[score => 90].
        honors: X :- student: X[score => S], S >= 85.
        "#,
    )
    .unwrap();
    let ev = least_model(&p);
    let mut sig = p.signature();
    sig.types.insert(object_type());
    let st = Structure::from_ground_atoms(&ev.ground_atoms(), &sig);
    // the corresponding structure respects the hierarchy…
    assert!(st.respects(&p.hierarchy()));
    // …and satisfies the program
    assert!(st.satisfies_program(&p));
    // spot checks
    let s = Assignment::new();
    assert!(st.satisfies_term(&parse_term("honors: ann").unwrap(), &s));
    assert!(st.satisfies_term(&parse_term("person: ann").unwrap(), &s));
}

#[test]
fn generalized_clause_split_count_matches_head_conjuncts() {
    let p = parse_program("propernp: X[pers => 3, num => singular, def => definite] :- name: X.")
        .unwrap();
    let tr = Transformer::new();
    let gc: GeneralizedClause = tr.clause(&p.clauses[0]);
    assert_eq!(gc.heads.len(), 7);
    assert_eq!(gc.split().len(), 7);
    // every split clause shares the body
    for c in gc.split() {
        assert_eq!(c.body, gc.body);
    }
}

#[test]
fn multiple_head_occurrences_are_independent() {
    // §4: "multiple occurrences of the same variable in the head are
    // independent" after splitting — each split clause is universally
    // quantified on its own.
    let p = parse_program("pair: X[a => X] :- seed: X.\nseed: s1.\nseed: s2.").unwrap();
    let ev = least_model(&p);
    // derived: pair(s1), a(s1,s1), pair(s2), a(s2,s2) — plus seeds/objects
    let q = parse_query("pair: X[a => X]").unwrap();
    let goals = Transformer::new().query(&q);
    assert_eq!(ev.query(&goals, &[], &[]).unwrap().len(), 2);
    // crucially NOT a(s1, s2): the head occurrences were linked in the
    // molecule, so the tuples stay consistent per derivation
    let cross = parse_query("pair: s1[a => s2]").unwrap();
    let cross = Transformer::new().query(&cross);
    assert!(ev.query(&cross, &[], &[]).unwrap().is_empty());
}

#[test]
fn builtin_positions_are_untyped_by_default_and_typed_when_pure() {
    let p = parse_program("n: 1.\nsucc: Y :- n: X, Y is X + 1.").unwrap();
    let tr = Transformer::new();
    let gc = tr.clause(&p.clauses[1]);
    let body: Vec<String> = gc.body.iter().map(|a| a.to_string()).collect();
    assert_eq!(body, vec!["n(X)", "is(Y, +(X, 1))"]);
    // the pure transformer (no built-ins) types everything, as the
    // literal Theorem 1 map would
    let pure = Transformer::pure();
    let gc2 = pure.clause(&p.clauses[1]);
    assert!(gc2.body.iter().any(|a| a.to_string() == "object(+(X, 1))"));
    // DEFAULT_BUILTINS is the documented deviation list
    assert!(DEFAULT_BUILTINS.contains(&"is"));
}

#[test]
fn type_axioms_only_for_occurring_types() {
    // §4: axioms are added only for the finitely many type symbols in the
    // program, not "an infinite number of first-order clauses".
    let p = parse_program("alpha: a.\nbeta: b.\n").unwrap();
    let tr = Transformer::new();
    let axioms = tr.type_axioms(&p);
    let shown: Vec<String> = axioms.iter().map(|c| c.to_string()).collect();
    assert_eq!(shown.len(), 2);
    assert!(shown.contains(&"object(X) :- alpha(X).".to_string()));
    assert!(shown.contains(&"object(X) :- beta(X).".to_string()));
}

#[test]
fn object_is_the_active_domain() {
    // §4: "object is essentially the active domain which includes every
    // individual object in the database".
    let p = parse_program("person: john[likes => mary].\nitem: np(a, b).").unwrap();
    let ev = least_model(&p);
    let q = parse_query("object: X").unwrap();
    let answers = ev.query(&Transformer::new().query(&q), &[], &[]).unwrap();
    let xs: Vec<String> = answers
        .iter()
        .map(|a| a.values().next().unwrap().to_string())
        .collect();
    assert_eq!(xs.len(), 5); // john, mary, np(a,b), a, b
    assert!(xs.contains(&"np(a, b)".to_string()));
    assert!(xs.contains(&"mary".to_string()));
}
