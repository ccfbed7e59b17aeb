//! The negation extension (§4: "Negation can also be added although we
//! do not include it in this paper"), end to end: negation as failure in
//! rule bodies and queries, stratified bottom-up semantics, agreement
//! across the strategies that support it, and the documented rejections.

use clogic::session::{Session, SessionError, Strategy};

mod common;

/// The strategies that support negation.
const NEG_STRATEGIES: [Strategy; 4] = [
    Strategy::Direct,
    Strategy::Sld,
    Strategy::BottomUpNaive,
    Strategy::BottomUpSemiNaive,
];

const ORPHANS: &str = r#"
    person: john[children => {bob, bill}].
    person: sue[children => bob].
    person: bob.
    person: bill.
    person: ada.
    childless: X :- person: X, \+ parent_of(X).
    parent_of(X) :- person: X[children => C].
"#;

#[test]
fn negation_in_rule_bodies() {
    for strategy in NEG_STRATEGIES {
        let mut s = Session::new();
        s.load(ORPHANS).unwrap();
        let r = s.query("childless: X", strategy).unwrap();
        let xs: Vec<String> = r.rows.iter().map(|row| row.get("X").unwrap()).collect();
        assert_eq!(xs, vec!["ada", "bill", "bob"], "{strategy:?}");
    }
}

#[test]
fn negation_in_queries_over_predicates() {
    for strategy in NEG_STRATEGIES {
        let mut s = Session::new();
        s.load(ORPHANS).unwrap();
        let r = s.query("person: X, \\+ parent_of(X)", strategy).unwrap();
        assert_eq!(r.rows.len(), 3, "{strategy:?}");
    }
}

#[test]
fn negated_molecule_goals_use_aux_translation() {
    // \+ of a molecule has a conjunction-shaped translation; the FO
    // strategies go through an auxiliary predicate.
    let src = "person: john[age => 28].\nperson: bob.";
    for strategy in NEG_STRATEGIES {
        let mut s = Session::new();
        s.load(src).unwrap();
        let r = s
            .query("person: X, \\+ person: X[age => 28]", strategy)
            .unwrap();
        assert_eq!(r.rows.len(), 1, "{strategy:?}");
        assert_eq!(r.rows[0].get("X").unwrap(), "bob", "{strategy:?}");
    }
}

#[test]
fn negation_over_derived_types() {
    // The negated relation is itself rule-derived (a second stratum).
    let src = r#"
        item: a[price => 5].
        item: b[price => 50].
        item: c[price => 20].
        pricey: X :- item: X[price => P], P >= 30.
        affordable: X :- item: X, \+ pricey: X.
    "#;
    for strategy in NEG_STRATEGIES {
        let mut s = Session::new();
        s.load(src).unwrap();
        let r = s.query("affordable: X", strategy).unwrap();
        let xs: Vec<String> = r.rows.iter().map(|row| row.get("X").unwrap()).collect();
        assert_eq!(xs, vec!["a", "c"], "{strategy:?}");
    }
}

#[test]
fn negated_builtins_in_queries() {
    let src = "n: 1.\nn: 5.\nn: 9.";
    for strategy in NEG_STRATEGIES {
        let mut s = Session::new();
        s.load(src).unwrap();
        let r = s.query("n: X, \\+ X >= 5", strategy).unwrap();
        assert_eq!(r.rows.len(), 1, "{strategy:?}");
        assert_eq!(r.rows[0].get("X").unwrap(), "1");
    }
}

#[test]
fn unstratifiable_program_rejected_by_bottom_up() {
    let src = "seed: s.\np: X :- seed: X, \\+ q: X.\nq: X :- seed: X, \\+ p: X.";
    let mut s = Session::new();
    s.load(src).unwrap();
    let err = s.query("p: X", Strategy::BottomUpSemiNaive).unwrap_err();
    assert!(matches!(
        err,
        SessionError::Eval(folog::bottom_up::EvalError::Unstratifiable(_))
    ));
}

#[test]
fn tabled_and_magic_reject_negation() {
    let mut s = Session::new();
    s.load(ORPHANS).unwrap();
    for strategy in [Strategy::Tabled, Strategy::Magic] {
        let err = s
            .query("person: X, \\+ parent_of(X)", strategy)
            .unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("negation"), "{strategy:?}: {shown}");
    }
}

#[test]
fn floundering_query_is_an_error() {
    let mut s = Session::new();
    s.load("q: z.").unwrap();
    for strategy in [Strategy::Direct, Strategy::Sld, Strategy::BottomUpSemiNaive] {
        let err = s.query("\\+ q: Y", strategy).unwrap_err();
        let shown = err.to_string();
        assert!(
            shown.contains("ground") || shown.contains("flounder"),
            "{strategy:?}: {shown}"
        );
    }
}

#[test]
fn closed_world_reading() {
    // NAF is the closed-world assumption: absence is falsity, and adding
    // the fact flips the answer (nonmonotonicity).
    let mut before = Session::new();
    before
        .load("bird: tweety.\nflies: X :- bird: X, \\+ penguin: X.")
        .unwrap();
    let mut after = Session::new();
    after
        .load("bird: tweety.\npenguin: tweety.\nflies: X :- bird: X, \\+ penguin: X.")
        .unwrap();
    for strategy in NEG_STRATEGIES {
        assert!(
            common::evaluate(&mut before, "flies: tweety", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}"
        );
        assert!(
            !common::evaluate(&mut after, "flies: tweety", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}"
        );
    }
}

#[test]
fn negation_parses_and_prints() {
    use clogic_parser::{parse_program, parse_query};
    let p = parse_program("p: X :- q: X, \\+ r: X[l => 1].").unwrap();
    assert_eq!(p.clauses[0].neg_body.len(), 1);
    let printed = p.to_string();
    assert!(printed.contains("\\+ r: X[l => 1]"), "{printed}");
    let reparsed = parse_program(&printed).unwrap();
    assert_eq!(reparsed, p);
    let q = parse_query("q: X, \\+ r: X").unwrap();
    assert_eq!(q.neg_goals.len(), 1);
    assert!(q.is_safe());
    let unsafe_q = parse_query("\\+ r: X").unwrap();
    assert!(!unsafe_q.is_safe());
}
