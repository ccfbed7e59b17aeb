//! Property tests: the executable content of Theorem 1.
//!
//! For generated C-logic databases and queries, every evaluation
//! strategy — direct resolution over complex objects, and the translated
//! first-order route under SLD, naive/semi-naive bottom-up, tabling and
//! magic sets — must produce identical answer sets, and without negation
//! those must be the answers of the §3.2 oracle. Also: parser ⇄ printer
//! round-trips, decomposition/recombination laws on generated molecules,
//! and the oracle catching a translation bug every strategy shares.

use clogic::core::decompose::{atoms, normalize, recombine};
use clogic::core::transform::Transformer;
use clogic::core::{Atomic, Term};
use clogic::folog::builtins::builtin_symbols;
use clogic::folog::magic::solve_magic;
use clogic::folog::tabling::{TabledEngine, TablingOptions};
use clogic::folog::{
    evaluate, CompiledProgram, FixpointOptions, SldEngine, SldOptions, Strategy as Fixpoint,
};
use clogic::session::{Session, Strategy};
use clogic_parser::{parse_program, parse_query};
use common::{corpus, Case, Features, Under};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use proptest::test_runner::TestRng;

mod common;

/// Loads `case` twice and asserts that each of `strategies` answers its
/// queries as semi-naive evaluation does (and, without negation, as
/// the oracle does).
fn assert_strategies_agree(case: &Case, strategies: &[Strategy]) {
    let mut semi = Session::new();
    semi.load_program(case.program.clone());
    let mut s = Session::new();
    s.load_program(case.program.clone());
    common::assert_answers(
        Under(&mut semi, Strategy::BottomUpSemiNaive),
        &mut s,
        strategies,
        &case.queries,
        "semi-naive against each strategy",
    );
}

/// The molecules among `case`'s facts.
fn molecule_facts(case: &Case) -> impl Iterator<Item = &Term> {
    case.program.clauses.iter().filter_map(|c| match &c.head {
        Atomic::Term(t) if c.is_fact() => Some(t),
        _ => None,
    })
}

// ---------- properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_strategies_agree_on_extensional_databases(case in corpus(Features::FACTS)) {
        assert_strategies_agree(&case, &Strategy::ALL);
    }

    #[test]
    fn non_sld_strategies_agree_with_rules(case in corpus(Features::RULES)) {
        assert_strategies_agree(
            &case,
            &[Strategy::Direct, Strategy::BottomUpNaive, Strategy::Tabled, Strategy::Magic],
        );
    }

    #[test]
    fn parser_printer_roundtrip(case in corpus(Features::TOP)) {
        let reparsed = parse_program(&case.program.to_string()).unwrap();
        prop_assert_eq!(reparsed, case.program);
    }

    #[test]
    fn query_printer_roundtrip(case in corpus(Features::TOP)) {
        for q in &case.queries {
            let parsed = parse_query(q).unwrap();
            let reparsed = parse_query(&parsed.to_string()).unwrap();
            prop_assert_eq!(reparsed, parsed);
        }
    }

    #[test]
    fn decomposition_recombination_roundtrip(case in corpus(Features::FACTS)) {
        for t in molecule_facts(&case) {
            // recombining all pieces gives the normal form of the original
            let merged = recombine(&atoms(t)).unwrap();
            prop_assert_eq!(merged, normalize(t));
        }
    }

    #[test]
    fn normalization_is_idempotent_and_order_insensitive(case in corpus(Features::FACTS)) {
        for t in molecule_facts(&case) {
            let Term::Molecule { head, specs } = t else { continue };
            let mut reversed = specs.clone();
            reversed.reverse();
            let reversed = Term::molecule(Term::Id(head.clone()), reversed).unwrap();
            prop_assert_eq!(normalize(t), normalize(&reversed));
            let n = normalize(t);
            prop_assert_eq!(normalize(&n), n.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Negation as failure: the strategies supporting it agree on a
    /// stratified program with one negated rule.
    #[test]
    fn negation_strategies_agree(case in corpus(Features::TOP)) {
        assert_strategies_agree(
            &case,
            &[Strategy::Direct, Strategy::Sld, Strategy::BottomUpNaive],
        );
    }
}

// ---------- the corpus and the oracle ----------

/// Most generated queries have answers, so cross-strategy checks
/// compare answer sets rather than two empty ones.
#[test]
fn most_corpus_queries_have_answers() {
    let corpus = corpus(Features::RULES);
    let (mut pairs, mut answered) = (0, 0);
    for i in 0..100 {
        let case = corpus.generate(&mut TestRng::for_case(0x5eed, i));
        let mut s = Session::new();
        s.load_program(case.program);
        for q in &case.queries {
            pairs += 1;
            if common::evaluate(&mut s, q, Strategy::BottomUpSemiNaive)
                .unwrap()
                .holds()
            {
                answered += 1;
            }
        }
    }
    assert_eq!(pairs, 200);
    assert!(answered >= 100, "only {answered} of {pairs} queries have answers");
}

/// A translation that drops one type axiom is wrong in a way every
/// translated strategy shares: they all agree on it. The §3.2 oracle
/// still catches it, because the least model of the mutant does not
/// satisfy the program.
#[test]
fn oracle_rejects_a_translation_missing_a_type_axiom() {
    let p = parse_program("t1 < t2.\nt1: c1[l1 => c2].").unwrap();
    let faithful = Transformer::new().program(&p);
    let mut mutant = faithful.clone();
    mutant.clauses.retain(|c| c.to_string() != "t2(X) :- t1(X).");
    assert_eq!(mutant.clauses.len() + 1, faithful.clauses.len(), "{faithful}");

    let goals = Transformer::new().query(&parse_query("t2: X").unwrap());
    let cp = CompiledProgram::compile(&mutant, builtin_symbols());
    for strategy in [Fixpoint::Naive, Fixpoint::SemiNaive] {
        let opts = FixpointOptions {
            strategy,
            ..FixpointOptions::default()
        };
        assert!(evaluate(&cp, opts).unwrap().query(&goals).is_empty(), "{strategy:?}");
    }
    let sld = SldEngine::new(&cp, SldOptions::default()).solve(&goals).unwrap();
    assert!(sld.answers.is_empty());
    let tabled = TabledEngine::new(&cp, TablingOptions::default()).solve(&goals).unwrap();
    assert!(tabled.answers.is_empty());
    let builtins = builtin_symbols().collect();
    let (magic, _) = solve_magic(&mutant, &goals, &builtins, FixpointOptions::default()).unwrap();
    assert!(magic.is_empty());

    assert!(common::least_model_of(&p, &faithful).satisfies_program(&p));
    assert!(!common::least_model_of(&p, &mutant).satisfies_program(&p));
    assert_eq!(common::oracle(&p, "t2: X"), ["X = c1"]);
}

// ---------- regressions ----------

#[test]
fn regression_empty_query_answers() {
    // a query about a type that exists but with an unmatched label
    let mut s = Session::new();
    s.load("t1: c1[l1 => c2].").unwrap();
    for strategy in Strategy::ALL {
        let a = common::evaluate(&mut s, "t1: c1[l2 => V]", strategy).unwrap();
        assert!(a.complete && a.rows.is_empty(), "{strategy:?}");
    }
}

#[test]
fn regression_subtype_flows_into_queries() {
    let mut s = Session::new();
    s.load("t1 < t2.\nt1: c1[l1 => c2].").unwrap();
    for strategy in Strategy::ALL {
        let a = common::evaluate(&mut s, "t2: X[l1 => c2]", strategy).unwrap();
        assert!(a.complete, "{strategy:?}");
        assert_eq!(a.rendered(), ["X = c1"], "{strategy:?}");
    }
}
