//! The worked examples of Chen & Warren (PODS 1989), end to end.
//!
//! X1 — the entity-creating `path` rules of §2.1 with skolemized object
//!      identities; X3 — Example 2's translation; X4 — Example 3's
//!      noun-phrase program, answered by *every* evaluation strategy.

use clogic::core::fol::{FoAtom, FoProgram};
use clogic::core::transform::Transformer;
use clogic::session::{Session, SessionOptions, Strategy};
use clogic::Strategy::*;
use common::{disjoint_chains, PATH_RULES};

mod common;

/// Every strategy that terminates on programs whose rules contain unbound
/// typed variables. Plain SLD diverges on such translated programs — the
/// type axioms `object(X) :- commonnp(X)` recurse through rule bodies —
/// which is exactly the phenomenon tabling and magic sets repair (see
/// `sld_diverges_where_tabling_terminates` below).
const TERMINATING: [Strategy; 5] = [Direct, BottomUpNaive, BottomUpSemiNaive, Tabled, Magic];

/// The strategies that evaluate the recursive path rules to a fixpoint.
const FIXPOINT: [Strategy; 4] = [BottomUpNaive, BottomUpSemiNaive, Tabled, Magic];

const NOUN_PHRASE: &str = r#"
    name: john.
    name: bob.
    determiner: the[num => {singular, plural}, def => definite].
    determiner: a[num => singular, def => indef].
    determiner: all[num => plural, def => indef].
    noun: student[num => singular].
    noun: students[num => plural].
    propernp: X[pers => 3, num => singular, def => definite] :-
        name: X.
    commonnp: np(Det, Noun)[pers => 3, num => N, def => D] :-
        determiner: Det[num => N, def => D],
        noun: Noun[num => N].
    propernp < noun_phrase.
    commonnp < noun_phrase.
"#;

/// The §2.1 path rules, with path identities by endpoints and length.
const PATH_RULES_WITH_LENGTH: &str = r#"
    path: id(X, Y, 1)[src => X, dest => Y, length => 1] :- node: X[linkto => Y].
    path: id(X, Y, L)[src => X, dest => Y, length => L] :-
        node: X[linkto => Z],
        path: id(Z, Y, LO)[src => Z, dest => Y, length => LO],
        L is LO + 1.
"#;

const CHAIN: &str = r#"
    node: a[linkto => b].
    node: b[linkto => c].
    node: c[linkto => d].
"#;

const CYCLE: &str = r#"
    node: a[linkto => b].
    node: b[linkto => c].
    node: c[linkto => d].
    node: d[linkto => b].   % cycle b -> c -> d -> b
"#;

#[test]
fn x4_noun_phrase_plural_query_all_strategies() {
    // ":- noun_phrase: X[num => plural]." has exactly two answers:
    // np(the, students) and np(all, students) (§4).
    for strategy in TERMINATING {
        let mut s = Session::new();
        s.load(NOUN_PHRASE).unwrap();
        let answers = s
            .query(":- noun_phrase: X[num => plural].", strategy)
            .unwrap();
        assert_eq!(
            answers.rendered(),
            vec!["X = np(all, students)", "X = np(the, students)"],
            "strategy {strategy:?}"
        );
        assert!(answers.complete, "strategy {strategy:?}");
    }
}

#[test]
fn x4_ground_and_negative_queries() {
    let mut s = Session::new();
    s.load(NOUN_PHRASE).unwrap();
    for strategy in TERMINATING {
        assert!(
            common::evaluate(&mut s, "noun_phrase: np(the, students)", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}"
        );
        assert!(
            !common::evaluate(&mut s, "noun_phrase: np(a, students)", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}"
        );
        // determiners are not noun phrases
        assert!(
            !common::evaluate(&mut s, "noun_phrase: the", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}"
        );
        // but they are objects
        assert!(
            common::evaluate(&mut s, "object: the", strategy)
                .unwrap()
                .holds(),
            "{strategy:?}"
        );
    }
}

#[test]
fn x4_propernp_inherits_into_noun_phrase() {
    let mut s = Session::new();
    s.load(NOUN_PHRASE).unwrap();
    for strategy in TERMINATING {
        let r = common::evaluate(&mut s, "noun_phrase: john[def => definite]", strategy).unwrap();
        assert!(r.holds(), "{strategy:?}");
    }
}

#[test]
fn x1_path_objects_identified_by_endpoints() {
    // With identities id(X, Y), the cyclic graph has finitely many path
    // objects: one per connected (src, dest) pair.
    for strategy in FIXPOINT {
        let mut s = Session::new();
        s.load(&format!("{CYCLE}{PATH_RULES}")).unwrap();
        let r = s.query("path: P[src => a, dest => D]", strategy).unwrap();
        let ps: Vec<String> = r.rows.iter().map(|row| row.get("P").unwrap()).collect();
        // a reaches b, c, d
        assert_eq!(ps, vec!["id(a, b)", "id(a, c)", "id(a, d)"], "{strategy:?}");
        // the cycle b→c→d→b gives paths both ways
        assert!(s
            .query("path: id(b, b)[src => b, dest => b]", strategy)
            .unwrap()
            .holds());
        assert!(s
            .query("path: id(d, c)[src => d, dest => c]", strategy)
            .unwrap()
            .holds());
        // but nothing reaches a
        assert!(!s.query("path: P[dest => a]", strategy).unwrap().holds());
    }
}

#[test]
fn x1_auto_skolemization_of_the_paper_rules() {
    // Loading the original rules (existential object variable C) with the
    // high-level interface: the session skolemizes C on the variables it
    // is existentially dependent upon.
    let src = r#"
        node: a[linkto => b].
        node: b[linkto => c].
        path: C[src => X, dest => Y] :- node: X[linkto => Y].
        path: C[src => X, dest => Y] :-
            node: X[linkto => Z],
            path: CO[src => Z, dest => Y].
    "#;
    let mut s = Session::new();
    s.load(src).unwrap();
    // Both rules had C (and the second also CO as a body-only var; only C
    // is head-only and skolemized).
    assert_eq!(s.skolem_reports().len(), 2);
    for report in s.skolem_reports() {
        assert_eq!(report.spec.var, clogic::core::sym("C"));
        assert_eq!(
            report.spec.deps,
            vec![clogic::core::sym("X"), clogic::core::sym("Y")]
        );
    }
    // And the program runs: a reaches b and c.
    let r = s
        .query("path: P[src => a, dest => D]", BottomUpSemiNaive)
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn x1_identity_choice_changes_object_count() {
    // §2.1: path objects determined by endpoints vs by endpoints+length.
    // On a 4-chain with a shortcut edge there are two routes a→c: same
    // endpoints, different lengths.
    let base = r#"
        node: a[linkto => b].
        node: b[linkto => c].
        node: a[linkto => c].   % shortcut
    "#;
    let mut s1 = Session::new();
    s1.load(&format!("{base}{PATH_RULES}")).unwrap();
    let ends = s1
        .query("path: P[src => a, dest => c]", BottomUpSemiNaive)
        .unwrap();
    assert_eq!(ends.rows.len(), 1); // one object id(a,c)

    let mut s2 = Session::new();
    s2.load(&format!("{base}{PATH_RULES_WITH_LENGTH}")).unwrap();
    let with_len = s2
        .query("path: P[src => a, dest => c]", BottomUpSemiNaive)
        .unwrap();
    assert_eq!(with_len.rows.len(), 2); // id(a,c,1) and id(a,c,2)
}

#[test]
fn x3_example_2_translation_golden() {
    use clogic::core::transform::Transformer;
    use clogic_parser::parse_term;
    let t = parse_term("determiner: the[num => {singular, plural}, def => definite]").unwrap();
    let conj = Transformer::new().atomic(&clogic::core::Atomic::term(t));
    let shown: Vec<String> = conj.iter().map(|a| a.to_string()).collect();
    assert_eq!(
        shown,
        vec![
            "determiner(the)",
            "object(singular)",
            "num(the, singular)",
            "object(plural)",
            "num(the, plural)",
            "object(definite)",
            "def(the, definite)",
        ]
    );
}

#[test]
fn path_with_lengths_on_acyclic_graph_all_strategies() {
    let src = r#"
        node: a[linkto => b].
        node: b[linkto => c].
        node: c[linkto => d].
        path: id(X, Y)[src => X, dest => Y, length => 1] :- node: X[linkto => Y].
        path: id(X, Y)[src => X, dest => Y, length => L] :-
            node: X[linkto => Z],
            path: id(Z, Y)[src => Z, dest => Y, length => LO],
            L is LO + 1.
    "#;
    // Note: id(X, Y) identities with *multi-valued* length: on an acyclic
    // graph each pair has one length here.
    for strategy in TERMINATING {
        let mut s = Session::new();
        s.load(src).unwrap();
        let r = s
            .query("path: P[src => a, dest => d, length => L]", strategy)
            .unwrap();
        assert_eq!(r.rows.len(), 1, "{strategy:?}");
        assert_eq!(r.rows[0].get("L").unwrap(), "3", "{strategy:?}");
        assert_eq!(r.rows[0].get("P").unwrap(), "id(a, d)", "{strategy:?}");
    }
}

#[test]
fn optimized_and_unoptimized_translations_agree() {
    let mut plain = Session::with_options(SessionOptions {
        optimize_translation: false,
        ..SessionOptions::default()
    });
    plain.load(NOUN_PHRASE).unwrap();
    let mut optimized = Session::new();
    optimized.load(NOUN_PHRASE).unwrap();
    for query in [
        ":- noun_phrase: X[num => plural].",
        ":- propernp: X.",
        ":- object: X.",
        ":- commonnp: X[def => D].",
    ] {
        for strategy in FIXPOINT {
            let a = common::evaluate(&mut plain, query, strategy).unwrap();
            let b = common::evaluate(&mut optimized, query, strategy).unwrap();
            assert_eq!(a.rows, b.rows, "{query} under {strategy:?}");
        }
    }
    // and the optimized program is strictly smaller
    assert!(optimized.translated().len() < plain.translated().len());
}

#[test]
fn sld_diverges_where_tabling_terminates() {
    // The *literal* translated grammar is left-recursive through the type
    // axioms: object(N) resolves via object(X) :- commonnp(X), whose body
    // asks object(N') again. Depth-first SLD cannot exhaust that tree.
    // Tabling repairs it — and so does the optimizer's rule 3 (pruning
    // redundant body object-checks), after which even plain SLD
    // terminates on the paper's grammar.
    use clogic::session::SessionOptions;
    use folog::SldOptions;
    let tight_sld = SldOptions {
        max_depth: Some(200),
        max_steps: Some(100_000),
        ..SldOptions::default()
    };
    let mut literal = Session::with_options(SessionOptions {
        optimize_translation: false,
        sld: tight_sld.clone(),
        ..SessionOptions::default()
    });
    literal.load(NOUN_PHRASE).unwrap();
    let sld = literal
        .query(":- noun_phrase: X[num => plural].", Sld)
        .unwrap();
    assert!(
        !sld.complete,
        "plain SLD should hit its limits on the literal translation"
    );
    let tabled = literal
        .query(":- noun_phrase: X[num => plural].", Tabled)
        .unwrap();
    assert!(tabled.complete);
    assert_eq!(tabled.rows.len(), 2);

    let mut optimized = Session::with_options(SessionOptions {
        sld: tight_sld,
        ..SessionOptions::default()
    });
    optimized.load(NOUN_PHRASE).unwrap();
    let sld_opt = optimized
        .query(":- noun_phrase: X[num => plural].", Sld)
        .unwrap();
    assert!(
        sld_opt.complete,
        "rule 3 makes SLD terminate on the grammar"
    );
    assert_eq!(sld_opt.rows.len(), 2);
}

#[test]
fn sld_terminates_on_extensional_databases() {
    // Without intensional types the translated program is a flat fact
    // base plus non-recursive axioms: SLD is complete there.
    let src = "path: p1[src => a, dest => b].
path: p2[src => c, dest => d].";
    let mut s = Session::new();
    s.load(src).unwrap();
    let r = s.query("path: X[src => S, dest => D]", Sld).unwrap();
    assert!(r.complete);
    assert_eq!(r.rows.len(), 2);
}

// ---------- §2.1 path rules under the goal-directed engines ----------

/// The path query with its source bound, its destination bound, both,
/// and neither.
const PATH_QUERIES: [&str; 4] = [
    "path: P[src => a, dest => D]",
    "path: P[src => S, dest => d]",
    "path: P[src => a, dest => d]",
    "path: P[src => S, dest => D]",
];

#[test]
fn path_rules_agree_with_the_oracle() {
    let graphs = [
        ("a chain", CHAIN.to_string()),
        (
            "two chains",
            format!("{CHAIN}node: m0[linkto => m1].\nnode: m1[linkto => m2]."),
        ),
        ("a cycle", CYCLE.to_string()),
        (
            "a DAG with a shortcut",
            format!("{CHAIN}node: a[linkto => c]."),
        ),
    ];
    for (graph, facts) in graphs {
        let text = format!("{facts}{PATH_RULES}");
        let mut semi = Session::new();
        semi.load(&text).unwrap();
        let mut s = Session::new();
        s.load(&text).unwrap();
        common::assert_answers(
            common::Under(&mut semi, BottomUpSemiNaive),
            &mut s,
            &FIXPOINT,
            &PATH_QUERIES,
            graph,
        );
    }
}

#[test]
fn path_lengths_on_a_chain() {
    let mut s = Session::new();
    s.load(&format!("{CHAIN}{PATH_RULES_WITH_LENGTH}")).unwrap();
    let cases: [(&str, &[&str]); 5] = [
        (
            "path: P[src => a, dest => D, length => L]",
            &[
                "D = b, L = 1, P = id(a, b, 1)",
                "D = c, L = 2, P = id(a, c, 2)",
                "D = d, L = 3, P = id(a, d, 3)",
            ],
        ),
        (
            "path: P[src => a, dest => D, length => L], L > 1",
            &[
                "D = c, L = 2, P = id(a, c, 2)",
                "D = d, L = 3, P = id(a, d, 3)",
            ],
        ),
        (
            "path: P[src => S, dest => d, length => 2]",
            &["P = id(b, d, 2), S = b"],
        ),
        (
            "path: P[src => S, dest => D, length => 3]",
            &["D = d, P = id(a, d, 3), S = a"],
        ),
        ("path: P[src => b, dest => a, length => L]", &[]),
    ];
    for (query, want) in cases {
        for strategy in FIXPOINT {
            let a = common::evaluate(&mut s, query, strategy).unwrap();
            assert!(a.complete, "{query} under {strategy:?}");
            assert_eq!(a.rendered(), want, "{query} under {strategy:?}");
        }
    }
}

/// The translation of `chains` disjoint chains of six edges with the
/// path rules, and of the single-source path query over them.
fn single_source_query(chains: usize) -> (FoProgram, Vec<FoAtom>) {
    let mut s = Session::new();
    s.load(&disjoint_chains(chains, 6)).unwrap();
    let q = clogic::parser::parse_query("path: P[src => c0n0, dest => D]").unwrap();
    (s.translated().clone(), Transformer::new().query(&q))
}

#[test]
fn magic_asks_the_path_rules_with_the_source_bound() {
    use clogic::folog::builtins::builtin_symbols;
    use clogic::folog::magic::magic_transform;
    let (fo, goals) = single_source_query(3);
    let builtins = builtin_symbols().collect();
    let rewritten = magic_transform(&fo, &goals, &builtins).program;
    let preds: Vec<String> = rewritten
        .clauses
        .iter()
        .flat_map(|c| std::iter::once(&c.head).chain(&c.body))
        .map(|a| a.pred.to_string())
        .collect();
    assert!(preds.iter().any(|p| p == "m__src__fb"), "{rewritten}");
    for free in ["m__path__f", "m__object__f"] {
        assert!(!preds.iter().any(|p| p == free), "{free} in\n{rewritten}");
    }
}

#[test]
fn tabled_work_on_one_chain_ignores_the_others() {
    use clogic::folog::builtins::builtin_symbols;
    use clogic::folog::tabling::{TabledEngine, TablingOptions};
    use clogic::folog::CompiledProgram;
    let activations = |chains: usize| {
        let (fo, goals) = single_source_query(chains);
        let cp = CompiledProgram::compile(&fo, builtin_symbols());
        let r = TabledEngine::new(&cp, TablingOptions::default())
            .solve(&goals)
            .unwrap();
        assert!(r.complete);
        assert_eq!(r.answers.len(), 6, "{chains} chains");
        r.stats.clause_activations
    };
    assert_eq!(activations(3), activations(20));
}
