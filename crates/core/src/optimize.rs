//! Static redundancy elimination over generalized logic programs (§4).
//!
//! The translated first-order program "may have certain redundancies,
//! especially in typing predicates". The paper gives two static rules for
//! a generalized definite clause, where `t1 ≤ t2` in the declared type
//! hierarchy:
//!
//! 1. if `t1(a)` and `t2(a)` both appear in the head (or both in the
//!    body), then `t2(a)` can be deleted;
//! 2. if `t1(a)` appears in the head and `t2(a)` in the body with
//!    `t2 ≤ t1`, then `t1(a)` can be deleted from the head.
//!
//! Since every type is ≤ `object`, rule 1 removes `object(a)` wherever a
//! more specific type atom for `a` is at hand, and rule 2 removes head
//! typing atoms that the body already guarantees — reproducing the paper's
//! optimized `common_np` clause exactly.
//!
//! Rules 1–2 are sound only **relative to the type axioms** (`sup(X) :-
//! sub(X)` and `object(X) :- t(X)`), which must therefore be left in the
//! program unoptimized; if every head atom of a clause is deleted, the
//! clause itself is redundant and dropped.
//!
//! The paper also notes "many redundant clauses for `object`" removable by
//! "a little bit more complicated program analysis"; we implement the
//! natural instance: *dead-clause elimination* — iteratively dropping
//! clauses whose body mentions a predicate that no clause can ever derive.

use crate::fol::{FoAtom, FoClause, FoProgram, FoTerm, GeneralizedClause};
use crate::hierarchy::{object_type, TypeHierarchy};
use crate::program::Program;
use crate::symbol::Symbol;
use crate::transform::{TranslationState, TranslationStats, Transformer};
use std::collections::{BTreeSet, HashSet};

/// Applies the §4 rules to generalized clauses of a particular program.
#[derive(Clone, Debug)]
pub struct Optimizer {
    hierarchy: TypeHierarchy,
    type_symbols: BTreeSet<Symbol>,
    builtins: BTreeSet<Symbol>,
}

impl Optimizer {
    /// Builds an optimizer from a program's declarations and signature.
    pub fn new(program: &Program) -> Optimizer {
        let mut type_symbols: BTreeSet<Symbol> = program.signature().types;
        type_symbols.insert(object_type());
        Optimizer {
            hierarchy: program.hierarchy(),
            type_symbols,
            builtins: crate::transform::DEFAULT_BUILTINS
                .iter()
                .map(|s| Symbol::new(s))
                .collect(),
        }
    }

    /// Builds an optimizer from explicit parts (used by tests and by the
    /// bench harness, which generates programs directly).
    pub fn from_parts(hierarchy: TypeHierarchy, mut type_symbols: BTreeSet<Symbol>) -> Optimizer {
        type_symbols.insert(object_type());
        Optimizer {
            hierarchy,
            type_symbols,
            builtins: crate::transform::DEFAULT_BUILTINS
                .iter()
                .map(|s| Symbol::new(s))
                .collect(),
        }
    }

    fn is_type_atom(&self, a: &FoAtom) -> bool {
        a.arity() == 1 && self.type_symbols.contains(&a.pred)
    }

    /// Rule 1 within one atom list: among typing atoms with the same
    /// argument, keep only the ≤-minimal ones (first occurrence wins among
    /// order-equivalent types). Non-typing atoms are untouched; relative
    /// order is preserved.
    pub fn minimize_typing(&self, atoms: &[FoAtom]) -> Vec<FoAtom> {
        let subsumed = |j: usize, b: &FoAtom| {
            atoms.iter().enumerate().any(|(i, a)| {
                i != j
                    && self.is_type_atom(a)
                    && a.args == b.args
                    && self.hierarchy.is_subtype(a.pred, b.pred)
                    // On order-equivalent types (declaration cycles) keep
                    // only the first occurrence.
                    && (!self.hierarchy.is_subtype(b.pred, a.pred) || i < j)
            })
        };
        atoms
            .iter()
            .enumerate()
            .filter(|(j, b)| !self.is_type_atom(b) || !subsumed(*j, b))
            .map(|(_, b)| b.clone())
            .collect()
    }

    /// Rules 1 and 2 on a generalized clause. Returns `None` when every
    /// head atom was deleted (the clause is subsumed by the type axioms).
    pub fn optimize_clause(&self, gc: &GeneralizedClause) -> Option<GeneralizedClause> {
        self.optimize_clause_counted(gc, &mut TranslationStats::default())
    }

    /// [`Optimizer::optimize_clause`], tallying per-rule deletions into
    /// `stats` (`rule1_deletions`, `rule2_deletions`, `clauses_subsumed`).
    pub fn optimize_clause_counted(
        &self,
        gc: &GeneralizedClause,
        stats: &mut TranslationStats,
    ) -> Option<GeneralizedClause> {
        let body = self.minimize_typing(&gc.body);
        let head1 = self.minimize_typing(&gc.heads);
        stats.rule1_deletions +=
            (gc.body.len() - body.len() + gc.heads.len() - head1.len()) as u64;
        let heads_before = head1.len();
        // Rule 2: drop head typing atoms guaranteed by the body.
        let heads: Vec<FoAtom> = head1
            .into_iter()
            .filter(|h| {
                if !self.is_type_atom(h) {
                    return true;
                }
                !body.iter().any(|b| {
                    self.is_type_atom(b)
                        && b.args == h.args
                        && self.hierarchy.is_subtype(b.pred, h.pred)
                })
            })
            .collect();
        stats.rule2_deletions += (heads_before - heads.len()) as u64;
        if heads.is_empty() {
            stats.clauses_subsumed += 1;
            None
        } else {
            Some(GeneralizedClause {
                heads,
                body,
                negative_body: gc.negative_body.clone(),
            })
        }
    }

    /// Rule 3 (the paper's "many redundant clauses for object can be
    /// eliminated", realized at the body level): a body check `object(t)`
    /// is redundant when `t` occurs inside another non-builtin,
    /// non-`object` body atom — every label, predicate and proper-type
    /// fact of a *translated* program is co-derived with `object` facts
    /// for all terms it mentions, so the check is implied. Removing these
    /// checks also removes the `object`-axiom recursion that makes
    /// top-down evaluation with negation diverge.
    pub fn prune_object_checks(&self, atoms: &[FoAtom]) -> Vec<FoAtom> {
        let object = object_type();
        atoms
            .iter()
            .enumerate()
            .filter(|(j, a)| {
                if a.pred != object || a.arity() != 1 {
                    return true;
                }
                !atoms.iter().enumerate().any(|(k, b)| {
                    k != *j
                        && b.pred != object
                        && !self.builtins.contains(&b.pred)
                        && b.args.iter().any(|arg| contains_subterm(arg, &a.args[0]))
                })
            })
            .map(|(_, a)| a.clone())
            .collect()
    }

    /// Full optimized translation of a program: type axioms verbatim, each
    /// generalized clause optimized (rules 1–2 then rule 3 on the body),
    /// split, then dead clauses removed.
    pub fn optimized_program(&self, transformer: &Transformer, p: &Program) -> FoProgram {
        self.optimized_program_with_state(transformer, p).0
    }

    /// Like [`Optimizer::optimized_program`], additionally returning the
    /// [`TranslationState`] needed to later extend the translation with
    /// delta clauses ([`Optimizer::extend_optimized`]).
    ///
    /// When the final dead-clause elimination drops anything, the state is
    /// marked `dropped_clauses`: the emitted program is then not a pure
    /// union of per-clause translations (a later delta could make a
    /// dropped clause derivable again), so callers must fall back to full
    /// re-translation on the next load.
    pub fn optimized_program_with_state(
        &self,
        transformer: &Transformer,
        p: &Program,
    ) -> (FoProgram, TranslationState) {
        let mut state = TranslationState::default();
        let mut out = FoProgram::new();
        self.extend_optimized(transformer, p, &mut out, &mut state);
        let eliminated = eliminate_dead_clauses(&out, transformer);
        if eliminated.len() != out.len() {
            state.dropped_clauses = true;
            state.stats.dead_clauses_removed += (out.len() - eliminated.len()) as u64;
        }
        (eliminated, state)
    }

    /// Incremental optimized translation: translates and optimizes
    /// `p.clauses[state.clauses_done()..]` (rules 1–2 then rule 3,
    /// per clause) and appends the results — plus any not-yet-emitted
    /// type axioms — to `out`, updating `state`.
    ///
    /// The per-clause rules only consult the type hierarchy and the type
    /// symbol set, so this is exact whenever the delta leaves the
    /// hierarchy alone; the *global* dead-clause elimination is **not**
    /// re-run here (it may not be: it could have dropped a clause the
    /// delta resurrects). The precise conditions under which a session
    /// may take this path instead of a full rebuild are enforced by
    /// `clogic::Session` and documented in DESIGN.md §"Incremental
    /// pipeline":
    ///
    /// 1. the delta declares no new subtypes (rules 1–2 of §4 depend on
    ///    the hierarchy, so a new declaration can change how *earlier*
    ///    clauses should have been optimized);
    /// 2. the base translation's dead-clause elimination dropped nothing
    ///    (`!state.dropped_clauses`);
    /// 3. the cumulative program is negation-free (with negation, a
    ///    clause kept here but droppable by the global analysis could
    ///    change stratifiability).
    ///
    /// Under those conditions the only divergence from a from-scratch
    /// optimized build is that delta clauses skip dead-clause
    /// elimination — inert for definite programs — and that new *type
    /// symbols* introduced by the delta did not inform the optimization
    /// of earlier clauses, which affects how many redundant typing atoms
    /// survive but never the answer set (rules 1–3 are
    /// semantics-preserving relative to the axioms, which stay).
    pub fn extend_optimized(
        &self,
        transformer: &Transformer,
        p: &Program,
        out: &mut FoProgram,
        state: &mut TranslationState,
    ) {
        let mut aux = Vec::new();
        let from = state.clauses_done().min(p.clauses.len());
        state.stats.clauses_transformed += (p.clauses.len() - from) as u64;
        for c in &p.clauses[from..] {
            let gc = transformer.clause_with_aux(c, &mut aux, state.aux_counter_mut());
            let mut per_clause = TranslationStats::default();
            if let Some(mut opt) = self.optimize_clause_counted(&gc, &mut per_clause) {
                let body_before = opt.body.len();
                opt.body = self.prune_object_checks(&opt.body);
                per_clause.rule3_object_prunes += (body_before - opt.body.len()) as u64;
                for cl in opt.split() {
                    if state.emit(&cl) {
                        out.push(cl);
                    }
                }
            }
            state.stats.rule1_deletions += per_clause.rule1_deletions;
            state.stats.rule2_deletions += per_clause.rule2_deletions;
            state.stats.rule3_object_prunes += per_clause.rule3_object_prunes;
            state.stats.clauses_subsumed += per_clause.clauses_subsumed;
        }
        state.stats.aux_clauses += aux.len() as u64;
        state.set_clauses_done(p.clauses.len());
        // Axioms last: top-down engines should reach facts first.
        let mut axioms = transformer.new_type_axioms(p, &self.type_symbols, state);
        axioms.extend(aux);
        for a in axioms {
            if state.emit(&a) {
                out.push(a);
            }
        }
    }
}

/// Iteratively removes clauses whose body mentions a predicate that no
/// remaining clause derives and that is not evaluable. The type axiom
/// `object(X) :- t(X)` disappears, for instance, when nothing ever
/// derives `t`.
pub fn eliminate_dead_clauses(p: &FoProgram, transformer: &Transformer) -> FoProgram {
    let mut clauses: Vec<FoClause> = p.clauses.clone();
    loop {
        let derivable: HashSet<(Symbol, usize)> = clauses
            .iter()
            .map(|c| (c.head.pred, c.head.arity()))
            .collect();
        let before = clauses.len();
        clauses.retain(|c| {
            c.body
                .iter()
                .all(|b| transformer.is_builtin(b.pred) || derivable.contains(&(b.pred, b.arity())))
        });
        if clauses.len() == before {
            break;
        }
    }
    FoProgram { clauses }
}

/// Convenience: counts typing atoms (unary atoms over the given type
/// symbols) in a program — the quantity the §4 optimization shrinks,
/// reported by experiment E3.
pub fn typing_atom_count(p: &FoProgram, type_symbols: &BTreeSet<Symbol>) -> usize {
    let is_type = |a: &FoAtom| a.arity() == 1 && type_symbols.contains(&a.pred);
    p.clauses
        .iter()
        .map(|c| usize::from(is_type(&c.head)) + c.body.iter().filter(|b| is_type(b)).count())
        .sum()
}

/// Helper for tests/benches: a unary atom `t(X)`.
pub fn type_atom(t: impl Into<Symbol>, arg: FoTerm) -> FoAtom {
    FoAtom::new(t, vec![arg])
}

/// Whether `needle` occurs in `haystack` (as the term itself or any
/// subterm).
fn contains_subterm(haystack: &FoTerm, needle: &FoTerm) -> bool {
    if haystack == needle {
        return true;
    }
    match haystack {
        FoTerm::App(_, args) => args.iter().any(|a| contains_subterm(a, needle)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{Atomic, DefiniteClause};
    use crate::symbol::sym;
    use crate::term::{LabelSpec, Term};

    fn grammar_program() -> Program {
        // The Example 3 fragment that exercises the optimization.
        let mut p = Program::new();
        p.declare_subtype("propernp", "noun_phrase");
        p.declare_subtype("commonnp", "noun_phrase");
        p.push_fact(Atomic::term(Term::typed_constant("name", "john")));
        p.push_fact(Atomic::term(
            Term::molecule(
                Term::typed_constant("determiner", "the"),
                vec![
                    LabelSpec::set(
                        "num",
                        vec![Term::constant("singular"), Term::constant("plural")],
                    ),
                    LabelSpec::one("def", Term::constant("definite")),
                ],
            )
            .unwrap(),
        ));
        p.push_fact(Atomic::term(
            Term::molecule(
                Term::typed_constant("noun", "students"),
                vec![LabelSpec::one("num", Term::constant("plural"))],
            )
            .unwrap(),
        ));
        // commonnp rule
        p.push(DefiniteClause::rule(
            Atomic::term(
                Term::molecule(
                    Term::typed_app("commonnp", "np", vec![Term::var("Det"), Term::var("Noun")]),
                    vec![
                        LabelSpec::one("pers", Term::int(3)),
                        LabelSpec::one("num", Term::var("N")),
                        LabelSpec::one("def", Term::var("D")),
                    ],
                )
                .unwrap(),
            ),
            vec![
                Atomic::term(
                    Term::molecule(
                        Term::typed_var("determiner", "Det"),
                        vec![
                            LabelSpec::one("num", Term::var("N")),
                            LabelSpec::one("def", Term::var("D")),
                        ],
                    )
                    .unwrap(),
                ),
                Atomic::term(
                    Term::molecule(
                        Term::typed_var("noun", "Noun"),
                        vec![LabelSpec::one("num", Term::var("N"))],
                    )
                    .unwrap(),
                ),
            ],
        ));
        // noun_phrase: X :- propernp: X.
        p.push(DefiniteClause::rule(
            Atomic::term(Term::typed_var("noun_phrase", "X")),
            vec![Atomic::term(Term::typed_var("propernp", "X"))],
        ));
        p
    }

    #[test]
    fn paper_common_np_optimization() {
        let p = grammar_program();
        let tr = Transformer::new();
        let opt = Optimizer::new(&p);
        let gc = tr.clause(&p.clauses[3]);
        let optimized = opt.optimize_clause(&gc).unwrap();
        let heads: Vec<String> = optimized.heads.iter().map(|a| a.to_string()).collect();
        // Exactly the paper's optimized definition for common_np.
        assert_eq!(
            heads,
            vec![
                "commonnp(np(Det, Noun))",
                "object(3)",
                "pers(np(Det, Noun), 3)",
                "num(np(Det, Noun), N)",
                "def(np(Det, Noun), D)",
            ]
        );
        let body: Vec<String> = optimized.body.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            body,
            vec![
                "determiner(Det)",
                "object(N)",
                "num(Det, N)",
                "object(D)",
                "def(Det, D)",
                "noun(Noun)",
                "num(Noun, N)",
            ]
        );
    }

    #[test]
    fn rule1_keeps_most_specific_type() {
        let mut p = Program::new();
        p.declare_subtype("student", "person");
        let opt = Optimizer::new(&p);
        let atoms = vec![
            type_atom("person", FoTerm::var("X")),
            type_atom("student", FoTerm::var("X")),
            FoAtom::new("age", vec![FoTerm::var("X"), FoTerm::int(20)]),
        ];
        let out = opt.minimize_typing(&atoms);
        let shown: Vec<String> = out.iter().map(|a| a.to_string()).collect();
        assert_eq!(shown, vec!["student(X)", "age(X, 20)"]);
    }

    #[test]
    fn rule1_ignores_different_arguments() {
        let p = Program::new();
        let opt = Optimizer::new(&p);
        let atoms = vec![
            type_atom("object", FoTerm::var("X")),
            type_atom("object", FoTerm::var("Y")),
        ];
        assert_eq!(opt.minimize_typing(&atoms).len(), 2);
    }

    #[test]
    fn rule1_order_equivalent_types_keep_first() {
        let mut p = Program::new();
        p.declare_subtype("a", "b");
        p.declare_subtype("b", "a"); // declaration cycle: order-equivalent
        let opt = Optimizer::new(&p);
        let atoms = vec![
            type_atom("b", FoTerm::var("X")),
            type_atom("a", FoTerm::var("X")),
        ];
        let out = opt.minimize_typing(&atoms);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pred, sym("b"));
    }

    #[test]
    fn rule2_drops_head_atoms_guaranteed_by_body() {
        let mut p = Program::new();
        p.declare_subtype("student", "person");
        let opt = Optimizer::new(&p);
        let gc = GeneralizedClause {
            heads: vec![
                FoAtom::new("grade", vec![FoTerm::var("X"), FoTerm::constant("a")]),
                type_atom("person", FoTerm::var("X")),
            ],
            body: vec![type_atom("student", FoTerm::var("X"))],
            negative_body: Vec::new(),
        };
        let out = opt.optimize_clause(&gc).unwrap();
        assert_eq!(out.heads.len(), 1);
        assert_eq!(out.heads[0].pred, sym("grade"));
    }

    #[test]
    fn clause_fully_subsumed_by_axioms_is_dropped() {
        // noun_phrase: X :- propernp: X. is redundant given the axiom.
        let p = grammar_program();
        let tr = Transformer::new();
        let opt = Optimizer::new(&p);
        let gc = tr.clause(&p.clauses[4]);
        assert!(opt.optimize_clause(&gc).is_none());
    }

    #[test]
    fn optimized_program_is_smaller_and_object_heads_shrink() {
        let p = grammar_program();
        let tr = Transformer::new();
        let opt = Optimizer::new(&p);
        let plain = tr.program(&p);
        let optimized = opt.optimized_program(&tr, &p);
        assert!(
            optimized.len() < plain.len(),
            "{} !< {}",
            optimized.len(),
            plain.len()
        );
        let types: BTreeSet<Symbol> = p.signature().types;
        assert!(typing_atom_count(&optimized, &types) < typing_atom_count(&plain, &types));
    }

    #[test]
    fn dead_clause_elimination() {
        let tr = Transformer::new();
        let mut p = FoProgram::new();
        // object(X) :- ghost(X).  — ghost is never derivable.
        p.push(FoClause::rule(
            type_atom("object", FoTerm::var("X")),
            vec![type_atom("ghost", FoTerm::var("X"))],
        ));
        p.push(FoClause::fact(FoAtom::new(
            "name",
            vec![FoTerm::constant("john")],
        )));
        // p(X) :- object(X). — becomes dead once the first clause dies.
        p.push(FoClause::rule(
            FoAtom::new("p", vec![FoTerm::var("X")]),
            vec![type_atom("object", FoTerm::var("X"))],
        ));
        let out = eliminate_dead_clauses(&p, &tr);
        assert_eq!(out.len(), 1);
        assert_eq!(out.clauses[0].head.pred, sym("name"));
    }

    #[test]
    fn dead_clause_elimination_keeps_builtins() {
        let tr = Transformer::new();
        let mut p = FoProgram::new();
        p.push(FoClause::fact(FoAtom::new("n", vec![FoTerm::int(1)])));
        p.push(FoClause::rule(
            FoAtom::new("succ", vec![FoTerm::var("Y")]),
            vec![
                FoAtom::new("n", vec![FoTerm::var("X")]),
                FoAtom::new(
                    "is",
                    vec![
                        FoTerm::var("Y"),
                        FoTerm::app("+", vec![FoTerm::var("X"), FoTerm::int(1)]),
                    ],
                ),
            ],
        ));
        let out = eliminate_dead_clauses(&p, &tr);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn optimization_preserves_non_typing_atoms() {
        let p = Program::new();
        let opt = Optimizer::new(&p);
        let gc = GeneralizedClause {
            heads: vec![FoAtom::new(
                "edge",
                vec![FoTerm::var("X"), FoTerm::var("Y")],
            )],
            body: vec![FoAtom::new("raw", vec![FoTerm::var("X"), FoTerm::var("Y")])],
            negative_body: Vec::new(),
        };
        let out = opt.optimize_clause(&gc).unwrap();
        assert_eq!(out, gc);
    }
}
