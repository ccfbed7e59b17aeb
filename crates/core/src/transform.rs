//! Transformation into first-order logic (§3.3, Theorem 1; §4).
//!
//! Every atomic formula `α` of a language of objects has an equivalent
//! conjunction `α*` of first-order atoms over `L'`:
//!
//! * `(L : X)* = L(X)` and `(L : c)* = L(c)`;
//! * `(L : f(t1,…,tn))* = L(f(t1,…,tn)') ∧ t1* ∧ … ∧ tn*`;
//! * `(t[l1⇒e1,…,ln⇒en])* = t* ∧ α1* ∧ … ∧ αn*` where `αi*` is
//!   `ei* ∧ li(t', ei')` for a term value, expanded over the members for a
//!   collection value;
//! * `(p(t1,…,tn))* = t1* ∧ … ∧ tn* ∧ p(t1',…,tn')`.
//!
//! with the term map `t'` erasing types and label specs:
//! `(L:X)' = X`, `(L:c)' = c`, `(L:f(…))' = f(…')`, `(t[…])' = t'`.
//!
//! A C-logic definite clause then becomes a **generalized definite
//! clause** (multi-head) whose heads are the conjuncts of the head's
//! translation and whose body concatenates the translations of the body
//! atoms; splitting yields ordinary first-order definite clauses. Finally
//! the **type axioms** are added: `t2(X) :- t1(X)` for each subtype
//! declaration, and `object(X) :- t(X)` for each proper type symbol `t`
//! occurring in the program (§4 notes only finitely many are needed).
//!
//! One engineering deviation, documented here and in DESIGN.md: argument
//! positions of *evaluable built-in predicates* (`is`, comparisons) are
//! translated by `t'` only — no typing atoms are emitted for them.
//! Emitting `object(L0 + 1)` for the path rule's `L is L0 + 1` would
//! demand arithmetic terms in the active domain, which is plainly not the
//! paper's intent (its §4 translation of the grammar example emits typing
//! atoms only for object-denoting positions).

use crate::fol::{FoAtom, FoClause, FoProgram, FoTerm, GeneralizedClause};
use crate::formula::{Atomic, DefiniteClause, Query};
use crate::hierarchy::object_type;
use crate::program::Program;
use crate::symbol::Symbol;
use crate::term::{IdTerm, Term};
use std::collections::{BTreeSet, HashSet};

/// The built-in predicate symbols treated as evaluable by default.
pub const DEFAULT_BUILTINS: &[&str] = &[
    "is", "<", ">", "=<", ">=", "=:=", "=\\=", "=", "\\=", "==", "\\==",
];

/// Work counters accumulated across a translation (and its incremental
/// extensions), including the §4 optimizer's per-rule deletion tallies.
///
/// This crate stays dependency-free, so the counters are plain fields;
/// the session layer flushes them into its metrics registry (as
/// `core.translate.*`) after each load. All counts are cumulative over
/// the life of the owning [`TranslationState`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// C-logic program clauses translated.
    pub clauses_transformed: u64,
    /// First-order clauses emitted (split clauses, axioms, aux clauses).
    pub clauses_emitted: u64,
    /// Candidate clauses suppressed by the program-wide dedup set.
    pub duplicates_suppressed: u64,
    /// Type axioms emitted (`object(X) :- t(X)` and `sup(X) :- sub(X)`).
    pub type_axioms_emitted: u64,
    /// Auxiliary `__nauxN` clauses created for negated molecules.
    pub aux_clauses: u64,
    /// Typing atoms deleted by §4 rule 1 (a more specific typing atom for
    /// the same argument was present in the same head or body).
    pub rule1_deletions: u64,
    /// Head typing atoms deleted by §4 rule 2 (guaranteed by the body).
    pub rule2_deletions: u64,
    /// Body `object(t)` checks pruned by rule 3 (implied by another body
    /// atom mentioning `t`).
    pub rule3_object_prunes: u64,
    /// Whole clauses dropped because rules 1–2 deleted every head atom.
    pub clauses_subsumed: u64,
    /// Clauses removed by the global dead-clause elimination.
    pub dead_clauses_removed: u64,
}

/// Carry-over state for *incremental* (delta) translation.
///
/// A session that loads program text cumulatively wants to translate only
/// the clauses appended since the last translation and push the resulting
/// first-order clauses onto the cached [`FoProgram`]. For the result to
/// match a from-scratch translation of the whole program, three pieces of
/// translator state must survive across deltas:
///
/// * the **split-clause dedup set** — distinct molecules sharing values
///   produce identical split facts, and a delta must not re-emit a clause
///   an earlier load already produced (nor miss that a "duplicate" within
///   the delta is actually new program-wide);
/// * the **auxiliary predicate counter** — negated molecules compile to
///   `__nauxN` helper clauses, and `N` must keep counting program-wide;
/// * the **emitted type axioms** — `object(X) :- t(X)` is emitted once
///   per proper type and `sup(X) :- sub(X)` once per subtype declaration,
///   so the state records which are already present.
///
/// The only divergence an extension permits is clause *order* (a delta's
/// clauses land after the earlier loads' axioms); the emitted clause
/// *set* is identical, which is what every evaluation strategy depends
/// on. See `Optimizer::extend_optimized` for the extra conditions the §4
/// optimizer imposes before a delta may extend an optimized translation.
#[derive(Clone, Debug, Default)]
pub struct TranslationState {
    /// Split clauses emitted so far (program-wide dedup).
    seen: HashSet<FoClause>,
    /// Auxiliary predicate counter for negated molecules (`__nauxN`).
    aux_counter: usize,
    /// Proper types whose axiom `object(X) :- t(X)` has been emitted.
    axiom_types: BTreeSet<Symbol>,
    /// Subtype declarations already turned into `sup(X) :- sub(X)`.
    subtype_axioms: usize,
    /// Program clauses translated so far.
    clauses_done: usize,
    /// Set by `Optimizer::optimized_program_with_state` when the global
    /// dead-clause elimination dropped clauses: the cached translation is
    /// then not a pure union of per-clause translations, and a delta must
    /// re-translate from scratch (an appended clause could resurrect a
    /// dropped one).
    pub dropped_clauses: bool,
    /// Cumulative work counters (clauses transformed, §4 deletions, …).
    pub stats: TranslationStats,
}

impl TranslationState {
    /// How many program clauses this state has translated.
    pub fn clauses_done(&self) -> usize {
        self.clauses_done
    }

    /// Record that `n` program clauses are now covered (used by the
    /// optimizer's extension path, which translates clause by clause).
    pub(crate) fn set_clauses_done(&mut self, n: usize) {
        self.clauses_done = n;
    }

    /// The shared aux-predicate counter (see `__nauxN` clauses).
    pub(crate) fn aux_counter_mut(&mut self) -> &mut usize {
        &mut self.aux_counter
    }

    /// Inserts a split clause into the program-wide dedup set; true when
    /// it was new (and should be emitted). Counts emissions and
    /// suppressed duplicates into [`TranslationState::stats`].
    pub(crate) fn emit(&mut self, c: &FoClause) -> bool {
        let fresh = self.seen.insert(c.clone());
        if fresh {
            self.stats.clauses_emitted += 1;
        } else {
            self.stats.duplicates_suppressed += 1;
        }
        fresh
    }
}

/// The transformer from C-logic into first-order logic.
///
/// Holds the set of built-in (evaluable) predicate symbols whose argument
/// positions are translated without typing atoms.
///
/// ```
/// use clogic_core::transform::Transformer;
/// use clogic_core::{Atomic, LabelSpec, Term};
///
/// // john[age => 28]  ⇒  object(john) ∧ object(28) ∧ age(john, 28)
/// let molecule = Term::molecule(
///     Term::constant("john"),
///     vec![LabelSpec::one("age", Term::int(28))],
/// )
/// .unwrap();
/// let conj = Transformer::new().atomic(&Atomic::term(molecule));
/// let shown: Vec<String> = conj.iter().map(|a| a.to_string()).collect();
/// assert_eq!(shown, ["object(john)", "object(28)", "age(john, 28)"]);
/// ```
#[derive(Clone, Debug)]
pub struct Transformer {
    builtins: BTreeSet<Symbol>,
}

impl Default for Transformer {
    fn default() -> Self {
        Transformer::new()
    }
}

impl Transformer {
    /// A transformer recognizing [`DEFAULT_BUILTINS`].
    pub fn new() -> Transformer {
        Transformer {
            builtins: DEFAULT_BUILTINS.iter().map(|s| Symbol::new(s)).collect(),
        }
    }

    /// A transformer with no built-ins: the literal Theorem 1 map.
    pub fn pure() -> Transformer {
        Transformer {
            builtins: BTreeSet::new(),
        }
    }

    /// Registers an additional built-in predicate symbol.
    pub fn add_builtin(&mut self, p: impl Into<Symbol>) {
        self.builtins.insert(p.into());
    }

    /// Whether `p` is treated as evaluable.
    pub fn is_builtin(&self, p: Symbol) -> bool {
        self.builtins.contains(&p)
    }

    /// The term map `t'`: erases types and label specifications, keeping
    /// only the identity skeleton.
    pub fn term(&self, t: &Term) -> FoTerm {
        self.id_term(t.id_term())
    }

    fn id_term(&self, id: &IdTerm) -> FoTerm {
        match id {
            IdTerm::Var { name, .. } => FoTerm::Var(*name),
            IdTerm::Const { c, .. } => FoTerm::Const(*c),
            IdTerm::App { functor, args, .. } => {
                FoTerm::App(*functor, args.iter().map(|a| self.term(a)).collect())
            }
        }
    }

    /// The formula map `α*` for a term used as a formula: pushes the
    /// conjuncts onto `out` in the paper's left-to-right order.
    ///
    /// In *checks* mode (used for negated atoms) the content-free typing
    /// conjuncts `object(v)` are omitted: inside a negation they would
    /// make the clause depend on the active-domain predicate `object`,
    /// whose axioms `object(X) :- t(X)` turn every negated rule head into
    /// a negative cycle (unstratifiable). The omitted conjuncts are
    /// implied by the positive context that grounds the negated atom.
    fn term_formula(&self, t: &Term, out: &mut Vec<FoAtom>, checks: bool) {
        match t {
            Term::Id(id) => self.id_formula(id, out, checks),
            Term::Molecule { head, specs } => {
                self.id_formula(head, out, checks);
                let subject = self.id_term(head);
                for s in specs {
                    for v in s.value.terms() {
                        // ei* ∧ li(t', ei')
                        self.term_formula(v, out, checks);
                        push_unique(
                            out,
                            FoAtom::new(s.label, vec![subject.clone(), self.term(v)]),
                        );
                    }
                }
            }
        }
    }

    fn id_formula(&self, id: &IdTerm, out: &mut Vec<FoAtom>, checks: bool) {
        let skip = checks && id.ty() == object_type();
        match id {
            IdTerm::Var { ty, name } => {
                if !skip {
                    push_unique(out, FoAtom::new(*ty, vec![FoTerm::Var(*name)]));
                }
            }
            IdTerm::Const { ty, c } => {
                if !skip {
                    push_unique(out, FoAtom::new(*ty, vec![FoTerm::Const(*c)]));
                }
            }
            IdTerm::App { ty, functor, args } => {
                if !skip {
                    let fo = FoTerm::App(*functor, args.iter().map(|a| self.term(a)).collect());
                    push_unique(out, FoAtom::new(*ty, vec![fo]));
                }
                for a in args {
                    self.term_formula(a, out, checks);
                }
            }
        }
    }

    /// Translates an atomic formula into its conjunction of first-order
    /// atoms, exact duplicates removed (the conjunction is a set).
    pub fn atomic(&self, a: &Atomic) -> Vec<FoAtom> {
        self.atomic_at(a, false)
    }

    /// Like [`Transformer::atomic`] but in checks mode (see
    /// [`Transformer::negated_atomic`]): `object(v)` typing conjuncts are
    /// omitted.
    pub fn atomic_checks(&self, a: &Atomic) -> Vec<FoAtom> {
        self.atomic_at(a, true)
    }

    fn atomic_at(&self, a: &Atomic, checks: bool) -> Vec<FoAtom> {
        let mut out = Vec::new();
        match a {
            Atomic::Term(t) => self.term_formula(t, &mut out, checks),
            Atomic::Pred { pred, args } => {
                if self.is_builtin(*pred) {
                    // Evaluable predicate: arguments via t' only.
                    push_unique(
                        out.as_mut(),
                        FoAtom::new(*pred, args.iter().map(|t| self.term(t)).collect()),
                    );
                } else {
                    // t1* ∧ … ∧ tn* ∧ p(t1',…,tn')
                    for t in args {
                        self.term_formula(t, &mut out, checks);
                    }
                    push_unique(
                        &mut out,
                        FoAtom::new(*pred, args.iter().map(|t| self.term(t)).collect()),
                    );
                }
            }
        }
        out
    }

    /// Translates a C-logic definite clause into a generalized definite
    /// clause: heads are the conjuncts of the head's translation, the body
    /// concatenates the body atoms' translations.
    ///
    /// Negated body atoms are carried through: when an atom's translation
    /// is a single first-order atom it is negated directly; a multi-atom
    /// translation `A1 ∧ … ∧ An` becomes `\+ auxᵢ(vars)` plus the
    /// auxiliary clause `auxᵢ(vars) :- A1,…,An` (returned alongside),
    /// because NAF negates derivability of the whole description.
    pub fn clause(&self, c: &DefiniteClause) -> GeneralizedClause {
        self.clause_with_aux(c, &mut Vec::new(), &mut 0)
    }

    /// Like [`Transformer::clause`], pushing any auxiliary clauses needed
    /// for negated molecules onto `aux` (numbered from `counter`).
    pub fn clause_with_aux(
        &self,
        c: &DefiniteClause,
        aux: &mut Vec<FoClause>,
        counter: &mut usize,
    ) -> GeneralizedClause {
        let heads = self.atomic(&c.head);
        let mut body = Vec::new();
        for b in &c.body {
            for a in self.atomic(b) {
                push_unique(&mut body, a);
            }
        }
        let mut negative_body = Vec::new();
        for n in &c.neg_body {
            negative_body.push(self.negated_atomic(n, aux, counter));
        }
        GeneralizedClause {
            heads,
            body,
            negative_body,
        }
    }

    /// Translates a negated atomic formula to a single first-order atom,
    /// creating an auxiliary predicate when the translation is a
    /// conjunction.
    pub fn negated_atomic(
        &self,
        a: &Atomic,
        aux: &mut Vec<FoClause>,
        counter: &mut usize,
    ) -> FoAtom {
        let mut conj = self.atomic_checks(a);
        if conj.is_empty() {
            // e.g. `\+ object: X` — fall back to the full translation.
            conj = self.atomic(a);
        }
        if conj.len() == 1 {
            return conj.into_iter().next().expect("one conjunct");
        }
        *counter += 1;
        let name = Symbol::new(&format!("__naux{counter}"));
        let vars: Vec<FoTerm> = {
            let mut vs = std::collections::BTreeSet::new();
            a.collect_vars(&mut vs);
            vs.into_iter().map(FoTerm::Var).collect()
        };
        let head = FoAtom::new(name, vars);
        aux.push(FoClause::rule(head.clone(), conj));
        head
    }

    /// Translates a query: the conjunction of the goals' translations.
    /// Negated goals are not included — use [`Transformer::query_parts`]
    /// for queries with negation.
    pub fn query(&self, q: &Query) -> Vec<FoAtom> {
        let mut out = Vec::new();
        for g in &q.goals {
            for a in self.atomic(g) {
                push_unique(&mut out, a);
            }
        }
        out
    }

    /// Translates a query with negation: positive goals, negated goals
    /// (one FO atom each; conjunction-shaped ones via auxiliary clauses
    /// appended to `aux`).
    pub fn query_parts(
        &self,
        q: &Query,
        aux: &mut Vec<FoClause>,
        counter: &mut usize,
    ) -> (Vec<FoAtom>, Vec<FoAtom>) {
        let pos = self.query(q);
        let neg = q
            .neg_goals
            .iter()
            .map(|n| self.negated_atomic(n, aux, counter))
            .collect();
        (pos, neg)
    }

    /// The type axioms for a program (§3.3, §4):
    /// `sup(X) :- sub(X)` per subtype declaration, and
    /// `object(X) :- t(X)` per proper type symbol occurring anywhere.
    pub fn type_axioms(&self, p: &Program) -> Vec<FoClause> {
        let x = FoTerm::var("X");
        let mut out = Vec::new();
        let sig = p.signature();
        for t in sig.proper_types() {
            out.push(FoClause::rule(
                FoAtom::new(object_type(), vec![x.clone()]),
                vec![FoAtom::new(t, vec![x.clone()])],
            ));
        }
        for &(sub, sup) in &p.subtype_decls {
            out.push(FoClause::rule(
                FoAtom::new(sup, vec![x.clone()]),
                vec![FoAtom::new(sub, vec![x.clone()])],
            ));
        }
        out
    }

    /// Translates a whole program into the *generalized logic program*:
    /// type axioms (already ordinary clauses) plus one generalized clause
    /// per C-logic clause.
    pub fn generalized_program(&self, p: &Program) -> (Vec<FoClause>, Vec<GeneralizedClause>) {
        let mut aux = Vec::new();
        let mut counter = 0;
        let generalized: Vec<GeneralizedClause> = p
            .clauses
            .iter()
            .map(|c| self.clause_with_aux(c, &mut aux, &mut counter))
            .collect();
        let mut axioms = self.type_axioms(p);
        axioms.extend(aux);
        (axioms, generalized)
    }

    /// Translates a whole program all the way to an ordinary first-order
    /// definite-clause program (generalized clauses split). Translated
    /// clauses come first and the type axioms last — top-down engines try
    /// clauses in program order, and facts should be found before the
    /// axioms recurse.
    pub fn program(&self, p: &Program) -> FoProgram {
        self.program_with_state(p).0
    }

    /// Like [`Transformer::program`], additionally returning the
    /// [`TranslationState`] needed to later *extend* the translation with
    /// delta clauses instead of re-translating from scratch.
    pub fn program_with_state(&self, p: &Program) -> (FoProgram, TranslationState) {
        let mut state = TranslationState::default();
        let mut out = FoProgram::new();
        self.extend_program(p, &p.signature().types, &mut out, &mut state);
        (out, state)
    }

    /// Incremental translation: translates `p.clauses[state.clauses_done()..]`
    /// (plus any type axioms not yet emitted — new proper types and new
    /// subtype declarations) and appends the results to `out`, updating
    /// `state`. Starting from a default state and an empty program this
    /// *is* the full translation; called after earlier extensions it emits
    /// exactly the clause set a from-scratch translation of the cumulative
    /// program would, modulo order (see [`TranslationState`]). `types` is
    /// the program's type symbols, `p.signature().types` — a caller that
    /// keeps the signature incrementally passes it without a walk.
    pub fn extend_program(
        &self,
        p: &Program,
        types: &BTreeSet<Symbol>,
        out: &mut FoProgram,
        state: &mut TranslationState,
    ) {
        let mut aux = Vec::new();
        let from = state.clauses_done.min(p.clauses.len());
        let generalized: Vec<GeneralizedClause> = p.clauses[from..]
            .iter()
            .map(|c| self.clause_with_aux(c, &mut aux, &mut state.aux_counter))
            .collect();
        state.stats.clauses_transformed += (p.clauses.len() - from) as u64;
        state.stats.aux_clauses += aux.len() as u64;
        state.clauses_done = p.clauses.len();
        for gc in generalized {
            for c in gc.split() {
                // Distinct molecules sharing values produce identical
                // split facts (object(v) over and over); keep one copy.
                if state.emit(&c) {
                    out.push(c);
                }
            }
        }
        let mut axioms = self.new_type_axioms(p, types, state);
        axioms.extend(aux);
        for a in axioms {
            if state.emit(&a) {
                out.push(a);
            }
        }
    }

    /// The type axioms `p` needs that `state` has not yet emitted:
    /// `object(X) :- t(X)` for proper types first seen in this delta, and
    /// `sup(X) :- sub(X)` for subtype declarations appended since the
    /// last translation. Updates `state` accordingly. `types` holds the
    /// program's type symbols (`object` among them or not).
    pub fn new_type_axioms(
        &self,
        p: &Program,
        types: &BTreeSet<Symbol>,
        state: &mut TranslationState,
    ) -> Vec<FoClause> {
        let x = FoTerm::var("X");
        let mut out = Vec::new();
        for t in types.iter().copied().filter(|&t| t != object_type()) {
            if state.axiom_types.insert(t) {
                out.push(FoClause::rule(
                    FoAtom::new(object_type(), vec![x.clone()]),
                    vec![FoAtom::new(t, vec![x.clone()])],
                ));
            }
        }
        let from = state.subtype_axioms.min(p.subtype_decls.len());
        for &(sub, sup) in &p.subtype_decls[from..] {
            out.push(FoClause::rule(
                FoAtom::new(sup, vec![x.clone()]),
                vec![FoAtom::new(sub, vec![x.clone()])],
            ));
        }
        state.subtype_axioms = p.subtype_decls.len();
        state.stats.type_axioms_emitted += out.len() as u64;
        out
    }
}

fn push_unique(out: &mut Vec<FoAtom>, a: FoAtom) {
    if !out.contains(&a) {
        out.push(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::term::LabelSpec;

    fn tr() -> Transformer {
        Transformer::new()
    }

    #[test]
    fn term_map_erases_structure() {
        let t = Term::molecule(
            Term::typed_app("path", "g", vec![Term::var("X"), Term::var("Y")]),
            vec![LabelSpec::one("length", Term::int(10))],
        )
        .unwrap();
        assert_eq!(
            tr().term(&t),
            FoTerm::App(sym("g"), vec![FoTerm::var("X"), FoTerm::var("Y")])
        );
    }

    #[test]
    fn example_2_determiner_the() {
        // determiner: the[num => {singular, plural}, def => definite]
        // ⇒ determiner(the) ∧ object(singular) ∧ num(the, singular)
        //   ∧ object(plural) ∧ num(the, plural)
        //   ∧ object(definite) ∧ def(the, definite)
        let t = Term::molecule(
            Term::typed_constant("determiner", "the"),
            vec![
                LabelSpec::set(
                    "num",
                    vec![Term::constant("singular"), Term::constant("plural")],
                ),
                LabelSpec::one("def", Term::constant("definite")),
            ],
        )
        .unwrap();
        let conj = tr().atomic(&Atomic::term(t));
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
    fn typed_variable_becomes_type_atom() {
        let conj = tr().atomic(&Atomic::term(Term::typed_var("noun_phrase", "X")));
        assert_eq!(
            conj,
            vec![FoAtom::new("noun_phrase", vec![FoTerm::var("X")])]
        );
    }

    #[test]
    fn function_term_types_arguments() {
        // commonnp: np(Det, Noun) ⇒ commonnp(np(Det,Noun)) ∧ object(Det) ∧ object(Noun)
        let t = Term::typed_app("commonnp", "np", vec![Term::var("Det"), Term::var("Noun")]);
        let conj = tr().atomic(&Atomic::term(t));
        let shown: Vec<String> = conj.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            shown,
            vec!["commonnp(np(Det, Noun))", "object(Det)", "object(Noun)"]
        );
    }

    #[test]
    fn predicate_atom_types_then_applies() {
        let a = Atomic::pred(
            "likes",
            vec![Term::typed_var("person", "X"), Term::constant("icecream")],
        );
        let conj = tr().atomic(&a);
        let shown: Vec<String> = conj.iter().map(|x| x.to_string()).collect();
        assert_eq!(
            shown,
            vec!["person(X)", "object(icecream)", "likes(X, icecream)"]
        );
    }

    #[test]
    fn builtin_is_passes_arguments_untyped() {
        // L is L0 + 1
        let a = Atomic::pred(
            "is",
            vec![
                Term::var("L"),
                Term::app("+", vec![Term::var("L0"), Term::int(1)]),
            ],
        );
        let conj = tr().atomic(&a);
        assert_eq!(conj.len(), 1);
        assert_eq!(conj[0].to_string(), "is(L, +(L0, 1))");
        // the pure transformer types everything
        let pure = Transformer::pure().atomic(&a);
        assert!(pure.iter().any(|x| x.pred == object_type()));
        assert!(pure.len() > 1);
    }

    #[test]
    fn molecule_value_translates_recursively() {
        // john[spouse => mary[age => 27]]
        let t = Term::molecule(
            Term::constant("john"),
            vec![LabelSpec::one(
                "spouse",
                Term::molecule(
                    Term::constant("mary"),
                    vec![LabelSpec::one("age", Term::int(27))],
                )
                .unwrap(),
            )],
        )
        .unwrap();
        let shown: Vec<String> = tr()
            .atomic(&Atomic::term(t))
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(
            shown,
            vec![
                "object(john)",
                "object(mary)",
                "object(27)",
                "age(mary, 27)",
                "spouse(john, mary)"
            ]
        );
    }

    #[test]
    fn duplicate_conjuncts_are_removed() {
        // X appears twice: object(X) emitted once.
        let a = Atomic::pred("p", vec![Term::var("X"), Term::var("X")]);
        let conj = tr().atomic(&a);
        let shown: Vec<String> = conj.iter().map(|x| x.to_string()).collect();
        assert_eq!(shown, vec!["object(X)", "p(X, X)"]);
    }

    #[test]
    fn proper_np_rule_translation() {
        // propernp: X[pers=>3, num=>singular, def=>definite] :- name: X.
        let head = Atomic::term(
            Term::molecule(
                Term::typed_var("propernp", "X"),
                vec![
                    LabelSpec::one("pers", Term::int(3)),
                    LabelSpec::one("num", Term::constant("singular")),
                    LabelSpec::one("def", Term::constant("definite")),
                ],
            )
            .unwrap(),
        );
        let body = vec![Atomic::term(Term::typed_var("name", "X"))];
        let gc = tr().clause(&DefiniteClause::rule(head, body));
        let heads: Vec<String> = gc.heads.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            heads,
            vec![
                "propernp(X)",
                "object(3)",
                "pers(X, 3)",
                "object(singular)",
                "num(X, singular)",
                "object(definite)",
                "def(X, definite)",
            ]
        );
        let body: Vec<String> = gc.body.iter().map(|a| a.to_string()).collect();
        assert_eq!(body, vec!["name(X)"]);
        // Splitting yields one FO clause per head conjunct.
        assert_eq!(gc.split().len(), 7);
        assert_eq!(gc.split()[0].to_string(), "propernp(X) :- name(X).");
    }

    #[test]
    fn type_axioms_cover_mentioned_types_and_declarations() {
        let mut p = Program::new();
        p.declare_subtype("propernp", "noun_phrase");
        p.push_fact(Atomic::term(Term::typed_constant("name", "john")));
        let axioms = tr().type_axioms(&p);
        let shown: BTreeSet<String> = axioms.iter().map(|c| c.to_string()).collect();
        assert!(shown.contains("object(X) :- name(X)."));
        assert!(shown.contains("object(X) :- propernp(X)."));
        assert!(shown.contains("object(X) :- noun_phrase(X)."));
        assert!(shown.contains("noun_phrase(X) :- propernp(X)."));
        // no axiom for object itself
        assert!(!shown.contains("object(X) :- object(X)."));
    }

    #[test]
    fn whole_program_translation_counts() {
        let mut p = Program::new();
        p.push_fact(Atomic::term(Term::typed_constant("name", "john")));
        p.push_fact(Atomic::term(Term::typed_constant("name", "bob")));
        let fo = tr().program(&p);
        // 1 type axiom (object :- name) + 2 facts
        assert_eq!(fo.len(), 3);
        assert!(fo.clauses.iter().any(|c| c.to_string() == "name(john)."));
    }

    #[test]
    fn query_translation() {
        // :- noun_phrase: X[num => plural].
        let q = Query::new(vec![Atomic::term(
            Term::molecule(
                Term::typed_var("noun_phrase", "X"),
                vec![LabelSpec::one("num", Term::constant("plural"))],
            )
            .unwrap(),
        )]);
        let goals: Vec<String> = tr().query(&q).iter().map(|a| a.to_string()).collect();
        assert_eq!(
            goals,
            vec!["noun_phrase(X)", "object(plural)", "num(X, plural)"]
        );
    }

    #[test]
    fn skolemized_head_types_rule_variables() {
        // path: id(X,Y)[src=>X, dest=>Y, length=>1] :- node: X[linkto=>Y].
        let head = Atomic::term(
            Term::molecule(
                Term::typed_app("path", "id", vec![Term::var("X"), Term::var("Y")]),
                vec![
                    LabelSpec::one("src", Term::var("X")),
                    LabelSpec::one("dest", Term::var("Y")),
                    LabelSpec::one("length", Term::int(1)),
                ],
            )
            .unwrap(),
        );
        let body = vec![Atomic::term(
            Term::molecule(
                Term::typed_var("node", "X"),
                vec![LabelSpec::one("linkto", Term::var("Y"))],
            )
            .unwrap(),
        )];
        let gc = tr().clause(&DefiniteClause::rule(head, body));
        let heads: Vec<String> = gc.heads.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            heads,
            vec![
                "path(id(X, Y))",
                "object(X)",
                "object(Y)",
                "src(id(X, Y), X)",
                "dest(id(X, Y), Y)",
                "object(1)",
                "length(id(X, Y), 1)",
            ]
        );
        let body: Vec<String> = gc.body.iter().map(|a| a.to_string()).collect();
        assert_eq!(body, vec!["node(X)", "object(Y)", "linkto(X, Y)"]);
    }
}
