//! Programs of objects (§4): a finite set of subtype declarations and
//! definite clauses, plus the *signature* scan used by the transformation
//! and the optimizer (which type symbols, labels and predicates occur).

use crate::formula::{Atomic, DefiniteClause, Query};
use crate::hierarchy::{object_type, TypeHierarchy};
use crate::symbol::Symbol;
use crate::term::{IdTerm, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A C-logic program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Subtype declarations `t1 < t2`, in source order.
    pub subtype_decls: Vec<(Symbol, Symbol)>,
    /// Definite clauses (facts and rules), in source order.
    pub clauses: Vec<DefiniteClause>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Adds a subtype declaration `sub < sup`.
    pub fn declare_subtype(&mut self, sub: impl Into<Symbol>, sup: impl Into<Symbol>) {
        self.subtype_decls.push((sub.into(), sup.into()));
    }

    /// Adds a clause.
    pub fn push(&mut self, c: DefiniteClause) {
        self.clauses.push(c);
    }

    /// Adds a fact.
    pub fn push_fact(&mut self, head: Atomic) {
        self.clauses.push(DefiniteClause::fact(head));
    }

    /// Builds the declared type hierarchy.
    pub fn hierarchy(&self) -> TypeHierarchy {
        let mut h = TypeHierarchy::new();
        for &(sub, sup) in &self.subtype_decls {
            h.declare(sub, sup);
        }
        h
    }

    /// The signature: every type symbol, label, predicate and function
    /// symbol occurring anywhere in the program.
    pub fn signature(&self) -> Signature {
        let mut sig = Signature::default();
        for &(sub, sup) in &self.subtype_decls {
            sig.types.insert(sub);
            sig.types.insert(sup);
        }
        for c in &self.clauses {
            visit_clause(c, &mut |part, s| {
                sig.set(part).insert(s);
            });
        }
        sig
    }

    /// Total number of atoms (head + body) across all clauses.
    pub fn atom_count(&self) -> usize {
        self.clauses.iter().map(|c| 1 + c.body.len()).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &(sub, sup) in &self.subtype_decls {
            writeln!(f, "{sub} < {sup}.")?;
        }
        for c in &self.clauses {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

/// The non-logical symbols occurring in a program or query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Signature {
    /// Type symbols, including `object` whenever any typed term occurs.
    pub types: BTreeSet<Symbol>,
    /// Labels.
    pub labels: BTreeSet<Symbol>,
    /// Predicate symbols.
    pub predicates: BTreeSet<Symbol>,
    /// Function symbols (of arity ≥ 1) and symbolic constants.
    pub functions: BTreeSet<Symbol>,
}

/// Which set of a [`Signature`] a symbol occurrence belongs to (and
/// which of [`SignatureCounts`]' maps counts it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    Type,
    Label,
    Predicate,
    Function,
}

/// Calls `f` on every symbol occurrence of an atomic formula.
fn visit_atomic(a: &Atomic, f: &mut impl FnMut(Part, Symbol)) {
    match a {
        Atomic::Pred { pred, args } => {
            f(Part::Predicate, *pred);
            for t in args {
                visit_term(t, f);
            }
        }
        Atomic::Term(t) => visit_term(t, f),
    }
}

fn visit_term(t: &Term, f: &mut impl FnMut(Part, Symbol)) {
    let id = t.id_term();
    f(Part::Type, id.ty());
    match id {
        IdTerm::Var { .. } => {}
        IdTerm::Const { c, .. } => {
            if let crate::term::Const::Sym(s) = c {
                f(Part::Function, *s);
            }
        }
        IdTerm::App { functor, args, .. } => {
            f(Part::Function, *functor);
            for a in args {
                visit_term(a, f);
            }
        }
    }
    for s in t.specs() {
        f(Part::Label, s.label);
        for v in s.value.terms() {
            visit_term(v, f);
        }
    }
}

/// Calls `f` on every symbol occurrence [`Program::signature`] reads in
/// a clause: its head and positive body.
fn visit_clause(c: &DefiniteClause, f: &mut impl FnMut(Part, Symbol)) {
    visit_atomic(&c.head, f);
    for b in &c.body {
        visit_atomic(b, f);
    }
}

impl Signature {
    fn set(&mut self, part: Part) -> &mut BTreeSet<Symbol> {
        match part {
            Part::Type => &mut self.types,
            Part::Label => &mut self.labels,
            Part::Predicate => &mut self.predicates,
            Part::Function => &mut self.functions,
        }
    }

    /// Scans one atomic formula.
    pub fn scan_atomic(&mut self, a: &Atomic) {
        visit_atomic(a, &mut |part, s| {
            self.set(part).insert(s);
        });
    }

    /// Scans a query.
    pub fn scan_query(&mut self, q: &Query) {
        for g in &q.goals {
            self.scan_atomic(g);
        }
    }

    /// Type symbols other than `object` — exactly the symbols for which
    /// the transformation emits `object(X) :- t(X)` axioms (§4).
    pub fn proper_types(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.types.iter().copied().filter(|&t| t != object_type())
    }
}

/// How often each symbol of a program's [`Signature`] occurs, kept in
/// step with the program clause by clause. A writer that loads and
/// retracts clauses reads the signature from here instead of walking
/// the whole program on every write; [`SignatureCounts::signature`]
/// always equals [`Program::signature`] of the program it tracks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SignatureCounts {
    counts: [BTreeMap<Symbol, usize>; 4],
}

impl SignatureCounts {
    /// The counts of a whole program.
    pub fn of(p: &Program) -> SignatureCounts {
        let mut out = SignatureCounts::default();
        for &(sub, sup) in &p.subtype_decls {
            out.add_subtype(sub, sup);
        }
        for c in &p.clauses {
            out.add_clause(c);
        }
        out
    }

    /// Counts a subtype declaration `sub < sup`.
    pub fn add_subtype(&mut self, sub: Symbol, sup: Symbol) {
        for t in [sub, sup] {
            *self.counts[Part::Type as usize].entry(t).or_default() += 1;
        }
    }

    /// Counts a loaded clause.
    pub fn add_clause(&mut self, c: &DefiniteClause) {
        visit_clause(c, &mut |part, s| {
            *self.counts[part as usize].entry(s).or_default() += 1;
        });
    }

    /// Uncounts a retracted clause (one that [`SignatureCounts::add_clause`]
    /// counted).
    pub fn remove_clause(&mut self, c: &DefiniteClause) {
        visit_clause(c, &mut |part, s| {
            let map = &mut self.counts[part as usize];
            if let Some(n) = map.get_mut(&s) {
                *n -= 1;
                if *n == 0 {
                    map.remove(&s);
                }
            }
        });
    }

    fn keys(&self, part: Part) -> BTreeSet<Symbol> {
        self.counts[part as usize].keys().copied().collect()
    }

    /// The type symbols ([`Signature::types`]).
    pub fn types(&self) -> BTreeSet<Symbol> {
        self.keys(Part::Type)
    }

    /// The function symbols and symbolic constants
    /// ([`Signature::functions`]).
    pub fn functions(&self) -> BTreeSet<Symbol> {
        self.keys(Part::Function)
    }

    /// The signature of the tracked program.
    pub fn signature(&self) -> Signature {
        Signature {
            types: self.types(),
            labels: self.keys(Part::Label),
            predicates: self.keys(Part::Predicate),
            functions: self.functions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::term::LabelSpec;

    fn grammar_fragment() -> Program {
        // determiner: the[num => {singular, plural}, def => definite].
        // propernp < noun_phrase.
        let mut p = Program::new();
        p.declare_subtype("propernp", "noun_phrase");
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
        p
    }

    #[test]
    fn signature_scan_collects_everything() {
        let p = grammar_fragment();
        let sig = p.signature();
        assert!(sig.types.contains(&sym("determiner")));
        assert!(sig.types.contains(&sym("propernp")));
        assert!(sig.types.contains(&sym("noun_phrase")));
        // the values singular/plural/definite are object-typed constants
        assert!(sig.types.contains(&object_type()));
        assert!(sig.labels.contains(&sym("num")));
        assert!(sig.labels.contains(&sym("def")));
        assert!(sig.functions.contains(&sym("the")));
        assert!(sig.functions.contains(&sym("singular")));
        assert!(sig.predicates.is_empty());
    }

    #[test]
    fn signature_counts_follow_loads_and_retractions() {
        let mut p = grammar_fragment();
        let mut counts = SignatureCounts::of(&p);
        assert_eq!(counts.signature(), p.signature());
        let extra = DefiniteClause::fact(Atomic::term(Term::typed_constant("determiner", "a")));
        counts.add_clause(&extra);
        p.push(extra);
        assert_eq!(counts.signature(), p.signature());
        // Retract the first clause: symbols it alone used disappear.
        let gone = p.clauses.remove(0);
        counts.remove_clause(&gone);
        assert_eq!(counts.signature(), p.signature());
        assert!(!counts.functions().contains(&sym("the")));
        assert!(counts.types().contains(&sym("determiner")));
    }

    #[test]
    fn proper_types_excludes_object() {
        let p = grammar_fragment();
        let sig = p.signature();
        let proper: BTreeSet<Symbol> = sig.proper_types().collect();
        assert!(!proper.contains(&object_type()));
        assert!(proper.contains(&sym("determiner")));
    }

    #[test]
    fn hierarchy_from_program() {
        let p = grammar_fragment();
        let h = p.hierarchy();
        assert!(h.is_subtype(sym("propernp"), sym("noun_phrase")));
    }

    #[test]
    fn display_program() {
        let p = grammar_fragment();
        let s = p.to_string();
        assert!(s.starts_with("propernp < noun_phrase.\n"));
        assert!(s.contains("determiner: the[num => {singular, plural}, def => definite]."));
    }

    #[test]
    fn atom_count() {
        let mut p = grammar_fragment();
        assert_eq!(p.atom_count(), 1);
        p.push(DefiniteClause::rule(
            Atomic::pred("q", vec![]),
            vec![Atomic::pred("a", vec![]), Atomic::pred("b", vec![])],
        ));
        assert_eq!(p.atom_count(), 4);
    }

    #[test]
    fn signature_scans_predicates_and_nested_apps() {
        let mut p = Program::new();
        p.push_fact(Atomic::pred(
            "edge",
            vec![Term::app("pair", vec![Term::constant("a"), Term::var("X")])],
        ));
        let sig = p.signature();
        assert!(sig.predicates.contains(&sym("edge")));
        assert!(sig.functions.contains(&sym("pair")));
        assert!(sig.functions.contains(&sym("a")));
    }
}
