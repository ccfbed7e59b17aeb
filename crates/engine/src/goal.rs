//! Compilation of C-logic programs into the direct engine's runtime form.
//!
//! The direct engine does **not** flatten molecules into binary label
//! relations; it keeps each molecule as one *molecular goal* — the
//! clustering the user wrote down (§4). Compilation:
//!
//! * nested molecule values are lifted: `john[spouse ⇒ mary[age ⇒ 27]]`
//!   becomes the goal `john[spouse ⇒ mary]` plus the extra goal
//!   `mary[age ⇒ 27]`;
//! * collection values expand into multiple pairs under one label;
//! * rule heads become multi-head clauses (one head goal per lifted
//!   molecule), the direct analogue of the paper's generalized clauses;
//! * ground facts are merged into the clustered [`ObjectStore`]; ordinary
//!   predicate facts go to a tuple store.

use crate::store::ObjectStore;
use clogic_core::formula::Atomic;
use clogic_core::hierarchy::TypeHierarchy;
use clogic_core::program::Program;
use clogic_core::symbol::Symbol;
use clogic_core::term::{IdTerm, Term};
use folog::facts::FactStore;
use folog::rterm::{RTerm, VarAlloc, VarId};
use folog::TermStore;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A molecular goal: one object's type plus a set of label pieces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MolGoal {
    /// The asserted type.
    pub ty: Symbol,
    /// The identity term.
    pub id: RTerm,
    /// Label pieces `(label, value)`; values are identity terms (nested
    /// molecules are lifted at compilation).
    pub specs: Vec<(Symbol, RTerm)>,
    /// Residuals produced while resolving against the clustered store,
    /// and their own residuals, are marked rules-only: the store has
    /// already said everything it knows about this object, so
    /// re-consulting it would duplicate derivations.
    pub rules_only: bool,
    /// The clause a residual must not resolve against: the one whose
    /// head covered the goal while these pieces, open but matched by
    /// that head, were left to other sources. Every instance of that
    /// clause was already tried with the pieces covered. The residual's
    /// own residuals inherit it.
    pub skip_clause: Option<usize>,
}

impl MolGoal {
    /// Number of pieces: the type piece plus one per label pair.
    pub fn piece_count(&self) -> usize {
        1 + self.specs.len()
    }
}

impl fmt::Display for MolGoal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.ty, self.id)?;
        if !self.specs.is_empty() {
            write!(f, "[")?;
            for (i, (l, v)) in self.specs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l} => {v}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// A runtime goal of the direct engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Goal {
    /// A molecular goal.
    Mol(MolGoal),
    /// A predicate goal (ordinary or built-in).
    Pred {
        /// The predicate symbol.
        pred: Symbol,
        /// The arguments (identity terms).
        args: Vec<RTerm>,
    },
    /// Negation as failure: succeeds iff the inner conjunction (the
    /// compiled form of one negated atomic formula) has no solution
    /// under the current bindings, which must ground it.
    Neg(Vec<Goal>),
    /// The end of one clause resolution's goals (its body and residual),
    /// placed before its continuation: from here on, the molecular goal
    /// it resolved no longer counts as in progress for the variant loop
    /// check.
    Exit,
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Goal::Mol(m) => write!(f, "{m}"),
            Goal::Pred { pred, args } => {
                write!(f, "{pred}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Goal::Neg(inner) => {
                write!(f, "\\+ (")?;
                for (i, g) in inner.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Goal::Exit => write!(f, "exit"),
        }
    }
}

/// A compiled C-logic clause: multiple head goals (generalized form), a
/// body, and a dense variable count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MolClause {
    /// The head goals.
    pub heads: Vec<Goal>,
    /// The body goals.
    pub body: Vec<Goal>,
    /// Number of rule-local variables.
    pub n_vars: u32,
}

impl fmt::Display for MolClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, h) in self.heads.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{h}")?;
        }
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, b) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{b}")?;
            }
        }
        write!(f, ".")
    }
}

/// How eagerly nested bare values emit their own goals.
///
/// A nested value's lifted goal `object: v` is *content-free*: whenever
/// the enclosing label piece is matched, `v` is an object by construction
/// of the store and the derivation rules. In goal position (bodies and
/// queries) emitting it would make the direct engine enumerate the active
/// domain exactly like the translated program's `object(X)` atoms — the
/// §4 redundancy the optimizer deletes — so [`EmitMode::Checks`] skips it.
/// In head position ([`EmitMode::Assertions`]) it must be kept: the paper's
/// optimized `common_np` still asserts `object(3)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmitMode {
    /// Head position: assert everything, including bare nested values.
    Assertions,
    /// Body/query position: emit only content-bearing goals (molecules
    /// and values with a proper type).
    Checks,
    /// Built-in arguments: emit nothing, convert identities only.
    None,
}

/// Flattens a C-logic term into an identity [`RTerm`] plus the molecular
/// goals it asserts (its own, then any lifted from nested values).
/// The top-level term always emits its goal (unless `mode` is
/// [`EmitMode::None`]); nested bare values follow `mode`.
pub fn flatten_term(
    t: &Term,
    map: &mut HashMap<Symbol, VarId>,
    alloc: &mut VarAlloc,
    out: &mut Vec<Goal>,
    mode: EmitMode,
) -> RTerm {
    flatten_term_at(t, map, alloc, out, mode, true)
}

fn flatten_term_at(
    t: &Term,
    map: &mut HashMap<Symbol, VarId>,
    alloc: &mut VarAlloc,
    out: &mut Vec<Goal>,
    mode: EmitMode,
    top: bool,
) -> RTerm {
    let id = flatten_id(t.id_term(), map, alloc, out, mode);
    let emit = match mode {
        EmitMode::None => false,
        EmitMode::Assertions => true,
        EmitMode::Checks => {
            top || t.is_molecule() || t.ty() != clogic_core::hierarchy::object_type()
        }
    };
    if emit {
        let mut specs = Vec::new();
        for s in t.specs() {
            for v in s.value.terms() {
                let vid = flatten_term_at(v, map, alloc, out, mode, false);
                specs.push((s.label, vid));
            }
        }
        out.push(Goal::Mol(MolGoal {
            ty: t.ty(),
            id: id.clone(),
            specs,
            rules_only: false,
            skip_clause: None,
        }));
    }
    id
}

fn flatten_id(
    id: &IdTerm,
    map: &mut HashMap<Symbol, VarId>,
    alloc: &mut VarAlloc,
    out: &mut Vec<Goal>,
    mode: EmitMode,
) -> RTerm {
    match id {
        IdTerm::Var { name, .. } => {
            let v = *map.entry(*name).or_insert_with(|| alloc.fresh_named(*name));
            RTerm::Var(v)
        }
        IdTerm::Const { c, .. } => RTerm::Const(*c),
        IdTerm::App { functor, args, .. } => RTerm::App(
            *functor,
            args.iter()
                .map(|a| flatten_term_at(a, map, alloc, out, mode, false))
                .collect(),
        ),
    }
}

/// Compiles an atomic formula into goals (in satisfaction order: lifted
/// value goals first, the main goal last). `mode` should be
/// [`EmitMode::Assertions`] for heads and [`EmitMode::Checks`] for bodies
/// and queries.
pub fn compile_atomic(
    a: &Atomic,
    map: &mut HashMap<Symbol, VarId>,
    alloc: &mut VarAlloc,
    builtins: &BTreeSet<Symbol>,
    mode: EmitMode,
) -> Vec<Goal> {
    let mut out = Vec::new();
    match a {
        Atomic::Term(t) => {
            flatten_term(t, map, alloc, &mut out, mode);
        }
        Atomic::Pred { pred, args } => {
            let arg_mode = if builtins.contains(pred) {
                EmitMode::None
            } else {
                mode
            };
            let rargs: Vec<RTerm> = args
                .iter()
                .map(|t| flatten_term_at(t, map, alloc, &mut out, arg_mode, false))
                .collect();
            out.push(Goal::Pred {
                pred: *pred,
                args: rargs,
            });
        }
    }
    out
}

/// A compiled program for the direct engine.
#[derive(Clone, Debug, Default)]
pub struct DirectProgram {
    /// Hash-consed ground identities.
    pub terms: TermStore,
    /// The clustered extensional store.
    pub objects: ObjectStore,
    /// Ordinary predicate facts.
    pub preds: FactStore,
    /// Intensional clauses.
    pub clauses: Vec<MolClause>,
    /// The declared type hierarchy.
    pub hierarchy: TypeHierarchy,
    /// Evaluable predicate symbols.
    pub builtins: BTreeSet<Symbol>,
    /// Labels that some clause head can derive (used to decide whether a
    /// piece may be residuated towards the rules).
    pub intensional_labels: BTreeSet<Symbol>,
    /// Head types that some clause can derive.
    pub intensional_types: BTreeSet<Symbol>,
    /// Whether any clause head is a predicate goal, per symbol.
    pub intensional_preds: BTreeSet<Symbol>,
}

impl DirectProgram {
    /// Compiles a C-logic program, merging ground facts into the
    /// clustered store and keeping rules (and non-ground facts) as
    /// clauses.
    pub fn compile(p: &Program, builtins: impl IntoIterator<Item = Symbol>) -> DirectProgram {
        let mut out = DirectProgram {
            hierarchy: p.hierarchy(),
            builtins: builtins.into_iter().collect(),
            ..DirectProgram::default()
        };
        out.absorb(&p.clauses);
        out
    }

    /// Extends a compiled program in place with the clauses of `p` from
    /// index `from` on, for cumulative loading: the clustered store and
    /// tuple store are merged into (not rebuilt), clauses are appended,
    /// and the hierarchy is recomputed from the cumulative program (a
    /// delta may add subtype declarations, which change `is_subtype` for
    /// already-compiled symbols — the hierarchy is small, so refreshing
    /// it wholesale is cheap and keeps the result identical to a
    /// from-scratch [`DirectProgram::compile`] of `p`).
    pub fn extend(&mut self, p: &Program, from: usize) {
        self.hierarchy = p.hierarchy();
        let from = from.min(p.clauses.len());
        self.absorb(&p.clauses[from..]);
    }

    fn absorb(&mut self, clauses: &[clogic_core::formula::DefiniteClause]) {
        for c in clauses {
            let mut map = HashMap::new();
            let mut alloc = VarAlloc::new();
            let heads = compile_atomic(
                &c.head,
                &mut map,
                &mut alloc,
                &self.builtins,
                EmitMode::Assertions,
            );
            let mut body = Vec::new();
            for b in &c.body {
                body.extend(compile_atomic(
                    b,
                    &mut map,
                    &mut alloc,
                    &self.builtins,
                    EmitMode::Checks,
                ));
            }
            for n in &c.neg_body {
                let inner =
                    compile_atomic(n, &mut map, &mut alloc, &self.builtins, EmitMode::Checks);
                body.push(Goal::Neg(inner));
            }
            if body.is_empty() && heads.iter().all(goal_is_ground) {
                for h in &heads {
                    self.insert_ground(h);
                }
            } else {
                for h in &heads {
                    match h {
                        Goal::Mol(m) => {
                            self.intensional_types.insert(m.ty);
                            for (l, _) in &m.specs {
                                self.intensional_labels.insert(*l);
                            }
                        }
                        Goal::Pred { pred, .. } => {
                            self.intensional_preds.insert(*pred);
                        }
                        Goal::Neg(_) | Goal::Exit => {
                            unreachable!("a head holds molecules and predicates only")
                        }
                    }
                }
                self.clauses.push(MolClause {
                    heads,
                    body,
                    n_vars: alloc.len() as u32,
                });
            }
        }
    }

    /// Inserts a ground goal into the extensional stores.
    fn insert_ground(&mut self, g: &Goal) {
        match g {
            Goal::Mol(m) => {
                let id = self.intern(&m.id);
                self.objects.add_type(id, m.ty);
                for (l, v) in &m.specs {
                    let vid = self.intern(v);
                    // values are objects too
                    self.objects
                        .add_type(vid, clogic_core::hierarchy::object_type());
                    self.objects.add_label(id, *l, vid);
                }
            }
            Goal::Pred { pred, args } => {
                let tuple: Vec<folog::TermId> = args.iter().map(|a| self.intern(a)).collect();
                self.preds.insert(*pred, tuple, &self.terms);
            }
            Goal::Neg(_) | Goal::Exit => {
                unreachable!("a fact holds molecules and predicates only")
            }
        }
    }

    fn intern(&mut self, t: &RTerm) -> folog::TermId {
        match t {
            RTerm::Var(_) => unreachable!("ground goals only"),
            RTerm::Const(c) => self.terms.intern_const(*c),
            RTerm::App(f, args) => {
                let ids: Vec<folog::TermId> = args.iter().map(|a| self.intern(a)).collect();
                self.terms.intern_app(*f, ids)
            }
        }
    }

    /// Whether a type piece `ty` could be derived by some clause
    /// (some head type `τ' ≤ ty`).
    pub fn type_derivable(&self, ty: Symbol) -> bool {
        self.intensional_types
            .iter()
            .any(|&t| self.hierarchy.is_subtype(t, ty))
    }
}

fn goal_is_ground(g: &Goal) -> bool {
    match g {
        Goal::Mol(m) => m.id.is_ground() && m.specs.iter().all(|(_, v)| v.is_ground()),
        Goal::Pred { args, .. } => args.iter().all(RTerm::is_ground),
        Goal::Neg(inner) => inner.iter().all(goal_is_ground),
        Goal::Exit => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clogic_core::formula::DefiniteClause;
    use clogic_core::symbol::sym;
    use clogic_core::term::LabelSpec;
    use folog::builtins::builtin_symbols;

    fn builtins() -> BTreeSet<Symbol> {
        builtin_symbols().collect()
    }

    #[test]
    fn flatten_simple_molecule() {
        let t = Term::molecule(
            Term::typed_constant("person", "john"),
            vec![LabelSpec::one("age", Term::int(28))],
        )
        .unwrap();
        let goals = compile_atomic(
            &Atomic::term(t),
            &mut HashMap::new(),
            &mut VarAlloc::new(),
            &builtins(),
            EmitMode::Checks,
        );
        assert_eq!(goals.len(), 1);
        assert_eq!(goals[0].to_string(), "person: john[age => 28]");
    }

    #[test]
    fn flatten_lifts_nested_values() {
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
        let goals = compile_atomic(
            &Atomic::term(t),
            &mut HashMap::new(),
            &mut VarAlloc::new(),
            &builtins(),
            EmitMode::Checks,
        );
        assert_eq!(goals.len(), 2);
        assert_eq!(goals[0].to_string(), "object: mary[age => 27]");
        assert_eq!(goals[1].to_string(), "object: john[spouse => mary]");
    }

    #[test]
    fn flatten_expands_collections() {
        let t = Term::molecule(
            Term::constant("john"),
            vec![LabelSpec::set(
                "children",
                vec![Term::constant("bob"), Term::constant("bill")],
            )],
        )
        .unwrap();
        // In goal position bare values emit nothing extra…
        let goals = compile_atomic(
            &Atomic::term(t.clone()),
            &mut HashMap::new(),
            &mut VarAlloc::new(),
            &builtins(),
            EmitMode::Checks,
        );
        assert_eq!(goals.len(), 1);
        assert_eq!(
            goals[0].to_string(),
            "object: john[children => bob, children => bill]"
        );
        // …while in head position they are asserted.
        let heads = compile_atomic(
            &Atomic::term(t),
            &mut HashMap::new(),
            &mut VarAlloc::new(),
            &builtins(),
            EmitMode::Assertions,
        );
        assert_eq!(heads.len(), 3);
    }

    #[test]
    fn builtin_args_not_lifted() {
        let a = Atomic::pred(
            "is",
            vec![
                Term::var("L"),
                Term::app("+", vec![Term::var("L0"), Term::int(1)]),
            ],
        );
        let goals = compile_atomic(
            &a,
            &mut HashMap::new(),
            &mut VarAlloc::new(),
            &builtins(),
            EmitMode::Checks,
        );
        assert_eq!(goals.len(), 1);
        assert_eq!(goals[0].to_string(), "is(_G0, +(_G1, 1))");
    }

    #[test]
    fn regular_pred_args_are_lifted() {
        let a = Atomic::pred(
            "likes",
            vec![Term::typed_var("person", "X"), Term::constant("tea")],
        );
        let goals = compile_atomic(
            &a,
            &mut HashMap::new(),
            &mut VarAlloc::new(),
            &builtins(),
            EmitMode::Checks,
        );
        // person: X carries content; the bare constant tea does not.
        assert_eq!(goals.len(), 2);
        assert_eq!(goals[0].to_string(), "person: _G0");
        assert_eq!(goals[1].to_string(), "likes(_G0, tea)");
        // In head position the bare constant is asserted as an object.
        let heads = compile_atomic(
            &a,
            &mut HashMap::new(),
            &mut VarAlloc::new(),
            &builtins(),
            EmitMode::Assertions,
        );
        assert_eq!(heads.len(), 3);
        assert_eq!(heads[1].to_string(), "object: tea");
    }

    #[test]
    fn compile_merges_ground_facts() {
        let mut p = Program::new();
        p.push_fact(Atomic::term(
            Term::molecule(
                Term::typed_constant("path", "p"),
                vec![
                    LabelSpec::one("src", Term::constant("a")),
                    LabelSpec::one("dest", Term::constant("b")),
                ],
            )
            .unwrap(),
        ));
        p.push_fact(Atomic::term(
            Term::molecule(
                Term::typed_constant("path", "p"),
                vec![
                    LabelSpec::one("src", Term::constant("c")),
                    LabelSpec::one("dest", Term::constant("d")),
                ],
            )
            .unwrap(),
        ));
        let dp = DirectProgram::compile(&p, builtins());
        assert!(dp.clauses.is_empty());
        assert_eq!(dp.objects.display(&dp.terms).len(), 5); // p, a, b, c, d
        assert!(dp
            .objects
            .display(&dp.terms)
            .contains(&"path: p[dest => {b, d}, src => {a, c}]".to_string()));
    }

    #[test]
    fn compile_keeps_rules_and_tracks_intensional_symbols() {
        let mut p = Program::new();
        p.declare_subtype("propernp", "noun_phrase");
        p.push(DefiniteClause::rule(
            Atomic::term(
                Term::molecule(
                    Term::typed_var("propernp", "X"),
                    vec![LabelSpec::one("pers", Term::int(3))],
                )
                .unwrap(),
            ),
            vec![Atomic::term(Term::typed_var("name", "X"))],
        ));
        let dp = DirectProgram::compile(&p, builtins());
        assert_eq!(dp.clauses.len(), 1);
        assert!(dp.intensional_labels.contains(&sym("pers")));
        assert!(dp.intensional_types.contains(&sym("propernp")));
        // propernp derivable implies noun_phrase derivable (hierarchy)
        assert!(dp.type_derivable(sym("noun_phrase")));
        assert!(dp.type_derivable(sym("propernp")));
        assert!(!dp.type_derivable(sym("name")));
        // The bare value 3 is asserted as an object in the head (the
        // paper's optimized common_np keeps object(3) too).
        assert_eq!(
            dp.clauses[0].to_string(),
            "object: 3, propernp: _G0[pers => 3] :- name: _G0."
        );
    }

    #[test]
    fn predicate_facts_go_to_tuple_store() {
        let mut p = Program::new();
        p.push_fact(Atomic::pred(
            "likes",
            vec![Term::constant("john"), Term::constant("tea")],
        ));
        let dp = DirectProgram::compile(&p, builtins());
        assert_eq!(dp.preds.total, 1);
        // the arguments were asserted as objects too
        assert_eq!(dp.objects.len(), 2);
    }

    #[test]
    fn non_ground_fact_becomes_clause() {
        let mut p = Program::new();
        p.push_fact(Atomic::term(Term::typed_var("anything", "X")));
        let dp = DirectProgram::compile(&p, builtins());
        assert_eq!(dp.clauses.len(), 1);
        assert!(dp.objects.is_empty());
    }

    #[test]
    fn skolem_identity_facts_cluster() {
        let mut p = Program::new();
        p.push_fact(Atomic::term(
            Term::molecule(
                Term::typed_app("path", "id", vec![Term::constant("a"), Term::constant("b")]),
                vec![LabelSpec::one("src", Term::constant("a"))],
            )
            .unwrap(),
        ));
        let dp = DirectProgram::compile(&p, builtins());
        let shown = dp.objects.display(&dp.terms);
        assert!(
            shown.contains(&"path: id(a, b)[src => a]".to_string()),
            "{shown:?}"
        );
    }

    #[test]
    fn extend_matches_from_scratch_compile() {
        let mut first = Program::new();
        first.push_fact(Atomic::term(
            Term::molecule(
                Term::typed_constant("path", "p"),
                vec![LabelSpec::one("src", Term::constant("a"))],
            )
            .unwrap(),
        ));
        let mut combined = first.clone();
        // The delta adds a subtype declaration, a clause, and a fact that
        // clusters onto the already-stored object p.
        combined.declare_subtype("shortpath", "path");
        combined.push(DefiniteClause::rule(
            Atomic::term(Term::typed_var("shortpath", "X")),
            vec![Atomic::term(Term::typed_var("path", "X"))],
        ));
        combined.push_fact(Atomic::term(
            Term::molecule(
                Term::typed_constant("path", "p"),
                vec![LabelSpec::one("dest", Term::constant("b"))],
            )
            .unwrap(),
        ));

        let mut dp = DirectProgram::compile(&first, builtins());
        dp.extend(&combined, first.clauses.len());
        let full = DirectProgram::compile(&combined, builtins());

        assert_eq!(dp.clauses, full.clauses);
        assert_eq!(dp.objects.display(&dp.terms), full.objects.display(&full.terms));
        assert_eq!(dp.preds.total, full.preds.total);
        assert_eq!(dp.intensional_types, full.intensional_types);
        assert!(dp.hierarchy.is_subtype(sym("shortpath"), sym("path")));
    }

    #[test]
    fn piece_count() {
        let m = MolGoal {
            ty: sym("t"),
            id: RTerm::Var(0),
            specs: vec![(sym("l"), RTerm::Var(1))],
            rules_only: false,
            skip_clause: None,
        };
        assert_eq!(m.piece_count(), 2);
    }
}
