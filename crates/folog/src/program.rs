//! Compiled first-order programs: clauses with dense rule-local variables
//! and a clause index.
//!
//! Compilation renames each clause's variables to `0..n_vars` so that an
//! activation at runtime is a constant-offset shift ("standardize apart"
//! without hashing). The clause index generalizes first-argument
//! indexing to *every* head argument position: a goal with any bound
//! argument selects clauses through the most selective position, and
//! clauses whose head holds a variable there are always candidates.

use crate::facts::IndexMode;
use crate::rterm::{ratom_of_fo, RAtom, RTerm, VarAlloc, VarId};
use clogic_core::fol::{FoAtom, FoClause, FoProgram};
use clogic_core::symbol::Symbol;
use clogic_core::term::Const;
use std::collections::HashMap;
use std::fmt;

/// A compiled clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: RAtom,
    /// The positive body atoms.
    pub body: Vec<RAtom>,
    /// Negated body atoms (negation as failure).
    pub neg_body: Vec<RAtom>,
    /// Number of distinct variables (ids are `0..n_vars`).
    pub n_vars: u32,
}

impl Rule {
    /// Compiles the clause `head :- body, \+ neg_body`, numbering its
    /// variables `0..n_vars` in order of first occurrence, head first, in
    /// `alloc`, which keeps their names.
    pub fn from_fo(
        head: &FoAtom,
        body: &[FoAtom],
        neg_body: &[FoAtom],
        alloc: &mut VarAlloc,
    ) -> Rule {
        let mut map = HashMap::new();
        let mut compile = |a: &FoAtom| ratom_of_fo(a, &mut map, alloc);
        let head = compile(head);
        let body = body.iter().map(&mut compile).collect();
        let neg_body = neg_body.iter().map(&mut compile).collect();
        Rule {
            head,
            body,
            neg_body,
            n_vars: alloc.len() as u32,
        }
    }

    /// True iff the body (positive and negative) is empty.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty() && self.neg_body.is_empty()
    }

    /// True iff the rule uses negation.
    pub fn has_negation(&self) -> bool {
        !self.neg_body.is_empty()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() || !self.neg_body.is_empty() {
            write!(f, " :- ")?;
            for (i, b) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{b}")?;
            }
            for (i, n) in self.neg_body.iter().enumerate() {
                if i > 0 || !self.body.is_empty() {
                    write!(f, ", ")?;
                }
                write!(f, "\\+ {n}")?;
            }
        }
        write!(f, ".")
    }
}

/// The key under which a goal's first argument selects clauses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArgKey {
    /// A constant.
    Const(Const),
    /// A compound term's principal functor and arity.
    Functor(Symbol, usize),
}

/// Computes the index key of a term, if it is not a variable.
pub fn arg_key(t: &RTerm) -> Option<ArgKey> {
    match t {
        RTerm::Var(_) => None,
        RTerm::Const(c) => Some(ArgKey::Const(*c)),
        RTerm::App(f, args) => Some(ArgKey::Functor(*f, args.len())),
    }
}

/// A compiled program with clause indexing.
#[derive(Clone, Debug, Default)]
pub struct CompiledProgram {
    /// All rules, in source order.
    pub rules: Vec<Rule>,
    /// Predicate symbols treated as evaluable built-ins, each once.
    pub builtins: Vec<Symbol>,
    by_pred: HashMap<(Symbol, usize), Vec<usize>>,
    /// For each head argument position holding a non-variable:
    /// (pred, arity, position, key) → clause indices.
    by_arg: HashMap<(Symbol, usize, u32, ArgKey), Vec<usize>>,
    /// Clauses whose head holds a variable at a position (always
    /// candidates when selecting through that position).
    var_at: HashMap<(Symbol, usize, u32), Vec<usize>>,
    /// Whether `candidates`/`candidates_bound` consult the argument
    /// index or return every clause of the predicate (the scan
    /// baseline, kept in lockstep with [`crate::facts::FactStore`]'s).
    index_mode: IndexMode,
}

impl CompiledProgram {
    /// Compiles a first-order program. `builtins` names the evaluable
    /// predicates (their atoms are never resolved against clauses).
    pub fn compile(p: &FoProgram, builtins: impl IntoIterator<Item = Symbol>) -> CompiledProgram {
        let mut out = CompiledProgram {
            builtins: builtins.into_iter().collect(),
            ..CompiledProgram::default()
        };
        out.builtins.sort_unstable();
        out.builtins.dedup();
        for c in &p.clauses {
            out.push_clause(c);
        }
        out
    }

    /// Compiles and adds one clause.
    pub fn push_clause(&mut self, c: &FoClause) {
        let rule = Rule::from_fo(&c.head, &c.body, &c.negative_body, &mut VarAlloc::new());
        self.push_rule(rule);
    }

    /// Adds a compiled rule, indexing every head argument position.
    pub fn push_rule(&mut self, rule: Rule) {
        let idx = self.rules.len();
        let key = (rule.head.pred, rule.head.args.len());
        self.by_pred.entry(key).or_default().push(idx);
        for (pos, a) in rule.head.args.iter().enumerate() {
            match arg_key(a) {
                Some(k) => self
                    .by_arg
                    .entry((key.0, key.1, pos as u32, k))
                    .or_default()
                    .push(idx),
                None => self
                    .var_at
                    .entry((key.0, key.1, pos as u32))
                    .or_default()
                    .push(idx),
            }
        }
        self.rules.push(rule);
    }

    /// Removes rules `len..` and unwinds their index entries — the exact
    /// inverse of the [`CompiledProgram::push_rule`] calls that added
    /// them. This lets query-local auxiliary clauses run as a *scratch
    /// overlay* on a shared compiled program (push, solve, truncate)
    /// instead of cloning the whole program per query.
    pub fn truncate(&mut self, len: usize) {
        fn prune<K: std::hash::Hash + Eq>(map: &mut HashMap<K, Vec<usize>>, key: K, idx: usize) {
            if let Some(v) = map.get_mut(&key) {
                if let Some(pos) = v.iter().rposition(|&i| i == idx) {
                    v.remove(pos);
                }
                if v.is_empty() {
                    map.remove(&key);
                }
            }
        }
        while self.rules.len() > len {
            let rule = self.rules.pop().expect("len checked");
            let idx = self.rules.len();
            let key = (rule.head.pred, rule.head.args.len());
            prune(&mut self.by_pred, key, idx);
            for (pos, a) in rule.head.args.iter().enumerate() {
                match arg_key(a) {
                    Some(k) => prune(&mut self.by_arg, (key.0, key.1, pos as u32, k), idx),
                    None => prune(&mut self.var_at, (key.0, key.1, pos as u32), idx),
                }
            }
        }
    }

    /// The active [`IndexMode`].
    pub fn index_mode(&self) -> IndexMode {
        self.index_mode
    }

    /// Switches clause selection between argument indexing and the scan
    /// baseline (every clause of the predicate is a candidate).
    pub fn set_index_mode(&mut self, mode: IndexMode) {
        self.index_mode = mode;
    }

    /// Whether `pred` is an evaluable built-in (an id check over the
    /// built-in slice).
    pub fn is_builtin(&self, pred: Symbol) -> bool {
        self.builtins.contains(&pred)
    }

    /// Candidate clauses for a goal, using first-argument indexing when
    /// the goal's first argument is bound to a non-variable (callers
    /// should pass the *walked* first argument). Returned in source
    /// order. This is the single-position special case of
    /// [`CompiledProgram::candidates_bound`].
    pub fn candidates(&self, pred: Symbol, arity: usize, first_arg: Option<&RTerm>) -> Vec<usize> {
        match first_arg.and_then(arg_key) {
            None => self.rules_for(pred, arity),
            Some(k) => self.candidates_bound(pred, arity, &[(0, k)]),
        }
    }

    /// Candidate clauses for a goal with any set of bound argument
    /// positions: selects through the position whose candidate list —
    /// key-matched clauses plus variable-headed clauses — is smallest,
    /// and merges the two (sorted, disjoint) lists back into source
    /// order. With no keys, or in [`IndexMode::Scan`], every clause of
    /// the predicate is a candidate.
    pub fn candidates_bound(
        &self,
        pred: Symbol,
        arity: usize,
        keys: &[(u32, ArgKey)],
    ) -> Vec<usize> {
        if self.index_mode == IndexMode::Scan || keys.is_empty() {
            return self.rules_for(pred, arity);
        }
        static EMPTY: Vec<usize> = Vec::new();
        let lists = |&(pos, k): &(u32, ArgKey)| {
            let keyed = self.by_arg.get(&(pred, arity, pos, k)).unwrap_or(&EMPTY);
            let open = self.var_at.get(&(pred, arity, pos)).unwrap_or(&EMPTY);
            (keyed, open)
        };
        let (keyed, open) = keys
            .iter()
            .map(lists)
            .min_by_key(|(keyed, open)| keyed.len() + open.len())
            .expect("non-empty keys");
        // Merge two ascending, disjoint index lists.
        let mut out = Vec::with_capacity(keyed.len() + open.len());
        let (mut i, mut j) = (0, 0);
        while i < keyed.len() || j < open.len() {
            let next_keyed = keyed.get(i).copied().unwrap_or(usize::MAX);
            let next_open = open.get(j).copied().unwrap_or(usize::MAX);
            if next_keyed < next_open {
                out.push(next_keyed);
                i += 1;
            } else {
                out.push(next_open);
                j += 1;
            }
        }
        out
    }

    /// All rules for a predicate.
    pub fn rules_for(&self, pred: Symbol, arity: usize) -> Vec<usize> {
        self.by_pred
            .get(&(pred, arity))
            .cloned()
            .unwrap_or_default()
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff there are no clauses.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The set of derivable predicates (head predicates with arities).
    pub fn head_predicates(&self) -> Vec<(Symbol, usize)> {
        let mut out: Vec<(Symbol, usize)> = self.by_pred.keys().copied().collect();
        out.sort();
        out
    }

    /// True iff any rule uses negation.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(Rule::has_negation)
    }
}

/// Read-only access to an indexed clause collection.
///
/// Both a whole [`CompiledProgram`] and a [`ClauseOverlay`] (a shared
/// base extended by a small private tail) implement this, so the
/// evaluation engines can run over either without cloning: a query that
/// needs a handful of auxiliary clauses layers them over the shared
/// program instead of copying it.
pub trait ClauseView {
    /// The rule at position `idx` (`0..len()`).
    fn rule(&self, idx: usize) -> &Rule;
    /// Number of clauses.
    fn len(&self) -> usize;
    /// True iff there are no clauses.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The evaluable built-in predicates.
    fn builtins(&self) -> &[Symbol];
    /// Whether `pred` is an evaluable built-in.
    fn is_builtin(&self, pred: Symbol) -> bool {
        self.builtins().contains(&pred)
    }
    /// Candidate clauses for a goal (see [`CompiledProgram::candidates`]).
    fn candidates(&self, pred: Symbol, arity: usize, first_arg: Option<&RTerm>) -> Vec<usize>;
    /// Candidate clauses for a goal with bound argument positions (see
    /// [`CompiledProgram::candidates_bound`]). The default is the
    /// unindexed sound fallback: every clause of the predicate.
    fn candidates_bound(&self, pred: Symbol, arity: usize, keys: &[(u32, ArgKey)]) -> Vec<usize> {
        let _ = keys;
        self.rules_for(pred, arity)
    }
    /// All rules for a predicate.
    fn rules_for(&self, pred: Symbol, arity: usize) -> Vec<usize>;
    /// The set of derivable predicates (head predicates with arities).
    fn head_predicates(&self) -> Vec<(Symbol, usize)>;
    /// True iff any rule uses negation.
    fn has_negation(&self) -> bool;
}

impl ClauseView for CompiledProgram {
    fn rule(&self, idx: usize) -> &Rule {
        &self.rules[idx]
    }
    fn len(&self) -> usize {
        CompiledProgram::len(self)
    }
    fn builtins(&self) -> &[Symbol] {
        &self.builtins
    }
    fn candidates(&self, pred: Symbol, arity: usize, first_arg: Option<&RTerm>) -> Vec<usize> {
        CompiledProgram::candidates(self, pred, arity, first_arg)
    }
    fn candidates_bound(&self, pred: Symbol, arity: usize, keys: &[(u32, ArgKey)]) -> Vec<usize> {
        CompiledProgram::candidates_bound(self, pred, arity, keys)
    }
    fn rules_for(&self, pred: Symbol, arity: usize) -> Vec<usize> {
        CompiledProgram::rules_for(self, pred, arity)
    }
    fn head_predicates(&self) -> Vec<(Symbol, usize)> {
        CompiledProgram::head_predicates(self)
    }
    fn has_negation(&self) -> bool {
        CompiledProgram::has_negation(self)
    }
}

/// A copy-on-write clause overlay: a borrowed, immutable base program plus
/// a small private tail of appended clauses.
///
/// Tail clauses are numbered `base.len()..`, exactly as if they had been
/// pushed onto the base — per-rule statistics indexed by clause position
/// are unaffected by whether a clause lives in the base or the tail. This
/// replaces the clone-push-solve and push-solve-truncate patterns for
/// query-local auxiliary clauses: the base stays shared (and can sit
/// behind an `Arc` used by many threads), and a query allocates only its
/// own aux clauses.
pub struct ClauseOverlay<'a, P: ClauseView = CompiledProgram> {
    base: &'a P,
    base_len: usize,
    tail: CompiledProgram,
}

impl<'a, P: ClauseView> ClauseOverlay<'a, P> {
    /// Creates an empty overlay over `base`.
    pub fn new(base: &'a P) -> ClauseOverlay<'a, P> {
        ClauseOverlay {
            base,
            base_len: base.len(),
            tail: CompiledProgram::default(),
        }
    }

    /// Compiles and appends one clause to the private tail.
    pub fn push_clause(&mut self, c: &FoClause) {
        self.tail.push_clause(c);
    }

    /// Appends a compiled rule to the private tail.
    pub fn push_rule(&mut self, rule: Rule) {
        self.tail.push_rule(rule);
    }

    /// The shared base program.
    pub fn base(&self) -> &P {
        self.base
    }

    /// Number of clauses in the private tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }
}

impl<P: ClauseView> ClauseView for ClauseOverlay<'_, P> {
    fn rule(&self, idx: usize) -> &Rule {
        if idx < self.base_len {
            self.base.rule(idx)
        } else {
            &self.tail.rules[idx - self.base_len]
        }
    }
    fn len(&self) -> usize {
        self.base_len + self.tail.len()
    }
    fn builtins(&self) -> &[Symbol] {
        // The tail registers no built-ins of its own.
        self.base.builtins()
    }
    fn candidates(&self, pred: Symbol, arity: usize, first_arg: Option<&RTerm>) -> Vec<usize> {
        let mut out = self.base.candidates(pred, arity, first_arg);
        // Tail indices are all >= base_len, so appending keeps the
        // combined list in ascending source order.
        out.extend(
            self.tail
                .candidates(pred, arity, first_arg)
                .into_iter()
                .map(|i| i + self.base_len),
        );
        out
    }
    fn candidates_bound(&self, pred: Symbol, arity: usize, keys: &[(u32, ArgKey)]) -> Vec<usize> {
        let mut out = self.base.candidates_bound(pred, arity, keys);
        out.extend(
            self.tail
                .candidates_bound(pred, arity, keys)
                .into_iter()
                .map(|i| i + self.base_len),
        );
        out
    }
    fn rules_for(&self, pred: Symbol, arity: usize) -> Vec<usize> {
        let mut out = self.base.rules_for(pred, arity);
        out.extend(
            self.tail
                .rules_for(pred, arity)
                .into_iter()
                .map(|i| i + self.base_len),
        );
        out
    }
    fn head_predicates(&self) -> Vec<(Symbol, usize)> {
        let mut out = self.base.head_predicates();
        out.extend(self.tail.head_predicates());
        out.sort();
        out.dedup();
        out
    }
    fn has_negation(&self) -> bool {
        self.base.has_negation() || self.tail.has_negation()
    }
}

/// Shifts all variables in an atom by `offset` — instantiating a fresh
/// activation of a rule whose variables are `0..n_vars`.
pub fn shift_atom(a: &RAtom, offset: VarId) -> RAtom {
    RAtom {
        pred: a.pred,
        args: a.args.iter().map(|t| shift_term(t, offset)).collect(),
    }
}

/// Shifts all variables in a term by `offset`.
pub fn shift_term(t: &RTerm, offset: VarId) -> RTerm {
    match t {
        RTerm::Var(v) => RTerm::Var(v + offset),
        RTerm::Const(_) => t.clone(),
        RTerm::App(f, args) => RTerm::App(*f, args.iter().map(|x| shift_term(x, offset)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clogic_core::fol::{FoAtom, FoTerm};
    use clogic_core::symbol::sym;

    fn program() -> FoProgram {
        let mut p = FoProgram::new();
        p.push(FoClause::fact(FoAtom::new(
            "edge",
            vec![FoTerm::constant("a"), FoTerm::constant("b")],
        )));
        p.push(FoClause::fact(FoAtom::new(
            "edge",
            vec![FoTerm::constant("b"), FoTerm::constant("c")],
        )));
        p.push(FoClause::rule(
            FoAtom::new("path", vec![FoTerm::var("X"), FoTerm::var("Y")]),
            vec![FoAtom::new(
                "edge",
                vec![FoTerm::var("X"), FoTerm::var("Y")],
            )],
        ));
        p.push(FoClause::rule(
            FoAtom::new("path", vec![FoTerm::var("X"), FoTerm::var("Z")]),
            vec![
                FoAtom::new("edge", vec![FoTerm::var("X"), FoTerm::var("Y")]),
                FoAtom::new("path", vec![FoTerm::var("Y"), FoTerm::var("Z")]),
            ],
        ));
        p
    }

    #[test]
    fn compile_renames_to_dense_vars() {
        let cp = CompiledProgram::compile(&program(), []);
        assert_eq!(cp.len(), 4);
        let transitive = &cp.rules[3];
        assert_eq!(transitive.n_vars, 3);
        assert_eq!(
            transitive.to_string(),
            "path(_G0, _G1) :- edge(_G0, _G2), path(_G2, _G1)."
        );
        assert!(cp.rules[0].is_fact());
        assert!(!transitive.is_fact());
    }

    #[test]
    fn first_arg_indexing_selects_facts() {
        let cp = CompiledProgram::compile(&program(), []);
        let a = RTerm::Const(Const::Sym(sym("a")));
        let hits = cp.candidates(sym("edge"), 2, Some(&a));
        assert_eq!(hits, vec![0]); // only edge(a,b)
                                   // unbound first argument: all edge clauses
        assert_eq!(cp.candidates(sym("edge"), 2, None), vec![0, 1]);
        // path heads have variable first args: always candidates
        assert_eq!(cp.candidates(sym("path"), 2, Some(&a)), vec![2, 3]);
    }

    #[test]
    fn candidates_bound_selects_through_best_position() {
        let cp = CompiledProgram::compile(&program(), []);
        let a = ArgKey::Const(Const::Sym(sym("a")));
        let b = ArgKey::Const(Const::Sym(sym("b")));
        // position 0 = a pins the first edge fact
        assert_eq!(cp.candidates_bound(sym("edge"), 2, &[(0, a)]), vec![0]);
        // position 1 = b likewise — second-argument indexing now works
        assert_eq!(cp.candidates_bound(sym("edge"), 2, &[(1, b)]), vec![0]);
        // with both bound the smaller candidate list wins (both are
        // singletons here; the answer must stay exact either way)
        assert_eq!(
            cp.candidates_bound(sym("edge"), 2, &[(0, a), (1, b)]),
            vec![0]
        );
        // variable-headed clauses are always candidates
        assert_eq!(cp.candidates_bound(sym("path"), 2, &[(0, a)]), vec![2, 3]);
        // no keys: every clause of the predicate
        assert_eq!(cp.candidates_bound(sym("edge"), 2, &[]), vec![0, 1]);
    }

    #[test]
    fn scan_mode_disables_clause_indexing() {
        let mut cp = CompiledProgram::compile(&program(), []);
        let a = ArgKey::Const(Const::Sym(sym("a")));
        assert_eq!(cp.index_mode(), IndexMode::Indexed);
        cp.set_index_mode(IndexMode::Scan);
        assert_eq!(cp.candidates_bound(sym("edge"), 2, &[(0, a)]), vec![0, 1]);
        let first = RTerm::Const(Const::Sym(sym("a")));
        assert_eq!(cp.candidates(sym("edge"), 2, Some(&first)), vec![0, 1]);
    }

    #[test]
    fn candidates_respect_arity() {
        let cp = CompiledProgram::compile(&program(), []);
        assert!(cp.candidates(sym("edge"), 3, None).is_empty());
        assert!(cp.candidates(sym("nope"), 2, None).is_empty());
    }

    #[test]
    fn functor_keys_distinguish_compounds() {
        let mut p = FoProgram::new();
        p.push(FoClause::fact(FoAtom::new(
            "obj",
            vec![FoTerm::App(sym("id"), vec![FoTerm::constant("a")])],
        )));
        p.push(FoClause::fact(FoAtom::new(
            "obj",
            vec![FoTerm::App(sym("mk"), vec![FoTerm::constant("a")])],
        )));
        let cp = CompiledProgram::compile(&p, []);
        let goal_arg = RTerm::App(sym("id"), vec![RTerm::Var(0)]);
        assert_eq!(cp.candidates(sym("obj"), 1, Some(&goal_arg)), vec![0]);
    }

    #[test]
    fn shift_standardizes_apart() {
        let cp = CompiledProgram::compile(&program(), []);
        let r = &cp.rules[3];
        let shifted = shift_atom(&r.head, 10);
        assert_eq!(shifted.to_string(), "path(_G10, _G11)");
        let also = shift_term(&RTerm::Const(Const::Int(5)), 10);
        assert_eq!(also, RTerm::Const(Const::Int(5)));
    }

    #[test]
    fn builtins_are_registered() {
        let cp = CompiledProgram::compile(&program(), [sym("is")]);
        assert!(cp.is_builtin(sym("is")));
        assert!(!cp.is_builtin(sym("edge")));
    }

    #[test]
    fn truncate_unwinds_overlay_clauses() {
        let mut cp = CompiledProgram::compile(&program(), []);
        let base = cp.len();
        let before: Vec<usize> = cp.candidates(sym("edge"), 2, None);
        // Overlay: a new edge fact, a var-headed rule, and a whole new
        // predicate — each exercises a different index map.
        cp.push_clause(&FoClause::fact(FoAtom::new(
            "edge",
            vec![FoTerm::constant("c"), FoTerm::constant("d")],
        )));
        cp.push_clause(&FoClause::rule(
            FoAtom::new("path", vec![FoTerm::var("X"), FoTerm::var("X")]),
            vec![FoAtom::new("edge", vec![FoTerm::var("X"), FoTerm::var("X")])],
        ));
        cp.push_clause(&FoClause::fact(FoAtom::new(
            "aux",
            vec![FoTerm::constant("z")],
        )));
        assert_eq!(cp.len(), base + 3);
        assert_eq!(cp.candidates(sym("edge"), 2, None).len(), 3);
        assert_eq!(cp.candidates(sym("aux"), 1, None), vec![base + 2]);
        cp.truncate(base);
        assert_eq!(cp.len(), base);
        assert_eq!(cp.candidates(sym("edge"), 2, None), before);
        assert!(cp.candidates(sym("aux"), 1, None).is_empty());
        assert_eq!(cp.candidates(sym("path"), 2, None), vec![2, 3]);
        // truncating to the current length is a no-op
        cp.truncate(base + 10);
        assert_eq!(cp.len(), base);
    }

    #[test]
    fn head_predicates() {
        let cp = CompiledProgram::compile(&program(), []);
        assert_eq!(
            cp.head_predicates(),
            vec![(sym("edge"), 2), (sym("path"), 2)]
        );
    }

    #[test]
    fn overlay_extends_base_without_mutating_it() {
        let cp = CompiledProgram::compile(&program(), []);
        let base_len = cp.len();
        let base_edges = cp.candidates(sym("edge"), 2, None);
        let mut ov = ClauseOverlay::new(&cp);
        ov.push_clause(&FoClause::fact(FoAtom::new(
            "edge",
            vec![FoTerm::constant("c"), FoTerm::constant("d")],
        )));
        ov.push_clause(&FoClause::fact(FoAtom::new(
            "aux",
            vec![FoTerm::constant("z")],
        )));
        // Overlay sees base + tail with tail indices one past the base.
        assert_eq!(ClauseView::len(&ov), base_len + 2);
        assert_eq!(ov.tail_len(), 2);
        assert_eq!(
            ClauseView::candidates(&ov, sym("edge"), 2, None),
            vec![0, 1, base_len]
        );
        assert_eq!(
            ClauseView::rules_for(&ov, sym("aux"), 1),
            vec![base_len + 1]
        );
        assert_eq!(
            ClauseView::rule(&ov, base_len + 1).head.pred,
            sym("aux")
        );
        assert_eq!(
            ClauseView::head_predicates(&ov),
            vec![(sym("aux"), 1), (sym("edge"), 2), (sym("path"), 2)]
        );
        // The base is untouched.
        assert_eq!(cp.len(), base_len);
        assert_eq!(cp.candidates(sym("edge"), 2, None), base_edges);
    }

    #[test]
    fn overlay_first_arg_indexing_covers_tail() {
        let cp = CompiledProgram::compile(&program(), []);
        let base_len = cp.len();
        let mut ov = ClauseOverlay::new(&cp);
        ov.push_clause(&FoClause::fact(FoAtom::new(
            "edge",
            vec![FoTerm::constant("a"), FoTerm::constant("z")],
        )));
        let a = RTerm::Const(Const::Sym(sym("a")));
        assert_eq!(
            ClauseView::candidates(&ov, sym("edge"), 2, Some(&a)),
            vec![0, base_len]
        );
    }
}
