//! Hash-consed ground terms and the fact store's tuple representation.
//!
//! Term graphs with identity are awkward to share under ownership, so the
//! engine interns every ground term into a [`TermStore`] arena: a
//! [`TermId`] is a 4-byte handle, structural equality is integer equality,
//! and the store is the single owner of all term structure. Derived facts
//! — of which bottom-up evaluation produces many — are then just small
//! vectors of ids.
//!
//! The arena is flat: one node per term, compound arguments in one shared
//! id array, and a hash-to-chain table for hash-consing, so a term costs no
//! heap allocation of its own and is stored once. It is split like a
//! [`Relation`](crate::facts::Relation): a frozen **base** segment and a
//! small **tail** that receives new terms, each behind an [`Arc`]. Cloning
//! a store (the snapshot copy-on-write path, and a bottom-up query's
//! scratch store) shares both; the first intern into a shared tail copies
//! it. [`TermStore::fold`] moves the tail into the base once it passes
//! [`FOLD_BOUND`](crate::facts::FOLD_BOUND). Ids never change: a fold
//! appends the tail's terms to the base in id order.

use crate::chain::{fx_hash, Chains};
use clogic_core::fol::FoTerm;
use clogic_core::symbol::Symbol;
use clogic_core::term::Const;
use std::fmt;
use std::sync::Arc;

/// Handle to a hash-consed ground term inside a [`TermStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// The shape of a ground term, borrowed from its store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroundTerm<'a> {
    /// A constant.
    Const(Const),
    /// `f(t1,…,tn)` with interned argument handles.
    App(Symbol, &'a [TermId]),
}

/// One stored term: a constant, or a functor with its arguments'
/// position in the segment's argument array.
#[derive(Clone, Copy, Debug)]
enum Node {
    Const(Const),
    App { f: Symbol, start: u32, len: u32 },
}

/// A run of consecutive terms: ids `offset..offset + nodes.len()` of the
/// store, where `offset` is 0 for the base and the base's length for
/// the tail.
#[derive(Clone, Debug, Default)]
struct TermSegment {
    nodes: Vec<Node>,
    args: Vec<TermId>,
    /// Hash-consing table over local ids.
    chains: Chains,
}

impl TermSegment {
    fn len(&self) -> u32 {
        self.nodes.len() as u32
    }

    #[inline]
    fn view(&self, local: u32) -> GroundTerm<'_> {
        match self.nodes[local as usize] {
            Node::Const(c) => GroundTerm::Const(c),
            Node::App { f, start, len } => {
                GroundTerm::App(f, &self.args[start as usize..(start + len) as usize])
            }
        }
    }

    /// The local id of `t`, if this segment holds it.
    #[inline]
    fn find(&self, t: GroundTerm<'_>, hash: u64) -> Option<u32> {
        self.chains.candidates(hash).find(|&l| self.view(l) == t)
    }

    /// Appends a term known to be absent; returns its local id.
    fn push(&mut self, t: GroundTerm<'_>, hash: u64) -> u32 {
        let node = match t {
            GroundTerm::Const(c) => Node::Const(c),
            GroundTerm::App(f, args) => {
                let start = self.args.len() as u32;
                self.args.extend_from_slice(args);
                Node::App {
                    f,
                    start,
                    len: args.len() as u32,
                }
            }
        };
        self.nodes.push(node);
        self.chains.push(hash)
    }
}

/// An arena of hash-consed ground terms.
///
/// Interning the same term twice yields the same [`TermId`]; ids are dense
/// and stable for the store's lifetime.
#[derive(Clone, Debug, Default)]
pub struct TermStore {
    base: Arc<TermSegment>,
    tail: Arc<TermSegment>,
}

impl TermStore {
    /// An empty store.
    pub fn new() -> TermStore {
        TermStore::default()
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        (self.base.len() + self.tail.len()) as usize
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Terms in the tail: what a clone of this store copies once it
    /// interns a term.
    pub fn tail_len(&self) -> usize {
        self.tail.len() as usize
    }

    /// Interns a ground term shape.
    pub fn intern(&mut self, t: GroundTerm<'_>) -> TermId {
        let hash = fx_hash(&t);
        if let Some(id) = self.find(t, hash) {
            return id;
        }
        TermId(self.base.len() + Arc::make_mut(&mut self.tail).push(t, hash))
    }

    /// Interns a constant.
    pub fn intern_const(&mut self, c: Const) -> TermId {
        self.intern(GroundTerm::Const(c))
    }

    /// Interns `f(args…)`.
    pub fn intern_app(&mut self, f: Symbol, args: &[TermId]) -> TermId {
        self.intern(GroundTerm::App(f, args))
    }

    /// Interns a ground [`FoTerm`]; returns `None` if it contains a
    /// variable.
    pub fn intern_fo(&mut self, t: &FoTerm) -> Option<TermId> {
        match t {
            FoTerm::Var(_) => None,
            FoTerm::Const(c) => Some(self.intern_const(*c)),
            FoTerm::App(f, args) => {
                let mut ids = Vec::with_capacity(args.len());
                for a in args {
                    ids.push(self.intern_fo(a)?);
                }
                Some(self.intern_app(*f, &ids))
            }
        }
    }

    /// Looks up the shape of an interned term.
    #[inline]
    pub fn get(&self, id: TermId) -> GroundTerm<'_> {
        let b = self.base.len();
        if id.0 < b {
            self.base.view(id.0)
        } else {
            self.tail.view(id.0 - b)
        }
    }

    /// The id of a shape, if it has been interned (read-only probe).
    pub fn lookup(&self, t: GroundTerm<'_>) -> Option<TermId> {
        self.find(t, fx_hash(&t))
    }

    #[inline]
    fn find(&self, t: GroundTerm<'_>, hash: u64) -> Option<TermId> {
        if let Some(l) = self.base.find(t, hash) {
            return Some(TermId(l));
        }
        self.tail.find(t, hash).map(|l| TermId(self.base.len() + l))
    }

    /// Moves the tail into the base: in place when no clone shares the
    /// base, otherwise into a copy of it. Ids do not change.
    pub fn fold(&mut self) {
        if self.tail.nodes.is_empty() {
            return;
        }
        let tail = std::mem::take(&mut self.tail);
        if self.base.nodes.is_empty() {
            self.base = tail;
            return;
        }
        let base = Arc::make_mut(&mut self.base);
        for local in 0..tail.len() {
            base.push(tail.view(local), tail.chains.hash(local));
        }
    }

    /// Reconstructs the [`FoTerm`] for an id (for display and for handing
    /// answers back to callers).
    pub fn to_fo(&self, id: TermId) -> FoTerm {
        match self.get(id) {
            GroundTerm::Const(c) => FoTerm::Const(c),
            GroundTerm::App(f, args) => {
                FoTerm::App(f, args.iter().map(|&a| self.to_fo(a)).collect())
            }
        }
    }

    /// Renders an interned term.
    pub fn display(&self, id: TermId) -> String {
        self.to_fo(id).to_string()
    }

    /// The integer value of an interned term, if it is an integer
    /// constant — used by the arithmetic built-ins.
    pub fn as_int(&self, id: TermId) -> Option<i64> {
        match self.get(id) {
            GroundTerm::Const(Const::Int(i)) => Some(i),
            _ => None,
        }
    }
}

/// A derived ground fact: predicate symbol plus interned argument tuple.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundAtom {
    /// The predicate symbol.
    pub pred: Symbol,
    /// The argument tuple.
    pub args: Vec<TermId>,
}

impl GroundAtom {
    /// Builds a ground atom.
    pub fn new(pred: Symbol, args: Vec<TermId>) -> GroundAtom {
        GroundAtom { pred, args }
    }

    /// Renders via a store.
    pub fn display(&self, store: &TermStore) -> String {
        let args: Vec<String> = self.args.iter().map(|&a| store.display(a)).collect();
        format!("{}({})", self.pred, args.join(", "))
    }

    /// Converts back to a first-order atom.
    pub fn to_fo(&self, store: &TermStore) -> clogic_core::fol::FoAtom {
        clogic_core::fol::FoAtom::new(
            self.pred,
            self.args.iter().map(|&a| store.to_fo(a)).collect(),
        )
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clogic_core::symbol::sym;

    #[test]
    fn interning_is_idempotent() {
        let mut st = TermStore::new();
        let a1 = st.intern_const(Const::Sym(sym("a")));
        let a2 = st.intern_const(Const::Sym(sym("a")));
        assert_eq!(a1, a2);
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn compound_terms_share_substructure() {
        let mut st = TermStore::new();
        let a = st.intern_const(Const::Sym(sym("a")));
        let f1 = st.intern_app(sym("f"), &[a]);
        let f2 = st.intern_app(sym("f"), &[a]);
        assert_eq!(f1, f2);
        let g = st.intern_app(sym("g"), &[f1, f1]);
        assert_eq!(st.len(), 3);
        assert_eq!(st.display(g), "g(f(a), f(a))");
    }

    #[test]
    fn fo_roundtrip() {
        let mut st = TermStore::new();
        let t = FoTerm::App(sym("id"), vec![FoTerm::constant("x"), FoTerm::int(3)]);
        let id = st.intern_fo(&t).unwrap();
        assert_eq!(st.to_fo(id), t);
        // variables refuse to intern
        assert!(st.intern_fo(&FoTerm::var("X")).is_none());
        assert!(st
            .intern_fo(&FoTerm::App(sym("f"), vec![FoTerm::var("X")]))
            .is_none());
    }

    #[test]
    fn distinct_const_kinds_distinct_ids() {
        let mut st = TermStore::new();
        let i = st.intern_const(Const::Int(1));
        let s = st.intern_const(Const::Sym(sym("1")));
        assert_ne!(i, s);
        assert_eq!(st.as_int(i), Some(1));
        assert_eq!(st.as_int(s), None);
    }

    #[test]
    fn ground_atom_display() {
        let mut st = TermStore::new();
        let j = st.intern_const(Const::Sym(sym("john")));
        let b = st.intern_const(Const::Sym(sym("bob")));
        let atom = GroundAtom::new(sym("children"), vec![j, b]);
        assert_eq!(atom.display(&st), "children(john, bob)");
        assert_eq!(atom.to_fo(&st).to_string(), "children(john, bob)");
    }

    #[test]
    fn empty_store() {
        let st = TermStore::new();
        assert!(st.is_empty());
        assert_eq!(st.len(), 0);
    }

    /// The store contract: a clone keeps its terms and ids while the
    /// original interns and folds; folds keep every id; lookups see base
    /// and tail alike.
    #[test]
    fn clone_survives_interns_and_folds_of_the_original() {
        let mut st = TermStore::new();
        let a = st.intern_const(Const::Sym(sym("a")));
        let fa = st.intern_app(sym("f"), &[a]);
        st.fold(); // tail moves into the empty base
        assert_eq!((st.len(), st.tail_len()), (2, 0));
        let b = st.intern_const(Const::Sym(sym("b")));
        let gab = st.intern_app(sym("g"), &[a, b]);
        assert_eq!(st.tail_len(), 2);
        let pinned = st.clone();

        // The original interns more and folds while the base is shared:
        // the fold copies the base and leaves the clone's alone.
        let c = st.intern_const(Const::Sym(sym("c")));
        st.fold();
        assert_eq!((st.len(), st.tail_len()), (5, 0));
        assert_eq!(st.intern_app(sym("g"), &[a, b]), gab, "ids survive a fold");
        assert_eq!(st.lookup(GroundTerm::Const(Const::Sym(sym("c")))), Some(c));
        assert_eq!(st.display(gab), "g(a, b)");

        assert_eq!(pinned.len(), 4);
        assert_eq!(pinned.lookup(GroundTerm::Const(Const::Sym(sym("c")))), None);
        assert_eq!(pinned.lookup(GroundTerm::App(sym("f"), &[a])), Some(fa));
        assert_eq!(pinned.display(gab), "g(a, b)");

        // A fold with an unshared base appends in place.
        drop(pinned);
        let d = st.intern_const(Const::Sym(sym("d")));
        st.fold();
        assert_eq!(st.get(d), GroundTerm::Const(Const::Sym(sym("d"))));
        assert_eq!(st.len(), 6);
    }
}
