//! Unification with a trailed binding store.
//!
//! Bindings are *triangular*: a variable maps to a term that may itself
//! contain bound variables; [`Bindings::walk`] follows chains one step at
//! a time and [`Bindings::resolve`] applies the substitution deeply.
//! Every binding is recorded on a trail so the SLD engine can backtrack
//! by rolling back to a checkpoint instead of cloning the store.

use crate::rterm::{RTerm, VarId};
use std::borrow::Cow;
use std::collections::HashMap;

/// A trailed, growable binding store.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    slots: Vec<Option<RTerm>>,
    trail: Vec<VarId>,
    /// Number of bind operations performed (for the experiment counters).
    pub bind_count: u64,
}

/// A checkpoint into the trail; see [`Bindings::checkpoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint(usize);

impl Bindings {
    /// An empty store.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Ensures the store can hold variable `v`.
    fn ensure(&mut self, v: VarId) {
        let need = v as usize + 1;
        if self.slots.len() < need {
            self.slots.resize(need, None);
        }
    }

    /// The binding of `v`, if any (one step, no chain following).
    pub fn lookup(&self, v: VarId) -> Option<&RTerm> {
        self.slots.get(v as usize).and_then(Option::as_ref)
    }

    /// Binds `v` to `t`, recording it on the trail. `v` must be unbound.
    pub fn bind(&mut self, v: VarId, t: RTerm) {
        self.ensure(v);
        debug_assert!(self.slots[v as usize].is_none(), "rebinding _G{v}");
        self.slots[v as usize] = Some(t);
        self.trail.push(v);
        self.bind_count += 1;
    }

    /// A checkpoint for later rollback.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.trail.len())
    }

    /// Undoes all bindings made after `cp`.
    pub fn rollback(&mut self, cp: Checkpoint) {
        while self.trail.len() > cp.0 {
            let v = self.trail.pop().expect("trail non-empty");
            self.slots[v as usize] = None;
        }
    }

    /// Follows variable chains until a non-variable term or an unbound
    /// variable is reached. Returns a term equal to the input up to
    /// bound-variable dereferencing.
    pub fn walk<'a>(&'a self, t: &'a RTerm) -> &'a RTerm {
        let mut cur = t;
        while let RTerm::Var(v) = cur {
            match self.lookup(*v) {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur
    }

    /// Applies the substitution deeply, producing a term with only unbound
    /// variables.
    pub fn resolve(&self, t: &RTerm) -> RTerm {
        let w = self.walk(t);
        match w {
            RTerm::Var(_) | RTerm::Const(_) => w.clone(),
            RTerm::App(f, args) => RTerm::App(*f, args.iter().map(|a| self.resolve(a)).collect()),
        }
    }

    /// True iff `v` occurs in `t` under the current bindings.
    pub fn occurs(&self, v: VarId, t: &RTerm) -> bool {
        match self.walk(t) {
            RTerm::Var(w) => *w == v,
            RTerm::Const(_) => false,
            RTerm::App(_, args) => args.iter().any(|a| self.occurs(v, a)),
        }
    }
}

/// Unifies `a` and `b` under `bind`, extending it on success. On failure
/// the store is left *unchanged* (partial bindings are rolled back).
/// Returns whether unification succeeded.
///
/// The occurs check is always on: Prolog tradition skips it, but derived
/// object identities are compared structurally, so a cyclic binding
/// would be unsound here.
pub fn unify(a: &RTerm, b: &RTerm, bind: &mut Bindings) -> bool {
    let cp = bind.checkpoint();
    if unify_inner(a, b, bind) {
        true
    } else {
        bind.rollback(cp);
        false
    }
}

fn unify_inner(a: &RTerm, b: &RTerm, bind: &mut Bindings) -> bool {
    let wa = walked(a, bind);
    let wb = walked(b, bind);
    match (&*wa, &*wb) {
        (RTerm::Var(x), RTerm::Var(y)) if x == y => true,
        (&RTerm::Var(x), t) | (t, &RTerm::Var(x)) => {
            if bind.occurs(x, t) {
                return false;
            }
            bind.bind(x, t.clone());
            true
        }
        (RTerm::Const(c1), RTerm::Const(c2)) => c1 == c2,
        (RTerm::App(f, fa), RTerm::App(g, ga)) => {
            f == g
                && fa.len() == ga.len()
                && fa.iter().zip(ga).all(|(x, y)| unify_inner(x, y, bind))
        }
        _ => false,
    }
}

/// `t` walked under `bind`. The recursion in [`unify_inner`] extends
/// `bind`, so a term reached through a binding is cloned out of it; `t`
/// itself is borrowed as it is.
fn walked<'t>(t: &'t RTerm, bind: &Bindings) -> Cow<'t, RTerm> {
    match t {
        RTerm::Var(v) if bind.lookup(*v).is_some() => Cow::Owned(bind.walk(t).clone()),
        _ => Cow::Borrowed(t),
    }
}

/// Unifies two atoms (same predicate, same arity, arguments pairwise).
pub fn unify_atoms(a: &crate::rterm::RAtom, b: &crate::rterm::RAtom, bind: &mut Bindings) -> bool {
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return false;
    }
    let cp = bind.checkpoint();
    for (x, y) in a.args.iter().zip(&b.args) {
        if !unify_inner(x, y, bind) {
            bind.rollback(cp);
            return false;
        }
    }
    true
}

/// Computes the most general unifier as an explicit map for callers that
/// want a substitution value rather than a mutated store. Returns `None`
/// on failure.
pub fn mgu(a: &RTerm, b: &RTerm) -> Option<HashMap<VarId, RTerm>> {
    let mut bind = Bindings::new();
    if !unify(a, b, &mut bind) {
        return None;
    }
    let mut vars = Vec::new();
    a.collect_vars(&mut vars);
    b.collect_vars(&mut vars);
    let mut out = HashMap::new();
    for v in vars {
        let r = bind.resolve(&RTerm::Var(v));
        if r != RTerm::Var(v) {
            out.insert(v, r);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clogic_core::symbol::sym;
    use clogic_core::term::Const;

    fn c(name: &str) -> RTerm {
        RTerm::Const(Const::Sym(sym(name)))
    }

    fn f(name: &str, args: Vec<RTerm>) -> RTerm {
        RTerm::App(sym(name), args)
    }

    #[test]
    fn unify_var_with_const() {
        let mut b = Bindings::new();
        assert!(unify(&RTerm::Var(0), &c("a"), &mut b));
        assert_eq!(b.resolve(&RTerm::Var(0)), c("a"));
    }

    #[test]
    fn unify_symmetric_failure_leaves_store_clean() {
        let mut b = Bindings::new();
        // f(X, a) with f(b, X) fails (X=b then a≠b) and must roll back.
        let t1 = f("f", vec![RTerm::Var(0), c("a")]);
        let t2 = f("f", vec![c("b"), RTerm::Var(0)]);
        assert!(!unify(&t1, &t2, &mut b));
        assert_eq!(b.lookup(0), None);
    }

    #[test]
    fn unify_chains() {
        let mut b = Bindings::new();
        assert!(unify(&RTerm::Var(0), &RTerm::Var(1), &mut b));
        assert!(unify(&RTerm::Var(1), &c("a"), &mut b));
        assert_eq!(b.resolve(&RTerm::Var(0)), c("a"));
    }

    #[test]
    fn occurs_check_rejects_cyclic() {
        let mut b = Bindings::new();
        let t = f("f", vec![RTerm::Var(0)]);
        assert!(!unify(&RTerm::Var(0), &t, &mut b));
    }

    #[test]
    fn unify_compound() {
        let mut b = Bindings::new();
        let t1 = f("id", vec![RTerm::Var(0), c("b")]);
        let t2 = f("id", vec![c("a"), RTerm::Var(1)]);
        assert!(unify(&t1, &t2, &mut b));
        assert_eq!(b.resolve(&t1), f("id", vec![c("a"), c("b")]));
        assert_eq!(b.resolve(&t2), f("id", vec![c("a"), c("b")]));
    }

    #[test]
    fn functor_and_arity_mismatch() {
        let mut b = Bindings::new();
        assert!(!unify(&f("f", vec![c("a")]), &f("g", vec![c("a")]), &mut b));
        assert!(!unify(
            &f("f", vec![c("a")]),
            &f("f", vec![c("a"), c("b")]),
            &mut b
        ));
        assert!(!unify(&c("a"), &f("f", vec![c("a")]), &mut b));
    }

    #[test]
    fn checkpoint_rollback() {
        let mut b = Bindings::new();
        let cp = b.checkpoint();
        b.bind(3, c("x"));
        b.bind(5, c("y"));
        assert!(b.lookup(3).is_some());
        b.rollback(cp);
        assert!(b.lookup(3).is_none());
        assert!(b.lookup(5).is_none());
    }

    #[test]
    fn mgu_as_map() {
        let t1 = f("f", vec![RTerm::Var(0), c("b")]);
        let t2 = f("f", vec![c("a"), RTerm::Var(1)]);
        let m = mgu(&t1, &t2).unwrap();
        assert_eq!(m.get(&0), Some(&c("a")));
        assert_eq!(m.get(&1), Some(&c("b")));
        assert!(mgu(&c("a"), &c("b")).is_none());
    }

    #[test]
    fn mgu_is_idempotent() {
        // applying the mgu twice equals applying it once
        let t1 = f("f", vec![RTerm::Var(0), RTerm::Var(0)]);
        let t2 = f("f", vec![RTerm::Var(1), c("k")]);
        let mut b = Bindings::new();
        assert!(unify(&t1, &t2, &mut b));
        let once = b.resolve(&t1);
        let twice = b.resolve(&once);
        assert_eq!(once, twice);
        assert!(once.is_ground());
    }

    #[test]
    fn unify_atoms_checks_predicate() {
        use crate::rterm::RAtom;
        let mut b = Bindings::new();
        let a1 = RAtom {
            pred: sym("p"),
            args: vec![RTerm::Var(0)],
        };
        let a2 = RAtom {
            pred: sym("q"),
            args: vec![c("a")],
        };
        assert!(!unify_atoms(&a1, &a2, &mut b));
        let a3 = RAtom {
            pred: sym("p"),
            args: vec![c("a")],
        };
        assert!(unify_atoms(&a1, &a3, &mut b));
        assert_eq!(b.resolve(&RTerm::Var(0)), c("a"));
    }

    #[test]
    fn bind_count_tracks_operations() {
        let mut b = Bindings::new();
        unify(&RTerm::Var(0), &c("a"), &mut b);
        unify(&RTerm::Var(1), &c("b"), &mut b);
        assert_eq!(b.bind_count, 2);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use clogic_core::symbol::Symbol;
    use clogic_core::term::Const;
    use proptest::prelude::*;

    /// Random runtime terms over a small signature: variables 0..4,
    /// constants a/b/c and small ints, functors f/g of arity 1–2, depth ≤ 3.
    fn rterm() -> impl Strategy<Value = RTerm> {
        let leaf = prop_oneof![
            (0u32..4).prop_map(RTerm::Var),
            prop::sample::select(vec!["a", "b", "c"])
                .prop_map(|s| RTerm::Const(Const::Sym(Symbol::new(s)))),
            (0i64..3).prop_map(|i| RTerm::Const(Const::Int(i))),
        ];
        leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (prop::sample::select(vec!["f", "g"]), inner.clone())
                    .prop_map(|(f, t)| RTerm::App(Symbol::new(f), vec![t])),
                (prop::sample::select(vec!["f", "g"]), inner.clone(), inner)
                    .prop_map(|(f, t, u)| RTerm::App(Symbol::new(f), vec![t, u])),
            ]
        })
    }

    fn apply(bind: &Bindings, t: &RTerm) -> RTerm {
        bind.resolve(t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A successful unifier actually unifies: σ(a) == σ(b).
        #[test]
        fn unifier_unifies(a in rterm(), b in rterm()) {
            let mut bind = Bindings::new();
            if unify(&a, &b, &mut bind) {
                prop_assert_eq!(apply(&bind, &a), apply(&bind, &b));
            }
        }

        /// Unification success is symmetric, and failure leaves no bindings.
        #[test]
        fn unification_symmetry(a in rterm(), b in rterm()) {
            let mut b1 = Bindings::new();
            let mut b2 = Bindings::new();
            let r1 = unify(&a, &b, &mut b1);
            let r2 = unify(&b, &a, &mut b2);
            prop_assert_eq!(r1, r2);
            if !r1 {
                for v in 0..8 {
                    prop_assert!(b1.lookup(v).is_none());
                    prop_assert!(b2.lookup(v).is_none());
                }
            }
        }

        /// The computed substitution is idempotent: σ(σ(t)) == σ(t).
        #[test]
        fn substitution_idempotent(a in rterm(), b in rterm()) {
            let mut bind = Bindings::new();
            if unify(&a, &b, &mut bind) {
                let once = apply(&bind, &a);
                prop_assert_eq!(apply(&bind, &once), once.clone());
            }
        }

        /// Self-unification always succeeds without binding anything new
        /// (modulo variable self-aliasing).
        #[test]
        fn self_unification(a in rterm()) {
            let mut bind = Bindings::new();
            prop_assert!(unify(&a, &a, &mut bind));
            prop_assert_eq!(apply(&bind, &a), a.clone());
        }

        /// With the occurs check on, the unifier never produces a cyclic
        /// (infinite) substitution: resolving terminates and is ground-or-
        /// variable-headed everywhere (checked by a bounded walk).
        #[test]
        fn occurs_check_soundness(a in rterm(), b in rterm()) {
            let mut bind = Bindings::new();
            if unify(&a, &b, &mut bind) {
                // resolve() recursion would overflow on a cycle; a size
                // bound proxies for finiteness.
                let r = apply(&bind, &a);
                prop_assert!(r.size() < 10_000);
            }
        }

        /// Checkpoints fully undo everything after them.
        #[test]
        fn rollback_restores(a in rterm(), b in rterm(), c in rterm(), d in rterm()) {
            let mut bind = Bindings::new();
            let _ = unify(&a, &b, &mut bind);
            let snapshot: Vec<Option<RTerm>> =
                (0..8).map(|v| bind.lookup(v).cloned()).collect();
            let cp = bind.checkpoint();
            let _ = unify(&c, &d, &mut bind);
            bind.rollback(cp);
            for v in 0..8u32 {
                prop_assert_eq!(bind.lookup(v).cloned(), snapshot[v as usize].clone());
            }
        }

        /// mgu() agrees with unify() on success/failure.
        #[test]
        fn mgu_agrees_with_unify(a in rterm(), b in rterm()) {
            let mut bind = Bindings::new();
            let ok = unify(&a, &b, &mut bind);
            prop_assert_eq!(mgu(&a, &b).is_some(), ok);
        }
    }
}
