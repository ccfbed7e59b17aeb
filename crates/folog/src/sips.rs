//! Sideways information passing: the order in which the goals of a
//! conjunction hand their bindings on.
//!
//! The goal-directed engines pass bindings along a conjunction from one
//! goal to the next. Magic sets adorn each call with the arguments bound
//! by the goals before it, and tabling tables each call under the
//! bindings it is made with. Theorem 1's translation puts an oid's type
//! atom first (`path(P), object(c0n0), src(P, c0n0), …`), so taken left
//! to right the first call has every argument free and no binding
//! reaches a rule. [`bound_first`] moves the goals that arrive most bound
//! to the front instead.

use crate::builtins::ready;
use clogic_core::fol::{FoAtom, FoTerm};
use clogic_core::symbol::Symbol;
use std::cmp::Reverse;
use std::collections::HashSet;

/// Orders the conjunction `goals` bound-first, given the variables
/// `bound` on entry.
///
/// Greedily, among the goals that are ready, it takes the one with the
/// fewest unbound variables, then the most fully bound arguments (the
/// positions an adornment marks `b`), then the first in source order,
/// and counts its variables as bound from then on. A relational goal is
/// always ready. A built-in waits until it can run (see
/// [`crate::builtins`]'s readiness rule, which the bottom-up planner
/// shares). Built-ins that never become ready follow in source order.
pub fn bound_first<'g>(
    goals: &'g [FoAtom],
    bound: &HashSet<Symbol>,
    is_builtin: impl Fn(Symbol) -> bool,
) -> Vec<&'g FoAtom> {
    let mut bound = bound.clone();
    let mut remaining: Vec<&FoAtom> = goals.iter().collect();
    let mut order = Vec::with_capacity(goals.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                !is_builtin(g.pred) || ready(g.pred, &g.args, |a| term_bound(a, &bound))
            })
            .min_by_key(|(_, g)| {
                let mut unbound = Vec::new();
                for a in &g.args {
                    unbound_vars(a, &bound, &mut unbound);
                }
                unbound.sort_unstable_by_key(|v| v.index());
                unbound.dedup();
                let bound_args = g.args.iter().filter(|a| term_bound(a, &bound)).count();
                (unbound.len(), Reverse(bound_args))
            })
            .map(|(i, _)| i);
        let Some(i) = best else {
            order.append(&mut remaining);
            break;
        };
        let g = remaining.remove(i);
        for a in &g.args {
            add_vars(a, &mut bound);
        }
        order.push(g);
    }
    order
}

/// Whether every variable of `t` is in `bound`.
pub(crate) fn term_bound(t: &FoTerm, bound: &HashSet<Symbol>) -> bool {
    match t {
        FoTerm::Var(v) => bound.contains(v),
        FoTerm::Const(_) => true,
        FoTerm::App(_, args) => args.iter().all(|a| term_bound(a, bound)),
    }
}

/// Adds the variables of `t` to `into`.
pub(crate) fn add_vars(t: &FoTerm, into: &mut HashSet<Symbol>) {
    match t {
        FoTerm::Var(v) => {
            into.insert(*v);
        }
        FoTerm::Const(_) => {}
        FoTerm::App(_, args) => args.iter().for_each(|a| add_vars(a, into)),
    }
}

fn unbound_vars(t: &FoTerm, bound: &HashSet<Symbol>, out: &mut Vec<Symbol>) {
    match t {
        FoTerm::Var(v) if !bound.contains(v) => out.push(*v),
        FoTerm::Var(_) | FoTerm::Const(_) => {}
        FoTerm::App(_, args) => args.iter().for_each(|a| unbound_vars(a, bound, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::is_builtin;
    use clogic_core::symbol::sym;

    fn atom(p: &str, args: Vec<FoTerm>) -> FoAtom {
        FoAtom::new(p, args)
    }
    fn c(s: &str) -> FoTerm {
        FoTerm::constant(s)
    }
    fn v(s: &str) -> FoTerm {
        FoTerm::var(s)
    }
    fn shown(order: Vec<&FoAtom>) -> Vec<String> {
        order.into_iter().map(|g| g.to_string()).collect()
    }

    #[test]
    fn translated_path_query_starts_from_its_constant() {
        let goals = vec![
            atom("path", vec![v("P")]),
            atom("object", vec![c("c0n0")]),
            atom("src", vec![v("P"), c("c0n0")]),
            atom("object", vec![v("D")]),
            atom("dest", vec![v("P"), v("D")]),
        ];
        assert_eq!(
            shown(bound_first(&goals, &HashSet::new(), is_builtin)),
            [
                "object(c0n0)",
                "src(P, c0n0)",
                "path(P)",
                "dest(P, D)",
                "object(D)"
            ]
        );
    }

    #[test]
    fn entry_bindings_steer_the_order() {
        // The recursive §2.1 body, called with `X` bound.
        let id_zy = FoTerm::App(sym("id"), vec![v("Z"), v("Y")]);
        let goals = vec![
            atom("node", vec![v("X")]),
            atom("linkto", vec![v("X"), v("Z")]),
            atom("path", vec![id_zy.clone()]),
            atom("src", vec![id_zy.clone(), v("Z")]),
            atom("dest", vec![id_zy, v("Y")]),
        ];
        let bound: HashSet<Symbol> = [sym("X")].into_iter().collect();
        assert_eq!(
            shown(bound_first(&goals, &bound, is_builtin)),
            [
                "node(X)",
                "linkto(X, Z)",
                "src(id(Z, Y), Z)",
                "dest(id(Z, Y), Y)",
                "path(id(Z, Y))"
            ]
        );
    }

    #[test]
    fn built_ins_wait_until_ready() {
        let plus = FoTerm::App(sym("+"), vec![v("LO"), FoTerm::int(1)]);
        let goals = vec![
            atom("is", vec![v("L"), plus]),
            atom("<", vec![v("L"), v("M")]),
            atom("len", vec![v("X"), v("LO")]),
            atom("=", vec![v("M"), FoTerm::int(9)]),
            atom(">", vec![v("Q"), FoTerm::int(0)]),
        ];
        let bound: HashSet<Symbol> = [sym("X")].into_iter().collect();
        assert_eq!(
            shown(bound_first(&goals, &bound, is_builtin)),
            [
                "len(X, LO)",
                "is(L, +(LO, 1))",
                "=(M, 9)",
                "<(L, M)",
                ">(Q, 0)"
            ]
        );
    }
}
