//! Evaluable built-in predicates: arithmetic `is/2`, arithmetic
//! comparisons, and (dis)equality.
//!
//! The paper's path example uses `L is LO + 1`; both evaluation routes
//! (translated first-order and direct complex-object) need the same
//! built-ins, so they live here with two entry points: one over runtime
//! terms with trailed bindings (top-down), one over patterns with a
//! ground environment (bottom-up).

use crate::facts::{instantiate, Env};
use crate::ground::TermStore;
use crate::rterm::{RAtom, RTerm};
use crate::unify::{unify, Bindings};
use clogic_core::symbol::Symbol;
use clogic_core::term::Const;
use std::fmt;
use std::sync::OnceLock;

/// Errors raised by built-in evaluation (Prolog would throw; the engines
/// surface these to the caller).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuiltinError {
    /// An arithmetic argument was not (bound to) an evaluable expression.
    NotEvaluable(String),
    /// An arithmetic argument was *bound*, but to a non-numeric term.
    /// Engines treat this as failure of the goal rather than an error:
    /// join planning may schedule a typing atom as the generator for an
    /// arithmetic operand, in which case non-numeric candidates are
    /// ordinary mismatches.
    NotNumeric(String),
    /// Division or modulo by zero.
    DivisionByZero,
    /// A built-in was called with the wrong number of arguments.
    Arity(Symbol, usize),
    /// A negated goal was not ground when selected (unsafe query/rule).
    Floundered(String),
}

impl fmt::Display for BuiltinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuiltinError::NotEvaluable(t) => write!(f, "not an evaluable arithmetic term: {t}"),
            BuiltinError::NotNumeric(t) => write!(f, "not a numeric term: {t}"),
            BuiltinError::DivisionByZero => write!(f, "division by zero"),
            BuiltinError::Arity(p, n) => write!(f, "built-in {p} called with {n} arguments"),
            BuiltinError::Floundered(g) => write!(f, "negated goal not ground: {g}"),
        }
    }
}

impl std::error::Error for BuiltinError {}

/// The built-in predicates this module evaluates, interned once.
pub(crate) fn builtin_table() -> &'static [Symbol; 11] {
    static TABLE: OnceLock<[Symbol; 11]> = OnceLock::new();
    TABLE.get_or_init(|| {
        [
            "is", "<", ">", "=<", ">=", "=:=", "=\\=", "=", "\\=", "==", "\\==",
        ]
        .map(Symbol::new)
    })
}

/// Names of the built-in predicates this module evaluates.
pub fn builtin_symbols() -> impl Iterator<Item = Symbol> {
    builtin_table().iter().copied()
}

/// Whether `pred` is one of the built-ins evaluated here (by symbol id).
pub fn is_builtin(pred: Symbol) -> bool {
    builtin_table().contains(&pred)
}

/// Whether a built-in goal can run once the arguments that `bound`
/// accepts are bound: `is/2` once its right side is, `=` once either
/// side is, any other once all its arguments are. `==` waits for both
/// sides, because [`solve`] reads it as an identity check.
pub(crate) fn ready<T>(pred: Symbol, args: &[T], bound: impl Fn(&T) -> bool) -> bool {
    match (pred.as_str(), args) {
        ("is", [_, rhs]) => bound(rhs),
        ("=", [lhs, rhs]) => bound(lhs) || bound(rhs),
        _ => args.iter().all(bound),
    }
}

fn arith_binop(f: Symbol, a: i64, b: i64) -> Result<i64, BuiltinError> {
    match f.as_str() {
        "+" => Ok(a.wrapping_add(b)),
        "-" => Ok(a.wrapping_sub(b)),
        "*" => Ok(a.wrapping_mul(b)),
        "//" | "/" => {
            if b == 0 {
                Err(BuiltinError::DivisionByZero)
            } else {
                Ok(a.wrapping_div(b))
            }
        }
        "mod" => {
            if b == 0 {
                Err(BuiltinError::DivisionByZero)
            } else {
                Ok(a.rem_euclid(b))
            }
        }
        "min" => Ok(a.min(b)),
        "max" => Ok(a.max(b)),
        other => Err(BuiltinError::NotEvaluable(format!("{other}/2"))),
    }
}

/// Evaluates an arithmetic expression over runtime terms under bindings.
pub fn eval_int(t: &RTerm, bind: &Bindings) -> Result<i64, BuiltinError> {
    let w = bind.walk(t).clone();
    match &w {
        RTerm::Const(Const::Int(i)) => Ok(*i),
        RTerm::App(f, args) => match (f.as_str(), args.len()) {
            ("-", 1) => Ok(-eval_int(&args[0], bind)?),
            ("abs", 1) => Ok(eval_int(&args[0], bind)?.abs()),
            (_, 2) => {
                let a = eval_int(&args[0], bind)?;
                let b = eval_int(&args[1], bind)?;
                arith_binop(*f, a, b)
            }
            _ => Err(BuiltinError::NotNumeric(w.to_string())),
        },
        RTerm::Const(c) => Err(BuiltinError::NotNumeric(c.to_string())),
        other => Err(BuiltinError::NotEvaluable(other.to_string())),
    }
}

/// Evaluates an arithmetic expression over a pattern with a ground env.
pub fn eval_int_pattern(t: &RTerm, env: &Env, store: &TermStore) -> Result<i64, BuiltinError> {
    match t {
        RTerm::Var(v) => {
            let id = env
                .get(*v as usize)
                .copied()
                .flatten()
                .ok_or_else(|| BuiltinError::NotEvaluable(t.to_string()))?;
            store
                .as_int(id)
                .ok_or_else(|| BuiltinError::NotNumeric(store.display(id)))
        }
        RTerm::Const(Const::Int(i)) => Ok(*i),
        RTerm::App(f, args) => match (f.as_str(), args.len()) {
            ("-", 1) => Ok(-eval_int_pattern(&args[0], env, store)?),
            ("abs", 1) => Ok(eval_int_pattern(&args[0], env, store)?.abs()),
            (_, 2) => {
                let a = eval_int_pattern(&args[0], env, store)?;
                let b = eval_int_pattern(&args[1], env, store)?;
                arith_binop(*f, a, b)
            }
            _ => Err(BuiltinError::NotNumeric(t.to_string())),
        },
        RTerm::Const(c) => Err(BuiltinError::NotNumeric(c.to_string())),
    }
}

/// Lifts an arithmetic result into goal semantics: a bound-but-non-numeric
/// operand fails the goal (`Ok(None)`); an unbound operand is an error.
fn numeric(r: Result<i64, BuiltinError>) -> Result<Option<i64>, BuiltinError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(BuiltinError::NotNumeric(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

fn compare(op: &str, a: i64, b: i64) -> bool {
    match op {
        "<" => a < b,
        ">" => a > b,
        "=<" => a <= b,
        ">=" => a >= b,
        "=:=" => a == b,
        "=\\=" => a != b,
        _ => unreachable!("not a comparison: {op}"),
    }
}

/// Solves a built-in goal in the top-down engine. On success the bindings
/// may be extended; on failure they are unchanged.
pub fn solve(goal: &RAtom, bind: &mut Bindings) -> Result<bool, BuiltinError> {
    let name = goal.pred.as_str();
    match (name, goal.args.len()) {
        ("is", 2) => {
            let Some(v) = numeric(eval_int(&goal.args[1], bind))? else {
                return Ok(false);
            };
            Ok(unify(&goal.args[0], &RTerm::Const(Const::Int(v)), bind))
        }
        ("<" | ">" | "=<" | ">=" | "=:=" | "=\\=", 2) => {
            let Some(a) = numeric(eval_int(&goal.args[0], bind))? else {
                return Ok(false);
            };
            let Some(b) = numeric(eval_int(&goal.args[1], bind))? else {
                return Ok(false);
            };
            Ok(compare(name, a, b))
        }
        ("=", 2) => Ok(unify(&goal.args[0], &goal.args[1], bind)),
        ("\\=", 2) => {
            let cp = bind.checkpoint();
            let unifies = unify(&goal.args[0], &goal.args[1], bind);
            bind.rollback(cp);
            Ok(!unifies)
        }
        ("==", 2) => Ok(bind.resolve(&goal.args[0]) == bind.resolve(&goal.args[1])),
        ("\\==", 2) => Ok(bind.resolve(&goal.args[0]) != bind.resolve(&goal.args[1])),
        _ => Err(BuiltinError::Arity(goal.pred, goal.args.len())),
    }
}

/// Solves a built-in goal in the bottom-up engine: `env` holds the
/// bindings accumulated by the join so far. On success the env may gain a
/// binding (for `is/2` and `=` with one unbound side); `trail` records it.
pub fn solve_pattern(
    goal: &RAtom,
    env: &mut Env,
    trail: &mut Vec<crate::rterm::VarId>,
    store: &mut TermStore,
) -> Result<bool, BuiltinError> {
    let name = goal.pred.as_str();
    match (name, goal.args.len()) {
        ("is", 2) => {
            let Some(v) = numeric(eval_int_pattern(&goal.args[1], env, store))? else {
                return Ok(false);
            };
            let id = store.intern_const(Const::Int(v));
            Ok(crate::facts::match_term(
                &goal.args[0],
                id,
                store,
                env,
                trail,
            ))
        }
        ("<" | ">" | "=<" | ">=" | "=:=" | "=\\=", 2) => {
            let Some(a) = numeric(eval_int_pattern(&goal.args[0], env, store))? else {
                return Ok(false);
            };
            let Some(b) = numeric(eval_int_pattern(&goal.args[1], env, store))? else {
                return Ok(false);
            };
            Ok(compare(name, a, b))
        }
        ("=" | "==", 2) => {
            // One side must be fully instantiable.
            if let Some(id) = instantiate(&goal.args[0], env, store) {
                Ok(crate::facts::match_term(
                    &goal.args[1],
                    id,
                    store,
                    env,
                    trail,
                ))
            } else if let Some(id) = instantiate(&goal.args[1], env, store) {
                Ok(crate::facts::match_term(
                    &goal.args[0],
                    id,
                    store,
                    env,
                    trail,
                ))
            } else {
                Err(BuiltinError::NotEvaluable(goal.to_string()))
            }
        }
        ("\\=" | "\\==", 2) => {
            let a = instantiate(&goal.args[0], env, store)
                .ok_or_else(|| BuiltinError::NotEvaluable(goal.to_string()))?;
            let b = instantiate(&goal.args[1], env, store)
                .ok_or_else(|| BuiltinError::NotEvaluable(goal.to_string()))?;
            Ok(a != b)
        }
        _ => Err(BuiltinError::Arity(goal.pred, goal.args.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clogic_core::symbol::sym;

    fn int(i: i64) -> RTerm {
        RTerm::Const(Const::Int(i))
    }

    fn plus(a: RTerm, b: RTerm) -> RTerm {
        RTerm::App(sym("+"), vec![a, b])
    }

    #[test]
    fn eval_arith_expressions() {
        let b = Bindings::new();
        assert_eq!(eval_int(&plus(int(1), int(2)), &b), Ok(3));
        let nested = RTerm::App(sym("*"), vec![plus(int(1), int(2)), int(4)]);
        assert_eq!(eval_int(&nested, &b), Ok(12));
        let neg = RTerm::App(sym("-"), vec![int(5)]);
        assert_eq!(eval_int(&neg, &b), Ok(-5));
        assert_eq!(
            eval_int(&RTerm::App(sym("mod"), vec![int(7), int(3)]), &b),
            Ok(1)
        );
    }

    #[test]
    fn eval_arith_through_bindings() {
        let mut b = Bindings::new();
        b.bind(0, int(41));
        assert_eq!(eval_int(&plus(RTerm::Var(0), int(1)), &b), Ok(42));
    }

    #[test]
    fn eval_errors() {
        let b = Bindings::new();
        // unbound variable: a genuine error
        assert!(matches!(
            eval_int(&RTerm::Var(0), &b),
            Err(BuiltinError::NotEvaluable(_))
        ));
        assert_eq!(
            eval_int(&RTerm::App(sym("/"), vec![int(1), int(0)]), &b),
            Err(BuiltinError::DivisionByZero)
        );
        // bound non-numeric: classified separately so engines can treat
        // it as goal failure (join planning may generate such bindings)
        assert!(matches!(
            eval_int(&RTerm::Const(Const::Sym(sym("a"))), &b),
            Err(BuiltinError::NotNumeric(_))
        ));
        let mut b2 = Bindings::new();
        let goal = RAtom {
            pred: sym("is"),
            args: vec![RTerm::Var(0), RTerm::Const(Const::Sym(sym("a")))],
        };
        assert_eq!(solve(&goal, &mut b2), Ok(false));
    }

    #[test]
    fn is_binds_result() {
        let mut b = Bindings::new();
        let goal = RAtom {
            pred: sym("is"),
            args: vec![RTerm::Var(0), plus(int(2), int(3))],
        };
        assert_eq!(solve(&goal, &mut b), Ok(true));
        assert_eq!(b.resolve(&RTerm::Var(0)), int(5));
        // and checks when already bound
        let goal2 = RAtom {
            pred: sym("is"),
            args: vec![int(6), plus(int(2), int(3))],
        };
        assert_eq!(solve(&goal2, &mut b), Ok(false));
    }

    #[test]
    fn comparisons() {
        let mut b = Bindings::new();
        let mk = |p: &str, x: i64, y: i64| RAtom {
            pred: sym(p),
            args: vec![int(x), int(y)],
        };
        assert_eq!(solve(&mk("<", 1, 2), &mut b), Ok(true));
        assert_eq!(solve(&mk("<", 2, 2), &mut b), Ok(false));
        assert_eq!(solve(&mk("=<", 2, 2), &mut b), Ok(true));
        assert_eq!(solve(&mk(">", 3, 2), &mut b), Ok(true));
        assert_eq!(solve(&mk(">=", 3, 4), &mut b), Ok(false));
        assert_eq!(solve(&mk("=:=", 4, 4), &mut b), Ok(true));
        assert_eq!(solve(&mk("=\\=", 4, 4), &mut b), Ok(false));
    }

    #[test]
    fn unification_builtins() {
        let mut b = Bindings::new();
        let eq = RAtom {
            pred: sym("="),
            args: vec![RTerm::Var(0), int(7)],
        };
        assert_eq!(solve(&eq, &mut b), Ok(true));
        assert_eq!(b.resolve(&RTerm::Var(0)), int(7));
        let neq = RAtom {
            pred: sym("\\="),
            args: vec![RTerm::Var(1), int(7)],
        };
        // var unifies with anything ⇒ \= fails, and leaves no binding
        assert_eq!(solve(&neq, &mut b), Ok(false));
        assert_eq!(b.lookup(1), None);
        let neq2 = RAtom {
            pred: sym("\\="),
            args: vec![int(6), int(7)],
        };
        assert_eq!(solve(&neq2, &mut b), Ok(true));
    }

    #[test]
    fn structural_equality_builtins() {
        let mut b = Bindings::new();
        let a1 = RAtom {
            pred: sym("=="),
            args: vec![RTerm::Var(0), RTerm::Var(0)],
        };
        assert_eq!(solve(&a1, &mut b), Ok(true));
        let a2 = RAtom {
            pred: sym("=="),
            args: vec![RTerm::Var(0), RTerm::Var(1)],
        };
        assert_eq!(solve(&a2, &mut b), Ok(false));
        let a3 = RAtom {
            pred: sym("\\=="),
            args: vec![RTerm::Var(0), RTerm::Var(1)],
        };
        assert_eq!(solve(&a3, &mut b), Ok(true));
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let mut b = Bindings::new();
        let bad = RAtom {
            pred: sym("is"),
            args: vec![int(1)],
        };
        assert!(matches!(
            solve(&bad, &mut b),
            Err(BuiltinError::Arity(_, 1))
        ));
    }

    #[test]
    fn pattern_is_binds_env() {
        let mut store = TermStore::new();
        let mut env: Env = vec![None; 2];
        let mut trail = Vec::new();
        let l0 = store.intern_const(Const::Int(4));
        env[1] = Some(l0);
        // _G0 is _G1 + 1
        let goal = RAtom {
            pred: sym("is"),
            args: vec![RTerm::Var(0), plus(RTerm::Var(1), int(1))],
        };
        assert_eq!(
            solve_pattern(&goal, &mut env, &mut trail, &mut store),
            Ok(true)
        );
        let bound = env[0].unwrap();
        assert_eq!(store.as_int(bound), Some(5));
    }

    #[test]
    fn pattern_comparison_and_errors() {
        let mut store = TermStore::new();
        let mut env: Env = vec![None];
        let mut trail = Vec::new();
        let lt = RAtom {
            pred: sym("<"),
            args: vec![int(1), int(2)],
        };
        assert_eq!(
            solve_pattern(&lt, &mut env, &mut trail, &mut store),
            Ok(true)
        );
        // unbound variable in arithmetic is an error
        let bad = RAtom {
            pred: sym("<"),
            args: vec![RTerm::Var(0), int(2)],
        };
        assert!(solve_pattern(&bad, &mut env, &mut trail, &mut store).is_err());
    }

    #[test]
    fn pattern_equality() {
        let mut store = TermStore::new();
        let a = store.intern_const(Const::Sym(sym("a")));
        let mut env: Env = vec![None, Some(a)];
        let mut trail = Vec::new();
        // _G0 = _G1
        let eq = RAtom {
            pred: sym("="),
            args: vec![RTerm::Var(0), RTerm::Var(1)],
        };
        assert_eq!(
            solve_pattern(&eq, &mut env, &mut trail, &mut store),
            Ok(true)
        );
        assert_eq!(env[0], Some(a));
        let ne = RAtom {
            pred: sym("\\="),
            args: vec![RTerm::Var(0), RTerm::Var(1)],
        };
        assert_eq!(
            solve_pattern(&ne, &mut env, &mut trail, &mut store),
            Ok(false)
        );
    }

    #[test]
    fn builtin_symbol_set() {
        assert!(is_builtin(sym("is")));
        assert!(is_builtin(sym("=<")));
        assert!(!is_builtin(sym("edge")));
    }
}
