//! The resource governor: every strategy degrades gracefully — partial
//! answers plus a structured report — instead of hanging or erroring when
//! a budget ceiling trips.

use clogic::session::{Session, SessionOptions, Strategy};
use folog::{Budget, TripKind};
use std::time::{Duration, Instant};

mod common;

/// A recursive entity-creating program: the head-only variable `X` is
/// skolemized to `sk1(Y)`, so the translated program derives
/// `t(a), t(sk1(a)), t(sk1(sk1(a))), …` — an infinite least model.
const DIVERGENT: &str = "t: a.\nt: X[next => Y] :- t: Y.";

#[test]
fn divergent_program_degrades_on_every_strategy() {
    for strategy in Strategy::ALL {
        let mut s = Session::with_options(SessionOptions {
            budget: Budget::with_deadline(Duration::from_millis(50)),
            ..SessionOptions::default()
        });
        s.load(DIVERGENT).unwrap();
        let start = Instant::now();
        let r = s
            .query("t: X", strategy)
            .unwrap_or_else(|e| panic!("{strategy:?} errored: {e}"));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{strategy:?} overran the deadline: {:?}",
            start.elapsed()
        );
        assert!(!r.complete, "{strategy:?} claimed completeness");
        assert!(
            !r.rows.is_empty(),
            "{strategy:?} returned no partial answers"
        );
        let d = r
            .degradation
            .unwrap_or_else(|| panic!("{strategy:?} missing degradation report"));
        // Which ceiling trips first is strategy-dependent: the deadline,
        // the guard's injected fact/answer cap, or (for Direct) the
        // variant loop check that independently tames this recursion.
        assert!(
            matches!(
                d.trip,
                TripKind::Deadline | TripKind::Facts | TripKind::Answers | TripKind::VariantLoop
            ),
            "{strategy:?} tripped unexpectedly: {:?}",
            d.trip
        );
        assert!(d.work > 0, "{strategy:?} reported no work");
        assert!(!d.detail.is_empty(), "{strategy:?} empty detail");
    }
}

#[test]
fn termination_guard_bounds_unbudgeted_queries() {
    // No explicit budget at all: the static guard must notice the skolem
    // recursion and inject its default deadline / fact cap, so the query
    // still terminates with partial answers.
    let mut s = Session::new();
    s.load(DIVERGENT).unwrap();
    let start = Instant::now();
    let r = s.query("t: X", Strategy::BottomUpSemiNaive).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "guard failed to bound the fixpoint: {:?}",
        start.elapsed()
    );
    assert!(!r.complete);
    assert!(!r.rows.is_empty());
    assert!(r.degradation.is_some());
}

#[test]
fn termination_guard_can_be_disabled() {
    // With the guard off, an explicit tiny fact cap still degrades
    // gracefully (the session's bounded fixpoint default), proving the
    // opt-out path goes through the same graceful machinery.
    let mut opts = SessionOptions {
        termination_guard: false,
        ..SessionOptions::default()
    };
    opts.fixpoint.max_facts = Some(50);
    let mut s = Session::with_options(opts);
    s.load(DIVERGENT).unwrap();
    let r = s.query("t: X", Strategy::BottomUpSemiNaive).unwrap();
    assert!(!r.complete);
    assert_eq!(r.degradation.unwrap().trip, TripKind::Facts);
}

#[test]
fn guard_leaves_terminating_programs_alone() {
    // A recursive but function-free program has a finite least model: the
    // guard must not flag it, and every strategy stays complete. (Direct
    // is excluded: its variant loop check independently reports
    // incompleteness on recursive type axioms.)
    let src = "edge: a[to => b].\nedge: b[to => c].\n\
               reach(X, Y) :- edge: X[to => Y].\n\
               reach(X, Z) :- edge: X[to => Y], reach(Y, Z).";
    let mut s = Session::new();
    s.load(src).unwrap();
    for strategy in [
        Strategy::Sld,
        Strategy::BottomUpNaive,
        Strategy::BottomUpSemiNaive,
        Strategy::Tabled,
        Strategy::Magic,
    ] {
        let r = common::evaluate(&mut s, "reach(a, Z)", strategy).unwrap();
        assert!(r.complete, "{strategy:?} incomplete");
        assert!(r.degradation.is_none(), "{strategy:?} degraded");
        assert_eq!(r.rows.len(), 2, "{strategy:?}");
    }
}

#[test]
fn cancel_token_stops_all_strategies() {
    // A pre-cancelled token: every strategy must return immediately with
    // a Cancelled degradation rather than evaluate anything.
    for strategy in Strategy::ALL {
        let token = folog::CancelToken::new();
        token.cancel();
        let mut s = Session::with_options(SessionOptions {
            budget: Budget::unlimited().cancel_token(token),
            ..SessionOptions::default()
        });
        s.load(DIVERGENT).unwrap();
        let start = Instant::now();
        let r = s.query("t: X", strategy).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1), "{strategy:?}");
        assert!(!r.complete, "{strategy:?}");
        assert_eq!(
            r.degradation.expect("report").trip,
            TripKind::Cancelled,
            "{strategy:?}"
        );
    }
}

mod no_panic_under_tight_budgets {
    use super::*;
    use clogic::session::Strategy;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn every_strategy_survives(
            deadline_us in 1u64..5_000,
            max_steps in 1u64..500,
            max_facts in 1usize..100,
        ) {
            // Arbitrary tight ceilings on a divergent program: every
            // strategy must return Ok — partial answers, never a panic or
            // a hard limit error.
            let budget = Budget {
                deadline: Some(Duration::from_micros(deadline_us)),
                max_steps: Some(max_steps),
                max_facts: Some(max_facts),
                max_memory_bytes: None,
                cancel: None,
            };
            for strategy in Strategy::ALL {
                let mut s = Session::with_options(SessionOptions {
                    budget: budget.clone(),
                    ..SessionOptions::default()
                });
                s.load(DIVERGENT).unwrap();
                let r = s.query("t: X", strategy);
                let r = r.unwrap_or_else(|e| panic!("{strategy:?} errored: {e}"));
                // Ceilings this tight can never exhaust an infinite model.
                prop_assert!(!r.complete, "{:?} claimed completeness", strategy);
                prop_assert!(r.degradation.is_some(), "{:?} missing report", strategy);
            }
        }
    }
}
