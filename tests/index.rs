//! Property and regression tests for the argument-pattern fact indices.
//!
//! Indexing is a pure evaluation-plan change: for any program and query,
//! every strategy must produce exactly the same answers with
//! [`IndexMode::Indexed`] (lazy hash indices on bound-position
//! projections) as with [`IndexMode::Scan`] (the exhaustive baseline).
//! The properties here drive that equivalence over the generated corpus —
//! including entity-creating (skolemized) rules and stratified negation —
//! and the unit tests pin the laziness/invalidation contract: indices
//! built during one evaluation are *extended*, never rebuilt and never
//! stale, when the fixpoint is resumed with a load delta at a later
//! epoch.

use clogic::core::program::Program;
use clogic::folog::IndexMode;
use clogic::obs::Obs;
use clogic::{Session, SessionOptions, Strategy};
use common::{corpus, Case, Features};
use proptest::prelude::*;

mod common;

// ---------- harness ----------

fn session_with(mode: IndexMode, p: &Program) -> Session {
    let mut opts = SessionOptions::default();
    opts.fixpoint.index_mode = mode;
    let mut s = Session::with_options(opts);
    s.load_program(p.clone());
    s
}

/// Indexed evaluation answers every query of `case` under each of
/// `strategies` exactly as scan evaluation does.
fn assert_indexed_equals_scan(case: &Case, strategies: &[Strategy]) {
    common::assert_answers(
        &mut session_with(IndexMode::Indexed, &case.program),
        &mut session_with(IndexMode::Scan, &case.program),
        strategies,
        &case.queries,
        "indexed against scan",
    );
}

// ---------- properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexed and scan evaluation agree, answer for answer, under every
    /// strategy — over programs with rules, including entity creation.
    #[test]
    fn indexed_equals_scan_across_strategies(case in corpus(Features::RULES)) {
        assert_indexed_equals_scan(&case, &Strategy::ALL);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same equivalence on a stratified program with one negated rule,
    /// for the strategies that support negation.
    #[test]
    fn indexed_equals_scan_under_negation(case in corpus(Features::TOP)) {
        assert_indexed_equals_scan(
            &case,
            &[
                Strategy::BottomUpSemiNaive,
                Strategy::BottomUpNaive,
                Strategy::Direct,
                Strategy::Sld,
            ],
        );
    }
}

// ---------- the laziness/invalidation contract ----------

/// A chain program over `link` facts with the §2.1 endpoint rules.
fn chain_program(from: usize, to: usize) -> Program {
    use clogic::parser::parse_program;
    let mut text = String::new();
    for i in from..to {
        text.push_str(&format!("node: n{i}[linkto => n{}].\n", i + 1));
    }
    text.push_str(
        "path: id(X, Y)[src => X, dest => Y] :- node: X[linkto => Y].\n\
         path: id(X, Z)[src => X, dest => Z] :- node: X[linkto => Y], \
         path: id(Y, Z)[src => Y, dest => Z].\n",
    );
    parse_program(&text).unwrap()
}

/// Resuming a semi-naive fixpoint with a load delta must *extend* the
/// indices built during the first evaluation — and the extended indices
/// must serve the new tuples, never a stale snapshot of the relation.
#[test]
fn delta_reuse_extends_indices_and_serves_fresh_tuples() {
    let obs = Obs::default();
    let mut opts = SessionOptions {
        obs: obs.clone(),
        ..SessionOptions::default()
    };
    opts.fixpoint.obs = obs.clone();
    let mut s = Session::with_options(opts);

    // Epoch 1: half the chain. The query builds pattern indices while
    // saturating the model.
    s.load_program(chain_program(0, 6));
    let first = s
        .query("path: P[src => n0, dest => D]", Strategy::BottomUpSemiNaive)
        .unwrap();
    assert!(first.complete);
    assert_eq!(first.rows.len(), 6);
    let mid = obs.metrics.snapshot();
    assert!(
        mid.counter("folog.index.builds").unwrap_or(0) > 0,
        "first evaluation builds indices"
    );

    // Epoch 2: the second half arrives. The fixpoint resumes from the
    // saturated model; the same query must see every new reachability
    // fact (a stale index would truncate the answer set at the old
    // relation length).
    s.load_program(chain_program(6, 12));
    let second = s
        .query("path: P[src => n0, dest => D]", Strategy::BottomUpSemiNaive)
        .unwrap();
    assert!(second.complete);
    assert_eq!(second.rows.len(), 12, "resumed run serves the new tuples");
    let end = obs.metrics.snapshot();
    assert!(
        end.counter("folog.index.extends").unwrap_or(0)
            > mid.counter("folog.index.extends").unwrap_or(0),
        "resumed evaluation extends the existing indices in place"
    );
}

/// Repeating a query against an unchanged epoch reuses the saturated
/// model *and* its indices: no new index builds on the second run.
#[test]
fn repeated_queries_reuse_built_indices() {
    let obs = Obs::default();
    let mut opts = SessionOptions {
        obs: obs.clone(),
        ..SessionOptions::default()
    };
    opts.fixpoint.obs = obs.clone();
    let mut s = Session::with_options(opts);
    s.load_program(chain_program(0, 8));

    let a = s
        .query("path: P[src => n0, dest => D]", Strategy::BottomUpSemiNaive)
        .unwrap();
    let builds_after_first = obs
        .metrics
        .snapshot()
        .counter("folog.index.builds")
        .unwrap_or(0);
    let b = s
        .query("path: P[src => n2, dest => D]", Strategy::BottomUpSemiNaive)
        .unwrap();
    assert_eq!(a.rows.len(), 8);
    assert_eq!(b.rows.len(), 6);
    let builds_after_second = obs
        .metrics
        .snapshot()
        .counter("folog.index.builds")
        .unwrap_or(0);
    assert_eq!(
        builds_after_first, builds_after_second,
        "second query answers from the already-indexed model"
    );
}

/// Scan mode really is scan mode: no index counters move.
#[test]
fn scan_mode_builds_nothing() {
    let obs = Obs::default();
    let mut opts = SessionOptions {
        obs: obs.clone(),
        ..SessionOptions::default()
    };
    opts.fixpoint.obs = obs.clone();
    opts.fixpoint.index_mode = IndexMode::Scan;
    let mut s = Session::with_options(opts);
    s.load_program(chain_program(0, 8));
    let r = s
        .query("path: P[src => n0, dest => D]", Strategy::BottomUpSemiNaive)
        .unwrap();
    assert_eq!(r.rows.len(), 8);
    let snap = obs.metrics.snapshot();
    for c in ["builds", "extends", "hits"] {
        assert_eq!(
            snap.counter(&format!("folog.index.{c}")).unwrap_or(0),
            0,
            "scan mode must not touch folog.index.{c}"
        );
    }
}
