//! Retraction: incremental deletion end-to-end.
//!
//! The contract under test, at every layer:
//!
//! * **Semantics** — `retract ∘ assert ≡ never-asserted`: after loading
//!   a chunk and retracting exactly its (post-skolemization) clauses,
//!   every query under every strategy answers as if the chunk had never
//!   been loaded. Property-tested over generated programs, including
//!   entity-creating rules whose skolem identities must stay pinned.
//! * **Incrementality** — cached saturated models are repaired by the
//!   DRed delete-rederive pass, not recomputed (observed through the
//!   `session.retract.models_patched` counter).
//! * **Durability** — retractions are WAL records: interleaved
//!   assert/retract histories recover identically when crashed after
//!   every prefix, and a chaos sweep kills every single I/O operation
//!   of the whole history under every fault kind.
//! * **Serving** — a reader that pinned a pre-retraction
//!   [`SessionSnapshot`] keeps answering from it untorn while the
//!   session moves on.

use clogic::folog::Budget;
use clogic::obs::Obs;
use clogic::session::{Session, SessionError, SessionOptions, Strategy};
use clogic::store::{ChaosStorage, Fault, MemStorage};
use common::{corpus, opts, Features, QUERIES};
use proptest::prelude::*;

mod common;

/// One durably logged mutation, as the histories below drive it.
#[derive(Clone, Debug)]
enum Op {
    Load(String),
    Retract(String),
}

/// A fixed interleaved history: the loads of the shared four-chunk
/// program, with retractions of facts *and* a rule woven between them.
/// Every op is exactly one epoch.
fn standard_ops() -> Vec<Op> {
    let mut loads = common::chunks().into_iter().map(Op::Load);
    let mut ops: Vec<Op> = loads.next().into_iter().collect();
    let retracted = ["t1: c3.", "t1: c1[l1 => c2].", "p(X) :- t1: X[l1 => Y]."];
    for (load, clause) in loads.zip(retracted) {
        ops.push(load);
        ops.push(Op::Retract(clause.to_string()));
    }
    ops
}

fn apply(s: &mut Session, op: &Op) -> Result<(), SessionError> {
    match op {
        Op::Load(src) => s.load(src),
        Op::Retract(src) => s.retract(src),
    }
}

/// An uninterrupted, purely in-memory session applying the same history.
fn baseline(ops: &[Op]) -> Session {
    let mut s = common::baseline(&[]);
    for op in ops {
        apply(&mut s, op).expect("baseline op");
    }
    s
}

// ---------- semantics ----------

#[test]
fn retracted_fact_is_gone_across_all_strategies() {
    let mut s = Session::new();
    s.load("t1: c1[l1 => c2].\nt1: c3.\np(X) :- t1: X[l1 => Y].")
        .unwrap();
    for strategy in Strategy::ALL {
        assert!(common::evaluate(&mut s, "p(c1)", strategy).unwrap().holds(), "{strategy:?}");
    }
    s.retract("t1: c1[l1 => c2].").unwrap();
    for strategy in Strategy::ALL {
        assert!(
            !common::evaluate(&mut s, "p(c1)", strategy).unwrap().holds(),
            "{strategy:?} still derives from the retracted fact"
        );
        assert!(
            common::evaluate(&mut s, "t1: c3", strategy).unwrap().holds(),
            "{strategy:?} lost a surviving fact"
        );
    }
}

#[test]
fn retract_rule_removes_its_consequences() {
    let mut s = Session::new();
    s.load("t1: c1.\nt2: X :- t1: X.").unwrap();
    assert!(s.query("t2: c1", Strategy::Sld).unwrap().holds());
    s.retract("t2: X :- t1: X.").unwrap();
    for strategy in Strategy::ALL {
        assert!(!common::evaluate(&mut s, "t2: c1", strategy).unwrap().holds(), "{strategy:?}");
        assert!(common::evaluate(&mut s, "t1: c1", strategy).unwrap().holds(), "{strategy:?}");
    }
}

#[test]
fn retract_is_all_or_nothing() {
    let mut s = Session::new();
    s.load("t1: c1.\nt1: c2.").unwrap();
    let epoch = s.epoch();
    // Second clause matches nothing → the whole retract must fail and
    // leave both loaded clauses (and the epoch) in place.
    let err = s.retract("t1: c1.\nt1: c9.").unwrap_err();
    assert!(
        matches!(err, SessionError::NoSuchClause(_)),
        "want NoSuchClause, got {err}"
    );
    assert_eq!(s.epoch(), epoch);
    assert!(s.query("t1: c1", Strategy::Direct).unwrap().holds());
}

#[test]
fn retract_rejects_subtype_declarations_and_queries() {
    let mut s = Session::new();
    s.load("t1 < t2.\nt1: c1.").unwrap();
    assert!(matches!(
        s.retract("t1 < t2."),
        Err(SessionError::Unsupported(_))
    ));
    assert!(s.retract("?- t1: X.").is_err());
}

/// A duplicated assertion survives one retraction of its text: the
/// clause multiset loses one copy, and the translated fact (emitted
/// once, deduplicated) is unchanged.
#[test]
fn retracting_one_of_two_identical_assertions_keeps_the_fact() {
    let mut s = Session::new();
    s.load("t1: c1.").unwrap();
    s.load("t1: c1.").unwrap();
    s.retract("t1: c1.").unwrap();
    for strategy in Strategy::ALL {
        assert!(common::evaluate(&mut s, "t1: c1", strategy).unwrap().holds(), "{strategy:?}");
    }
    s.retract("t1: c1.").unwrap();
    for strategy in Strategy::ALL {
        assert!(!common::evaluate(&mut s, "t1: c1", strategy).unwrap().holds(), "{strategy:?}");
    }
}

/// Retracting a base fact under an entity-creating rule removes the
/// minted entity's consequences, while entities minted from *surviving*
/// facts keep their exact `skN` identities.
#[test]
fn skolem_entities_die_with_their_support_and_survivors_keep_identity() {
    let mut s = Session::new();
    s.load("t1: c1.\nt1: c2.\nt3: E[l2 => X] :- t1: X.").unwrap();
    let before: Vec<String> = s
        .query("t3: O[l2 => V]", Strategy::BottomUpSemiNaive)
        .unwrap()
        .rendered();
    assert_eq!(before.len(), 2, "one minted entity per base fact");
    s.retract("t1: c1.").unwrap();
    for strategy in Strategy::ALL {
        let after = common::evaluate(&mut s, "t3: O[l2 => V]", strategy).unwrap().rendered();
        assert_eq!(after.len(), 1, "{strategy:?}: c1's entity must be gone");
        assert!(
            before.contains(&after[0]),
            "{strategy:?}: the survivor changed identity: {:?} not in {:?}",
            after[0],
            before
        );
    }
}

/// The saturated model built before the retraction is DRed-patched in
/// place, not dropped: the patch counter moves and the answers agree
/// with a from-scratch session. The session holds one model, the
/// semi-naive one; naive queries saturate their snapshot's own.
#[test]
fn cached_models_are_patched_not_recomputed() {
    let mut s = Session::new();
    s.load("t1: c1[l1 => c2].\nt1: c3.\np(X) :- t1: X[l1 => Y].")
        .unwrap();
    // Build and cache the saturated model (and the snapshot's naive one).
    s.query("p(X)", Strategy::BottomUpSemiNaive).unwrap();
    s.query("p(X)", Strategy::BottomUpNaive).unwrap();
    s.retract("t1: c3.").unwrap();
    let m = s.metrics();
    let patched = m
        .counters
        .get("session.retract.models_patched")
        .copied()
        .unwrap_or(0);
    assert_eq!(patched, 1, "the cached model should be DRed-patched");
    let dred = m.counters.get("folog.dred.runs").copied().unwrap_or(0);
    assert_eq!(dred, 1, "the DRed pass should have run once");
    assert_eq!(m.counters.get("session.retract.models_dropped"), None);
    let mut fresh = Session::new();
    fresh
        .load("t1: c1[l1 => c2].\np(X) :- t1: X[l1 => Y].")
        .unwrap();
    common::assert_answers(
        &mut s,
        &mut fresh,
        &[Strategy::BottomUpSemiNaive, Strategy::BottomUpNaive],
        QUERIES,
        "patched against fresh",
    );
}

// ---------- serving: snapshot pinning ----------

#[test]
fn pinned_snapshot_keeps_serving_pre_retraction_state() {
    let mut s = Session::new();
    s.load("t1: c1[l1 => c2].\np(X) :- t1: X[l1 => Y].").unwrap();
    s.prepare().unwrap();
    let pinned = s.current_snapshot().expect("published");
    let unlimited = Budget::unlimited();
    let (before, _) = pinned
        .query_cached("p(X)", Strategy::BottomUpSemiNaive, &unlimited)
        .unwrap();
    assert!(before.holds());

    s.retract("t1: c1[l1 => c2].").unwrap();
    s.prepare().unwrap();

    // The pinned reader still answers from its epoch, untorn.
    let (still, _) = pinned
        .query_cached("p(X)", Strategy::BottomUpSemiNaive, &unlimited)
        .unwrap();
    assert_eq!(still.rendered(), before.rendered());
    // A fresh pin sees the retraction.
    let fresh = s.current_snapshot().expect("republished");
    let (after, _) = fresh
        .query_cached("p(X)", Strategy::BottomUpSemiNaive, &unlimited)
        .unwrap();
    assert!(!after.holds());
}

/// A snapshot pinned from a session that only ever queried through
/// `Session::query` keeps answering its own epoch while the session
/// loads, retracts and queries on. The writes drop it from the unshared
/// cell (so the session's next publish need not clone what it pins),
/// but never change it.
#[test]
fn snapshot_pinned_from_an_exclusive_session_keeps_its_epoch() {
    let mut s = Session::new();
    s.load("t1: c1[l1 => c2].\np(X) :- t1: X[l1 => Y].")
        .unwrap();
    let before = s.query("p(X)", Strategy::BottomUpSemiNaive).unwrap();
    let pinned = s.current_snapshot().expect("the query published");
    let epoch = pinned.epoch();

    s.load("t1: c3[l1 => c4].").unwrap();
    assert!(
        s.current_snapshot().is_none(),
        "a write drops an unshared snapshot"
    );
    assert_eq!(
        s.query("p(X)", Strategy::BottomUpSemiNaive)
            .unwrap()
            .rows
            .len(),
        2
    );
    s.retract("t1: c1[l1 => c2].").unwrap();
    let after = s.query("p(X)", Strategy::BottomUpSemiNaive).unwrap();
    assert_eq!(after.rendered(), ["X = c3"]);

    assert_eq!(pinned.epoch(), epoch);
    let unlimited = Budget::unlimited();
    for strategy in Strategy::ALL {
        let still = pinned.query("p(X)", strategy, &unlimited).unwrap();
        assert_eq!(still.rendered(), before.rendered(), "{strategy:?}");
    }
}

/// Snapshots pinned across a write history long enough to fold the
/// model's tails into its bases several times keep answering their own
/// epoch, under all six strategies, exactly like a fresh replay of the
/// history up to that epoch and like the §3.2 oracle. The session's
/// cell is shared, as a serving layer shares it, so every write clones
/// the model while a snapshot pins it, and folds copy shared bases.
/// Each spur is asserted and then retracted, so the model stays small
/// enough for the oracle while its tails and dead rows keep growing.
#[test]
fn pinned_snapshots_survive_folds_of_the_model() {
    let obs = Obs::default();
    let mut s = Session::with_options(common::path_options(&obs));
    let _serving = s.snapshot_cell();
    let mut ops = vec![Op::Load(common::disjoint_chains(2, 4))];
    for k in 0..100 {
        ops.push(Op::Load(common::spur(k % 2, 1 + k % 3, k)));
        ops.push(Op::Retract(common::spur(k % 2, 1 + k % 3, k)));
    }
    ops.pop(); // end on a live spur
    let mut pinned = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        apply(&mut s, op).unwrap();
        s.prepare().unwrap();
        if i % 60 == 1 || i + 1 == ops.len() {
            pinned.push((i, s.current_snapshot().expect("prepare publishes")));
        }
    }
    let folds = obs.metrics.snapshot().counter("folog.store.folds").unwrap_or(0);
    assert!(folds >= 3, "the history folds the model's tails ({folds} folds)");

    // Every strategy answers the edge queries; SLD and Direct do not
    // terminate on the recursive path rules, so the path queries go to
    // the four fixpoint strategies, as in `tests/paper_examples.rs`.
    let edges = ["node: X[linkto => Y]", "node: c1n2[linkto => Y]"];
    let paths = [
        "path: P[src => c0n0, dest => D]",
        "path: P[src => S, dest => s99]",
        "path: id(c1n0, c1n4)",
    ];
    let fixpoint = [
        Strategy::BottomUpNaive,
        Strategy::BottomUpSemiNaive,
        Strategy::Tabled,
        Strategy::Magic,
    ];
    for (i, snap) in &pinned {
        let mut replay = Session::with_options(common::path_options(&Obs::default()));
        for op in &ops[..=*i] {
            apply(&mut replay, op).unwrap();
        }
        assert_eq!(snap.epoch(), replay.epoch());
        let context = format!("pinned after op {i}");
        common::assert_answers(&**snap, &mut replay, &Strategy::ALL, &edges, &context);
        common::assert_answers(&**snap, &mut replay, &fixpoint, &paths, &context);
    }
}

// ---------- durability: crash-at-every-prefix, chaos, report ----------

#[test]
fn interleaved_history_crash_at_every_prefix_recovers_identically() {
    let ops = standard_ops();
    for crash_at in 0..=ops.len() {
        let mem = MemStorage::new();
        {
            let (mut s, _) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
            for op in &ops[..crash_at] {
                apply(&mut s, op).unwrap();
            }
            // Dropped here: a crash. Every applied op was synced.
        }
        let (mut r, report) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
        assert_eq!(r.epoch(), crash_at as u64, "{report}");
        for op in &ops[crash_at..] {
            apply(&mut r, op).unwrap();
        }
        let mut base = baseline(&ops);
        let context = format!("crash_at={crash_at}");
        common::assert_equivalent(common::state(&r), &mut r, &mut base, QUERIES, &context);
    }
}

#[test]
fn recovery_report_counts_asserts_and_retracts() {
    // No compaction, so every op stays in the WAL and is replayed.
    let no_compact = SessionOptions::default();
    let ops = standard_ops();
    let mem = MemStorage::new();
    {
        let (mut s, _) =
            Session::recover_from(Box::new(mem.clone()), no_compact.clone()).unwrap();
        for op in &ops {
            apply(&mut s, op).unwrap();
        }
    }
    let (_, report) = Session::recover_from(Box::new(mem), no_compact).unwrap();
    assert_eq!(report.records_replayed, ops.len());
    assert_eq!(report.loads_replayed, 4);
    assert_eq!(report.retracts_replayed, 3);
    assert!(
        report.to_string().contains("3 retract(s)"),
        "the rendered report should show the retract count: {report}"
    );
}

fn chaos_scenario(ops: &[Op], trigger: u64, fault: Fault) {
    let mem = MemStorage::new();
    let chaos = ChaosStorage::new(mem.clone(), trigger, fault);

    // Phase 1: live until the fault kills a storage operation.
    if let Ok((mut s, _)) = Session::recover_from(Box::new(chaos), opts()) {
        for op in ops {
            if apply(&mut s, op).is_err() {
                break;
            }
        }
    }

    // Phase 2: restart on the clean handle over the surviving files.
    let context = format!("fault={fault:?} trigger={trigger}");
    let (mut r, report) = match Session::recover_from(Box::new(mem.clone()), opts()) {
        Ok(v) => v,
        Err(e) => panic!("recovery must always succeed after a chaos crash ({context}): {e}"),
    };

    // Phase 3: each op is exactly one epoch; re-apply what was lost.
    let done = r.epoch() as usize;
    assert!(
        done <= ops.len(),
        "recovered epoch out of range ({context}): {report}"
    );
    for op in &ops[done..] {
        apply(&mut r, op)
            .unwrap_or_else(|e| panic!("post-recovery op must succeed ({context}): {e}"));
    }

    // Phase 4: equivalence with the uninterrupted history.
    let mut base = baseline(ops);
    common::assert_equivalent(common::state(&r), &mut r, &mut base, QUERIES, &context);
}

#[test]
fn chaos_sweep_kills_every_io_op_of_an_interleaved_history() {
    let ops = standard_ops();

    let total = common::clean_io_ops(|s| ops.iter().for_each(|op| apply(s, op).unwrap()));

    // Sweep: every operation of the clean run × every fault kind —
    // retraction commits (append, fsync, compaction) included.
    for fault in Fault::ALL {
        for trigger in 1..=total {
            chaos_scenario(&ops, trigger, fault);
        }
    }
}

// ---------- proptest: retract ∘ assert ≡ never-asserted ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Load a base program, saturate models, load one more chunk, then
    /// retract exactly the clauses that chunk added (quoted in their
    /// post-skolemization form). Every query under every strategy must
    /// answer as if the chunk had never been loaded — the executable
    /// statement of `retract ∘ assert ≡ never-asserted`, with the DRed
    /// patch on the hot path because the models were already cached.
    /// The chunk declares no subtype (a declaration cannot be
    /// retracted); the base program may.
    #[test]
    fn retract_after_assert_equals_never_asserted(
        base in prop::collection::vec(corpus(Features::RULES), 1..3),
        extra in corpus(Features::RULES),
    ) {
        let queries = common::queries(base.iter().chain([&extra]));
        let mut with = Session::new();
        for c in &base {
            with.load(&c.program.to_string()).unwrap();
        }
        // Saturate and cache the models before the assert, as a serving
        // session would.
        with.query(&queries[0], Strategy::BottomUpSemiNaive).unwrap();

        let before = with.program().clauses.len();
        with.load(&extra.chunk()).unwrap();
        let added: Vec<String> = with.program().clauses[before..]
            .iter()
            .map(|c| c.to_string())
            .collect();
        prop_assert!(!added.is_empty());
        with.retract(&added.join("\n")).unwrap();

        let mut without = Session::new();
        for c in &base {
            without.load(&c.program.to_string()).unwrap();
        }
        common::assert_answers(
            &mut with,
            &mut without,
            &Strategy::ALL,
            &queries,
            &format!("after retracting\n{}", added.join("\n")),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pin a snapshot after every write of a generated history of chunk
    /// loads and single-clause retractions (each clause quoted as
    /// `Session::program` renders it). However far the session moves on,
    /// every pinned snapshot keeps answering its own epoch: under every
    /// strategy, through the uncached `SessionSnapshot::query`, it equals
    /// a fresh session that replayed the same prefix. Each pinned
    /// snapshot's first naive query runs only after the later writes, so
    /// it saturates over the compiled program that snapshot pinned.
    #[test]
    fn pinned_snapshots_keep_their_epoch_across_write_histories(
        steps in prop::collection::vec(
            (prop::bool::ANY, corpus(Features::RULES), 0usize..64),
            2..5,
        ),
    ) {
        let queries = common::queries(steps.iter().map(|(_, case, _)| case));
        let mut s = Session::new();
        let mut ops = Vec::new();
        let mut pinned = Vec::new();
        for (retract, case, pick) in steps {
            let clauses = &s.program().clauses;
            let op = if retract && !clauses.is_empty() {
                Op::Retract(clauses[pick % clauses.len()].to_string())
            } else {
                Op::Load(case.chunk())
            };
            apply(&mut s, &op).unwrap();
            ops.push(op);
            s.prepare().unwrap();
            pinned.push(s.current_snapshot().expect("prepare publishes"));
        }
        for (k, snap) in pinned.iter().enumerate() {
            let mut replay = Session::new();
            for op in &ops[..=k] {
                apply(&mut replay, op).unwrap();
            }
            prop_assert_eq!(snap.epoch(), replay.epoch());
            common::assert_answers(
                &**snap,
                &mut replay,
                &Strategy::ALL,
                &queries,
                &format!("pinned at step {k} of {ops:?}"),
            );
        }
    }
}
