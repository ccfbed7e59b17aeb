//! Retraction: incremental deletion end-to-end.
//!
//! The contract under test, at every layer:
//!
//! * **Semantics** — `retract ∘ assert ≡ never-asserted`: after loading
//!   a chunk and retracting exactly its (post-skolemization) clauses,
//!   every query under every strategy answers as if the chunk had never
//!   been loaded. Property-tested over random programs, including
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
use clogic::session::{Session, SessionError, SessionOptions, Strategy};
use clogic::store::{ChaosStorage, Fault, MemStorage};
use proptest::prelude::*;
use proptest::strategy::Strategy as ProptestStrategy;
use std::sync::atomic::Ordering;

mod common;

const QUERIES: &[&str] = &["t2: X", "t3: O[l2 => V]", "p(X)", "t1: X[l1 => Y]"];

fn opts() -> SessionOptions {
    SessionOptions {
        snapshot_every: Some(2),
        ..SessionOptions::default()
    }
}

/// One durably logged mutation, as the histories below drive it.
#[derive(Clone, Debug)]
enum Op {
    Load(String),
    Retract(String),
}

/// A fixed interleaved history: loads covering facts, molecules, a
/// subtype declaration, rules and entity-creating (skolemizing) rules,
/// with retractions of facts *and* a rule woven between them. Every op
/// is exactly one epoch.
fn standard_ops() -> Vec<Op> {
    vec![
        Op::Load("t1 < t2.\nt1: c1[l1 => c2].\nt3: C[l2 => X] :- t1: X.".to_string()),
        Op::Load("t1: c3.\np(X) :- t1: X[l1 => Y].".to_string()),
        Op::Retract("t1: c3.".to_string()),
        Op::Load("t2: c4[l2 => c5].\nt3: D[l1 => X] :- t2: X[l2 => Y].".to_string()),
        Op::Retract("t1: c1[l1 => c2].".to_string()),
        Op::Load("t1: c2[l1 => c4].\nt3: X :- t2: X.".to_string()),
        Op::Retract("p(X) :- t1: X[l1 => Y].".to_string()),
    ]
}

fn apply(s: &mut Session, op: &Op) -> Result<(), SessionError> {
    match op {
        Op::Load(src) => s.load(src),
        Op::Retract(src) => s.retract(src),
    }
}

/// An uninterrupted, purely in-memory session applying the same history.
fn baseline(ops: &[Op]) -> Session {
    let mut s = Session::with_options(opts());
    for op in ops {
        apply(&mut s, op).expect("baseline op");
    }
    s
}

fn assert_equivalent(recovered: &mut Session, uninterrupted: &mut Session, context: &str) {
    assert_eq!(
        recovered.epoch(),
        uninterrupted.epoch(),
        "epoch after recovery ({context})"
    );
    assert_eq!(
        recovered.program().to_string(),
        uninterrupted.program().to_string(),
        "recovered program and skolem identities ({context})"
    );
    for strategy in Strategy::ALL {
        for q in QUERIES {
            let r = common::evaluate(recovered, q, strategy).expect("recovered query");
            let u = common::evaluate(uninterrupted, q, strategy).expect("baseline query");
            assert_eq!(r.rendered(), u.rendered(), "{strategy:?} on {q} ({context})");
        }
    }
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
    for q in QUERIES {
        for strategy in [Strategy::BottomUpSemiNaive, Strategy::BottomUpNaive] {
            assert_eq!(
                common::evaluate(&mut s, q, strategy).unwrap().rendered(),
                common::evaluate(&mut fresh, q, strategy).unwrap().rendered(),
                "patched session disagrees under {strategy:?} on {q}"
            );
        }
    }
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
        assert_equivalent(&mut r, &mut base, &format!("crash_at={crash_at}"));
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
    assert_equivalent(&mut r, &mut base, &context);
}

#[test]
fn chaos_sweep_kills_every_io_op_of_an_interleaved_history() {
    let ops = standard_ops();

    // Measure a clean run's I/O operation count.
    let mem = MemStorage::new();
    let probe = ChaosStorage::new(mem, 0, Fault::Fail);
    let counter = probe.op_counter();
    {
        let (mut s, _) = Session::recover_from(Box::new(probe), opts()).unwrap();
        for op in &ops {
            apply(&mut s, op).unwrap();
        }
    }
    let total = counter.load(Ordering::Relaxed);
    assert!(total > 10, "probe run did too little I/O ({total} ops)");

    // Sweep: every operation of the clean run × every fault kind —
    // retraction commits (append, fsync, compaction) included.
    for fault in Fault::ALL {
        for trigger in 1..=total {
            chaos_scenario(&ops, trigger, fault);
        }
    }
}

// ---------- proptest: retract ∘ assert ≡ never-asserted ----------

fn const_name() -> impl ProptestStrategy<Value = String> {
    prop::sample::select(vec!["c1", "c2", "c3", "c4", "c5"]).prop_map(str::to_string)
}

fn type_name() -> impl ProptestStrategy<Value = String> {
    prop::sample::select(vec!["t1", "t2", "t3"]).prop_map(str::to_string)
}

fn label_name() -> impl ProptestStrategy<Value = String> {
    prop::sample::select(vec!["l1", "l2"]).prop_map(str::to_string)
}

fn fact_src() -> impl ProptestStrategy<Value = String> {
    (
        type_name(),
        const_name(),
        prop::collection::vec((label_name(), const_name()), 0..3),
    )
        .prop_map(|(ty, id, pairs)| {
            if pairs.is_empty() {
                format!("{ty}: {id}.")
            } else {
                let specs = pairs
                    .iter()
                    .map(|(l, v)| format!("{l} => {v}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{ty}: {id}[{specs}].")
            }
        })
}

/// Two of the four rules mint skolem identities on load, so retracting
/// a chunk containing them exercises the skolemized-text matching and
/// the pinning of surviving identities.
fn rule_src() -> impl ProptestStrategy<Value = String> {
    prop::sample::select(vec![
        "p(X) :- t1: X[l1 => Y].",
        "t3: X :- t2: X.",
        "t3: C[l2 => X] :- t1: X.",
        "t3: D[l1 => X] :- t2: X[l2 => Y].",
    ])
    .prop_map(str::to_string)
}

/// A loadable chunk with no subtype declarations (those cannot be
/// retracted; the base program may still declare one).
fn chunk_src() -> impl ProptestStrategy<Value = String> {
    (
        prop::collection::vec(fact_src(), 1..4),
        prop::collection::vec(rule_src(), 0..3),
    )
        .prop_map(|(facts, rules)| {
            let mut lines = facts;
            lines.extend(rules);
            lines.join("\n")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Load a base program, saturate models, load one more chunk, then
    /// retract exactly the clauses that chunk added (quoted in their
    /// post-skolemization form). Every query under every strategy must
    /// answer as if the chunk had never been loaded — the executable
    /// statement of `retract ∘ assert ≡ never-asserted`, with the DRed
    /// patch on the hot path because the models were already cached.
    #[test]
    fn retract_after_assert_equals_never_asserted(
        base in prop::collection::vec(chunk_src(), 1..3),
        declare in prop::bool::ANY,
        extra in chunk_src(),
    ) {
        let mut with = Session::new();
        if declare {
            with.load("t1 < t2.").unwrap();
        }
        for c in &base {
            with.load(c).unwrap();
        }
        // Saturate and cache the models before the assert, as a serving
        // session would.
        with.query("t3: O[l2 => V]", Strategy::BottomUpSemiNaive).unwrap();

        let before = with.program().clauses.len();
        with.load(&extra).unwrap();
        let added: Vec<String> = with.program().clauses[before..]
            .iter()
            .map(|c| c.to_string())
            .collect();
        prop_assert!(!added.is_empty());
        with.retract(&added.join("\n")).unwrap();

        let mut without = Session::new();
        if declare {
            without.load("t1 < t2.").unwrap();
        }
        for c in &base {
            without.load(c).unwrap();
        }
        for strategy in Strategy::ALL {
            for q in QUERIES {
                prop_assert_eq!(
                    common::evaluate(&mut with, q, strategy).unwrap().rendered(),
                    common::evaluate(&mut without, q, strategy).unwrap().rendered(),
                    "{:?} on {} after retracting\n{}\nfrom\n{}",
                    strategy, q, added.join("\n"), with.program()
                );
            }
        }
    }
}
