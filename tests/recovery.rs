//! Crash recovery: a session persisted through the snapshot + WAL store
//! and killed at **any** I/O boundary must recover to exactly the state
//! an uninterrupted session would have — same program text (hence same
//! `skN` object identities), same epoch, same answers across all six
//! strategies. The chaos sweep drives this literally: it measures the
//! I/O operation count of a clean run, then re-runs the whole load
//! sequence once per (operation, fault-kind) pair with that operation
//! faulted, reopens the store, and checks equivalence.
//!
//! On failure, the offending scenario's [`RecoveryReport`] is dumped to
//! `target/recovery-reports/` so CI can surface it.

use clogic::session::Session;
use clogic::store::{ChaosStorage, Fault, MemStorage, RecoveryReport, Storage};
use common::{baseline, chunks, corpus, opts, Case, Features, QUERIES};
use proptest::prelude::*;
use std::io::Write as _;

mod common;

fn dump_report(name: &str, report: &RecoveryReport, context: &str) {
    let dir = std::path::Path::new("target/recovery-reports");
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.txt"))) {
        let _ = writeln!(f, "{context}\n\n{report}");
    }
}

/// The recovered session must be indistinguishable from the baseline:
/// identical program text (this pins the `skN` identities), identical
/// epoch, identical answers to `queries` under every strategy. A
/// failure dumps `report`.
fn assert_equivalent(
    recovered: &mut Session,
    uninterrupted: &mut Session,
    queries: &[impl AsRef<str>],
    report: &RecoveryReport,
    context: &str,
) {
    let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let state = common::state(recovered);
        common::assert_equivalent(state, recovered, uninterrupted, queries, context);
    }));
    if let Err(payload) = check {
        dump_report("failure", report, context);
        std::panic::resume_unwind(payload);
    }
}

// ---------- plain crash/recover (no fault injection) ----------

#[test]
fn recover_empty_store_is_clean_and_empty() {
    let mem = MemStorage::new();
    let (s, report) = Session::recover_from(Box::new(mem), opts()).unwrap();
    assert_eq!(s.epoch(), 0);
    assert!(report.is_clean(), "{report}");
    assert!(s.is_persistent());
}

#[test]
fn crash_after_every_prefix_recovers_identically() {
    let chunks = chunks();
    for crash_at in 0..=chunks.len() {
        let mem = MemStorage::new();
        {
            let (mut s, _) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
            for c in &chunks[..crash_at] {
                s.load(c).unwrap();
            }
            // The session is dropped here: a crash. Everything loaded was
            // already appended + synced.
        }
        let (mut r, report) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
        assert_eq!(r.epoch(), crash_at as u64, "{report}");
        for c in &chunks[crash_at..] {
            r.load(c).unwrap();
        }
        let mut base = baseline(&chunks);
        assert_equivalent(&mut r, &mut base, QUERIES, &report, &format!("crash_at={crash_at}"));
    }
}

#[test]
fn snapshot_compacts_wal_and_recovery_uses_it() {
    let chunks = chunks();
    let mem = MemStorage::new();
    {
        let (mut s, _) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
        for c in &chunks {
            s.load(c).unwrap();
        }
        s.snapshot().unwrap();
    }
    // After explicit compaction the WAL holds only its header.
    assert_eq!(mem.len("wal.log"), Some(8));
    let (mut r, report) = Session::recover_from(Box::new(mem), opts()).unwrap();
    assert_eq!(report.snapshot_epoch, Some(chunks.len() as u64));
    assert_eq!(report.records_replayed, 0);
    let mut base = baseline(&chunks);
    assert_equivalent(&mut r, &mut base, QUERIES, &report, "post-snapshot recovery");
}

#[test]
fn torn_wal_tail_is_dropped_and_reported() {
    let chunks = chunks();
    let mem = MemStorage::new();
    {
        let (mut s, _) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
        for c in &chunks[..2] {
            s.load(c).unwrap();
        }
    }
    // Tear the log: a partial frame of a third record.
    let mut raw = mem.clone();
    raw.append("wal.log", &[0x55, 0x00, 0x00, 0x00, 0x99]).unwrap();

    let (mut r, report) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
    assert!(!report.corruption.is_empty(), "{report}");
    assert!(report.wal_truncated_to.is_some());
    assert_eq!(r.epoch(), 2);
    // The sealed store keeps working: finish the loads and compare.
    for c in &chunks[2..] {
        r.load(c).unwrap();
    }
    let mut base = baseline(&chunks);
    assert_equivalent(&mut r, &mut base, QUERIES, &report, "torn tail");
}

#[test]
fn recovery_is_total_on_arbitrary_garbage_files() {
    // Pseudo-random byte soup in both files: recovery must return (Ok or
    // a structured error), never panic.
    let mut state = 0x1234_5678u32;
    let mut next = move |len: usize| {
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            v.push((state >> 24) as u8);
        }
        v
    };
    for len in [0usize, 1, 7, 8, 9, 40, 200] {
        let mem = MemStorage::new();
        let mut raw = mem.clone();
        raw.write("wal.log", &next(len)).unwrap();
        raw.write("snapshot.clg", &next(len)).unwrap();
        let result = Session::recover_from(Box::new(mem), opts());
        if let Ok((s, report)) = result {
            assert!(!report.is_clean() || s.epoch() == 0);
        }
    }
}

#[test]
fn skolem_identities_survive_recovery() {
    // The entity-creating rule mints sk1; facts loaded *after* recovery
    // must keep minting from the recovered counter, not restart at sk1.
    let mem = MemStorage::new();
    {
        let (mut s, _) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
        s.load("t1: c1.\nt3: C[l2 => X] :- t1: X.").unwrap();
        let text = s.program().to_string();
        assert!(text.contains("sk1"), "expected sk1 in:\n{text}");
    }
    let (mut r, _) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
    r.load("t3: D[l1 => X] :- t1: X.").unwrap();
    let text = r.program().to_string();
    assert!(text.contains("sk1"), "sk1 must survive recovery:\n{text}");
    assert!(
        text.contains("sk2"),
        "post-recovery minting must continue at sk2:\n{text}"
    );

    let base = baseline(&[
        "t1: c1.\nt3: C[l2 => X] :- t1: X.".to_string(),
        "t3: D[l1 => X] :- t1: X.".to_string(),
    ]);
    assert_eq!(r.program().to_string(), base.program().to_string());
}

#[test]
fn recover_refuses_a_missing_directory() {
    let err = Session::recover("target/recovery-reports/definitely-does-not-exist-xyz");
    assert!(err.is_err());
}

#[test]
fn file_storage_round_trips_on_disk() {
    let dir = std::env::temp_dir().join(format!("clogic-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let chunks = chunks();
    {
        let (mut s, report) = Session::persistent_with_options(&dir, opts()).unwrap();
        assert!(report.is_clean());
        for c in &chunks {
            s.load(c).unwrap();
        }
    }
    let (mut r, report) = Session::recover(&dir).unwrap();
    let mut base = baseline(&chunks);
    assert_equivalent(&mut r, &mut base, QUERIES, &report, "file storage");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------- the chaos sweep: kill persistence at every I/O boundary ----------

/// Runs the load sequence over chaos storage that faults at operation
/// `trigger`, then reopens the underlying store with a clean handle (the
/// "restarted process"), replays, finishes the remaining loads, and
/// checks full equivalence with the uninterrupted baseline on `queries`.
fn chaos_scenario(chunks: &[String], queries: &[impl AsRef<str>], trigger: u64, fault: Fault) {
    let mem = MemStorage::new();
    let chaos = ChaosStorage::new(mem.clone(), trigger, fault);

    // Phase 1: live until the fault kills a storage operation. A load
    // error is the crash point; the in-memory session is abandoned. An
    // error while opening the store is also a valid crash.
    if let Ok((mut s, _)) = Session::recover_from(Box::new(chaos), opts()) {
        for c in chunks {
            if s.load(c).is_err() {
                break;
            }
        }
    }

    // Phase 2: restart. The clean MemStorage handle shares the files the
    // chaos run left behind.
    let context = format!("fault={fault:?} trigger={trigger}");
    let (mut r, report) = match Session::recover_from(Box::new(mem.clone()), opts()) {
        Ok(v) => v,
        Err(e) => {
            dump_report("failure", &RecoveryReport::default(), &format!("{context}: {e}"));
            panic!("recovery must always succeed after a chaos crash ({context}): {e}");
        }
    };

    // Phase 3: each load is exactly one epoch, so the recovered epoch
    // says which chunks the durable store retained; re-apply the rest.
    let done = r.epoch() as usize;
    assert!(done <= chunks.len(), "recovered epoch out of range ({context})");
    for c in &chunks[done..] {
        if let Err(e) = r.load(c) {
            dump_report("failure", &report, &format!("{context}: reload failed: {e}"));
            panic!("post-recovery load must succeed ({context}): {e}");
        }
    }

    // Phase 4: equivalence.
    let mut base = baseline(chunks);
    assert_equivalent(&mut r, &mut base, queries, &report, &context);
}

#[test]
fn chaos_sweep_kills_every_io_operation_under_every_fault() {
    let chunks = chunks();

    let total = common::clean_io_ops(|s| chunks.iter().for_each(|c| s.load(c).unwrap()));

    // Sweep: every operation of the clean run × every fault kind.
    for fault in Fault::ALL {
        for trigger in 1..=total {
            chaos_scenario(&chunks, QUERIES, trigger, fault);
        }
    }
}

// ---------- proptest: generated loads, random crash ----------

/// Each case as one load: its subtype declarations and clauses.
fn loads(cases: &[Case]) -> Vec<String> {
    cases.iter().map(|c| c.program.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K generated programs loaded one by one, killed after a random
    /// prefix, recovered, and finished must equal the uninterrupted
    /// K-load session — answers and skolem identities — for all six
    /// strategies.
    #[test]
    fn random_crash_recover_equals_uninterrupted(
        cases in prop::collection::vec(corpus(Features::RULES), 1..5),
        crash_sel in 0usize..64,
    ) {
        let chunks = loads(&cases);
        let crash_at = crash_sel % (chunks.len() + 1);
        let mem = MemStorage::new();
        {
            let (mut s, _) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
            for c in &chunks[..crash_at] {
                s.load(c).unwrap();
            }
        }
        let (mut r, report) = Session::recover_from(Box::new(mem.clone()), opts()).unwrap();
        prop_assert_eq!(r.epoch(), crash_at as u64);
        for c in &chunks[crash_at..] {
            r.load(c).unwrap();
        }
        let mut base = baseline(&chunks);
        let context = format!("proptest crash_at={crash_at}");
        assert_equivalent(&mut r, &mut base, &common::queries(&cases), &report, &context);
    }

    /// Same property under fault injection at a random I/O operation.
    #[test]
    fn random_chaos_crash_recovers(
        cases in prop::collection::vec(corpus(Features::RULES), 1..4),
        trigger in 1u64..40,
        fault_sel in 0usize..4,
    ) {
        chaos_scenario(&loads(&cases), &common::queries(&cases), trigger, Fault::ALL[fault_sel]);
    }
}
