//! E-incremental — re-query after a 1-fact delta vs full recompute.
//!
//! The serving-workload scenario the epoch-versioned session exists for:
//! a large path database is loaded and saturated once; then a single
//! edge arrives. The resumed session extends the cached translation,
//! seeds the saturated fixpoint with the delta, and answers from the
//! incrementally grown model; the baseline recomputes everything from
//! scratch. Expected shape: the incremental path wins by well over an
//! order of magnitude, because the delta only touches one chain
//! component.
//!
//! Hand-written harness (`harness = false`): `--test` runs a small smoke
//! configuration (for CI); the full run asserts the ≥10× speedup.
//! Either mode dumps `BENCH_incremental.json` at the workspace root.

use clogic::{Session, SessionOptions, Strategy};
use clogic_bench::graphs;
use clogic_bench::measure::{dump_json, print_table, us};
use clogic_core::program::Program;
use std::time::{Duration, Instant};

const QUERY: &str = "path: P[src => c0n0, dest => D]";

/// The path workload is recursive *and* constructs `id(X, Y)` identities
/// in rule heads, which is exactly the syntactic shape the termination
/// guard flags — here the closure is provably bounded by the disjoint
/// chains, so the guard's small fact ceiling must not apply.
fn session() -> Session {
    Session::with_options(SessionOptions {
        termination_guard: false,
        ..SessionOptions::default()
    })
}

struct Timed {
    answers: usize,
    wall: Duration,
}

fn timed_query(s: &mut Session, strategy: Strategy) -> Timed {
    let start = Instant::now();
    let r = s.query(QUERY, strategy).expect("query succeeds");
    assert!(r.complete, "workload must saturate, got {:?}", r.degradation);
    Timed {
        answers: r.rows.len(),
        wall: start.elapsed(),
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (chains, len) = if test_mode { (50, 10) } else { (1000, 10) };
    let strategy = Strategy::BottomUpSemiNaive;

    let base = graphs::with_rules(
        &graphs::disjoint_chains(chains, len),
        graphs::path_rules_by_endpoints(),
    );
    let mut delta = Program::new();
    delta.push(graphs::link(&format!("c0n{len}"), &format!("c0n{}", len + 1)));
    let mut combined = base.clone();
    combined.clauses.extend(delta.clauses.clone());

    // Serving session: saturate once, then apply the delta and re-query.
    let mut incremental = session();
    incremental.load_program(base);
    let cold = timed_query(&mut incremental, strategy);
    let epoch_before = incremental.epoch();
    incremental.load_program(delta);
    let warm = timed_query(&mut incremental, strategy);
    assert_eq!(incremental.epoch(), epoch_before + 1);
    assert_eq!(warm.answers, cold.answers + 1, "delta adds one path endpoint");

    // Baseline: a fresh session over the combined program (full
    // translation, compilation and fixpoint inside the timed query).
    let mut scratch = session();
    scratch.load_program(combined);
    let full = timed_query(&mut scratch, strategy);
    assert_eq!(full.answers, warm.answers, "incremental answers must match");

    let speedup = full.wall.as_secs_f64() / warm.wall.as_secs_f64().max(1e-9);
    print_table(
        "E-incremental (1-fact delta re-query vs full recompute)",
        &["config", "edges", "answers", "wall (us)"],
        &[
            vec![
                "cold load+query".into(),
                (chains * len).to_string(),
                cold.answers.to_string(),
                us(cold.wall),
            ],
            vec![
                "incremental re-query".into(),
                (chains * len + 1).to_string(),
                warm.answers.to_string(),
                us(warm.wall),
            ],
            vec![
                "full recompute".into(),
                (chains * len + 1).to_string(),
                full.answers.to_string(),
                us(full.wall),
            ],
        ],
    );
    println!("\nspeedup (full / incremental): {speedup:.1}x");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    dump_json(
        out,
        &[
            ("mode", format!("\"{}\"", if test_mode { "test" } else { "full" })),
            ("chains", chains.to_string()),
            ("edges", (chains * len).to_string()),
            ("answers", warm.answers.to_string()),
            ("cold_us", us(cold.wall)),
            ("incremental_us", us(warm.wall)),
            ("full_us", us(full.wall)),
            ("speedup", format!("{speedup:.2}")),
        ],
    )
    .expect("benchmark dump written");
    println!("wrote {out}");

    if !test_mode {
        assert!(
            speedup >= 10.0,
            "incremental re-query must be at least 10x faster than a full \
             recompute, measured {speedup:.1}x"
        );
    }
}
