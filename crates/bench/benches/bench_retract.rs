//! E12 — incremental re-query after a small retraction vs full rebuild.
//!
//! The deletion mirror of E-incremental: a large path database is
//! loaded and saturated once; then one edge is *retracted*. The session
//! repairs its cached saturated model with the DRed delete-rederive pass
//! (overdelete the edge's consequences, rederive survivors — work
//! proportional to the one affected chain component) and re-answers; the
//! baseline rebuilds a fresh session over the reduced program and pays
//! the whole fixpoint again. Expected shape: retraction wins by well over
//! an order of magnitude, because only one component's paths are touched.
//!
//! Hand-written harness (`harness = false`): `--test` runs a small smoke
//! configuration (for CI); the full run asserts the speedup floor,
//! `MIN_SPEEDUP` (10×). Either mode dumps `BENCH_retract.json` at the
//! workspace root.

use clogic::{Session, SessionOptions, Strategy};
use clogic_bench::graphs;
use clogic_bench::measure::{dump_json, print_table, us};
use std::time::{Duration, Instant};

const QUERY: &str = "path: P[src => c0n0, dest => D]";

/// The full run's floor on the retraction speedup over a full rebuild.
const MIN_SPEEDUP: f64 = 10.0;

/// The §2.1 path rules in their *non-linear* form: a path decomposes
/// into two subpaths rather than an edge plus a path. The least model
/// is the same (`len²/2` paths per chain), but saturation work is
/// cubic in the chain length — every path of length `L` has `L - 1`
/// derivations — which is exactly the regime where rebuilding from
/// scratch is painful and a localized DRed repair shines.
const NONLINEAR_PATH_RULES: &str =
    "path: id(X, Y)[src => X, dest => Y] :- node: X[linkto => Y].\n\
     path: id(X, Y)[src => X, dest => Y] :-\n\
         path: id(X, Z)[src => X, dest => Z],\n\
         path: id(Z, Y)[src => Z, dest => Y].\n";

/// Same guard exemption as E-incremental: the path rules mint `id(X, Y)`
/// in rule heads, which the termination guard flags, but the closure is
/// bounded by the disjoint chains. The full workload's saturated model also
/// exceeds the session-default 1M fact ceiling, so the fixpoint cap is
/// lifted (the closure is finite — the ceiling is a safety net, not a
/// correctness bound).
fn session() -> Session {
    let mut opts = SessionOptions {
        termination_guard: false,
        ..SessionOptions::default()
    };
    opts.fixpoint.max_facts = None;
    opts.fixpoint.max_iterations = None;
    Session::with_options(opts)
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
    // Many medium chains under the non-linear closure: the full
    // fixpoint pays ~`chains * len^3 / 6` join steps while the DRed
    // repair pays only the one affected chain's share (plus
    // retranslation and index rebuilds, linear in the store), so the
    // gap widens with the chain count.
    let (chains, len) = if test_mode { (20, 15) } else { (150, 30) };
    let strategy = Strategy::BottomUpSemiNaive;

    let base = graphs::with_rules(&graphs::disjoint_chains(chains, len), NONLINEAR_PATH_RULES);
    // The doomed edge sits mid-chain in component 0: retracting it cuts
    // every path crossing it but leaves the other `chains - 1`
    // components (and the prefix/suffix of chain 0) intact.
    let doomed = graphs::link(&format!("c0n{}", len / 2), &format!("c0n{}", len / 2 + 1));
    let doomed_src = doomed.to_string();

    // Serving session: saturate once, then retract and re-query. The
    // timed span covers the whole deletion — DRed patch plus re-query —
    // since that is what a caller waits for.
    let mut incremental = session();
    incremental.load_program(base.clone());
    let cold = timed_query(&mut incremental, strategy);
    let epoch_before = incremental.epoch();
    let start = Instant::now();
    incremental.retract(&doomed_src).expect("retract succeeds");
    let warm = timed_query(&mut incremental, strategy);
    let retract_wall = start.elapsed();
    assert_eq!(incremental.epoch(), epoch_before + 1);
    assert!(
        warm.answers < cold.answers,
        "retraction must remove reachable destinations"
    );

    // Baseline: a fresh session over the reduced program — full
    // translation, compilation and fixpoint inside the timed span.
    let mut reduced = graphs::disjoint_chains(chains, len);
    reduced.clauses.retain(|c| c.to_string() != doomed_src);
    let reduced = graphs::with_rules(&reduced, NONLINEAR_PATH_RULES);
    let mut scratch = session();
    let start = Instant::now();
    scratch.load_program(reduced);
    let full = timed_query(&mut scratch, strategy);
    let full_wall = start.elapsed();
    assert_eq!(full.answers, warm.answers, "retraction answers must match");

    let speedup = full_wall.as_secs_f64() / retract_wall.as_secs_f64().max(1e-9);
    print_table(
        "e12_retract (1-fact retraction re-query vs full rebuild)",
        &["config", "edges", "answers", "wall (us)"],
        &[
            vec![
                "cold load+query".into(),
                (chains * len).to_string(),
                cold.answers.to_string(),
                us(cold.wall),
            ],
            vec![
                "retract + re-query (DRed)".into(),
                (chains * len - 1).to_string(),
                warm.answers.to_string(),
                us(retract_wall),
            ],
            vec![
                "full rebuild".into(),
                (chains * len - 1).to_string(),
                full.answers.to_string(),
                us(full_wall),
            ],
        ],
    );
    println!("\nspeedup (full rebuild / retract): {speedup:.1}x");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_retract.json");
    dump_json(
        out,
        &[
            ("mode", format!("\"{}\"", if test_mode { "test" } else { "full" })),
            ("chains", chains.to_string()),
            ("edges", (chains * len).to_string()),
            ("answers", warm.answers.to_string()),
            ("cold_us", us(cold.wall)),
            ("retract_us", us(retract_wall)),
            ("full_us", us(full_wall)),
            ("speedup", format!("{speedup:.2}")),
        ],
    )
    .expect("benchmark dump written");
    println!("wrote {out}");

    if !test_mode {
        assert!(
            speedup >= MIN_SPEEDUP,
            "retraction re-query must be at least {MIN_SPEEDUP}x faster than a \
             full rebuild, measured {speedup:.1}x"
        );
    }
}
