//! E11 — argument-pattern fact indices: the semi-naive fixpoint with
//! lazy per-predicate hash indices vs the same evaluation forced to scan.
//!
//! The design claim under test: body-literal matching is the fixpoint's
//! inner loop, and a hash probe on the bound-position projection replaces
//! an O(|relation|) scan per candidate atom. Indices are built lazily on
//! first demand per bound-position pattern, then extended in place
//! (append-only relations make extension sound) and reused across every
//! delta iteration — so the build cost is paid once per pattern, not per
//! iteration.
//!
//! Two workloads:
//!
//! * **chain** — the E5 transitive-closure chain (`path` by endpoints,
//!   §2.1 rules) under semi-naive evaluation. The recursive rule joins
//!   the `path` delta against `link` on the shared midpoint; indexed,
//!   each delta tuple probes one hash bucket, while the scan baseline
//!   walks the whole `link` relation per candidate.
//! * **load** — cold saturation of many disjoint chains: measures that
//!   index maintenance (builds + extends) does not erase the probe
//!   savings even when every relation keeps growing.
//!
//! Hand-written harness (`harness = false`): `--test` runs a small smoke
//! configuration for CI; either mode dumps `BENCH_index.json` at the
//! workspace root, including the `folog.index.*` counters (builds,
//! extends, hits, misses) for the indexed runs. Answer counts and model
//! sizes are cross-checked between indexed and scan runs, so a speedup
//! can never come from dropped tuples. Either mode fails if the
//! chain-workload speedup drops below `MIN_CHAIN_SPEEDUP` (2×).

use clogic_bench::graphs;
use clogic_bench::measure::{dump_json, print_table, run_bottom_up_with, us, Run};
use folog::{FixpointOptions, IndexMode, IndexStats, Strategy};
use std::time::Duration;

/// The floor on the chain workload's indexed speedup, in either mode.
const MIN_CHAIN_SPEEDUP: f64 = 2.0;

/// One workload measured under one index mode: best-of-`reps` wall
/// clock, with the answer count, model size, and index counters of the
/// best run (counters are deterministic across repeats).
struct Measured {
    run: Run,
    model_facts: usize,
    idx: IndexStats,
}

fn measure(
    p: &clogic_core::program::Program,
    query: &str,
    mode: IndexMode,
    reps: usize,
) -> Measured {
    let opts = || FixpointOptions {
        strategy: Strategy::SemiNaive,
        index_mode: mode,
        ..Default::default()
    };
    let (mut run, mut model_facts, mut idx) = run_bottom_up_with(p, query, true, opts());
    for _ in 1..reps {
        let (r, total, i) = run_bottom_up_with(p, query, true, opts());
        if r.wall < run.wall {
            (run, model_facts, idx) = (r, total, i);
        }
    }
    Measured {
        run,
        model_facts,
        idx,
    }
}

fn speedup(scan: Duration, indexed: Duration) -> f64 {
    scan.as_secs_f64() / indexed.as_secs_f64().max(1e-9)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (chain_n, load_chains, load_len, reps) = if test_mode {
        (48, 6, 10, 3)
    } else {
        (160, 24, 24, 3)
    };

    // Workload A: E5 chain, transitive closure by endpoints.
    let chain = graphs::with_rules(&graphs::chain(chain_n), graphs::path_rules_by_endpoints());
    let chain_q = "path: P[src => n0, dest => D]";
    let chain_idx = measure(&chain, chain_q, IndexMode::Indexed, reps);
    let chain_scan = measure(&chain, chain_q, IndexMode::Scan, reps);
    assert_eq!(
        chain_idx.run.answers, chain_scan.run.answers,
        "indexed chain run changed answers"
    );
    assert_eq!(
        chain_idx.model_facts, chain_scan.model_facts,
        "indexed chain run changed the least model"
    );
    assert_eq!(chain_idx.run.answers, chain_n, "chain answer count");

    // Workload B: cold load of disjoint chains (index maintenance under
    // growth); query one chain's reachability set.
    let load = graphs::with_rules(
        &graphs::disjoint_chains(load_chains, load_len),
        graphs::path_rules_by_endpoints(),
    );
    let load_q = "path: P[src => c0n0, dest => D]";
    let load_idx = measure(&load, load_q, IndexMode::Indexed, reps);
    let load_scan = measure(&load, load_q, IndexMode::Scan, reps);
    assert_eq!(
        load_idx.run.answers, load_scan.run.answers,
        "indexed load run changed answers"
    );
    assert_eq!(
        load_idx.model_facts, load_scan.model_facts,
        "indexed load run changed the least model"
    );

    let chain_speedup = speedup(chain_scan.run.wall, chain_idx.run.wall);
    let load_speedup = speedup(load_scan.run.wall, load_idx.run.wall);
    let idx_cell = |i: &IndexStats| format!("{}/{}/{}/{}", i.builds, i.extends, i.hits, i.misses);
    let row = |name: &str, m: &Measured, sp: Option<f64>| {
        vec![
            name.to_string(),
            m.run.answers.to_string(),
            m.model_facts.to_string(),
            us(m.run.wall),
            m.run.work.to_string(),
            idx_cell(&m.idx),
            sp.map_or("-".into(), |s| format!("{s:.2}x")),
        ]
    };
    print_table(
        "e11_index (argument-pattern indices vs scan, semi-naive)",
        &[
            "config",
            "answers",
            "model",
            "wall (us)",
            "matches",
            "b/e/h/m",
            "speedup",
        ],
        &[
            row(&format!("chain n={chain_n} scan"), &chain_scan, None),
            row(
                &format!("chain n={chain_n} indexed"),
                &chain_idx,
                Some(chain_speedup),
            ),
            row(
                &format!("load {load_chains}x{load_len} scan"),
                &load_scan,
                None,
            ),
            row(
                &format!("load {load_chains}x{load_len} indexed"),
                &load_idx,
                Some(load_speedup),
            ),
        ],
    );
    println!("\nchain speedup (indexed over scan): {chain_speedup:.2}x");
    println!("load  speedup (indexed over scan): {load_speedup:.2}x");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_index.json");
    dump_json(
        out,
        &[
            ("mode", format!("\"{}\"", if test_mode { "test" } else { "full" })),
            ("chain_n", chain_n.to_string()),
            ("chain_answers", chain_idx.run.answers.to_string()),
            ("chain_model_facts", chain_idx.model_facts.to_string()),
            ("chain_indexed_us", us(chain_idx.run.wall)),
            ("chain_scan_us", us(chain_scan.run.wall)),
            ("chain_speedup", format!("{chain_speedup:.3}")),
            ("chain_indexed_matches", chain_idx.run.work.to_string()),
            ("chain_scan_matches", chain_scan.run.work.to_string()),
            ("chain_index_builds", chain_idx.idx.builds.to_string()),
            ("chain_index_extends", chain_idx.idx.extends.to_string()),
            ("chain_index_hits", chain_idx.idx.hits.to_string()),
            ("chain_index_misses", chain_idx.idx.misses.to_string()),
            ("load_chains", load_chains.to_string()),
            ("load_len", load_len.to_string()),
            ("load_answers", load_idx.run.answers.to_string()),
            ("load_model_facts", load_idx.model_facts.to_string()),
            ("load_indexed_us", us(load_idx.run.wall)),
            ("load_scan_us", us(load_scan.run.wall)),
            ("load_speedup", format!("{load_speedup:.3}")),
            ("load_index_builds", load_idx.idx.builds.to_string()),
            ("load_index_extends", load_idx.idx.extends.to_string()),
            ("load_index_hits", load_idx.idx.hits.to_string()),
            ("load_index_misses", load_idx.idx.misses.to_string()),
        ],
    )
    .expect("dump BENCH_index.json");
    println!("wrote {out}");

    // The indices must actually pay off on the join-heavy chain.
    assert!(
        chain_speedup >= MIN_CHAIN_SPEEDUP,
        "chain indexed speedup {chain_speedup:.3}x fell below the {MIN_CHAIN_SPEEDUP}x floor"
    );
}
