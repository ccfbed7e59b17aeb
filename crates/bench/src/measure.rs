//! Measurement plumbing shared by the `experiments` binary and the
//! `BENCH_*.json` harnesses: run one query under one strategy, returning
//! wall-clock time, the answer count, and the engine's own operation
//! counters (machine-independent work measures).

use clogic_core::optimize::Optimizer;
use clogic_core::program::Program;
use clogic_core::transform::Transformer;
use clogic_engine::{DirectEngine, DirectOptions, DirectProgram};
use clogic_parser::parse_query;
use folog::builtins::builtin_symbols;
use folog::magic::solve_magic;
use folog::tabling::{TabledEngine, TablingOptions};
use folog::{
    evaluate, CompiledProgram, FixpointOptions, SldEngine, SldOptions, Strategy as Fixpoint,
};
use std::time::{Duration, Instant};

/// One measured run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Wall-clock time of the query (excludes program compilation).
    pub wall: Duration,
    /// Number of answers.
    pub answers: usize,
    /// Engine-specific operation count (resolution steps, match
    /// attempts, …): the machine-independent work measure.
    pub work: u64,
    /// Whether the search space was exhausted.
    pub complete: bool,
}

/// Translates a program (optionally applying the §4 optimization).
pub fn translate(p: &Program, optimized: bool) -> clogic_core::fol::FoProgram {
    let tr = Transformer::new();
    if optimized {
        Optimizer::new(p).optimized_program(&tr, p)
    } else {
        tr.program(p)
    }
}

/// Direct evaluation over complex objects.
pub fn run_direct(p: &Program, query: &str, opts: DirectOptions) -> Run {
    let dp = DirectProgram::compile(p, builtin_symbols());
    let q = parse_query(query).expect("query parses");
    let start = Instant::now();
    let r = DirectEngine::new(&dp, opts)
        .solve(&q)
        .expect("no builtin errors");
    Run {
        wall: start.elapsed(),
        answers: r.answers.len(),
        work: r.stats.steps + r.stats.piece_matches + r.stats.store_candidates,
        complete: r.complete,
    }
}

/// Translated program under SLD.
pub fn run_sld(p: &Program, query: &str, optimized: bool, opts: SldOptions) -> Run {
    let fo = translate(p, optimized);
    let compiled = CompiledProgram::compile(&fo, builtin_symbols());
    let goals = Transformer::new().query(&parse_query(query).expect("query parses"));
    let start = Instant::now();
    let r = SldEngine::new(&compiled, opts)
        .solve(&goals)
        .expect("no builtin errors");
    Run {
        wall: start.elapsed(),
        answers: r.answers.len(),
        work: r.stats.steps + r.stats.unify_attempts,
        complete: r.complete,
    }
}

/// Translated program, bottom-up fixpoint, then query matching.
/// Returns the run plus the number of facts in the least model.
pub fn run_bottom_up(
    p: &Program,
    query: &str,
    optimized: bool,
    strategy: Fixpoint,
) -> (Run, usize) {
    let (run, total, _) = run_bottom_up_with(
        p,
        query,
        optimized,
        FixpointOptions {
            strategy,
            ..Default::default()
        },
    );
    (run, total)
}

/// Like [`run_bottom_up`], but takes full [`FixpointOptions`] (index
/// mode, budgets, …) and additionally returns the fact-index counters
/// accumulated during the run — the probe-level work measure behind
/// `folog.index.*`.
pub fn run_bottom_up_with(
    p: &Program,
    query: &str,
    optimized: bool,
    opts: FixpointOptions,
) -> (Run, usize, folog::IndexStats) {
    let fo = translate(p, optimized);
    let compiled = CompiledProgram::compile(&fo, builtin_symbols());
    let goals = Transformer::new().query(&parse_query(query).expect("query parses"));
    let start = Instant::now();
    let ev = evaluate(&compiled, opts).expect("fixpoint succeeds");
    let answers = ev.query(&goals, &[], &[]).expect("query answers");
    (
        Run {
            wall: start.elapsed(),
            answers: answers.len(),
            work: ev.stats.match_attempts,
            complete: true,
        },
        ev.facts.total,
        ev.facts.index_stats(),
    )
}

/// Translated program under tabled evaluation.
pub fn run_tabled(p: &Program, query: &str, optimized: bool) -> Run {
    let fo = translate(p, optimized);
    let compiled = CompiledProgram::compile(&fo, builtin_symbols());
    let goals = Transformer::new().query(&parse_query(query).expect("query parses"));
    let start = Instant::now();
    let r = TabledEngine::new(&compiled, TablingOptions::default())
        .solve(&goals)
        .expect("tabling succeeds");
    Run {
        wall: start.elapsed(),
        answers: r.answers.len(),
        work: r.stats.clause_activations,
        complete: true,
    }
}

/// Translated program under the magic-sets rewrite + bottom-up.
/// Returns the run plus the number of facts the rewritten program derives
/// (the goal-directedness measure).
pub fn run_magic(p: &Program, query: &str, optimized: bool) -> (Run, usize) {
    let fo = translate(p, optimized);
    let goals = Transformer::new().query(&parse_query(query).expect("query parses"));
    let builtins = builtin_symbols().collect();
    let start = Instant::now();
    let (answers, ev) =
        solve_magic(&fo, &goals, &builtins, FixpointOptions::default()).expect("magic succeeds");
    (
        Run {
            wall: start.elapsed(),
            answers: answers.len(),
            work: ev.stats.match_attempts,
            complete: true,
        },
        ev.facts.total,
    )
}

/// Runs `f` `times` times and returns the run with the smallest wall
/// clock — the standard way to strip scheduling noise from short
/// measurements (operation counts are deterministic across repeats).
pub fn best_of(times: usize, mut f: impl FnMut() -> Run) -> Run {
    let mut best = f();
    for _ in 1..times {
        let r = f();
        if r.wall < best.wall {
            best = r;
        }
    }
    best
}

/// Formats a duration in microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Writes a flat JSON object to `path`. Each field's value is a raw
/// JSON fragment the caller has already formatted (a number, or a
/// string including its quotes) — enough for the benchmark dumps
/// without pulling in a serializer.
pub fn dump_json(
    path: impl AsRef<std::path::Path>,
    fields: &[(&str, String)],
) -> std::io::Result<()> {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
}

/// Prints an aligned table (markdown-flavoured) to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs;

    #[test]
    fn runners_agree_on_answer_counts() {
        let p = graphs::with_rules(&graphs::chain(5), graphs::path_rules_by_endpoints());
        let q = "path: P[src => n0, dest => D]";
        let direct = run_direct(&p, q, DirectOptions::default());
        let (naive, _) = run_bottom_up(&p, q, true, Fixpoint::Naive);
        let (semi, total) = run_bottom_up(&p, q, true, Fixpoint::SemiNaive);
        let tabled = run_tabled(&p, q, true);
        let (magic, magic_total) = run_magic(&p, q, true);
        assert_eq!(direct.answers, 5);
        assert_eq!(naive.answers, 5);
        assert_eq!(semi.answers, 5);
        assert_eq!(tabled.answers, 5);
        assert_eq!(magic.answers, 5);
        assert!(total > 0);
        // (goal-directedness of magic sets — fewer *relevant* facts on
        // selective queries — is asserted in folog::magic's tests; here
        // the query touches the whole chain, so only sanity-check it ran)
        assert!(magic_total > 0);
        assert!(direct.complete);
    }

    #[test]
    fn sld_runner_on_extensional_db() {
        let p = crate::objects::functional_objects(20, 3, 5, 1);
        let q = crate::objects::open_query(3);
        let r = run_sld(&p, &q, true, SldOptions::default());
        assert!(r.complete);
        assert_eq!(r.answers, 20);
        assert!(r.work > 0);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[
                vec!["1".into(), "22".into()],
                vec!["333".into(), "4".into()],
            ],
        );
    }
}
