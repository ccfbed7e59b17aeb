//! `goal_query`: §2.1 path queries under magic sets and tabling,
//! answered in-process through `SessionSnapshot::query` (no serve layer,
//! no store, no answer cache).

use crate::report::{median, ms, ratio, Loop, Report};
use crate::speed::Speed;
use crate::trace::Tracer;
use crate::{plan_rng, Args, Digest};
use clogic::core::transform::Transformer;
use clogic::folog::builtins::builtin_symbols;
use clogic::folog::magic::solve_magic;
use clogic::folog::tabling::{TabledEngine, TablingOptions};
use clogic::folog::{Budget, CompiledProgram, FixpointOptions};
use clogic::obs::Obs;
use clogic::parser::parse_query;
use clogic::{Answers, Session, SessionOptions, SessionSnapshot, Strategy};
use clogic_bench::graphs;
use rand::Rng as _;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Disjoint chains in the database, and edges per chain. Every query
/// costs about the same: the translated query's first goal `path(P)` is
/// unbound, so the work grows with the whole database, not the chain.
const CHAINS: usize = 3;
const LEN: usize = 6;
/// One op in every block of this many is Magic, the rest Tabled. On this
/// database a Tabled query costs about half a Magic one, so the 3:1 mix
/// puts p50 among Tabled ops and p95 among Magic ops, each well inside
/// its kind.
const BLOCK: usize = 4;
/// Ops in a plan; a run stops early if it gets through all of them.
const MAX_OPS: usize = 20_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Session options for path programs: no outcome may depend on timing,
/// so the termination guard (which injects a deadline) is off and the
/// fixpoint caps are lifted.
pub fn path_options() -> SessionOptions {
    let mut opts = SessionOptions {
        termination_guard: false,
        ..SessionOptions::default()
    };
    opts.fixpoint.max_facts = None;
    opts.fixpoint.max_iterations = None;
    opts
}

/// `path: P[src => <src>, dest => D]`.
pub fn path_query(src: &str) -> String {
    format!("path: P[src => {src}, dest => D]")
}

/// Sorted `(D, P)` pairs of a path query's answer rows.
pub fn path_rows(a: &Answers) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = a
        .rows
        .iter()
        .map(|r| {
            (
                r.get("D").unwrap_or_default(),
                r.get("P").unwrap_or_default(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// The expected rows of `path_query(src)` when `src` starts a chain of
/// `nodes` (excluding itself).
pub fn chain_rows(src: &str, nodes: impl Iterator<Item = String>) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = nodes
        .map(|d| (d.clone(), format!("id({src}, {d})")))
        .collect();
    rows.sort();
    rows
}

pub struct Plan {
    /// Program text: the chains plus the §2.1 rules (identity by endpoints).
    pub text: String,
    /// (chain, strategy) per op.
    pub ops: Vec<(usize, Strategy)>,
    /// Expected rows per chain.
    pub expected: Vec<Vec<(String, String)>>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let program = graphs::with_rules(
            &graphs::disjoint_chains(CHAINS, LEN),
            graphs::path_rules_by_endpoints(),
        );
        let mut rng = plan_rng(seed, 2);
        let mut ops = Vec::with_capacity(MAX_OPS);
        while ops.len() < MAX_OPS {
            let magic = rng.gen_range(0..BLOCK);
            for i in 0..BLOCK {
                let strategy = if i == magic {
                    Strategy::Magic
                } else {
                    Strategy::Tabled
                };
                ops.push((rng.gen_range(0..CHAINS), strategy));
            }
        }
        let expected = (0..CHAINS)
            .map(|c| chain_rows(&format!("c{c}n0"), (1..=LEN).map(|i| format!("c{c}n{i}"))))
            .collect();
        Plan {
            text: program.to_string(),
            ops,
            expected,
        }
    }

    pub fn digests(&self) -> (Digest, Digest) {
        let mut ops = Digest::default();
        ops.add(self.text.as_bytes());
        let mut answers = Digest::default();
        for &(chain, strategy) in &self.ops {
            ops.add(format!("{chain}:{strategy:?}").as_bytes());
            for (d, p) in &self.expected[chain] {
                answers.add(d.as_bytes());
                answers.add(p.as_bytes());
            }
        }
        (ops, answers)
    }
}

/// Checks one answer; an incomplete answer is a failure, a wrong one
/// aborts the run.
fn check(plan: &Plan, chain: usize, a: &Answers, strategy: Strategy) -> Result<bool, String> {
    if !a.complete {
        return Ok(false);
    }
    let rows = path_rows(a);
    if rows != plan.expected[chain] {
        return Err(format!(
            "wrong answer for chain {chain} under {strategy:?}: got {rows:?}, want {:?}",
            plan.expected[chain]
        ));
    }
    Ok(true)
}

/// Cross-check: Magic and Tabled must return identical rows per chain.
#[derive(Default)]
struct CrossCheck(BTreeMap<(usize, bool), Vec<(String, String)>>);

impl CrossCheck {
    fn note(&mut self, chain: usize, strategy: Strategy, a: &Answers) -> Result<(), String> {
        let magic = strategy == Strategy::Magic;
        let rows = path_rows(a);
        self.0.entry((chain, magic)).or_insert_with(|| rows.clone());
        match self.0.get(&(chain, !magic)) {
            Some(other) if *other != rows => Err(format!(
                "Magic and Tabled disagree on chain {chain}: {rows:?} vs {other:?}"
            )),
            _ => Ok(()),
        }
    }
}

fn untraced(
    plan: &Plan,
    snap: &SessionSnapshot,
    from: usize,
    secs: Duration,
    cross: &mut CrossCheck,
    speed: &mut Speed,
) -> Result<(Loop, usize), String> {
    let mut run = Loop::default();
    let start = Instant::now();
    let mut next = from;
    let mut raw_ms = Vec::new();
    while start.elapsed() < secs && next < plan.ops.len() {
        let slot = Instant::now();
        let (chain, strategy) = plan.ops[next];
        let src = path_query(&format!("c{chain}n0"));
        next += 1;
        run.attempted += 1;
        let t = Instant::now();
        let a = snap.query(&src, strategy, &Budget::unlimited());
        let lat = t.elapsed();
        let slot_s = slot.elapsed().as_secs_f64();
        let f = speed.factor();
        run.time_s += slot_s * f;
        run.wall_s += slot_s;
        match a {
            Ok(a) if check(plan, chain, &a, strategy)? => {
                cross.note(chain, strategy, &a)?;
                run.reads_ms.push(ms(lat) * f);
                raw_ms.push(ms(lat));
            }
            _ => run.failed += 1,
        }
    }
    run.print_raw("goal_query", "read", &raw_ms);
    Ok((run, next))
}

/// The traced op: the same query split into the public layer calls it
/// is made of — `parse_query`, `Transformer::query`, then `solve_magic`
/// or `TabledEngine::solve` over artifacts equal to the snapshot's.
struct Traced {
    fo: clogic::core::fol::FoProgram,
    cp: CompiledProgram,
    fixpoint: FixpointOptions,
    obs: Obs,
}

impl Traced {
    fn answer(
        &self,
        tr: &mut Tracer,
        op: usize,
        src: &str,
        strategy: Strategy,
    ) -> Result<Answers, String> {
        let q = tr
            .time(op, "parse_query", || parse_query(src))
            .map_err(|e| e.to_string())?;
        let goals = tr.time(op, "translate_query", || Transformer::new().query(&q));
        let rows_of =
            |rows: Vec<BTreeMap<clogic::core::symbol::Symbol, clogic::core::fol::FoTerm>>| {
                rows.into_iter()
                    .map(|bindings| clogic::session::AnswerRow { bindings })
                    .collect()
            };
        if strategy == Strategy::Magic {
            let opts = FixpointOptions {
                obs: self.obs.clone(),
                ..self.fixpoint.clone()
            };
            let builtins = builtin_symbols().collect();
            let (rows, ev) = tr
                .time(op, "magic.solve", || {
                    solve_magic(&self.fo, &goals, &builtins, opts)
                })
                .map_err(|e| e.to_string())?;
            let rows: Vec<_> = rows.into_iter().map(|r| r.into_iter().collect()).collect();
            Ok(Answers {
                rows: rows_of(rows),
                complete: ev.complete,
                degradation: ev.degradation,
            })
        } else {
            let opts = TablingOptions {
                obs: self.obs.clone(),
                ..TablingOptions::default()
            };
            let r = tr
                .time(op, "tabled.solve", || {
                    TabledEngine::new(&self.cp, opts).solve(&goals)
                })
                .map_err(|e| e.to_string())?;
            Ok(Answers {
                rows: rows_of(r.answers),
                complete: r.complete,
                degradation: r.degradation,
            })
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args.seed);
    let mut speed = Speed::new();
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPS {
        drop(session.take());
        let t = Instant::now();
        let mut s = Session::with_options(path_options());
        s.load(&plan.text).map_err(|e| e.to_string())?;
        s.prepare().map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        setup_s.push(secs * speed.factor());
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    let snap = session.current_snapshot().ok_or("no snapshot published")?;
    let mut cross = CrossCheck::default();

    if !args.trace {
        let (run, _) = untraced(&plan, &snap, 0, args.seconds, &mut cross, &mut speed)?;
        return Ok(Report::end_to_end(&run, &setup_s));
    }

    let half = args.seconds / 2;
    let (first, next) = untraced(&plan, &snap, 0, half, &mut cross, &mut speed)?;
    let fo = session.translated().clone();
    let mut cp = CompiledProgram::compile(&fo, builtin_symbols());
    cp.set_index_mode(path_options().fixpoint.index_mode);
    let traced = Traced {
        fo,
        cp,
        fixpoint: path_options().fixpoint,
        obs: Obs::new(),
    };
    let m = &traced.obs.metrics;
    let counter = |name: &str| m.counter(name).get() as f64;

    let mut tr = Tracer::new(Instant::now());
    let mut second = Loop::default();
    let mut magic_ops = 0.0;
    let mut magic_answers = 0.0;
    let mut tabled_ops = 0.0;
    let mut tabled_answers = 0.0;
    let (mut attempts, mut facts, mut activations) = (0.0, 0.0, 0.0);
    let start = Instant::now();
    for (req, &(chain, strategy)) in plan.ops.iter().enumerate().skip(next) {
        if start.elapsed() >= half {
            break;
        }
        let slot = Instant::now();
        let src = path_query(&format!("c{chain}n0"));
        second.attempted += 1;
        let before = (
            counter("folog.fixpoint.match_attempts"),
            counter("folog.fixpoint.facts_derived"),
            counter("folog.tabling.clause_activations"),
        );
        let op = tr.begin(req as u64, None, "op");
        let a = traced.answer(&mut tr, op, &src, strategy);
        tr.end(op);
        let lat = tr.last("op");
        let slot_s = slot.elapsed().as_secs_f64();
        second.time_s += slot_s * speed.factor();
        match a {
            Ok(a) if check(&plan, chain, &a, strategy)? => {
                cross.note(chain, strategy, &a)?;
                second.reads_ms.push(ms(lat));
                if strategy == Strategy::Magic {
                    magic_ops += 1.0;
                    magic_answers += a.rows.len() as f64;
                    attempts += counter("folog.fixpoint.match_attempts") - before.0;
                    facts += counter("folog.fixpoint.facts_derived") - before.1;
                } else {
                    tabled_ops += 1.0;
                    tabled_answers += a.rows.len() as f64;
                    activations += counter("folog.tabling.clause_activations") - before.2;
                }
            }
            _ => second.failed += 1,
        }
    }

    let by = tr.self_us_by_name();
    let med = |name: &str| by.get(name).map_or(0.0, |v| median(v));
    let (rw_count, rw_sum) = m
        .snapshot()
        .histogram("folog.magic.rewritten_rules")
        .unwrap_or((0, 0));
    let mut layers = BTreeMap::new();
    layers.insert("parser.parse_query_us", med("parse_query"));
    layers.insert("core.translate_query_us", med("translate_query"));
    layers.insert("folog.magic.evaluate_ms", med("magic.solve") / 1e3);
    layers.insert("folog.magic.match_attempts", ratio(attempts, magic_ops));
    layers.insert("folog.magic.facts_derived", ratio(facts, magic_ops));
    layers.insert("folog.magic.answers_per_fact", ratio(magic_answers, facts));
    let (hits, misses) = (counter("folog.index.hits"), counter("folog.index.misses"));
    layers.insert("folog.index.hit_ratio", ratio(hits, hits + misses));
    layers.insert(
        "folog.magic.rewritten_rules",
        ratio(rw_sum as f64, rw_count as f64),
    );
    layers.insert("folog.tabled.evaluate_ms", med("tabled.solve") / 1e3);
    layers.insert(
        "folog.tabled.clause_activations",
        ratio(activations, tabled_ops),
    );
    layers.insert(
        "folog.tabled.answers_per_activation",
        ratio(tabled_answers, activations),
    );
    tr.print_summary();
    tr.dump(&args.span_path())
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(Report::per_layer(&first, &second, layers))
}
