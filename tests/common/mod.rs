//! Helpers shared by the integration tests: the one generated test
//! corpus, the fixed four-chunk program, the §3.2 oracle, the one
//! equivalence assert and the serving fixtures.
//!
//! Every property suite draws its programs from [`corpus`] and compares
//! answers through [`assert_answers`]. Five of the six strategies
//! evaluate one translated program (Theorem 1), so their agreement
//! cannot expose a translation bug they all inherit; the reference side
//! of every negation-free comparison is therefore also checked against
//! [`oracle`], which reads the §3.2 satisfaction relation of
//! `clogic-core::structure` instead.

// Each test binary uses a subset of this module.
#![allow(dead_code)]

use clogic::core::fol::FoProgram;
use clogic::core::program::Program;
use clogic::core::structure::Structure;
use clogic::core::transform::Transformer;
use clogic::folog::builtins::builtin_symbols;
use clogic::folog::{evaluate as fixpoint, Budget, CompiledProgram, FixpointOptions};
use clogic::obs::{Json, Obs};
use clogic::parser::{parse_program, parse_query};
use clogic::session::{Answers, Session, SessionError, SessionOptions, SessionSnapshot, Strategy};
use clogic::store::{ChaosStorage, Fault, MemStorage, RetryPolicy, Storage};
use clogic_serve::protocol::get;
use clogic_serve::{ManagerOptions, Server, SessionManager, StorageFactory};
use proptest::strategy::Strategy as ProptestStrategy;
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Answers `q` by evaluating it under `strategy` on the session's current
/// snapshot (published first if a write made it stale), bypassing the
/// answer cache. `Session::query` shares that cache across strategies, so
/// a test that loops over strategies on one session would otherwise
/// evaluate only the first and serve its answers to the rest.
pub fn evaluate(s: &mut Session, q: &str, strategy: Strategy) -> Result<Answers, SessionError> {
    if s.current_snapshot().map(|snap| snap.epoch()) != Some(s.epoch()) {
        s.prepare()?;
    }
    let snap = s.current_snapshot().expect("prepare publishes");
    snap.query(q, strategy, &Budget::unlimited())
}

// ---------- the fixed program ----------

/// The queries every suite asks of the fixed program.
pub const QUERIES: &[&str] = &["t2: X", "t3: O[l2 => V]", "p(X)", "t1: X[l1 => Y]"];

/// The fixed four-chunk program: facts, molecules, a subtype
/// declaration, rules and entity-creating rules, whose head-only
/// variables mint `skN` identities on load, so equivalence checks also
/// pin skolem identity. Each chunk is one load and one epoch.
pub fn chunks() -> Vec<String> {
    [
        "t1 < t2.\nt1: c1[l1 => c2].\nt3: C[l2 => X] :- t1: X.",
        "t1: c3.\np(X) :- t1: X[l1 => Y].",
        "t2: c4[l2 => c5].\nt3: D[l1 => X] :- t2: X[l2 => Y].",
        "t1: c2[l1 => c4].\nt3: X :- t2: X.",
    ]
    .map(String::from)
    .to_vec()
}

/// Session options of every baseline: compaction after every second
/// log record, so multi-chunk runs exercise snapshotting, not just
/// appends.
pub fn opts() -> SessionOptions {
    SessionOptions {
        snapshot_every: Some(2),
        ..SessionOptions::default()
    }
}

/// The storage operations of a clean run of `run` on a persistent
/// session, counted by a chaos wrapper that never fires: the triggers
/// a fault sweep kills one by one.
pub fn clean_io_ops(run: impl FnOnce(&mut Session)) -> u64 {
    let probe = ChaosStorage::new(MemStorage::new(), 0, Fault::Fail);
    let ops = probe.op_counter();
    let (mut s, _) = Session::recover_from(Box::new(probe), opts()).expect("clean open");
    run(&mut s);
    drop(s);
    let total = ops.load(Ordering::Relaxed);
    assert!(total > 10, "probe run did too little I/O ({total} ops)");
    total
}

/// An uninterrupted in-memory session that loaded `chunks` in order.
pub fn baseline(chunks: &[String]) -> Session {
    let mut s = Session::with_options(opts());
    for c in chunks {
        s.load(c).expect("baseline load");
    }
    s
}

// ---------- the generated corpus ----------

/// One point of the corpus's feature lattice, after Hets'
/// `allSublogics`: each field switches one language feature on, and a
/// case uses only the features that are on. Every case may declare a
/// subtype chain of depth 0–2 (`t1 < t2 < t3` at 2), and its label
/// values may be constants, integers and sets of them.
#[derive(Clone, Copy, Debug)]
pub struct Features {
    /// Projection, join, predicate and type rules.
    pub rules: bool,
    /// Rules with a head-only variable, skolemized on load.
    pub entity_creating: bool,
    /// One stratified-negation rule, `flag: X :- t1: X, \+ X[l => c]`,
    /// and the query `flag: X`. It ranges over `t1` rather than the
    /// active domain `object: X`, which would make depth-first SLD
    /// recurse through the rule's own object axiom.
    pub negation: bool,
}

impl Features {
    /// Extensional databases: every fact feature, no rules.
    pub const FACTS: Features = Features {
        rules: false,
        entity_creating: false,
        negation: false,
    };
    /// Every feature but negation: the programs the §3.2 oracle reads.
    pub const RULES: Features = Features {
        rules: true,
        entity_creating: true,
        ..Features::FACTS
    };
    /// Every feature.
    pub const TOP: Features = Features {
        negation: true,
        ..Features::RULES
    };
}

const TYPES: [&str; 4] = ["t1", "t2", "t3", "object"];
const CONSTANTS: [&str; 5] = ["c1", "c2", "c3", "c4", "c5"];
const LABELS: [&str; 3] = ["l1", "l2", "l3"];

/// Non-recursive rules: no rule head feeds a body that reaches it, so
/// the termination guard stays quiet and the untabled direct engine
/// terminates. Projection rules are drawn separately, as
/// `r: X[m => V] :- t: X[l => V]`; their head labels `m1` and `m2`
/// occur in no body.
const PLAIN_RULES: [&str; 3] = [
    "p(X) :- t1: X[l1 => Y].",
    "t3: X :- t2: X.",
    "q(X, Y) :- t1: X[l1 => Z], t2: Z[l2 => Y].",
];

/// Entity-creating rules: `C` and `D` occur in no body.
const ENTITY_RULES: [&str; 3] = [
    "r1: C[m2 => X] :- t1: X.",
    "t3: C[l2 => X] :- t1: X.",
    "t3: D[l1 => X] :- t2: X[l2 => Y].",
];

/// Queries drawn for each case, besides `flag: X` under negation.
const QUERIES_PER_CASE: usize = 2;

/// One generated program and the queries drawn for it.
#[derive(Clone, Debug)]
pub struct Case {
    /// Subtype declarations and clauses.
    pub program: Program,
    /// Queries built mostly from the program's own facts and rule
    /// heads, so that most have answers; some join a fact's label
    /// pieces with a rule head's, and some range over the whole
    /// vocabulary, absent names included.
    pub queries: Vec<String>,
}

impl Case {
    /// The clauses as loadable text, one per line. It declares no
    /// subtype, so each of its lines can be retracted again.
    pub fn chunk(&self) -> String {
        self.program
            .clauses
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// [`QUERIES`] and the queries of `cases`, each once.
pub fn queries<'a>(cases: impl IntoIterator<Item = &'a Case>) -> Vec<String> {
    let mut out: Vec<String> = QUERIES
        .iter()
        .map(|q| q.to_string())
        .chain(cases.into_iter().flat_map(|c| c.queries.iter().cloned()))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The one seeded generator: cases whose programs use `features`.
/// The proptest shim seeds each property from its own name.
pub fn corpus(features: Features) -> Corpus {
    Corpus(features)
}

/// See [`corpus`].
pub struct Corpus(Features);

impl ProptestStrategy for Corpus {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        Draw { rng, f: self.0 }.case()
    }
}

/// A fact as drawn: its type, its identity and its label pairs, each
/// value one or more members.
struct Fact {
    ty: &'static str,
    id: &'static str,
    pairs: Vec<(&'static str, Vec<String>)>,
}

struct Draw<'r> {
    rng: &'r mut TestRng,
    f: Features,
}

impl Draw<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// `var` in half the draws, `value` in the other half.
    fn var_or<T>(&mut self, var: T, value: T) -> T {
        if self.one_in(2) {
            var
        } else {
            value
        }
    }

    fn case(mut self) -> Case {
        let depth = self.below(3);
        let mut lines: Vec<String> = (1..=depth).map(|i| format!("t{i} < t{}.", i + 1)).collect();
        let facts: Vec<Fact> = (0..1 + self.below(5)).map(|_| self.fact()).collect();
        lines.extend(facts.iter().map(Fact::text));
        let rules: Vec<String> = if self.f.rules {
            (0..1 + self.below(2)).map(|_| self.rule()).collect()
        } else {
            Vec::new()
        };
        lines.extend(rules.iter().cloned());
        let mut queries: Vec<String> = (0..QUERIES_PER_CASE)
            .map(|_| {
                let fact = &facts[self.below(facts.len())];
                if self.one_in(6) {
                    self.free_query()
                } else if rules.is_empty() || !self.one_in(3) {
                    self.fact_query(fact, depth)
                } else {
                    let rule = &rules[self.below(rules.len())];
                    self.rule_query(rule, fact)
                }
            })
            .collect();
        if self.f.negation {
            let (l, c) = (self.pick(&LABELS), self.pick(&CONSTANTS));
            lines.push(format!("flag: X :- t1: X, \\+ X[{l} => {c}]."));
            queries.push("flag: X".to_string());
        }
        let program = parse_program(&lines.join("\n")).expect("the corpus parses");
        Case { program, queries }
    }

    fn fact(&mut self) -> Fact {
        let ty = self.pick(&TYPES);
        let id = self.pick(&CONSTANTS);
        let pairs = (0..self.below(3))
            .map(|_| {
                let label = self.pick(&LABELS);
                let members = if self.one_in(4) {
                    vec![self.value(), self.value()]
                } else {
                    vec![self.value()]
                };
                (label, members)
            })
            .collect();
        Fact { ty, id, pairs }
    }

    fn value(&mut self) -> String {
        if self.one_in(3) {
            self.below(4).to_string()
        } else {
            self.pick(&CONSTANTS).to_string()
        }
    }

    fn rule(&mut self) -> String {
        let entity = self.f.entity_creating && self.one_in(3);
        if entity {
            return self.pick(&ENTITY_RULES).to_string();
        }
        if self.one_in(2) {
            return self.pick(&PLAIN_RULES).to_string();
        }
        let (r, m) = (self.pick(&["r1", "r2"]), self.pick(&["m1", "m2"]));
        let (t, l) = (self.pick(&TYPES[..3]), self.pick(&LABELS));
        format!("{r}: X[{m} => V] :- {t}: X[{l} => V].")
    }

    /// A query `fact` answers: its type or a supertype, its identity or
    /// `X`, and some of its label pairs.
    fn fact_query(&mut self, fact: &Fact, depth: usize) -> String {
        let mut types = vec!["object"];
        if let Some(level) = TYPES[..3].iter().position(|&t| t == fact.ty) {
            types.extend(&TYPES[level..=level.max(depth)]);
        }
        let ty = self.pick(&types);
        let id = self.var_or("X", fact.id);
        let specs = self.pieces(fact);
        molecule(ty, id, &specs)
    }

    /// Some of `fact`'s label pairs, each value kept or replaced by a
    /// variable.
    fn pieces(&mut self, fact: &Fact) -> Vec<String> {
        let mut specs = Vec::new();
        for (label, members) in &fact.pairs {
            if self.one_in(2) {
                let member = members[self.below(members.len())].clone();
                let value = self.var_or(["V", "W"][specs.len()].to_string(), member);
                specs.push(format!("{label} => {value}"));
            }
        }
        specs
    }

    /// `rule`'s head, or in half the draws its type and label joined
    /// with some of `fact`'s label pairs on `fact`'s identity or `X`:
    /// an object whose pieces the store and the rule each hold part of
    /// (§4's residuation), or that neither holds.
    fn rule_query(&mut self, rule: &str, fact: &Fact) -> String {
        let head = rule.split(" :- ").next().expect("a rule has a head");
        let Some((ty, id_specs)) = head.split_once(": ") else {
            return head.to_string(); // a predicate
        };
        if self.one_in(2) {
            return head.to_string();
        }
        let id = self.var_or("X", fact.id);
        let mut specs = self.pieces(fact);
        if let Some((_, spec)) = id_specs.split_once('[') {
            let label = spec.split(" =>").next().expect("a head label");
            specs.push(format!("{label} => U"));
        }
        molecule(ty, id, &specs)
    }

    /// A query over the whole vocabulary, absent names included.
    fn free_query(&mut self) -> String {
        let ty = self.pick(&["t1", "t2", "t3", "r1", "r2", "object"]);
        let c = self.pick(&CONSTANTS);
        let id = self.var_or("X", c);
        let specs: Vec<String> = (0..self.below(3))
            .map(|i| {
                let label = self.pick(&["l1", "l2", "l3", "m1", "m2"]);
                let c = self.pick(&CONSTANTS);
                let value = self.var_or(["V", "W"][i], c);
                format!("{label} => {value}")
            })
            .collect();
        molecule(ty, id, &specs)
    }
}

impl Fact {
    fn text(&self) -> String {
        let specs: Vec<String> = self
            .pairs
            .iter()
            .map(|(label, members)| match members.as_slice() {
                [one] => format!("{label} => {one}"),
                many => format!("{label} => {{{}}}", many.join(", ")),
            })
            .collect();
        format!("{}.", molecule(self.ty, self.id, &specs))
    }
}

/// `ty: id`, described by `specs` when there are any.
fn molecule(ty: &str, id: &str, specs: &[String]) -> String {
    if specs.is_empty() {
        format!("{ty}: {id}")
    } else {
        format!("{ty}: {id}[{}]", specs.join(", "))
    }
}

// ---------- the §2.1 path graph ----------

/// The §2.1 path rules, with path identities by endpoints.
pub const PATH_RULES: &str = r#"
    path: id(X, Y)[src => X, dest => Y] :- node: X[linkto => Y].
    path: id(X, Y)[src => X, dest => Y] :-
        node: X[linkto => Z],
        path: id(Z, Y)[src => Z, dest => Y].
"#;

/// `chains` disjoint chains of `len` edges each, nodes `c<k>n<i>`, with
/// the path rules.
pub fn disjoint_chains(chains: usize, len: usize) -> String {
    let mut text = String::from(PATH_RULES);
    for c in 0..chains {
        for i in 0..len {
            text.push_str(&format!("node: c{c}n{i}[linkto => c{c}n{}].\n", i + 1));
        }
    }
    text
}

/// Options for the path graph: its recursive rule creates `id(X, Y)`
/// objects, so the termination guard (with its fact ceiling) would cut
/// the model short; every model here is finite.
pub fn path_options(obs: &Obs) -> SessionOptions {
    let mut opts = SessionOptions {
        obs: obs.clone(),
        termination_guard: false,
        ..SessionOptions::default()
    };
    opts.fixpoint.max_facts = None;
    opts
}

/// A one-edge write: the spur `c{chain}n{node} → s{k}` to a fresh node.
pub fn spur(chain: usize, node: usize, k: usize) -> String {
    format!("node: c{chain}n{node}[linkto => s{k}].")
}

// ---------- the §3.2 oracle ----------

/// The least Herbrand structure of `fo`, a first-order translation of
/// `program`: the naive fixpoint's ground atoms, read with the
/// program's signature, plus `object`, as types and labels.
pub fn least_model_of(program: &Program, fo: &FoProgram) -> Structure {
    let compiled = CompiledProgram::compile(fo, builtin_symbols());
    let ev = fixpoint(&compiled, FixpointOptions::default()).expect("the translation evaluates");
    let mut sig = program.signature();
    // The translation introduces no new labels or types, so the
    // program's signature classifies the derived atoms.
    sig.types.insert(clogic::core::object_type());
    Structure::from_ground_atoms(&ev.ground_atoms(), &sig)
}

/// The least Herbrand structure of `program`'s *unoptimized*
/// translation.
pub fn least_model(program: &Program) -> Structure {
    least_model_of(program, &Transformer::new().program(program))
}

/// The answers to `query` in `model` by the §3.2 satisfaction relation,
/// rendered like [`Answers::rendered`]: sorted, deduplicated, and `yes`
/// for a ground hit.
fn model_answers(model: &Structure, query: &str) -> Vec<String> {
    let q = parse_query(query).expect("the oracle's query parses");
    let mut rows: Vec<String> = model
        .answers(&q)
        .iter()
        .map(|row| match row.as_slice() {
            [] => "yes".to_string(),
            bindings => bindings
                .iter()
                .map(|&(var, e)| format!("{var} = {}", model.elem_name(e)))
                .collect::<Vec<_>>()
                .join(", "),
        })
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

/// [`least_model`], which must satisfy `program`.
fn satisfying_model(program: &Program) -> Structure {
    let model = least_model(program);
    assert!(
        model.satisfies_program(program),
        "the least model must satisfy\n{program}"
    );
    model
}

/// The §3.2 oracle: `query`'s answers in the least Herbrand structure of
/// `program`, which must satisfy `program`. Pass `Session::program()`,
/// the skolemized text, so that `skN` names match the engines'. The
/// structure has no negation, so neither may `program`.
pub fn oracle(program: &Program, query: &str) -> Vec<String> {
    model_answers(&satisfying_model(program), query)
}

// ---------- the equivalence assert ----------

/// Something that answers queries over a program, as rendered answers.
pub trait Served {
    /// `query`'s rendered answers under `strategy`.
    fn answers(&mut self, query: &str, strategy: Strategy) -> Vec<String>;
}

impl Served for &mut Session {
    fn answers(&mut self, query: &str, strategy: Strategy) -> Vec<String> {
        evaluate(self, query, strategy)
            .unwrap_or_else(|e| panic!("{strategy:?} on {query}: {e}"))
            .rendered()
    }
}

impl Served for &SessionSnapshot {
    fn answers(&mut self, query: &str, strategy: Strategy) -> Vec<String> {
        self.query(query, strategy, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{strategy:?} on {query}: {e}"))
            .rendered()
    }
}

impl Served for &Server {
    fn answers(&mut self, query: &str, strategy: Strategy) -> Vec<String> {
        self.query(query, strategy)
            .unwrap_or_else(|e| panic!("served {strategy:?} on {query}: {e}"))
            .rendered()
    }
}

/// A manager's named tenant.
pub struct Tenant<'a>(pub &'a SessionManager, pub &'a str);

impl Served for Tenant<'_> {
    fn answers(&mut self, query: &str, strategy: Strategy) -> Vec<String> {
        self.0
            .query(self.1, query, strategy)
            .unwrap_or_else(|e| panic!("tenant {} {strategy:?} on {query}: {e}", self.1))
            .rendered()
    }
}

/// A session that answers every query under one strategy, whichever
/// is asked: the other side when strategies are compared with each
/// other on one program.
pub struct Under<'a>(pub &'a mut Session, pub Strategy);

impl Served for Under<'_> {
    fn answers(&mut self, query: &str, _: Strategy) -> Vec<String> {
        (&mut *self.0).answers(query, self.1)
    }
}

/// The one equivalence assert: under each of `strategies`, `got`
/// answers each of `queries` exactly as `reference` does under the
/// same strategy. The reference answers must be complete and, when
/// the reference program has no negation, equal the [`oracle`]'s.
pub fn assert_answers(
    mut got: impl Served,
    reference: &mut Session,
    strategies: &[Strategy],
    queries: &[impl AsRef<str>],
    context: &str,
) {
    let program = reference.program().clone();
    let negation = program.clauses.iter().any(|c| c.has_negation());
    let model = (!negation).then(|| satisfying_model(&program));
    for q in queries {
        let q = q.as_ref();
        let oracle = model.as_ref().map(|m| model_answers(m, q));
        for &strategy in strategies {
            let want = evaluate(reference, q, strategy)
                .unwrap_or_else(|e| panic!("reference {strategy:?} on {q} ({context}): {e}"));
            assert!(
                want.complete,
                "reference {strategy:?} on {q} is incomplete ({context})"
            );
            if let Some(oracle) = &oracle {
                let mut sorted = want.rendered();
                sorted.sort();
                assert_eq!(
                    &sorted, oracle,
                    "reference {strategy:?} on {q} disagrees with the §3.2 oracle ({context})\n{program}"
                );
            }
            assert_eq!(
                got.answers(q, strategy),
                want.rendered(),
                "{strategy:?} on {q} ({context})\n{program}"
            );
        }
    }
}

/// A session's epoch and program text; the text pins its `skN`
/// identities.
pub fn state(s: &Session) -> (u64, String) {
    (s.epoch(), s.program().to_string())
}

/// Asserts that `got`, in state `got_state`, cannot be told from
/// `reference`: the same [`state`], and the same answers to `queries`
/// under every strategy.
pub fn assert_equivalent(
    got_state: (u64, String),
    got: impl Served,
    reference: &mut Session,
    queries: &[impl AsRef<str>],
    context: &str,
) {
    assert_eq!(
        got_state,
        state(reference),
        "epoch, program and skolem identities ({context})"
    );
    assert_answers(got, reference, &Strategy::ALL, queries, context);
}

// ---------- serving fixtures ----------

/// A retry policy fast enough for fault sweeps: three retries with
/// 1–4 ms backoff, and a breaker that opens after two consecutive
/// failed operations and lets a probe through after two rejections.
pub fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        breaker_threshold: 2,
        probe_after: 2,
    }
}

/// A factory handing each tenant its own `MemStorage`, stable across
/// evictions (clones share bytes).
pub fn mem_factory() -> StorageFactory {
    let stores = Arc::new(Mutex::new(HashMap::<String, MemStorage>::new()));
    Arc::new(move |name| {
        let mut stores = stores.lock().unwrap();
        Ok(Box::new(stores.entry(name.to_string()).or_default().clone()) as Box<dyn Storage>)
    })
}

/// Manager options over [`opts`] and [`fast_policy`], recording into
/// `obs`, with backoff that never sleeps.
pub fn manager_opts(obs: &Obs, capacity: usize) -> ManagerOptions {
    ManagerOptions {
        capacity,
        retry: fast_policy(),
        session: SessionOptions {
            obs: obs.clone(),
            ..opts()
        },
        sleeper: Arc::new(|_| {}),
    }
}

/// The answer rows of a wire query response, rendered like
/// [`Answers::rendered`].
pub fn wire_rows(resp: &Json) -> Vec<String> {
    let Some(Json::Array(rows)) = get(resp, "rows") else {
        panic!("rows missing in {resp}");
    };
    rows.iter()
        .map(|row| match row {
            Json::Object(fields) if fields.is_empty() => "yes".to_string(),
            Json::Object(fields) => fields
                .iter()
                .map(|(var, v)| match v {
                    Json::Str(term) => format!("{var} = {term}"),
                    other => format!("{var} = {other}"),
                })
                .collect::<Vec<_>>()
                .join(", "),
            other => panic!("row is not an object: {other}"),
        })
        .collect()
}
