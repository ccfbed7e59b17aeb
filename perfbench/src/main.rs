//! perfbench — the clogic end-to-end benchmark.
//!
//! ```text
//! perfbench run  --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench plan --workload <name> --seed <n>
//! ```
//!
//! `run` sets the workload up, drives its closed loop for `--seconds`,
//! checks every answer and prints one JSON result line last on stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `plan` prints digests of the op sequence and of the
//! expected answers the seed generates, without running anything (the
//! determinism self-check of `run.py` compares them). Workloads and
//! metrics are described in README.md next to this crate.

mod counting;
mod durable;
mod goal;
mod report;
mod speed;
mod trace;
mod wire;

use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

pub const WORKLOADS: [&str; 3] = ["wire_lookup", "goal_query", "durable_update"];

/// Parsed command line of `run`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    /// Where a trace run writes its spans, relative to the working
    /// directory (the repository checkout).
    pub fn span_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// The op-sequence generator of one workload's plan (`stream` tells the
/// workloads apart). Same seed, same sequence.
pub fn plan_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut SmallRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// FNV-1a, for the plan digests.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        // separator, so ["ab","c"] and ["a","bc"] differ
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn workload(args: &[String]) -> Result<String, String> {
    let w = flag(args, "--workload")?;
    if WORKLOADS.contains(&w) {
        Ok(w.to_string())
    } else {
        Err(format!(
            "unknown workload {w:?} (want one of {WORKLOADS:?})"
        ))
    }
}

fn seed(args: &[String]) -> Result<u64, String> {
    flag(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "wire_lookup" => wire::run(args),
        "goal_query" => goal::run(args),
        "durable_update" => durable::run(args),
        _ => unreachable!("validated"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => (|| {
            let args = Args {
                workload: workload(&argv)?,
                seed: seed(&argv)?,
                seconds: Duration::from_secs_f64(
                    flag(&argv, "--seconds")?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                ),
                trace: match flag(&argv, "--trace")? {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
                },
            };
            let report = run(&args)?;
            if report.attempted == 0 {
                return Err("no op was attempted".to_string());
            }
            println!("{}", report.to_json(args.trace));
            Ok(())
        })(),
        Some("plan") => (|| {
            let w = workload(&argv)?;
            let s = seed(&argv)?;
            let (ops, answers) = match w.as_str() {
                "wire_lookup" => wire::Plan::new(s).digests(),
                "goal_query" => goal::Plan::new(s).digests(),
                _ => durable::Plan::new(s).digests(),
            };
            println!("{w} seed={s} ops={} answers={}", ops.hex(), answers.hex());
            Ok(())
        })(),
        _ => Err(
            "usage: perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                  \x20      perfbench plan --workload <name> --seed <n>"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
