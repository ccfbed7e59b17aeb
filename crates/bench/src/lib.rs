//! # clogic-bench — workload generators and the experiment harness
//!
//! The paper is purely theoretical, so the experiments (E1–E9 in
//! DESIGN.md) reproduce its *performance claims* rather than numeric
//! tables. This crate provides deterministic workload generators — graph
//! databases for the `path` rules, synthetic complex-object stores,
//! scaled grammar programs, type-hierarchy ladders — plus the measurement
//! plumbing shared by the `experiments` binary, which prints the
//! EXPERIMENTS.md tables, and the `BENCH_*.json` harnesses under
//! `benches/`.

#![warn(missing_docs)]

pub mod grammar;
pub mod graphs;
pub mod measure;
pub mod objects;
pub mod typed;
