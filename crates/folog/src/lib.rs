//! # folog — a first-order definite-clause engine
//!
//! The deductive substrate for C-logic (Chen & Warren, PODS 1989): the
//! paper's Theorem 1 turns complex-object programs into first-order
//! definite clauses and appeals to "known query evaluation techniques,
//! including both bottom-up and top-down methods". This crate provides
//! those methods, built from scratch:
//!
//! * hash-consed ground terms ([`ground`]) and dense-variable runtime
//!   terms ([`rterm`]);
//! * unification with a trailed binding store ([`mod@unify`]);
//! * interned columnar fact storage with lazy argument-pattern indices
//!   ([`facts`]);
//! * compiled programs with per-position argument clause indexing
//!   ([`program`]);
//! * naive and semi-naive bottom-up fixpoints ([`bottom_up`]);
//! * depth-first SLD resolution with resource limits ([`sld`]);
//! * tabled evaluation that terminates on recursive programs over cyclic
//!   data ([`tabling`]);
//! * the magic-sets transformation for goal-directed bottom-up runs
//!   ([`magic`]);
//! * arithmetic and comparison built-ins ([`builtins`]);
//! * incremental retraction via a DRed delete-rederive pass
//!   ([`retract`]).

#![warn(missing_docs)]

pub mod bottom_up;
pub mod budget;
pub mod builtins;
pub mod facts;
pub mod ground;
pub mod magic;
pub mod program;
pub mod retract;
pub mod rterm;
pub mod sld;
pub mod tabling;
pub mod unify;

pub use bottom_up::{evaluate, evaluate_delta, Evaluation, FixpointOptions, FixpointStats, Strategy};
pub use budget::{Budget, BudgetMeter, CancelToken, Degradation, TripKind};
pub use facts::{FactStore, IndexKey, IndexMode, IndexStats};
pub use ground::{GroundAtom, GroundTerm, TermId, TermStore};
pub use program::{ClauseOverlay, ClauseView, CompiledProgram, Rule};
pub use retract::{retract_facts, RetractStats};
pub use rterm::{RAtom, RTerm};
pub use sld::{SldEngine, SldOptions, SldResult, SldStats};
pub use unify::{mgu, unify, Bindings};

/// The distinguished top-type symbol name (see `clogic_core::hierarchy`).
pub const OBJECT_TYPE_NAME: &str = clogic_core::hierarchy::OBJECT_TYPE;
