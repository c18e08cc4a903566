//! # polymix-ast
//!
//! The syntactic (AST-level) half of the polymix optimizer (Sec. IV of the
//! paper): a concrete loop-tree representation plus the transformations
//! the paper applies *outside* the polyhedral framework —
//!
//! * [`tree`] — loop AST: loops with `max`/`min` affine bounds, guards,
//!   statement instances carrying the (inverse-schedule) iterator
//!   expressions, and parallelism annotations;
//! * [`transforms`] — loop skewing, strip-mining, interchange and
//!   rectangular band tiling (register tiling is a `jam` mark on a loop,
//!   which the emitter realizes);
//! * [`separate`] — guard separation: guards the loop bounds decide are
//!   dropped, and a loop a guard splits is split at its threshold;
//! * [`parallel`] — the doall / pipeline / reduction parallelism detector
//!   of Sec. IV-A, driven by dependence vectors;
//! * [`interp`] — a reference interpreter executing any program tree on
//!   concrete arrays; it is the workspace's semantic-equivalence oracle
//!   and the trace source for the cache simulator;
//! * [`pretty`] — a stable text rendering used by snapshot tests.

pub mod interp;
pub mod parallel;
pub mod pretty;
pub mod separate;
pub mod transforms;
pub mod tree;

pub use interp::{alloc_arrays, execute, execute_traced, AccessEvent};
pub use parallel::{classify_level_in_nest, outermost_parallel};
pub use tree::{Bound, LinExpr, Loop, Node, Par, Program, StmtNode};
