//! # polymix-deps
//!
//! Data-dependence analysis for polymix SCoPs — the reimplementation of
//! the Candl-style machinery the paper relies on (Sec. III-A):
//!
//! * [`depgraph`] builds *dependence polyhedra* for every pair of
//!   conflicting accesses and assembles the polyhedral dependence
//!   multigraph (**PoDG**),
//! * [`scc`] computes strongly connected components of the PoDG restricted
//!   to unsatisfied edges (the grouping Algorithm 2 recurses over),
//! * [`legality`] checks candidate schedule rows against dependence
//!   polyhedra and *peels* satisfied instances level by level — the one
//!   walk ([`Peeling`]) both schedulers fix their rows through, which also
//!   holds the schedule under construction and builds every `Schedule`,
//! * [`vectors`] extracts dependence distance/direction vectors of the
//!   transformed code, feeding the AST stage's parallelism detector and
//!   skewing/tiling legality tests (Sec. IV-A/B).
//!
//! ## Dependence-space layout
//!
//! A dependence from source statement `R` (depth `dR`) to target `S`
//! (depth `dS`) lives in the space `[x_R | y_S | params]` with an implicit
//! trailing constant column in constraint rows.

pub mod depgraph;
pub mod legality;
pub mod scc;
pub mod vectors;

pub use depgraph::{build_podg, Dep, DepKind, Podg};
pub use legality::{apply_beta, apply_loop_row, DepState, Peeling, RowEffect};
pub use scc::sccs;
pub use vectors::{dep_records, DepElem, NestDep};
