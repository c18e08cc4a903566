//! # polymix-math
//!
//! Exact integer linear algebra and affine integer set machinery
//! for the polymix polyhedral compiler.
//!
//! This crate is the "thin ISL" substrate of the workspace: instead of
//! binding to the Integer Set Library, we reimplement the slice of
//! polyhedral arithmetic the rest of the stack needs:
//!
//! * [`IntMat`] — dense integer matrices with fraction-free rank,
//!   determinant and (unimodular) inverse in checked `i128`,
//! * [`AffineExpr`] and [`Constraint`] — affine forms over an ordered list
//!   of dimensions plus a constant column,
//! * [`Polyhedron`] — conjunctions of affine constraints with
//!   Fourier–Motzkin elimination, projection, emptiness tests, bound
//!   extraction for code generation, and point sampling for tests,
//! * [`memo`] — a call-scoped memo for the emptiness and sampling
//!   oracles, so one optimizer or certifier call asks each question once.
//!
//! All PolyBench static control parts have loop bounds and subscripts with
//! coefficients in a tiny range, so exact-shadow Fourier–Motzkin (with a
//! GCD lattice test on equalities) is an *exact* integer emptiness test for
//! every set this workspace constructs; for general inputs it degrades to a
//! sound, conservative test (it may report a rationally-nonempty but
//! integer-empty set as nonempty, which can only suppress transformations,
//! never enable illegal ones).

pub mod fm;
pub mod gcd;
pub mod matrix;
pub mod memo;
pub mod poly;

pub use gcd::{gcd, gcd_slice, lcm, normalize_row};
pub use matrix::IntMat;
pub use poly::{AffineExpr, CmpOp, Constraint, ConstraintRef, Polyhedron};

#[cfg(test)]
mod proptests;
