//! # polymix-pluto
//!
//! The baseline optimizer — a reimplementation of the *behaviour* of the
//! PoCC/Pluto toolchain the paper compares against (its `pocc`,
//! `pocc+vect` and `iterative` experimental variants):
//!
//! * a level-by-level scheduler that **minimizes reuse distance** subject
//!   to legality, searching small candidate hyperplane sets (original
//!   iterators plus pairwise sums, i.e. skewed hyperplanes) — the
//!   restriction of Pluto's Farkas/ILP search that suffices to reproduce
//!   Pluto's output shapes on PolyBench (see DESIGN.md);
//! * **max-fuse** and **smart-fuse** fusion heuristics;
//! * rectangular tiling of the permutable bands it constructs, wavefront
//!   parallelization of the tile loops when no outer tile loop is doall,
//!   and optional register tiling by unroll-and-jam marks (`vect`);
//! * an `iterative` mode that enumerates fusion structures and returns
//!   every variant, for auto-tuning by the harness.
//!
//! In contrast to `polymix-core`'s flow, everything here — including
//! skewing — happens *inside* the schedule, which is exactly what
//! produces the complex loop structures (Fig. 2) the paper's approach
//! avoids.

pub mod optimizer;
pub mod scheduler;

pub use optimizer::{optimize_pluto, PlutoOptions, PlutoVariant};
pub use scheduler::{schedule_pluto, schedule_with_fallback, FallbackSchedule, Fusion};
