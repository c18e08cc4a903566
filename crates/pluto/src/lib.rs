//! # polymix-pluto
//!
//! The baseline optimizer — a reimplementation of the *behaviour* of the
//! PoCC/Pluto toolchain the paper compares against (its `pocc`,
//! `pocc+vect` and `iterative` experimental variants):
//!
//! * a level-by-level scheduler that picks, among legal candidate rows,
//!   the combination **minimizing the estimated reuse distance** —
//!   original iterators plus pairwise sums (skewed hyperplanes), repaired
//!   by adding multiples of fixed rows; every constant shift (γ) is zero,
//!   so it does no retiming. This restriction of Pluto's Farkas/ILP
//!   search reproduces Pluto's output shapes on most of PolyBench (see
//!   DESIGN.md);
//! * the **max-fuse**, **smart-fuse** and **no-fuse** fusion heuristics
//!   ([`Fusion`], [`PlutoOptions::fusion`]);
//! * rectangular tiling of the permutable bands it constructs, wavefront
//!   parallelization of the tile loops when no outer tile loop is doall,
//!   and optional register tiling by unroll-and-jam marks
//!   ([`PlutoOptions::unroll`]; `pocc+vect` is smart-fuse at (2, 2)).
//!
//! PoCC's `iterative` mode is the harness's: it builds one program per
//! fusion heuristic and reports the best (`polymix_bench::figures`).
//!
//! In contrast to `polymix-core`'s flow, everything here — including
//! skewing — happens *inside* the schedule, which is exactly what
//! produces the complex loop structures (Fig. 2) the paper's approach
//! avoids.

pub mod optimizer;
pub mod scheduler;

pub use optimizer::{optimize_pluto, PlutoOptions};
pub use scheduler::{schedule_pluto, schedule_with_fallback, FallbackSchedule, Fusion};
