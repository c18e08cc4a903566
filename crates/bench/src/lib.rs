//! # polymix-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (see DESIGN.md's experiment index):
//!
//! * [`variants`] — the experimental variants of Sec. V-A (`native`,
//!   `pocc`, `pocc+vect`, `iterative`, `iterative+vect`, `poly+ast`, …)
//!   as functions from kernel to optimized [`polymix_ast::tree::Program`];
//! * [`runner`] — the source-to-source measurement pipeline: emit a
//!   standalone Rust program, compile it with `rustc -O`, run it, parse
//!   checksum / time / GFLOP/s (the reproduction's analogue of "compile
//!   with ICC and run on the testbed");
//! * [`backend`] — the `polymix-vm` bytecode interpreter measuring the
//!   same program in-process at a fraction of the per-cell cost: the
//!   tuner's screen (tables and figures measure compiled code only);
//! * [`sweep`] — the crash-safe parallel sweep executor over (kernel,
//!   variant, dataset) jobs: a bounded worker pool emits and compiles
//!   every job into an exactly-once atomic binary cache, then the jobs
//!   are measured one at a time, with per-stage timeouts,
//!   transient-failure retries, and an append-only JSONL results log
//!   that makes interrupted sweeps resumable (`--jobs`, `--results`);
//! * [`figures`] — the GF/s grid every measuring table and figure
//!   shares: one function makes a measured cell's job, one renders its
//!   outcome as a cell, and Figs. 7–9 run through it whole;
//! * [`report`] — plain-text table rendering for the `fig*`/`table*`
//!   binaries, and the one command-line parser every binary declares
//!   its flags to;
//! * [`autotune`] — the closed-loop tuner (`tune` binary): a
//!   measured-feedback search over fusion structure × tile sizes ×
//!   unroll factors, ranked by a structural score before
//!   compilation and driven through the resumable sweep executor.
//!
//! Each binary under `src/bin/` regenerates one table or figure; run e.g.
//!
//! ```text
//! cargo run --release -p polymix-bench --bin fig7 -- --dataset small
//! ```

pub mod autotune;
pub mod backend;
pub mod figures;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod variants;

pub use autotune::{autotune_kernel, TuneOutcome, TunedConfig};
pub use report::Table;
pub use runner::{compile_and_run, RunResult, Runner};
pub use sweep::{run_sweep, JobOutcome, JobWork, SweepConfig, SweepJob};
pub use variants::{build_variant, variant_list, Variant};
