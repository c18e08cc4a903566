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
//! * [`backend`] — the measurement-backend seam (`--backend
//!   rustc|vm|both`): the rustc round trip above, or the `polymix-vm`
//!   bytecode interpreter measuring the same program in-process at a
//!   fraction of the per-cell cost, with the backend recorded in every
//!   results row;
//! * [`sweep`] — the crash-safe parallel sweep executor: a bounded
//!   worker pool pipelining emit→compile→run over (kernel, variant,
//!   dataset) jobs, with an exactly-once atomic binary cache, per-stage
//!   timeouts, transient-failure retries, and an append-only JSONL
//!   results log that makes interrupted sweeps resumable (`--jobs`,
//!   `--measure-jobs`, `--results`);
//! * [`report`] — plain-text table rendering for the `fig*`/`table*`
//!   binaries;
//! * [`autotune`] — the closed-loop tuner (`tune` binary): a
//!   measured-feedback search over fusion structure × tile sizes ×
//!   unroll factors, pruned by the cache model before
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

pub use autotune::{autotune_kernel, default_tuned_path, TuneOutcome, TunedConfig};
pub use backend::{select_backends, Backend, RustcBackend, VmBackend};
pub use report::Table;
pub use runner::{compile_and_run, compile_and_run_with, RunResult, Runner};
pub use sweep::{run_sweep, JobOutcome, JobWork, SweepConfig, SweepJob};
pub use variants::{build_variant, variant_list, Variant};
