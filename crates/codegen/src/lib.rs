//! # polymix-codegen
//!
//! Code generation for polymix, in two halves:
//!
//! * [`from_poly`] — the CLooG-lite polyhedral code generator: turns a
//!   SCoP plus one `2d+1` schedule per statement into a loop AST
//!   ([`polymix_ast::Program`]). Loop bounds come from Fourier–Motzkin
//!   projection of each statement's transformed domain; statement
//!   interleaving follows the β-tree; statements whose domains are
//!   narrower than the fused loop's union bounds receive residual guards
//!   (instead of CLooG's polyhedral separation — see DESIGN.md).
//! * [`emit`] — the Rust backend: renders a program (optionally with
//!   parallel annotations) as a standalone `main.rs` that allocates and
//!   initializes arrays, runs the kernel under `std::time`, and prints a
//!   checksum plus GFLOP/s. Doall loops become chunked scoped threads,
//!   reduction loops use thread-private accumulators, and pipeline loop
//!   pairs become column-block point-to-point synchronization — the
//!   runtime constructs of Sec. IV-D, inlined so the generated file
//!   compiles with plain `rustc -O`.

pub mod emit;
pub mod from_poly;
pub mod opt;

pub use emit::{emit_rust, EmitOptions};
pub use from_poly::{generate, original_program};
pub use opt::{
    jam_nest, loop_levels, mark_parallelism, nest_infos, register_tile, run_nests, skew_nest_for_tilability, NestInfo,
};
