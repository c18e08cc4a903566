//! # polymix-polybench
//!
//! The PolyBench/C 3.2 kernel suite (the 22 benchmarks of the paper's
//! Table II), each provided as:
//!
//! * a **SCoP builder** producing the polyhedral IR the optimizers
//!   consume,
//! * a **native Rust reference implementation** mirroring the original C
//!   loop nests statement-for-statement — the semantic gold standard the
//!   interpreter-based equivalence tests compare against,
//! * a **FLOP formula** (the same closed forms PolyBench's own GFLOP/s
//!   reporting uses),
//! * **datasets** (mini / small / standard / large) scaled so that `mini`
//!   suits exhaustive interpretation and `standard` suits wall-clock
//!   benchmarking on one machine (see EXPERIMENTS.md for the mapping to
//!   the paper's sizes),
//! * a deterministic **initialization** shared between the reference
//!   runner and emitted standalone programs. Scalar temporaries of the
//!   original C (e.g. cholesky's `x`, symm's `acc`) are expanded into
//!   arrays, the standard scalar-expansion preprocessing polyhedral
//!   tools apply; `alpha`/`beta` constants are inlined as literals.

pub mod kernel;
pub mod kernels_blas;
pub mod kernels_extended;
pub mod kernels_solver;
pub mod kernels_stat;
pub mod kernels_stencil;
pub mod suite;

pub use kernel::{checksum, Dataset, Group, InitSpec, Kernel};
pub use suite::{all_kernels, extended_kernels, kernel_by_name};
