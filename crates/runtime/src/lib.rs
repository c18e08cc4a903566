//! # polymix-runtime
//!
//! The parallel runtime behind the paper's Sec. IV-D extensions, in one
//! implementation: [`kernel_rt`], the file every emitted kernel carries,
//! and five safe wrappers over its entry points for in-process callers
//! (`fig6`, `examples/stencil_pipeline.rs` and the benchmark's probes):
//!
//! * [`par_for`] — the doall (`omp parallel for`), static blocks;
//! * [`reduce_array`] — array reductions with thread-private
//!   accumulators (the proposed C array-reduction extension);
//! * [`pipeline_2d`] — point-to-point cross-iteration synchronization
//!   over a 2-D grid (the `#pragma omp await source(i-1,j) source(i,j-1)`
//!   proposal), and [`wavefront_2d`], the diagonal executor it is
//!   compared against in Fig. 6;
//! * [`taskgraph_2d`] — the wavefront for any lexicographically positive
//!   set of dependence vectors (weighted diagonals).
//!
//! The crate has **one configuration**: no Cargo feature, no environment
//! variable, no setting. Only `kernel_rt` starts workers: every call
//! scopes its own and joins them before it returns, so nothing outlives
//! a call.
//!
//! ## Fault tolerance
//!
//! Every wrapper returns `Result<(), RuntimeError>`. A worker panic is
//! caught at the worker boundary and flooded as a poison value through
//! the call's own progress counters, so no waiter spins forever on a
//! dead neighbor; the wrapper reports [`RuntimeError::WorkerPanic`] with
//! the cell whose body panicked, after all workers joined. A failed
//! reduction leaves its target untouched. The failure belongs to the
//! call: the next call in the same process runs normally. Grids and
//! ranges whose extents overflow `i64` arithmetic are refused with
//! [`RuntimeError::Misuse`].
//!
//! Two always-compiled modules of *body adapters* test this machinery
//! from the outside — they wrap the cell body, so the entry points carry
//! no hooks:
//!
//! * [`fault_inject`] — a [`fault_inject::FaultPlan`] value puts seeded
//!   per-cell delays, adversarial yields, a finite stall at a chosen
//!   cell or a panic at a chosen cell in front of a body, and owns the
//!   trace of what it did;
//! * [`order_check`] — an [`order_check::OrderChecker`] shadows a grid
//!   and asserts each executed cell observed its sources under a given
//!   set of dependence vectors.
//!
//! ## Emitted kernels
//!
//! Standalone programs emitted by `polymix-codegen` cannot link this
//! crate (they must compile with plain `rustc`). They carry
//! [`kernel_rt`] instead: one self-contained file, compiled and tested
//! here, pasted verbatim there.

pub mod doall;
pub mod error;
pub mod fault_inject;
pub mod kernel_rt;
pub mod order_check;
pub mod pipeline;
#[cfg(test)]
mod proptests;
pub mod reduction;

pub use doall::par_for;
pub use error::RuntimeError;
pub use pipeline::{pipeline_2d, taskgraph_2d, wavefront_2d, GridSweep};
pub use reduction::reduce_array;
