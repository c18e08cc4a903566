//! # polymix-runtime
//!
//! The library-level parallel runtime backing the paper's Sec. IV-D
//! extensions, used by examples and benchmarked directly (Fig. 6):
//!
//! * [`doall`] — a static-block scheduler for fully parallel loops (the
//!   `omp parallel for` analogue);
//! * [`reduction`] — array reductions with thread-private accumulators
//!   (the proposed C array-reduction extension);
//! * [`pipeline`] — point-to-point cross-iteration synchronization over a
//!   2-D grid (the `#pragma omp await source(i-1,j) source(i,j-1)`
//!   proposal), plus the [`pipeline::wavefront_2d`] executor it is compared
//!   against in Fig. 6;
//! * [`taskgraph`] — dependence counters over tiles for cones the two
//!   fixed-shape executors cannot express.
//!
//! The crate has **one configuration**: no Cargo features, no
//! environment variables, and one setting — the watchdog deadline of
//! the two primitives that can wait.
//!
//! Workers come from a process-wide **persistent pool** (`pool.rs`):
//! threads are spawned on first use and parked between jobs, so
//! sweep-shaped workloads (thousands of small-grid invocations) pay the
//! thread-spawn cost once instead of per call. Only a gang the pool
//! cannot field (cap reached, thread spawn refused) runs on scoped
//! threads spawned for the call. Doall ranges and pipeline columns are
//! split into one static block per worker ([`partition`]); the
//! pipeline's publish batch follows from the grid shape; waiters spin a
//! fixed 1024 turns before yielding.
//!
//! ## Fault tolerance
//!
//! Every primitive returns `Result<RunStats, RuntimeError>`. A worker
//! panic is caught at the worker boundary and broadcast as a poison
//! value through the progress counters, so no waiter spins forever on a
//! dead neighbor; the primitive reports
//! [`RuntimeError::WorkerPanic`] after all workers joined. Arming
//! [`RuntimeOptions::watchdog`] (off by default — hot paths pay
//! nothing) additionally converts a wedged pipeline or tile graph into
//! a diagnostic [`RuntimeError::Stalled`] listing the cells that never
//! advanced. Adversarial grids whose extents overflow `i64` arithmetic
//! are refused with [`RuntimeError::Misuse`].
//!
//! Two always-compiled modules of *body adapters* test this machinery
//! from the outside — they wrap the cell body, so the primitives carry
//! no hooks and the same adapters run over [`kernel_rt`]:
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
mod pool;
#[cfg(test)]
mod proptests;
pub mod reduction;
pub mod schedule;
mod sync;
pub mod taskgraph;

pub use doall::par_for;
pub use error::{RunStats, RuntimeError, RuntimeOptions};
pub use pipeline::{pipeline_2d, pipeline_2d_opts, wavefront_2d, GridSweep};
pub use reduction::reduce_array;
pub use schedule::{partition, Partition};
pub use sync::{CachePadded, POISON};
pub use taskgraph::{taskgraph_2d, taskgraph_2d_opts, TileGraph};
