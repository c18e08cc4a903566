//! # polymix-runtime
//!
//! The library-level parallel runtime backing the paper's Sec. IV-D
//! extensions, used by examples and benchmarked directly (Fig. 6):
//!
//! * [`doall`] — a chunked scoped-thread scheduler for fully parallel
//!   loops (the `omp parallel for` analogue);
//! * [`reduction`] — array reductions with thread-private accumulators
//!   (the proposed C array-reduction extension);
//! * [`pipeline`] — point-to-point cross-iteration synchronization over a
//!   2-D grid (the `#pragma omp await source(i-1,j) source(i,j-1)`
//!   proposal), plus the [`pipeline::wavefront_2d`] executor it is compared
//!   against in Fig. 6.
//!
//! Workers come from a process-wide **persistent pool** (`pool.rs`):
//! threads are spawned on first use and parked between jobs, so
//! sweep-shaped workloads (thousands of small-grid invocations) pay the
//! thread-spawn cost once instead of per call. A job that the pool
//! cannot field — or an explicit [`PoolPolicy::SpawnPerCall`] — falls
//! back to the original `std::thread::scope` spawn-per-call path.
//! Scheduling stays explicit (no work stealing): static blocks by
//! default, atomic chunk-claiming ([`Schedule::Dynamic`]) for
//! triangular/skewed spaces, matching the hybrid static/dynamic
//! schedules of the tiled-polyhedral literature.
//!
//! ## Fault tolerance
//!
//! Every primitive returns `Result<RunStats, RuntimeError>`. A worker
//! panic is caught at the worker boundary and broadcast as a poison
//! value through the progress counters, so no waiter spins forever on a
//! dead neighbor; the primitive reports
//! [`RuntimeError::WorkerPanic`] after all workers joined. Arming
//! [`RuntimeOptions::watchdog`] (off by default — hot paths pay
//! nothing) additionally converts a wedged pipeline into a diagnostic
//! [`RuntimeError::Stalled`] listing the cells that never advanced.
//! Adversarial grids whose extents overflow `i64` arithmetic are
//! refused with [`RuntimeError::Misuse`].
//!
//! Two cargo features support testing this machinery:
//!
//! * `fault-inject` — deterministic seeded fault injection
//!   ([`fault_inject`]): per-cell delays, adversarial yields, a finite
//!   stall at a chosen cell, a panic at a chosen cell.
//! * `order-check` — a dynamic dependence-order checker
//!   ([`order_check`]) asserting each executed cell observed its
//!   `(i-1, j)`/`(i, j-1)` sources.
//!
//! ## Emitted kernels
//!
//! Standalone programs emitted by `polymix-codegen` cannot link this
//! crate (they must compile with plain `rustc`). They carry
//! [`kernel_rt`] instead: one self-contained file, compiled and tested
//! here, pasted verbatim there.

pub mod doall;
pub mod error;
pub mod kernel_rt;
#[cfg(test)]
mod proptests;
pub mod order_check;
pub mod pipeline;
mod pool;
pub mod reduction;
pub mod schedule;
mod sync;
pub mod taskgraph;

#[cfg(feature = "fault-inject")]
pub mod fault_inject;

/// No-op stand-ins compiled when `fault-inject` is off, so the
/// primitives can call the hooks unconditionally at zero cost.
#[cfg(not(feature = "fault-inject"))]
pub(crate) mod fault_inject {
    #[inline(always)]
    pub(crate) fn before_cell(_i: i64, _j: i64) {}
    #[inline(always)]
    pub(crate) fn on_wait() {}
    #[inline(always)]
    pub(crate) fn before_worker(_slot: usize) {}
}

pub use doall::{par_for, par_for_chunked, par_for_chunked_opts, par_for_opts};
pub use error::{PoolPolicy, RunStats, RuntimeError, RuntimeOptions};
pub use pipeline::{pipeline_2d, pipeline_2d_opts, wavefront_2d, wavefront_2d_opts, GridSweep};
pub use reduction::{reduce_array, reduce_array_opts};
pub use schedule::{partition, Partition, Schedule};
pub use sync::{CachePadded, POISON};
pub use taskgraph::{taskgraph_2d, taskgraph_2d_opts, TileGraph};
