//! Doall execution over the persistent worker pool: one contiguous
//! block of the range per worker (the `schedule(static)` OpenMP
//! analogue; see [`crate::schedule::partition`]).
//!
//! Worker panics are contained at the worker boundary: the failing
//! worker records a [`RuntimeError::WorkerPanic`] (first failure wins)
//! and the primitive returns it after every worker has joined. Doall
//! workers never wait on each other, so no poison broadcast is needed —
//! the surviving workers simply finish their bounded spans.

use crate::error::{RunStats, RuntimeError};
use crate::pool;
use crate::schedule::{partition, Partition};
use crate::sync::{payload_text, Fabric};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `body(i)` for every `i` in `lo..hi` across `threads` workers with
/// a static block distribution.
///
/// `body` only receives disjoint indices, so it may mutate shared state
/// partitioned by `i`; Rust-level sharing is the caller's problem — the
/// closure must be `Sync` (it is called concurrently from many threads).
pub fn par_for<F>(lo: i64, hi: i64, threads: usize, body: F) -> Result<RunStats, RuntimeError>
where
    F: Fn(i64) + Sync,
{
    doall_cells(lo, hi, threads, |i| (i, 0), body)
}

/// [`par_for`] generalized with a mapping from the flat index to the
/// logical grid cell reported in diagnostics — the wavefront executor
/// runs diagonals through this.
pub(crate) fn doall_cells<C, F>(
    lo: i64,
    hi: i64,
    threads: usize,
    cell_of: C,
    body: F,
) -> Result<RunStats, RuntimeError>
where
    C: Fn(i64) -> (i64, i64) + Sync,
    F: Fn(i64) + Sync,
{
    let n = match hi.checked_sub(lo) {
        Some(n) => n,
        None => {
            return Err(RuntimeError::Misuse(format!(
                "index range [{lo}, {hi}) overflows i64 arithmetic"
            )))
        }
    };
    if n <= 0 {
        return Ok(RunStats::default());
    }
    let cap = u64::try_from(n)
        .unwrap_or(u64::MAX)
        .min(usize::MAX as u64) as usize;
    let threads = threads.clamp(1, cap);
    let fabric = Fabric::new(false, threads);
    let part = partition(lo, hi, threads);
    if threads == 1 {
        span_worker(0, &part, &cell_of, &body, &fabric);
    } else {
        pool::execute(threads, &|t| span_worker(t, &part, &cell_of, &body, &fabric));
    }
    match fabric.into_failure() {
        Some(err) => Err(err),
        None => Ok(RunStats {
            cells: n as u64,
            workers: threads,
        }),
    }
}

/// Executes `worker`'s block, catching unwinds at the worker boundary
/// and recording which cell was live when the panic unwound.
fn span_worker<C, F>(worker: usize, part: &Partition, cell_of: &C, body: &F, fabric: &Fabric)
where
    C: Fn(i64) -> (i64, i64) + Sync,
    F: Fn(i64) + Sync,
{
    let current: Cell<Option<(i64, i64)>> = Cell::new(None);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (a, b) = part.span(worker);
        for i in a..b {
            current.set(Some(cell_of(i)));
            body(i);
        }
    }));
    if let Err(payload) = outcome {
        fabric.poison(
            RuntimeError::WorkerPanic {
                worker,
                cell: current.get(),
                payload: payload_text(payload.as_ref()),
            },
            &[],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let stats = par_for(0, 100, 7, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean run");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.cells, 100);
        assert_eq!(stats.workers, 7);
    }

    #[test]
    fn empty_and_negative_ranges_are_noops() {
        let count = AtomicUsize::new(0);
        par_for(5, 5, 4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .expect("empty");
        par_for(5, 2, 4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .expect("negative");
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn more_threads_than_iterations() {
        let count = AtomicUsize::new(0);
        let stats = par_for(0, 3, 64, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean run");
        assert_eq!(count.load(Ordering::Relaxed), 3);
        assert_eq!(stats.workers, 3, "threads clamp to iteration count");
    }

    #[test]
    fn worker_panic_is_contained_with_cell() {
        let err = par_for(0, 100, 4, |i| {
            if i == 42 {
                panic!("doall boom");
            }
        })
        .expect_err("panic must surface");
        match err {
            RuntimeError::WorkerPanic {
                cell, ref payload, ..
            } => {
                assert_eq!(cell, Some((42, 0)));
                assert!(payload.contains("doall boom"), "{payload}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn overflowing_range_is_misuse() {
        let err = par_for(i64::MIN, i64::MAX, 4, |_| {}).expect_err("overflow");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
    }

    #[test]
    fn sequential_panic_contained_too() {
        let err = par_for(0, 10, 1, |i| {
            if i == 3 {
                panic!("seq boom");
            }
        })
        .expect_err("panic must surface");
        assert!(
            matches!(
                err,
                RuntimeError::WorkerPanic {
                    worker: 0,
                    cell: Some((3, 0)),
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
