//! `par_for`: the doall over a half-open range, as a safe wrapper over
//! [`kernel_rt::doall`] with its static schedule (one contiguous block
//! per worker, the `schedule(static)` OpenMP analogue).

use crate::error::{FirstPanic, RuntimeError};
use crate::kernel_rt;

/// Runs `body(i)` for every `i` in `lo..hi` across `threads` workers.
///
/// `body` only receives disjoint indices, so it may mutate shared state
/// partitioned by `i`; Rust-level sharing is the caller's problem — the
/// closure must be `Sync` (it is called concurrently from many threads).
/// A panicking body is reported as [`RuntimeError::WorkerPanic`] after
/// every worker joined; the other workers finish their blocks.
pub fn par_for<F>(lo: i64, hi: i64, threads: usize, body: F) -> Result<(), RuntimeError>
where
    F: Fn(i64) + Sync,
{
    let n = hi.checked_sub(lo).ok_or_else(|| {
        RuntimeError::Misuse(format!("index range [{lo}, {hi}) overflows i64 arithmetic"))
    })?;
    if n <= 0 {
        return Ok(());
    }
    let first = FirstPanic::default();
    let clean = kernel_rt::doall(threads, lo, hi - 1, 1, None, |i| {
        first.run(i, 0..1, |i, _| body(i))
    });
    first.outcome(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        par_for(0, 100, 7, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean run");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
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
        par_for(i64::MIN, i64::MIN, 4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .expect("empty at the bottom of i64");
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn more_threads_than_iterations() {
        let count = AtomicUsize::new(0);
        par_for(0, 3, 64, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean run");
        assert_eq!(count.load(Ordering::Relaxed), 3);
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
            RuntimeError::WorkerPanic { cell, ref payload } => {
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
                    cell: Some((3, 0)),
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
