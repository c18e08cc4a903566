//! Array reductions with thread-private accumulators — the C array-
//! reduction OpenMP extension of Sec. IV-D.

use crate::error::{RunStats, RuntimeError};
use crate::pool;
use crate::schedule::partition;
use crate::sync::{payload_text, CachePadded, Fabric};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Reduces into `target` over the iteration range `lo..hi`: each worker
/// gets a zeroed private copy of `target`'s length, `body(i, local)`
/// accumulates into it, and the private copies are summed into `target`
/// under a lock after each worker finishes.
///
/// A worker panic is contained and returned as
/// [`RuntimeError::WorkerPanic`]; on error, `target` may hold the
/// contributions of workers that completed before the failure — callers
/// that need a clean value should rebuild it from scratch (the bench
/// layer re-runs sequentially).
pub fn reduce_array<F>(
    target: &mut [f64],
    lo: i64,
    hi: i64,
    threads: usize,
    body: F,
) -> Result<RunStats, RuntimeError>
where
    F: Fn(i64, &mut [f64]) + Sync,
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
    let len = target.len();
    let global = Mutex::new(target);
    let fabric = Fabric::new(false, threads);
    let part = partition(lo, hi, threads);
    let worker = |t: usize| {
        // The accumulator header sits on its own cache line; the heap
        // buffer behind it is per-worker anyway, so no two workers write
        // the same line during accumulation.
        let mut local: CachePadded<Vec<f64>> = CachePadded::new(vec![0.0f64; len]);
        let current: Cell<Option<i64>> = Cell::new(None);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (a, b) = part.span(t);
            for i in a..b {
                current.set(Some(i));
                body(i, &mut local);
            }
        }));
        match outcome {
            Ok(()) => {
                let mut g = global.lock().unwrap_or_else(|e| e.into_inner());
                for (dst, src) in g.iter_mut().zip(local.iter()) {
                    *dst += src;
                }
            }
            Err(payload) => {
                // A panicked worker's partial accumulator is discarded,
                // never merged.
                fabric.poison(
                    RuntimeError::WorkerPanic {
                        worker: t,
                        cell: current.get().map(|i| (i, 0)),
                        payload: payload_text(payload.as_ref()),
                    },
                    &[],
                );
            }
        }
    };
    if threads == 1 {
        worker(0);
    } else {
        pool::execute(threads, &worker);
    }
    match fabric.into_failure() {
        Some(err) => Err(err),
        None => Ok(RunStats {
            cells: n as u64,
            workers: threads,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_sum_matches_sequential() {
        // S[j] += X[i][j] over a 40x8 matrix.
        let n = 40usize;
        let m = 8usize;
        let x: Vec<f64> = (0..n * m).map(|k| (k % 13) as f64).collect();
        let mut s_par = vec![0.0; m];
        reduce_array(&mut s_par, 0, n as i64, 4, |i, local| {
            for j in 0..m {
                local[j] += x[i as usize * m + j];
            }
        })
        .expect("clean run");
        let mut s_seq = vec![0.0; m];
        for i in 0..n {
            for j in 0..m {
                s_seq[j] += x[i * m + j];
            }
        }
        assert_eq!(s_par, s_seq);
    }

    #[test]
    fn preserves_prior_contents() {
        let mut t = vec![10.0, 20.0];
        reduce_array(&mut t, 0, 5, 2, |_, local| {
            local[0] += 1.0;
            local[1] += 2.0;
        })
        .expect("clean run");
        assert_eq!(t, vec![15.0, 30.0]);
    }

    #[test]
    fn empty_range_leaves_target_untouched() {
        let mut t = vec![1.0, 2.0, 3.0];
        reduce_array(&mut t, 3, 3, 4, |_, _| panic!("must not run")).expect("empty range");
        assert_eq!(t, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_reduction_via_len_one_array() {
        let mut acc = vec![0.0];
        reduce_array(&mut acc, 1, 101, 8, |i, local| local[0] += i as f64).expect("clean run");
        assert_eq!(acc[0], 5050.0);
    }

    #[test]
    fn body_panic_is_contained() {
        let mut acc = vec![0.0];
        let err = reduce_array(&mut acc, 0, 64, 4, |i, local| {
            if i == 17 {
                panic!("reduce boom");
            }
            local[0] += 1.0;
        })
        .expect_err("panic must surface");
        match err {
            RuntimeError::WorkerPanic { cell, payload, .. } => {
                assert_eq!(cell, Some((17, 0)));
                assert!(payload.contains("reduce boom"), "{payload}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
