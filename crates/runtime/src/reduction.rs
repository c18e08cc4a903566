//! Array reductions with thread-private accumulators — the C array-
//! reduction OpenMP extension of Sec. IV-D — as a safe wrapper over
//! [`kernel_rt::reduction`] that hides its raw pointers.

use crate::error::{FirstPanic, RuntimeError};
use crate::kernel_rt::{self, P};

/// Reduces into `target` over the iteration range `lo..hi`: each worker
/// gets a zeroed private copy of `target`'s length, `body(i, local)`
/// accumulates into it, and the private copies are added into `target`
/// after every worker joined.
///
/// A panicking body is reported as [`RuntimeError::WorkerPanic`], and
/// then no private copy is added: `target` is left as it was.
pub fn reduce_array<F>(
    target: &mut [f64],
    lo: i64,
    hi: i64,
    threads: usize,
    body: F,
) -> Result<(), RuntimeError>
where
    F: Fn(i64, &mut [f64]) + Sync,
{
    let n = hi.checked_sub(lo).ok_or_else(|| {
        RuntimeError::Misuse(format!("index range [{lo}, {hi}) overflows i64 arithmetic"))
    })?;
    if n <= 0 {
        return Ok(());
    }
    let len = target.len();
    let first = FirstPanic::default();
    let cell = |i: i64, copies: &[P]| {
        // SAFETY: `copies[0]` is this worker's private copy of `len`
        // cells, and a worker runs its iterations one at a time.
        let local = unsafe { std::slice::from_raw_parts_mut(copies[0].get(), len) };
        first.run(i, 0..1, |i, _| body(i, local))
    };
    let reduced = [(P(target.as_mut_ptr()), len)];
    // SAFETY: `target` is `len` valid cells, borrowed mutably for the
    // whole call, so nothing else reaches them while the copies merge.
    let clean = unsafe { kernel_rt::reduction(threads, lo, hi - 1, 1, &reduced, cell) };
    first.outcome(clean)
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
        let mut acc = vec![7.0];
        let err = reduce_array(&mut acc, 0, 64, 4, |i, local| {
            if i == 17 {
                panic!("reduce boom");
            }
            local[0] += 1.0;
        })
        .expect_err("panic must surface");
        match err {
            RuntimeError::WorkerPanic { cell, payload } => {
                assert_eq!(cell, Some((17, 0)));
                assert!(payload.contains("reduce boom"), "{payload}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(acc, vec![7.0], "a failed reduction merges no copy");
    }
}
