//! The shared partition arithmetic: [`partition`] is the single home of
//! the ceil-div block split — one contiguous block per worker, the
//! `schedule(static)` OpenMP analogue — that the doall, the reduction
//! and the pipeline's column blocks all use, hardened against the
//! `lo + t * chunk` overflows of extreme `i64` ranges (saturation only
//! ever produces empty, skipped spans).

/// A static ceil-div block partition of the half-open range `[lo, hi)`
/// into `threads` spans: the one shared implementation of the
/// `chunk = ceil(n / threads)` arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    lo: i64,
    hi: i64,
    chunk: i64,
}

/// Builds the block partition of `[lo, hi)` across `threads` workers.
/// `hi - lo` must not overflow (callers validate via `checked_sub`);
/// empty/negative ranges produce all-empty spans.
pub fn partition(lo: i64, hi: i64, threads: usize) -> Partition {
    let n = hi.saturating_sub(lo).max(0);
    let t = threads.max(1) as i64;
    // ceil(n / t) without the `n + t - 1` overflow.
    let chunk = n / t + i64::from(n % t != 0);
    Partition { lo, hi, chunk }
}

impl Partition {
    /// Worker `t`'s half-open span `[a, b)`; `a >= b` means empty.
    /// Saturation can only occur past `hi`, where the span is empty.
    pub fn span(&self, t: usize) -> (i64, i64) {
        let a = self
            .lo
            .saturating_add((t as i64).saturating_mul(self.chunk))
            .min(self.hi);
        let b = a.saturating_add(self.chunk).min(self.hi);
        (a, b)
    }

    /// The block width (0 for empty ranges).
    pub fn chunk(&self) -> i64 {
        self.chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_spans(lo: i64, hi: i64, threads: usize) -> Vec<(i64, i64)> {
        let p = partition(lo, hi, threads);
        (0..threads)
            .map(|t| p.span(t))
            .filter(|(a, b)| a < b)
            .collect()
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        for (lo, hi, t) in [
            (0, 100, 7),
            (10, 1000, 8),
            (-50, 50, 3),
            (0, 3, 64),
            (5, 5, 4),
            (5, 2, 4),
            (i64::MAX - 10, i64::MAX, 4),
            (i64::MIN, i64::MIN + 17, 5),
        ] {
            let spans = collect_spans(lo, hi, t);
            let mut covered = 0i64;
            let mut prev_end = lo;
            for &(a, b) in &spans {
                assert!(a >= prev_end, "overlap at ({a}, {b}) for {lo}..{hi}x{t}");
                assert!(a >= lo && b <= hi, "out of bounds for {lo}..{hi}x{t}");
                covered += b - a;
                prev_end = b;
            }
            assert_eq!(covered, (hi - lo).max(0), "incomplete for {lo}..{hi}x{t}");
        }
    }
}
