//! Property-based tests for the shared partition arithmetic
//! (`schedule::partition`), which every parallel primitive trusts for
//! worker span bounds. The properties: spans are in-bounds, mutually
//! disjoint, and complete (they tile `[lo, hi)` exactly) — including at
//! the extreme ends of `i64` where the old copy-pasted `lo + t * chunk`
//! arithmetic could overflow.

use crate::schedule::partition;
use proptest::prelude::*;

/// `i64` values biased toward the overflow-prone regions: near the two
/// extremes, near zero, and at large power-of-two magnitudes.
fn wild_i64() -> impl Strategy<Value = i64> {
    (0i64..6, 0i64..1000).prop_map(|(zone, off)| match zone {
        0 => off - 500,
        1 => i64::MAX - off,
        2 => i64::MIN + off,
        3 => (1 << 62) - off,
        4 => -(1 << 62) + off,
        _ => off.wrapping_mul(1 << 40),
    })
}

proptest! {
    #[test]
    fn partition_tiles_the_range_exactly(
        a in wild_i64(),
        b in wild_i64(),
        threads in 1usize..64,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        // partition()'s contract: callers have already validated that
        // the extent fits i64 (the primitives refuse such grids).
        prop_assume!(hi.checked_sub(lo).is_some());
        let p = partition(lo, hi, threads);
        let mut covered: i128 = 0;
        let mut prev_end = lo;
        for t in 0..threads {
            let (sa, sb) = p.span(t);
            if sa >= sb {
                continue; // empty span
            }
            prop_assert!(sa >= lo && sb <= hi, "span ({sa}, {sb}) out of [{lo}, {hi})");
            prop_assert!(sa >= prev_end, "span ({sa}, {sb}) overlaps previous end {prev_end}");
            covered += (sb - sa) as i128;
            prev_end = sb;
        }
        prop_assert_eq!(covered, (hi - lo) as i128, "spans must cover [{lo}, {hi}) exactly");
    }

    #[test]
    fn partition_chunk_is_ceil_div(
        n in 0i64..10_000,
        threads in 1usize..64,
    ) {
        let p = partition(0, n, threads);
        let t = threads as i64;
        prop_assert_eq!(p.chunk(), n / t + i64::from(n % t != 0));
    }
}
