//! Property-based tests for the block split every doall and reduction
//! trusts (`kernel_rt::for_chunks`, through [`par_for`]): each index of
//! the range runs exactly once — including ranges at the extreme ends of
//! `i64`, where `lo + t * chunk` arithmetic can overflow.

use crate::par_for;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

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
    fn par_for_visits_each_index_once(
        start in wild_i64(),
        len in 0i64..200,
        threads in 1usize..9,
    ) {
        let lo = start.min(i64::MAX - len);
        let hi = lo + len;
        let hits: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
        par_for(lo, hi, threads, |i| {
            hits[(i - lo) as usize].fetch_add(1, Ordering::Relaxed);
        })
        .map_err(|e| e.to_string())?;
        for (k, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {} of [{}, {})", k, lo, hi);
        }
    }
}
