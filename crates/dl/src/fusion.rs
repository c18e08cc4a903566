//! Loop-fusion profitability by the DL model (Sec. III-B2).
//!
//! Fusion is profitable when the *minimum per-iteration memory cost*
//! achievable with tile sizes that fit the cache does not increase: fusing
//! adds inter-statement reuse (shared references collapse) but shrinks
//! the feasible tile-size box (more data live per tile). Both effects are
//! captured by minimizing `mem_cost` over a capacity-constrained tile
//! space before and after fusion.

use crate::machine::CacheLevel;
use crate::model::{cost_of, dedup, lines_of, RefInfo};

/// Candidate per-dimension tile sizes explored by the discrete minimizer.
const TILE_CANDIDATES: [f64; 7] = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Minimum `mem_cost` over tile-size vectors whose footprint
/// (`DL · line_bytes`) fits the level's capacity. Returns
/// `(best_cost, best_tiles)`; when even the smallest tile overflows the
/// cache, the smallest-footprint point is returned (cost still finite).
pub fn min_mem_cost(refs: &[RefInfo], depth: usize, level: &CacheLevel) -> (f64, Vec<f64>) {
    min_mem_cost_with_free(refs, depth, level, &[])
}

/// Like [`min_mem_cost`], but arrays listed in `free` contribute to the
/// capacity footprint without contributing to the cost — the model for
/// producer–consumer arrays that live entirely in cache inside a fused
/// tile (their memory traffic is exactly what fusion eliminates).
pub fn min_mem_cost_with_free(
    refs: &[RefInfo],
    depth: usize,
    level: &CacheLevel,
    free: &[usize],
) -> (f64, Vec<f64>) {
    assert!(depth > 0, "min_mem_cost on zero-depth nest");
    // Deduplicated once for all 7^depth tile vectors. Dropping the free
    // arrays after deduplicating selects the same references, in the
    // same order, as deduplicating the paid ones: both key on the array.
    let all = dedup(refs);
    let paid: Vec<&RefInfo> = all
        .iter()
        .copied()
        .filter(|r| !free.contains(&r.array))
        .collect();
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut fallback: Option<(f64, Vec<f64>)> = None; // smallest footprint
    let mut idx = vec![0usize; depth];
    loop {
        let tiles: Vec<f64> = idx.iter().map(|&i| TILE_CANDIDATES[i]).collect();
        let dl = lines_of(&all, &tiles, level.line_bytes);
        let footprint = dl * level.line_bytes as f64;
        let cost = cost_of(&paid, &tiles, level);
        if footprint <= level.capacity_bytes as f64 {
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, tiles.clone()));
            }
        }
        if fallback.as_ref().is_none_or(|(c, _)| footprint < *c) {
            fallback = Some((footprint, tiles.clone()));
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == depth {
                // `fallback` was set on the very first odometer state,
                // but degrade to untiled rather than aborting.
                return match (best, fallback) {
                    (Some(b), _) => b,
                    (None, Some((_, tiles))) => (cost_of(&paid, &tiles, level), tiles),
                    (None, None) => (cost_of(&paid, &[], level), Vec::new()),
                };
            }
            idx[k] += 1;
            if idx[k] < TILE_CANDIDATES.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// Decides whether fusing two statement groups is profitable under the DL
/// model: compares the best capacity-feasible `mem_cost` of the fused nest
/// against the *max* of the two distributed nests' best costs (the fused
/// loop executes both bodies per iteration; distribution executes them in
/// sequence, so per-iteration costs add — we compare conservatively
/// against the sum).
pub fn fusion_profitable(
    refs_a: &[RefInfo],
    depth_a: usize,
    refs_b: &[RefInfo],
    depth_b: usize,
    level: &CacheLevel,
) -> bool {
    if depth_a == 0 || depth_b == 0 {
        return false;
    }
    let fused_depth = depth_a.max(depth_b);
    let mut fused: Vec<RefInfo> = Vec::new();
    for r in refs_a.iter().chain(refs_b) {
        let mut c = r.clone();
        for row in c.coeffs.iter_mut() {
            row.resize(fused_depth, 0);
        }
        fused.push(c);
    }
    // Producer–consumer residency: when both groups touch the same array
    // (the usual reason to fuse), the fused tile keeps one copy of its
    // lines resident; model the array by its largest slice instead of
    // summing differently-subscripted references.
    let nominal = vec![32.0; fused_depth];
    let mut per_array: Vec<RefInfo> = Vec::new();
    for r in fused {
        match per_array.iter_mut().find(|x| x.array == r.array) {
            Some(existing) => {
                if r.distinct_lines(&nominal, level.line_bytes)
                    > existing.distinct_lines(&nominal, level.line_bytes)
                {
                    *existing = r;
                }
            }
            None => per_array.push(r),
        }
    }
    let fused = per_array;
    // Arrays both groups touch are the producer–consumer data fusion
    // keeps cache-resident: they cost capacity, not traffic.
    let arrays_a: Vec<usize> = refs_a.iter().map(|r| r.array).collect();
    let shared: Vec<usize> = refs_b
        .iter()
        .map(|r| r.array)
        .filter(|a| arrays_a.contains(a))
        .collect();
    let (cost_fused, _) = min_mem_cost_with_free(&fused, fused_depth, level, &shared);
    let (cost_a, _) = min_mem_cost(refs_a, depth_a, level);
    let (cost_b, _) = min_mem_cost(refs_b, depth_b, level);
    // Small epsilon: prefer fusion on ties (it never loses reuse then).
    cost_fused <= cost_a + cost_b + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{distinct_lines, mem_cost};

    fn level() -> CacheLevel {
        CacheLevel {
            line_bytes: 64,
            capacity_bytes: 32 * 1024,
            cost_per_line: 1.0,
        }
    }

    fn streaming_ref(array: usize) -> RefInfo {
        // A[i][j], j contiguous, 2-deep nest.
        RefInfo {
            array,
            coeffs: vec![vec![1, 0], vec![0, 1]],
            elem_bytes: 8,
        }
    }

    #[test]
    fn min_cost_respects_capacity() {
        let refs = vec![streaming_ref(0)];
        let l = level();
        let (cost, tiles) = min_mem_cost(&refs, 2, &l);
        assert!(cost > 0.0);
        let dl = distinct_lines(&refs, &tiles, l.line_bytes);
        assert!(dl * l.line_bytes as f64 <= l.capacity_bytes as f64);
    }

    #[test]
    fn shared_reference_makes_fusion_profitable() {
        // Both nests stream the same array A: fusing halves the traffic.
        let a = vec![streaming_ref(0)];
        let b = vec![streaming_ref(0), streaming_ref(1)];
        assert!(fusion_profitable(&a, 2, &b, 2, &level()));
    }

    #[test]
    fn disjoint_heavy_footprints_do_not_fuse() {
        // Two nests each touching 3 distinct large arrays with transposed
        // access; fusing 6 arrays shrinks feasible tiles sharply.
        let mk = |arr: usize| RefInfo {
            array: arr,
            coeffs: vec![vec![0, 1], vec![1, 0]], // transposed: poor lines
            elem_bytes: 8,
        };
        let a: Vec<RefInfo> = (0..3).map(mk).collect();
        let b: Vec<RefInfo> = (3..6).map(mk).collect();
        // Fusion must at least not be *forced*: with the additive
        // comparison it usually still passes; the stronger check is that
        // min_mem_cost grows with footprint.
        let l = level();
        let (ca, _) = min_mem_cost(&a, 2, &l);
        let mut all = a.clone();
        all.extend(b.clone());
        let (call, _) = min_mem_cost(&all, 2, &l);
        assert!(call >= ca);
    }

    #[test]
    fn different_depth_fusion_pads_coefficients() {
        // 2-deep nest fused with 3-deep nest.
        let a = vec![streaming_ref(0)];
        let b = vec![RefInfo {
            array: 0,
            coeffs: vec![vec![1, 0, 0], vec![0, 0, 1]],
            elem_bytes: 8,
        }];
        // Shared array 0: should be profitable.
        assert!(fusion_profitable(&a, 2, &b, 3, &level()));
    }

    #[test]
    fn zero_depth_never_fuses() {
        assert!(!fusion_profitable(&[], 0, &[], 2, &level()));
    }

    /// The reference the hoisted minimiser must match bit for bit: every
    /// tile vector deduplicates `refs` and the paid subset afresh.
    fn min_mem_cost_per_vector(
        refs: &[RefInfo],
        depth: usize,
        level: &CacheLevel,
        free: &[usize],
    ) -> (f64, Vec<f64>) {
        let paid: Vec<RefInfo> = refs
            .iter()
            .filter(|r| !free.contains(&r.array))
            .cloned()
            .collect();
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut fallback: Option<(f64, Vec<f64>)> = None;
        let mut idx = vec![0usize; depth];
        loop {
            let tiles: Vec<f64> = idx.iter().map(|&i| TILE_CANDIDATES[i]).collect();
            let footprint =
                distinct_lines(refs, &tiles, level.line_bytes) * level.line_bytes as f64;
            let cost = mem_cost(&paid, &tiles, level);
            if footprint <= level.capacity_bytes as f64
                && best.as_ref().is_none_or(|(c, _)| cost < *c)
            {
                best = Some((cost, tiles.clone()));
            }
            if fallback.as_ref().is_none_or(|(c, _)| footprint < *c) {
                fallback = Some((footprint, tiles.clone()));
            }
            let mut k = 0;
            loop {
                if k == depth {
                    return match (best, fallback) {
                        (Some(b), _) => b,
                        (None, Some((_, tiles))) => (mem_cost(&paid, &tiles, level), tiles),
                        (None, None) => (mem_cost(&paid, &[], level), Vec::new()),
                    };
                }
                idx[k] += 1;
                if idx[k] < TILE_CANDIDATES.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }

    /// Hoisting the deduplication changes no bit of the answer, on random
    /// references with repeated (uniformly generated) shapes, free arrays,
    /// and levels small enough that nothing fits.
    #[test]
    fn hoisted_minimiser_is_bit_identical_to_the_per_vector_form() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for case in 0..200 {
            let depth = 1 + next(3) as usize;
            let mut refs: Vec<RefInfo> = Vec::new();
            for _ in 0..1 + next(6) {
                let r = match refs.len() {
                    n if n > 0 && next(3) == 0 => refs[next(n as u64) as usize].clone(),
                    _ => RefInfo {
                        array: next(4) as usize,
                        coeffs: (0..next(4))
                            .map(|_| (0..depth).map(|_| next(5) as i64 - 2).collect())
                            .collect(),
                        elem_bytes: [4, 8][next(2) as usize],
                    },
                };
                refs.push(r);
            }
            let free: Vec<usize> = (0..4).filter(|_| next(3) == 0).collect();
            let l = CacheLevel {
                capacity_bytes: [256, 4 * 1024, 32 * 1024, 256 * 1024][next(4) as usize],
                ..level()
            };
            let (cost, tiles) = min_mem_cost_with_free(&refs, depth, &l, &free);
            let (want, want_tiles) = min_mem_cost_per_vector(&refs, depth, &l, &free);
            assert_eq!(
                (cost.to_bits(), &tiles),
                (want.to_bits(), &want_tiles),
                "case {case}: {refs:?}"
            );
        }
    }
}
