//! Loop-fusion profitability by the DL model (Sec. III-B2).
//!
//! Fusion is profitable when the fused nest costs no more per iteration
//! than the two distributed nests together, each priced by the function
//! that prices a nest for the tiling decision ([`tiling_costs`]), with
//! every loop at [`NOMINAL_EXTENT`], at the cheaper of its untiled and
//! [`FUSION_TILE`]-tiled price. Fusing adds inter-statement reuse
//! (uniformly generated references to a shared array collapse into one)
//! but shrinks the box that fits the level (more data live per
//! iteration); `box_cost` sees both.

use crate::machine::CacheLevel;
use crate::model::{tiling_costs, RefInfo, FUSION_TILE, NOMINAL_EXTENT};

/// Decides whether fusing two statement groups is profitable under the DL
/// model: the fused nest's price against the sum of the two distributed
/// nests' (the fused loop executes both bodies per iteration; distribution
/// executes them in sequence, so per-iteration costs add).
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
    let price = |refs: &[RefInfo], depth: usize| {
        let (untiled, tiled) = tiling_costs(
            refs,
            &vec![NOMINAL_EXTENT; depth],
            &vec![FUSION_TILE; depth],
            level,
        );
        untiled.min(tiled)
    };
    let fused_depth = depth_a.max(depth_b);
    let fused: Vec<RefInfo> = refs_a
        .iter()
        .chain(refs_b)
        .map(|r| {
            let mut c = r.clone();
            for row in c.coeffs.iter_mut() {
                row.resize(fused_depth, 0);
            }
            c
        })
        .collect();
    // Small epsilon: prefer fusion on ties (it never loses reuse then).
    price(&fused, fused_depth) <= price(refs_a, depth_a) + price(refs_b, depth_b) + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn shared_reference_makes_fusion_profitable() {
        // Both nests stream the same array A: fusing halves the traffic.
        let a = vec![streaming_ref(0)];
        let b = vec![streaming_ref(0), streaming_ref(1)];
        assert!(fusion_profitable(&a, 2, &b, 2, &level()));
    }

    /// Two nests each walking three arrays transposed: one 32 × 32 tile of
    /// each side fits the level, a tile of all six does not, and nothing
    /// is shared to pay for that.
    #[test]
    fn disjoint_heavy_footprints_do_not_fuse() {
        let mk = |arr: usize| RefInfo {
            array: arr,
            coeffs: vec![vec![0, 1], vec![1, 0]], // transposed: poor lines
            elem_bytes: 8,
        };
        let a: Vec<RefInfo> = (0..3).map(mk).collect();
        let b: Vec<RefInfo> = (3..6).map(mk).collect();
        assert!(!fusion_profitable(&a, 2, &b, 2, &level()));
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
}
