//! The Distinct Lines estimator and the permutation-priority analysis.
//!
//! For a loop nest tiled with sizes `t_1 … t_d`, the DL model estimates,
//! per array reference, the number of distinct cache lines (or TLB pages)
//! touched by one tile (Fig. 4 of the paper):
//!
//! * every non-contiguous array dimension contributes the number of
//!   distinct subscript values over the tile,
//! * the contiguous (last) dimension contributes `span / L` line
//!   occupancy where `L` is the line size in elements — provided the
//!   subscript actually varies with a tile iterator; otherwise 1.
//!
//! `mem_cost(t) = Cost_line · DL(t) / Π t_i` is the per-iteration cost;
//! its partial derivatives rank iterators for permutation: the most
//! negative `∂mem_cost/∂t_k` wants iterator `k` innermost (Sec. III-B1).

use crate::machine::CacheLevel;
use polymix_ir::scop::Access;
use polymix_ir::Schedule;

/// The DL-relevant shape of one array reference inside a (transformed)
/// loop nest: iterator coefficients per array dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct RefInfo {
    /// Which array (used to deduplicate uniformly generated references).
    pub array: usize,
    /// `m × d` iterator coefficients: row per array dimension, column per
    /// loop (outermost first) of the nest the reference sits in.
    pub coeffs: Vec<Vec<i64>>,
    /// Element size in bytes.
    pub elem_bytes: usize,
}

impl RefInfo {
    /// Builds a `RefInfo` from an access in the *new* loop coordinates of
    /// `schedule` (via `f·Θ⁻¹`), keeping the first `depth` loop columns.
    pub fn from_access(
        array_idx: usize,
        access: &Access,
        schedule: &Schedule,
        n_params: usize,
        depth: usize,
        elem_bytes: usize,
    ) -> RefInfo {
        let d = schedule.dim();
        let coeffs = access
            .map
            .iter()
            .map(|row| {
                // A schedule that cannot be inverted is costed as if
                // untransformed: this feeds a heuristic, never legality.
                let t = schedule
                    .transformed_access_row(row, n_params)
                    .unwrap_or_else(|| row.clone());
                let mut c = t[..d.min(depth)].to_vec();
                c.resize(depth, 0);
                c
            })
            .collect();
        RefInfo {
            array: array_idx,
            coeffs,
            elem_bytes,
        }
    }

    /// Distinct lines touched by one `tiles`-sized tile on a level with
    /// `line_bytes` lines. Fractional result (the model is continuous).
    pub fn distinct_lines(&self, tiles: &[f64], line_bytes: usize) -> f64 {
        if self.coeffs.is_empty() {
            return 1.0; // scalar: one line
        }
        let line_elems = (line_bytes / self.elem_bytes).max(1) as f64;
        let mut dl = 1.0;
        let last = self.coeffs.len() - 1;
        for (dim, row) in self.coeffs.iter().enumerate() {
            // Span of the subscript over the tile: Σ |c_k|·(t_k − 1) + 1.
            let span: f64 = row
                .iter()
                .zip(tiles)
                .map(|(&c, &t)| c.unsigned_abs() as f64 * (t - 1.0))
                .sum::<f64>()
                + 1.0;
            if dim == last {
                // Contiguous dimension: a span of `s` elements at arbitrary
                // alignment touches (s-1)/L + 1 lines — the partial-line
                // term is what lets wider contiguous tiles amortize edge
                // lines (and what ranks stride-1 loops innermost).
                dl *= (span - 1.0) / line_elems + 1.0;
            } else {
                dl *= span;
            }
        }
        dl
    }

    /// True when the reference's subscripts are independent of every tile
    /// iterator (loop-invariant data).
    pub fn is_invariant(&self) -> bool {
        self.coeffs.iter().all(|r| r.iter().all(|&c| c == 0))
    }
}

/// Deduplicates uniformly generated references (same array, same iterator
/// coefficients) — they touch the same lines up to a constant offset.
pub(crate) fn dedup(refs: &[RefInfo]) -> Vec<&RefInfo> {
    let mut out: Vec<&RefInfo> = Vec::new();
    for r in refs {
        if !out
            .iter()
            .any(|o| o.array == r.array && o.coeffs == r.coeffs)
        {
            out.push(r);
        }
    }
    out
}

/// [`distinct_lines`] of references [`dedup`] already reduced.
pub(crate) fn lines_of(distinct: &[&RefInfo], tiles: &[f64], line_bytes: usize) -> f64 {
    distinct
        .iter()
        .map(|r| r.distinct_lines(tiles, line_bytes))
        .sum()
}

/// [`mem_cost`] of references [`dedup`] already reduced.
pub(crate) fn cost_of(distinct: &[&RefInfo], tiles: &[f64], level: &CacheLevel) -> f64 {
    let vol: f64 = tiles.iter().product();
    level.cost_per_line * lines_of(distinct, tiles, level.line_bytes) / vol
}

/// Total distinct lines of a loop nest: the sum over (deduplicated)
/// references, as in Fig. 4 (`DL = DL_A + DL_B`).
pub fn distinct_lines(refs: &[RefInfo], tiles: &[f64], line_bytes: usize) -> f64 {
    lines_of(&dedup(refs), tiles, line_bytes)
}

/// Per-iteration memory cost
/// `mem_cost(t) = cost_per_line · DL(t) / Π tᵢ` (Sec. III-B).
pub fn mem_cost(refs: &[RefInfo], tiles: &[f64], level: &CacheLevel) -> f64 {
    cost_of(&dedup(refs), tiles, level)
}

/// The price of running a loop nest over a box of `extents` (outermost
/// first) in loop order: `mem_cost` of the largest inner sub-box whose
/// footprint fits the level. The innermost loop runs at its full extent,
/// or cut to the most iterations that fit — streaming along it needs
/// only the lines it is in. Every loop further out joins at its full
/// extent while the box still fits, and the first that does not, with
/// all outside it, runs one iteration: the reuse a loop carries survives
/// only if everything inside it stays resident. Reuse inside the sub-box
/// is served by the level; reuse carried outside it is lost to capacity.
pub fn box_cost(refs: &[RefInfo], extents: &[f64], level: &CacheLevel) -> f64 {
    let distinct = dedup(refs);
    let fits = |b: &[f64]| {
        lines_of(&distinct, b, level.line_bytes) * level.line_bytes as f64
            <= level.capacity_bytes as f64
    };
    let Some(inner) = extents.len().checked_sub(1) else {
        return cost_of(&distinct, &[], level);
    };
    let mut b = vec![1.0; extents.len()];
    b[inner] = extents[inner];
    if fits(&b) {
        for k in (0..inner).rev() {
            b[k] = extents[k];
            if !fits(&b) {
                b[k] = 1.0;
                break;
            }
        }
    } else {
        // The largest whole innermost extent that fits, by bisection:
        // `lo` fits (or is the floor of one iteration), `hi` does not.
        let (mut lo, mut hi) = (1.0, extents[inner]);
        while hi - lo > 1.0 {
            b[inner] = ((lo + hi) / 2.0_f64).floor();
            if fits(&b) {
                lo = b[inner];
            } else {
                hi = b[inner];
            }
        }
        b[inner] = lo;
    }
    cost_of(&distinct, &b, level)
}

/// The extent every loop whose bounds involve a parameter or an outer
/// loop is priced at: a decision must not hang on a dataset size.
pub const NOMINAL_EXTENT: f64 = 1024.0;

/// The tile size the fusion decision prices a tiled nest at (the paper
/// tiles by 32; the flow's own tile sizes are its caller's).
pub const FUSION_TILE: f64 = 32.0;

/// The two prices the tiling decision compares, per iteration of a nest
/// over the box of `extents` (outermost first): [`box_cost`] of the whole
/// box, and of one tile of `tiles` (level by level, no larger than the
/// loop).
pub fn tiling_costs(
    refs: &[RefInfo],
    extents: &[f64],
    tiles: &[f64],
    level: &CacheLevel,
) -> (f64, f64) {
    let tile: Vec<f64> = extents.iter().zip(tiles).map(|(&e, &t)| e.min(t)).collect();
    (box_cost(refs, extents, level), box_cost(refs, &tile, level))
}

/// Numerical `∂mem_cost/∂t_k` at the nominal tile vector.
pub fn mem_cost_derivative(refs: &[RefInfo], tiles: &[f64], level: &CacheLevel, k: usize) -> f64 {
    let h = 1e-3 * tiles[k];
    let mut hi = tiles.to_vec();
    hi[k] += h;
    let mut lo = tiles.to_vec();
    lo[k] -= h;
    (mem_cost(refs, &hi, level) - mem_cost(refs, &lo, level)) / (2.0 * h)
}

/// Best permutation order by the DL model: returns iterator indices from
/// **outermost to innermost** — ascending `∂mem_cost/∂t` from *inner to
/// outer* means the most negative derivative goes innermost.
///
/// The innermost position additionally minimizes the *stride penalty*
/// (the number of references the iterator walks with a non-unit memory
/// stride): the paper's flow pairs the DL cost with "maximizing the
/// number of clean inner loops that can be effectively vectorized", and
/// a strided innermost access defeats SIMD however good its DL score is
/// (syr2k is the canonical case).
///
/// Ties are broken towards keeping the original order (stable sort).
pub fn permutation_priority(refs: &[RefInfo], depth: usize, level: &CacheLevel) -> Vec<usize> {
    let nominal = vec![32.0; depth];
    let scored: Vec<(usize, f64)> = (0..depth)
        .map(|k| (k, mem_cost_derivative(refs, &nominal, level, k)))
        .collect();
    // Stride penalty: references touching the iterator in a non-last
    // array dimension jump whole rows per iteration.
    let penalty = |k: usize| -> usize {
        refs.iter()
            .filter(|r| {
                let m = r.coeffs.len();
                m > 0
                    && r.coeffs[..m - 1]
                        .iter()
                        .any(|row| row.get(k).copied().unwrap_or(0) != 0)
            })
            .count()
    };
    // Innermost: smallest (stride penalty, derivative). An empty nest
    // has no level to order.
    let Some(inner) = scored
        .iter()
        .min_by(|a, b| {
            (penalty(a.0), a.1)
                .partial_cmp(&(penalty(b.0), b.1))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|&(k, _)| k)
    else {
        return Vec::new();
    };
    // Remaining levels: outermost = largest derivative.
    let mut rest: Vec<(usize, f64)> = scored.into_iter().filter(|&(k, _)| k != inner).collect();
    rest.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut out: Vec<usize> = rest.into_iter().map(|(k, _)| k).collect();
    out.push(inner);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn level() -> CacheLevel {
        CacheLevel {
            line_bytes: 64, // 8 f64 elements
            capacity_bytes: 32 * 1024,
            cost_per_line: 1.0,
        }
    }

    /// Fig. 4's example: `A[i][j] += B[k][i]` in an (i, j, k) nest.
    fn fig4_refs() -> Vec<RefInfo> {
        vec![
            RefInfo {
                array: 0, // A[i][j]
                coeffs: vec![vec![1, 0, 0], vec![0, 1, 0]],
                elem_bytes: 8,
            },
            RefInfo {
                array: 1, // B[k][i]
                coeffs: vec![vec![0, 0, 1], vec![1, 0, 0]],
                elem_bytes: 8,
            },
        ]
    }

    #[test]
    fn fig4_distinct_lines_formula() {
        // DL = Ti*lines(Tj) + Tk*lines(Ti) with L = 8 elements and
        // lines(s) = (s-1)/L + 1 (paper's Fig. 4 idealizes this to s/L).
        let refs = fig4_refs();
        let t = [16.0, 32.0, 8.0];
        let dl = distinct_lines(&refs, &t, 64);
        let lines = |s: f64| (s - 1.0) / 8.0 + 1.0;
        let expected = 16.0 * lines(32.0) + 8.0 * lines(16.0);
        assert!((dl - expected).abs() < 1e-9, "dl={dl} expected={expected}");
        // Within 25% of the idealized Fig. 4 closed form.
        let ideal = 16.0 * 32.0 / 8.0 + 8.0 * 16.0 / 8.0;
        assert!((dl - ideal).abs() / ideal < 0.35);
    }

    #[test]
    fn uniformly_generated_refs_count_once() {
        let a = RefInfo {
            array: 0,
            coeffs: vec![vec![1, 0], vec![0, 1]],
            elem_bytes: 8,
        };
        let dl1 = distinct_lines(&[a.clone()], &[8.0, 8.0], 64);
        let dl2 = distinct_lines(&[a.clone(), a], &[8.0, 8.0], 64);
        assert_eq!(dl1, dl2);
    }

    #[test]
    fn invariant_reference_is_one_line() {
        let r = RefInfo {
            array: 0,
            coeffs: vec![vec![0, 0]],
            elem_bytes: 8,
        };
        assert!(r.is_invariant());
        assert_eq!(r.distinct_lines(&[32.0, 32.0], 64), 1.0);
    }

    #[test]
    fn matmul_priority_puts_j_innermost() {
        // C[i][j] += A[i][k] * B[k][j] — all three refs:
        let refs = vec![
            RefInfo {
                array: 0,
                coeffs: vec![vec![1, 0, 0], vec![0, 1, 0]],
                elem_bytes: 8,
            },
            RefInfo {
                array: 1,
                coeffs: vec![vec![1, 0, 0], vec![0, 0, 1]],
                elem_bytes: 8,
            },
            RefInfo {
                array: 2,
                coeffs: vec![vec![0, 0, 1], vec![0, 1, 0]],
                elem_bytes: 8,
            },
        ];
        let order = permutation_priority(&refs, 3, &level());
        // j (index 1) strides contiguously through C and B: innermost.
        assert_eq!(*order.last().unwrap(), 1, "order={order:?}");
    }

    #[test]
    fn an_empty_nest_gets_an_empty_order() {
        assert!(permutation_priority(&[], 0, &level()).is_empty());
    }

    #[test]
    fn transposed_access_prefers_other_loop_inner() {
        // Only ref: B[j][i] — i contiguous => i innermost.
        let refs = vec![RefInfo {
            array: 0,
            coeffs: vec![vec![0, 1], vec![1, 0]],
            elem_bytes: 8,
        }];
        let order = permutation_priority(&refs, 2, &level());
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn mem_cost_decreases_with_reuse() {
        // A[i][j] with j contiguous: growing Tj amortizes lines; growing Ti
        // does not (each new i touches new lines).
        let refs = vec![RefInfo {
            array: 0,
            coeffs: vec![vec![1, 0], vec![0, 1]],
            elem_bytes: 8,
        }];
        let l = level();
        let base = mem_cost(&refs, &[32.0, 32.0], &l);
        let taller = mem_cost(&refs, &[64.0, 32.0], &l);
        let wider = mem_cost(&refs, &[32.0, 64.0], &l);
        assert!((taller - base).abs() < 1e-9); // Ti scales DL and volume alike
        assert!(wider < base); // Tj amortizes partial lines
        let _ = Machine::nehalem();
    }

    /// `box_cost` serves the reuse of the loops whose whole extent fits:
    /// `A[i][j]` streams (an eighth of a line per iteration) however long
    /// its rows are, and `x[j]`, reused by every `i`, is free only while
    /// all of its rows fit; an outer loop never joins cut.
    #[test]
    fn box_cost_prices_the_largest_inner_box_that_fits() {
        let l = level(); // 512 lines
        let a = RefInfo {
            array: 0,
            coeffs: vec![vec![1, 0], vec![0, 1]],
            elem_bytes: 8,
        };
        let x = RefInfo {
            array: 1,
            coeffs: vec![vec![0, 1]],
            elem_bytes: 8,
        };
        let refs = [a.clone(), x];
        // 1024-element rows: 2 × 129 lines fit, a second row does not.
        let one_row = mem_cost(&refs, &[1.0, 1024.0], &l);
        assert_eq!(box_cost(&refs, &[1024.0, 1024.0], &l), one_row);
        // 128-element rows: all 3 rows × 17 lines + 17 fit, x is reused.
        assert_eq!(
            box_cost(&refs, &[3.0, 128.0], &l),
            mem_cost(&refs, &[3.0, 128.0], &l)
        );
        // A row longer than the level: the innermost loop is cut, and the
        // streaming reference still pays ~1/8 line per iteration.
        let long = box_cost(&[a], &[4.0, 1e6], &l);
        assert!(long < 0.13 && long > 0.12, "{long}");
    }

    /// The tiled price is one tile's, and a tile is no larger than its
    /// loop: a three-iteration outer loop is priced whole on both sides.
    #[test]
    fn tiling_costs_price_the_whole_box_and_one_tile() {
        let l = level();
        let refs = [RefInfo {
            array: 0,
            coeffs: vec![vec![0, 1], vec![1, 0]],
            elem_bytes: 8,
        }];
        assert_eq!(
            tiling_costs(&refs, &[3.0, NOMINAL_EXTENT], &[32.0, 32.0], &l),
            (
                box_cost(&refs, &[3.0, NOMINAL_EXTENT], &l),
                box_cost(&refs, &[3.0, 32.0], &l)
            )
        );
    }

    #[test]
    fn from_access_uses_transformed_rows() {
        use polymix_ir::scop::{Access, ArrayId};
        // Access B[k][j] in an (i,j,k|1) statement, schedule permuting to (k,j,i):
        let acc = Access {
            array: ArrayId(1),
            map: vec![vec![0, 0, 1, 0], vec![0, 1, 0, 0]],
        };
        let sched = Schedule::from_permutation(&[2, 1, 0], 0);
        let r = RefInfo::from_access(1, &acc, &sched, 0, 3, 8);
        assert_eq!(r.coeffs, vec![vec![1, 0, 0], vec![0, 1, 0]]);
    }
}
