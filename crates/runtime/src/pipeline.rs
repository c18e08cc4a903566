//! The 2-D grid executors: point-to-point pipeline parallelism and its
//! wavefront rival (Fig. 6), as safe wrappers over
//! [`kernel_rt::pipeline`] and [`kernel_rt::wavefront`].
//!
//! All three run every cell `(i, j)` of a rectangular [`GridSweep`] at
//! most once, never before its dependence sources, and exactly once
//! when they return `Ok`:
//!
//! * [`pipeline_2d`] — the paper's preferred construct, for the cone
//!   `(i-1, j) → (i, j)`, `(i, j-1) → (i, j)`: the `j` range is split into
//!   per-thread column blocks; each thread sweeps `i` ascending, a block of
//!   rows at a time, and before a block awaits its left neighbor's same
//!   block (`source(i-1, j)` holds by the thread's own sweep order). No
//!   global barriers.
//! * [`wavefront_2d`] — the doall-only alternative for the same cone:
//!   diagonals `i + j` in order, the cells of one diagonal in parallel.
//! * [`taskgraph_2d`] — the wavefront for any set of lexicographically
//!   positive dependence vectors: diagonals `w·i + j`, with the smallest
//!   weight `w ≥ 1` that puts every vector's source on an earlier
//!   diagonal.
//!
//! A panicking body fails the call with [`RuntimeError::WorkerPanic`]
//! after every worker joined; grids whose extents overflow `i64` are
//! refused with [`RuntimeError::Misuse`] before any cell runs.

use crate::error::{FirstPanic, RuntimeError};
use crate::kernel_rt;

/// The most tiles a wavefront hands `kernel_rt::wavefront`, which keeps
/// a tile origin and a diagonal index per tile (24 MiB at the cap).
/// `taskgraph_2d` refuses bigger grids; `wavefront_2d` runs them in
/// blocks.
const MAX_TILES: u64 = 1 << 20;

/// A half-open 2-D iteration grid `[i_lo, i_hi) × [j_lo, j_hi)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridSweep {
    /// First outer index.
    pub i_lo: i64,
    /// One past the last outer index.
    pub i_hi: i64,
    /// First inner index.
    pub j_lo: i64,
    /// One past the last inner index.
    pub j_hi: i64,
}

impl GridSweep {
    /// Number of cells in the grid, saturating at `i64::MAX` on
    /// adversarial extents (a plain `i64` multiply here used to wrap).
    pub fn cells(&self) -> i64 {
        let ni = self.i_hi.saturating_sub(self.i_lo).max(0);
        let nj = self.j_hi.saturating_sub(self.j_lo).max(0);
        ni.saturating_mul(nj)
    }

    /// Exact cell count, or [`RuntimeError::Misuse`] when the extents
    /// overflow `i64` arithmetic — the executors refuse such grids
    /// instead of silently iterating a wrapped range.
    pub fn cells_checked(&self) -> Result<u64, RuntimeError> {
        let overflow = || {
            RuntimeError::Misuse(format!(
                "grid [{}, {}) x [{}, {}) overflows i64 arithmetic",
                self.i_lo, self.i_hi, self.j_lo, self.j_hi
            ))
        };
        let ni = self.i_hi.checked_sub(self.i_lo).ok_or_else(overflow)?.max(0) as u64;
        let nj = self.j_hi.checked_sub(self.j_lo).ok_or_else(overflow)?.max(0) as u64;
        ni.checked_mul(nj).ok_or_else(overflow)
    }
}

/// The publish batch for a run: deep grids afford coarser batches, but
/// the batch is capped so the pipeline fill delay (`(nthr - 1) × B`
/// rows) stays small against the sweep depth.
fn auto_batch(ni: i64, nthr: usize) -> i64 {
    (ni / (nthr as i64 * 4)).clamp(1, 8)
}

/// Executes the grid with point-to-point column-block pipelining:
/// [`kernel_rt::pipeline`] with one phase whose outer steps are blocks
/// of `auto_batch` rows, each published as it completes. (Batching
/// single-row steps instead would stall: `kernel_rt` awaits its right
/// neighbor's previous step too, so an unpublished batch blocks both.)
pub fn pipeline_2d<F>(grid: GridSweep, threads: usize, body: F) -> Result<(), RuntimeError>
where
    F: Fn(i64, i64) + Sync,
{
    if grid.cells_checked()? == 0 {
        return Ok(());
    }
    // In range: cells_checked passed. `kernel_rt::pipeline` runs one
    // worker per column at most; the rows per step follow from that count.
    let (ni, nj) = (grid.i_hi - grid.i_lo, grid.j_hi - grid.j_lo);
    let rows = auto_batch(ni, threads.clamp(1, nj as usize));
    let first = FirstPanic::default();
    let clean = kernel_rt::pipeline(
        threads,
        0,
        (ni - 1) / rows,
        1,
        1,
        nj,
        1,
        1,
        |blk, _, off_lo, off_hi| {
            let i0 = grid.i_lo + blk * rows;
            let js = grid.j_lo.saturating_add(off_lo)
                ..grid.j_lo.saturating_add(off_hi + 1).min(grid.j_hi);
            for i in i0..i0.saturating_add(rows).min(grid.i_hi) {
                first.run(i, js.clone(), &body);
            }
        },
    );
    first.outcome(clean)
}

/// Executes the grid as a wavefront: diagonals `i + j` in order, each
/// after the whole previous one, the cells of a diagonal in parallel. A
/// failure on diagonal `w` stops the run before diagonal `w + 1` starts.
/// A grid of more than `MAX_TILES` cells runs as row-major blocks of
/// cells, at most 1024 × 1024 of them, ordered by block diagonal — legal
/// for the `(1, 0)/(0, 1)` cone, and no per-cell tile list.
pub fn wavefront_2d<F>(grid: GridSweep, threads: usize, body: F) -> Result<(), RuntimeError>
where
    F: Fn(i64, i64) + Sync,
{
    let cells = grid.cells_checked()?;
    if cells == 0 {
        return Ok(());
    }
    let (ni, nj) = (grid.i_hi - grid.i_lo, grid.j_hi - grid.j_lo);
    let (bi, bj) = if cells <= MAX_TILES {
        (1, 1)
    } else {
        ((ni - 1) / 1024 + 1, (nj - 1) / 1024 + 1)
    };
    let tiles = diagonal_order((ni - 1) / bi + 1, (nj - 1) / bj + 1, 1);
    let first = FirstPanic::default();
    let clean = kernel_rt::wavefront(threads, 1, tiles, |u, v| {
        let (i0, j0) = (grid.i_lo + u * bi, grid.j_lo + v * bj);
        for i in i0..i0.saturating_add(bi).min(grid.i_hi) {
            first.run(i, j0..j0.saturating_add(bj).min(grid.j_hi), &body);
        }
    });
    first.outcome(clean)
}

/// Runs `body(i, j)` over every cell of `grid` under the dependence
/// vectors `deps`: cell `(i, j)` after every in-grid `(i - di, j - dj)`.
/// Each vector must be lexicographically positive (`di > 0`, or
/// `di == 0 && dj > 0`) and the grid at most `MAX_TILES` cells; anything
/// else is [`RuntimeError::Misuse`]. The cells run as
/// [`kernel_rt::wavefront`] tiles on diagonals `w·i + j`, `w` the
/// smallest weight `≥ 1` with `w·di + dj ≥ 1` for every vector that can
/// join two cells of the grid.
pub fn taskgraph_2d<F>(
    grid: GridSweep,
    threads: usize,
    deps: &[(i64, i64)],
    body: F,
) -> Result<(), RuntimeError>
where
    F: Fn(i64, i64) + Sync,
{
    let cells = grid.cells_checked()?;
    if cells > MAX_TILES {
        return Err(RuntimeError::Misuse(format!(
            "grid [{}, {}) x [{}, {}) has {cells} cells, over the {MAX_TILES}-tile ceiling",
            grid.i_lo, grid.i_hi, grid.j_lo, grid.j_hi
        )));
    }
    let (ni, nj) = (grid.i_hi - grid.i_lo, grid.j_hi - grid.j_lo);
    let mut weight = 1i64;
    for &(di, dj) in deps {
        if !(di > 0 || (di == 0 && dj > 0)) {
            return Err(RuntimeError::Misuse(format!(
                "dependence vector ({di}, {dj}) is not lexicographically positive"
            )));
        }
        // `w·di + dj ≥ 1` needs `w ≥ (1 - dj) / di` rounded up. A vector
        // as long as the grid joins no two cells and sets no weight,
        // which keeps `w` (and every diagonal) within `ni + nj`.
        if di > 0 && di < ni && dj > -nj {
            weight = weight.max((di - dj) / di);
        }
    }
    if cells == 0 {
        return Ok(());
    }
    let first = FirstPanic::default();
    let tiles = diagonal_order(ni, nj, weight);
    let clean = kernel_rt::wavefront(threads, weight, tiles, |u, v| {
        let j = grid.j_lo + v;
        first.run(grid.i_lo + u, j..j + 1, &body);
    });
    first.outcome(clean)
}

/// The origins `(u, v)` of an `nu × nv` tile grid (both `≥ 1`) in the
/// order `kernel_rt::wavefront` runs them — by weighted diagonal
/// `w·u + v`, then `u` — so its sort finds them sorted already.
fn diagonal_order(nu: i64, nv: i64, w: i64) -> Vec<(i64, i64)> {
    let mut tiles = Vec::with_capacity((nu * nv) as usize);
    for d in 0..=w * (nu - 1) + nv - 1 {
        // `0 ≤ d - w·u < nv`.
        let u_lo = ((d - nv + 1).max(0) + w - 1) / w;
        for u in u_lo..=(d / w).min(nu - 1) {
            tiles.push((u, d - w * u));
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order_check::OrderChecker;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn grid(ni: i64, nj: i64) -> GridSweep {
        GridSweep {
            i_lo: 0,
            i_hi: ni,
            j_lo: 0,
            j_hi: nj,
        }
    }

    const CONE: [(i64, i64); 2] = [(1, 0), (0, 1)];

    /// Asserts each cell of `g` ran exactly once, after every in-grid
    /// `deps` source.
    fn check_deps(events: &[(i64, i64)], g: GridSweep, deps: &[(i64, i64)]) {
        let mut pos = HashMap::new();
        for (k, &c) in events.iter().enumerate() {
            assert!(pos.insert(c, k).is_none(), "cell {c:?} ran twice");
        }
        assert_eq!(events.len() as i64, g.cells(), "missing cells");
        for (&(i, j), &k) in &pos {
            for &(di, dj) in deps {
                let (si, sj) = (i - di, j - dj);
                if si >= g.i_lo && si < g.i_hi && sj >= g.j_lo && sj < g.j_hi {
                    assert!(
                        pos[&(si, sj)] < k,
                        "({i}, {j}) ran before its source ({si}, {sj})"
                    );
                }
            }
        }
    }

    /// [`check_deps`] for the pipeline's cone on a grid at the origin.
    fn check_order(events: &[(i64, i64)], ni: i64, nj: i64) {
        check_deps(events, grid(ni, nj), &CONE);
    }

    /// `table[i][j] = table[i-1][j] + table[i][j-1]` (+1 at the top
    /// row): a genuinely order-sensitive computation, run by `sweep`.
    fn prefix_sums(
        ni: usize,
        nj: usize,
        sweep: impl FnOnce(&(dyn Fn(i64, i64) + Sync)),
    ) -> Vec<f64> {
        let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
        sweep(&|i, j| {
            let (i, j) = (i as usize, j as usize);
            let up = if i > 0 {
                *table[(i - 1) * nj + j].lock().unwrap()
            } else {
                1.0
            };
            let left = if j > 0 {
                *table[i * nj + j - 1].lock().unwrap()
            } else {
                0.0
            };
            *table[i * nj + j].lock().unwrap() = up + left;
        });
        table.into_iter().map(|m| m.into_inner().unwrap()).collect()
    }

    #[test]
    fn pipeline_respects_dependences() {
        for threads in [1, 3, 8] {
            let log = Mutex::new(Vec::new());
            pipeline_2d(grid(9, 13), threads, |i, j| {
                log.lock().unwrap().push((i, j));
            })
            .expect("clean run");
            check_order(&log.into_inner().unwrap(), 9, 13);
        }
    }

    #[test]
    fn pipeline_respects_dependences_across_batch_sizes() {
        // Depths chosen so the automatic batch at 4 workers takes every
        // interesting value, including one that does not divide the
        // depth (the final-row publish matters then).
        for (ni, batch) in [(17, 1), (32, 2), (50, 3), (130, 8)] {
            assert_eq!(auto_batch(ni, 4), batch);
            let log = Mutex::new(Vec::new());
            pipeline_2d(grid(ni, 11), 4, |i, j| {
                log.lock().unwrap().push((i, j));
            })
            .expect("clean run");
            check_order(&log.into_inner().unwrap(), ni, 11);
        }
    }

    #[test]
    fn wavefront_respects_dependences() {
        for threads in [1, 4] {
            let log = Mutex::new(Vec::new());
            wavefront_2d(grid(7, 11), threads, |i, j| {
                log.lock().unwrap().push((i, j))
            })
            .expect("clean run");
            check_order(&log.into_inner().unwrap(), 7, 11);
        }
    }

    #[test]
    fn both_cover_same_cells() {
        let a = Mutex::new(HashSet::new());
        pipeline_2d(grid(5, 6), 4, |i, j| {
            a.lock().unwrap().insert((i, j));
        })
        .expect("clean run");
        let b = Mutex::new(HashSet::new());
        wavefront_2d(grid(5, 6), 4, |i, j| {
            b.lock().unwrap().insert((i, j));
        })
        .expect("clean run");
        assert_eq!(a.into_inner().unwrap(), b.into_inner().unwrap());
    }

    #[test]
    fn pipeline_computes_prefix_sums_correctly() {
        let (ni, nj) = (12usize, 17usize);
        let g = grid(ni as i64, nj as i64);
        let seq = prefix_sums(ni, nj, |body| pipeline_2d(g, 1, body).expect("clean run"));
        for threads in [2, 5, 8] {
            let pipe = prefix_sums(ni, nj, |body| {
                pipeline_2d(g, threads, body).expect("clean run")
            });
            let wave = prefix_sums(ni, nj, |body| {
                wavefront_2d(g, threads, body).expect("clean run")
            });
            assert_eq!(pipe, seq, "pipeline threads={threads}");
            assert_eq!(wave, seq, "wavefront threads={threads}");
        }
    }

    #[test]
    fn degenerate_grids() {
        let count = Mutex::new(0);
        pipeline_2d(grid(0, 5), 4, |_, _| *count.lock().unwrap() += 1).expect("empty");
        pipeline_2d(grid(5, 0), 4, |_, _| *count.lock().unwrap() += 1).expect("empty");
        wavefront_2d(grid(0, 0), 4, |_, _| *count.lock().unwrap() += 1).expect("empty");
        assert_eq!(*count.lock().unwrap(), 0);
        // One-row / one-column grids.
        pipeline_2d(grid(1, 8), 4, |_, _| *count.lock().unwrap() += 1).expect("clean run");
        pipeline_2d(grid(8, 1), 4, |_, _| *count.lock().unwrap() += 1).expect("clean run");
        assert_eq!(*count.lock().unwrap(), 16);
    }

    #[test]
    fn more_threads_than_columns() {
        let log = Mutex::new(Vec::new());
        pipeline_2d(grid(4, 3), 16, |i, j| log.lock().unwrap().push((i, j))).expect("clean run");
        check_order(&log.into_inner().unwrap(), 4, 3);
    }

    #[test]
    fn cells_saturates_instead_of_wrapping() {
        let g = GridSweep {
            i_lo: i64::MIN,
            i_hi: i64::MAX,
            j_lo: 0,
            j_hi: 2,
        };
        // The old `(i_hi - i_lo) * (j_hi - j_lo)` wrapped here.
        assert_eq!(g.cells(), i64::MAX);
        assert!(matches!(g.cells_checked(), Err(RuntimeError::Misuse(_))));
        let big = GridSweep {
            i_lo: 0,
            i_hi: 1 << 40,
            j_lo: 0,
            j_hi: 1 << 40,
        };
        // 2^80 cells: wraps any fixed width; both paths must refuse.
        assert_eq!(big.cells(), i64::MAX);
        assert!(matches!(big.cells_checked(), Err(RuntimeError::Misuse(_))));
        let large_but_fine = GridSweep {
            i_lo: 0,
            i_hi: 1 << 31,
            j_lo: 0,
            j_hi: 1 << 31,
        };
        assert_eq!(large_but_fine.cells(), 1 << 62);
        assert_eq!(large_but_fine.cells_checked(), Ok(1u64 << 62));
    }

    #[test]
    fn overflowing_grids_are_rejected_not_run() {
        let count = Mutex::new(0u64);
        let g = GridSweep {
            i_lo: i64::MIN,
            i_hi: i64::MAX,
            j_lo: 0,
            j_hi: 1,
        };
        let err = pipeline_2d(g, 4, |_, _| *count.lock().unwrap() += 1).expect_err("must refuse");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        let err = wavefront_2d(g, 4, |_, _| *count.lock().unwrap() += 1).expect_err("must refuse");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        assert_eq!(*count.lock().unwrap(), 0, "no cell may run");
    }

    #[test]
    fn pipeline_panic_poisons_all_waiters() {
        for threads in [2, 4, 8] {
            let err = pipeline_2d(grid(64, 64), threads, |i, j| {
                if (i, j) == (32, 0) {
                    panic!("pipeline boom");
                }
            })
            .expect_err("panic must surface");
            match err {
                RuntimeError::WorkerPanic { cell, payload } => {
                    assert_eq!(cell, Some((32, 0)));
                    assert!(payload.contains("pipeline boom"), "{payload}");
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn wavefront_stops_at_poisoned_diagonal() {
        // A panic on diagonal w must prevent any cell of diagonal w+1
        // from running (the barrier may not release past the failure).
        let max_seen_w = Mutex::new(i64::MIN);
        let boom_w = 6i64;
        let err = wavefront_2d(grid(12, 12), 4, |i, j| {
            let w = i + j;
            let mut seen = max_seen_w.lock().unwrap();
            *seen = (*seen).max(w);
            drop(seen);
            if w == boom_w && j == 3 {
                panic!("wavefront boom");
            }
        })
        .expect_err("panic must surface");
        assert!(matches!(err, RuntimeError::WorkerPanic { .. }), "{err:?}");
        assert!(
            *max_seen_w.lock().unwrap() <= boom_w,
            "diagonal after the poisoned one ran"
        );
    }

    #[test]
    fn diagonal_order_lists_every_tile_in_run_order() {
        for (nu, nv, w) in [(1, 1, 1), (3, 5, 1), (5, 3, 1), (4, 6, 3), (7, 2, 5)] {
            let tiles = diagonal_order(nu, nv, w);
            let mut sorted = tiles.clone();
            sorted.sort_by_key(|&(u, v)| (w * u + v, u));
            assert_eq!(tiles, sorted, "{nu} x {nv}, weight {w}");
            let all: HashSet<(i64, i64)> = tiles.iter().copied().collect();
            assert_eq!(
                (all.len(), tiles.len()),
                ((nu * nv) as usize, (nu * nv) as usize)
            );
            assert!(all
                .iter()
                .all(|&(u, v)| (0..nu).contains(&u) && (0..nv).contains(&v)));
        }
    }

    #[test]
    fn wavefront_runs_an_oversized_grid_in_blocks() {
        // 1025 x 1025 cells is past MAX_TILES: 2 x 2 blocks of cells,
        // still every cell once and after both of its sources.
        let g = grid(1025, 1025);
        assert!(g.cells() as u64 > MAX_TILES);
        let checker = OrderChecker::new(g, &CONE).expect("shadow fits");
        let count = AtomicU64::new(0);
        wavefront_2d(
            g,
            3,
            checker.wrap(|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .expect("clean run");
        checker.finish().expect("cone kept across blocks");
        assert_eq!(count.into_inner(), 1025 * 1025);
    }

    #[test]
    fn standard_cone_respects_dependences() {
        for threads in [1, 3, 8] {
            let log = Mutex::new(Vec::new());
            taskgraph_2d(grid(9, 13), threads, &CONE, |i, j| {
                log.lock().unwrap().push((i, j));
            })
            .expect("clean run");
            check_deps(&log.into_inner().unwrap(), grid(9, 13), &CONE);
        }
    }

    #[test]
    fn anti_diagonal_vector_is_expressible_and_respected() {
        // (1, -1) is outside the pipeline's and the wavefront's cone; a
        // shifted grid checks the weight works off the origin too.
        let g = GridSweep {
            i_lo: -3,
            i_hi: 5,
            j_lo: 100,
            j_hi: 108,
        };
        for deps in [vec![(1, 0), (0, 1), (1, -1)], vec![(2, -5), (0, 3)]] {
            let log = Mutex::new(Vec::new());
            taskgraph_2d(g, 4, &deps, |i, j| {
                log.lock().unwrap().push((i, j));
            })
            .expect("clean run");
            check_deps(&log.into_inner().unwrap(), g, &deps);
        }
    }

    #[test]
    fn matches_pipeline_on_order_sensitive_prefix_sums() {
        let (ni, nj) = (12usize, 17usize);
        let g = grid(ni as i64, nj as i64);
        let seq = prefix_sums(ni, nj, |body| pipeline_2d(g, 1, body).expect("clean run"));
        for threads in [2, 5, 8] {
            let got = prefix_sums(ni, nj, |body| {
                taskgraph_2d(g, threads, &CONE, body).expect("clean run")
            });
            assert_eq!(got, seq, "threads={threads}");
        }
    }

    #[test]
    fn covers_same_cells_as_wavefront() {
        let a = Mutex::new(HashSet::new());
        taskgraph_2d(grid(5, 6), 4, &CONE, |i, j| {
            a.lock().unwrap().insert((i, j));
        })
        .expect("clean run");
        let b = Mutex::new(HashSet::new());
        wavefront_2d(grid(5, 6), 4, |i, j| {
            b.lock().unwrap().insert((i, j));
        })
        .expect("clean run");
        assert_eq!(a.into_inner().unwrap(), b.into_inner().unwrap());
    }

    #[test]
    fn non_lex_positive_vectors_are_rejected() {
        for bad in [(0, 0), (-1, 0), (0, -1), (-1, 2)] {
            let err = taskgraph_2d(grid(4, 4), 2, &[bad], |_, _| {})
                .expect_err("must refuse non-forward vector");
            assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        }
    }

    #[test]
    fn empty_and_degenerate_grids() {
        let count = Mutex::new(0);
        taskgraph_2d(grid(0, 5), 4, &[(1, 0)], |_, _| *count.lock().unwrap() += 1).expect("empty");
        taskgraph_2d(grid(1, 8), 4, &CONE, |_, _| *count.lock().unwrap() += 1).expect("one row");
        taskgraph_2d(grid(8, 1), 4, &CONE, |_, _| *count.lock().unwrap() += 1).expect("one column");
        assert_eq!(*count.lock().unwrap(), 16);
    }

    #[test]
    fn overflowing_grids_are_rejected() {
        let g = GridSweep {
            i_lo: i64::MIN,
            i_hi: i64::MAX,
            j_lo: 0,
            j_hi: 1,
        };
        let err = taskgraph_2d(g, 4, &[(1, 0)], |_, _| {}).expect_err("must refuse");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        let err = taskgraph_2d(grid(1 << 20, 2), 4, &[(1, 0)], |_, _| {}).expect_err("over cap");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        // Vectors longer than the grid order nothing and cannot blow the
        // diagonal weight up.
        taskgraph_2d(grid(4, 4), 2, &[(1, i64::MIN), (i64::MAX, 0)], |_, _| {})
            .expect("far vectors are harmless");
    }

    #[test]
    fn panic_surfaces_and_successors_never_run() {
        let ran: Mutex<HashSet<(i64, i64)>> = Mutex::new(HashSet::new());
        let err = taskgraph_2d(grid(16, 16), 4, &CONE, |i, j| {
            if (i, j) == (4, 4) {
                panic!("taskgraph boom");
            }
            ran.lock().unwrap().insert((i, j));
        })
        .expect_err("panic must surface");
        match err {
            RuntimeError::WorkerPanic { cell, payload } => {
                assert_eq!(cell, Some((4, 4)));
                assert!(payload.contains("taskgraph boom"), "{payload}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // No transitive successor of (4, 4) ran: they all sit on later
        // diagonals, which never start after a failure.
        let ran = ran.into_inner().unwrap();
        for i in 4..16 {
            for j in 4..16 {
                assert!(
                    !ran.contains(&(i, j)),
                    "transitive successor ({i}, {j}) ran"
                );
            }
        }
    }
}
