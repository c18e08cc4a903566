//! Point-to-point pipeline parallelism and its wavefront rival (Fig. 6).
//!
//! Both executors run every cell `(i, j)` of a rectangular grid under the
//! dependence pattern `(i-1, j) → (i, j)` and `(i, j-1) → (i, j)`:
//!
//! * [`pipeline_2d`] — the paper's preferred construct: the `j` range is
//!   split into per-thread column blocks; each thread sweeps `i`
//!   ascending and, before starting row `i`, waits until its left
//!   neighbor has finished the same row (`await source(i, j-1)`;
//!   `source(i-1, j)` holds by the thread's own sweep order). No global
//!   barriers, no load-imbalanced start-up/drain phases beyond the
//!   pipeline fill.
//! * [`wavefront_2d`] — the doall-only alternative: iterate diagonals
//!   `w = i + j` sequentially with an all-to-all barrier between
//!   diagonals, running each diagonal's cells in parallel.
//!
//! ## Batched synchronization
//!
//! Progress is published (and therefore awaited) every `B` rows rather
//! than every row: each publish is a `fetch_max` on a cache-line-padded
//! counter the right neighbor polls, so batching divides the hottest
//! cross-thread traffic in the runtime by `B`. Waiting on "neighbor
//! finished row `i`" with delayed publishes only ever *delays* a start,
//! never permits an early one, so the dependence order is untouched (an
//! [`OrderChecker`](crate::order_check::OrderChecker) around the body
//! verifies this). Waits flow strictly leftward (worker 0 never waits),
//! so delayed publishes cannot deadlock: by induction worker `t-1`
//! always eventually reaches its next publish row. `B` is chosen from
//! the grid shape (`auto_batch`).
//!
//! Both are fault-tolerant: a worker panic is caught at the worker
//! boundary and broadcast as [`POISON`](crate::sync::POISON) through
//! the progress counters (pipeline) or stops the diagonal loop before
//! the next barrier releases (wavefront), and the primitive returns
//! `Err(RuntimeError::WorkerPanic { .. })` after all workers joined.
//! With [`RuntimeOptions::watchdog`] armed, a wedged pipeline turns
//! into a diagnostic [`RuntimeError::Stalled`] instead of a hang.

use crate::doall::doall_cells;
use crate::error::{RunStats, RuntimeError, RuntimeOptions};
use crate::pool;
use crate::schedule::{partition, Partition};
use crate::sync::{await_progress, payload_text, CachePadded, Fabric, Wait, POISON};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};

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

/// Executes the grid with point-to-point column-block pipelining.
/// `body(i, j)` is invoked at most once per cell, never before its
/// `(i-1, j)` and `(i, j-1)` predecessors have completed; exactly once
/// per cell when the run returns `Ok`.
pub fn pipeline_2d<F>(grid: GridSweep, threads: usize, body: F) -> Result<RunStats, RuntimeError>
where
    F: Fn(i64, i64) + Sync,
{
    pipeline_2d_opts(grid, threads, RuntimeOptions::default(), body)
}

/// [`pipeline_2d`] with a watchdog deadline ([`RuntimeOptions`]).
pub fn pipeline_2d_opts<F>(
    grid: GridSweep,
    threads: usize,
    opts: RuntimeOptions,
    body: F,
) -> Result<RunStats, RuntimeError>
where
    F: Fn(i64, i64) + Sync,
{
    let cells = grid.cells_checked()?;
    if cells == 0 {
        return Ok(RunStats::default());
    }
    let span = grid.j_hi - grid.j_lo; // in-range: cells_checked passed
    let nthr = threads.clamp(1, span.min(isize::MAX as i64) as usize);
    if nthr == 1 {
        let current: Cell<Option<(i64, i64)>> = Cell::new(None);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for i in grid.i_lo..grid.i_hi {
                for j in grid.j_lo..grid.j_hi {
                    current.set(Some((i, j)));
                    body(i, j);
                }
            }
        }));
        return match outcome {
            Ok(()) => Ok(RunStats { cells, workers: 1 }),
            Err(payload) => Err(RuntimeError::WorkerPanic {
                worker: 0,
                cell: current.get(),
                payload: payload_text(payload.as_ref()),
            }),
        };
    }

    let batch = auto_batch(grid.i_hi - grid.i_lo, nthr);
    let progress: Vec<CachePadded<AtomicI64>> = (0..nthr)
        .map(|_| CachePadded::new(AtomicI64::new(i64::MIN)))
        .collect();
    let fabric = Fabric::new(opts.watchdog.is_some(), nthr);
    let part = partition(grid.j_lo, grid.j_hi, nthr);
    let worker = |t: usize| {
        fabric.worker_online();
        let (blk_lo, blk_hi) = part.span(t);
        let current: Cell<Option<(i64, i64)>> = Cell::new(None);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for i in grid.i_lo..grid.i_hi {
                if fabric.is_poisoned() {
                    return Wait::Poisoned;
                }
                if t > 0 {
                    // await source(i, blk_lo - 1)
                    match await_progress(&progress[t - 1], i, &fabric, opts.watchdog) {
                        Wait::Ready => {}
                        other => return other,
                    }
                }
                for j in blk_lo..blk_hi {
                    current.set(Some((i, j)));
                    body(i, j);
                }
                current.set(None);
                // Publish every `batch` rows (and always the last row):
                // empty blocks still publish, so right neighbors never
                // stall. fetch_max never overwrites POISON.
                if (i - grid.i_lo + 1) % batch == 0 || i + 1 == grid.i_hi {
                    progress[t].fetch_max(i, Ordering::AcqRel);
                    fabric.bump();
                }
            }
            Wait::Ready
        }));
        match outcome {
            Ok(Wait::Ready) | Ok(Wait::Poisoned) => {}
            Ok(Wait::Stalled) => {
                // Snapshot the frontier before flooding POISON.
                let stalled_cells = stalled_snapshot(&progress, grid, &part);
                fabric.poison(RuntimeError::Stalled { stalled_cells }, &progress);
            }
            Err(payload) => {
                fabric.poison(
                    RuntimeError::WorkerPanic {
                        worker: t,
                        cell: current.get(),
                        payload: payload_text(payload.as_ref()),
                    },
                    &progress,
                );
            }
        }
    };
    pool::execute(nthr, &worker);
    match fabric.into_failure() {
        Some(err) => Err(err),
        None => Ok(RunStats {
            cells,
            workers: nthr,
        }),
    }
}

/// For each worker still behind, the next cell after its last *publish*:
/// the frontier that stopped advancing. With a publish batch above 1 the
/// reported row can trail the wedged worker's true position by up to
/// `batch - 1` rows — the diagnostic names the start of the silent
/// window, which is where investigation should begin anyway.
fn stalled_snapshot(
    progress: &[CachePadded<AtomicI64>],
    grid: GridSweep,
    part: &Partition,
) -> Vec<(i64, i64)> {
    let mut cells = Vec::new();
    for (t, counter) in progress.iter().enumerate() {
        let done_row = counter.load(Ordering::Acquire);
        if done_row == POISON || done_row >= grid.i_hi - 1 {
            continue;
        }
        let next_i = if done_row == i64::MIN {
            grid.i_lo
        } else {
            done_row + 1
        };
        let (blk_lo, _) = part.span(t);
        cells.push((next_i, blk_lo));
    }
    cells
}

/// Executes the grid as a skewed wavefront: diagonals `w = i + j` run
/// sequentially, the cells of each diagonal in parallel, with an implicit
/// all-to-all barrier between diagonals. A failure on diagonal `w`
/// returns before diagonal `w + 1` begins — the barrier does not
/// release past a poisoned diagonal.
pub fn wavefront_2d<F>(grid: GridSweep, threads: usize, body: F) -> Result<RunStats, RuntimeError>
where
    F: Fn(i64, i64) + Sync,
{
    let cells = grid.cells_checked()?;
    if cells == 0 {
        return Ok(RunStats::default());
    }
    let misuse = || {
        RuntimeError::Misuse(format!(
            "wavefront diagonals of grid [{}, {}) x [{}, {}) overflow i64",
            grid.i_lo, grid.i_hi, grid.j_lo, grid.j_hi
        ))
    };
    let w_lo = grid.i_lo.checked_add(grid.j_lo).ok_or_else(misuse)?;
    let w_hi = (grid.i_hi - 1).checked_add(grid.j_hi - 1).ok_or_else(misuse)?;
    for w in w_lo..=w_hi {
        // Diagonal bounds in i128 to dodge intermediate overflow; the
        // max/min clamps make saturation exact.
        let j_lo = grid
            .j_lo
            .max(clamp_i64(w as i128 - (grid.i_hi as i128 - 1)));
        let j_hi = grid
            .j_hi
            .min(clamp_i64(w as i128 - grid.i_lo as i128 + 1)); // exclusive
        // doall_cells joins all workers (the inter-diagonal barrier) and
        // `?` stops before diagonal w + 1 if anything on w failed.
        doall_cells(j_lo, j_hi, threads, |j| (w - j, j), |j| body(w - j, j))?;
    }
    Ok(RunStats {
        cells,
        workers: threads.max(1),
    })
}

fn clamp_i64(v: i128) -> i64 {
    if v > i64::MAX as i128 {
        i64::MAX
    } else if v < i64::MIN as i128 {
        i64::MIN
    } else {
        v as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn grid(ni: i64, nj: i64) -> GridSweep {
        GridSweep {
            i_lo: 0,
            i_hi: ni,
            j_lo: 0,
            j_hi: nj,
        }
    }

    /// Records execution order and checks the dependence cone.
    fn check_order(events: &[(i64, i64)], ni: i64, nj: i64) {
        let mut pos = std::collections::HashMap::new();
        for (k, &c) in events.iter().enumerate() {
            assert!(pos.insert(c, k).is_none(), "cell {c:?} ran twice");
        }
        assert_eq!(events.len() as i64, ni * nj, "missing cells");
        for (&(i, j), &k) in &pos {
            if i > 0 {
                assert!(pos[&(i - 1, j)] < k, "({i},{j}) before ({},{j})", i - 1);
            }
            if j > 0 {
                assert!(pos[&(i, j - 1)] < k, "({i},{j}) before ({i},{})", j - 1);
            }
        }
    }

    #[test]
    fn pipeline_respects_dependences() {
        for threads in [1, 3, 8] {
            let log = Mutex::new(Vec::new());
            let stats = pipeline_2d(grid(9, 13), threads, |i, j| {
                log.lock().unwrap().push((i, j));
            })
            .expect("clean run");
            assert_eq!(stats.cells, 9 * 13);
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
            wavefront_2d(grid(7, 11), threads, |i, j| log.lock().unwrap().push((i, j)))
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
        // table[i][j] = table[i-1][j] + table[i][j-1] (+1 at origin):
        // a genuinely order-sensitive computation.
        let ni = 12usize;
        let nj = 17usize;
        let run = |threads: usize, pipe: bool| -> Vec<f64> {
            let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
            let body = |i: i64, j: i64| {
                let (i, j) = (i as usize, j as usize);
                let up = if i > 0 { *table[(i - 1) * nj + j].lock().unwrap() } else { 1.0 };
                let left = if j > 0 { *table[i * nj + j - 1].lock().unwrap() } else { 0.0 };
                *table[i * nj + j].lock().unwrap() = up + left;
            };
            if pipe {
                pipeline_2d(grid(ni as i64, nj as i64), threads, body).expect("clean run");
            } else {
                wavefront_2d(grid(ni as i64, nj as i64), threads, body).expect("clean run");
            }
            table.into_iter().map(|m| m.into_inner().unwrap()).collect()
        };
        let seq = run(1, true);
        for threads in [2, 5, 8] {
            assert_eq!(run(threads, true), seq, "pipeline threads={threads}");
            assert_eq!(run(threads, false), seq, "wavefront threads={threads}");
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
        pipeline_2d(grid(4, 3), 16, |i, j| log.lock().unwrap().push((i, j)))
            .expect("clean run");
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
        let err = pipeline_2d(g, 4, |_, _| *count.lock().unwrap() += 1)
            .expect_err("must refuse");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        let err = wavefront_2d(g, 4, |_, _| *count.lock().unwrap() += 1)
            .expect_err("must refuse");
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
                RuntimeError::WorkerPanic { cell, payload, .. } => {
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
}
