//! Dynamic dependence-order checking as a *body adapter*: a lightweight
//! race detector asserting that every executed cell `(i, j)` observed
//! its sources `(i - di, j - dj)` first, for the dependence vectors
//! `(di, dj)` the checker was built with.
//!
//! [`OrderChecker::wrap`] turns a cell body into the same body between
//! a source check and a completion mark, so the checker shadows any
//! executor that runs cells — the library primitives,
//! [`kernel_rt`](crate::kernel_rt), or a deliberately wrong one.
//! Violations are collected, not panicked on, and surface from
//! [`OrderChecker::finish`] as a `RuntimeError::Misuse` after the run —
//! panicking inside a worker would be reported as a `WorkerPanic` and
//! hide the actual diagnosis.

use crate::error::RuntimeError;
use crate::pipeline::GridSweep;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Largest grid (in cells) the checker will shadow; beyond this it
/// refuses rather than allocate gigabytes in a test.
const MAX_SHADOW_CELLS: u64 = 1 << 24;

/// One executed-cell shadow bit per grid cell plus a violation log.
pub struct OrderChecker {
    grid: GridSweep,
    nj: usize,
    sources: Vec<(i64, i64)>,
    done: Vec<AtomicBool>,
    /// (cell_i, cell_j, src_i, src_j) for every missed source.
    violations: Mutex<Vec<(i64, i64, i64, i64)>>,
}

impl OrderChecker {
    /// A checker for `grid` under the dependence vectors `sources`
    /// (`&[(1, 0), (0, 1)]` is the pipeline's await cone).
    /// [`RuntimeError::Misuse`] when the grid overflows or is too big
    /// to shadow — a checker that silently checked nothing would make a
    /// clean run meaningless.
    pub fn new(grid: GridSweep, sources: &[(i64, i64)]) -> Result<OrderChecker, RuntimeError> {
        let cells = grid.cells_checked()?;
        if cells > MAX_SHADOW_CELLS {
            return Err(RuntimeError::Misuse(format!(
                "grid [{}, {}) x [{}, {}) exceeds the order checker's shadow budget",
                grid.i_lo, grid.i_hi, grid.j_lo, grid.j_hi
            )));
        }
        Ok(OrderChecker {
            grid,
            nj: (grid.j_hi - grid.j_lo).max(0) as usize,
            sources: sources.to_vec(),
            done: (0..cells).map(|_| AtomicBool::new(false)).collect(),
            violations: Mutex::new(Vec::new()),
        })
    }

    fn idx(&self, i: i64, j: i64) -> usize {
        (i - self.grid.i_lo) as usize * self.nj + (j - self.grid.j_lo) as usize
    }

    /// `body` between [`OrderChecker::check_sources`] and
    /// [`OrderChecker::mark_done`].
    pub fn wrap<'a, F>(&'a self, body: F) -> impl Fn(i64, i64) + Sync + 'a
    where
        F: Fn(i64, i64) + Sync + 'a,
    {
        move |i, j| {
            self.check_sources(i, j);
            body(i, j);
            self.mark_done(i, j);
        }
    }

    /// Records a violation for every in-grid source of `(i, j)` that
    /// has not completed yet.
    pub fn check_sources(&self, i: i64, j: i64) {
        let g = self.grid;
        for &(di, dj) in &self.sources {
            let (Some(si), Some(sj)) = (i.checked_sub(di), j.checked_sub(dj)) else {
                continue;
            };
            let in_grid = si >= g.i_lo && si < g.i_hi && sj >= g.j_lo && sj < g.j_hi;
            if in_grid && !self.done[self.idx(si, sj)].load(Ordering::Acquire) {
                self.violations
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((i, j, si, sj));
            }
        }
    }

    /// Marks `(i, j)` complete.
    pub fn mark_done(&self, i: i64, j: i64) {
        self.done[self.idx(i, j)].store(true, Ordering::Release);
    }

    /// The violations recorded so far, as `(cell_i, cell_j, src_i, src_j)`.
    pub fn violations(&self) -> Vec<(i64, i64, i64, i64)> {
        self.violations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Converts any recorded violations into a diagnostic error. Call
    /// after the run returned.
    pub fn finish(self) -> Result<(), RuntimeError> {
        let violations = self
            .violations
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        match violations.first() {
            None => Ok(()),
            Some(&(i, j, si, sj)) => Err(RuntimeError::Misuse(format!(
                "dependence order violated: cell ({i}, {j}) ran before its source \
                 ({si}, {sj}) completed ({} violation(s) total)",
                violations.len()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONE: [(i64, i64); 2] = [(1, 0), (0, 1)];

    fn grid(ni: i64, nj: i64) -> GridSweep {
        GridSweep {
            i_lo: 0,
            i_hi: ni,
            j_lo: 0,
            j_hi: nj,
        }
    }

    #[test]
    fn clean_sweep_has_no_violations() {
        let c = OrderChecker::new(grid(3, 4), &CONE).expect("shadow fits");
        let cell = c.wrap(|_, _| {});
        for i in 0..3 {
            for j in 0..4 {
                cell(i, j);
            }
        }
        assert!(c.violations().is_empty());
    }

    #[test]
    fn skipped_source_is_reported() {
        let c = OrderChecker::new(grid(2, 2), &CONE).expect("shadow fits");
        c.check_sources(0, 0);
        c.mark_done(0, 0);
        // (1, 1) runs before either of its sources finished.
        c.check_sources(1, 1);
        let v = c.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.contains(&(1, 1, 0, 1)));
        assert!(v.contains(&(1, 1, 1, 0)));
    }

    #[test]
    fn only_the_given_vectors_are_checked() {
        // Under (1, -1) alone, (1, 0) needs (0, 1) and nothing else.
        let c = OrderChecker::new(grid(2, 2), &[(1, -1)]).expect("shadow fits");
        c.check_sources(1, 1); // its source (0, 2) is outside the grid
        assert!(c.violations().is_empty());
        c.check_sources(1, 0);
        assert_eq!(c.violations(), vec![(1, 0, 0, 1)]);
    }

    #[test]
    fn oversized_grids_are_refused() {
        let err = OrderChecker::new(grid(1 << 20, 1 << 20), &CONE).err();
        assert!(matches!(err, Some(RuntimeError::Misuse(_))), "{err:?}");
    }

    #[test]
    fn finish_surfaces_misuse() {
        let checker = OrderChecker::new(grid(2, 2), &CONE).expect("shadow fits");
        checker.check_sources(1, 1); // sources never ran
        let err = checker.finish().expect_err("must flag");
        match err {
            RuntimeError::Misuse(msg) => assert!(msg.contains("dependence order"), "{msg}"),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
