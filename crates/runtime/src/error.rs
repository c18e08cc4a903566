//! The runtime error model: every parallel primitive returns
//! `Result<(), RuntimeError>` instead of deadlocking or unwinding across
//! the thread scope.
//!
//! A worker panic is *contained* by [`kernel_rt`](crate::kernel_rt): the
//! failing region floods its counters so every waiter exits promptly,
//! the entry point returns `false`, and the wrapper turns that into
//! [`RuntimeError::WorkerPanic`] with the cell whose body panicked.

use crate::kernel_rt::panic_text;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Why a parallel primitive failed. All variants are *contained*
/// failures: the primitive has already joined its workers (none are left
/// running) by the time the error is returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A cell body panicked. The panic was caught at the worker boundary
    /// and the failure broadcast to all other workers of the call.
    WorkerPanic {
        /// The cell whose body panicked first; 1-D primitives report
        /// `(i, 0)`. `None` when the runtime failed outside any body.
        cell: Option<(i64, i64)>,
        /// The panic payload rendered as text
        /// ([`kernel_rt::panic_text`](crate::kernel_rt::panic_text)).
        payload: String,
    },
    /// The caller handed the primitive an unusable configuration (e.g. a
    /// grid whose extents overflow `i64` arithmetic).
    Misuse(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::WorkerPanic { cell, payload } => {
                write!(f, "worker panicked")?;
                if let Some((i, j)) = cell {
                    write!(f, " at cell ({i}, {j})")?;
                }
                write!(f, ": {payload}")
            }
            RuntimeError::Misuse(detail) => write!(f, "runtime misuse: {detail}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The first body panic of one wrapped call: which cell, and its text.
/// `kernel_rt` only reports *that* a region failed; the wrappers record
/// *where* by running every cell body through [`FirstPanic::run`].
#[derive(Default)]
pub(crate) struct FirstPanic(Mutex<Option<((i64, i64), String)>>);

impl FirstPanic {
    /// Runs `body(i, j)` for every `j` of `js`, in order. A panic is
    /// recorded with the cell it hit (first one wins) and re-raised, so
    /// `kernel_rt::contained` still fails the region. One unwind boundary
    /// per row, not per cell, so a row of bodies stays one plain loop.
    pub(crate) fn run(
        &self,
        i: i64,
        js: impl Iterator<Item = i64>,
        mut body: impl FnMut(i64, i64),
    ) {
        let at = Cell::new(0);
        let row = || {
            for j in js {
                at.set(j);
                body(i, j);
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(row)) {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert_with(|| ((i, at.get()), panic_text(payload.as_ref()).to_string()));
            resume_unwind(payload);
        }
    }

    /// The call's result from what the `kernel_rt` entry point returned.
    pub(crate) fn outcome(self, clean: bool) -> Result<(), RuntimeError> {
        if clean {
            return Ok(());
        }
        let first = self.0.into_inner().unwrap_or_else(|e| e.into_inner());
        Err(RuntimeError::WorkerPanic {
            cell: first.as_ref().map(|f| f.0),
            payload: first.map_or_else(|| "worker panic".to_string(), |f| f.1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_diagnostic() {
        let e = RuntimeError::WorkerPanic {
            cell: Some((7, 2)),
            payload: "boom".into(),
        };
        assert_eq!(e.to_string(), "worker panicked at cell (7, 2): boom");
        let e = RuntimeError::Misuse("bad grid".into());
        assert!(e.to_string().contains("bad grid"));
    }

    #[test]
    fn payloads_render() {
        let rendered = |payload: Box<dyn std::any::Any + Send>| {
            let first = FirstPanic::default();
            let mut payload = Some(payload);
            let _ = catch_unwind(AssertUnwindSafe(|| {
                first.run(0, 0..1, |_, _| resume_unwind(payload.take().unwrap()))
            }));
            match first.outcome(false) {
                Err(RuntimeError::WorkerPanic { payload, .. }) => payload,
                other => panic!("unexpected: {other:?}"),
            }
        };
        assert_eq!(rendered(Box::new("boom")), "boom");
        assert_eq!(rendered(Box::new(String::from("owned"))), "owned");
        assert_eq!(rendered(Box::new(42i32)), "worker panic");
    }

    #[test]
    fn first_panic_keeps_the_first_cell() {
        let first = FirstPanic::default();
        for (i, what) in [(1, "first"), (3, "second")] {
            let row = || first.run(i, 0..9, |_, j| assert!(j != i + 1, "{what}"));
            assert!(
                catch_unwind(AssertUnwindSafe(row)).is_err(),
                "the panic must reach kernel_rt"
            );
        }
        first.run(5, 0..9, |_, _| {});
        assert_eq!(
            first.outcome(false),
            Err(RuntimeError::WorkerPanic {
                cell: Some((1, 2)),
                payload: "first".into()
            })
        );
        assert_eq!(FirstPanic::default().outcome(true), Ok(()));
    }
}
