//! The runtime error model: every parallel primitive returns
//! `Result<RunStats, RuntimeError>` instead of deadlocking or unwinding
//! across the thread scope.
//!
//! A worker panic is *contained*: the panicking worker broadcasts a
//! poison flag through the progress-counter array so every waiter exits
//! promptly, and the primitive returns [`RuntimeError::WorkerPanic`]. A
//! wedged pipeline under an enabled watchdog (see
//! [`RuntimeOptions::watchdog`]) is converted into a diagnostic
//! [`RuntimeError::Stalled`] listing the cells that never advanced.

use std::fmt;
use std::time::Duration;

/// Why a parallel primitive failed. All variants are *contained*
/// failures: the primitive has already joined its workers (none are left
/// running) by the time the error is returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A worker's body panicked. The panic was caught at the worker
    /// boundary and the failure broadcast to all other workers.
    WorkerPanic {
        /// Index of the panicking worker thread.
        worker: usize,
        /// The grid cell being executed when the panic unwound, when
        /// known. 1-D primitives report `(i, 0)`; `None` means the panic
        /// happened outside any cell body (e.g. in chunk setup).
        cell: Option<(i64, i64)>,
        /// The panic payload rendered as text (`&str`/`String` payloads
        /// verbatim, anything else a placeholder).
        payload: String,
    },
    /// The watchdog observed no global progress for the configured
    /// deadline: the pipeline is wedged.
    Stalled {
        /// For each behind worker, the next cell it never finished —
        /// the frontier that stopped advancing.
        stalled_cells: Vec<(i64, i64)>,
    },
    /// The caller handed the primitive an unusable configuration (e.g. a
    /// grid whose extents overflow `i64` arithmetic).
    Misuse(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::WorkerPanic {
                worker,
                cell,
                payload,
            } => {
                write!(f, "worker {worker} panicked")?;
                if let Some((i, j)) = cell {
                    write!(f, " at cell ({i}, {j})")?;
                }
                write!(f, ": {payload}")
            }
            RuntimeError::Stalled { stalled_cells } => {
                write!(f, "pipeline stalled; cells never advanced: ")?;
                for (k, (i, j)) in stalled_cells.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "({i}, {j})")?;
                }
                Ok(())
            }
            RuntimeError::Misuse(detail) => write!(f, "runtime misuse: {detail}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// What a successful primitive invocation did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cell (or index) bodies executed.
    pub cells: u64,
    /// Worker threads that carried them.
    pub workers: usize,
}

/// The one setting of the primitives that can wait (`pipeline_2d_opts`,
/// `taskgraph_2d_opts`, `TileGraph::run`): a safety net, not a tuning
/// choice. Off by default, so correct runs never pay for it; tests turn
/// it on.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeOptions {
    /// Global-progress deadline: when set, a waiter that observes no
    /// progress anywhere in the grid (a monotonic epoch counter is
    /// bumped on every publish) for this long poisons the run and the
    /// primitive returns [`RuntimeError::Stalled`].
    pub watchdog: Option<Duration>,
}

impl RuntimeOptions {
    /// The policy used by tests: a watchdog generous enough to never
    /// fire on a healthy run, tight enough to fail fast.
    pub fn watched() -> RuntimeOptions {
        RuntimeOptions {
            watchdog: Some(Duration::from_secs(30)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_diagnostic() {
        let e = RuntimeError::WorkerPanic {
            worker: 3,
            cell: Some((7, 2)),
            payload: "boom".into(),
        };
        assert_eq!(e.to_string(), "worker 3 panicked at cell (7, 2): boom");
        let e = RuntimeError::Stalled {
            stalled_cells: vec![(1, 0), (2, 4)],
        };
        assert!(e.to_string().contains("(1, 0), (2, 4)"), "{e}");
        let e = RuntimeError::Misuse("bad grid".into());
        assert!(e.to_string().contains("bad grid"));
    }

    #[test]
    fn default_options_disable_watchdog() {
        assert!(RuntimeOptions::default().watchdog.is_none());
        assert!(RuntimeOptions::watched().watchdog.is_some());
    }
}
