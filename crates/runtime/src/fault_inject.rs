//! Deterministic fault injection as a *body adapter*.
//!
//! A [`FaultPlan`] is a value: [`FaultPlan::wrap`] turns a cell body
//! into the same body preceded by seeded misbehaviour — a per-cell
//! delay and an adversarial yield (to shake out ordering assumptions),
//! a finite stall at one chosen cell (to hold one worker while the
//! others run ahead), a panic at one chosen cell (to exercise poison
//! containment). Every
//! decision is a splitmix-style hash of `(seed, i, j)`, so a failing
//! schedule replays exactly from its seed — no wall-clock or OS
//! randomness is consulted — and because the adapter only needs a cell
//! coordinate it works over any executor: the library primitives,
//! [`kernel_rt`](crate::kernel_rt), or a plain loop.
//!
//! A plan holds no process state and owns its own trace, so any number
//! of plans run side by side in one process. What an adapter cannot do
//! is reach *inside* an executor (perturb a wait loop, delay a worker's
//! start); delays and yields in front of cell bodies are what moves
//! workers relative to each other. Injected stalls are always finite:
//! the executors join their workers, so an infinite injected sleep
//! would turn a contained error into a real hang.

use std::sync::Mutex;
use std::time::Duration;

/// What to inject, and where. `Default` injects nothing.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Seed for every per-cell pseudo-random decision.
    pub seed: u64,
    /// Panic just before executing this cell.
    pub panic_at: Option<(i64, i64)>,
    /// Sleep this many milliseconds just before executing this cell —
    /// a finite stall that lets the other workers run ahead.
    pub stall_ms_at: Option<((i64, i64), u64)>,
    /// Upper bound (exclusive) on a seeded per-cell delay in
    /// microseconds; 0 disables delays.
    pub delay_us_max: u64,
    /// Percentage of cells that yield their time slice before running;
    /// 0 disables.
    pub yield_pct: u8,
    /// The decisions drawn so far by bodies this plan wrapped; drain it
    /// with [`FaultPlan::take_trace`].
    pub trace: Mutex<Vec<TraceEvent>>,
}

/// One recorded injection decision: cell `(i, j)` ran, and the seeded
/// delay and yield decision it drew. A pure function of `(seed, i, j)`,
/// so two runs that execute the same cells produce the same *set* of
/// events regardless of interleaving — compare traces sorted.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    pub i: i64,
    pub j: i64,
    pub delay_us: u64,
    pub yielded: bool,
}

/// splitmix64-style mix of the seed and a cell coordinate.
fn mix(seed: u64, i: i64, j: i64) -> u64 {
    let mut z = seed
        ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// `body` preceded by this plan's decisions for the cell.
    pub fn wrap<'a, F>(&'a self, body: F) -> impl Fn(i64, i64) + Sync + 'a
    where
        F: Fn(i64, i64) + Sync + 'a,
    {
        move |i, j| {
            self.before_cell(i, j);
            body(i, j)
        }
    }

    /// What [`FaultPlan::wrap`] runs in front of cell `(i, j)`, for
    /// bodies of another shape (1-D bodies pass `(i, 0)`). Ordering:
    /// delay, then yield, then stall, then panic — so a panic cell can
    /// also be delayed first.
    pub fn before_cell(&self, i: i64, j: i64) {
        let delay_us = if self.delay_us_max > 0 {
            mix(self.seed, i, j) % self.delay_us_max
        } else {
            0
        };
        let yielded = self.yield_pct > 0
            && mix(self.seed ^ 0xA5A5_A5A5, i, j) % 100 < u64::from(self.yield_pct);
        self.trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(TraceEvent {
                i,
                j,
                delay_us,
                yielded,
            });
        if delay_us > 0 {
            std::thread::sleep(Duration::from_micros(delay_us));
        }
        if yielded {
            std::thread::yield_now();
        }
        if let Some((cell, ms)) = self.stall_ms_at {
            if cell == (i, j) {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if self.panic_at == Some((i, j)) {
            #[allow(clippy::panic)] // the whole point of this module
            {
                panic!("fault-inject: seeded panic at cell ({i}, {j})");
            }
        }
    }

    /// Drains the trace, sorted — recording order is
    /// scheduling-dependent, the event set is not.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        let mut trace = std::mem::take(&mut *self.trace.lock().unwrap_or_else(|e| e.into_inner()));
        trace.sort();
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 3, 4), mix(7, 3, 4));
        assert_ne!(mix(7, 3, 4), mix(8, 3, 4));
        assert_ne!(mix(7, 3, 4), mix(7, 4, 3));
    }

    #[test]
    fn wrapped_body_panics_only_at_the_chosen_cell() {
        let plan = FaultPlan {
            panic_at: Some((2, 3)),
            ..FaultPlan::default()
        };
        let ran = Mutex::new(Vec::new());
        let cell = plan.wrap(|i, j| ran.lock().unwrap().push((i, j)));
        cell(0, 0);
        cell(3, 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cell(2, 3)));
        assert!(caught.is_err());
        assert_eq!(*ran.lock().unwrap(), vec![(0, 0), (3, 2)]);
    }

    #[test]
    fn trace_records_seeded_decisions_and_drains() {
        let plan = FaultPlan {
            seed: 99,
            delay_us_max: 5,
            yield_pct: 50,
            ..FaultPlan::default()
        };
        plan.before_cell(1, 2);
        plan.before_cell(3, 4);
        let a = plan.take_trace();
        assert_eq!(a.len(), 2, "{a:?}");
        assert!(plan.take_trace().is_empty(), "drain must clear the trace");
        // Re-running the same cells yields the same decisions.
        plan.before_cell(3, 4);
        plan.before_cell(1, 2);
        assert_eq!(
            a,
            plan.take_trace(),
            "injection decisions must be seed-deterministic"
        );
    }
}
