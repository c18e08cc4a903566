//! The poisonable progress fabric shared by the parallel primitives,
//! plus the cache-layout and backoff building blocks they sit on.
//!
//! Every primitive that blocks on a progress counter routes its waiting
//! through [`await_progress`], which layers three things on top of the
//! plain "spin until the counter reaches the target" loop:
//!
//! 1. **Poison**: a failing worker floods every counter with [`POISON`]
//!    (`i64::MAX`, which satisfies any target) and raises a shared flag,
//!    so waiters exit promptly instead of spinning forever.
//! 2. **Watchdog**: under [`RuntimeOptions::watchdog`], a waiter that
//!    sees the global progress epoch frozen for the whole deadline
//!    reports a stall instead of waiting forever.
//! 3. **Backoff**: spin → `yield_now` → `park_timeout` with exponential
//!    timeouts, so oversubscribed waiters stop burning scheduler quanta
//!    (no `unpark` is ever sent; the timeout bounds the wake latency).
//!
//! Per-worker progress counters are wrapped in [`CachePadded`] so two
//! workers publishing progress never write the same cache line: the
//! pipeline's `fetch_max` publish is the hottest cross-thread store in
//! the runtime, and unpadded `Vec<AtomicI64>` counters put eight of them
//! on one line.
//!
//! [`RuntimeOptions::watchdog`]: crate::error::RuntimeOptions

use crate::error::RuntimeError;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sentinel flooded into every progress counter when a run fails. It is
/// the maximum `i64`, so it satisfies any `await` target and releases
/// every waiter; workers always publish real progress with `fetch_max`,
/// which can never overwrite it.
pub const POISON: i64 = i64::MAX;

/// Pads and aligns `T` to a 64-byte cache line so neighboring values in
/// an array never share a line. Used for per-worker progress counters,
/// the [`Fabric`]'s shared flags, task-graph counters and deques, and
/// reduction accumulator headers — everything two workers touch at once.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` on its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline(always)]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Spin iterations before a waiter starts yielding (the number
/// `kernel_rt` uses too). Pure spinning livelocks when workers outnumber
/// cores; a bounded spin keeps the fast path cheap.
pub(crate) const SPIN_LIMIT: u32 = 1 << 10;

/// Yields between the spin phase and the parking phase.
const YIELD_LIMIT: u32 = 64;

/// First and maximum `park_timeout` intervals of the exponential tail.
const PARK_START: Duration = Duration::from_micros(50);
const PARK_CAP: Duration = Duration::from_millis(2);

/// The spin → yield → park backoff ladder, one per wait. Each phase has
/// a budget; `spin()` consumes the spin budget and reports whether the
/// caller is still on the cheap in-core path, `wait()` runs one step of
/// the slow ladder. A zero spin limit is honored exactly: the budget
/// starts empty and the first `spin()` returns `false` (no decrement, so
/// a zero budget can never underflow into a near-infinite spin phase).
pub(crate) struct Backoff {
    spins_left: u32,
    yields_left: u32,
    park: Duration,
}

impl Backoff {
    pub(crate) fn new(spin_limit: u32) -> Backoff {
        Backoff {
            spins_left: spin_limit,
            yields_left: YIELD_LIMIT,
            park: PARK_START,
        }
    }

    /// One step of the cheap phase; `false` once the budget is spent
    /// (immediately when the limit is 0 — skip straight to yielding).
    #[inline]
    pub(crate) fn spin(&mut self) -> bool {
        if self.spins_left == 0 {
            return false;
        }
        self.spins_left -= 1;
        std::hint::spin_loop();
        true
    }

    /// One step of the slow ladder: a bounded run of yields, then
    /// exponentially growing parks.
    pub(crate) fn wait(&mut self) {
        if self.yields_left > 0 {
            self.yields_left -= 1;
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(self.park);
            self.park = (self.park * 2).min(PARK_CAP);
        }
    }

    #[cfg(test)]
    fn in_spin_phase(&self) -> bool {
        self.spins_left > 0
    }
}

/// Renders a caught panic payload as text.
pub(crate) fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Shared failure state for one primitive invocation: the poison flag,
/// the first recorded error, and the watchdog's progress epoch. The two
/// atomics live on separate cache lines: the poison flag is read on
/// every waiter's slow path while the epoch is written on every publish,
/// and sharing a line would make each publish invalidate every waiter.
pub(crate) struct Fabric {
    poisoned: CachePadded<AtomicBool>,
    /// Monotonic counter bumped on every progress publish; only
    /// maintained when a watchdog is armed (`watching`), so unwatched
    /// hot paths pay nothing.
    epoch: CachePadded<AtomicU64>,
    watching: bool,
    /// Workers the invocation expects; until `started` catches up the
    /// watchdog keeps deferring to the pool's job-lifecycle heartbeat
    /// (a gang still being delivered to parked mailboxes is start-up
    /// latency, not an in-job stall).
    expected: usize,
    /// Workers that have come online (see [`Fabric::worker_online`]);
    /// only maintained when a watchdog is armed.
    started: CachePadded<AtomicUsize>,
    failure: Mutex<Option<RuntimeError>>,
}

impl Fabric {
    pub(crate) fn new(watching: bool, expected: usize) -> Fabric {
        Fabric {
            poisoned: CachePadded::new(AtomicBool::new(false)),
            epoch: CachePadded::new(AtomicU64::new(0)),
            watching,
            expected,
            started: CachePadded::new(AtomicUsize::new(0)),
            failure: Mutex::new(None),
        }
    }

    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Publishes one unit of global progress for the watchdog.
    #[inline]
    pub(crate) fn bump(&self) {
        if self.watching {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Called by each worker as its closure starts running: coming
    /// online is progress (it resets stall timers), and once all
    /// `expected` workers checked in the watchdog stops consulting the
    /// pool heartbeat and watches the progress epoch alone.
    #[inline]
    pub(crate) fn worker_online(&self) {
        if self.watching {
            self.started.fetch_add(1, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether every expected worker has come online. Vacuously true
    /// when the watchdog is off (nobody consults the answer then).
    #[inline]
    pub(crate) fn all_online(&self) -> bool {
        !self.watching || self.started.load(Ordering::Relaxed) >= self.expected
    }

    /// Records `err` (first failure wins), raises the poison flag, and
    /// floods `progress` so every waiter is released.
    pub(crate) fn poison(&self, err: RuntimeError, progress: &[CachePadded<AtomicI64>]) {
        {
            let mut slot = self.failure.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        self.poisoned.store(true, Ordering::Release);
        for cell in progress {
            cell.store(POISON, Ordering::Release);
        }
        // Poisoning counts as progress: it un-wedges watchdog timers so
        // released waiters report Poisoned, not a second Stalled.
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The recorded failure, if any (call after all workers joined).
    pub(crate) fn into_failure(self) -> Option<RuntimeError> {
        self.failure.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// How a wait on a progress counter ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wait {
    /// The counter reached the target.
    Ready,
    /// The run was poisoned by another worker; exit without working.
    Poisoned,
    /// The watchdog deadline elapsed with no global progress anywhere:
    /// the caller should declare the run stalled.
    Stalled,
}

/// The watchdog ledger shared by every waiting slow path (progress
/// awaits and the task graph's idle loop): reports a stall when the
/// fabric's progress epoch stayed frozen for the whole deadline.
///
/// Until the invocation's gang is fully online ([`Fabric::all_online`])
/// the pool's job-lifecycle heartbeat also counts as progress: a
/// persistent-pool gang is delivered to parked mailboxes one worker at
/// a time, and a waiter must not report `Stalled` while its peers are
/// still being woken up — only a *genuine in-job* freeze fires.
pub(crate) struct StallWatch {
    deadline: Option<Duration>,
    /// Armed lazily on the first slow-path observation:
    /// (epoch seen, pool heartbeat seen, when).
    seen: Option<(u64, u64, Instant)>,
}

impl StallWatch {
    pub(crate) fn new(deadline: Option<Duration>) -> StallWatch {
        StallWatch {
            deadline,
            seen: None,
        }
    }

    /// One slow-path observation; `true` means the deadline elapsed
    /// with no progress anywhere and the caller should declare a stall.
    pub(crate) fn stalled(&mut self, fabric: &Fabric) -> bool {
        let Some(dl) = self.deadline else {
            return false;
        };
        let epoch_now = fabric.epoch.load(Ordering::Relaxed);
        let hb_now = crate::pool::heartbeat();
        match &mut self.seen {
            None => {
                self.seen = Some((epoch_now, hb_now, Instant::now()));
                false
            }
            Some((epoch_seen, hb_seen, since)) => {
                let progressed = epoch_now != *epoch_seen
                    || (!fabric.all_online() && hb_now != *hb_seen);
                if progressed {
                    *epoch_seen = epoch_now;
                    *hb_seen = hb_now;
                    *since = Instant::now();
                    false
                } else {
                    since.elapsed() >= dl
                }
            }
        }
    }
}

/// Waits until `cell` reaches at least `target`, with poison checks,
/// the optional global-progress watchdog, and spin/yield/park backoff.
pub(crate) fn await_progress(
    cell: &AtomicI64,
    target: i64,
    fabric: &Fabric,
    deadline: Option<Duration>,
) -> Wait {
    await_progress_with_limit(cell, target, fabric, deadline, SPIN_LIMIT)
}

/// [`await_progress`] with an explicit spin budget, so tests reach the
/// slow path without burning the whole budget first.
pub(crate) fn await_progress_with_limit(
    cell: &AtomicI64,
    target: i64,
    fabric: &Fabric,
    deadline: Option<Duration>,
    spin_limit: u32,
) -> Wait {
    let mut backoff = Backoff::new(spin_limit);
    let mut watch = StallWatch::new(deadline);
    loop {
        let v = cell.load(Ordering::Acquire);
        if v == POISON {
            return Wait::Poisoned;
        }
        if v >= target {
            return Wait::Ready;
        }
        if backoff.spin() {
            continue;
        }
        // Slow path: the neighbor is genuinely behind (or wedged).
        if fabric.is_poisoned() {
            return Wait::Poisoned;
        }
        if watch.stalled(fabric) {
            return Wait::Stalled;
        }
        backoff.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spin_limit_skips_straight_to_yield_phase() {
        // The regression this pins: a zero spin budget must mean
        // "no spin phase at all" — the first spin() is refused without
        // touching the (unsigned) budget, so it can never underflow into
        // a ~2^32-iteration spin.
        let mut b = Backoff::new(0);
        assert!(!b.in_spin_phase());
        assert!(!b.spin());
        assert!(!b.spin(), "repeated spin() must stay refused");
    }

    #[test]
    fn spin_budget_is_exact() {
        let mut b = Backoff::new(2);
        assert!(b.spin());
        assert!(b.spin());
        assert!(!b.spin(), "budget of 2 allows exactly 2 spins");
    }

    #[test]
    fn await_with_zero_spin_limit_still_completes() {
        // A waiter with no spin budget must reach the target through the
        // yield/park ladder once another thread publishes it.
        let fabric = Fabric::new(false, 1);
        let cell = AtomicI64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                cell.store(7, Ordering::Release);
            });
            let got = await_progress_with_limit(&cell, 7, &fabric, None, 0);
            assert_eq!(got, Wait::Ready);
        });
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicI64>>(), 64);
        assert!(std::mem::size_of::<CachePadded<AtomicI64>>() >= 64);
        let v: Vec<CachePadded<AtomicI64>> =
            (0..4).map(|_| CachePadded::new(AtomicI64::new(0))).collect();
        let a = &*v[0] as *const AtomicI64 as usize;
        let b = &*v[1] as *const AtomicI64 as usize;
        assert!(b - a >= 64, "adjacent counters must not share a line");
        let padded = CachePadded::new(AtomicI64::new(9));
        assert_eq!(padded.load(Ordering::Relaxed), 9);
        assert_eq!(padded.into_inner().into_inner(), 9);
    }

    #[test]
    fn await_sees_ready_and_poison() {
        let fabric = Fabric::new(false, 1);
        let cell = AtomicI64::new(5);
        assert_eq!(await_progress(&cell, 5, &fabric, None), Wait::Ready);
        assert_eq!(await_progress(&cell, 3, &fabric, None), Wait::Ready);
        cell.store(POISON, Ordering::Release);
        assert_eq!(await_progress(&cell, 100, &fabric, None), Wait::Poisoned);
    }

    #[test]
    fn await_reports_stall_on_frozen_epoch() {
        // expected = 0: the gang counts as fully online, so the pool
        // heartbeat is ignored and only the frozen epoch matters (other
        // tests' pool activity must not reset this timer).
        let fabric = Fabric::new(true, 0);
        let cell = AtomicI64::new(0);
        let started = Instant::now();
        let got = await_progress(&cell, 1, &fabric, Some(Duration::from_millis(50)));
        assert_eq!(got, Wait::Stalled);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "stall detection took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn pool_heartbeat_defers_stall_until_gang_is_online() {
        // The watchdog regression this pins: one worker of a two-worker
        // gang starts waiting while its peer is still being delivered by
        // the pool. Pool heartbeats must keep resetting the stall timer
        // (start-up latency is not an in-job stall), so the waiter sees
        // the late publish instead of reporting Stalled.
        let fabric = Fabric::new(true, 2);
        fabric.worker_online(); // the waiter itself; peer not yet online
        assert!(!fabric.all_online());
        let cell = AtomicI64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Simulated mailbox/latch traffic while the peer spins
                // up, then the peer's publish — well past the deadline.
                for _ in 0..20 {
                    std::thread::sleep(Duration::from_millis(10));
                    crate::pool::bump_heartbeat();
                }
                cell.store(1, Ordering::Release);
            });
            let got = await_progress_with_limit(
                &cell,
                1,
                &fabric,
                Some(Duration::from_millis(50)),
                0,
            );
            assert_eq!(got, Wait::Ready, "heartbeat must defer the watchdog");
        });
    }

    #[test]
    fn heartbeat_does_not_mask_stalls_once_gang_is_online() {
        // Once every expected worker checked in, only the progress epoch
        // counts: job-lifecycle traffic from unrelated invocations must
        // not hide a genuinely wedged gang.
        let fabric = Fabric::new(true, 1);
        fabric.worker_online();
        assert!(fabric.all_online());
        let cell = AtomicI64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    crate::pool::bump_heartbeat();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let got = await_progress_with_limit(
                &cell,
                1,
                &fabric,
                Some(Duration::from_millis(50)),
                0,
            );
            stop.store(true, Ordering::Relaxed);
            assert_eq!(got, Wait::Stalled, "heartbeat must not mask a real stall");
        });
    }

    #[test]
    fn poison_floods_counters_and_keeps_first_error() {
        let progress: Vec<CachePadded<AtomicI64>> =
            (0..4).map(|_| CachePadded::new(AtomicI64::new(0))).collect();
        let fabric = Fabric::new(false, 4);
        fabric.poison(RuntimeError::Misuse("first".into()), &progress);
        fabric.poison(RuntimeError::Misuse("second".into()), &progress);
        assert!(fabric.is_poisoned());
        assert!(progress.iter().all(|c| c.load(Ordering::Acquire) == POISON));
        assert_eq!(
            fabric.into_failure(),
            Some(RuntimeError::Misuse("first".into()))
        );
    }

    #[test]
    fn payloads_render() {
        let b: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(payload_text(b.as_ref()), "boom");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(payload_text(b.as_ref()), "owned");
        let b: Box<dyn std::any::Any + Send> = Box::new(42i32);
        assert_eq!(payload_text(b.as_ref()), "<non-string panic payload>");
    }
}
