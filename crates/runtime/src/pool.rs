//! The persistent worker pool behind the parallel primitives.
//!
//! The first parallel invocation spawns workers; afterwards they park on
//! their mailboxes between jobs, so a sweep that calls `pipeline_2d`
//! thousands of times on small grids pays the thread-spawn tax once per
//! process instead of once per invocation (`threads × ~50µs` each).
//!
//! ## Gang scheduling, not work stealing
//!
//! Pipeline workers block on each other's progress counters, so a job's
//! `k` workers must all run concurrently — a task queue that ran 3 of 4
//! pipeline workers would deadlock. Reservation is therefore
//! all-or-nothing: [`execute`] atomically reserves `k` idle workers
//! (growing the pool up to [`MAX_POOL_THREADS`]) or, when the pool
//! cannot field the gang, runs it on scoped threads spawned for the
//! call. No partial holds means no reservation deadlock between
//! concurrent invocations.
//!
//! ## Safety of scoped closures on persistent threads
//!
//! A job hands workers a borrowed `&dyn Fn(usize)` with its lifetime
//! erased. This is sound because the submitter blocks on the job's
//! completion latch before returning: a worker's last touch of the task
//! pointer happens strictly before its latch arrival, and the borrow
//! outlives the submitting call. The latch itself is `Arc`-shared so a
//! worker finishing *after* the submitter wakes never touches freed
//! memory.
//!
//! ## Fault containment
//!
//! Workers run tasks under `catch_unwind` and arrive at the latch on
//! every path, so a panicking job can neither kill a pool thread nor
//! hang its submitter; the pool is reusable immediately afterwards.
//! (The primitives additionally contain panics *inside* their tasks to
//! record the failing cell — this boundary is the backstop.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Process-global job-lifecycle heartbeat: bumped when a worker picks a
/// job out of its mailbox, when it finishes one, and when a
/// fallback (scoped-spawn) worker starts or ends. The watchdog
/// ([`crate::sync::StallWatch`]) consults it while an invocation's gang
/// is still coming online, so workers parked between jobs (or threads
/// still being spawned) read as start-up latency instead of a stall.
static HEARTBEAT: AtomicU64 = AtomicU64::new(0);

/// Current heartbeat value (monotonic, process-wide).
pub(crate) fn heartbeat() -> u64 {
    HEARTBEAT.load(Ordering::Relaxed)
}

/// Records one job-lifecycle transition.
pub(crate) fn bump_heartbeat() {
    HEARTBEAT.fetch_add(1, Ordering::Relaxed);
}

/// Hard ceiling on pool threads; requests beyond it (or past a failed
/// thread spawn) use the scoped-spawn fallback. Generous because the
/// fault-tolerance suite deliberately oversubscribes (128 workers on a
/// single core) and parked threads cost only stack address space.
const MAX_POOL_THREADS: usize = 256;

/// Completion latch for one job, `Arc`-shared with its workers.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(k: usize) -> Latch {
        Latch {
            remaining: Mutex::new(k),
            cv: Condvar::new(),
        }
    }

    fn arrive(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *left > 0 {
            left = self
                .cv
                .wait(left)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One job assignment delivered to one worker.
struct Assignment {
    /// Lifetime-erased borrow of the submitter's task closure; valid
    /// until the latch arrival (see module docs).
    task: *const (dyn Fn(usize) + Sync),
    slot: usize,
    latch: Arc<Latch>,
}

// SAFETY: the pointee is `Sync` (shared by all workers of the job) and
// the pointer's validity is enforced by the latch protocol above.
unsafe impl Send for Assignment {}

/// A worker's single-slot job queue.
struct Mailbox {
    slot: Mutex<Option<Assignment>>,
    cv: Condvar,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn deliver(&self, job: Assignment) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(job);
        self.cv.notify_one();
    }

    fn take_job(&self) -> Assignment {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = slot.take() {
                return job;
            }
            slot = self.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct PoolInner {
    idle: Mutex<Vec<Arc<Mailbox>>>,
    spawned: AtomicUsize,
}

/// The process-wide pool. Lives for the process lifetime — workers are
/// never shut down, only parked — so there is no drop protocol to race.
pub(crate) struct WorkerPool {
    inner: Arc<PoolInner>,
}

fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool {
        inner: Arc::new(PoolInner {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        }),
    })
}

fn worker_loop(mailbox: Arc<Mailbox>, pool: Arc<PoolInner>) {
    loop {
        let job = mailbox.take_job();
        bump_heartbeat();
        // SAFETY: the submitter blocks on `job.latch` until after this
        // call returns, so the borrow behind `task` is still live.
        let task = unsafe { &*job.task };
        let slot = job.slot;
        let _ = catch_unwind(AssertUnwindSafe(|| task(slot)));
        // Done touching the task: make this worker reservable again,
        // then release the submitter. A new job delivered between these
        // two steps just waits in the mailbox for the next loop turn.
        {
            let mut idle = pool.idle.lock().unwrap_or_else(|e| e.into_inner());
            idle.push(Arc::clone(&mailbox));
        }
        bump_heartbeat();
        job.latch.arrive();
    }
}

impl WorkerPool {
    /// Reserves `k` workers all-or-nothing and runs `task(0..k)` on
    /// them, blocking until every worker finished. Returns `false`
    /// (running nothing) if the pool cannot field `k` workers.
    fn try_run(&self, k: usize, task: &(dyn Fn(usize) + Sync)) -> bool {
        let mut got: Vec<Arc<Mailbox>> = {
            let mut idle = self.inner.idle.lock().unwrap_or_else(|e| e.into_inner());
            let keep = idle.len() - idle.len().min(k);
            idle.split_off(keep)
        };
        while got.len() < k {
            match self.spawn_worker() {
                Some(mb) => got.push(mb),
                None => {
                    // Cap or OS spawn failure: release what we held.
                    let mut idle =
                        self.inner.idle.lock().unwrap_or_else(|e| e.into_inner());
                    idle.append(&mut got);
                    return false;
                }
            }
        }
        let latch = Arc::new(Latch::new(k));
        // SAFETY: lifetime erasure justified by the latch protocol (see
        // module docs): `latch.wait()` below outlives every dereference.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        for (slot, mb) in got.into_iter().enumerate() {
            mb.deliver(Assignment {
                task,
                slot,
                latch: Arc::clone(&latch),
            });
        }
        latch.wait();
        true
    }

    /// Spawns one more parked worker, or `None` at the cap / on OS
    /// failure. The count is reserved optimistically and returned on
    /// failure so racing growers never overshoot the cap.
    fn spawn_worker(&self) -> Option<Arc<Mailbox>> {
        if self.inner.spawned.fetch_add(1, Ordering::Relaxed) >= MAX_POOL_THREADS {
            self.inner.spawned.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        let mailbox = Arc::new(Mailbox::new());
        let mb = Arc::clone(&mailbox);
        let pool = Arc::clone(&self.inner);
        match std::thread::Builder::new()
            .name("polymix-pool".into())
            .spawn(move || worker_loop(mb, pool))
        {
            Ok(_) => Some(mailbox),
            Err(_) => {
                self.inner.spawned.fetch_sub(1, Ordering::Relaxed);
                None
            }
        }
    }
}

/// Runs `task(t)` for every `t in 0..k` concurrently: on the
/// persistent pool, or — only when the pool cannot field `k` workers
/// (cap reached, or the OS refused a thread) — on scoped threads spawned
/// for this call. `task` must contain its own panics (the primitives
/// do); the pool adds a backstop `catch_unwind`.
pub(crate) fn execute(k: usize, task: &(dyn Fn(usize) + Sync)) {
    if global().try_run(k, task) {
        return;
    }
    std::thread::scope(|s| {
        for t in 0..k {
            s.spawn(move || {
                bump_heartbeat();
                task(t);
                bump_heartbeat();
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_all_slots_and_is_reusable() {
        let pool = global();
        for round in 0..10u64 {
            let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            assert!(pool.try_run(4, &|t| {
                hits[t].fetch_add(round + 1, Ordering::Relaxed);
            }));
            assert!(hits
                .iter()
                .all(|h| h.load(Ordering::Relaxed) == round + 1));
        }
    }

    #[test]
    fn panicking_job_does_not_wedge_the_pool() {
        let pool = global();
        assert!(pool.try_run(3, &|t| {
            if t == 1 {
                std::panic::panic_any("pool boom");
            }
        }));
        // The pool must still field all three workers afterwards.
        let count = AtomicU64::new(0);
        assert!(pool.try_run(3, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn oversized_requests_fall_back() {
        // More workers than the cap leaves: the pool refuses the gang
        // whole, and `execute` still runs every slot on scoped threads.
        let k = MAX_POOL_THREADS + 1;
        assert!(!global().try_run(k, &|_| {}), "past the cap the pool must refuse");
        let hits: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        execute(k, &|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
