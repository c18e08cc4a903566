//! The parallel runtime of emitted kernels: the paper's Sec. IV-D
//! constructs ([`doall`], [`reduction`], [`pipeline`]) and the
//! [`wavefront`] doall the pipeline is compared with in Fig. 6.
//!
//! This file exists once and is used twice: compiled as
//! `polymix_runtime::kernel_rt` (and unit-tested in-process under
//! `crates/runtime/tests/`), and pasted verbatim by `polymix-codegen`
//! into every emitted kernel that has a parallel region, between
//! `// polymix kernel_rt begin` / `end` markers. `polymix-verify`
//! requires the pasted block to be byte-identical to this file, so it
//! must stay self-contained: std only, no `crate::` paths, no test
//! module.
//!
//! Failure protocol: a worker panic is caught at the worker boundary
//! ([`contained`]), raises its region's failure flag and floods
//! [`POISON`] through the region's counters, so no waiter spins forever
//! on a dead neighbor. Every entry point returns whether its region ran
//! clean (`false`: discard the half-computed results; a failed
//! [`reduction`] has merged nothing). A failure is the region's own: a
//! region started after another one failed runs normally. The panic also
//! raises the process-wide [`POISONED`], which an emitted `main` checks
//! instead of every return value.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// Flooded through a region's counters when one of its workers dies.
pub const POISON: i64 = i64::MAX;
/// Raised by every worker panic of the process; never cleared here.
pub static POISONED: AtomicBool = AtomicBool::new(false);
/// Polls of a counter before a waiter starts yielding its time slice.
const SPIN_LIMIT: u32 = 1024;

/// Whether any worker of any region has panicked.
pub fn poisoned() -> bool {
    POISONED.load(Ordering::Acquire)
}

/// A counter on its own cache line: the neighbor-polled progress publish
/// is the hottest cross-thread store of a pipelined kernel, and unpadded
/// counters would put eight of them on one line.
#[repr(align(64))]
pub struct Pad(pub AtomicI64);

/// An array base pointer that worker closures may capture.
#[derive(Clone, Copy)]
pub struct P(pub *mut f64);
// SAFETY: `P` is only an address. Which cells a worker may touch through
// it is decided by the region's certified annotation (doall: disjoint
// iterations; reduction: private copies; pipeline/wavefront: ordered by
// the counters below), not by this type.
unsafe impl Send for P {}
// SAFETY: as above; sharing the address itself is harmless.
unsafe impl Sync for P {}
impl P {
    /// The raw pointer. A method (not field access) so that closures
    /// capture the whole `P` under edition-2021 disjoint capture; the
    /// bare field is not `Send`.
    #[inline(always)]
    pub fn get(self) -> *mut f64 {
        self.0
    }
}

/// Runs one worker inside the unwind boundary. A panic fails the region:
/// `failed` and [`POISONED`] are raised, `counters` are flooded with
/// [`POISON`] and a `runtime_error:` line goes to stderr. The worker
/// returns `false` when it bailed out early because another worker of
/// its region failed.
pub fn contained<F: FnOnce() -> bool>(failed: &AtomicBool, counters: &[Pad], worker: F) {
    if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(worker)) {
        failed.store(true, Ordering::Release);
        POISONED.store(true, Ordering::Release);
        for c in counters {
            c.0.store(POISON, Ordering::Release);
        }
        eprintln!("runtime_error: {}", panic_text(p.as_ref()));
    }
}

/// The text of a panic payload: `&str` and `String` payloads verbatim.
pub fn panic_text(p: &(dyn std::any::Any + Send)) -> &str {
    match (p.downcast_ref::<&str>(), p.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s.as_str(),
        _ => "worker panic",
    }
}

/// Waits until `ready(cell)`: bounded spin, then yield, so oversubscribed
/// waiters cannot starve the thread they wait for. Returns `false` when
/// the region `failed` — the waiting worker must bail out. [`POISON`]
/// is tested before `ready`, so a flooded counter is never mistaken for
/// progress or for a genuine pending count; the flag catches a flooded
/// counter that a late decrement moved off [`POISON`].
///
/// `on_block` runs once, when the spin budget is exhausted. Pipelines
/// publish progress in batches and await in *both* directions, so a
/// blocked waiter flushes its own completed progress there: the
/// blocked-waiter graph then follows the true data dependences (acyclic)
/// and two workers can never each sit on an unpublished batch the other
/// needs.
fn wait(
    cell: &AtomicI64,
    failed: &AtomicBool,
    ready: impl Fn(i64) -> bool,
    on_block: impl FnOnce(),
) -> bool {
    let mut on_block = Some(on_block);
    let mut spins = 0u32;
    loop {
        let v = cell.load(Ordering::Acquire);
        if v == POISON {
            return false;
        }
        if ready(v) {
            return true;
        }
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else if failed.load(Ordering::Acquire) {
            return false;
        } else {
            if let Some(flush) = on_block.take() {
                flush();
            }
            std::thread::yield_now();
        }
    }
}

/// Workers for `units` units of work: never more workers than units.
fn workers(threads: usize, units: i64) -> usize {
    threads.min(units.max(1) as usize).max(1)
}

/// Runs the loop `lo..=hi` by `step` on scoped workers, calling
/// `body(worker, value)`. With `grain == None` worker `t` runs the `t`-th
/// of equal static blocks, one per worker; with `Some(g)` workers claim
/// chunks of `g` iterations from a shared cursor until the range is
/// exhausted (`g <= 0` derives ~8 chunks per worker: fine enough to
/// rebalance a triangular nest, coarse enough that the cursor stays off
/// the profile). One loop serves both: a static block is a single
/// pre-assigned claim. Returns whether no worker panicked.
fn for_chunks<F>(threads: usize, lo: i64, hi: i64, step: i64, grain: Option<i64>, body: F) -> bool
where
    F: Fn(usize, i64) + Sync,
{
    if hi < lo {
        return true;
    }
    let iters = (hi - lo) / step + 1;
    let nthr = workers(threads, iters);
    let n = nthr as i64;
    let chunk = match grain {
        None => (iters + n - 1) / n,
        Some(g) if g > 0 => g,
        Some(_) => (iters / (n * 8)).max(1),
    };
    let (cursor, failed) = (AtomicI64::new(0), AtomicBool::new(false));
    let (cursor, failed, body) = (&cursor, &failed, &body);
    std::thread::scope(|sc| {
        for t in 0..nthr {
            sc.spawn(move || {
                contained(failed, &[], || {
                    let claim = || cursor.fetch_add(chunk, Ordering::Relaxed);
                    let mut off = grain.map_or(t as i64 * chunk, |_| claim());
                    while off < iters {
                        let mut v = lo + off * step;
                        let last = lo + ((off + chunk).min(iters) - 1) * step;
                        while v <= last {
                            body(t, v);
                            v += step;
                        }
                        if grain.is_none() {
                            break;
                        }
                        off = claim();
                    }
                    true
                })
            });
        }
    });
    !failed.load(Ordering::Acquire)
}

/// Parallel loop over `lo..=hi` by `step` whose iterations are
/// independent. `grain` selects the schedule, see `for_chunks`: `None`
/// for rectangular nests (static blocks cost nothing), `Some` for nests
/// whose per-iteration work varies with the loop variable (a static
/// partition would load-imbalance them by design). Returns whether the
/// region ran clean.
pub fn doall<F>(threads: usize, lo: i64, hi: i64, step: i64, grain: Option<i64>, body: F) -> bool
where
    F: Fn(i64) + Sync,
{
    for_chunks(threads, lo, hi, step, grain, |_, v| body(v))
}

/// Parallel loop over `lo..=hi` by `step` whose iterations only
/// accumulate (`+=`) into the `reduced` arrays: every worker gets zeroed
/// private copies, `body(value, copies)` receives its worker's copies in
/// `reduced` order, and the copies are added into the arrays after the
/// join, in worker order — unless a worker panicked: then nothing is
/// added and the call returns `false`.
///
/// # Safety
/// Every `(base, len)` of `reduced` must point to `len` valid `f64`s
/// that nothing else accesses during the call.
pub unsafe fn reduction<F>(
    threads: usize,
    lo: i64,
    hi: i64,
    step: i64,
    reduced: &[(P, usize)],
    body: F,
) -> bool
where
    F: Fn(i64, &[P]) + Sync,
{
    // One set of copies per possible worker; an idle worker's stay zero.
    let mut copies: Vec<Vec<Vec<f64>>> = (0..threads.max(1))
        .map(|_| reduced.iter().map(|&(_, len)| vec![0.0f64; len]).collect())
        .collect();
    let bases: Vec<Vec<P>> = copies
        .iter_mut()
        .map(|mine| mine.iter_mut().map(|c| P(c.as_mut_ptr())).collect())
        .collect();
    if !for_chunks(threads, lo, hi, step, None, |t, v| body(v, &bases[t])) {
        return false;
    }
    for (a, &(base, _)) in reduced.iter().enumerate() {
        for mine in &copies {
            for (k, &x) in mine[a].iter().enumerate() {
                // SAFETY: `k < len` and the caller vouches for
                // `base[..len]`; the workers have been joined.
                unsafe { *base.0.add(k) += x };
            }
        }
    }
    true
}

/// Point-to-point pipeline over an outer loop `lo..=hi` by `step` whose
/// body is `phases` sibling inner loops (1 for the plain two-deep nest):
/// the inner dimension is cut into column blocks, one per worker; each
/// worker sweeps the outer loop and calls
/// `body(outer, phase, off_lo, off_hi)` to run one sibling clamped to
/// its block. Blocks are cut in *offset* space (inner value minus the
/// outer step's own smallest lower bound): `span` is the widest inner
/// extent over the outer range and `grid` the largest inner step, so
/// blocks are wider than the per-step ownership jitter of skewed tile
/// grids and sibling grids with small relative shifts quantize into the
/// same worker.
///
/// Before phase `ph` (counted across outer steps) a worker awaits
/// `source(ph, block-1)` — its left neighbor finished the same phase —
/// and `source(ph-1, block+1)` — its right neighbor finished the
/// previous one, which covers the leftward migration of at most one grid
/// step per phase. Progress is published every `batch` outer steps and
/// after the last one; see `wait` for why batching cannot deadlock.
/// Returns whether the region ran clean.
#[allow(clippy::too_many_arguments)]
pub fn pipeline<F>(
    threads: usize,
    lo: i64,
    hi: i64,
    step: i64,
    phases: i64,
    span: i64,
    grid: i64,
    batch: i64,
    body: F,
) -> bool
where
    F: Fn(i64, i64, i64, i64) + Sync,
{
    if hi < lo {
        return true;
    }
    let nthr = workers(threads, span / grid);
    let n = nthr as i64;
    let chunk = ((span + n - 1) / n + grid - 1) / grid * grid;
    let progress: Vec<Pad> = (0..nthr).map(|_| Pad(AtomicI64::new(-1))).collect();
    let failed = AtomicBool::new(false);
    let (progress, failed, body) = (&progress[..], &failed, &body);
    std::thread::scope(|sc| {
        for t in 0..nthr {
            sc.spawn(move || {
                contained(failed, progress, || {
                    let own = &progress[t].0;
                    let (off_lo, off_hi) = (t as i64 * chunk, (t as i64 + 1) * chunk - 1);
                    let (mut outer, mut steps) = (lo, 0i64);
                    while outer <= hi {
                        if failed.load(Ordering::Acquire) {
                            return false;
                        }
                        let publish = (steps + 1) % batch == 0 || outer + step > hi;
                        for phase in 0..phases {
                            let ph = steps * phases + phase;
                            // fetch_max never overwrites a flooded POISON.
                            let flush = || {
                                own.fetch_max(ph - 1, Ordering::AcqRel);
                            };
                            if t > 0 && !wait(&progress[t - 1].0, failed, |v| v >= ph, flush) {
                                return false;
                            }
                            if t + 1 < nthr
                                && !wait(&progress[t + 1].0, failed, |v| v >= ph - 1, flush)
                            {
                                return false;
                            }
                            body(outer, phase, off_lo, off_hi);
                            if publish {
                                own.fetch_max(ph, Ordering::AcqRel);
                            }
                        }
                        steps += 1;
                        outer += step;
                    }
                    true
                })
            });
        }
    });
    !failed.load(Ordering::Acquire)
}

/// Wavefront doall over the tile origins `tiles`: tiles run in
/// weighted-diagonal order `weight * u + v`, each diagonal after the
/// whole previous one. (The weight restores strict forward progress on
/// skewed tile grids, whose inner origin shifts per outer step.)
///
/// One thread scope serves the whole region: every diagonal counts its
/// unfinished tiles; workers claim tiles from a cursor in diagonal order,
/// await the previous diagonal's counter, run `body(u, v)`, then
/// decrement their own diagonal's. Claiming in topological order makes
/// the waits deadlock-free: the lowest claimed unfinished tile always
/// has every predecessor finished. Returns whether the region ran clean.
pub fn wavefront<F>(threads: usize, weight: i64, mut tiles: Vec<(i64, i64)>, body: F) -> bool
where
    F: Fn(i64, i64) + Sync,
{
    let diag = |&(u, v): &(i64, i64)| weight * u + v;
    tiles.sort_by_key(|t| (diag(t), t.0));
    let mut diag_of = Vec::with_capacity(tiles.len());
    let mut unfinished: Vec<Pad> = Vec::new();
    for (k, tile) in tiles.iter().enumerate() {
        if k == 0 || diag(tile) != diag(&tiles[k - 1]) {
            unfinished.push(Pad(AtomicI64::new(0)));
        }
        diag_of.push(unfinished.len() - 1);
        *unfinished[diag_of[k]].0.get_mut() += 1;
    }
    let (cursor, failed) = (AtomicI64::new(0), AtomicBool::new(false));
    let (tiles, diag_of, unfinished) = (&tiles[..], &diag_of[..], &unfinished[..]);
    let (cursor, failed, body) = (&cursor, &failed, &body);
    std::thread::scope(|sc| {
        for _ in 0..workers(threads, tiles.len() as i64) {
            sc.spawn(move || {
                contained(failed, unfinished, || loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                    if k >= tiles.len() {
                        return true;
                    }
                    let d = diag_of[k];
                    if failed.load(Ordering::Acquire)
                        || (d > 0 && !wait(&unfinished[d - 1].0, failed, |v| v <= 0, || ()))
                    {
                        return false;
                    }
                    body(tiles[k].0, tiles[k].1);
                    unfinished[d].0.fetch_sub(1, Ordering::AcqRel);
                })
            });
        }
    });
    !failed.load(Ordering::Acquire)
}
