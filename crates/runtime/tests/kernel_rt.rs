//! In-process tests of the emitted kernels' runtime (`kernel_rt.rs`, the
//! file `polymix-codegen` pastes into parallel kernels): every entry
//! point against a sequential oracle, no rustc involved. The poison
//! paths live in `kernel_rt_poison.rs` — `POISONED` is process-wide, so
//! they need a process of their own. The last two tests put the
//! crate's instruments on this runtime: a seeded adversarial
//! [`FaultPlan`] perturbs the schedule while an [`OrderChecker`] shadows
//! the synchronization the doc comments promise.

use polymix_runtime::fault_inject::FaultPlan;
use polymix_runtime::kernel_rt::{doall, pipeline, reduction, wavefront, Pad, P};
use polymix_runtime::order_check::OrderChecker;
use polymix_runtime::GridSweep;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

#[test]
fn doall_visits_every_iteration_exactly_once() {
    // Strided range whose upper bound is off the stride grid, under the
    // static schedule, the automatic dynamic grain and explicit grains.
    let (lo, hi, step) = (3i64, 100i64, 7i64);
    let expected: Vec<i64> = (lo..=hi).step_by(step as usize).collect();
    for threads in 1..=4 {
        for grain in [None, Some(0), Some(1), Some(4), Some(1000)] {
            let visits: Vec<AtomicU32> = (0..=hi).map(|_| AtomicU32::new(0)).collect();
            doall(threads, lo, hi, step, grain, |v| {
                visits[v as usize].fetch_add(1, Ordering::Relaxed);
            });
            for v in 0..=hi {
                let want = u32::from(expected.contains(&v));
                let got = visits[v as usize].load(Ordering::Relaxed);
                assert_eq!(
                    got, want,
                    "threads {threads} grain {grain:?}: iteration {v}"
                );
            }
        }
    }
    // Empty range: the body never runs.
    doall(4, 5, 4, 1, Some(0), |_| unreachable!("empty range"));
}

#[test]
fn reduction_combines_private_copies() {
    // hist[v % 5] += v, plus an owner-indexed write own[v] = v the
    // workers make directly.
    let n = 103i64;
    for threads in 1..=4 {
        let mut hist = vec![1.0f64; 5];
        let mut own = vec![0.0f64; n as usize];
        let (p_hist, p_own) = (P(hist.as_mut_ptr()), P(own.as_mut_ptr()));
        // SAFETY: `hist` has 5 cells and is only reached through the
        // private copies; iterations write disjoint cells of `own`.
        unsafe {
            reduction(threads, 0, n - 1, 1, &[(p_hist, 5)], move |v, copies| {
                *copies[0].get().add((v % 5) as usize) += v as f64;
                *p_own.get().add(v as usize) = v as f64;
            });
        }
        for (k, &h) in hist.iter().enumerate() {
            let want: i64 = (0..n).filter(|v| v % 5 == k as i64).sum();
            assert_eq!(h, 1.0 + want as f64, "threads {threads} bin {k}");
        }
        assert!(own.iter().enumerate().all(|(v, &x)| x == v as f64));
    }
}

/// A two-array dependent sweep on a skewed grid: at outer step `i` the
/// inner values run over `i + 1 ..= i + W` (offset `o = value - i`), and
///
/// * phase 0: `A[i][o] = 0.5·A[i][o-1] + 0.25·B[i-1][o+1] + B[i-1][o] + 1`
/// * phase 1: `B[i][o] = 0.5·B[i][o-1] + 0.25·A[i][o+1] + A[i][o]`
///
/// so each phase reads its left neighbor's current phase and its right
/// neighbor's previous one — exactly the pipeline's await cone. With one
/// phase, `B` is dropped and `A` reads its own previous step. A cell run
/// before one of its sources reads that source's initial value instead,
/// which changes the result.
struct Sweep {
    steps: i64,
    width: i64,
    phases: i64,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Sweep {
    fn new(steps: i64, width: i64, phases: i64) -> Sweep {
        // Row 0 and offsets 0 and width+1 are the fixed boundary.
        let cells = ((steps + 1) * (width + 2)) as usize;
        let boundary: Vec<f64> = (0..cells).map(|k| (k % 13) as f64 / 13.0).collect();
        Sweep {
            steps,
            width,
            phases,
            a: boundary.clone(),
            b: boundary,
        }
    }

    /// The emitted closure's shape: run one sibling of outer step `i`
    /// clamped to the offset block `off_lo..=off_hi`.
    ///
    /// # Safety
    /// `a` and `b` must be this sweep's arrays, and the caller must
    /// order calls so that every cell's sources were written before.
    unsafe fn block(&self, a: P, b: P, i: i64, phase: i64, off_lo: i64, off_hi: i64) {
        let row = self.width + 2;
        let at = |i: i64, o: i64| (i * row + o) as usize;
        let g0 = i + 1; // lower bound of the skewed inner loop at step i
        let mut v = g0 + off_lo.max(0);
        let v_hi = (i + self.width).min(g0 + off_hi);
        let (a, b) = (a.get(), b.get());
        while v <= v_hi {
            let o = v - i;
            if self.phases == 1 {
                *a.add(at(i, o)) = 0.5 * *a.add(at(i, o - 1))
                    + 0.25 * *a.add(at(i - 1, o + 1))
                    + *a.add(at(i - 1, o))
                    + 1.0;
            } else if phase == 0 {
                *a.add(at(i, o)) = 0.5 * *a.add(at(i, o - 1))
                    + 0.25 * *b.add(at(i - 1, o + 1))
                    + *b.add(at(i - 1, o))
                    + 1.0;
            } else {
                *b.add(at(i, o)) =
                    0.5 * *b.add(at(i, o - 1)) + 0.25 * *a.add(at(i, o + 1)) + *a.add(at(i, o));
            }
            v += 1;
        }
    }

    /// The oracle: plain loops, every sibling over its whole range.
    fn sequential(mut self) -> Vec<f64> {
        let (a, b) = (P(self.a.as_mut_ptr()), P(self.b.as_mut_ptr()));
        for i in 1..=self.steps {
            for phase in 0..self.phases {
                // SAFETY: program order is a valid order.
                unsafe { self.block(a, b, i, phase, 0, self.width - 1) };
            }
        }
        self.a.append(&mut self.b);
        self.a
    }

    fn run(mut self, threads: usize, batch: i64) -> Vec<f64> {
        let (a, b) = (P(self.a.as_mut_ptr()), P(self.b.as_mut_ptr()));
        let this = &self;
        pipeline(
            threads,
            1,
            self.steps,
            1,
            self.phases,
            self.width,
            1,
            batch,
            // SAFETY: the pipeline's awaits order every block after the
            // blocks holding its sources (see the struct docs).
            move |i, phase, off_lo, off_hi| unsafe { this.block(a, b, i, phase, off_lo, off_hi) },
        );
        self.a.append(&mut self.b);
        self.a
    }
}

fn adversarial_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        delay_us_max: 30,
        yield_pct: 25,
        ..FaultPlan::default()
    }
}

#[test]
fn pipeline_equals_the_sequential_sweep() {
    // Width 37 over up to 4 workers: ragged last block; 19 steps: not a
    // multiple of the batch, so the final-step publish matters.
    for phases in [1, 2] {
        let reference = Sweep::new(19, 37, phases).sequential();
        assert!(reference.iter().all(|x| x.is_finite()));
        for threads in 1..=4 {
            for batch in [1, 8] {
                let got = Sweep::new(19, 37, phases).run(threads, batch);
                assert!(
                    got.iter()
                        .zip(&reference)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "phases {phases} threads {threads} batch {batch} diverged"
                );
            }
        }
    }
}

#[test]
fn pipeline_keeps_its_await_cone_under_an_adversarial_schedule() {
    // One checker cell per block call: row = phase counted across outer
    // steps, column = worker block. The runtime promises each block
    // runs after its left neighbor's same phase, its right neighbor's
    // previous phase, and (sweep order) its own previous phase.
    let (steps, width) = (19i64, 37i64);
    for phases in [1, 2] {
        let reference = Sweep::new(steps, width, phases).sequential();
        for threads in 2..=4usize {
            for batch in [1, 8] {
                let mut sweep = Sweep::new(steps, width, phases);
                let chunk = (width + threads as i64 - 1) / threads as i64;
                let blocks = GridSweep {
                    i_lo: 0,
                    i_hi: steps * phases,
                    j_lo: 0,
                    j_hi: threads as i64,
                };
                let plan = adversarial_plan(0xC0FFEE + threads as u64);
                let checker =
                    OrderChecker::new(blocks, &[(1, 0), (0, 1), (1, -1)]).expect("shadow fits");
                let (a, b) = (P(sweep.a.as_mut_ptr()), P(sweep.b.as_mut_ptr()));
                let this = &sweep;
                // SAFETY: as in `Sweep::run`.
                let block = plan.wrap(checker.wrap(move |ph, blk| unsafe {
                    let (lo, hi) = (blk * chunk, (blk + 1) * chunk - 1);
                    this.block(a, b, 1 + ph / phases, ph % phases, lo, hi)
                }));
                pipeline(
                    threads,
                    1,
                    steps,
                    1,
                    phases,
                    width,
                    1,
                    batch,
                    |i, phase, off_lo, off_hi| {
                        assert_eq!(off_hi - off_lo + 1, chunk, "block width");
                        block((i - 1) * phases + phase, off_lo / chunk)
                    },
                );
                drop(block);
                let what = format!("phases {phases} threads {threads} batch {batch}");
                checker.finish().unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(plan.take_trace().len() as i64, steps * phases * threads as i64);
                sweep.a.append(&mut sweep.b);
                assert!(
                    sweep
                        .a
                        .iter()
                        .zip(&reference)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{what} diverged"
                );
            }
        }
    }
}

#[test]
fn wavefront_keeps_diagonal_order_under_an_adversarial_schedule() {
    // Every tile after its neighbors on the previous diagonal, (u-1, v)
    // and (u, v-1), and after (u-1, v-1) two diagonals back.
    let grid = GridSweep {
        i_lo: 0,
        i_hi: 6,
        j_lo: 0,
        j_hi: 7,
    };
    let tiles: Vec<(i64, i64)> = (0..6).flat_map(|u| (0..7).map(move |v| (u, v))).collect();
    for threads in 2..=4usize {
        let plan = adversarial_plan(0xD1A6 + threads as u64);
        let checker = OrderChecker::new(grid, &[(1, 0), (0, 1), (1, 1)]).expect("shadow fits");
        wavefront(threads, 1, tiles.clone(), plan.wrap(checker.wrap(|_, _| {})));
        checker
            .finish()
            .unwrap_or_else(|e| panic!("threads {threads}: {e}"));
        assert_eq!(plan.take_trace().len(), tiles.len(), "every tile ran once");
    }
}

#[test]
fn wavefront_runs_each_diagonal_after_the_previous_one() {
    // A 5 x 5 tile grid: the middle diagonal has 5 tiles for 4 workers
    // (ceil-div chunks of a per-diagonal split once indexed `diag[6..5]`).
    let n = 5i64;
    let tiles: Vec<(i64, i64)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
    for threads in 1..=4 {
        let clock = AtomicUsize::new(0);
        let stamps: Vec<(AtomicUsize, AtomicUsize)> = tiles
            .iter()
            .map(|_| (AtomicUsize::new(0), AtomicUsize::new(0)))
            .collect();
        wavefront(threads, 1, tiles.clone(), |u, v| {
            let (start, end) = &stamps[(u * n + v) as usize];
            assert_eq!(
                start.load(Ordering::Relaxed),
                0,
                "tile ({u}, {v}) ran twice"
            );
            start.store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::Relaxed);
            std::thread::yield_now();
            end.store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::Relaxed);
        });
        let diagonal = |d: i64, pick: fn(&(AtomicUsize, AtomicUsize)) -> usize| -> Vec<usize> {
            tiles
                .iter()
                .zip(&stamps)
                .filter(|((u, v), _)| u + v == d)
                .map(|(_, s)| pick(s))
                .collect()
        };
        for d in 0..2 * n - 1 {
            let starts = diagonal(d, |s| s.0.load(Ordering::Relaxed));
            assert!(
                starts.iter().all(|&s| s > 0),
                "threads {threads}: diagonal {d} incomplete"
            );
            if d > 0 {
                let prev_end = diagonal(d - 1, |s| s.1.load(Ordering::Relaxed));
                assert!(
                    prev_end.iter().max() < starts.iter().min(),
                    "threads {threads}: diagonal {d} started before diagonal {} finished",
                    d - 1
                );
            }
        }
    }
    // No tiles: returns without calling the body.
    wavefront(4, 1, Vec::new(), |_, _| unreachable!("no tiles"));
}

#[test]
fn progress_counters_own_a_cache_line() {
    // The pipeline's publish is the hottest cross-thread store of a
    // kernel: two neighbors' counters must never share a line.
    assert_eq!(std::mem::align_of::<Pad>(), 64);
    let counters: Vec<Pad> = (0..2).map(|_| Pad(Default::default())).collect();
    let (a, b) = (&counters[0] as *const Pad as usize, &counters[1] as *const Pad as usize);
    assert!(b - a >= 64, "adjacent counters must not share a line");
}
