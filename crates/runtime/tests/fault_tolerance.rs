//! Fault-tolerance stress suite for the parallel runtime: oversubscribed
//! schedules, worker panics at adversarial positions, the seeded
//! fault-injection matrix, degraded sequential re-runs, and back-to-back
//! calls around a failing one.
//!
//! Every test asserts *prompt* error return — a contained failure must
//! surface as `Err(..)`, never as a hang: [`within`] runs the call on a
//! thread of its own and fails the test at a deadline.

use polymix_runtime::{
    par_for, pipeline_2d, reduce_array, taskgraph_2d, wavefront_2d, GridSweep, RuntimeError,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

fn grid(ni: i64, nj: i64) -> GridSweep {
    GridSweep {
        i_lo: 0,
        i_hi: ni,
        j_lo: 0,
        j_hi: nj,
    }
}

/// Runs `f` on a thread of its own and returns what it returned; fails
/// the test if `f` has not returned within `limit` (hang detector — the
/// hung thread is abandoned, not waited for). A panic in `f` is the
/// test's own failure and is re-raised here.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, wait) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match wait.recv_timeout(limit) {
        Ok(Ok(out)) => out,
        Ok(Err(panic)) => resume_unwind(panic),
        Err(_) => {
            panic!("primitive did not return within {limit:?} — stalled instead of failing fast")
        }
    }
}

/// The order-sensitive reference computation: table[i][j] =
/// table[i-1][j] + table[i][j-1], 1.0 fed in at the top row.
fn prefix_reference(ni: usize, nj: usize) -> Vec<f64> {
    let mut table = vec![0.0f64; ni * nj];
    for i in 0..ni {
        for j in 0..nj {
            let up = if i > 0 { table[(i - 1) * nj + j] } else { 1.0 };
            let left = if j > 0 { table[i * nj + j - 1] } else { 0.0 };
            table[i * nj + j] = up + left;
        }
    }
    table
}

fn prefix_body(table: &[Mutex<f64>], nj: usize) -> impl Fn(i64, i64) + Sync + '_ {
    move |i: i64, j: i64| {
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
    }
}

fn fresh_table(ni: usize, nj: usize) -> Vec<Mutex<f64>> {
    (0..ni * nj).map(|_| Mutex::new(0.0)).collect()
}

fn values(table: Vec<Mutex<f64>>) -> Vec<f64> {
    table.into_iter().map(|m| m.into_inner().unwrap()).collect()
}

#[test]
fn oversubscribed_pipeline_is_correct() {
    // Workers far beyond core count: the spin → yield waits must still
    // make global progress, and results must be exact.
    let (ni, nj) = (48usize, 64usize);
    let reference = prefix_reference(ni, nj);
    for threads in [32, 64] {
        let got = within(Duration::from_secs(60), move || {
            let table = fresh_table(ni, nj);
            pipeline_2d(grid(ni as i64, nj as i64), threads, prefix_body(&table, nj))
                .expect("oversubscribed clean run");
            values(table)
        });
        assert_eq!(got, reference, "threads={threads}");
    }
}

#[test]
fn oversubscribed_doall_and_reduction_are_correct() {
    let hits = within(Duration::from_secs(60), || {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        par_for(0, 1000, 128, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean run");
        hits
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

    let acc = within(Duration::from_secs(60), || {
        let mut acc = vec![0.0f64; 4];
        reduce_array(&mut acc, 0, 4000, 96, |i, local| {
            local[(i % 4) as usize] += 1.0;
        })
        .expect("clean run");
        acc
    });
    assert_eq!(acc, vec![1000.0; 4]);
}

/// Panic positions exercised for every primitive: first cell, a middle
/// cell, last cell.
fn positions(ni: i64, nj: i64) -> [(i64, i64); 3] {
    [(0, 0), (ni / 2, nj / 2), (ni - 1, nj - 1)]
}

#[test]
fn pipeline_panic_matrix_returns_promptly() {
    let (ni, nj) = (16i64, 16i64);
    for (pi, pj) in positions(ni, nj) {
        for threads in [2, 8] {
            let err = within(Duration::from_secs(60), move || {
                pipeline_2d(grid(ni, nj), threads, |i, j| {
                    if (i, j) == (pi, pj) {
                        panic!("boom at ({i}, {j})");
                    }
                })
                .expect_err("panic must surface")
            });
            match err {
                RuntimeError::WorkerPanic { cell, .. } => {
                    assert_eq!(cell, Some((pi, pj)), "threads={threads}")
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }
}

#[test]
fn wavefront_panic_matrix_returns_promptly() {
    let (ni, nj) = (12i64, 12i64);
    for (pi, pj) in positions(ni, nj) {
        let err = within(Duration::from_secs(60), move || {
            wavefront_2d(grid(ni, nj), 6, |i, j| {
                if (i, j) == (pi, pj) {
                    panic!("boom at ({i}, {j})");
                }
            })
            .expect_err("panic must surface")
        });
        assert!(
            matches!(err, RuntimeError::WorkerPanic { cell, .. } if cell == Some((pi, pj))),
            "{err:?}"
        );
    }
}

#[test]
fn doall_and_reduction_panic_matrix() {
    for p in [0i64, 500, 999] {
        let err = within(Duration::from_secs(60), move || {
            par_for(0, 1000, 8, |i| {
                if i == p {
                    panic!("boom at {i}");
                }
            })
            .expect_err("panic must surface")
        });
        assert!(
            matches!(err, RuntimeError::WorkerPanic { cell, .. } if cell == Some((p, 0))),
            "{err:?}"
        );
        let (err, acc) = within(Duration::from_secs(60), move || {
            let mut acc = vec![0.0];
            let err = reduce_array(&mut acc, 0, 1000, 8, |i, local| {
                if i == p {
                    panic!("boom at {i}");
                }
                local[0] += 1.0;
            })
            .expect_err("panic must surface");
            (err, acc)
        });
        assert!(
            matches!(err, RuntimeError::WorkerPanic { cell, .. } if cell == Some((p, 0))),
            "{err:?}"
        );
        assert_eq!(acc, vec![0.0], "a failed reduction merges no copy");
    }
}

#[test]
fn degraded_sequential_rerun_matches_reference() {
    // The bench-layer degradation contract in miniature: a parallel run
    // fails, the caller re-runs sequentially from scratch and gets the
    // exact reference answer.
    let (ni, nj) = (20usize, 24usize);
    let reference = prefix_reference(ni, nj);
    let table = fresh_table(ni, nj);
    let parallel = pipeline_2d(grid(ni as i64, nj as i64), 8, |i, j| {
        if (i, j) == (10, 11) {
            panic!("mid-run failure");
        }
        prefix_body(&table, nj)(i, j);
    });
    assert!(parallel.is_err());
    // Degrade: fresh state, threads = 1, no failing body.
    let table = fresh_table(ni, nj);
    pipeline_2d(grid(ni as i64, nj as i64), 1, prefix_body(&table, nj)).expect("sequential re-run");
    assert_eq!(values(table), reference);
}

#[test]
fn a_panicking_call_mid_stress_sequence_fails_alone() {
    // 50 back-to-back calls; call 25 panics. The panic must surface as
    // WorkerPanic for that call only, and every later call must still
    // run to completion.
    let n = 64i64;
    for round in 0..50 {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let result = par_for(0, n, 4, |i| {
            if round == 25 && i == 40 {
                std::panic::panic_any("stress boom");
            }
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        if round == 25 {
            let err = result.expect_err("round 25 must report the panic");
            assert!(
                matches!(
                    err,
                    RuntimeError::WorkerPanic {
                        cell: Some((40, 0)),
                        ..
                    }
                ),
                "unexpected error: {err:?}"
            );
        } else {
            result.expect("healthy rounds succeed");
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }
}

fn seidel_field(ni: usize, nj: usize) -> Vec<f64> {
    (0..ni * nj).map(|k| (k % 17) as f64).collect()
}

/// The Seidel-style dependent update of one interior cell of `field`.
fn seidel_cell(field: &mut [f64], nj: usize) -> impl Fn(i64, i64) + Sync {
    let ptr = field.as_mut_ptr() as usize;
    move |i, j| {
        let p = ptr as *mut f64;
        let (i, j) = (i as usize, j as usize);
        // SAFETY: each interior cell is written once, after its (i-1, j)
        // and (i, j-1) sources — exactly the order the executors enforce
        // — and `field` outlives the sweep that calls this.
        unsafe {
            let v = 0.2 * (*p.add(i * nj + j) + *p.add((i - 1) * nj + j) + *p.add(i * nj + j - 1));
            *p.add(i * nj + j) = v;
        }
    }
}

fn interior(ni: usize, nj: usize) -> GridSweep {
    GridSweep {
        i_lo: 1,
        i_hi: ni as i64,
        j_lo: 1,
        j_hi: nj as i64,
    }
}

/// Sweeps a fresh field with the pipeline; returns the final values.
fn seidel_sweep(ni: usize, nj: usize, threads: usize) -> Vec<f64> {
    let mut field = seidel_field(ni, nj);
    pipeline_2d(interior(ni, nj), threads, seidel_cell(&mut field, nj)).expect("seidel sweep");
    field
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn repeated_sweeps_agree_with_the_sequential_sweep_bit_for_bit() {
    let reference = seidel_sweep(33, 29, 1);
    // Many calls on small grids, each spawning and joining its own
    // workers, with the wavefront executors alongside.
    for round in 0..8 {
        assert!(
            bits_equal(&seidel_sweep(33, 29, 4), &reference),
            "round {round}: pipeline"
        );
        let mut field = seidel_field(33, 29);
        wavefront_2d(interior(33, 29), 3, seidel_cell(&mut field, 29)).expect("wavefront");
        assert!(bits_equal(&field, &reference), "round {round}: wavefront");
        let mut field = seidel_field(33, 29);
        taskgraph_2d(
            interior(33, 29),
            3,
            &[(1, 0), (0, 1)],
            seidel_cell(&mut field, 29),
        )
        .expect("taskgraph");
        assert!(bits_equal(&field, &reference), "round {round}: taskgraph");
    }
}

mod injected {
    use super::*;
    use polymix_runtime::fault_inject::FaultPlan;
    use polymix_runtime::order_check::OrderChecker;

    #[test]
    fn seeded_panic_matrix_across_primitives() {
        let (ni, nj) = (10i64, 10i64);
        for (pi, pj) in positions(ni, nj) {
            let plan_for = |seed| FaultPlan {
                seed,
                panic_at: Some((pi, pj)),
                ..FaultPlan::default()
            };
            let grids: [(&str, fn(FaultPlan) -> RuntimeError); 2] = [
                ("pipeline_2d", |plan| {
                    pipeline_2d(grid(10, 10), 4, plan.wrap(|_, _| {})).expect_err("must surface")
                }),
                ("wavefront_2d", |plan| {
                    wavefront_2d(grid(10, 10), 4, plan.wrap(|_, _| {})).expect_err("must surface")
                }),
            ];
            for (seed, (what, run)) in grids.into_iter().enumerate() {
                let plan = plan_for(42 + seed as u64);
                let err = within(Duration::from_secs(60), move || run(plan));
                match &err {
                    RuntimeError::WorkerPanic { cell, payload } => {
                        assert_eq!(*cell, Some((pi, pj)), "{what}");
                        assert!(payload.contains("fault-inject"), "{what}: {payload}");
                    }
                    other => panic!("{what}: unexpected {other:?}"),
                }
            }
            // par_for runs cells (i, 0): inject only on the diagonal's
            // first column positions.
            if pj == 0 || pi == pj {
                let target = (pi, 0);
                let plan = FaultPlan {
                    seed: 44,
                    panic_at: Some(target),
                    ..FaultPlan::default()
                };
                let err = within(Duration::from_secs(60), move || {
                    par_for(0, ni, 4, |i| plan.before_cell(i, 0))
                        .expect_err("injected panic must surface")
                });
                assert!(
                    matches!(&err, RuntimeError::WorkerPanic { cell, .. } if *cell == Some(target)),
                    "{err:?}"
                );
                // reduction shares the (i, 0) keying.
                let plan = FaultPlan {
                    seed: 45,
                    panic_at: Some(target),
                    ..FaultPlan::default()
                };
                let err = within(Duration::from_secs(60), move || {
                    let mut acc = vec![0.0];
                    reduce_array(&mut acc, 0, ni, 4, |i, _| plan.before_cell(i, 0))
                        .expect_err("injected panic must surface")
                });
                assert!(
                    matches!(&err, RuntimeError::WorkerPanic { cell, .. } if *cell == Some(target)),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn adversarial_schedule_preserves_correctness() {
        // Seeded delays + yield storms perturb the interleaving; both
        // fixed-cone executors (watched by an order checker) must still
        // produce exact results (`taskgraph.rs` does the same for
        // `taskgraph_2d`).
        let (ni, nj) = (24usize, 24usize);
        let reference = prefix_reference(ni, nj);
        let g = grid(ni as i64, nj as i64);
        for seed in [1u64, 2, 3] {
            for pipeline in [true, false] {
                let got = within(Duration::from_secs(120), move || {
                    let plan = FaultPlan {
                        seed,
                        delay_us_max: 50,
                        yield_pct: 25,
                        ..FaultPlan::default()
                    };
                    let checker = OrderChecker::new(g, &[(1, 0), (0, 1)]).expect("shadow fits");
                    let table = fresh_table(ni, nj);
                    let body = plan.wrap(checker.wrap(prefix_body(&table, nj)));
                    if pipeline {
                        pipeline_2d(g, 6, body)
                    } else {
                        wavefront_2d(g, 6, body)
                    }
                    .expect("adversarial but legal schedule");
                    checker.finish().expect("dependence cone kept");
                    values(table)
                });
                assert_eq!(got, reference, "pipeline={pipeline} seed={seed}");
            }
        }
    }

    /// Pipeline grids of depth 12 / 36 / 200 at 3 workers publish every
    /// 1 / 3 / 8 rows (the automatic batch at its floor, in the middle,
    /// at its cap). Under an adversarial seeded schedule (per-cell
    /// delays + yields) each must equal the sequential sweep and keep
    /// the await cone.
    #[test]
    fn every_automatic_batch_survives_an_adversarial_schedule() {
        let nj = 21usize;
        for ni in [13usize, 37, 201] {
            let reference = seidel_sweep(ni, nj, 1);
            let plan = FaultPlan {
                seed: 0xC0FFEE,
                delay_us_max: 40,
                yield_pct: 25,
                ..FaultPlan::default()
            };
            let checker =
                OrderChecker::new(interior(ni, nj), &[(1, 0), (0, 1)]).expect("shadow fits");
            let mut got = seidel_field(ni, nj);
            let body = plan.wrap(checker.wrap(seidel_cell(&mut got, nj)));
            pipeline_2d(interior(ni, nj), 3, body).expect("sweep under faults");
            checker
                .finish()
                .unwrap_or_else(|e| panic!("depth {}: {e}", ni - 1));
            assert!(
                bits_equal(&got, &reference),
                "depth {} diverged under the adversarial schedule",
                ni - 1
            );
        }
    }

    #[test]
    fn injected_failure_then_degraded_rerun() {
        // Acceptance scenario: injected panic in a worker, then the
        // sequential degraded re-run (no plan) matches reference.
        let (ni, nj) = (16usize, 16usize);
        let reference = prefix_reference(ni, nj);
        let err = within(Duration::from_secs(60), move || {
            let plan = FaultPlan {
                seed: 99,
                panic_at: Some((8, 8)),
                ..FaultPlan::default()
            };
            let table = fresh_table(ni, nj);
            pipeline_2d(
                grid(ni as i64, nj as i64),
                4,
                plan.wrap(prefix_body(&table, nj)),
            )
            .expect_err("injected panic must surface")
        });
        assert!(matches!(err, RuntimeError::WorkerPanic { .. }), "{err:?}");
        let table = fresh_table(ni, nj);
        pipeline_2d(grid(ni as i64, nj as i64), 1, prefix_body(&table, nj))
            .expect("degraded sequential re-run");
        assert_eq!(values(table), reference);
    }
}
