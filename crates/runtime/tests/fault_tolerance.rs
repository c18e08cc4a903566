//! Fault-tolerance stress suite for the parallel runtime: oversubscribed
//! schedules, worker panics at adversarial positions, watchdog stall
//! detection, and the seeded fault-injection matrix plus degraded
//! sequential re-runs.
//!
//! Every test asserts *prompt* error return — a contained failure must
//! surface as `Err(..)`, never as a hang.

use polymix_runtime::{
    par_for, pipeline_2d, pipeline_2d_opts, reduce_array, wavefront_2d, GridSweep, RunStats,
    RuntimeError, RuntimeOptions,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn grid(ni: i64, nj: i64) -> GridSweep {
    GridSweep {
        i_lo: 0,
        i_hi: ni,
        j_lo: 0,
        j_hi: nj,
    }
}

/// Runs `f`, asserting it returns within `limit` (hang detector).
fn within<T>(limit: Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    assert!(
        started.elapsed() < limit,
        "primitive took {:?} (limit {limit:?}) — stalled instead of failing fast",
        started.elapsed()
    );
    out
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

#[test]
fn oversubscribed_pipeline_is_correct() {
    // Workers far beyond core count: the spin → yield → park backoff
    // must still make global progress, and results must be exact.
    let (ni, nj) = (48usize, 64usize);
    let reference = prefix_reference(ni, nj);
    for threads in [32, 64] {
        let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
        within(Duration::from_secs(60), || {
            pipeline_2d_opts(
                grid(ni as i64, nj as i64),
                threads,
                RuntimeOptions::watched(),
                prefix_body(&table, nj),
            )
            .expect("oversubscribed clean run")
        });
        let got: Vec<f64> = table.into_iter().map(|m| m.into_inner().unwrap()).collect();
        assert_eq!(got, reference, "threads={threads}");
    }
}

#[test]
fn oversubscribed_doall_and_reduction_are_correct() {
    let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
    within(Duration::from_secs(60), || {
        par_for(0, 1000, 128, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean run")
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

    let mut acc = vec![0.0f64; 4];
    within(Duration::from_secs(60), || {
        reduce_array(&mut acc, 0, 4000, 96, |i, local| {
            local[(i % 4) as usize] += 1.0;
        })
        .expect("clean run")
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
            let err = within(Duration::from_secs(60), || {
                pipeline_2d_opts(
                    grid(ni, nj),
                    threads,
                    RuntimeOptions::watched(),
                    |i, j| {
                        if (i, j) == (pi, pj) {
                            panic!("boom at ({i}, {j})");
                        }
                    },
                )
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
        let err = within(Duration::from_secs(60), || {
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
        let err = within(Duration::from_secs(60), || {
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
        let mut acc = vec![0.0];
        let err = within(Duration::from_secs(60), || {
            reduce_array(&mut acc, 0, 1000, 8, |i, local| {
                if i == p {
                    panic!("boom at {i}");
                }
                local[0] += 1.0;
            })
            .expect_err("panic must surface")
        });
        assert!(matches!(err, RuntimeError::WorkerPanic { .. }), "{err:?}");
    }
}

#[test]
fn degraded_sequential_rerun_matches_reference() {
    // The bench-layer degradation contract in miniature: a parallel run
    // fails, the caller re-runs sequentially from scratch and gets the
    // exact reference answer.
    let (ni, nj) = (20usize, 24usize);
    let reference = prefix_reference(ni, nj);
    let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
    let parallel = pipeline_2d(grid(ni as i64, nj as i64), 8, |i, j| {
        if (i, j) == (10, 11) {
            panic!("mid-run failure");
        }
        prefix_body(&table, nj)(i, j);
    });
    assert!(parallel.is_err());
    // Degrade: fresh state, threads = 1, no failing body.
    let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
    let stats: RunStats = pipeline_2d(grid(ni as i64, nj as i64), 1, prefix_body(&table, nj))
        .expect("sequential re-run");
    assert_eq!(stats.workers, 1);
    let got: Vec<f64> = table.into_iter().map(|m| m.into_inner().unwrap()).collect();
    assert_eq!(got, reference);
}

mod injected {
    use super::*;
    use polymix_runtime::fault_inject::FaultPlan;
    use polymix_runtime::order_check::OrderChecker;

    #[test]
    fn seeded_panic_matrix_across_primitives() {
        let (ni, nj) = (10i64, 10i64);
        for (pi, pj) in positions(ni, nj) {
            // pipeline_2d
            {
                let plan = FaultPlan {
                    seed: 42,
                    panic_at: Some((pi, pj)),
                    ..FaultPlan::default()
                };
                let err = within(Duration::from_secs(60), || {
                    pipeline_2d_opts(
                        grid(ni, nj),
                        4,
                        RuntimeOptions::watched(),
                        plan.wrap(|_, _| {}),
                    )
                    .expect_err("injected panic must surface")
                });
                match &err {
                    RuntimeError::WorkerPanic { cell, payload, .. } => {
                        assert_eq!(*cell, Some((pi, pj)));
                        assert!(payload.contains("fault-inject"), "{payload}");
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            // wavefront_2d
            {
                let plan = FaultPlan {
                    seed: 43,
                    panic_at: Some((pi, pj)),
                    ..FaultPlan::default()
                };
                let err = within(Duration::from_secs(60), || {
                    wavefront_2d(grid(ni, nj), 4, plan.wrap(|_, _| {}))
                        .expect_err("injected panic must surface")
                });
                assert!(
                    matches!(&err, RuntimeError::WorkerPanic { cell, .. } if *cell == Some((pi, pj))),
                    "{err:?}"
                );
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
                let err = within(Duration::from_secs(60), || {
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
                let mut acc = vec![0.0];
                let err = within(Duration::from_secs(60), || {
                    reduce_array(&mut acc, 0, ni, 4, |i, _| plan.before_cell(i, 0))
                        .expect_err("injected panic must surface")
                });
                assert!(matches!(&err, RuntimeError::WorkerPanic { .. }), "{err:?}");
            }
        }
    }

    #[test]
    fn injected_stall_trips_watchdog() {
        // Worker 0 sleeps 400 ms before its first cell; a 50 ms
        // watchdog must report Stalled long before the sleep ends
        // naturally — and the stalled frontier must name worker 0's
        // block.
        let plan = FaultPlan {
            seed: 7,
            stall_ms_at: Some(((0, 0), 400)),
            ..FaultPlan::default()
        };
        let opts = RuntimeOptions {
            watchdog: Some(Duration::from_millis(50)),
        };
        let err = within(Duration::from_secs(30), || {
            pipeline_2d_opts(grid(32, 32), 4, opts, plan.wrap(|_, _| {}))
                .expect_err("stall must be detected")
        });
        match err {
            RuntimeError::Stalled { stalled_cells } => {
                assert!(
                    stalled_cells.contains(&(0, 0)),
                    "frontier {stalled_cells:?} misses the wedged cell"
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn adversarial_schedule_preserves_correctness() {
        // Seeded delays + yield storms perturb the interleaving; the
        // dependence protocol (watched by an order checker) must still
        // produce exact results.
        let (ni, nj) = (24usize, 24usize);
        let reference = prefix_reference(ni, nj);
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan {
                seed,
                delay_us_max: 50,
                yield_pct: 25,
                ..FaultPlan::default()
            };
            let g = grid(ni as i64, nj as i64);
            let checker = OrderChecker::new(g, &[(1, 0), (0, 1)]).expect("shadow fits");
            let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
            within(Duration::from_secs(120), || {
                pipeline_2d_opts(
                    g,
                    6,
                    RuntimeOptions::watched(),
                    plan.wrap(checker.wrap(prefix_body(&table, nj))),
                )
                .expect("adversarial but legal schedule")
            });
            checker.finish().expect("await cone kept");
            let got: Vec<f64> = table.into_iter().map(|m| m.into_inner().unwrap()).collect();
            assert_eq!(got, reference, "seed={seed}");
        }
    }

    #[test]
    fn injected_failure_then_degraded_rerun() {
        // Acceptance scenario: injected panic in a worker, then the
        // sequential degraded re-run (no plan) matches reference.
        let (ni, nj) = (16usize, 16usize);
        let reference = prefix_reference(ni, nj);
        {
            let plan = FaultPlan {
                seed: 99,
                panic_at: Some((8, 8)),
                ..FaultPlan::default()
            };
            let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
            let err = within(Duration::from_secs(60), || {
                pipeline_2d_opts(
                    grid(ni as i64, nj as i64),
                    4,
                    RuntimeOptions::watched(),
                    plan.wrap(prefix_body(&table, nj)),
                )
                .expect_err("injected panic must surface")
            });
            assert!(matches!(err, RuntimeError::WorkerPanic { .. }), "{err:?}");
        }
        let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
        pipeline_2d(grid(ni as i64, nj as i64), 1, prefix_body(&table, nj))
            .expect("degraded sequential re-run");
        let got: Vec<f64> = table.into_iter().map(|m| m.into_inner().unwrap()).collect();
        assert_eq!(got, reference);
    }
}
