//! Adversarial integration suite for `taskgraph_2d`, the wavefront over
//! any set of lexicographically positive dependence vectors: seeded
//! fault injection through the same body adapter as every other
//! primitive, and cross-validation against the dynamic order checker
//! built from the call's own vectors.

use polymix_runtime::fault_inject::FaultPlan;
use polymix_runtime::order_check::OrderChecker;
use polymix_runtime::{taskgraph_2d, GridSweep, RuntimeError};
use std::collections::HashSet;
use std::sync::Mutex;

fn grid(ni: i64, nj: i64) -> GridSweep {
    GridSweep {
        i_lo: 0,
        i_hi: ni,
        j_lo: 0,
        j_hi: nj,
    }
}

#[test]
fn order_checker_cross_validates_taskgraph_run() {
    // The checker is built from the call's own vector set, whatever it
    // is, and every cell must observe each of its sources first.
    for deps in [
        vec![(1i64, 0i64), (0, 1)],
        // The anti-diagonal vector neither fixed-cone executor
        // expresses: all three relations are checked.
        vec![(1, 0), (0, 1), (1, -1)],
        // A cone that does not order the (i, j-1) source: checked
        // against (1, 0) alone, so no phantom violations.
        vec![(1, 0)],
    ] {
        let g = grid(12, 9);
        let checker = OrderChecker::new(g, &deps).expect("shadow fits");
        taskgraph_2d(g, 4, &deps, checker.wrap(|_, _| {})).expect("runs clean");
        checker.finish().unwrap_or_else(|e| panic!("{deps:?}: {e}"));
    }
    // The check is not vacuous: a run for (1, 0) alone puts (0, 1) and
    // (1, 0) on one diagonal, so the (1, -1) relation between them is
    // not kept once (0, 1) is stalled.
    let g = grid(2, 8);
    let plan = FaultPlan {
        stall_ms_at: Some(((0, 1), 100)),
        ..FaultPlan::default()
    };
    let checker = OrderChecker::new(g, &[(1, 0), (0, 1), (1, -1)]).expect("shadow fits");
    taskgraph_2d(g, 4, &[(1, 0)], plan.wrap(checker.wrap(|_, _| {}))).expect("the run itself");
    assert!(matches!(checker.finish(), Err(RuntimeError::Misuse(_))));
}

mod faults {
    use super::*;

    #[test]
    fn seeded_panic_mid_tile_poisons_transitive_successors() {
        let plan = FaultPlan {
            seed: 0xBAD,
            delay_us_max: 25,
            yield_pct: 20,
            panic_at: Some((3, 3)),
            ..FaultPlan::default()
        };
        let ran: Mutex<HashSet<(i64, i64)>> = Mutex::new(HashSet::new());
        let body = plan.wrap(|i, j| {
            ran.lock().unwrap().insert((i, j));
        });
        let err = taskgraph_2d(grid(10, 10), 4, &[(1, 0), (0, 1)], body)
            .expect_err("injected panic must surface");
        match err {
            RuntimeError::WorkerPanic { cell, payload } => {
                assert_eq!(cell, Some((3, 3)));
                assert!(payload.contains("fault-inject"), "{payload}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        let ran = ran.lock().unwrap();
        assert!(!ran.contains(&(3, 3)), "the panicked cell never completed");
        for i in 3..10 {
            for j in 3..10 {
                assert!(
                    !ran.contains(&(i, j)),
                    "transitive successor ({i}, {j}) ran after the poison"
                );
            }
        }
    }

    #[test]
    fn adversarial_schedules_preserve_order_sensitive_results() {
        // Seeded delays + yields across several seeds: the weighted
        // wavefront must still produce the sequential prefix-sum table,
        // with the order checker armed the whole time.
        let ni = 11usize;
        let nj = 13usize;
        let reference = {
            let mut table = vec![0.0f64; ni * nj];
            for i in 0..ni {
                for j in 0..nj {
                    let up = if i > 0 { table[(i - 1) * nj + j] } else { 1.0 };
                    let left = if j > 0 { table[i * nj + j - 1] } else { 0.0 };
                    table[i * nj + j] = up + left;
                }
            }
            table
        };
        for seed in [1u64, 0xFEED, 0x1234_5678] {
            let plan = FaultPlan {
                seed,
                delay_us_max: 40,
                yield_pct: 30,
                ..FaultPlan::default()
            };
            let g = grid(ni as i64, nj as i64);
            let checker = OrderChecker::new(g, &[(1, 0), (0, 1)]).expect("shadow fits");
            let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
            taskgraph_2d(
                g,
                4,
                &[(1, 0), (0, 1)],
                plan.wrap(checker.wrap(|i, j| {
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
                })),
            )
            .expect("adversarial schedule still correct");
            checker.finish().expect("dependence cone kept");
            let got: Vec<f64> = table.iter().map(|m| *m.lock().unwrap()).collect();
            assert_eq!(got, reference, "seed {seed:#x} diverged");
        }
    }
}
