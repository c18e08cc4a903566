//! Adversarial integration suite for the tile task-graph runtime:
//! seeded fault injection through the same body adapter as every other
//! primitive, cross-validation against the dynamic order checker, and
//! cross-validation against `polymix-verify`'s counter-graph coverage
//! certificate (the static and dynamic tools audit the same edge set
//! from opposite ends).

use polymix_runtime::fault_inject::FaultPlan;
use polymix_runtime::order_check::OrderChecker;
use polymix_runtime::{
    taskgraph_2d, taskgraph_2d_opts, GridSweep, RuntimeError, RuntimeOptions, TileGraph,
};
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

/// The runtime graph's edge set, re-certified by the *independent*
/// static pass in polymix-verify: build the counter graph the runtime
/// would execute, hand its edges to the certifier, and the re-derived
/// inter-tile dependence relation must be covered.
#[test]
fn runtime_graph_certifies_clean_in_polymix_verify() {
    for deps in [
        vec![(1i64, 0i64), (0, 1)],
        vec![(1, 0), (0, 1), (1, 1)],
        vec![(1, 0), (0, 1), (1, -1)],
        vec![(2, 0), (0, 1), (1, 0)],
    ] {
        let graph = TileGraph::from_grid_deps(grid(7, 6), &deps).expect("build");
        let edges = graph.edges();
        let cert = polymix_verify::certify_tile_graph("runtime-graph", 7, 6, &deps, &edges);
        assert!(
            cert.is_certified(),
            "deps {deps:?}: {:?}",
            cert.violations
        );
    }
}

#[test]
fn diagonal_graph_certifies_any_forward_cone() {
    // The full-cone wavefront graph must cover every vector that moves
    // strictly forward across diagonals — including ones it was never
    // told about. This is the subsumption claim, proved statically.
    let graph = TileGraph::diagonal(grid(6, 6)).expect("build");
    let edges = graph.edges();
    for deps in [vec![(1i64, 0i64), (0, 1)], vec![(1, 1)], vec![(2, 1), (1, 2)]] {
        let cert = polymix_verify::certify_tile_graph("diagonal", 6, 6, &deps, &edges);
        assert!(cert.is_certified(), "deps {deps:?}: {:?}", cert.violations);
    }
}

#[test]
fn mutated_graph_dropping_an_edge_is_rejected() {
    // Drop one interior edge from the runtime's own graph: the
    // certifier must notice the uncovered pair. This is the tamper
    // check — a code-motion bug that loses a counter edge cannot pass
    // certification.
    let deps = [(1i64, 0i64), (0, 1)];
    let graph = TileGraph::from_grid_deps(grid(5, 5), &deps).expect("build");
    let mut edges = graph.edges();
    let victim = edges
        .iter()
        .position(|&(s, d)| s == 12 && d == 13) // (2,2) -> (2,3), interior
        .expect("interior edge present");
    edges.swap_remove(victim);
    let cert = polymix_verify::certify_tile_graph("tampered", 5, 5, &deps, &edges);
    assert!(!cert.is_certified(), "dropped edge must fail certification");
    assert!(cert
        .violations
        .iter()
        .any(|v| v.kind == polymix_verify::ViolationKind::TaskGraphUncovered));
}

#[test]
fn order_checker_cross_validates_certified_taskgraph_run() {
    // Static certificate + dynamic shadow on the same run: the counter
    // graph certifies, and the order checker — built from the graph's
    // own vector set, whatever it is — observes every tile seeing each
    // of its sources first.
    for deps in [
        vec![(1i64, 0i64), (0, 1)],
        // The anti-diagonal vector no fixed-shape primitive expresses:
        // all three relations are checked, not just the standard cone.
        vec![(1, 0), (0, 1), (1, -1)],
        // A cone that does not order the (i, j-1) source: checked
        // against (1, 0) alone, so no phantom violations.
        vec![(1, 0)],
    ] {
        let g = grid(12, 9);
        let graph = TileGraph::from_grid_deps(g, &deps).expect("build");
        let cert = polymix_verify::certify_tile_graph("cross", 12, 9, &deps, &graph.edges());
        assert!(cert.is_certified(), "{deps:?}: {:?}", cert.violations);
        let checker = OrderChecker::new(g, &deps).expect("shadow fits");
        taskgraph_2d(g, 4, &deps, checker.wrap(|_, _| {})).expect("certified graph runs clean");
        checker
            .finish()
            .unwrap_or_else(|e| panic!("{deps:?}: {e}"));
    }
    // The check is not vacuous: a graph built for (1, 0) alone does not
    // keep the full three-vector relation, and the checker says so
    // (row 0 has no sources under (1, 0), so it runs before its
    // (0, 1)-neighbours finish once they are stalled).
    let g = grid(2, 8);
    let plan = FaultPlan {
        stall_ms_at: Some(((0, 0), 100)),
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
            RuntimeError::WorkerPanic { cell, payload, .. } => {
                assert_eq!(cell, Some((3, 3)));
                assert!(payload.contains("fault-inject"), "{payload}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        let ran = ran.lock().unwrap();
        assert!(!ran.contains(&(3, 3)), "the panicked tile never completed");
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
    fn injected_stall_trips_the_watchdog() {
        let plan = FaultPlan {
            seed: 7,
            stall_ms_at: Some(((2, 2), 600)),
            ..FaultPlan::default()
        };
        let err = taskgraph_2d_opts(
            grid(8, 8),
            4,
            RuntimeOptions {
                watchdog: Some(std::time::Duration::from_millis(60)),
            },
            &[(1, 0), (0, 1)],
            plan.wrap(|_, _| {}),
        )
        .expect_err("finite injected stall must be reported");
        match err {
            RuntimeError::Stalled { stalled_cells } => {
                assert!(!stalled_cells.is_empty());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn adversarial_schedules_preserve_order_sensitive_results() {
        // Seeded delays + yields across several seeds: the task graph
        // must still produce the sequential prefix-sum table, with the
        // order checker armed the whole time.
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

    #[test]
    fn explicit_dag_panic_containment() {
        // A panic in one branch of an explicit DAG must not stop the
        // independent branch's already-published nodes from having run,
        // but must keep all downstream nodes of the failed branch
        // unexecuted.
        // chain A: 0 -> 1 -> 2 ; chain B: 3 -> 4 ; join: {2, 4} -> 5
        let edges = [(0, 1), (1, 2), (3, 4), (2, 5), (4, 5)];
        let graph = TileGraph::from_edges(6, None, &edges).expect("build");
        let ran: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
        let err = graph
            .run(2, RuntimeOptions::default(), |node, _, _| {
                if node == 1 {
                    std::panic::panic_any("branch boom");
                }
                ran.lock().unwrap().insert(node);
            })
            .expect_err("panic surfaces");
        assert!(matches!(err, RuntimeError::WorkerPanic { .. }), "{err:?}");
        let ran = ran.lock().unwrap();
        assert!(!ran.contains(&2), "downstream of the panic must not run");
        assert!(!ran.contains(&5), "the join must not run");
    }
}
