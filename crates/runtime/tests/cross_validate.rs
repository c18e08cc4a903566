//! Cross-validation of the static certifier against the dynamic order
//! checker.
//!
//! The two tools claim the same contract from opposite ends: the
//! certifier proves every carried dependence of a `Pipeline` loop lies
//! inside the await cone `{(-1, 0), (0, -1)}`, and the order checker
//! asserts at runtime that each executed cell observed exactly those
//! sources. This harness checks both directions on real compiler
//! output:
//!
//! * programs the certifier accepts run clean through `pipeline_2d`
//!   under an armed checker, with adversarial seeded delays and yields
//!   injected;
//! * the mislabeling the certifier rejects (`Pipeline` relabeled
//!   `Doall`) really races: executing the same grid as an unsynchronized
//!   doall trips the order checker.

use polymix_ast::tree::{Par, TileForm};
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_polybench::kernel_by_name;
use polymix_runtime::fault_inject::FaultPlan;
use polymix_runtime::order_check::OrderChecker;
use polymix_runtime::{par_for, pipeline_2d, GridSweep, RuntimeError};
use polymix_verify::{verify_program, ViolationKind};
use std::sync::Mutex;

/// The pipeline's await cone as dependence vectors.
const CONE: [(i64, i64); 2] = [(1, 0), (0, 1)];

fn grid(ni: i64, nj: i64) -> GridSweep {
    GridSweep {
        i_lo: 0,
        i_hi: ni,
        j_lo: 0,
        j_hi: nj,
    }
}

/// Order-sensitive work: cell (i, j) reads (i-1, j) and (i, j-1), so
/// any cone violation corrupts the table as well as tripping the
/// checker.
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

fn certified_pipeline_program(name: &str) -> polymix_ast::tree::Program {
    let k = kernel_by_name(name).expect("kernel");
    let scop = (k.build)();
    // The smallest tiles at which the DL model tiles the stencils.
    let opts = PolyAstOptions {
        tile: 16,
        time_tile: 8,
        ..Default::default()
    };
    let prog = optimize_poly_ast(&scop, &opts).expect("optimize");
    assert!(
        prog.tiling.iter().any(|r| r.form == TileForm::Joint),
        "{name}: the time and space loops must be tiled jointly: {:?}",
        prog.tiling
    );
    let cert = verify_program(&prog);
    assert!(
        cert.is_certified(),
        "{name}: compiler output must certify before the dynamic half runs"
    );
    let mut has_pipeline = false;
    let mut body = prog.body.clone();
    body.visit_loops_mut(&mut |l| has_pipeline |= l.par == Par::Pipeline);
    assert!(has_pipeline, "{name}: expected a pipeline loop");
    prog
}

/// Certified pipeline programs → the executor they target stays
/// dependence-clean even under seeded delays and adversarial yields.
#[test]
fn certified_pipelines_run_clean_under_fault_injection() {
    for name in ["seidel-2d", "jacobi-2d-imper", "fdtd-2d"] {
        let _prog = certified_pipeline_program(name);
        let (ni, nj) = (24usize, 64usize);
        let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
        let plan = FaultPlan {
            seed: 0xC0FFEE ^ name.len() as u64,
            delay_us_max: 40,
            yield_pct: 25,
            ..Default::default()
        };
        let checker = OrderChecker::new(grid(ni as i64, nj as i64), &CONE).expect("shadow fits");
        let body = plan.wrap(checker.wrap(|i, j| {
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
        }));
        pipeline_2d(grid(ni as i64, nj as i64), 4, body)
            .unwrap_or_else(|e| panic!("{name}: certified pipeline failed dynamically: {e}"));
        checker
            .finish()
            .unwrap_or_else(|e| panic!("{name}: certified pipeline ran out of order: {e}"));
        let expected = prefix_reference(ni, nj);
        for (k, cell) in table.iter().enumerate() {
            assert_eq!(*cell.lock().unwrap(), expected[k], "{name}: cell {k}");
        }
    }
}

/// The mislabeling the certifier rejects statically also fails
/// dynamically: a doall over the same grid skips the await cone, and
/// the order checker records the missed sources.
#[test]
fn statically_rejected_doall_races_dynamically() {
    // Static half: relabeling seidel-2d's pipeline loop as doall is
    // rejected with the specific kind.
    let mut prog = certified_pipeline_program("seidel-2d");
    let mut flipped = false;
    prog.body.visit_loops_mut(&mut |l| {
        if !flipped && l.par == Par::Pipeline {
            l.par = Par::Doall;
            flipped = true;
        }
    });
    assert!(flipped);
    let cert = verify_program(&prog);
    assert!(
        cert.violations
            .iter()
            .any(|v| v.kind == ViolationKind::DoallCarriesDep),
        "expected DoallCarriesDep, got: {:?}",
        cert.violations
    );

    // Dynamic half: run the grid as the bogus annotation instructs — a
    // flat doall with no awaits — while shadowing it with the order
    // checker. Thread 0 is stalled at cell (0, 0), so the other chunks
    // start with every up-neighbor still pending.
    let (ni, nj) = (8i64, 32i64);
    let checker = OrderChecker::new(grid(ni, nj), &CONE).expect("shadow fits");
    let plan = FaultPlan {
        stall_ms_at: Some(((0, 0), 100)),
        ..Default::default()
    };
    let cell = plan.wrap(checker.wrap(|_, _| {}));
    par_for(0, ni * nj, 4, |flat| cell(flat / nj, flat % nj))
        .expect("the doall itself runs; only the order is wrong");
    let violations = checker.violations();
    assert!(
        !violations.is_empty(),
        "unsynchronized doall over a dependent grid must trip the order checker"
    );
    // Sanity: the violations are real cone misses, reported as
    // (cell, missed source) with the source lexicographically earlier.
    for &(i, j, si, sj) in &violations {
        assert!((si, sj) < (i, j), "({si},{sj}) is not a source of ({i},{j})");
    }
    // Asked for its verdict, the checker reports the run as misuse.
    drop(cell);
    match checker.finish() {
        Err(RuntimeError::Misuse(msg)) => {
            assert!(msg.starts_with("dependence order violated: "), "{msg}")
        }
        other => panic!("mislabelled doall must be reported, got {other:?}"),
    }
}

/// Watchdogged fault-injection runs that do violate the cone surface as
/// errors, not hangs: a panic mid-grid poisons the run and the
/// primitive returns the contained failure.
#[test]
fn injected_panic_is_contained_not_hung() {
    let _prog = certified_pipeline_program("seidel-2d");
    let plan = FaultPlan {
        panic_at: Some((3, 7)),
        ..Default::default()
    };
    let err = pipeline_2d(grid(8, 16), 4, plan.wrap(|_i, _j| {})).expect_err("panic must surface");
    match err {
        RuntimeError::WorkerPanic { cell, .. } => assert_eq!(cell, Some((3, 7))),
        other => panic!("unexpected failure mode: {other}"),
    }
}
