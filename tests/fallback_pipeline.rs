//! Regression tests for the graceful-degradation contract: a SCoP the
//! Pluto-like scheduler cannot handle must still compile (via the
//! `maxfuse → smartfuse → nofuse → identity` fallback chain) and run
//! correctly, and a failing kernel must not abort a multi-kernel sweep —
//! it becomes an `error(<stage>)` cell instead.

use polymix::ast::interp::{alloc_arrays, execute};
use polymix::codegen::from_poly::{generate, original_program};
use polymix::ir::builder::{con, ix, par, ScopBuilder};
use polymix::ir::error::Stage;
use polymix::ir::{Expr, Scop};
use polymix::math::IntMat;
use polymix::pluto::scheduler::{schedule_pluto, schedule_with_fallback};
use polymix::pluto::{optimize_pluto, Fusion, PlutoOptions};
use polymix_bench::runner::Runner;
use polymix_bench::sweep::{run_sweep, rustc_work, SweepConfig, SweepJob};
use polymix_bench::variants::{build_variant, Variant};
use polymix_dl::Machine;
use polymix_polybench::{kernel_by_name, Dataset, Group, InitSpec, Kernel};

/// `for (i = N-1; i >= 0; i--) B[i] = B[i+1] + 1.0;`
///
/// The *original* schedule reverses the loop (`θ(i) = N-1-i`), so the
/// flow dependence runs from higher to lower `i`. The scheduler's
/// candidate rows are non-negative iterator combinations only, so every
/// fusion heuristic fails ("no legal row combination") and the fallback
/// chain must bottom out at the identity (original) schedule — which is
/// always legal because it reproduces the original execution order.
fn reversed_scan_scop() -> Scop {
    let mut b = ScopBuilder::new("reversed-scan", &["N"], &[12]);
    let arr = b.array_dims("B", vec![par("N") + con(1)]);
    b.enter("i", con(0), par("N"));
    let body = Expr::add(b.rd(arr, &[ix("i") + con(1)]), Expr::Const(1.0));
    b.stmt("S", arr, &[ix("i")], body);
    b.exit();
    let mut scop = b.finish().expect("well-formed SCoP");
    let sched = &mut scop.statements[0].schedule;
    sched.alpha = IntMat::from_rows(&[vec![-1]]);
    sched.gamma = vec![vec![1, -1]]; // θ(i) = -i + N - 1 ∈ [0, N-1]
    scop
}

#[test]
fn infeasible_scop_falls_back_to_identity_schedule() {
    let scop = reversed_scan_scop();

    // Every fusion heuristic must fail outright …
    for f in [Fusion::Max, Fusion::Smart, Fusion::None] {
        let err = schedule_pluto(&scop, f).expect_err("reversed dep has no legal candidate row");
        assert_eq!(err.stage(), Stage::Scheduling);
    }

    // … so the chain degrades to the identity rung, recording one error
    // per rung tried.
    let fb = schedule_with_fallback(&scop, Fusion::Max);
    assert!(fb.degraded());
    assert_eq!(fb.used, None, "no heuristic rung may claim success");
    assert_eq!(fb.errors.len(), 3);
    assert_eq!(
        fb.schedules[0], scop.statements[0].schedule,
        "identity rung must return the original schedule"
    );

    // The fallback schedule must code-generate and reproduce the
    // reference semantics exactly.
    let params = [12i64];
    let prog = generate(&scop, &fb.schedules).expect("identity fallback codegens");
    let reference = original_program(&scop).expect("reference program");
    let mut got = alloc_arrays(&scop, &params);
    execute(&prog, &params, &mut got);
    let mut want = alloc_arrays(&scop, &params);
    execute(&reference, &params, &mut want);
    assert_eq!(got, want);
    // The scan must actually run reversed: B[0] accumulates all N
    // increments (a forward scan would leave B[0] == 1.0).
    assert_eq!(got[0][0], 12.0);
}

#[test]
fn full_pluto_pipeline_degrades_instead_of_panicking() {
    let scop = reversed_scan_scop();
    let params = [12i64];
    let reference = original_program(&scop).expect("reference program");
    let mut want = alloc_arrays(&scop, &params);
    execute(&reference, &params, &mut want);

    for fusion in [Fusion::Max, Fusion::Smart, Fusion::None] {
        let prog = optimize_pluto(
            &scop,
            &PlutoOptions {
                fusion,
                tile: 4,
                time_tile: 4,
                tiling: true,
                unroll: (1, 1),
            },
        )
        .expect("pipeline degrades, never dies");
        let mut got = alloc_arrays(&scop, &params);
        execute(&prog, &params, &mut got);
        assert_eq!(got, want, "{fusion:?} output diverged from reference");
    }
}

/// A kernel whose original schedule is structurally broken (singular α),
/// so even the identity rung cannot code-generate: the hard-failure case
/// a sweep must survive.
fn poisoned_build() -> Scop {
    let mut b = ScopBuilder::new("poisoned", &["N"], &[12]);
    let arr = b.array_dims("B", vec![par("N") + con(1)]);
    b.enter("i", con(0), par("N"));
    let body = Expr::add(b.rd(arr, &[ix("i") + con(1)]), Expr::Const(1.0));
    b.stmt("S", arr, &[ix("i")], body);
    b.exit();
    let mut scop = b.finish().expect("well-formed SCoP");
    scop.statements[0].schedule.alpha = IntMat::zeros(1, 1);
    scop
}

fn poisoned_reference(_params: &[i64], _arrays: &mut [Vec<f64>]) {}

fn poisoned_flops(_params: &[i64]) -> u64 {
    1
}

fn poisoned_datasets() -> Vec<Dataset> {
    vec![Dataset {
        name: "mini",
        params: vec![12],
    }]
}

fn poisoned_kernel() -> Kernel {
    Kernel {
        name: "poisoned",
        description: "kernel whose schedule is forced to fail",
        group: Group::Doall,
        build: poisoned_build,
        reference: poisoned_reference,
        flops: poisoned_flops,
        datasets: poisoned_datasets,
        init: InitSpec::generic(),
    }
}

#[test]
fn sweep_records_failing_kernel_and_continues() {
    let machine = Machine::nehalem();
    let kernels = vec![
        kernel_by_name("gemm").expect("gemm exists"),
        poisoned_kernel(),
        kernel_by_name("jacobi-2d-imper").expect("jacobi-2d-imper exists"),
    ];

    // Mirror of the figure-sweep loop: a failed kernel records an
    // `error(<stage>)` cell and the sweep moves on.
    let mut cells = Vec::new();
    for k in &kernels {
        match build_variant(k, Variant::Native, &machine) {
            Ok(prog) => {
                let scop = (k.build)();
                let params = k.dataset("mini").params;
                let mut arrays = k.fresh_arrays(&scop, &params);
                execute(&prog, &params, &mut arrays);
                cells.push("ok".to_string());
            }
            Err(e) => cells.push(e.cell()),
        }
    }
    assert_eq!(cells, ["ok", "error(codegen)", "ok"]);
}

#[test]
fn runner_failure_is_recorded_not_fatal() {
    let gemm = kernel_by_name("gemm").expect("gemm exists");
    let params = gemm.dataset("mini").params;
    let build = {
        let gemm = gemm.clone();
        move || build_variant(&gemm, Variant::Native, &Machine::nehalem())
    };
    let job = SweepJob {
        id: "gemm_bad_flags".into(),
        kernel: gemm.name.into(),
        variant: "native".into(),
        dataset: "mini".into(),
        params: params.clone(),
        work: rustc_work(&gemm, &params, 1, 2, build, true),
    };

    let mut runner = Runner::new(1);
    runner.work_dir = std::env::temp_dir().join("polymix-fallback-runner-test");
    runner.rustc_flags = vec!["--definitely-not-a-flag".into()];
    let outcomes = run_sweep(vec![job], &runner, &SweepConfig::default());
    assert_eq!(outcomes.len(), 1);
    let err = outcomes[0]
        .result
        .as_ref()
        .expect_err("bogus rustc flag must fail the run");
    assert_eq!(err.stage(), Stage::Runner);
    assert_eq!(err.cell(), "error(runner)");
    assert!(!outcomes[0].degraded, "a compile error is not a kernel failure");
}
