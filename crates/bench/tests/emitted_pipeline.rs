//! End-to-end check of the emitted pipeline protocol. The generated
//! kernel calls the pasted `kernel_rt` runtime (cache-line-padded
//! progress cells, batched publishes, flush-on-block awaits), compiled
//! here by rustc as the sweeps do; a protocol bug shows up as either a
//! wrong checksum (a dependence violated) or a run timeout (a deadlock
//! between mutually waiting neighbors). On a small machine the spin
//! budget exhausts constantly, so the flush path is exercised for real.

use polymix_bench::runner::compile_and_run;
use polymix_codegen::emit::{emit_rust, EmitOptions};
use polymix_codegen::from_poly::original_program;
use polymix_ast::tree::{Par, Program};
use polymix_ir::builder::{con, ix, par, ScopBuilder};
use polymix_ir::Expr as IExpr;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("polymix-epipe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create tmp work dir");
    d
}

/// Seidel-style dependent sweep: `A[t][i] = 0.5*A[t-1][i] + 0.25*A[t][i-1]`.
/// Every cell depends on the previous outer step and the previous inner
/// cell, so any reordering across the pipeline boundary changes values.
fn seidel_pipeline() -> Program {
    let mut b = ScopBuilder::new("seidel1d", &["N"], &[64]);
    let a = b.array("A", &["N", "N"]);
    b.enter("t", con(1), par("N"));
    b.enter("i", con(1), par("N"));
    let up = IExpr::mul(IExpr::Const(0.5), b.rd(a, &[ix("t") - con(1), ix("i")]));
    let left = IExpr::mul(IExpr::Const(0.25), b.rd(a, &[ix("t"), ix("i") - con(1)]));
    b.stmt("S", a, &[ix("t"), ix("i")], IExpr::add(up, left));
    b.exit();
    b.exit();
    let mut prog =
        original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
    let mut outer = true;
    prog.body.visit_loops_mut(&mut |l| {
        l.par = if outer { Par::Pipeline } else { Par::Seq };
        outer = false;
    });
    prog
}

/// The fused-stencil shape no PolyBench kernel produces today: two
/// sibling sweeps under one pipelined time loop. `B[t][j]` reads
/// `A[t][j+1]` — the right neighbor's previous phase — so both await
/// directions and the sibling clamping are exercised.
fn fused_sibling_pipeline() -> Program {
    let mut b = ScopBuilder::new("fused", &["N"], &[64]);
    let a = b.array("A", &["N", "N"]);
    let bb = b.array("B", &["N", "N"]);
    b.enter("t", con(1), par("N"));
    b.enter("i", con(1), par("N"));
    let up = IExpr::mul(IExpr::Const(0.5), b.rd(a, &[ix("t") - con(1), ix("i")]));
    let left = IExpr::mul(IExpr::Const(0.25), b.rd(a, &[ix("t"), ix("i") - con(1)]));
    b.stmt("S1", a, &[ix("t"), ix("i")], IExpr::add(up, left));
    b.exit();
    b.enter("j", con(1), par("N") - con(1));
    let up = IExpr::mul(IExpr::Const(0.5), b.rd(bb, &[ix("t") - con(1), ix("j")]));
    let left = IExpr::mul(IExpr::Const(0.25), b.rd(bb, &[ix("t"), ix("j") - con(1)]));
    let right = IExpr::mul(IExpr::Const(0.125), b.rd(a, &[ix("t"), ix("j") + con(1)]));
    b.stmt("S2", bb, &[ix("t"), ix("j")], IExpr::add(IExpr::add(up, left), right));
    b.exit();
    b.exit();
    let mut prog =
        original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
    let mut outer = true;
    prog.body.visit_loops_mut(&mut |l| {
        l.par = if outer { Par::Pipeline } else { Par::Seq };
        outer = false;
    });
    prog
}

fn run(prog: &Program, threads: usize, batch: Option<i64>, dir: &PathBuf) -> f64 {
    let src = emit_rust(
        prog,
        &EmitOptions {
            params: vec![64],
            flops: 2 * 63 * 63,
            threads,
            reps: 1,
            pipeline_batch: batch,
            ..Default::default()
        },
    );
    let label = format!("{}t{threads}b{}", prog.scop.name, batch.unwrap_or(0));
    compile_and_run(&src, dir, &[], &label)
        .unwrap_or_else(|e| panic!("emitted pipeline ({label}) failed: {e}"))
        .checksum
}

/// Triangular doall: `B[i] += A[j]` for `j < i`. Rows are independent
/// (parallel-safe) but cost grows with `i`, so codegen selects the
/// dynamic chunk-claiming schedule for this nest.
fn triangular_doall() -> Program {
    let mut b = ScopBuilder::new("tri", &["N"], &[64]);
    let a = b.array("A", &["N"]);
    let bb = b.array("B", &["N"]);
    b.enter("i", con(0), par("N"));
    b.enter("j", con(0), ix("i"));
    let rhs = b.rd(a, &[ix("j")]);
    b.stmt_update("S", bb, &[ix("i")], polymix_ir::BinOp::Add, rhs);
    b.exit();
    b.exit();
    let mut prog =
        original_program(&b.finish().expect("well-formed SCoP")).expect("original program");
    let mut outer = true;
    prog.body.visit_loops_mut(&mut |l| {
        l.par = if outer { Par::Doall } else { Par::Seq };
        outer = false;
    });
    prog
}

#[test]
fn dynamic_doall_checksum_matches_sequential() {
    let dir = tmp_dir("tri");
    let prog = triangular_doall();
    let emit = |threads: usize| {
        emit_rust(
            &prog,
            &EmitOptions {
                params: vec![64],
                flops: 64 * 63 / 2,
                threads,
                reps: 1,
                ..Default::default()
            },
        )
    };
    let par_src = emit(4);
    assert!(
        par_src.contains("(dynamic schedule)"),
        "triangular nest must take the dynamic path: {par_src}"
    );
    let reference = compile_and_run(&emit(1), &dir, &[], "seq")
        .expect("sequential run")
        .checksum;
    let got = compile_and_run(&par_src, &dir, &[], "dyn")
        .expect("dynamic doall run")
        .checksum;
    assert_eq!(
        got.to_bits(),
        reference.to_bits(),
        "dynamic doall diverged from sequential: {got} vs {reference}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_checksums_match_sequential_for_every_batch() {
    let dir = tmp_dir("batch");
    for (prog, shape) in [
        (seidel_pipeline(), "(phases 1,"),
        (fused_sibling_pipeline(), "(phases 2,"),
    ] {
        let opts = EmitOptions {
            params: vec![64],
            threads: 4,
            ..Default::default()
        };
        assert!(emit_rust(&prog, &opts).contains(shape), "{}", prog.scop.name);
        let reference = run(&prog, 1, None, &dir);
        for batch in [None, Some(1), Some(3)] {
            let got = run(&prog, 4, batch, &dir);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "{} threads=4 batch={batch:?} diverged from sequential: {got} vs {reference}",
                prog.scop.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end check of the emitted wavefront: the same dependent sweep
/// annotated `Wavefront`. A protocol bug shows up as a wrong checksum
/// (tile ran before its counter drained) or a run timeout (a
/// claim/decrement mismatch deadlocking the cursor loop).
#[test]
fn wavefront_checksum_matches_sequential() {
    let dir = tmp_dir("wf");
    let mut prog = seidel_pipeline();
    prog.body.visit_loops_mut(&mut |l| {
        if l.par == Par::Pipeline {
            l.par = Par::Wavefront;
        }
    });
    let emit = |threads: usize| {
        emit_rust(
            &prog,
            &EmitOptions {
                params: vec![64],
                flops: 2 * 63 * 63,
                threads,
                reps: 1,
                ..Default::default()
            },
        )
    };
    let wf_src = emit(4);
    assert!(
        wf_src.contains("// wavefront region"),
        "annotation must reach the emitter: {wf_src}"
    );
    let reference = compile_and_run(&emit(1), &dir, &[], "seq")
        .expect("sequential run")
        .checksum;
    let wavefront = compile_and_run(&wf_src, &dir, &[], "wf")
        .expect("wavefront run")
        .checksum;
    assert_eq!(
        wavefront.to_bits(),
        reference.to_bits(),
        "wavefront diverged from sequential: {wavefront} vs {reference}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
