//! The emitted standalone programs — including their *parallel* runtime
//! constructs (doall threads, array reductions, point-to-point pipelines,
//! wavefront diagonals) — must agree with the sequential native program
//! on every checksum. This compiles real binaries with rustc, so it
//! exercises exactly what the benchmark harness measures.

use polymix::ast::tree::Program;
use polymix::dl::Machine;
use polymix_bench::runner::{compile_and_run, emit_source, RunResult};
use polymix_bench::variants::{build_variant, Variant};
use polymix_polybench::{checksum, kernel_by_name, Kernel};

/// Emits `prog` for `threads` workers, then compiles (cached by source
/// hash) and runs it once.
fn run(k: &Kernel, prog: &Program, params: &[i64], threads: usize, label: &str) -> RunResult {
    let src = emit_source(k, prog, params, threads, 1);
    let dir = std::env::temp_dir().join("polymix-par-tests");
    compile_and_run(&src, &dir, &["-O".into()], label).unwrap_or_else(|e| panic!("{label}: {e}"))
}

fn check(kernel: &str, variant: Variant, tolerance: f64) {
    // Oversubscribed on small hosts: still exercises sync.
    check_at(kernel, variant, tolerance, 4)
}

fn check_at(kernel: &str, variant: Variant, tolerance: f64, threads: usize) {
    let k = kernel_by_name(kernel).unwrap();
    let machine = Machine::nehalem();
    let params = k.dataset("small").params;
    let native = build_variant(&k, Variant::Native, &machine).expect("native variant");
    let base = run(&k, &native, &params, threads, &format!("{kernel}_native"));
    let prog = build_variant(&k, variant, &machine).expect("variant builds");
    let got = run(&k, &prog, &params, threads, &format!("{kernel}_{variant:?}"));
    let rel = (got.checksum - base.checksum).abs() / base.checksum.abs().max(1.0);
    assert!(
        rel <= tolerance,
        "{kernel} {variant:?}: checksum {} vs native {} (rel {rel:e})",
        got.checksum,
        base.checksum
    );
}

#[test]
fn doall_threads_gemm() {
    check("gemm", Variant::PolyAst, 1e-12);
}

#[test]
fn doall_threads_3mm() {
    check("3mm", Variant::PolyAst, 1e-12);
}

/// The sunk tiling form: one `doall` over the tile loop the fused
/// children share, each worker running every child's tiles for its
/// block of rows.
#[test]
fn doall_threads_over_shared_tile_loops() {
    for kernel in ["2mm", "3mm", "gemm", "syrk"] {
        check_at(kernel, Variant::PolyAst, 1e-12, 2);
    }
}

#[test]
fn reduction_threads_atax() {
    // Thread-private accumulation reorders FP adds: small tolerance.
    check("atax", Variant::PolyAst, 1e-9);
}

#[test]
fn reduction_threads_bicg() {
    check("bicg", Variant::PolyAst, 1e-9);
}

/// gemver's reduction mark sits on the tile loop `u0t`: it privatizes
/// `x` and writes `A`, whose subscripts name only the point loops, in
/// place.
#[test]
fn reduction_threads_gemver() {
    check("gemver", Variant::PolyAst, 1e-9);
}

#[test]
fn pipeline_threads_seidel() {
    check("seidel-2d", Variant::PolyAst, 1e-12);
}

#[test]
fn pipeline_threads_jacobi2d() {
    check("jacobi-2d-imper", Variant::PolyAst, 1e-12);
}

#[test]
fn wavefront_threads_seidel_baseline() {
    check("seidel-2d", Variant::Pocc, 1e-12);
}

#[test]
fn tiled_guarded_maxfuse_2mm() {
    check("2mm", Variant::IterativeMax, 1e-12);
}

/// Rows a multiple of 4 KiB long run on storage padded by one cache line
/// (`polymix-codegen`'s emitter). At a 512-wide row both optimized
/// variants must still print `native`'s checksum, on one thread and on
/// two, where poly+ast's reduction regions privatize on padded storage
/// (covariance's private `symmat` copies are padded themselves). `native`
/// is emitted padded too, so every checksum is also held to the
/// in-process reference run on the logical layout, to the 7 digits the
/// binaries print.
#[test]
fn padded_rows_keep_native_checksums() {
    let machine = Machine::nehalem();
    for (kernel, params) in [
        ("atax", vec![64, 512]),
        ("mvt", vec![512]),
        ("covariance", vec![32, 512]),
    ] {
        let k = kernel_by_name(kernel).unwrap();
        let scop = (k.build)();
        let mut arrays = k.fresh_arrays(&scop, &params);
        (k.reference)(&params, &mut arrays);
        let want = checksum(&scop, &arrays);
        let native = build_variant(&k, Variant::Native, &machine).expect("native variant");
        let base = run(&k, &native, &params, 1, &format!("{kernel}_native_padded"));
        for variant in [Variant::PolyAst, Variant::Pocc] {
            let prog = build_variant(&k, variant, &machine).expect("variant builds");
            for threads in [1, 2] {
                let src = emit_source(&k, &prog, &params, threads, 1);
                assert!(src.contains("let mut pad_"), "{kernel}: no padded array");
                if variant == Variant::PolyAst && threads > 1 {
                    assert!(
                        src.contains("kernel_rt::reduction("),
                        "{kernel}: no reduction region to privatize"
                    );
                }
                let got = run(&k, &prog, &params, threads, &format!("{kernel}_{variant:?}_padded"));
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
                assert!(
                    rel(got.checksum, base.checksum) <= 1e-9 && rel(got.checksum, want) <= 1e-6,
                    "{kernel} {variant:?} at {threads} threads: checksum {} vs native {} \
                     and reference {want}",
                    got.checksum,
                    base.checksum
                );
            }
        }
    }
}

/// Point loops put in vector order inside their tiles (DESIGN §19):
/// symm's nest 1 is a `redfor u0t` region whose privatized body now runs
/// `c2 { c1 { c3 } }`, and syrk's and syr2k's deep tiles run
/// `c1 { c3 { c2 } }`. On one thread every update of one element keeps
/// its order, so the checksum is `native`'s exactly; on two, symm's
/// private partial sums are added in another order.
#[test]
fn reordered_point_loops_keep_native_checksums() {
    let machine = Machine::nehalem();
    for (kernel, tolerance) in [("symm", 1e-9), ("syrk", 1e-12), ("syr2k", 1e-12)] {
        let k = kernel_by_name(kernel).unwrap();
        let prog = build_variant(&k, Variant::PolyAst, &machine).expect("variant builds");
        assert!(prog.tiling.iter().any(|r| r.reordered), "{kernel}: {:?}", prog.tiling);
        check_at(kernel, Variant::PolyAst, 0.0, 1);
        check_at(kernel, Variant::PolyAst, tolerance, 2);
    }
}
