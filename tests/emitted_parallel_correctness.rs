//! The emitted standalone programs — including their *parallel* runtime
//! constructs (doall threads, array reductions, point-to-point pipelines,
//! wavefront diagonals) — must agree with the sequential native program
//! on every checksum. This compiles real binaries with rustc, so it
//! exercises exactly what the benchmark harness measures.

use polymix::dl::Machine;
use polymix_bench::runner::Runner;
use polymix_bench::variants::{build_variant, Variant};
use polymix_polybench::kernel_by_name;

fn runner(threads: usize) -> Runner {
    Runner {
        work_dir: std::env::temp_dir().join("polymix-par-tests"),
        threads,
        reps: 1,
        rustc_flags: vec!["-O".into()],
        ..Runner::new(threads)
    }
}

fn check(kernel: &str, variant: Variant, tolerance: f64) {
    // Oversubscribed on small hosts: still exercises sync.
    check_at(kernel, variant, tolerance, 4)
}

fn check_at(kernel: &str, variant: Variant, tolerance: f64, threads: usize) {
    let k = kernel_by_name(kernel).unwrap();
    let machine = Machine::nehalem();
    let params = k.dataset("small").params;
    let r = runner(threads);
    let native = build_variant(&k, Variant::Native, &machine).expect("native variant");
    let base = r
        .run(&k, &native, &params, &format!("{kernel}_native"))
        .unwrap_or_else(|e| panic!("{kernel} native: {e}"));
    let prog = build_variant(&k, variant, &machine).expect("variant builds");
    let got = r
        .run(&k, &prog, &params, &format!("{kernel}_{variant:?}"))
        .unwrap_or_else(|e| panic!("{kernel} {variant:?}: {e}"));
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
    check("2mm", Variant::PlutoMaxFuse, 1e-12);
}
