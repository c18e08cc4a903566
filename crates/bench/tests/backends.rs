//! Differential tests between the two measurement backends and the
//! shared sequential reference implementations.
//!
//! The vm backend's whole value is that its numbers are *comparable* to
//! the rustc backend's: same initialization, same transformed program,
//! same written-array checksum. These tests sweep kernels × variant
//! families at the mini dataset and require every cell the vm can
//! execute to agree with the sequential reference — and, on a sample
//! kernel, with the actual emit → `rustc` → run pipeline.

use polymix_bench::backend::{vm_measure, vm_measure_checked};
use polymix_bench::runner::{compile_and_run, emit_source};
use polymix_bench::variants::{build_variant, variant_list, Variant};
use polymix_dl::Machine;
use polymix_polybench::{checksum, kernel_by_name};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("polymix-backends-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create tmp work dir");
    d
}

/// The emitted checksum convention, applied to the sequential reference
/// implementation.
fn reference_checksum(k: &polymix_polybench::Kernel, params: &[i64]) -> f64 {
    let scop = (k.build)();
    let mut arrays = k.fresh_arrays(&scop, params);
    (k.reference)(params, &mut arrays);
    checksum(&scop, &arrays)
}

/// Every kernel × variant cell the vm can lower must reproduce the
/// sequential reference checksum, checked and elided alike. Cells the
/// optimizer rejects (a variant that cannot legally transform a kernel)
/// or the vm cannot lower are skipped — but the suite must still compare
/// a healthy floor of cells, and every kernel must contribute at least
/// one. The vm runs every loop in schedule order, so doall, reduction,
/// pipeline and wavefront annotations all run here as sequential loops.
#[test]
fn vm_agrees_with_sequential_reference_across_the_suite() {
    let machine = Machine::host();
    let kernels = [
        "gemm",
        "2mm",
        "atax",
        "gesummv",
        "jacobi-1d-imper",
        "jacobi-2d-imper",
        "seidel-2d",
        "trisolv",
        // A poly+ast cell with a reduction annotation (correlation and
        // covariance have one as well).
        "symm",
    ];
    let mut compared = 0usize;
    for name in kernels {
        let k = kernel_by_name(name).expect("suite kernel");
        let params = k.dataset("mini").params;
        let want = reference_checksum(&k, &params);
        let mut kernel_cells = 0usize;
        for v in variant_list() {
            let prog = match build_variant(&k, v, &machine) {
                Ok(p) => p,
                Err(_) => continue, // variant not legal for this kernel
            };
            // Checked fidelity is the differential baseline: every
            // dynamic bounds check stays on, so the vm itself is the
            // safety net being compared against.
            let r = match vm_measure_checked(&k, &prog, &params, v.name(), 1) {
                Ok(r) => r,
                Err(e) => {
                    // Only lowering gaps may be skipped; a runtime
                    // failure inside the vm is a real bug.
                    assert!(
                        !e.to_string().contains("runtime_error"),
                        "{name} {v:?}: vm runtime failure: {e}"
                    );
                    continue;
                }
            };
            let rel = (r.checksum - want).abs() / want.abs().max(1.0);
            assert!(
                rel < 1e-6,
                "{name} {v:?}: vm checksum {} deviates from reference {}",
                r.checksum,
                want
            );
            // The proof-elided fast path must be bit-identical: same
            // instructions, same order — elision only skips checks the
            // certifier discharged statically.
            let elided = vm_measure(&k, &prog, &params, v.name(), 1)
                .expect("a cell that ran checked must also run elided");
            assert!(
                elided.checksum == r.checksum,
                "{name} {v:?}: elided checksum {} != checked {}",
                elided.checksum,
                r.checksum
            );
            compared += 1;
            kernel_cells += 1;
        }
        assert!(
            kernel_cells > 0,
            "{name}: no variant could be vm-executed at all"
        );
    }
    assert!(
        compared >= 40,
        "differential floor: only {compared} cells compared"
    );
}

/// Full three-way agreement on one kernel: the vm backend, the emit →
/// `rustc` → run backend, and the sequential reference must all produce
/// the same checksum for the same transformed program.
#[test]
fn vm_and_rustc_backends_agree_on_gemm() {
    let dir = tmp_dir("gemm");
    let machine = Machine::host();
    let k = kernel_by_name("gemm").expect("kernel");
    let params = k.dataset("mini").params;
    let want = reference_checksum(&k, &params);
    let flags: Vec<String> = vec![]; // no -O: mini data, sub-second compile
    for v in [Variant::Native, Variant::Pocc, Variant::PolyAst] {
        let prog = build_variant(&k, v, &machine).expect("gemm variant builds");
        let vm = vm_measure(&k, &prog, &params, v.name(), 1).expect("vm executes gemm");
        let src = emit_source(&k, &prog, &params, 1, 1);
        let rustc = compile_and_run(&src, &dir, &flags, v.name()).expect("rustc cell runs");
        // The vm reports its checksum at full f64 precision; the rustc
        // binary prints `{:.6e}` (7 significant digits), so comparisons
        // against it tolerate that rounding.
        let rel_vm = (vm.checksum - want).abs() / want.abs().max(1.0);
        let rel_rustc = (rustc.checksum - want).abs() / want.abs().max(1.0);
        assert!(rel_vm < 1e-9, "{v:?}: vm {} vs reference {want}", vm.checksum);
        assert!(
            rel_rustc < 1e-6,
            "{v:?}: rustc {} vs reference {want}",
            rustc.checksum
        );
        let rel = (vm.checksum - rustc.checksum).abs() / rustc.checksum.abs().max(1.0);
        assert!(
            rel < 1e-6,
            "{v:?}: vm {} vs rustc {}",
            vm.checksum,
            rustc.checksum
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
