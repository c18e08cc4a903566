//! The in-process bytecode measurement (`polymix-vm`): lower, certify
//! and interpret one transformed [`Program`] at one thread, orders of
//! magnitude cheaper per cell than the emit → `rustc -O` → spawn round
//! trip. The tuner screens candidates with it ([`JobWork::InProcess`],
//! logged under the `vm` backend tag) and `tests/backends.rs` holds it
//! to the reference and to rustc; tables and figures measure compiled
//! code only.
//!
//! [`JobWork::InProcess`]: crate::sweep::JobWork::InProcess

use crate::runner::RunResult;
use polymix_ast::tree::Program;
use polymix_ir::PolymixError;
use polymix_polybench::{checksum, Kernel};
use polymix_vm::{certify_and_apply, lower, run_opts, VmOptions};
use std::time::Instant;

/// Measures one transformed program with the bytecode interpreter, at
/// one thread, reproducing the emitted standalone program's measurement
/// contract exactly: buffers are allocated and initialized **once**
/// ([`Kernel::fresh_arrays`], the same policy `init_rust` emits), the
/// kernel runs `reps` times on those same buffers with best-of timing
/// (stencils keep relaxing across reps in both backends), and the
/// checksum is [`polymix_polybench::checksum`], the formula the emitted
/// program prints — so a vm cell and a rustc cell of the same job must
/// agree to FP-reordering tolerance.
pub fn vm_measure(
    kernel: &Kernel,
    prog: &Program,
    params: &[i64],
    label: &str,
    reps: usize,
) -> Result<RunResult, PolymixError> {
    vm_measure_opts(kernel, prog, params, label, reps, true)
}

/// [`vm_measure`] with the bounds checks forced back on: the
/// certification gate still applies (uncertified bytecode is never
/// measured), but every access keeps its dynamic check. Differential
/// runs use this so the checks stay the safety net being compared
/// against.
pub fn vm_measure_checked(
    kernel: &Kernel,
    prog: &Program,
    params: &[i64],
    label: &str,
    reps: usize,
) -> Result<RunResult, PolymixError> {
    vm_measure_opts(kernel, prog, params, label, reps, false)
}

fn vm_measure_opts(
    kernel: &Kernel,
    prog: &Program,
    params: &[i64],
    label: &str,
    reps: usize,
    elide: bool,
) -> Result<RunResult, PolymixError> {
    let mut vm = lower(prog, params)
        .map_err(|e| PolymixError::runner(kernel.name, label, e.to_string()))?;
    // The measurement gate: bytecode is only measured once the static
    // certifier has proven every access in-bounds — and only then may
    // the elided (proof-carrying) fast path replace the dynamic bounds
    // checks.
    certify_and_apply(&mut vm)
        .map_err(|e| PolymixError::runner(kernel.name, label, e.to_string()))?;
    let mut arrays = kernel.fresh_arrays(&prog.scop, params);
    let opts = VmOptions {
        elide,
        ..VmOptions::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        run_opts(&vm, &mut arrays, opts)
            .map_err(|e| PolymixError::runner(kernel.name, label, e.to_string()))?;
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
    }
    Ok(RunResult {
        checksum: checksum(&prog.scop, &arrays),
        time_s: best,
        gflops: (kernel.flops)(params) as f64 / best / 1e9,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{build_variant, Variant};
    use polymix_dl::Machine;
    use polymix_polybench::kernel_by_name;

    /// The vm backend must reproduce the emitted program's checksum
    /// convention bit-for-bit on a sequential kernel: same init, same
    /// written-array reduction. Compared against the shared sequential
    /// reference implementation.
    #[test]
    fn vm_measure_matches_reference_checksum() {
        let k = kernel_by_name("gemm").expect("kernel");
        let params = k.dataset("mini").params;
        let machine = Machine::host();
        let prog = build_variant(&k, Variant::Native, &machine).expect("native");
        let r = vm_measure(&k, &prog, &params, "native", 1).expect("vm measure");
        // Reference: run the kernel's sequential reference on fresh
        // buffers and reduce with the same checksum.
        let scop = (k.build)();
        let mut arrays = k.fresh_arrays(&scop, &params);
        (k.reference)(&params, &mut arrays);
        let want = checksum(&scop, &arrays);
        let rel = (r.checksum - want).abs() / want.abs().max(1.0);
        assert!(rel < 1e-9, "vm checksum {} vs reference {}", r.checksum, want);
        assert!(r.gflops > 0.0 && r.time_s > 0.0);
    }
}
