//! The measurement-backend seam: one interface over "emit, compile with
//! `rustc -O`, run a standalone binary" (full fidelity) and "lower to
//! bytecode, interpret in-process" (`polymix-vm`, orders of magnitude
//! cheaper per cell). Both backends measure the same transformed
//! [`Program`] over identically initialized buffers and reduce the
//! written arrays with the same checksum, so their cells are directly
//! comparable — the sweep log and cache keys still record which backend
//! produced each number (see [`JobWork::backend`]).

use crate::runner::{emit_source, RunResult};
use crate::sweep::JobWork;
use polymix_ast::tree::Program;
use polymix_ir::PolymixError;
use polymix_polybench::{checksum, Kernel};
use polymix_vm::{certify_and_apply, lower, run_opts, VmOptions};
use std::sync::Arc;
use std::time::Instant;

/// Deferred variant construction, shared between the primary and the
/// sequential-fallback emission of one rustc job — and across backends
/// when one cell is measured by both (`--backend both`).
pub type ProgBuild = Arc<dyn Fn() -> Result<Program, PolymixError> + Send + Sync>;

/// A way to turn one (kernel, params, program) cell into
/// executable sweep work.
pub trait Backend {
    /// Backend name as recorded in the JSONL log (`"rustc"` / `"vm"`).
    fn name(&self) -> &'static str;
    /// Packages the measurement of one cell. `label` is the variant
    /// name, used only for error context.
    fn work(
        &self,
        kernel: &Kernel,
        params: &[i64],
        label: &str,
        build: ProgBuild,
    ) -> JobWork;
}

/// The emit → `rustc -O` → spawn backend.
pub struct RustcBackend {
    /// Worker threads the emitted kernel runs with.
    pub threads: usize,
    /// Timing repetitions (best-of).
    pub reps: usize,
    /// Also package a single-thread emission as the graceful-degradation
    /// fallback (see [`JobWork::Rustc`]).
    pub seq_fallback: bool,
}

impl Backend for RustcBackend {
    fn name(&self) -> &'static str {
        "rustc"
    }

    fn work(
        &self,
        kernel: &Kernel,
        params: &[i64],
        _label: &str,
        build: ProgBuild,
    ) -> JobWork {
        let (threads, reps) = (self.threads, self.reps);
        let (k1, p1, b1) = (kernel.clone(), params.to_vec(), build.clone());
        let source = Box::new(move || {
            let prog = b1()?;
            Ok(emit_source(&k1, &prog, &p1, threads, reps))
        });
        let seq_source: Option<Box<dyn FnOnce() -> Result<String, PolymixError> + Send>> =
            if self.seq_fallback {
                let (k2, p2) = (kernel.clone(), params.to_vec());
                Some(Box::new(move || {
                    let prog = build()?;
                    Ok(emit_source(&k2, &prog, &p2, 1, reps))
                }))
            } else {
                None
            };
        JobWork::Rustc { source, seq_source }
    }
}

/// The in-process bytecode backend. It runs every loop sequentially, so
/// its cells are one-thread measurements whatever the sweep's
/// `--threads`; [`select_backends`] refuses to mix it into a wider table.
pub struct VmBackend {
    /// Timing repetitions (best-of).
    pub reps: usize,
}

impl Backend for VmBackend {
    fn name(&self) -> &'static str {
        "vm"
    }

    fn work(
        &self,
        kernel: &Kernel,
        params: &[i64],
        label: &str,
        build: ProgBuild,
    ) -> JobWork {
        let reps = self.reps;
        let kernel = kernel.clone();
        let params = params.to_vec();
        let label = label.to_string();
        JobWork::InProcess {
            run: Box::new(move || {
                let prog = build()?;
                vm_measure(&kernel, &prog, &params, &label, reps)
            }),
        }
    }
}

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

/// Resolves `--backend rustc|vm|both` into the backend set a driver
/// should measure with. Fails loudly instead of measuring something
/// other than what was asked: on an unknown name, and on `vm` / `both`
/// with `threads > 1`, since the vm measures one thread and its column
/// would stand in an N-thread table. `table1` and the figures exit 2 on
/// the error.
pub fn select_backends(
    name: &str,
    threads: usize,
    reps: usize,
    seq_fallback: bool,
) -> Result<Vec<Box<dyn Backend>>, String> {
    let rustc = || -> Box<dyn Backend> {
        Box::new(RustcBackend {
            threads,
            reps,
            seq_fallback,
        })
    };
    let vm = || -> Result<Box<dyn Backend>, String> {
        if threads > 1 {
            return Err(format!(
                "--backend {name} measures the vm at one thread; pass --threads 1 \
                 (got --threads {threads})"
            ));
        }
        Ok(Box::new(VmBackend { reps }))
    };
    match name {
        "rustc" => Ok(vec![rustc()]),
        "vm" => Ok(vec![vm()?]),
        "both" => Ok(vec![rustc(), vm()?]),
        other => Err(format!(
            "unknown --backend {other:?} (expected rustc, vm or both)"
        )),
    }
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

    #[test]
    fn backend_names_and_selection() {
        assert_eq!(RustcBackend { threads: 1, reps: 1, seq_fallback: false }.name(), "rustc");
        assert_eq!(VmBackend { reps: 1 }.name(), "vm");
        let both = select_backends("both", 1, 3, true).expect("one thread");
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].name(), "rustc");
        assert_eq!(both[1].name(), "vm");
        let vm = select_backends("vm", 1, 1, false).expect("one thread");
        assert_eq!(vm[0].name(), "vm");
    }

    /// A vm column in an N-thread table would be a one-thread number
    /// under an N-thread header: refused, as is an unknown name.
    #[test]
    fn vm_backends_refuse_more_than_one_thread() {
        for name in ["vm", "both"] {
            let err = select_backends(name, 2, 1, true).err().expect("refused");
            assert!(err.contains("--threads 1"), "{name}: {err}");
        }
        assert_eq!(select_backends("rustc", 4, 1, true).expect("rustc").len(), 1);
        assert!(select_backends("jit", 1, 1, true).is_err());
    }
}
