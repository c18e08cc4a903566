//! `kernels-blas` and `kernels-stencil`: quality of the generated code.
//!
//! Set-up takes every kernel through the paper's flow to a binary
//! (`build_variant(poly+ast) → emit_source → rustc`, cold binary cache);
//! a pass runs each binary once at `standard`, one thread, and takes the
//! kernel's own best-of-repetitions time as the cell time. The `native`
//! and `pocc` variants are built and run in the traced run only, as the
//! baselines the per-layer ratios are taken against.

use super::{
    kernels, rustc_flags, Ctx, Layers, Recorder, Workload, QUICK, RUN_TIMEOUT_S, RUSTC_TIMEOUT_S,
};
use crate::stats::{geomean, median};
use crate::trace::{paused, root, span};
use polymix_bench::runner::{emit_source, ensure_compiled, run_binary};
use polymix_bench::variants::{build_variant, Variant};
use polymix_polybench::Kernel;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Repetitions of the kernel inside one binary (the binary reports the
/// best): enough that a cell computes for about 50 ms, from the kernel's
/// flop count at a nominal 2 GF/s. Fixed per (kernel, params), so the
/// expected checksum — the reference run as many times — is fixed too.
pub fn reps_for(kernel: &Kernel, params: &[i64]) -> usize {
    let est_s = (kernel.flops)(params) as f64 / 2e9;
    ((0.05 / est_s).ceil() as usize).clamp(2, 64)
}

struct Cell {
    kernel: Kernel,
    params: Vec<i64>,
    reps: usize,
    bin: PathBuf,
    /// Kernel time of every pass, for the GF/s rows.
    times: Vec<f64>,
}

pub struct Kernels {
    names: &'static [&'static str],
    cells: Vec<Cell>,
}

impl Kernels {
    pub fn new(names: &'static [&'static str]) -> Kernels {
        Kernels {
            names,
            cells: Vec::new(),
        }
    }
}

/// Optimize, emit and compile one (kernel, variant) into `dir`.
fn build_binary(
    ctx: &Ctx,
    kernel: &Kernel,
    variant: Variant,
    dir: &std::path::Path,
) -> Result<Cell, String> {
    let params = kernel.dataset("standard").params;
    let reps = reps_for(kernel, &params);
    let optimizer = match variant {
        Variant::PolyAst => "core.optimize_poly_ast",
        Variant::Native => "codegen.original_program",
        _ => "pluto.optimize",
    };
    let prog = span(optimizer, || build_variant(kernel, variant, &ctx.machine))
        .map_err(|e| e.to_string())?;
    let src = span("codegen.emit", || {
        emit_source(kernel, &prog, &params, 1, reps)
    });
    let label = format!("{}_{}", kernel.name, variant.name());
    let compiled = span("bench.ensure_compiled", || {
        ensure_compiled(
            &src,
            dir,
            &rustc_flags(),
            &label,
            Duration::from_secs(RUSTC_TIMEOUT_S),
        )
    })?;
    Ok(Cell {
        kernel: kernel.clone(),
        params,
        reps,
        bin: compiled.bin_path,
        times: Vec::new(),
    })
}

/// Runs one binary under the run timeout and checks its checksum;
/// returns the kernel time it reports.
fn run_cell(ctx: &Ctx, cell: &Cell) -> Result<f64, String> {
    let r = span("bench.run_binary", || {
        run_binary(
            &cell.bin,
            cell.kernel.name,
            Duration::from_secs(RUN_TIMEOUT_S),
        )
    })?;
    ctx.expected
        .check(cell.kernel.name, &cell.params, cell.reps, r.checksum)?;
    if r.time_s <= 0.0 {
        return Err(format!("{}: reported time {}", cell.kernel.name, r.time_s));
    }
    Ok(r.time_s)
}

impl Workload for Kernels {
    fn calibrated(&self) -> bool {
        false
    }

    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        // The run's scratch directory is new: the binary cache starts cold.
        let dir = ctx.scratch.join("bin");
        let names = if ctx.quick { &QUICK[..] } else { self.names };
        for kernel in kernels(names) {
            self.cells
                .push(build_binary(ctx, &kernel, Variant::PolyAst, &dir)?);
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, index: usize, rec: &mut Recorder) {
        for id in ctx.order(self.cells.len(), index) {
            match root("cell", id as u32, || run_cell(ctx, &self.cells[id])) {
                Ok(secs) => {
                    self.cells[id].times.push(secs);
                    rec.ok(id as u32, secs);
                }
                Err(e) => rec.fail(e),
            }
        }
    }

    fn probes(&mut self, ctx: &Ctx, layers: &mut Layers, rec: &mut Recorder) {
        let dir = ctx.scratch.join("bin-baselines");
        let gflops = |cell: &Cell, secs: f64| (cell.kernel.flops)(&cell.params) as f64 / secs / 1e9;
        let mut rows = Vec::new();
        let (mut polyast, mut native, mut pocc, mut ratio) = (vec![], vec![], vec![], vec![]);
        let mut bin_bytes = 0u64;
        for cell in &self.cells {
            bin_bytes += std::fs::metadata(&cell.bin).map(|m| m.len()).unwrap_or(0);
            if cell.times.is_empty() {
                continue;
            }
            let ours = gflops(cell, median(&cell.times));
            let mut baseline = |variant| -> Option<f64> {
                let run = paused(|| {
                    build_binary(ctx, &cell.kernel, variant, &dir).and_then(|b| run_cell(ctx, &b))
                });
                let secs = run.as_ref().ok().copied();
                rec.checked(run.map(|_| ()));
                secs.map(|s| gflops(cell, s))
            };
            let (n, p) = (baseline(Variant::Native), baseline(Variant::Pocc));
            polyast.push(ours);
            native.extend(n);
            pocc.extend(p);
            ratio.extend(n.map(|n| ours / n));
            rows.push(format!(
                "{{\"kernel\":\"{}\",\"polyast_gflops\":{ours:.4},\"native_gflops\":{:.4},\"pocc_gflops\":{:.4}}}",
                cell.kernel.name,
                n.unwrap_or(0.0),
                p.unwrap_or(0.0)
            ));
        }
        layers.insert("bench.rustc_cells", self.cells.len() as f64);
        layers.insert("bench.bin_bytes", bin_bytes as f64);
        layers.insert("kernels.polyast_gflops_geomean", geomean(&polyast));
        layers.insert("kernels.native_gflops_geomean", geomean(&native));
        layers.insert("kernels.pocc_gflops_geomean", geomean(&pocc));
        layers.insert("kernels.vs_native_geomean", geomean(&ratio));
        layers.insert(
            "kernels.vs_native_min",
            ratio.iter().copied().fold(f64::INFINITY, f64::min),
        );
        layers.insert(
            "kernels.below_native",
            ratio.iter().filter(|r| **r < 0.95).count() as f64,
        );
        let path = crate::out_dir().join(format!("rows-{}.jsonl", ctx.workload));
        let written =
            std::fs::File::create(&path).and_then(|mut f| writeln!(f, "{}", rows.join("\n")));
        if let Err(e) = written {
            eprintln!("warning: {}: {e}", path.display());
        }
    }
}
