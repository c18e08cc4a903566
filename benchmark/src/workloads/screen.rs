//! `screen`: the tuner's cheap fidelity. Every cell is
//! `lower → certify_and_apply → run_opts` of one program at one concrete
//! parameter vector; the vm and math (Fourier–Motzkin in the certifier)
//! do the work, core and rustc none.
//!
//! A pass climbs a ladder of parameter vectors `mini + p`, so no two
//! cells of a pass are the same concrete instance: low rungs are bound
//! by the certifier, high rungs by execution. Passes repeat the ladder.

use super::{kernels_without_tail, Ctx, Layers, Recorder, Workload};
use crate::expected;
use crate::stats::median;
use crate::trace::{root, span};
use polymix_ast::tree::Program;
use polymix_bench::variants::{build_variant, Variant};
use polymix_polybench::Kernel;
use polymix_runtime::{par_for, pipeline_2d, reduce_array, taskgraph_2d, GridSweep};
use polymix_vm::{certify_and_apply, lower, run_opts, VmCertificate, VmOptions, VmProgram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rungs of the parameter ladder, `p = 0..RUNGS`.
pub const RUNGS: usize = 16;

const VARIANTS: [Variant; 3] = [Variant::Native, Variant::PolyAst, Variant::Pocc];

pub fn rung_params(kernel: &Kernel, p: usize) -> Vec<i64> {
    kernel
        .dataset("mini")
        .params
        .iter()
        .map(|x| x + p as i64)
        .collect()
}

struct Cell {
    kernel: Kernel,
    prog: Program,
}

#[derive(Default)]
pub struct Screen {
    cells: Vec<Cell>,
}

/// One screening cell; returns the certificate for the counters.
fn screen_cell(ctx: &Ctx, cell: &Cell, p: usize) -> Result<(VmProgram, VmCertificate), String> {
    let params = rung_params(&cell.kernel, p);
    let mut vm = span("vm.lower", || lower(&cell.prog, &params)).map_err(|e| e.to_string())?;
    let cert = span("vm.certify", || certify_and_apply(&mut vm)).map_err(|e| e.to_string())?;
    let mut arrays = cell.kernel.fresh_arrays(&cell.prog.scop, &params);
    let opts = VmOptions {
        threads: 1,
        taskgraph: false,
        elide: true,
    };
    span("vm.run", || run_opts(&vm, &mut arrays, opts)).map_err(|e| e.to_string())?;
    ctx.expected.check(
        cell.kernel.name,
        &params,
        1,
        expected::checksum(&cell.prog.scop, &arrays),
    )?;
    Ok((vm, cert))
}

impl Workload for Screen {
    fn calibrated(&self) -> bool {
        true
    }

    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        for kernel in kernels_without_tail(ctx.quick) {
            for variant in VARIANTS {
                let prog =
                    build_variant(&kernel, variant, &ctx.machine).map_err(|e| e.to_string())?;
                self.cells.push(Cell {
                    kernel: kernel.clone(),
                    prog,
                });
            }
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, index: usize, rec: &mut Recorder) {
        for id in ctx.order(self.cells.len() * RUNGS, index) {
            let (cell, p) = (&self.cells[id / RUNGS], id % RUNGS);
            let t0 = Instant::now();
            let out = root("cell", id as u32, || screen_cell(ctx, cell, p));
            let secs = t0.elapsed().as_secs_f64();
            match out {
                Ok(_) => rec.ok(id as u32, secs),
                Err(e) => rec.fail(format!("{} rung {p}: {e}", cell.kernel.name)),
            }
        }
    }

    fn probes(&mut self, ctx: &Ctx, layers: &mut Layers, rec: &mut Recorder) {
        let (mut instrs, mut proven, mut total) = (0u64, 0u64, 0u64);
        for cell in &self.cells {
            match screen_cell(ctx, cell, 0) {
                Ok((vm, cert)) => {
                    instrs += vm.stmts.iter().map(|s| s.code.len() as u64).sum::<u64>();
                    let (p, t) = cert.counts();
                    proven += p as u64;
                    total += t as u64;
                    rec.checked(Ok(()));
                }
                Err(e) => rec.checked(Err(e)),
            }
        }
        layers.insert("vm.instrs", instrs as f64);
        layers.insert("vm.accesses_proven", proven as f64);
        layers.insert("vm.accesses_total", total as f64);
        runtime_probes(layers);
    }
}

/// Per-iteration cost of the four runtime primitives at two threads,
/// with bodies so small that scheduling and synchronization are all
/// that is measured. Ungated: thread timing is not steady on this host,
/// and emitted kernels do not link the runtime yet.
fn runtime_probes(layers: &mut Layers) {
    const THREADS: usize = 2;
    const N: i64 = 1 << 16;
    const SIDE: i64 = 128;
    let grid = GridSweep {
        i_lo: 0,
        i_hi: SIDE,
        j_lo: 0,
        j_hi: SIDE,
    };
    let per_item = |items: i64, f: &dyn Fn()| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos() as f64 / items as f64
            })
            .collect();
        median(&samples)
    };
    let acc = AtomicU64::new(0);
    let bump = || {
        acc.fetch_add(1, Ordering::Relaxed);
    };
    layers.insert(
        "runtime.par_for_ns_per_iter",
        per_item(N, &|| {
            let _ = span("runtime.par_for", || par_for(0, N, THREADS, |_| bump()));
        }),
    );
    layers.insert(
        "runtime.reduce_array_ns_per_iter",
        per_item(N, &|| {
            let mut target = vec![0.0f64; 16];
            let _ = span("runtime.reduce_array", || {
                reduce_array(&mut target, 0, N, THREADS, |i, local| {
                    local[(i % 16) as usize] += 1.0
                })
            });
            std::hint::black_box(target);
        }),
    );
    layers.insert(
        "runtime.pipeline_2d_ns_per_cell",
        per_item(SIDE * SIDE, &|| {
            let _ = span("runtime.pipeline_2d", || {
                pipeline_2d(grid, THREADS, |_, _| bump())
            });
        }),
    );
    layers.insert(
        "runtime.taskgraph_2d_ns_per_cell",
        per_item(SIDE * SIDE, &|| {
            let _ = span("runtime.taskgraph_2d", || {
                taskgraph_2d(grid, THREADS, &[(1, 0), (0, 1)], |_, _| bump())
            });
        }),
    );
    std::hint::black_box(acc.into_inner());
}
