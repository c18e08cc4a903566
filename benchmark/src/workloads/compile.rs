//! `compile`: the compiler's own cost. Every cell is
//! `build_variant → certify → emit_source` for one (kernel, variant);
//! math, deps, dl, core, pluto, codegen and verify do all the work, rustc
//! and the kernels none.

use super::{kernels, Ctx, Layers, Recorder, Workload, QUICK, TAIL};
use crate::expected;
use crate::trace::{paused, root, span};
use polymix_ast::tree::{Node, Program};
use polymix_bench::runner::emit_source;
use polymix_bench::variants::{build_variant, Variant};
use polymix_polybench::{all_kernels, kernel_by_name, Kernel};
use std::time::Instant;

struct Cell {
    kernel: Kernel,
    variant: Variant,
    /// Parameters the source is emitted for.
    params: Vec<i64>,
    /// Program and source of the latest pass, for the output check.
    built: Option<(Program, String)>,
}

#[derive(Default)]
pub struct Compile {
    cells: Vec<Cell>,
}

fn is_tail(kernel: &str, variant: Variant) -> bool {
    TAIL.iter()
        .any(|(k, v)| *k == kernel && *v == variant.name())
}

/// One compile cell under spans named after the layer that does the work.
fn compile_cell(
    ctx: &Ctx,
    kernel: &Kernel,
    variant: Variant,
    params: &[i64],
) -> Result<(Program, String), String> {
    let optimizer = match variant {
        Variant::PolyAst => "core.optimize_poly_ast",
        _ => "pluto.optimize",
    };
    let prog = span(optimizer, || build_variant(kernel, variant, &ctx.machine))
        .map_err(|e| e.to_string())?;
    span("verify.certify", || polymix_verify::certify(&prog)).map_err(|e| e.to_string())?;
    let src = span("codegen.emit", || emit_source(kernel, &prog, params, 1, 2));
    if src.is_empty() {
        return Err(format!("{} {}: empty source", kernel.name, variant.name()));
    }
    Ok((prog, src))
}

fn count_nodes(node: &Node, loops: &mut u64, stmts: &mut u64) {
    match node {
        Node::Seq(xs) => xs.iter().for_each(|x| count_nodes(x, loops, stmts)),
        Node::Loop(l) => {
            *loops += 1;
            count_nodes(&l.body, loops, stmts);
        }
        Node::Guard(_, body) => count_nodes(body, loops, stmts),
        Node::Stmt(_) => *stmts += 1,
    }
}

impl Workload for Compile {
    fn calibrated(&self) -> bool {
        true
    }

    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        let set = if ctx.quick {
            kernels(&QUICK)
        } else {
            all_kernels()
        };
        for kernel in set {
            for variant in [Variant::PolyAst, Variant::Pocc] {
                if !is_tail(kernel.name, variant) {
                    let params = kernel.dataset("standard").params;
                    self.cells.push(Cell {
                        kernel: kernel.clone(),
                        variant,
                        params,
                        built: None,
                    });
                }
            }
        }
        // Warm-up on a kernel outside the timed set, so that the first
        // timed cell does not pay for first-touch page faults.
        let warm = kernel_by_name("lu").ok_or("kernel lu missing")?;
        for variant in [Variant::PolyAst, Variant::Pocc] {
            paused(|| compile_cell(ctx, &warm, variant, &warm.dataset("standard").params))?;
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, index: usize, rec: &mut Recorder) {
        for id in ctx.order(self.cells.len(), index) {
            let cell = &mut self.cells[id];
            let t0 = Instant::now();
            let out = root("cell", id as u32, || {
                compile_cell(ctx, &cell.kernel, cell.variant, &cell.params)
            });
            let secs = t0.elapsed().as_secs_f64();
            match out {
                Ok(built) => {
                    cell.built = Some(built);
                    rec.ok(id as u32, secs);
                }
                Err(e) => rec.fail(e),
            }
        }
    }

    /// Executes every compiled program with the AST interpreter at `mini`
    /// and compares with the hand-written reference.
    fn check(&mut self, ctx: &Ctx, rec: &mut Recorder) {
        for cell in &self.cells {
            let Some((prog, _)) = &cell.built else {
                continue;
            };
            let params = cell.kernel.dataset("mini").params;
            let mut arrays = cell.kernel.fresh_arrays(&prog.scop, &params);
            span("ast.interp", || {
                polymix_ast::interp::execute(prog, &params, &mut arrays)
            });
            let sum = expected::checksum(&prog.scop, &arrays);
            let verdict = ctx.expected.check(cell.kernel.name, &params, 1, sum);
            rec.checked(verdict.map_err(|e| format!("{} {e}", cell.variant.name())));
        }
    }

    fn probes(&mut self, ctx: &Ctx, layers: &mut Layers, rec: &mut Recorder) {
        // Stages inside the two optimizers, called on their own because
        // no span can be placed inside the program: those of the poly+ast
        // flow for every kernel with a poly+ast cell, the Pluto scheduler
        // for every kernel with a pocc cell.
        let mut deps = 0u64;
        for cell in &self.cells {
            let scop = (cell.kernel.build)();
            if cell.variant == Variant::Pocc {
                let _ = span("pluto.schedule", || {
                    polymix_pluto::schedule_pluto(&scop, polymix_pluto::Fusion::Smart)
                });
                continue;
            }
            let podg = span("deps.build_podg", || polymix_deps::build_podg(&scop));
            deps += podg.deps.len() as u64;
            span("math.is_empty", || {
                for d in &podg.deps {
                    std::hint::black_box(d.poly.is_empty());
                }
            });
            let schedules = span("core.affine_stage", || {
                polymix_core::affine_stage(&scop, &ctx.machine)
            });
            if let Ok(s) = &schedules {
                let _ = span("codegen.generate", || polymix_codegen::generate(&scop, s));
            }
        }
        let (mut loops, mut stmts, mut bytes, mut violations) = (0u64, 0u64, 0u64, 0u64);
        for cell in &self.cells {
            let Some((prog, src)) = &cell.built else {
                continue;
            };
            count_nodes(&prog.body, &mut loops, &mut stmts);
            bytes += src.len() as u64;
            match span("verify.certify_for_cache", || {
                polymix_verify::certify_for_cache(prog, cell.kernel.name, src)
            }) {
                Ok(cert) => violations += cert.violations.len() as u64,
                Err(e) => rec.fail(format!("certify_for_cache: {e}")),
            }
        }
        // One dependence polyhedron per edge of the graph.
        layers.insert("deps.deps", deps as f64);
        layers.insert("math.polyhedra", deps as f64);
        layers.insert("ast.loops", loops as f64);
        layers.insert("ast.stmts", stmts as f64);
        layers.insert("codegen.src_bytes", bytes as f64);
        layers.insert("verify.violations", violations as f64);
        if !ctx.quick {
            let t0 = Instant::now();
            for (k, v) in TAIL {
                let kernel = kernel_by_name(k).expect("tail kernel");
                let variant = if v == "pocc" {
                    Variant::Pocc
                } else {
                    Variant::PolyAst
                };
                let params = kernel.dataset("standard").params;
                rec.checked(paused(|| compile_cell(ctx, &kernel, variant, &params)).map(|_| ()));
            }
            layers.insert("compile.tail_s", t0.elapsed().as_secs_f64());
        }
    }
}
