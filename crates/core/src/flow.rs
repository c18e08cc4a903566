//! The end-to-end poly+AST flow (Algorithm 1).

use crate::affine::affine_stage_with;
use polymix_ast::tree::{Node, Program};
use polymix_codegen::from_poly::generate;
use polymix_codegen::opt::{
    mark_parallelism, nest_infos, register_tile, skew_nest_for_tilability, tile_nest,
};
use polymix_deps::build_podg;
use polymix_dl::Machine;
use polymix_ir::error::PolymixError;
use polymix_ir::{Schedule, Scop};

/// Options for the poly+AST optimizer.
#[derive(Clone, Debug)]
pub struct PolyAstOptions {
    /// Target machine description (drives the DL model and core counts).
    pub machine: Machine,
    /// Rectangular tile size (paper: 32).
    pub tile: i64,
    /// Tile size of the outermost band level when it is a time loop
    /// (paper: 5 for the pipeline group; the harness sets this per
    /// kernel group).
    pub time_tile: i64,
    /// Enable the tiling stage.
    pub tiling: bool,
    /// Enable the parallelization stage.
    pub parallelize: bool,
    /// Restrict the parallelism detector to doall (Fig. 5's comparison
    /// mode: forgo reduction/pipeline parallelism).
    pub doall_only: bool,
    /// Register tiling (unroll-and-jam) factors `(outer, inner)`.
    pub unroll: (i64, i64),
    /// Enable Algorithm 5's inter-SCC fusion (the `ablation_fusion`
    /// experiment turns this off).
    pub fusion: bool,
}

impl Default for PolyAstOptions {
    fn default() -> Self {
        PolyAstOptions {
            machine: Machine::host(),
            tile: 32,
            time_tile: 32,
            tiling: true,
            parallelize: true,
            doall_only: false,
            unroll: (1, 1),
            fusion: true,
        }
    }
}

/// Runs Algorithm 1: the DL-guided affine stage, then the AST stages
/// (skewing for tilability → parallelization → tiling → intra-tile).
///
/// Degrades gracefully: if the affine stage (or code generation on its
/// schedules) fails, the statements' original schedules — the
/// untransformed loop order, always legal — are used instead, and the
/// AST stages run on that tree. The later AST stages are themselves
/// best-effort (a failed transform keeps the last legal tree), so an
/// `Err` here means even the identity program could not be generated.
pub fn optimize_poly_ast(scop: &Scop, opts: &PolyAstOptions) -> Result<Program, PolymixError> {
    let _memo = polymix_math::memo::scope();
    // Stage 1: fusion & permutation with DL (polyhedral).
    let staged = affine_stage_with(scop, &opts.machine, opts.fusion)
        .and_then(|s| generate(scop, &s).map(|p| (s, p)));
    let (schedules, mut prog) = match staged {
        Ok(sp) => sp,
        Err(_) => {
            // Fallback rung: original textual-order schedules.
            let identity: Vec<Schedule> =
                scop.statements.iter().map(|s| s.schedule.clone()).collect();
            let p = generate(scop, &identity)?;
            (identity, p)
        }
    };
    let podg = build_podg(scop);
    let infos = nest_infos(scop, &schedules, &podg, &prog);

    let tops: Vec<Node> = match std::mem::replace(&mut prog.body, Node::Seq(vec![])) {
        Node::Seq(xs) => xs,
        other => vec![other],
    };
    if tops.len() != infos.len() {
        return Err(PolymixError::codegen(
            &scop.name,
            format!(
                "top-level nest count {} does not match dependence info count {}",
                tops.len(),
                infos.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(tops.len());
    for (mut nest, info) in tops.into_iter().zip(&infos) {
        // Stage 2: skewing for tilability (AST-level). A failed attempt
        // may leave partial skews behind, so work on a clone.
        let mut skewed = nest.clone();
        let vectors = match skew_nest_for_tilability(
            &mut skewed,
            scop,
            &schedules,
            &podg,
            &info.stmts,
            info.depth,
        ) {
            Some(v) => {
                nest = skewed;
                v
            }
            None => info.vectors.clone(),
        };
        // Stage 3: coarse-grain parallelization (doall / reduction /
        // pipeline at the outermost possible level).
        if opts.parallelize {
            mark_parallelism(&mut nest, &vectors, info.depth, opts.doall_only);
        }
        // Stage 4: tiling for locality.
        if opts.tiling {
            nest = tile_nest(
                &mut prog,
                nest,
                &vectors,
                &info.endpoints,
                info.depth,
                opts.tile,
                opts.time_tile,
            );
        }
        // Stage 5: intra-tile optimizations (register tiling).
        if opts.unroll.0 > 1 || opts.unroll.1 > 1 {
            register_tile(&mut nest, opts.unroll.0, opts.unroll.1, &vectors, &info.endpoints);
        }
        out.push(nest);
    }
    prog.body = match out.len() {
        1 => out.remove(0),
        _ => Node::Seq(out),
    };
    // Mandatory debug-mode certification: re-derive the dependence
    // relation from the final transformed program and prove schedule
    // legality plus annotation safety, independently of the incremental
    // bookkeeping the stages above used.
    #[cfg(debug_assertions)]
    polymix_verify::certify(&prog)?;
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ast::interp::execute;
    use polymix_ast::tree::Par;
    use polymix_polybench::{all_kernels, kernel_by_name};

    fn opts_small() -> PolyAstOptions {
        PolyAstOptions {
            tile: 4,
            time_tile: 2,
            ..Default::default()
        }
    }

    /// The central oracle: poly+AST output must match the reference
    /// bit-for-bit on every kernel (sequential interpretation).
    #[test]
    fn poly_ast_preserves_semantics_on_all_kernels() {
        for k in all_kernels() {
            let scop = (k.build)();
            let params = k.dataset("mini").params;
            let mut expected = k.fresh_arrays(&scop, &params);
            (k.reference)(&params, &mut expected);

            let prog = optimize_poly_ast(&scop, &opts_small()).expect("optimize");
            let mut actual = k.fresh_arrays(&scop, &params);
            execute(&prog, &params, &mut actual);
            for (ai, (e, a)) in expected.iter().zip(&actual).enumerate() {
                assert_eq!(
                    e, a,
                    "{} array {} ({}) mismatch",
                    k.name, ai, scop.arrays[ai].name
                );
            }
        }
    }

    #[test]
    fn variants_without_stages_also_preserve_semantics() {
        let variants = [
            PolyAstOptions {
                tiling: false,
                ..opts_small()
            },
            PolyAstOptions {
                parallelize: false,
                ..opts_small()
            },
            PolyAstOptions {
                doall_only: true,
                ..opts_small()
            },
            PolyAstOptions {
                unroll: (2, 2),
                ..opts_small()
            },
        ];
        for k in all_kernels() {
            let scop = (k.build)();
            let params = k.dataset("mini").params;
            let mut expected = k.fresh_arrays(&scop, &params);
            (k.reference)(&params, &mut expected);
            for (vi, opts) in variants.iter().enumerate() {
                let prog = optimize_poly_ast(&scop, opts).expect("optimize");
                let mut actual = k.fresh_arrays(&scop, &params);
                execute(&prog, &params, &mut actual);
                for (ai, (e, a)) in expected.iter().zip(&actual).enumerate() {
                    assert_eq!(e, a, "{} variant {vi} array {ai} mismatch", k.name);
                }
            }
        }
    }

    #[test]
    fn stencils_get_pipeline_parallelism() {
        for name in ["seidel-2d", "jacobi-2d-imper", "fdtd-2d"] {
            let k = kernel_by_name(name).unwrap();
            let scop = (k.build)();
            let prog = optimize_poly_ast(&scop, &opts_small()).expect("optimize");
            let mut found = false;
            let mut body = prog.body.clone();
            body.visit_loops_mut(&mut |l| {
                if l.par == Par::Pipeline {
                    found = true;
                }
            });
            assert!(found, "{name}: no pipeline parallelism found");
        }
    }

    #[test]
    fn doall_kernels_get_outer_doall() {
        for name in ["gemm", "2mm", "3mm", "doitgen", "syrk"] {
            let k = kernel_by_name(name).unwrap();
            let scop = (k.build)();
            let prog = optimize_poly_ast(&scop, &opts_small()).expect("optimize");
            let mut found = false;
            let mut body = prog.body.clone();
            body.visit_loops_mut(&mut |l| {
                if l.par == Par::Doall {
                    found = true;
                }
            });
            assert!(found, "{name}: no doall parallelism found");
        }
    }

    #[test]
    fn reduction_kernels_get_reduction_parallelism() {
        // atax's y accumulation and bicg's s accumulation are carried by
        // the outer i loop via reduction dependences only.
        for name in ["atax", "bicg"] {
            let k = kernel_by_name(name).unwrap();
            let scop = (k.build)();
            let prog = optimize_poly_ast(&scop, &opts_small()).expect("optimize");
            let mut kinds = Vec::new();
            let mut body = prog.body.clone();
            body.visit_loops_mut(&mut |l| kinds.push(l.par));
            assert!(
                kinds
                    .iter()
                    .any(|&p| p == Par::Reduction || p == Par::Doall),
                "{name}: kinds {kinds:?}"
            );
        }
    }
}
