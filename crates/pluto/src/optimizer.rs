//! End-to-end baseline optimization: Pluto-style schedules, polyhedral
//! code generation, tiling, wavefront-or-doall parallelization, and
//! optional register tiling by unroll-and-jam marks (`pocc+vect`).

use crate::scheduler::{schedule_with_fallback, Fusion};
use polymix_ast::transforms::band_depth;
use polymix_ast::tree::{Node, Par, Program};
use polymix_codegen::from_poly::generate;
use polymix_codegen::opt::{
    loop_levels, mark_parallelism, register_tile, run_nests, tilable_prefix, tile_nest,
};
use polymix_ir::error::PolymixError;
use polymix_ir::Scop;

/// Baseline optimizer options.
#[derive(Clone, Debug)]
pub struct PlutoOptions {
    /// Fusion heuristic the scheduler starts its fallback chain from:
    /// [`Fusion::Smart`] is PoCC's `pocc` (and, with register tiling,
    /// `pocc+vect`); [`Fusion::Max`] the Fig. 2 structure.
    pub fusion: Fusion,
    /// Rectangular tile size (the paper uses 32).
    pub tile: i64,
    /// Tile size of the outermost (time) band dimension (the paper uses 5
    /// for the stencil group).
    pub time_tile: i64,
    /// Enable loop tiling.
    pub tiling: bool,
    /// Unroll-and-jam factors `(outer, inner)` for register tiling: the
    /// outer loop of every innermost pair is marked `jam: outer`, every
    /// innermost loop `jam: inner`, where the records allow it.
    pub unroll: (i64, i64),
}

impl Default for PlutoOptions {
    fn default() -> Self {
        PlutoOptions {
            fusion: Fusion::Smart,
            tile: 32,
            time_tile: 5,
            tiling: true,
            unroll: (1, 1),
        }
    }
}

/// Runs the baseline flow and returns the optimized program.
///
/// Scheduling degrades gracefully through the fusion fallback chain
/// (`requested → maxfuse → smartfuse → nofuse → identity`), so only
/// code generation can fail here; a [`PolymixError::Codegen`] means no
/// legal program could be produced at all.
pub fn optimize_pluto(scop: &Scop, opts: &PlutoOptions) -> Result<Program, PolymixError> {
    let _memo = polymix_math::memo::scope();
    let fallback = schedule_with_fallback(scop, opts.fusion);
    let schedules = fallback.schedules;
    let mut prog = generate(scop, &schedules)?;
    run_nests(scop, &schedules, &mut prog, |prog, _, info, mut nest| {
        // 1. Parallelism detection on the *pre-tiling* loops. The
        //    baseline only exploits doall (the paper's critique): if the
        //    outermost level is not doall, it wavefronts tile loops later.
        let outer_doall = mark_parallelism(scop, &mut nest, &info.deps, info.depth, true).map(|(k, _)| k);
        let levels = loop_levels(&nest);
        // 2. Tiling.
        let tiled_band = if opts.tiling {
            let (tiled, report) = tile_nest(prog, nest, &info.deps, info.depth, opts.tile, opts.time_tile);
            nest = tiled;
            prog.tiling.push(report);
            tilable_prefix(&info.deps, &info.stmts, info.depth)
        } else {
            0
        };
        // 3. Wavefront when tiled but no outer doall: the two outermost
        //    tile loops execute as diagonals with a barrier per diagonal
        //    (materialized by the emitter; sequential order stays valid
        //    for the interpreter).
        if opts.tiling && tiled_band >= 2 && outer_doall != Some(0) {
            if let Node::Loop(l) = &mut nest {
                if band_depth(&l.body) >= 1 {
                    l.par = Par::Wavefront;
                }
            }
        }
        // 4. Register tiling (`pocc+vect`'s intra-tile step): jam marks
        //    on the innermost pairs; none at (1, 1).
        register_tile(&mut nest, opts.unroll, &info.deps, &levels);
        nest
    });
    // Mandatory debug-mode certification of the baseline's output, on
    // the same terms as the poly+AST flow.
    #[cfg(debug_assertions)]
    polymix_verify::certify(&prog)?;
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ast::interp::execute;
    use polymix_polybench::all_kernels;

    /// The heavyweight oracle: every fusion heuristic × every kernel must
    /// match the reference bit-for-bit under sequential interpretation.
    #[test]
    fn pluto_variants_preserve_semantics_on_all_kernels() {
        for fusion in [Fusion::Smart, Fusion::Max, Fusion::None] {
            for k in all_kernels() {
                let scop = (k.build)();
                let params = k.dataset("mini").params;
                let mut expected = k.fresh_arrays(&scop, &params);
                (k.reference)(&params, &mut expected);

                let opts = PlutoOptions {
                    fusion,
                    tile: 4,
                    time_tile: 2,
                    ..Default::default()
                };
                let prog = optimize_pluto(&scop, &opts).expect("optimize");
                let mut actual = k.fresh_arrays(&scop, &params);
                execute(&prog, &params, &mut actual);
                for (ai, (e, a)) in expected.iter().zip(&actual).enumerate() {
                    assert_eq!(
                        e, a,
                        "{:?} {} array {} ({}) mismatch",
                        fusion, k.name, ai, scop.arrays[ai].name
                    );
                }
            }
        }
    }

    #[test]
    fn wavefront_appears_for_seidel() {
        let k = polymix_polybench::kernel_by_name("seidel-2d").unwrap();
        let scop = (k.build)();
        let prog = optimize_pluto(&scop, &PlutoOptions::default()).expect("optimize");
        // The outermost tile loop must carry the wavefront annotation.
        let mut found = false;
        let mut body = prog.body.clone();
        body.visit_loops_mut(&mut |l| {
            if l.par == Par::Wavefront {
                found = true;
            }
        });
        assert!(found, "no wavefront annotation on seidel tiles");
    }

    #[test]
    fn gemm_outer_loop_is_doall() {
        let k = polymix_polybench::kernel_by_name("gemm").unwrap();
        let scop = (k.build)();
        let prog = optimize_pluto(&scop, &PlutoOptions::default()).expect("optimize");
        match &prog.body {
            Node::Loop(l) => assert_eq!(l.par, Par::Doall),
            Node::Seq(xs) => {
                if let Node::Loop(l) = &xs[0] {
                    assert_eq!(l.par, Par::Doall);
                } else {
                    panic!("unexpected shape");
                }
            }
            _ => panic!("unexpected shape"),
        }
    }
}
