//! The end-to-end poly+AST flow (Algorithm 1).

use crate::affine::affine_stage_with;
use polymix_ast::separate::separate_guards;
use polymix_ast::tree::{Loop, Node, Par, Program, StmtNode, TileForm, TileReport};
use polymix_codegen::from_poly::generate;
use polymix_codegen::opt::{
    jam_nest, loop_levels, mark_parallelism, node_depth, order_point_loops, register_tile,
    run_nests, skew_nest_for_tilability, tile_nest, NestInfo,
};
use polymix_deps::NestDep;
use polymix_dl::{box_cost, tiling_costs, CacheLevel, Machine, RefInfo, NOMINAL_EXTENT};
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
    /// Restrict the parallelism detector to doall (Fig. 5's comparison
    /// mode: forgo reduction/pipeline parallelism).
    pub doall_only: bool,
    /// Register tiling factors `(outer, inner)`: a jam of the outer loop
    /// of every innermost pair and one of every innermost loop. `(1, 1)`
    /// leaves register tiling to the flow itself, which jams the loop
    /// that breaks an add chain or a gather, or a register tile's row and
    /// vector loops (`polymix_codegen::opt::jam_nest`). A request jams the
    /// innermost pair, which in a matrix product is the reduction loop
    /// around the vector loop.
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
            doall_only: false,
            unroll: (1, 1),
            fusion: true,
        }
    }
}

/// Runs Algorithm 1: the DL-guided affine stage, then the AST stages
/// (skewing for tilability → parallelization → tiling, with each tile's
/// point loops put in vector order → intra-tile).
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
    run_nests(scop, &schedules, &mut prog, |prog, podg, info, nest| {
        // Stage 3 on the nest as generated, which is what runs untiled:
        // coarse-grain parallelization (doall / reduction / pipeline at
        // the outermost possible level).
        let mut plain = nest.clone();
        mark_parallelism(scop, &mut plain, &info.deps, info.depth, opts.doall_only);
        let levels = loop_levels(&plain);
        let (mut nest, deps) = if !opts.tiling {
            (separate_guards(plain, scop, prog.n_vars, true).0, info.deps.clone())
        } else {
            // Stage 2: skewing for tilability (AST-level), then stage 3
            // again on the skewed nest the tiles are cut from. A failed
            // attempt may leave partial skews behind, so work on a clone;
            // a skew that changed nothing is no skew.
            let mut skewed = nest.clone();
            let (tilable, deps) = match skew_nest_for_tilability(&mut skewed, scop, &schedules, podg, info) {
                Some(deps) if skewed != nest => {
                    mark_parallelism(scop, &mut skewed, &deps, info.depth, opts.doall_only);
                    (skewed, deps)
                }
                _ => (plain.clone(), info.deps.clone()),
            };
            // Stage 4: tiling for locality, where the DL model says it pays.
            let (nest, deps, report) = if info.depth < 2 {
                let (mut nest, mut report) = tile_nest(prog, tilable, &deps, info.depth, opts.tile, opts.time_tile);
                report.reordered = order_point_loops(scop, &mut nest, &deps);
                (nest, deps, report)
            } else {
                match tile_where_it_pays(prog, scop, opts, &plain, (&tilable, &deps), info) {
                    (Some(tiled), report) => (tiled, deps, report),
                    (None, mut report) => {
                        let (untiled, guards) = separate_guards(plain, scop, prog.n_vars, true);
                        report.guards = guards;
                        (untiled, info.deps.clone(), report)
                    }
                }
            };
            prog.tiling.push(report);
            (nest, deps)
        };
        // Stage 5: intra-tile optimizations (register tiling): the
        // requested factors, or the jams the machine's add latency asks
        // for.
        if opts.unroll == (1, 1) {
            jam_nest(scop, &mut nest, &deps, &levels, opts.machine.fp_add_latency);
        } else {
            register_tile(&mut nest, opts.unroll, &deps, &levels);
        }
        // A pipeline loop left over several sub-nests runs them as phases
        // of each step. Whether the await cone covers every dependence
        // between phases is the certifier's model, not something the
        // vectors of stage 3 can say: ask, and on a no run the nest
        // sequentially.
        if phased_pipeline(&nest) && polymix_verify::certify(&prog.with_body(nest.clone())).is_err() {
            nest.visit_loops_mut(&mut |l| {
                if l.par == Par::Pipeline {
                    l.par = Par::Seq;
                    prog.demoted += 1;
                }
            });
        }
        nest
    });
    // Mandatory debug-mode certification: re-derive the dependence
    // relation from the final transformed program and prove schedule
    // legality plus annotation safety, independently of the incremental
    // bookkeeping the stages above used. It is the one gate of the
    // tiling stage's sunk form too (DESIGN §19).
    #[cfg(debug_assertions)]
    polymix_verify::certify(&prog)?;
    Ok(prog)
}

/// A nest is tiled only when the DL model prices the tiled tree at most
/// this fraction of the untiled one: tiles must buy at least 25 %.
const TILE_PAYS: f64 = 0.75;

/// The tile sizes stage 4 tries besides the caller's: those below it.
const TILES: [i64; 3] = [64, 32, 16];

/// Stage 4's decision, made on the trees the flow would emit (DESIGN §19,
/// "Build, then price"): `tilable` (with its records `deps`) is tiled by
/// `tile_nest` and its point loops ordered at the caller's tile and at
/// every smaller one of [`TILES`]; each tree that strip-mines a loop, and
/// `untiled`, is priced by [`price`]. Guards do not enter a price, so only
/// the tree that is emitted has its guards separated. Returns the cheapest
/// tiled tree, separated, when it costs at most [`TILE_PAYS`] of the
/// untiled one; `None` when `untiled` is to be emitted. Returns the nest's
/// [`TileReport`] beside either, with the two prices.
///
/// A nest whose outermost loop carries a dependence other than a
/// reduction (a time loop) is tiled at the caller's sizes only, and
/// priced as before, by one full tile box against the untiled box
/// ([`nest_refs`], `tiling_costs`): its first band level is a time tile,
/// which this stage does not search, and its emitted trees sweep whole
/// rows inside the time tile (EXPERIMENTS, "Pricing the emitted tree").
/// Any other nest has no time tile: its first band level takes each
/// candidate's size too, capped by the caller's `time_tile`.
fn tile_where_it_pays(
    prog: &mut Program,
    scop: &Scop,
    opts: &PolyAstOptions,
    untiled: &Node,
    (tilable, deps): (&Node, &[NestDep]),
    info: &NestInfo,
) -> (Option<Node>, TileReport) {
    let level = opts.machine.fusion_level();
    let n_vars = prog.n_vars;
    let time = info.deps.iter().any(|d| !d.reduction && !d.at(0).is_zero());
    let boxed = time.then(|| {
        let (refs, extents) = nest_refs(scop, tilable, info.depth);
        let mut sizes = vec![opts.tile as f64; info.depth];
        sizes[0] = opts.time_tile as f64;
        tiling_costs(&refs, &extents, &sizes, level)
    });
    let smaller = TILES.into_iter().filter(|&t| t < opts.tile && !time);
    let mut best: Option<(f64, Node, TileReport, usize)> = None;
    for size in std::iter::once(opts.tile).chain(smaller) {
        prog.n_vars = n_vars;
        let first = if time { opts.time_tile } else { opts.time_tile.min(size) };
        let (mut tree, mut report) = tile_nest(prog, tilable.clone(), deps, info.depth, size, first);
        // A tree that strip-mines nothing is the untiled nest, skewed.
        if report.form == TileForm::None {
            continue;
        }
        report.reordered = order_point_loops(scop, &mut tree, deps);
        let cost = boxed.map_or_else(|| price(scop, &tree, level), |(_, tiled)| tiled);
        if best.as_ref().is_none_or(|(c, ..)| cost < *c) {
            best = Some((cost, tree, report, prog.n_vars));
        }
    }
    let plain = boxed.map_or_else(|| price(scop, untiled, level), |(untiled, _)| untiled);
    match best {
        Some((cost, tree, mut report, vars)) if cost <= TILE_PAYS * plain => {
            prog.n_vars = vars;
            let (tree, guards) = separate_guards(tree, scop, vars, false);
            report.dl = Some((plain, cost));
            report.guards = guards;
            (Some(tree), report)
        }
        best => {
            prog.n_vars = n_vars;
            let declined = TileReport {
                form: TileForm::Declined,
                untiled: 0,
                dl: best.map(|(cost, ..)| (plain, cost)),
                reordered: false,
                tile: 0,
                guards: 0,
            };
            (None, declined)
        }
    }
}

/// The references of a `depth`-deep `nest` and its loop extents, as the
/// DL model prices them (`polymix_dl::tiling_costs`, DESIGN §19). Every
/// reference is an access row composed with its statement's `iter_exprs`,
/// one column per loop level above it; a level's extent is the largest
/// [`trip`] count at that level.
fn nest_refs(scop: &Scop, nest: &Node, depth: usize) -> (Vec<RefInfo>, Vec<f64>) {
    fn walk(scop: &Scop, node: &Node, above: &mut Vec<usize>, extents: &mut [f64], refs: &mut Vec<RefInfo>) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| walk(scop, x, above, extents, refs)),
            Node::Guard(_, b) => walk(scop, b, above, extents, refs),
            Node::Loop(l) => {
                if let Some(e) = extents.get_mut(above.len()) {
                    *e = e.max(trip(l));
                }
                above.push(l.var);
                walk(scop, &l.body, above, extents, refs);
                above.pop();
            }
            Node::Stmt(s) => {
                for (acc, _) in scop.statements[s.stmt_idx].accesses() {
                    let mut coeffs = s.subscript_coeffs(&acc.map, above);
                    coeffs.iter_mut().for_each(|c| c.resize(extents.len(), 0));
                    refs.push(RefInfo {
                        array: acc.array.0,
                        coeffs,
                        elem_bytes: scop.arrays[acc.array.0].elem_bytes,
                    });
                }
            }
        }
    }
    let mut extents = vec![1.0; depth];
    let mut refs = Vec::new();
    walk(scop, nest, &mut Vec::new(), &mut extents, &mut refs);
    (refs, extents)
}

/// The DL price per iteration of `nest` as its loops stand (DESIGN §19,
/// "Build, then price"): every run of statements directly under one loop
/// is priced by [`box_cost`] over one tile of the loops around it, inside
/// its tile loops, and the runs are averaged weighted by their
/// iterations. The tile is every step-1 loop of the path in its order: a
/// point loop at its tile, any other at its trip count where both bounds
/// are constant and [`NOMINAL_EXTENT`] elsewhere. The tile loops (step
/// above 1) join outside it in their order, each at its range over its
/// step, along which a subscript moves by its point loop's coefficient
/// times the step. Each reference is an access row composed with its
/// statement's `iter_exprs`.
fn price(scop: &Scop, nest: &Node, level: &CacheLevel) -> f64 {
    let (mut cost, mut iterations) = (0.0, 0.0);
    walk_runs(nest, &mut Vec::new(), &mut |above, run| {
        let mut path: Vec<&Loop> = above.iter().copied().filter(|l| l.step > 1).collect();
        path.extend(above.iter().copied().filter(|l| l.step == 1));
        let vars: Vec<usize> = path.iter().map(|l| l.var).collect();
        let extents: Vec<f64> = path.iter().map(|l| extent(l, above)).collect();
        let mut refs = Vec::new();
        for s in run {
            for (acc, _) in scop.statements[s.stmt_idx].accesses() {
                let coeffs = s
                    .subscript_coeffs(&acc.map, &vars)
                    .into_iter()
                    .map(|row| {
                        let column = |(k, t): (usize, &&Loop)| match t.step {
                            1 => row[k],
                            step => (0..path.len())
                                .filter(|&p| path[p].clamped_by(t.var, step))
                                .map(|p| row[p] * step)
                                .sum(),
                        };
                        path.iter().enumerate().map(column).collect()
                    })
                    .collect();
                refs.push(RefInfo {
                    array: acc.array.0,
                    coeffs,
                    elem_bytes: scop.arrays[acc.array.0].elem_bytes,
                });
            }
        }
        let n: f64 = extents.iter().product();
        cost += box_cost(&refs, &extents, level) * n;
        iterations += n;
    });
    if iterations > 0.0 {
        cost / iterations
    } else {
        0.0
    }
}

/// The trip count of `l` as the DL model prices it: its own where both
/// bounds are constant, [`NOMINAL_EXTENT`] elsewhere.
fn trip(l: &Loop) -> f64 {
    match (l.lo.is_const(), l.hi.is_const()) {
        (Some(lo), Some(hi)) => (hi - lo + 1).max(1) as f64,
        _ => NOMINAL_EXTENT,
    }
}

/// The extent [`price`] gives loop `l` on the path `above`.
fn extent(l: &Loop, above: &[&Loop]) -> f64 {
    let range = trip(l);
    if l.step > 1 {
        return (range / l.step as f64).max(1.0);
    }
    match above.iter().find(|t| t.step > 1 && l.clamped_by(t.var, t.step)) {
        Some(t) => range.min(t.step as f64),
        None => range,
    }
}

/// Calls `f` with every loop path of `node` (outermost first, extending
/// `above`) and the statements directly in its innermost loop's body.
fn walk_runs<'a>(node: &'a Node, above: &mut Vec<&'a Loop>, f: &mut impl FnMut(&[&'a Loop], &[&'a StmtNode])) {
    fn direct<'a>(node: &'a Node, out: &mut Vec<&'a StmtNode>) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| direct(x, out)),
            Node::Guard(_, b) => direct(b, out),
            Node::Stmt(s) => out.push(s),
            Node::Loop(_) => {}
        }
    }
    match node {
        Node::Seq(xs) => xs.iter().for_each(|x| walk_runs(x, above, f)),
        Node::Guard(_, b) => walk_runs(b, above, f),
        Node::Stmt(_) => {}
        Node::Loop(l) => {
            above.push(l);
            let mut run = Vec::new();
            direct(&l.body, &mut run);
            if !run.is_empty() {
                f(above, &run);
            }
            walk_runs(&l.body, above, f);
            above.pop();
        }
    }
}

/// True when some pipeline loop's body is a sequence with more than one
/// sub-nest in it.
fn phased_pipeline(node: &Node) -> bool {
    match node {
        Node::Seq(xs) => xs.iter().any(phased_pipeline),
        Node::Guard(_, b) => phased_pipeline(b),
        Node::Loop(l) => {
            let phases = match &l.body {
                Node::Seq(xs) => xs.iter().filter(|x| node_depth(x) > 0).count(),
                _ => 0,
            };
            (l.par == Par::Pipeline && phases > 1) || phased_pipeline(&l.body)
        }
        Node::Stmt(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ast::interp::execute;
    use polymix_polybench::{all_kernels, kernel_by_name, Kernel};

    /// The smallest tiles at which the DL model takes the tiles it takes
    /// at the harness's sizes (32, time tile 5): a 4 × 4 tile buys too
    /// little to be cut (DESIGN §19), and the oracles must run tiled code.
    fn opts_small() -> PolyAstOptions {
        PolyAstOptions {
            tile: 16,
            time_tile: 8,
            ..Default::default()
        }
    }

    /// `mini` doubled, and no parameter under 17, so that every tiled loop
    /// of [`opts_small`] runs more than one tile: `mini` runs a stencil
    /// three or four time steps, under one time tile of 8.
    fn oracle_params(k: &Kernel) -> Vec<i64> {
        k.dataset("mini").params.iter().map(|p| (2 * p).max(17)).collect()
    }

    /// Forms the tiling stage must report at [`opts_small`], one nest at
    /// least per entry: the oracles below check them, so that a decline
    /// cannot untile what they run.
    const CENSUS: [(&str, TileForm); 21] = [
        ("2mm", TileForm::Sunk),
        ("3mm", TileForm::Sunk),
        ("gemm", TileForm::Sunk),
        ("syrk", TileForm::Sunk),
        ("syr2k", TileForm::Sunk),
        ("doitgen", TileForm::Sunk),
        ("symm", TileForm::Sunk),
        ("symm", TileForm::Joint),
        ("gemver", TileForm::Joint),
        ("mvt", TileForm::Joint),
        // The nest of the `symmat` update: tile_nest strip-mines its inner
        // pair only, under a whole `c1`, and that tree is priced 0.81 of
        // the untiled nest, where a full 8 × 16 × 16 box read 0.19.
        ("correlation", TileForm::Declined),
        ("correlation", TileForm::Joint),
        ("covariance", TileForm::Declined),
        ("covariance", TileForm::Joint),
        // tile_nest strip-mines nothing in the fused nest: the untiled one
        // is emitted, its guards separated.
        ("cholesky", TileForm::Declined),
        ("adi", TileForm::Chains),
        ("jacobi-2d-imper", TileForm::Joint),
        ("seidel-2d", TileForm::Joint),
        ("fdtd-2d", TileForm::Joint),
        ("fdtd-apml", TileForm::Declined),
        ("jacobi-1d-imper", TileForm::Declined),
    ];

    fn assert_census(name: &str, prog: &Program) {
        for (_, form) in CENSUS.iter().filter(|(n, _)| *n == name) {
            assert!(
                prog.tiling.iter().any(|r| r.form == *form),
                "{name}: no {form:?} nest in {:?}",
                prog.tiling
            );
        }
    }

    /// The central oracle: poly+AST output must match the reference
    /// bit-for-bit on every kernel (sequential interpretation).
    #[test]
    fn poly_ast_preserves_semantics_on_all_kernels() {
        for k in all_kernels() {
            let scop = (k.build)();
            let params = oracle_params(&k);
            let mut expected = k.fresh_arrays(&scop, &params);
            (k.reference)(&params, &mut expected);

            let prog = optimize_poly_ast(&scop, &opts_small()).expect("optimize");
            assert_census(k.name, &prog);
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
            let params = oracle_params(&k);
            let mut expected = k.fresh_arrays(&scop, &params);
            (k.reference)(&params, &mut expected);
            for (vi, opts) in variants.iter().enumerate() {
                let prog = optimize_poly_ast(&scop, opts).expect("optimize");
                // The parallel marks decide the form a shared loop takes
                // (correlation's chains are sunk without a reduction mark),
                // so the census holds where the marks are the default's.
                if opts.tiling && !opts.doall_only {
                    assert_census(k.name, &prog);
                }
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

    /// Stage 2 skews the stencils' nests, and the list it hands on is the
    /// nest's own: every edge keeps its endpoints and reduction flag, in
    /// the nest's order; only the vectors are new.
    #[test]
    fn skewing_keeps_the_nest_dependence_list() {
        for name in ["seidel-2d", "jacobi-2d-imper", "fdtd-2d"] {
            let scop = (kernel_by_name(name).unwrap().build)();
            let schedules = affine_stage_with(&scop, &Machine::nehalem(), true).expect("affine stage");
            let prog = generate(&scop, &schedules).expect("generate");
            let podg = polymix_deps::build_podg(&scop);
            let infos = polymix_codegen::nest_infos(&scop, &schedules, &podg, &prog);
            let [info] = &infos[..] else { panic!("{name}: one nest") };
            let skewed = skew_nest_for_tilability(&mut prog.body.clone(), &scop, &schedules, &podg, info)
                .expect("skewable");
            let ends = |deps: &[polymix_deps::NestDep]| -> Vec<(usize, usize, bool)> {
                deps.iter().map(|d| (d.src, d.dst, d.reduction)).collect()
            };
            assert_eq!(ends(&skewed), ends(&info.deps), "{name}");
            assert_ne!(skewed, info.deps, "{name}: stage 2 skews the nest");
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

    /// Visits every statement with the loops around it, outermost first.
    fn each_stmt_path<'a>(
        node: &'a Node,
        above: &mut Vec<&'a polymix_ast::tree::Loop>,
        f: &mut impl FnMut(&polymix_ast::tree::StmtNode, &[&'a polymix_ast::tree::Loop]),
    ) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| each_stmt_path(x, above, f)),
            Node::Guard(_, b) => each_stmt_path(b, above, f),
            Node::Loop(l) => {
                above.push(l);
                each_stmt_path(&l.body, above, f);
                above.pop();
            }
            Node::Stmt(s) => f(s, above),
        }
    }

    /// Fusion must not cost a statement its tile: in the fused BLAS-3
    /// nests every three-deep statement sits under three tile loops, and
    /// the tile loop the nest's children share is the parallel one.
    #[test]
    fn fused_blas3_statements_keep_their_whole_band() {
        for name in ["2mm", "3mm", "gemm", "syrk"] {
            let k = kernel_by_name(name).unwrap();
            let prog = optimize_poly_ast(&(k.build)(), &PolyAstOptions::default()).expect("optimize");
            assert!(
                prog.tiling.iter().all(|r| r.form == TileForm::Sunk),
                "{name}: {:?}",
                prog.tiling
            );
            let mut deep = 0;
            each_stmt_path(&prog.body, &mut Vec::new(), &mut |s, above| {
                let tiles = above.iter().filter(|l| l.step == 32).count();
                assert_eq!(above[0].par, Par::Doall, "{name}: outermost loop of {above:?}");
                assert_eq!(above[0].step, 32, "{name}: outermost loop is a tile loop");
                if s.iter_exprs.len() == 3 {
                    deep += 1;
                    assert_eq!((tiles, above.len()), (3, 6), "{name}: statement {}", s.stmt_idx);
                }
            });
            assert!(deep >= 1, "{name}");
        }
    }

    /// Tiling is a decision, and the DL model must reproduce what was
    /// measured with tiling on and off at `standard` (GF/s, one thread,
    /// EXPERIMENTS "Fuse what the reference fuses"): every nest of the
    /// kernels whose tiles pay (2mm 16.7 tiled vs 9.8 untiled, gemm 20.6
    /// vs 14.2, syrk 7.9 vs 4.9, gemver 11.3 vs 9.6, jacobi-2d 5.7 vs
    /// 4.3, seidel-2d 1.53 vs 1.05, fdtd-2d 9.9 vs 7.2) prices its tile
    /// at most 0.65 of the untiled nest and keeps it; fused fdtd-apml
    /// (3.9 tiled, 7.7 untiled) and jacobi-1d-imper (2.84, 3.47) are
    /// declined.
    #[test]
    fn the_dl_model_tiles_what_measurably_needs_tiles() {
        let reports_of = |name: &str| {
            let k = kernel_by_name(name).unwrap();
            let time_tile = if k.group == polymix_polybench::Group::Pipeline { 5 } else { 32 };
            let opts = PolyAstOptions {
                time_tile,
                ..Default::default()
            };
            optimize_poly_ast(&(k.build)(), &opts).expect("optimize").tiling
        };
        for name in ["2mm", "gemm", "syrk", "gemver", "jacobi-2d-imper", "seidel-2d", "fdtd-2d"] {
            let reports = reports_of(name);
            assert!(reports.iter().any(|r| r.dl.is_some()), "{name}: nothing priced");
            for r in reports {
                assert_ne!(r.form, TileForm::Declined, "{name}: {r:?}");
                if let Some((untiled, tiled)) = r.dl {
                    assert!(tiled <= 0.65 * untiled, "{name}: {r:?}");
                }
            }
        }
        for name in ["fdtd-apml", "jacobi-1d-imper"] {
            let reports = reports_of(name);
            assert_eq!(reports.len(), 1, "{name}: {reports:?}");
            assert_eq!(reports[0].form, TileForm::Declined, "{name}: {reports:?}");
        }
    }

    /// ISSUE 21, satellite 1: below a joint band the chains used to be
    /// tiled one level too deep, and the point loop of the band's last
    /// level was strip-mined a second time (`c2 = max(.., u1t, c2t)`).
    #[test]
    fn no_loop_level_is_strip_mined_twice() {
        for name in ["fdtd-2d", "jacobi-2d-imper", "seidel-2d", "doitgen", "syrk"] {
            let k = kernel_by_name(name).unwrap();
            let opts = PolyAstOptions {
                time_tile: 5,
                ..Default::default()
            };
            let prog = optimize_poly_ast(&(k.build)(), &opts).expect("optimize");
            assert!(
                prog.tiling.iter().all(|r| matches!(r.form, TileForm::Joint | TileForm::Sunk)),
                "{name}: {:?}",
                prog.tiling
            );
            each_stmt_path(&prog.body, &mut Vec::new(), &mut |_, above| {
                for (d, l) in above.iter().enumerate() {
                    let clamps = l
                        .lo
                        .exprs
                        .iter()
                        .filter(|be| {
                            above[..d]
                                .iter()
                                .any(|t| t.step > 1 && be.expr == polymix_ast::tree::LinExpr::var(t.var))
                        })
                        .count();
                    assert!(clamps <= 1, "{name}: loop {} is clamped by {clamps} tile loops", l.name);
                }
            });
        }
    }

    /// Every nest whose point loops stage 4b reorders over the 25 kernels,
    /// with the loops around each statement that moved, outermost first
    /// (before: `c1 c2 c3`; EXPERIMENTS "Point-loop order"). At the
    /// harness's tiles (32, time tile 5 for the pipeline group) and at the
    /// oracles' ([`opts_small`]). gemm, 2mm, 3mm and doitgen are already
    /// in vector order, and no stencil's tree may move.
    #[test]
    fn point_loop_order_census() {
        let census = |opts_of: &dyn Fn(&Kernel) -> PolyAstOptions| {
            let mut rows = Vec::new();
            for k in all_kernels().into_iter().chain(polymix_polybench::extended_kernels()) {
                let prog = optimize_poly_ast(&(k.build)(), &opts_of(&k)).expect("optimize");
                let tops = match &prog.body {
                    Node::Seq(xs) => xs.iter().collect(),
                    other => vec![other],
                };
                for (nest, (report, top)) in prog.tiling.iter().zip(tops).enumerate() {
                    let mut out = Vec::new();
                    each_stmt_path(top, &mut Vec::new(), &mut |_, above| {
                        let names: Vec<&str> =
                            above.iter().filter(|l| l.step == 1).map(|l| l.name.as_str()).collect();
                        if !names.is_sorted() {
                            out.push(names.join(" "));
                        }
                    });
                    assert_eq!(report.reordered, !out.is_empty(), "{} nest {nest}", k.name);
                    rows.extend(out.into_iter().map(|o| format!("{} {nest}: {o}", k.name)));
                }
            }
            rows
        };
        let harness = census(&|k| PolyAstOptions {
            time_tile: if k.group == polymix_polybench::Group::Pipeline { 5 } else { 32 },
            ..Default::default()
        });
        assert_eq!(
            harness,
            ["gemver 2: c2 c1", "symm 1: c2 c1 c3", "syr2k 0: c1 c3 c2", "syrk 0: c1 c3 c2"]
        );
        let oracle = census(&|_| opts_small());
        // gemver's last nest is tiled at the oracles' tiles too now: its
        // emitted 8 × 16 tile, priced inside its tile loops, reads 0.57 of
        // the untiled nest, where the box alone read 0.87.
        assert_eq!(
            oracle,
            ["gemver 2: c2 c1", "symm 1: c2 c1 c3", "syr2k 0: c1 c3 c2", "syrk 0: c1 c3 c2"]
        );
    }

    /// ISSUE 21, satellite 2: with fusion off, fdtd-2d's time loop runs
    /// four sub-nests as phases and its await cone does not cover the
    /// dependence from the last phase back to the second. Release builds
    /// used to return that program; the flow now asks the certifier and
    /// runs the nest sequentially. Untiled, the nest is emitted as
    /// generated, unskewed, and its marks re-derived there leave the time
    /// loop sequential: no pipeline is marked, so none is demoted.
    #[test]
    fn an_uncovered_phased_pipeline_is_demoted() {
        let k = kernel_by_name("fdtd-2d").unwrap();
        for tiling in [true, false] {
            let opts = PolyAstOptions {
                fusion: false,
                tiling,
                time_tile: 5,
                ..Default::default()
            };
            let prog = optimize_poly_ast(&(k.build)(), &opts).expect("optimize");
            assert!(polymix_verify::certify(&prog).is_ok());
            prog.body.visit_loops(&mut |l| assert_ne!(l.par, Par::Pipeline));
            assert_eq!(prog.demoted > 0, tiling, "the demotion is counted");
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
            prog.body.visit_loops(&mut |l| kinds.push(l.par.clone()));
            assert!(
                kinds.iter().any(|p| matches!(p, Par::Reduction(_) | Par::Doall)),
                "{name}: kinds {kinds:?}"
            );
        }
    }

    /// `P[0] op= X[i]`: a sum is a reduction that privatizes `P`; a
    /// product is not, because private copies are combined by adding
    /// them, so its loop stays sequential.
    #[test]
    fn only_an_additive_accumulation_is_marked_a_reduction() {
        use polymix_ir::{con, ix, par, BinOp, ScopBuilder};
        for (op, mark) in [(BinOp::Add, Par::Reduction(vec![1])), (BinOp::Mul, Par::Seq)] {
            let mut b = ScopBuilder::new("acc", &["N"], &[8]);
            let x = b.array("X", &["N"]);
            let p = b.array("P", &["N"]);
            b.enter("i", con(0), par("N"));
            let rhs = b.rd(x, &[ix("i")]);
            b.stmt_update("S", p, &[con(0)], op, rhs);
            b.exit();
            let scop = b.finish().expect("well-formed SCoP");
            let prog = optimize_poly_ast(&scop, &PolyAstOptions::default()).expect("optimize");
            let mut marks = Vec::new();
            prog.body.visit_loops(&mut |l| marks.push(l.par.clone()));
            assert_eq!(marks, [mark], "{op:?}");
        }
    }

    /// The top-level nests of `prog` with their tiling reports.
    fn nests(prog: &Program) -> Vec<(&Node, &TileReport)> {
        let tops: Vec<&Node> = match &prog.body {
            Node::Seq(xs) => xs.iter().collect(),
            other => vec![other],
        };
        tops.into_iter().zip(&prog.tiling).collect()
    }

    /// cholesky's fused nest: tile_nest strip-mines nothing in it, so the
    /// nest is emitted as generated, and guard separation splits its `c2`
    /// at `c1`. No guard below a `c2` mentions it any more, and the piece
    /// of the `tmpo` updates jams `c2` by 4 around their add chain.
    #[test]
    fn cholesky_s_c2_is_split_at_its_guards_and_its_update_piece_jammed() {
        let k = kernel_by_name("cholesky").unwrap();
        let prog = optimize_poly_ast(&(k.build)(), &PolyAstOptions::default()).expect("optimize");
        let [(_, report)] = nests(&prog)[..] else { panic!("one nest: {:?}", prog.tiling) };
        assert_eq!((report.form, report.guards), (TileForm::Declined, 8), "{report:?}");
        fn check(node: &Node, c2: &mut Vec<usize>) {
            match node {
                Node::Seq(xs) => xs.iter().for_each(|x| check(x, c2)),
                Node::Guard(gs, b) => {
                    assert!(gs.iter().all(|g| c2.iter().all(|&v| g.coeff_of(v) == 0)), "{gs:?}");
                    check(b, c2);
                }
                Node::Loop(l) => {
                    let pushed = l.name == "c2";
                    if pushed {
                        c2.push(l.var);
                    }
                    check(&l.body, c2);
                    if pushed {
                        c2.pop();
                    }
                }
                Node::Stmt(_) => {}
            }
        }
        check(&prog.body, &mut Vec::new());
        let mut c2 = Vec::new();
        prog.body.visit_loops(&mut |l| {
            if l.name == "c2" {
                c2.push(l.jam);
            }
        });
        assert_eq!(c2, [1, 4, 1], "the pieces of S1, of S3 and S4, and the S5 loop");
    }

    /// Guard separation keeps every instance and its order: splitting
    /// every nest of each kernel's generated program, schedules of the
    /// affine stage, runs bit for bit like the reference.
    #[test]
    fn guard_separation_preserves_semantics_on_all_kernels() {
        let mut split = 0;
        for k in all_kernels().into_iter().chain(polymix_polybench::extended_kernels()) {
            let scop = (k.build)();
            let schedules = affine_stage_with(&scop, &Machine::nehalem(), true).expect("affine stage");
            let mut prog = generate(&scop, &schedules).expect("generate");
            let tops = match std::mem::replace(&mut prog.body, Node::Seq(Vec::new())) {
                Node::Seq(xs) => xs,
                other => vec![other],
            };
            let separated: Vec<Node> = tops
                .into_iter()
                .map(|nest| {
                    let (nest, removed) = polymix_ast::separate::separate_guards(nest, &scop, prog.n_vars, true);
                    split += removed;
                    nest
                })
                .collect();
            prog.body = Node::Seq(separated);
            let params = oracle_params(&k);
            let mut expected = k.fresh_arrays(&scop, &params);
            (k.reference)(&params, &mut expected);
            let mut actual = k.fresh_arrays(&scop, &params);
            execute(&prog, &params, &mut actual);
            assert!(expected == actual, "{}: separated program differs from the reference", k.name);
        }
        assert!(split > 0, "some guard was separated");
    }

    /// correlation's `symmat` nest: tile_nest strip-mines the inner pair
    /// under a whole `c1`, and the tree it returns is priced that way,
    /// one 16 × 16 tile with `c1` at its full extent inside the tile
    /// loops. That buys less than [`TILE_PAYS`] over the untiled nest, so
    /// the nest is declined at the oracles' tiles (a full 8 × 16 × 16 box
    /// priced it at a fifth of the untiled nest).
    #[test]
    fn correlation_s_symmat_nest_is_priced_at_full_c1_and_declined() {
        let k = kernel_by_name("correlation").unwrap();
        let scop = (k.build)();
        let prog = optimize_poly_ast(&scop, &opts_small()).expect("optimize");
        let mut symmat = nests(&prog).into_iter().filter(|(nest, _)| {
            let mut names = Vec::new();
            nest.visit_stmts(&mut |s| names.push(scop.statements[s.stmt_idx].name.as_str()));
            names.contains(&"R2")
        });
        let (_, report) = symmat.next().expect("the symmat nest");
        assert_eq!(report.form, TileForm::Declined, "{report:?}");
        let (untiled, tiled) = report.dl.expect("priced");
        assert!(tiled > TILE_PAYS * untiled && tiled < untiled, "{report:?}");
    }
}
