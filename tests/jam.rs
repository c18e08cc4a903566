//! Register tiling (DESIGN §19): the loops the optimizers mark `jam: f`,
//! and what the emitter makes of them.
//!
//! No interpreter oracle can see a jam — the interpreter, the vm and
//! the cache simulator run a jammed loop in its original order — so the
//! second test compiles every jammed source with `rustc` at sizes where
//! the remainder loop runs, and compares its checksum bits with those of
//! the same program with the marks stripped.

use polymix::ast::tree::Program;
use polymix::dl::Machine;
use polymix_bench::runner::{compile_and_run, emit_source};
use polymix_bench::variants::{build_variant, Variant};
use polymix_polybench::{all_kernels, extended_kernels, Kernel};
use std::sync::OnceLock;

type Jammed = (Kernel, Variant, Program, Vec<(String, i64)>);

/// Every jammed program of the 25 kernels × [`Variant::ALL`] at the
/// paper's knobs: kernel, variant, program and its marks. Built once for
/// both tests.
fn jammed() -> &'static [Jammed] {
    static JAMMED: OnceLock<Vec<Jammed>> = OnceLock::new();
    JAMMED.get_or_init(|| {
        let machine = Machine::nehalem();
        let mut out = Vec::new();
        for k in all_kernels().into_iter().chain(extended_kernels()) {
            for v in Variant::ALL {
                let prog = build_variant(&k, v, &machine).expect("builds");
                let mut marks = Vec::new();
                prog.body.visit_loops(&mut |l| {
                    if l.jam > 1 {
                        marks.push((l.name.clone(), l.jam));
                    }
                });
                if !marks.is_empty() {
                    out.push((k.clone(), v, prog, marks));
                }
            }
        }
        out
    })
}

/// The census of EXPERIMENTS "Breaking the add chain", "Register tiling
/// is one mark" and "The register tile is chosen": poly+AST jams the loop
/// whose write an add chain (atax, bicg, gesummv, mvt, cholesky's `tmpo`
/// update, once guard separation has split its `c2`) or a gather (syrk,
/// syr2k) leaves fixed, by the power of two that fits the FP add latency
/// (4) with the statements under the innermost loop, and trisolv's
/// triangular inner loop refuses a jam of `c1`. Where neither binds, it
/// jams the row loop `c1` and the vector loop `c3` of each product of
/// gemm, 2mm and 3mm by 2 each (a register tile around the reduction loop
/// `c2`), and correlation's and covariance's `c1` by 4 (a tile-wide
/// chain). Under poly+ast(doall) those two run `c2, c1, c3`: a register
/// tile of `c2`, which the `c3` bound `max(c2 [+ 1], c3t)` refuses.
/// doitgen's write moves with three loops and is neither; adi's time loop
/// asks for a tile-wide chain jam, refused because its sweeps' records run
/// backward inside a block. `pocc+vect` (`pocc` at (2, 2)) jams by 2 the outer loop of each
/// innermost pair and each innermost loop, wherever the records allow it
/// and the loop is not a copy of a distributed point loop: 50 of the 53
/// innermost loops its inner unroll rewrote before: all but adi's first
/// `c3` (S0 reads the `B` that S1, later in the body, wrote one `c3`
/// earlier) and the `c3` loops of fdtd-2d and jacobi-2d-imper whose
/// guards mention `c3`. 2mm, 3mm, mvt and fdtd-apml nest an innermost
/// jam inside an outer one.
#[test]
fn jam_census() {
    let rows: Vec<String> = jammed()
        .iter()
        .flat_map(|(k, v, _, marks)| marks.iter().map(move |(name, f)| format!("{} {} {name} {f}", k.name, v.name())))
        .collect();
    assert_eq!(
        rows,
        [
            "2mm pocc+vect c1 2",
            "2mm pocc+vect c2 2",
            "2mm pocc+vect c3 2",
            "2mm pocc+vect c3 2",
            // Register tile: the row loop and the vector loop of each product, by 2 each.
            "2mm poly+ast c1 2",
            "2mm poly+ast c3 2",
            "2mm poly+ast c1 2",
            "2mm poly+ast c3 2",
            "2mm poly+ast(doall) c1 2",
            "2mm poly+ast(doall) c3 2",
            "2mm poly+ast(doall) c1 2",
            "2mm poly+ast(doall) c3 2",
            "3mm pocc+vect c1 2",
            "3mm pocc+vect c2 2",
            "3mm pocc+vect c3 2",
            "3mm pocc+vect c3 2",
            "3mm pocc+vect c3 2",
            // Register tile: the row loop and the vector loop of each product, by 2 each.
            "3mm poly+ast c1 2",
            "3mm poly+ast c3 2",
            "3mm poly+ast c1 2",
            "3mm poly+ast c3 2",
            "3mm poly+ast c1 2",
            "3mm poly+ast c3 2",
            "3mm poly+ast(doall) c1 2",
            "3mm poly+ast(doall) c3 2",
            "3mm poly+ast(doall) c1 2",
            "3mm poly+ast(doall) c3 2",
            "3mm poly+ast(doall) c1 2",
            "3mm poly+ast(doall) c3 2",
            "adi pocc+vect c3 2",
            "adi pocc+vect c3 2",
            "adi pocc+vect c3 2",
            "atax pocc+vect c2 2",
            "atax pocc+vect c2 2",
            "atax poly+ast c1 4",
            "atax poly+ast(doall) c1 4",
            "bicg pocc+vect c2 2",
            "bicg pocc+vect c2 2",
            "bicg poly+ast c1 2",
            "bicg poly+ast(doall) c1 2",
            "cholesky pocc+vect c3 2",
            // Guard separation splits the fused nest's c2 at c1: the piece of
            // S3 and S4's k loop holds no guard, and its chain jams c2 by 4.
            "cholesky poly+ast c2 4",
            "cholesky poly+ast(doall) c2 4",
            "correlation pocc+vect c2 2",
            "correlation pocc+vect c1 2",
            "correlation pocc+vect c2 2",
            "correlation pocc+vect c2 2",
            "correlation pocc+vect c3 2",
            "correlation pocc+vect c2 2",
            // Tile-wide chain: the sum over `c1` runs around every tile sweep of the write.
            "correlation poly+ast c1 4",
            "covariance pocc+vect c2 2",
            "covariance pocc+vect c2 2",
            "covariance pocc+vect c3 2",
            "covariance pocc+vect c2 2",
            // Tile-wide chain: the sum over `c1` runs around every tile sweep of the write.
            "covariance poly+ast c1 4",
            "doitgen pocc+vect c4 2",
            "doitgen pocc+vect c3 2",
            "fdtd-2d pocc+vect c3 2",
            "fdtd-apml pocc+vect c2 2",
            "fdtd-apml pocc+vect c3 2",
            "gemm pocc+vect c3 2",
            // Register tile: the row loop and the vector loop of each product, by 2 each.
            "gemm poly+ast c1 2",
            "gemm poly+ast c3 2",
            "gemm poly+ast(doall) c1 2",
            "gemm poly+ast(doall) c3 2",
            "gemver pocc+vect c2 2",
            "gemver pocc+vect c2 2",
            "gesummv pocc+vect c2 2",
            "gesummv pocc+vect c2 2",
            "gesummv poly+ast c1 2",
            "gesummv poly+ast(doall) c1 2",
            "jacobi-1d-imper pocc+vect c2 2",
            "jacobi-1d-imper pocc+vect c2 2",
            "mvt pocc+vect c1 2",
            "mvt pocc+vect c2 2",
            "mvt poly+ast c1 2",
            "mvt poly+ast(doall) c1 2",
            "seidel-2d pocc+vect c3 2",
            "symm pocc+vect c3 2",
            "symm pocc+vect c3 2",
            "syr2k pocc+vect c3 2",
            "syr2k poly+ast c1 4",
            "syr2k poly+ast(doall) c1 4",
            "syrk pocc+vect c3 2",
            "syrk poly+ast c1 4",
            "syrk poly+ast(doall) c1 4",
            "trisolv pocc+vect c2 2",
            "lu pocc+vect c3 2",
            "trmm pocc+vect c3 2",
            "gramschmidt pocc+vect c2 2",
            "gramschmidt pocc+vect c3 2",
            "gramschmidt pocc+vect c3 2",
            "gramschmidt pocc+vect c2 2",
            "gramschmidt pocc+vect c2 2",
        ]
    );
}

/// Each jammed program's source, compiled at its `mini` sizes made odd
/// (so no jammed trip count is a multiple of its factor and every
/// remainder loop runs), prints the checksum bits of the same program
/// with its marks stripped. The printed checksum is widened to the
/// shortest form that round-trips, so equal text is equal bits.
#[test]
fn jammed_sources_print_the_checksum_bits_of_their_unjammed_program() {
    let dir = std::env::temp_dir().join("polymix-jam-tests");
    let run = |k: &Kernel, prog: &Program, params: &[i64], label: &str| {
        let src = emit_source(k, prog, params, 1, 1);
        let exact = src.replace(
            "println!(\"checksum: {:.6e}\", checksum);",
            "println!(\"checksum: {:e}\", checksum);",
        );
        assert_ne!(exact, src, "{label}: no checksum line to widen");
        let r = compile_and_run(&exact, &dir, &["-O".into()], label).unwrap_or_else(|e| panic!("{label}: {e}"));
        (src, r.checksum)
    };
    for (k, v, prog, _) in jammed() {
        let params: Vec<i64> = k.dataset("mini").params.iter().map(|p| p | 1).collect();
        let label = format!("{}_{}", k.name, v.name());
        let mut plain = prog.clone();
        plain.body.visit_loops_mut(&mut |l| l.jam = 1);
        let (jam_src, jammed) = run(k, prog, &params, &label);
        let (plain_src, unjammed) = run(k, &plain, &params, &format!("{label}_plain"));
        assert_ne!(jam_src, plain_src, "{label}: the marks change nothing");
        assert_eq!(jammed.to_bits(), unjammed.to_bits(), "{label}: {jammed:e} vs {unjammed:e}");
    }
}
