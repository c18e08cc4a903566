//! Zero-false-positive property: every program the compiler actually
//! produces — from any rung of the scheduling fallback chain, any
//! poly+AST option mix, and any Pluto baseline variant — must certify.
//! These are all semantics-preserving by the interpreter oracle tests,
//! so a violation here is a certifier bug, not a compiler bug.

use polymix_ast::tree::TileForm;
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_pluto::{optimize_pluto, schedule_with_fallback, Fusion, PlutoOptions};
use polymix_polybench::{all_kernels, extended_kernels};

fn every_kernel() -> Vec<polymix_polybench::Kernel> {
    all_kernels().into_iter().chain(extended_kernels()).collect()
}
use polymix_verify::verify_program;

fn assert_certified(kernel: &str, label: &str, prog: &polymix_ast::tree::Program) {
    let cert = verify_program(prog);
    assert!(
        cert.is_certified(),
        "{kernel} [{label}]: false positive(s):\n{}",
        cert.errors()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(cert.deps_checked > 0 || cert.pairs_checked == 0);
}

/// The smallest tiles at which the DL model takes the tiles it takes at
/// the harness's sizes: a 4 × 4 tile buys too little to be cut.
fn opts_small() -> PolyAstOptions {
    PolyAstOptions {
        tile: 16,
        time_tile: 8,
        ..Default::default()
    }
}

/// A form each of these kernels' "default" programs must report, so that
/// a decline cannot untile what this suite certifies.
const TILED: [(&str, TileForm); 9] = [
    ("gemm", TileForm::Sunk),
    ("2mm", TileForm::Sunk),
    ("syrk", TileForm::Sunk),
    ("doitgen", TileForm::Sunk),
    ("symm", TileForm::Joint),
    ("adi", TileForm::Chains),
    ("jacobi-2d-imper", TileForm::Joint),
    ("seidel-2d", TileForm::Joint),
    ("fdtd-2d", TileForm::Joint),
];

/// Satellite: the whole `maxfuse -> smartfuse -> nofuse -> identity`
/// fallback chain yields certified schedules on all 22 kernels.
#[test]
fn fallback_chain_certifies_on_all_kernels() {
    for k in every_kernel() {
        let scop = (k.build)();
        for fusion in [Fusion::Max, Fusion::Smart, Fusion::None] {
            let fb = schedule_with_fallback(&scop, fusion);
            let prog = polymix_codegen::generate(&scop, &fb.schedules).expect("generate");
            assert_certified(k.name, &format!("{fusion:?}"), &prog);
        }
        // Identity rung: original textual-order schedules.
        let identity: Vec<_> = scop.statements.iter().map(|s| s.schedule.clone()).collect();
        let prog = polymix_codegen::generate(&scop, &identity).expect("generate");
        assert_certified(k.name, "identity", &prog);
    }
}

/// Every poly+AST pipeline output (all option mixes the flow tests run)
/// certifies — including tiled, pipeline-annotated and unroll-and-jammed
/// programs.
#[test]
fn poly_ast_outputs_certify_on_all_kernels() {
    let variants: Vec<(&str, PolyAstOptions)> = vec![
        ("default", opts_small()),
        (
            "untiled",
            PolyAstOptions {
                tiling: false,
                ..opts_small()
            },
        ),
        (
            "doall-only",
            PolyAstOptions {
                doall_only: true,
                ..opts_small()
            },
        ),
        (
            "unroll-2x2",
            PolyAstOptions {
                unroll: (2, 2),
                ..opts_small()
            },
        ),
    ];
    for k in every_kernel() {
        let scop = (k.build)();
        for (label, opts) in &variants {
            let prog = optimize_poly_ast(&scop, opts).expect("optimize");
            assert_certified(k.name, label, &prog);
            if *label == "default" {
                for (_, form) in TILED.iter().filter(|(n, _)| *n == k.name) {
                    assert!(
                        prog.tiling.iter().any(|r| r.form == *form),
                        "{}: no {form:?} nest in {:?}",
                        k.name,
                        prog.tiling
                    );
                }
            }
        }
    }
}

/// Every Pluto baseline output certifies, including wavefronted tile
/// nests and the vectorization variant's register tiling (`pocc` at
/// `unroll: (2, 2)`, nested jams included).
#[test]
fn pluto_outputs_certify_on_all_kernels() {
    for k in every_kernel() {
        let scop = (k.build)();
        for (fusion, unroll) in [
            (Fusion::Smart, (1, 1)),
            (Fusion::Smart, (2, 2)),
            (Fusion::Max, (1, 1)),
            (Fusion::None, (1, 1)),
        ] {
            let opts = PlutoOptions {
                fusion,
                tile: 4,
                time_tile: 2,
                unroll,
                ..Default::default()
            };
            let prog = optimize_pluto(&scop, &opts).expect("optimize");
            assert_certified(k.name, &format!("{fusion:?} {unroll:?}"), &prog);
        }
    }
}
