//! Every option combination returns a program the certifier accepts: all
//! 25 kernels × `fusion` on/off × `tiling` on/off are optimized, certified
//! with `polymix_verify::certify` — called here, so release builds check
//! it too, not only the debug-only hook inside the optimizer — and run
//! against the reference with 16-wide tiles (time tile 8), the smallest at
//! which the DL model tiles the stencils, on `mini` doubled and no
//! parameter under 17, so that a tiled loop runs more than one tile.
//!
//! `fusion: false` on fdtd-2d used to come back `Ok` in release builds
//! carrying a pipeline mark the certifier rejects; no sweep listed that
//! cell, so nothing saw it.

use polymix::ast::interp::execute;
use polymix::ast::tree::TileForm;
use polymix::core::{optimize_poly_ast, PolyAstOptions};
use polymix::verify::certify;
use polymix_polybench::{all_kernels, extended_kernels};

/// Kernels that must have a strip-mined nest wherever tiling is on, so
/// that a decline cannot untile what this matrix runs.
const TILED: [&str; 7] = ["gemm", "2mm", "syrk", "doitgen", "adi", "jacobi-2d-imper", "fdtd-2d"];

#[test]
fn every_fusion_and_tiling_setting_certifies_and_matches_the_reference() {
    for k in all_kernels().into_iter().chain(extended_kernels()) {
        let scop = (k.build)();
        let params: Vec<i64> = k.dataset("mini").params.iter().map(|p| (2 * p).max(17)).collect();
        let mut expected = k.fresh_arrays(&scop, &params);
        (k.reference)(&params, &mut expected);
        for (fusion, tiling) in [(true, true), (true, false), (false, true), (false, false)] {
            let opts = PolyAstOptions {
                fusion,
                tiling,
                tile: 16,
                time_tile: 8,
                ..Default::default()
            };
            let cell = format!("{} fusion={fusion} tiling={tiling}", k.name);
            let prog = optimize_poly_ast(&scop, &opts).unwrap_or_else(|e| panic!("{cell}: {e}"));
            if let Err(e) = certify(&prog) {
                panic!("{cell}: {e}");
            }
            if tiling && TILED.contains(&k.name) {
                assert!(
                    prog.tiling
                        .iter()
                        .any(|r| matches!(r.form, TileForm::Joint | TileForm::Chains | TileForm::Sunk)),
                    "{cell}: nothing tiled in {:?}",
                    prog.tiling
                );
            }
            let mut actual = k.fresh_arrays(&scop, &params);
            execute(&prog, &params, &mut actual);
            assert!(expected == actual, "{cell}: result differs from the reference");
        }
    }
}
