//! Every option combination returns a program the certifier accepts: all
//! 25 kernels × `fusion` on/off × `tiling` on/off are optimized, certified
//! with `polymix_verify::certify` — called here, so release builds check
//! it too, not only the debug-only hook inside the optimizer — and run
//! against the reference at `mini` with small tiles.
//!
//! `fusion: false` on fdtd-2d used to come back `Ok` in release builds
//! carrying a pipeline mark the certifier rejects; no sweep listed that
//! cell, so nothing saw it.

use polymix::ast::interp::execute;
use polymix::core::{optimize_poly_ast, PolyAstOptions};
use polymix::verify::certify;
use polymix_polybench::{all_kernels, extended_kernels};

#[test]
fn every_fusion_and_tiling_setting_certifies_and_matches_the_reference() {
    for k in all_kernels().into_iter().chain(extended_kernels()) {
        let scop = (k.build)();
        let params = k.dataset("mini").params;
        let mut expected = k.fresh_arrays(&scop, &params);
        (k.reference)(&params, &mut expected);
        for (fusion, tiling) in [(true, true), (true, false), (false, true), (false, false)] {
            let opts = PolyAstOptions {
                fusion,
                tiling,
                tile: 4,
                time_tile: 2,
                ..Default::default()
            };
            let cell = format!("{} fusion={fusion} tiling={tiling}", k.name);
            let prog = optimize_poly_ast(&scop, &opts).unwrap_or_else(|e| panic!("{cell}: {e}"));
            if let Err(e) = certify(&prog) {
                panic!("{cell}: {e}");
            }
            let mut actual = k.fresh_arrays(&scop, &params);
            execute(&prog, &params, &mut actual);
            assert!(expected == actual, "{cell}: result differs from the reference");
        }
    }
}
