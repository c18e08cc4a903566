//! Property-based end-to-end testing: randomly generated two-statement
//! producer/consumer kernels (with random stencil offsets, loop extents
//! and coupling) must survive both optimizers bit-for-bit. This hunts for
//! legality bugs the fixed PolyBench suite might miss.

use polymix::ast::interp::{alloc_arrays, execute};
use polymix::ast::tree::TileForm;
use polymix::codegen::from_poly::original_program;
use polymix::core::{optimize_poly_ast, PolyAstOptions};
use polymix::ir::builder::{con, ix, par, ScopBuilder};
use polymix::ir::{BinOp, Expr, Scop};
use polymix::pluto::{optimize_pluto, Fusion, PlutoOptions};
use proptest::prelude::*;

/// Parameters of a random kernel.
#[derive(Clone, Debug)]
struct Spec {
    n: i64,
    /// Stencil offsets (di, dj) of the producer's reads, each in [-1, 1].
    offs: Vec<(i64, i64)>,
    /// Whether the producer accumulates (+=) or assigns.
    accumulate: bool,
    /// Whether the consumer reads the producer output transposed.
    transpose: bool,
    /// Whether the consumer updates in place (carried dependence).
    in_place: bool,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        6i64..24,
        prop::collection::vec((-1i64..=1, -1i64..=1), 1..4),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(n, offs, accumulate, transpose, in_place)| Spec {
            n,
            offs,
            accumulate,
            transpose,
            in_place,
        })
}

/// Builds: for i,j in [1, N-1): B[i][j] (=|+=) Σ A[i+di][j+dj]
///         for i,j in [1, N-1): C[i][j] (=|+=) B[(i|j)][(j|i)] * 0.5
fn build(spec: &Spec) -> Scop {
    let mut b = ScopBuilder::new("random", &["N"], &[spec.n]);
    b.assume_params_at_least(3);
    let a = b.array("A", &["N", "N"]);
    let bb = b.array("B", &["N", "N"]);
    let c = b.array("C", &["N", "N"]);
    b.enter("i", con(1), par("N") - con(1));
    b.enter("j", con(1), par("N") - con(1));
    let mut sum = b.rd(
        a,
        &[ix("i") + con(spec.offs[0].0), ix("j") + con(spec.offs[0].1)],
    );
    for &(di, dj) in &spec.offs[1..] {
        sum = Expr::add(sum, b.rd(a, &[ix("i") + con(di), ix("j") + con(dj)]));
    }
    if spec.accumulate {
        b.stmt_update("P", bb, &[ix("i"), ix("j")], BinOp::Add, sum);
    } else {
        b.stmt("P", bb, &[ix("i"), ix("j")], sum);
    }
    b.exit();
    b.exit();
    b.enter("i", con(1), par("N") - con(1));
    b.enter("j", con(1), par("N") - con(1));
    let src = if spec.transpose {
        b.rd(bb, &[ix("j"), ix("i")])
    } else {
        b.rd(bb, &[ix("i"), ix("j")])
    };
    let val = Expr::mul(src, Expr::Const(0.5));
    if spec.in_place {
        b.stmt_update("Q", c, &[ix("i"), ix("j")], BinOp::Add, val);
    } else {
        b.stmt("Q", c, &[ix("i"), ix("j")], val);
    }
    b.exit();
    b.exit();
    b.finish().expect("well-formed SCoP")
}

fn run(prog: &polymix::ast::tree::Program, n: i64) -> Vec<Vec<f64>> {
    let mut arrays = alloc_arrays(&prog.scop, &[n]);
    for (ai, arr) in arrays.iter_mut().enumerate() {
        for (k, x) in arr.iter_mut().enumerate() {
            *x = ((ai * 31 + k * 7) % 23) as f64 / 23.0;
        }
    }
    execute(prog, &[n], &mut arrays);
    arrays
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn poly_ast_preserves_random_kernels(spec in spec_strategy()) {
        let scop = build(&spec);
        let reference = run(&original_program(&scop).expect("original program"), spec.n);
        // 8 × 4 tiles: the DL model declines 3 × 2 ones on every kernel
        // here, and takes these wherever the consumer reads the producer's
        // output transposed.
        let opt = optimize_poly_ast(&scop, &PolyAstOptions {
            tile: 8,
            time_tile: 4,
            unroll: (2, 2),
            ..Default::default()
        });
        let opt = match opt {
            Ok(p) => p,
            Err(e) => return Err(format!("spec {spec:?}: {e}")),
        };
        prop_assert!(
            !spec.transpose || opt.tiling.iter().any(|r| r.form == TileForm::Joint),
            "spec {:?}: the transposed read is not tiled: {:?}", spec, opt.tiling
        );
        let got = run(&opt, spec.n);
        prop_assert_eq!(&reference, &got, "spec {:?}", spec);
    }

    #[test]
    fn pluto_preserves_random_kernels(spec in spec_strategy()) {
        let scop = build(&spec);
        let reference = run(&original_program(&scop).expect("original program"), spec.n);
        for fusion in [Fusion::Smart, Fusion::Max, Fusion::None] {
            let opt = optimize_pluto(&scop, &PlutoOptions {
                fusion,
                tile: 3,
                time_tile: 2,
                ..Default::default()
            });
            let opt = match opt {
                Ok(p) => p,
                Err(e) => return Err(format!("spec {spec:?} fusion {fusion:?}: {e}")),
            };
            let got = run(&opt, spec.n);
            prop_assert_eq!(&reference, &got, "spec {:?} fusion {:?}", spec, fusion);
        }
    }
}
