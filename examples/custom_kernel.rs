//! Bring your own kernel: define a static control part with the builder
//! DSL, inspect its dependences, and optimize it with both the Pluto-like
//! baseline and the poly+AST flow.
//!
//! The kernel is a blurred cross-correlation:
//!
//! ```text
//! for (i = 0; i < N; i++)
//!   for (j = 0; j < M; j++) {
//!     T[i][j] = 0.25 * (IN[i][j] + IN[i][j+1] + IN[i+1][j] + IN[i+1][j+1]);
//!   }
//! for (i = 0; i < N; i++)
//!   for (j = 0; j < M; j++)
//!     OUT[i][j] = T[i][j] * K[j];
//! ```
//!
//! The two nests share `T`, so the optimizers decide whether to fuse.

use polymix::ast::interp::{alloc_arrays, execute};
use polymix::ast::pretty::render;
use polymix::core::{optimize_poly_ast, PolyAstOptions};
use polymix::deps::build_podg;
use polymix::ir::builder::{con, ix, par, ScopBuilder};
use polymix::ir::{Expr, Scop};
use polymix::pluto::{optimize_pluto, Fusion, PlutoOptions};

fn build() -> Scop {
    let mut b = ScopBuilder::new("blur-scale", &["N", "M"], &[12, 12]);
    let input = b.array_dims("IN", vec![par("N") + con(1), par("M") + con(1)]);
    let t = b.array("T", &["N", "M"]);
    let k = b.array("K", &["M"]);
    let out = b.array("OUT", &["N", "M"]);

    b.enter("i", con(0), par("N"));
    b.enter("j", con(0), par("M"));
    let sum = Expr::add(
        Expr::add(
            b.rd(input, &[ix("i"), ix("j")]),
            b.rd(input, &[ix("i"), ix("j") + con(1)]),
        ),
        Expr::add(
            b.rd(input, &[ix("i") + con(1), ix("j")]),
            b.rd(input, &[ix("i") + con(1), ix("j") + con(1)]),
        ),
    );
    b.stmt("BLUR", t, &[ix("i"), ix("j")], Expr::mul(Expr::Const(0.25), sum));
    b.exit();
    b.exit();

    b.enter("i", con(0), par("N"));
    b.enter("j", con(0), par("M"));
    let prod = Expr::mul(b.rd(t, &[ix("i"), ix("j")]), b.rd(k, &[ix("j")]));
    b.stmt("SCALE", out, &[ix("i"), ix("j")], prod);
    b.exit();
    b.exit();
    b.finish().expect("well-formed SCoP")
}

fn main() {
    let scop = build();

    // Inspect the dependence graph the optimizers will reason about.
    let podg = build_podg(&scop);
    println!(
        "SCoP '{}': {} statements, {} dependence polyhedra",
        scop.name,
        scop.statements.len(),
        podg.deps.len()
    );
    for d in &podg.deps {
        println!(
            "  {:?} -> {:?} ({:?}{})",
            d.src,
            d.dst,
            d.kind,
            if d.is_reduction { ", reduction" } else { "" }
        );
    }

    // Baseline vs poly+AST.
    let baseline = optimize_pluto(
        &scop,
        &PlutoOptions {
            fusion: Fusion::Smart,
            tiling: false,
            ..Default::default()
        },
    )
    .expect("baseline optimizes");
    println!("\n== Pluto-like baseline ==\n{}", render(&baseline));
    let ours = optimize_poly_ast(
        &scop,
        &PolyAstOptions {
            tiling: false,
            unroll: (1, 1),
            ..Default::default()
        },
    )
    .expect("poly+AST optimizes");
    println!("== poly+AST ==\n{}", render(&ours));

    // Execute both and compare (the interpreter is the semantics oracle).
    let params = vec![12, 12];
    let run = |prog| {
        let mut arrays = alloc_arrays(&scop, &params);
        for (ai, arr) in arrays.iter_mut().enumerate() {
            for (k, x) in arr.iter_mut().enumerate() {
                *x = ((ai * 13 + k * 7) % 32) as f64 / 32.0;
            }
        }
        execute(prog, &params, &mut arrays);
        arrays
    };
    let a = run(&baseline);
    let b = run(&ours);
    assert_eq!(a, b, "both optimizers must preserve semantics");
    println!("verified: baseline and poly+AST agree bit-for-bit");
}
