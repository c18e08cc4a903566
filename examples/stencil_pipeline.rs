//! Pipeline parallelism on a heat-diffusion sweep: runs the same
//! dependent 2-D update with the point-to-point pipeline runtime and with
//! the wavefront-doall runtime (Fig. 6's comparison), verifying they
//! produce identical fields, then shows the poly+AST flow discovering the
//! pipeline automatically for seidel-2d.

use polymix::ast::pretty::render;
use polymix::ast::tree::Par;
use polymix::core::{optimize_poly_ast, PolyAstOptions};
use polymix::polybench::kernel_by_name;
use polymix::runtime::{pipeline_2d, wavefront_2d, GridSweep};
use std::sync::Mutex;

fn main() {
    // --- 1. The runtime primitives on a dependent sweep -----------------
    let n = 64usize;
    let grid = GridSweep {
        i_lo: 1,
        i_hi: n as i64,
        j_lo: 1,
        j_hi: n as i64,
    };
    let run = |use_pipeline: bool| -> Vec<f64> {
        let field: Vec<Mutex<f64>> = (0..n * n)
            .map(|k| Mutex::new(((k * 7) % 13) as f64))
            .collect();
        let body = |i: i64, j: i64| {
            let (i, j) = (i as usize, j as usize);
            let up = *field[(i - 1) * n + j].lock().unwrap();
            let left = *field[i * n + j - 1].lock().unwrap();
            let me = *field[i * n + j].lock().unwrap();
            *field[i * n + j].lock().unwrap() = 0.25 * (2.0 * me + up + left);
        };
        if use_pipeline {
            pipeline_2d(grid, 4, body).expect("pipeline sweep");
        } else {
            wavefront_2d(grid, 4, body).expect("wavefront sweep");
        }
        field.into_iter().map(|m| m.into_inner().unwrap()).collect()
    };
    let by_pipeline = run(true);
    let by_wavefront = run(false);
    assert_eq!(by_pipeline, by_wavefront);
    println!("pipeline and wavefront runtimes agree on a {n}x{n} dependent sweep");

    // --- 2. The optimizer discovering pipeline parallelism --------------
    let kernel = kernel_by_name("seidel-2d").unwrap();
    let scop = (kernel.build)();
    let prog = optimize_poly_ast(
        &scop,
        &PolyAstOptions {
            tile: 16,
            time_tile: 8,
            unroll: (1, 1),
            ..Default::default()
        },
    )
    .expect("seidel-2d optimizes");
    println!("\nseidel-2d under poly+AST (note the `pipefor` tile loop):\n");
    println!("{}", render(&prog));
    let mut found = false;
    let mut body = prog.body.clone();
    body.visit_loops_mut(&mut |l| {
        if l.par == Par::Pipeline {
            found = true;
        }
    });
    assert!(found, "expected a pipeline-parallel loop");
    println!("the time-tile loop is pipeline-parallel: threads own column\nblocks and synchronize point-to-point, no global barriers.");
}
