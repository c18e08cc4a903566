//! Fig. 5: the poly+AST parallelization choices vs a doall-only strategy
//! on the paper's three example patterns — an elementwise copy (doall), a
//! column-sum reduction, and a vertical stencil (pipeline). The poly+AST
//! detector keeps the locality-friendly loop order and uses the
//! appropriate parallelism kind; the doall-only strategy must settle for
//! an inner (or permuted) doall loop.

use polymix_ast::pretty::render;
use polymix_bench::figures::{cell, print_grid, Grid};
use polymix_bench::report::Table;
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_ir::builder::{con, ix, par, ScopBuilder};
use polymix_ir::{BinOp, Expr, Scop};
use polymix_polybench::kernel::{Dataset, Group, InitSpec, Kernel};

fn copy_scop() -> Scop {
    let mut b = ScopBuilder::new("fig5-copy", &["N"], &[8]);
    let a = b.array("A", &["N", "N"]);
    let bb = b.array("B", &["N", "N"]);
    b.enter("i", con(0), par("N"));
    b.enter("j", con(0), par("N"));
    let body = Expr::mul(Expr::Const(1.5), b.rd(bb, &[ix("i"), ix("j")]));
    b.stmt("S", a, &[ix("i"), ix("j")], body);
    b.exit();
    b.exit();
    b.finish().expect("well-formed SCoP")
}

fn reduction_scop() -> Scop {
    let mut b = ScopBuilder::new("fig5-reduction", &["N"], &[8]);
    let s = b.array("S", &["N"]);
    let x = b.array("X", &["N", "N"]);
    b.enter("i", con(0), par("N"));
    b.enter("j", con(0), par("N"));
    let body = Expr::mul(Expr::Const(1.5), b.rd(x, &[ix("i"), ix("j")]));
    b.stmt_update("S", s, &[ix("j")], BinOp::Add, body);
    b.exit();
    b.exit();
    b.finish().expect("well-formed SCoP")
}

fn stencil_scop() -> Scop {
    let mut b = ScopBuilder::new("fig5-stencil", &["N"], &[8]);
    b.assume_params_at_least(3);
    let c = b.array("C", &["N", "N"]);
    b.enter("i", con(1), par("N"));
    b.enter("j", con(1), par("N") - con(1));
    let body = Expr::mul(
        Expr::Const(0.33),
        Expr::add(
            Expr::add(
                b.rd(c, &[ix("i") - con(1), ix("j")]),
                b.rd(c, &[ix("i"), ix("j")]),
            ),
            b.rd(c, &[ix("i"), ix("j") - con(1)]),
        ),
    );
    b.stmt("S", c, &[ix("i"), ix("j")], body);
    b.exit();
    b.exit();
    b.finish().expect("well-formed SCoP")
}

fn as_kernel(name: &'static str, build: fn() -> Scop, flops: fn(&[i64]) -> u64) -> Kernel {
    Kernel {
        name,
        description: "Fig. 5 pattern",
        group: Group::Doall,
        build,
        reference: |_, _| {},
        flops,
        datasets: || {
            vec![
                Dataset { name: "mini", params: vec![16] },
                Dataset { name: "small", params: vec![1024] },
                Dataset { name: "standard", params: vec![4096] },
                Dataset { name: "large", params: vec![8192] },
            ]
        },
        init: InitSpec::generic(),
    }
}

fn main() {
    let grid = Grid::parse(&[]);
    let kernels = [
        as_kernel("fig5-copy", copy_scop, |p| (p[0] * p[0]) as u64),
        as_kernel("fig5-reduction", reduction_scop, |p| (2 * p[0] * p[0]) as u64),
        as_kernel("fig5-stencil", stencil_scop, |p| {
            (3 * (p[0] - 1) * (p[0] - 2)) as u64
        }),
    ];
    println!("== Fig. 5 — poly+AST vs doall-only parallelization ==");
    // Build (and print) the chosen loop structures serially — the
    // renders are part of the figure — then measure everything on the
    // parallel sweep executor. A failed configuration yields an error
    // cell; the other column and the remaining patterns still run.
    let mut jobs = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new(); // "" = pending job
    for k in &kernels {
        let scop = (k.build)();
        let mut row = vec![k.name.to_string()];
        for (doall_only, suffix) in [(false, "ours"), (true, "doall")] {
            let prog = optimize_poly_ast(
                &scop,
                &PolyAstOptions {
                    machine: grid.machine.clone(),
                    tiling: false,
                    doall_only,
                    unroll: (1, 1),
                    ..Default::default()
                },
            );
            match prog {
                Ok(p) => {
                    println!("-- {} — {suffix} chooses:\n{}", k.name, render(&p));
                    let id = format!("fig5:{}:{suffix}:{}", k.name, grid.dataset);
                    jobs.push(grid.job(id, k, suffix, move || Ok(p.clone())));
                    row.push(String::new());
                }
                Err(e) => {
                    eprintln!("{}: {suffix} failed: {e}", k.name);
                    row.push(e.cell());
                }
            }
        }
        rows.push(row);
    }
    let outcomes = grid.run(jobs);
    let mut results = outcomes.iter();
    let mut t = Table::new(&["pattern", "poly+ast GF/s", "doall-only GF/s"]);
    for mut row in rows {
        for c in row.iter_mut().filter(|c| c.is_empty()) {
            *c = cell(results.next());
        }
        t.row(row);
    }
    print_grid(&t, &outcomes);
}
