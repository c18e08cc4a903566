//! Table I: 2mm under the original code, the maximal-fusion polyhedral
//! baseline (the paper's "PoCC" column, Fig. 2 structure), and the
//! poly+AST flow (Fig. 3 structure) — plus the rendered loop structures
//! of Figs. 1–3.

use polymix_ast::pretty::render;
use polymix_bench::figures::{cell, print_grid, Grid};
use polymix_bench::report::Table;
use polymix_bench::variants::{build_variant, Variant};
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_pluto::{optimize_pluto, Fusion, PlutoOptions};
use polymix_polybench::kernel_by_name;

fn main() {
    let grid = Grid::parse(&[]);
    let machine = &grid.machine;
    let k = kernel_by_name("2mm").expect("2mm kernel");
    let scop = (k.build)();

    // --- loop structures (Figs. 1–3), untiled for readability ---
    println!("== Fig. 1 — original 2mm ==");
    match polymix_codegen::from_poly::original_program(&scop) {
        Ok(p) => println!("{}", render(&p)),
        Err(e) => eprintln!("original program: {e}"),
    }
    println!("== Fig. 2 — maximal polyhedral fusion (baseline) ==");
    match optimize_pluto(
        &scop,
        &PlutoOptions {
            fusion: Fusion::Max,
            tiling: false,
            ..Default::default()
        },
    ) {
        Ok(p) => println!("{}", render(&p)),
        Err(e) => eprintln!("maxfuse baseline: {e}"),
    }
    println!("== Fig. 3 — poly+AST flow ==");
    match optimize_poly_ast(
        &scop,
        &PolyAstOptions {
            machine: machine.clone(),
            tiling: false,
            unroll: (1, 1),
            ..Default::default()
        },
    ) {
        Ok(p) => println!("{}", render(&p)),
        Err(e) => eprintln!("poly+ast flow: {e}"),
    }

    // --- Table I: measured GFLOP/s ---
    println!(
        "== Table I — 2mm performance ({} dataset, {} threads) ==",
        grid.dataset, grid.runner.threads
    );
    let entries = [
        ("original", Variant::Native),
        ("pocc (maxfuse)", Variant::IterativeMax),
        ("pocc (smartfuse)", Variant::Pocc),
        ("our flow", Variant::PolyAst),
    ];
    // Per-variant failures become `error(<stage>)` rows via the sweep
    // executor; the table still renders with every other variant
    // measured.
    let mut jobs = Vec::new();
    for &(_, variant) in &entries {
        let (kb, mb) = (k.clone(), machine.clone());
        let id = format!("table1:{}:{}", variant.name(), grid.dataset);
        jobs.push(grid.job(id, &k, variant.name(), move || build_variant(&kb, variant, &mb)));
    }
    let outcomes = grid.run(jobs);
    let mut t = Table::new(&["variant", "GFLOP/s"]);
    for (i, (label, _)) in entries.iter().enumerate() {
        t.row(vec![label.to_string(), cell(outcomes.get(i))]);
    }
    print_grid(&t, &outcomes);
    println!("paper (Nehalem): original 2.4, PoCC 14, our flow 19 GF/s");
    println!("paper (Power7):  original 0.5, PoCC 29, our flow 62 GF/s");
}
