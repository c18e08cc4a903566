//! Register-tiling ablation (Sec. IV-C: "up to 2× additional performance
//! improvement can be obtained by register tiling"): the poly+AST flow on
//! gemm, 2mm and syrk with no register tile (every `jam` mark of the
//! flow's program cleared), with the tile the flow selects itself
//! (`unroll: (1, 1)`), and with each requested unroll-and-jam factor,
//! all at the paper's tile sizes.

use polymix_bench::figures::{cell, print_grid, Grid};
use polymix_bench::report::Table;
use polymix_bench::variants::{build_with, paper_knobs, Variant};
use polymix_polybench::kernel_by_name;

fn main() {
    let grid = Grid::parse(&[]);
    println!("== Register-tiling ablation (unroll-and-jam factor sweep) ==");
    // (column, request): `none` is the unjammed baseline, the flow's
    // program with every `jam` mark cleared; 1x1 requests nothing, so the
    // flow's own selection stands.
    let columns = [
        ("none", None),
        ("1x1", Some((1, 1))),
        ("1x2", Some((1, 2))),
        ("2x2", Some((2, 2))),
        ("2x4", Some((2, 4))),
        ("4x4", Some((4, 4))),
    ];
    let kernels: Vec<_> = ["gemm", "2mm", "syrk"].into_iter().filter_map(kernel_by_name).collect();
    // Per-configuration failures become error cells; the sweep continues
    // with the remaining configurations.
    let mut jobs = Vec::new();
    for k in &kernels {
        let (tile, time_tile, _) = paper_knobs(k.group, Variant::PolyAst);
        for &(column, request) in &columns {
            let (kb, mb) = (k.clone(), grid.machine.clone());
            let build = move || {
                let (scop, unroll) = ((kb.build)(), request.unwrap_or((1, 1)));
                let mut p = build_with(&scop, Variant::PolyAst, tile, time_tile, unroll, &mb)?;
                if request.is_none() {
                    p.body.visit_loops_mut(&mut |l| l.jam = 1);
                }
                Ok(p)
            };
            let id = format!("unroll:{}:{column}:{}", k.name, grid.dataset);
            jobs.push(grid.job(id, k, column, build));
        }
    }
    let outcomes = grid.run(jobs);
    let mut header = vec!["kernel"];
    header.extend(columns.iter().map(|&(c, _)| if c == "1x1" { "1x1 (selection)" } else { c }));
    let mut t = Table::new(&header);
    let mut results = outcomes.iter();
    for k in &kernels {
        let mut cells = vec![k.name.to_string()];
        cells.extend(columns.iter().map(|_| cell(results.next())));
        t.row(cells);
    }
    print_grid(&t, &outcomes);
}
