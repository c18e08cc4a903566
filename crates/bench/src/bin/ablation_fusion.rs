//! Fusion ablation: the poly+AST flow with Algorithm 5's DL-guided fusion
//! enabled vs disabled (per-SCC distribution only). Fusion's payoff is
//! producer–consumer locality (2mm's tmp, 3mm's intermediates) and one
//! parallel region per nest. It used to cost the fused statements a tile
//! dimension — the shared outer loop was in no band, and `unfused` read
//! 2× faster on 2mm — until the tiling stage learned to strip-mine shared
//! loops and sink their point loops into every child (`tile_nest`'s sunk
//! form, DESIGN §19); what the two columns compare now is the fusion
//! choice itself, which the DL profitability test (Sec. III-B2)
//! arbitrates. syrk and fdtd-2d are here for that history: syrk's 1.6×
//! came from the same tiling gap in both columns, and `fusion: false` on
//! fdtd-2d once returned a program the certifier rejects.

use polymix_bench::figures::{cell, print_grid, Grid};
use polymix_bench::report::Table;
use polymix_bench::variants::{build_variant, Variant};
use polymix_polybench::kernel_by_name;

fn main() {
    let grid = Grid::parse(&[]);
    println!("== Fusion ablation (poly+AST with/without Algorithm 5 fusion) ==");
    let names = [
        "2mm", "3mm", "gemm", "syrk", "gesummv", "atax", "correlation", "fdtd-2d",
    ];
    let kernels: Vec<_> = names.into_iter().filter_map(kernel_by_name).collect();
    // Both the variant build and the measurement run on sweep workers;
    // per-configuration failures become error cells and the sweep
    // continues with the remaining configurations. Both columns take the
    // paper's knobs, so `fused` is the program `build_variant` ships.
    let mut jobs = Vec::new();
    for k in &kernels {
        for (fusion, variant) in [(true, Variant::PolyAst), (false, Variant::PolyAstNoFuse)] {
            let (kb, mb) = (k.clone(), grid.machine.clone());
            let build = move || build_variant(&kb, variant, &mb);
            let id = format!("fuse:{}:{fusion}:{}", k.name, grid.dataset);
            jobs.push(grid.job(id, k, &format!("fusion={fusion}"), build));
        }
    }
    let outcomes = grid.run(jobs);
    let mut results = outcomes.iter();
    let mut t = Table::new(&["kernel", "fused GF/s", "unfused GF/s"]);
    for k in &kernels {
        t.row(vec![k.name.to_string(), cell(results.next()), cell(results.next())]);
    }
    print_grid(&t, &outcomes);
}
