//! Power7 machine-model runs: this reproduction has no IBM Power7, so
//! the second evaluation platform is modeled (per DESIGN.md): every
//! variant is executed through the trace-driven cache simulator with
//! Power7-like geometry (128 B lines), and a weighted miss cost plus the
//! 32-core parallelism exposed by each variant produce a modeled
//! throughput score. Shapes (who wins, by how much) are the deliverable;
//! absolute numbers are not comparable to hardware GFLOP/s.

use polymix_ast::tree::{Par, Program};
use polymix_bench::report::{usage, Cli, Spec, Table};
use polymix_bench::variants::{build_variant, Variant};
use polymix_cachesim::{simulate_hierarchy, CacheConfig};
use polymix_dl::Machine;
use polymix_polybench::all_kernels;

/// The modeled parallel speedup on `cores` cores: that of the most
/// parallel loop anywhere in the tree, 1 when every loop is sequential.
fn parallel_speedup(prog: &Program, cores: f64) -> f64 {
    let mut best = 1.0f64;
    prog.body.visit_loops(&mut |l| {
        let speedup = match l.par {
            Par::Doall => cores,
            Par::Reduction(_) => cores * 0.8,
            Par::Pipeline => cores * 0.7,
            Par::Wavefront => cores * 0.4,
            Par::Seq => 1.0,
        };
        best = best.max(speedup);
    });
    best
}

fn main() {
    let cli = Cli::parse(&Spec::values(&["--dataset"]));
    let dataset = cli.dataset("mini").unwrap_or_else(usage);
    let machine = Machine::power7();
    let configs = [
        CacheConfig::l1_power7(),
        CacheConfig {
            line_bytes: 128,
            capacity_bytes: 256 * 1024,
            ways: 8,
        },
    ];
    let costs = [1.0, 8.0]; // L1 miss → L2 hit; L2 miss → memory
    println!("== Power7 machine-model (cache simulation, 32-core scaling model) ==");
    println!("modeled score = FLOPs / (work + weighted miss cost) x parallel speedup (arbitrary units)");
    let variants = [Variant::Native, Variant::Pocc, Variant::PolyAst];
    let mut header: Vec<&str> = vec!["kernel"];
    header.extend(variants.iter().map(|v| v.name()));
    let mut t = Table::new(&header);
    for k in all_kernels() {
        let params = k.dataset(&dataset).params;
        let scop = (k.build)();
        let flops = (k.flops)(&params) as f64;
        let mut cells = vec![k.name.to_string()];
        for &v in &variants {
            // Failed variants get an error cell; the sweep continues.
            let prog = match build_variant(&k, v, &machine) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{}: {v:?} failed: {e}", k.name);
                    cells.push(e.cell());
                    continue;
                }
            };
            let mut arrays = k.fresh_arrays(&scop, &params);
            let h = simulate_hierarchy(&prog, &params, &mut arrays, &configs);
            let misses = h.weighted_cost(&costs);
            let speedup = parallel_speedup(&prog, machine.cores as f64);
            let score = flops / (flops + 4.0 * misses) * speedup;
            cells.push(format!("{score:.1}"));
        }
        t.row(cells);
    }
    println!("{}", t.render());
}
