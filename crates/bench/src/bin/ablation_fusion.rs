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

use polymix_bench::report::{gf, Cli, Table};
use polymix_bench::runner::Runner;
use polymix_bench::sweep::{print_degraded_legend, run_sweep, rustc_work, SweepConfig, SweepJob};
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_dl::Machine;
use polymix_polybench::kernel_by_name;

fn main() {
    let cli = Cli::parse(&[]);
    let machine = Machine::host();
    let runner = Runner::new(cli.threads);
    println!("== Fusion ablation (poly+AST with/without Algorithm 5 fusion) ==");
    let mut t = Table::new(&["kernel", "fused GF/s", "unfused GF/s"]);
    let names = [
        "2mm", "3mm", "gemm", "syrk", "gesummv", "atax", "correlation", "fdtd-2d",
    ];
    // Both the variant build and the measurement run on sweep workers;
    // per-configuration failures become error cells and the sweep
    // continues with the remaining configurations.
    let cfg = SweepConfig::from_cli(&cli);
    let mut jobs: Vec<SweepJob> = Vec::new();
    for name in names {
        let Some(k) = kernel_by_name(name) else {
            continue;
        };
        let params = k.dataset(&cli.dataset).params;
        for fusion in [true, false] {
            let (kb, mb) = (k.clone(), machine.clone());
            let build = move || {
                optimize_poly_ast(
                    &(kb.build)(),
                    &PolyAstOptions {
                        machine: mb.clone(),
                        fusion,
                        ..Default::default()
                    },
                )
            };
            jobs.push(SweepJob {
                id: format!("fuse:{name}:{fusion}:{}", cli.dataset),
                kernel: name.to_string(),
                variant: format!("fusion={fusion}"),
                dataset: cli.dataset.clone(),
                params: params.clone(),
                work: rustc_work(&k, &params, runner.threads, runner.reps, build, true),
            });
        }
    }
    let outcomes = run_sweep(jobs, &runner, &cfg);
    let mut results = outcomes.iter();
    for name in names {
        if kernel_by_name(name).is_none() {
            continue;
        }
        let mut cells = vec![name.to_string()];
        for _ in 0..2 {
            cells.push(match results.next().map(|o| (&o.result, o.degraded)) {
                Some((Ok(r), degraded)) => {
                    format!("{}{}", gf(r.gflops), if degraded { "†" } else { "" })
                }
                Some((Err(e), _)) => {
                    eprintln!("{name}: {e}");
                    e.cell()
                }
                None => "-".into(),
            });
        }
        t.row(cells);
    }
    println!("{}", t.render());
    print_degraded_legend(&outcomes);
}
