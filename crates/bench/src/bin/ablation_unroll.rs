//! Register-tiling ablation (Sec. IV-C: "up to 2× additional performance
//! improvement can be obtained by register tiling"): sweeps the
//! unroll-and-jam factors of the poly+AST flow on gemm and 2mm.

use polymix_bench::report::{gf, Cli};
use polymix_bench::runner::Runner;
use polymix_bench::sweep::{print_degraded_legend, run_sweep, rustc_work, SweepConfig, SweepJob};
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_dl::Machine;
use polymix_polybench::kernel_by_name;

fn main() {
    let cli = Cli::parse(&[]);
    let machine = Machine::host();
    let runner = Runner::new(cli.threads);
    println!("== Register-tiling ablation (unroll-and-jam factor sweep) ==");
    let factors: [(i64, i64); 5] = [(1, 1), (1, 2), (2, 2), (2, 4), (4, 4)];
    let names = ["gemm", "2mm", "syrk"];
    let mut header: Vec<String> = vec!["kernel".into()];
    header.extend(factors.iter().map(|(o, i)| format!("{o}x{i}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = polymix_bench::report::Table::new(&header_refs);
    // Per-configuration failures become error cells; the sweep continues
    // with the remaining configurations.
    let cfg = SweepConfig::from_cli(&cli);
    let mut jobs: Vec<SweepJob> = Vec::new();
    for name in names {
        let Some(k) = kernel_by_name(name) else {
            continue;
        };
        let params = k.dataset(&cli.dataset).params;
        for &(o, i) in &factors {
            let (kb, mb) = (k.clone(), machine.clone());
            let build = move || {
                optimize_poly_ast(
                    &(kb.build)(),
                    &PolyAstOptions {
                        machine: mb.clone(),
                        unroll: (o, i),
                        ..Default::default()
                    },
                )
            };
            jobs.push(SweepJob {
                id: format!("unroll:{name}:{o}x{i}:{}", cli.dataset),
                kernel: name.to_string(),
                variant: format!("{o}x{i}"),
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
        for _ in 0..factors.len() {
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
