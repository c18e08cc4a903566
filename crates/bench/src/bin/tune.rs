//! `tune` — the closed-loop autotuner CLI.
//!
//! Searches fusion structure × tile sizes × unroll factors for each
//! requested kernel with a two-fidelity loop: rank the built candidates
//! by their structural score, screen the budgeted ones through the
//! in-process bytecode backend (no `rustc` on the screening path; the vm
//! runs every loop in schedule order, so the screen is a one-thread
//! measurement whatever `--threads` says), then confirm the
//! front-runners at full rustc fidelity with `--threads` workers, and
//! print the winner: the fastest confirm by GF/s, or `native` when no
//! confirm beats it. Nothing is written but the `--results` log.
//!
//! ```text
//! cargo run --release -p polymix-bench --bin tune -- \
//!     --kernels 2mm,gemm,jacobi-2d-imper --dataset small --budget 12
//! ```
//!
//! Flags beyond a [`Grid`]'s: `--kernels` (comma list of kernel names,
//! default `2mm`), `--budget` (measured candidate cells per kernel,
//! default 12). `--results <log>` makes an interrupted search
//! resumable: re-running with the same log re-measures nothing already
//! recorded.

use polymix_bench::autotune::autotune_kernel;
use polymix_bench::figures::Grid;
use polymix_bench::report::usage;
use polymix_polybench::kernel_by_name;

fn main() {
    let Grid { cli, dataset, machine, runner, sweep } = Grid::parse(&["--kernels", "--budget"]);
    let kernels: Vec<&str> = cli
        .value("--kernels")
        .unwrap_or("2mm")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if let Some(bad) = kernels.iter().find(|k| kernel_by_name(k).is_none()) {
        return usage(format!("--kernels: {bad} is not a kernel"));
    }
    let budget = cli.count("--budget", 12).unwrap_or_else(usage);
    println!(
        "== tune: {} kernel(s), dataset {dataset}, budget {budget} measured cells each ==",
        kernels.len()
    );

    let mut failures = 0usize;
    for kernel in &kernels {
        println!("-- {kernel} --");
        match autotune_kernel(kernel, &dataset, budget, &runner, &sweep, &machine) {
            Ok(outcome) => {
                let c = &outcome.config;
                println!(
                    "  space {} candidates, {} failed to build, \
                     {} measured fresh, {} resumed from the log",
                    outcome.total_candidates, outcome.pruned, outcome.measured, outcome.resumed
                );
                match &c.candidate {
                    Some(w) => println!(
                        "  winner: {} tile {} time_tile {} unroll {}x{}",
                        w.opt.name(),
                        w.tile,
                        w.time_tile,
                        w.unroll.0,
                        w.unroll.1,
                    ),
                    None => println!("  winner: native"),
                }
                println!(
                    "  {:.4} GFLOP/s ({:.3e}s), {:.2}x vs native",
                    c.gflops, c.time_s, c.speedup_vs_native
                );
            }
            Err(e) => {
                eprintln!("  {kernel}: tuning failed: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} kernel(s) failed to tune");
        std::process::exit(1);
    }
}
