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
//! Flags beyond the shared sweep set ([`Cli`]): `--kernels` (comma
//! list, default `2mm`), `--budget` (measured candidate cells per
//! kernel, default 12). `--results <log>` makes an interrupted search
//! resumable: re-running with the same log re-measures nothing already
//! recorded.

use polymix_bench::autotune::autotune_kernel;
use polymix_bench::report::Cli;
use polymix_bench::runner::Runner;
use polymix_bench::sweep::SweepConfig;
use polymix_dl::Machine;

fn main() {
    let cli = Cli::parse(&["--kernels", "--budget"]);
    let kernels: Vec<String> = cli
        .value("--kernels")
        .unwrap_or("2mm")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let budget: usize = cli
        .value("--budget")
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);

    let machine = Machine::host();
    let runner = Runner::new(cli.threads);
    let cfg = SweepConfig::from_cli(&cli);
    println!(
        "== tune: {} kernel(s), dataset {}, budget {} measured cells each ==",
        kernels.len(),
        cli.dataset,
        budget
    );

    let mut failures = 0usize;
    for kernel in &kernels {
        println!("-- {kernel} --");
        match autotune_kernel(kernel, &cli.dataset, budget, &runner, &cfg, &machine) {
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
