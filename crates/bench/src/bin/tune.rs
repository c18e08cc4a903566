//! `tune` — the closed-loop autotuner CLI.
//!
//! Searches fusion structure × tile sizes × unroll factors for each
//! requested kernel with a two-fidelity loop: prune with
//! the cache model, screen the budgeted candidates through the
//! in-process bytecode backend (no `rustc` on the screening path; the vm
//! runs every loop in schedule order, so the screen is a one-thread
//! measurement whatever `--threads` says), then confirm the
//! front-runners at full rustc fidelity with `--threads` workers, and
//! print the winner. Nothing is written but the `--results` log.
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
                    "  space {} candidates, {} pruned by the cache model, \
                     {} measured fresh, {} resumed from the log",
                    outcome.total_candidates, outcome.pruned, outcome.measured, outcome.resumed
                );
                println!(
                    "  winner: {} tile {} time_tile {} unroll {}x{}",
                    c.candidate.opt.name(),
                    c.candidate.tile,
                    c.candidate.time_tile,
                    c.candidate.unroll.0,
                    c.candidate.unroll.1,
                );
                println!(
                    "  {:.4} GFLOP/s ({:.3e}s), {:.2}x vs native{}",
                    c.gflops,
                    c.time_s,
                    c.speedup_vs_native,
                    if c.speedup_vs_native < 1.0 {
                        " [does NOT beat native]"
                    } else {
                        ""
                    }
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
