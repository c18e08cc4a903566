//! `tune` — the closed-loop autotuner CLI.
//!
//! Searches fusion structure × tile sizes × unroll factors for each
//! requested kernel with a two-fidelity loop: prune with
//! the cache model, screen the budgeted candidates through the
//! in-process bytecode backend (no `rustc` on the screening path), then
//! confirm the front-runners at full rustc fidelity and commit the
//! winner as `results/tuned/<kernel>.json` — unless the committed
//! config beats native and the new winner does not
//! ([`polymix_bench::autotune::TunedConfig::save_guarded`]).
//!
//! ```text
//! cargo run --release -p polymix-bench --bin tune -- \
//!     --kernels 2mm,gemm,jacobi-2d-imper --dataset small --budget 12
//! ```
//!
//! Flags beyond the shared sweep set ([`Cli`]): `--kernels` (comma
//! list, default `2mm`), `--budget` (measured candidate cells per
//! kernel, default 12), `--out` (config directory, default
//! `results/tuned`). `--results <log>` makes an interrupted search
//! resumable: re-running with the same log re-measures nothing already
//! recorded.

use polymix_bench::autotune::autotune_kernel;
use polymix_bench::report::Cli;
use polymix_bench::runner::Runner;
use polymix_bench::sweep::SweepConfig;
use polymix_dl::Machine;
use std::path::PathBuf;

fn main() {
    let cli = Cli::parse();
    let args: Vec<String> = std::env::args().collect();
    let grab = |key: &str| -> Option<String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let kernels: Vec<String> = grab("--kernels")
        .unwrap_or_else(|| "2mm".into())
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let budget: usize = grab("--budget").and_then(|s| s.parse().ok()).unwrap_or(12);
    let out_dir = PathBuf::from(grab("--out").unwrap_or_else(|| "results/tuned".into()));

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
                    if c.beats_native {
                        ""
                    } else {
                        " [does NOT beat native]"
                    }
                );
                let path = out_dir.join(format!("{kernel}.json"));
                match c.save_guarded(&path) {
                    Ok(true) => println!("  committed {}", path.display()),
                    Ok(false) => println!(
                        "  NOT committed: {} holds a config that beats native and this \
                         winner does not",
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("  {kernel}: failed to write {}: {e}", path.display());
                        failures += 1;
                    }
                }
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
