//! Table I: 2mm under the original code, the maximal-fusion polyhedral
//! baseline (the paper's "PoCC" column, Fig. 2 structure), and the
//! poly+AST flow (Fig. 3 structure) — plus the rendered loop structures
//! of Figs. 1–3.

use polymix_ast::pretty::render;
use polymix_bench::autotune::{build_candidate, default_tuned_path, TunedConfig};
use polymix_bench::report::{gf, Cli, Table};
use polymix_bench::runner::Runner;
use polymix_bench::sweep::{print_degraded_legend, run_sweep, rustc_work, SweepConfig, SweepJob};
use polymix_bench::variants::{build_variant, Variant};
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_dl::Machine;
use polymix_pluto::{optimize_pluto, PlutoOptions, PlutoVariant};
use polymix_polybench::kernel_by_name;

fn main() {
    let cli = Cli::parse(&["--tuned", "--tuned-config"]);
    let machine = Machine::host();
    let runner = Runner::new(cli.threads);
    let k = kernel_by_name("2mm").expect("2mm kernel");
    let params = k.dataset(&cli.dataset).params;
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
            variant: PlutoVariant::MaxFuse,
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
        cli.dataset, cli.threads
    );
    let mut t = Table::new(&["variant", "GFLOP/s"]);
    let entries = [
        ("original", Variant::Native),
        ("pocc (maxfuse)", Variant::PlutoMaxFuse),
        ("pocc (smartfuse)", Variant::Pocc),
        ("our flow", Variant::PolyAst),
    ];
    // Per-variant failures become `error(<stage>)` rows via the sweep
    // executor; the table still renders with every other variant
    // measured.
    // `--tuned` appends a row measuring the committed autotuner config
    // (written by the `tune` binary; `results/tuned/2mm.json` by
    // default, overridable with `--tuned-config <path>`). Opt-in so the
    // default table keeps exactly the paper's four variants.
    let tuned: Option<TunedConfig> = if cli.has("--tuned") {
        let path = cli
            .value("--tuned-config")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| default_tuned_path("2mm"));
        let loaded = TunedConfig::load(&path);
        if loaded.is_none() {
            eprintln!(
                "--tuned: no parseable config at {} (run the `tune` binary first)",
                path.display()
            );
        }
        loaded
    } else {
        None
    };

    let cfg = SweepConfig::from_cli(&cli);
    let job = |id: String, variant: &str, work| SweepJob {
        id,
        kernel: k.name.to_string(),
        variant: variant.to_string(),
        dataset: cli.dataset.clone(),
        params: params.clone(),
        work,
    };
    let (threads, reps) = (runner.threads, runner.reps);
    let mut jobs: Vec<SweepJob> = Vec::new();
    for &(_, variant) in &entries {
        let (kb, mb) = (k.clone(), machine.clone());
        let build = move || build_variant(&kb, variant, &mb);
        let work = rustc_work(&k, &params, threads, reps, build, true);
        jobs.push(job(format!("table1:{}:{}", variant.name(), cli.dataset), variant.name(), work));
    }
    if let Some(tc) = &tuned {
        let (kb, mb, cand) = (k.clone(), machine.clone(), tc.candidate);
        let build = move || build_candidate(&kb, &cand, &mb);
        let work = rustc_work(&k, &params, threads, reps, build, true);
        // The candidate id keys the resume log, so a re-tuned config
        // re-measures instead of replaying.
        let id = format!("table1:tuned:{}:{}", cli.dataset, cand.id("2mm", &cli.dataset));
        jobs.push(job(id, "tuned", work));
    }
    let outcomes = run_sweep(jobs, &runner, &cfg);
    let cell = |variant: &str| -> String {
        match outcomes.iter().find(|o| o.variant == variant) {
            Some(o) => match &o.result {
                Ok(r) => format!("{}{}", gf(r.gflops), if o.degraded { "†" } else { "" }),
                Err(e) => {
                    eprintln!("{variant}: {e}");
                    e.cell()
                }
            },
            None => "-".into(),
        }
    };
    for (label, variant) in &entries {
        t.row(vec![(*label).into(), cell(variant.name())]);
    }
    if let Some(tc) = &tuned {
        t.row(vec![format!("tuned ({})", tc.candidate.opt.name()), cell("tuned")]);
    }
    println!("{}", t.render());
    print_degraded_legend(&outcomes);
    println!("paper (Nehalem): original 2.4, PoCC 14, our flow 19 GF/s");
    println!("paper (Power7):  original 0.5, PoCC 29, our flow 62 GF/s");
}
