//! The GF/s grid every measuring table and figure shares — Table I,
//! Fig. 5, Figs. 7–9 and the fusion and register-tiling ablations each
//! measure rows × columns, every cell the GF/s of one rustc-compiled
//! program. [`Grid::job`] makes a cell's sweep job, [`Grid::run`]
//! measures the jobs and returns their outcomes in submission order, and
//! [`cell`] renders one outcome. A driver keeps only its rows, columns
//! and ids; Figs. 7–9 run through [`run_group_figure`] whole.

use crate::report::{gf, usage, Cli, Spec, Table};
use crate::runner::{RunResult, Runner};
use crate::sweep::{run_sweep, rustc_work, JobOutcome, SweepConfig, SweepJob, SWEEP_FLAGS};
use crate::variants::{build_variant, variant_list, Variant};
use polymix_ast::tree::Program;
use polymix_dl::Machine;
use polymix_ir::error::PolymixError;
use polymix_polybench::{all_kernels, Group, Kernel};

/// A measuring driver's context, read from its command line.
pub struct Grid {
    /// The command line, for the driver's own flags.
    pub cli: Cli,
    /// The dataset every cell runs at (`--dataset`, default `small`).
    pub dataset: String,
    /// The machine model every build is handed.
    pub machine: Machine,
    /// The runner measuring every cell, on `--threads` workers.
    pub runner: Runner,
    /// The policy the [`SWEEP_FLAGS`] set.
    pub sweep: SweepConfig,
}

impl Grid {
    /// Reads `--dataset`, `--threads`, the [`SWEEP_FLAGS`] and the
    /// driver's `own` value flags; exits 2 on a refusal.
    pub fn parse(own: &[&str]) -> Grid {
        let flags = [&["--dataset", "--threads"][..], &SWEEP_FLAGS, own].concat();
        let cli = Cli::parse(&Spec::values(&flags));
        let read = |cli: Cli| -> Result<Grid, String> {
            Ok(Grid {
                dataset: cli.dataset("small")?,
                machine: Machine::host(),
                runner: Runner::new(cli.threads()?),
                sweep: SweepConfig::from_cli(&cli)?,
                cli,
            })
        };
        read(cli).unwrap_or_else(usage)
    }

    /// The job measuring the program `build` returns for `kernel` at the
    /// command line's dataset, in column `column`, keyed by `id` in the
    /// results log. A kernel-level failure degrades to a sequential
    /// re-run, rendered `†`.
    pub fn job(
        &self,
        id: String,
        kernel: &Kernel,
        column: &str,
        build: impl Fn() -> Result<Program, PolymixError> + Send + Sync + 'static,
    ) -> SweepJob {
        let params = kernel.dataset(&self.dataset).params;
        let (threads, reps) = (self.runner.threads, self.runner.reps);
        SweepJob {
            id,
            kernel: kernel.name.to_string(),
            variant: column.to_string(),
            dataset: self.dataset.clone(),
            work: rustc_work(kernel, &params, threads, reps, build, true),
            params,
        }
    }

    /// Measures `jobs` on the sweep executor; the outcomes come back in
    /// submission order, which is how a driver matches them to cells.
    pub fn run(&self, jobs: Vec<SweepJob>) -> Vec<JobOutcome> {
        run_sweep(jobs, &self.runner, &self.sweep)
    }
}

/// Renders one outcome as a table cell: its GF/s, marked `†` when a
/// sequential re-run stands in for a failed parallel one;
/// `error(<stage>)` when it failed (the detail goes to stderr), and the
/// figure renders on; `-` when there is none.
pub fn cell(outcome: Option<&JobOutcome>) -> String {
    let Some(o) = outcome else {
        return "-".into();
    };
    match &o.result {
        Ok(r) => format!("{}{}", gf(r.gflops), if o.degraded { "†" } else { "" }),
        Err(e) => {
            eprintln!("{} {}: {e}", o.kernel, o.variant);
            e.cell()
        }
    }
}

/// Prints `table`, then the `†` legend when a cell of `outcomes` was
/// measured by the sequential re-run, so no marker goes unexplained.
pub fn print_grid(table: &Table, outcomes: &[JobOutcome]) {
    println!("{}", table.render());
    if outcomes.iter().any(|o| o.degraded) {
        println!(
            "† degraded(sequential): the parallel kernel failed and the cell \
             reports a single-thread re-run (see EXPERIMENTS.md)"
        );
    }
}

/// Runs one figure: all kernels of `group` × all variants, compiled by
/// `rustc` and run, with the `iterative*` column and a cross-variant
/// checksum check.
pub fn run_group_figure(title: &str, group: Group) {
    let grid = Grid::parse(&[]);
    let (ds, variants) = (&grid.dataset, variant_list());
    println!("== {title} ==");
    println!(
        "dataset: {ds}, threads: {}, jobs: {}, machine: {} (GFLOP/s, higher is better)",
        grid.runner.threads, grid.sweep.jobs, grid.machine.name
    );
    let kernels: Vec<_> = all_kernels()
        .into_iter()
        .filter(|k| k.group == group)
        .collect();
    let mut jobs = Vec::new();
    for k in &kernels {
        for &v in &variants {
            let (kb, mb) = (k.clone(), grid.machine.clone());
            let id = format!("{}:{}:{ds}", k.name, v.name());
            jobs.push(grid.job(id, k, v.name(), move || build_variant(&kb, v, &mb)));
        }
    }
    let outcomes = grid.run(jobs);

    let mut header: Vec<&str> = vec!["kernel"];
    header.extend(variants.iter().map(|v| v.name()));
    header.push("iterative*");
    let mut table = Table::new(&header);
    for (k, row) in kernels.iter().zip(outcomes.chunks(variants.len())) {
        let mut cells = vec![k.name.to_string()];
        cells.extend(row.iter().map(|o| cell(Some(o))));
        let measured: Vec<(Variant, &RunResult, bool)> = variants
            .iter()
            .zip(row)
            .filter_map(|(&v, o)| Some((v, o.result.as_ref().ok()?, o.degraded)))
            .collect();
        let results: Vec<_> = measured.iter().map(|&(v, r, d)| (v, r.gflops, d)).collect();
        cells.push(iterative_best(&results).map_or_else(|| "-".into(), gf));
        // Cross-variant checksum validation (parallel runs may reorder
        // reductions: tolerate relative FP noise).
        if let Some(((_, first, _), rest)) = measured.split_first() {
            let base = first.checksum;
            for (v, r, _) in rest {
                let c = r.checksum;
                let rel = (c - base).abs() / base.abs().max(1.0);
                assert!(
                    rel < 1e-6,
                    "{} {v:?}: checksum {c} deviates from native {base}",
                    k.name
                );
            }
        }
        table.row(cells);
    }
    print_grid(&table, &outcomes);
}

/// The `iterative*` column: best over the enumerated fusion structures
/// (pocc + iter(max) + iter(no)), as in the paper. Best means max
/// GFLOP/s, which is min wall time — the FLOP count is fixed per
/// kernel/dataset, so the two orders agree and the column can never
/// disagree with a time-ranked table. Only *healthy* cells compete: a
/// `degraded(sequential)` measurement is a different machine
/// configuration standing in for a failed parallel run, and an
/// `error(<stage>)` cell never reaches `results` at all. `None` when no
/// healthy iterative-family cell exists.
fn iterative_best(results: &[(Variant, f64, bool)]) -> Option<f64> {
    results
        .iter()
        .filter(|(v, _, degraded)| {
            !degraded
                && matches!(
                    v,
                    Variant::Pocc | Variant::IterativeMax | Variant::IterativeNo
                )
        })
        .map(|(_, g, _)| *g)
        .fold(None, |acc: Option<f64>, g| {
            Some(acc.map_or(g, |a: f64| a.max(g)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(result: Result<RunResult, PolymixError>, degraded: bool) -> JobOutcome {
        JobOutcome {
            id: "gemm:poly+ast:mini".into(),
            kernel: "gemm".into(),
            variant: "poly+ast".into(),
            dataset: "mini".into(),
            params: vec![12, 12, 12],
            result,
            resumed: false,
            degraded,
            backend: "rustc",
        }
    }

    /// A healthy cell is its GF/s, a sequential re-run is marked `†`, a
    /// failure names its stage, and no outcome is `-`.
    #[test]
    fn cell_renders_every_outcome() {
        let ok = || {
            Ok(RunResult {
                checksum: 1.5,
                time_s: 0.001,
                gflops: 12.345,
            })
        };
        assert_eq!(cell(Some(&outcome(ok(), false))), "12.35");
        assert_eq!(cell(Some(&outcome(ok(), true))), "12.35†");
        let failed = outcome(Err(PolymixError::codegen("gemm", "no")), false);
        assert_eq!(cell(Some(&failed)), "error(codegen)");
        assert_eq!(cell(None), "-");
    }

    /// Regression: the fastest enumerated structure is a degraded
    /// (sequential-fallback) measurement — it must not win the
    /// `iterative*` best-of; the best *healthy* structure must.
    #[test]
    fn degraded_cells_cannot_win_the_iterative_best_of() {
        let results = vec![
            (Variant::Native, 9.0, false),       // not in the family
            (Variant::Pocc, 2.0, false),         // healthy
            (Variant::IterativeMax, 8.0, true),  // fastest, but degraded
            (Variant::IterativeNo, 3.0, false),  // healthy best
        ];
        assert_eq!(iterative_best(&results), Some(3.0));
    }

    #[test]
    fn all_degraded_or_missing_yields_none() {
        assert_eq!(iterative_best(&[]), None);
        let all_degraded = vec![
            (Variant::Pocc, 2.0, true),
            (Variant::IterativeMax, 8.0, true),
        ];
        assert_eq!(iterative_best(&all_degraded), None);
        // Only out-of-family cells: still none.
        let off_family = vec![(Variant::Native, 9.0, false), (Variant::PolyAst, 7.0, false)];
        assert_eq!(iterative_best(&off_family), None);
    }

    #[test]
    fn healthy_family_max_wins() {
        let results = vec![
            (Variant::Pocc, 2.0, false),
            (Variant::IterativeMax, 8.0, false),
            (Variant::IterativeNo, 3.0, false),
            (Variant::PolyAst, 11.0, false), // out of family, ignored
        ];
        assert_eq!(iterative_best(&results), Some(8.0));
    }
}
