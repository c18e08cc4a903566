//! Shared driver for the group figures (Figs. 7, 8, 9): run every kernel
//! of a group through every variant on the parallel sweep executor,
//! cross-validate checksums, report GFLOP/s.

use crate::report::{gf, Cli, Table};
use crate::runner::Runner;
use crate::sweep::{print_degraded_legend, run_sweep, rustc_work, SweepConfig, SweepJob};
use crate::variants::{build_variant, variant_list, Variant};
use polymix_dl::Machine;
use polymix_polybench::{all_kernels, Group};

/// Runs one figure: all kernels of `group` × all variants, compiled by
/// `rustc` and run.
pub fn run_group_figure(title: &str, group: Group) {
    let cli = Cli::parse(&[]);
    let machine = Machine::host();
    let runner = Runner::new(cli.threads);
    let cfg = SweepConfig::from_cli(&cli);
    let variants = variant_list();

    println!("== {title} ==");
    println!(
        "dataset: {}, threads: {}, jobs: {}, machine: {} (GFLOP/s, higher is better)",
        cli.dataset, cli.threads, cfg.jobs, machine.name
    );

    let kernels: Vec<_> = all_kernels()
        .into_iter()
        .filter(|k| k.group == group)
        .collect();
    let mut jobs: Vec<SweepJob> = Vec::new();
    for k in &kernels {
        let params = k.dataset(&cli.dataset).params;
        for &v in &variants {
            let (kb, mb) = (k.clone(), machine.clone());
            jobs.push(SweepJob {
                id: format!("{}:{}:{}", k.name, v.name(), cli.dataset),
                kernel: k.name.to_string(),
                variant: v.name().to_string(),
                dataset: cli.dataset.clone(),
                params: params.clone(),
                work: rustc_work(
                    k,
                    &params,
                    runner.threads,
                    runner.reps,
                    move || build_variant(&kb, v, &mb),
                    true,
                ),
            });
        }
    }
    let outcomes = run_sweep(jobs, &runner, &cfg);

    let mut header: Vec<&str> = vec!["kernel"];
    header.extend(variants.iter().map(|v| v.name()));
    header.push("iterative*");
    let mut table = Table::new(&header);
    for k in &kernels {
        let mut cells = vec![k.name.to_string()];
        let mut checks: Vec<(Variant, f64)> = Vec::new();
        let mut results: Vec<(Variant, f64, bool)> = Vec::new();
        for &v in &variants {
            match outcomes
                .iter()
                .find(|o| o.kernel == k.name && o.variant == v.name())
                .map(|o| (&o.result, o.degraded))
            {
                Some((Ok(r), degraded)) => {
                    cells.push(format!("{}{}", gf(r.gflops), if degraded { "†" } else { "" }));
                    checks.push((v, r.checksum));
                    results.push((v, r.gflops, degraded));
                }
                Some((Err(e), _)) => {
                    // A failed kernel/variant records an `error(<stage>)`
                    // cell and the figure renders on (see EXPERIMENTS.md).
                    eprintln!("{}: {v:?} failed: {e}", k.name);
                    cells.push(e.cell());
                }
                None => cells.push("-".into()),
            }
        }
        cells.push(match iterative_best(&results) {
            Some(best) => gf(best),
            None => "-".into(),
        });
        // Cross-variant checksum validation (parallel runs may reorder
        // reductions: tolerate relative FP noise).
        if let Some((_, base)) = checks.first() {
            for (v, c) in &checks[1..] {
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
    println!("{}", table.render());
    print_degraded_legend(&outcomes);
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
