//! `tune`: one budgeted tuner search per cell. The only path that
//! crosses the cache-model prune, the vm screen and the rustc confirm;
//! the only workload where the search *policy* (fewer candidates built,
//! fewer binaries compiled) shows.

use super::{rustc_flags, Ctx, Layers, Recorder, Workload, RUN_TIMEOUT_S, RUSTC_TIMEOUT_S};
use crate::stats::geomean;
use crate::trace::{root, span};
use polymix_bench::autotune::{
    autotune_kernel, build_candidate, candidate_space, Candidate, TuneOutcome, LEVEL_COSTS,
};
use polymix_bench::runner::{ensure_compiled, Runner};
use polymix_bench::sweep::{parse_record, SweepConfig};
use polymix_cachesim::{batch_weighted_cost, CacheConfig};
use polymix_polybench::kernel_by_name;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One search per candidate space: gemm for the doall group's 60
/// candidates, jacobi-1d-imper for the pipeline group's 414 (about 2 s
/// each; jacobi-2d-imper, at 15 s, does not fit the measuring time).
const SEARCHES: [&str; 2] = ["gemm", "jacobi-1d-imper"];
const DATASET: &str = "small";
const BUDGET: usize = 12;

#[derive(Default)]
pub struct Tune {
    passes: u32,
    /// Sweep log and outcome of each search of the latest pass, for the
    /// counters.
    last: Vec<(PathBuf, TuneOutcome)>,
}

impl Tune {
    fn search(&mut self, ctx: &Ctx, kernel: &str) -> Result<TuneOutcome, String> {
        // Fresh directories every search: cold binary cache, no log to
        // resume from.
        self.passes += 1;
        let dir = ctx.scratch.join(format!("tune-{}", self.passes));
        let log = dir.join("search.jsonl");
        let runner = Runner {
            work_dir: dir.join("bin"),
            compile_timeout: Duration::from_secs(RUSTC_TIMEOUT_S),
            run_timeout: Duration::from_secs(RUN_TIMEOUT_S),
            ..Runner::new(1)
        };
        let cfg = SweepConfig {
            compile_timeout: runner.compile_timeout,
            run_timeout: runner.run_timeout,
            results_path: Some(log.clone()),
            ..SweepConfig::default()
        };
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let out = span("autotune.search", || {
            autotune_kernel(kernel, DATASET, BUDGET, &runner, &cfg, &ctx.machine)
        })
        .map_err(|e| e.to_string())?;
        let expected_space = kernel_by_name(kernel).map_or(0, |k| candidate_space(k.group).len());
        if out.total_candidates != expected_space
            || out.config.time_s <= 0.0
            || out.config.native_time_s <= 0.0
        {
            return Err(format!("{kernel}: implausible search outcome {out:?}"));
        }
        self.last.push((log, out.clone()));
        Ok(out)
    }
}

impl Workload for Tune {
    fn calibrated(&self) -> bool {
        false
    }

    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        // Warm rustc (its files in the page cache) with a trivial
        // program, so the first search does not pay for it.
        let dir = ctx.scratch.join("warmup");
        ensure_compiled(
            "fn main() {}\n",
            &dir,
            &rustc_flags(),
            "warmup",
            Duration::from_secs(RUSTC_TIMEOUT_S),
        )?;
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx, _index: usize, rec: &mut Recorder) {
        let searches = if ctx.quick {
            &SEARCHES[..1]
        } else {
            &SEARCHES[..]
        };
        self.last.clear();
        for (id, kernel) in searches.iter().enumerate() {
            let t0 = Instant::now();
            let out = root("cell", id as u32, || self.search(ctx, kernel));
            let secs = t0.elapsed().as_secs_f64();
            match out {
                Ok(_) => rec.ok(id as u32, secs),
                Err(e) => rec.fail(e),
            }
        }
    }

    fn probes(&mut self, ctx: &Ctx, layers: &mut Layers, _rec: &mut Recorder) {
        let mut sum = |name: &'static str, v: f64| *layers.entry(name).or_insert(0.0) += v;
        let mut speedups = Vec::new();
        for (log, out) in &self.last {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            let count = |backend: &str| {
                text.lines()
                    .filter_map(parse_record)
                    .filter(|r| r.str_field("backend") == Some(backend))
                    .count() as f64
            };
            sum("autotune.vm_cells", count("vm"));
            sum("autotune.rustc_cells", count("rustc"));
            sum("autotune.candidates", out.total_candidates as f64);
            sum("autotune.pruned", out.pruned as f64);
            speedups.push(out.config.speedup_vs_native);
        }
        layers.insert("autotune.best_vs_native", geomean(&speedups));
        // The search's first stage on its own: build one program per
        // distinct structure, then price them all with the cache model.
        let Some(kernel) = kernel_by_name(SEARCHES[0]) else {
            return;
        };
        let mut structures: Vec<Candidate> = Vec::new();
        for c in candidate_space(kernel.group) {
            let same = |s: &Candidate| {
                (s.opt, s.tile, s.time_tile, s.unroll) == (c.opt, c.tile, c.time_tile, c.unroll)
            };
            if !structures.iter().any(same) {
                structures.push(c);
            }
        }
        let progs: Vec<_> = span("autotune.build_candidates", || {
            structures
                .iter()
                .filter_map(|c| build_candidate(&kernel, c, &ctx.machine).ok())
                .collect()
        });
        let refs: Vec<_> = progs.iter().collect();
        let configs = [CacheConfig::l1_nehalem(), CacheConfig::l2_nehalem()];
        let mini = kernel.dataset("mini").params;
        span("cachesim.batch_cost", || {
            std::hint::black_box(batch_weighted_cost(&refs, &mini, &configs, &LEVEL_COSTS))
        });
    }
}
