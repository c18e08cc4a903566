//! The polymix benchmark: one command runs one named workload, checks
//! its outputs and prints every metric by name and unit. See README.md
//! for why each workload and metric is there.
//!
//! ```text
//! polymix-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod expected;
mod manifest;
mod speed;
mod stats;
mod trace;
mod workloads;

use manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use speed::{Calibrator, Speed};
use stats::{geomean, median, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Ctx, Layers, Recorder};

/// Where traces and row files go; inside the checkout, ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's private directory for binaries, cache directories and logs.
/// Removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: bool,
    quick: bool,
    inject_fault: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    WriteExpected,
    CheckDeterminism,
    Manifest,
}

const USAGE: &str =
    "usage: polymix-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
       [--json] [--quick] [--inject-fault] | --write-expected | --check-determinism | --manifest
  --workload   compile | kernels-blas | kernels-stencil | screen | tune | serve-warm | serve-cold
               (all of them in turn when omitted)
  --seed       seeds the order of the cells and the keys drawn (default 1)
  --seconds    measuring time of a run (default: run_seconds of BENCHMARK.json)
  --trace 1    record spans around every layer call, write them to out/trace-<workload>.jsonl
               and print the per-layer metrics in place of the end-to-end ones
  --json       print only the result line
  --quick      smoke mode: three kernels, one-second loops; exits 1 on any failure
  --inject-fault        expect one wrong checksum or response, to show it is counted
  --write-expected      regenerate expected/checksums.json from the hand-written references
  --check-determinism   compile twice and compare the counts that must repeat exactly
  --manifest            print BENCHMARK.json";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        json: false,
        quick: false,
        inject_fault: false,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("--trace")? != "0",
            "--json" => args.json = true,
            "--quick" => args.quick = true,
            "--inject-fault" => args.inject_fault = true,
            "--write-expected" => args.mode = Mode::WriteExpected,
            "--check-determinism" => args.mode = Mode::CheckDeterminism,
            "--manifest" => args.mode = Mode::Manifest,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.quick {
        args.seconds = args.seconds.min(1.0);
    }
    Ok(args)
}

/// What one run of one workload measured.
struct RunResult {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
    /// name → value, for the metric list the run was asked for.
    metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the medians, for the report.
    notes: String,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Set-up is repeated on a fresh instance after each pass, at most this
/// often and while the repetitions so far total less than the budget, so
/// that `setup_s` samples the host at several moments of the run.
const SETUP_MAX_REPS: usize = 8;
const SETUP_REPEAT_BUDGET_S: f64 = 3.0;
/// Calibration units run right before and right after a set-up.
const SETUP_UNITS: usize = 4;

/// One timed set-up of `w`: (moment it began, seconds).
fn timed_setup(
    w: &mut dyn workloads::Workload,
    ctx: &Ctx,
    units: &mut Option<Calibrator>,
) -> Result<(f64, f64), String> {
    if let Some(c) = units {
        c.burst(SETUP_UNITS);
    }
    let (t0, began_s) = (Instant::now(), trace::now_s());
    let done = w.setup(ctx);
    let secs = t0.elapsed().as_secs_f64();
    if let Some(c) = units {
        c.burst(SETUP_UNITS);
    }
    match done {
        Ok(()) => Ok((began_s, secs)),
        Err(e) => {
            w.teardown();
            Err(format!("{}: set-up failed: {e}", ctx.workload))
        }
    }
}

fn run_workload(name: &str, args: &Args, scratch: &Path) -> Result<RunResult, String> {
    let expected = Arc::new(expected::Expected::load(args.inject_fault)?);
    let ctx_in = |sub: &str| Ctx {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        inject_fault: args.inject_fault,
        scratch: scratch.join(name).join(sub),
        machine: polymix_dl::Machine::host(),
        expected: Arc::clone(&expected),
    };
    let ctx = ctx_in("run");
    let mut w = workloads::create(name).ok_or(format!("unknown workload {name}"))?;
    let mut rec = Recorder {
        calibrator: w.calibrated().then(Calibrator::default),
        ..Recorder::default()
    };

    trace::set_enabled(ctx.trace);
    let mut setups = vec![timed_setup(&mut *w, &ctx, &mut rec.calibrator)?];
    let setup_spans = trace::take();

    // Passes until the measuring time is used up. A traced run
    // alternates untraced and traced passes; their difference is the
    // tracing overhead.
    let (mut plain, mut traced): (Vec<(f64, f64)>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut measuring_s = 0.0;
    for index in 0.. {
        let tracing = ctx.trace && index % 2 == 1;
        trace::set_enabled(tracing);
        let (t0, began_s) = (Instant::now(), trace::now_s());
        rec.pass = index;
        w.pass(&ctx, index, &mut rec);
        let secs = t0.elapsed().as_secs_f64();
        if tracing {
            traced.push(secs);
        } else {
            plain.push((began_s, secs));
        }
        measuring_s += secs;
        let enough = index + 1 >= if ctx.trace { 2 } else { 1 };
        if enough && measuring_s + secs / 2.0 > ctx.seconds {
            break;
        }
        let spent: f64 = setups.iter().map(|s| s.1).sum();
        if !ctx.trace
            && !ctx.quick
            && setups.len() < SETUP_MAX_REPS
            && spent < SETUP_REPEAT_BUDGET_S
        {
            let mut again = workloads::create(name).ok_or(format!("unknown workload {name}"))?;
            setups.push(timed_setup(
                &mut *again,
                &ctx_in(&format!("setup-{}", setups.len())),
                &mut rec.calibrator,
            )?);
            again.teardown();
        }
    }
    let pass_spans = trace::take();

    trace::set_enabled(ctx.trace);
    w.check(&ctx, &mut rec);
    let mut layers = Layers::new();
    if ctx.trace {
        w.probes(&ctx, &mut layers, &mut rec);
    }
    trace::set_enabled(false);
    let probe_spans = trace::take();
    w.teardown();

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let notes;
    if ctx.trace {
        let mut add_spans = |spans: &[trace::Span], runs: usize| {
            for (span_name, t) in trace::totals(spans) {
                let metric = format!("{span_name}_s");
                if let Some((declared, ..)) = PER_LAYER.iter().find(|(n, ..)| *n == metric) {
                    *layers.entry(declared).or_insert(0.0) += t.total_s / runs.max(1) as f64;
                }
            }
        };
        add_spans(&setup_spans, 1);
        add_spans(&pass_spans, traced.len());
        add_spans(&probe_spans, 1);
        let get = |layers: &Layers, k: &str| layers.get(k).copied().unwrap_or(0.0);
        let inner = get(&layers, "deps.build_podg_s")
            + get(&layers, "core.affine_stage_s")
            + get(&layers, "codegen.generate_s");
        if inner > 0.0 {
            layers.insert(
                "core.ast_stages_s",
                (get(&layers, "core.optimize_poly_ast_s") - inner).max(0.0),
            );
        }
        let cells = trace::totals(&pass_spans)
            .get("cell")
            .copied()
            .unwrap_or_default();
        if cells.total_s > 0.0 {
            layers.insert("trace.attributed_share", 1.0 - cells.self_s / cells.total_s);
        }
        let untraced: Vec<f64> = plain.iter().map(|p| p.1).collect();
        layers.insert(
            "trace.overhead_pct",
            (median(&traced) / median(&untraced) - 1.0) * 100.0,
        );
        layers.insert(
            "trace.spans",
            (setup_spans.len() + pass_spans.len() + probe_spans.len()) as f64,
        );
        layers.insert("process.peak_rss_mb", peak_rss_mb());
        layers.insert(
            "failed_share",
            rec.failed as f64 / rec.attempted.max(1) as f64,
        );
        layers.insert("passes.traced", traced.len() as f64);
        layers.insert("passes.untraced", plain.len() as f64);
        for (metric, ..) in PER_LAYER {
            let v = get(&layers, metric);
            metrics.insert(metric, if v.is_finite() { v } else { 0.0 });
        }
        // Parent indices are relative to each phase's list.
        let mut all: Vec<trace::Span> = Vec::new();
        for phase in [setup_spans, pass_spans, probe_spans] {
            let base = all.len() as u32;
            all.extend(phase.into_iter().map(|s| trace::Span {
                parent: s.parent.map(|p| p + base),
                ..s
            }));
        }
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        trace::write_jsonl(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
        notes = format!(
            "{} traced and {} untraced passes, {} spans in {}",
            traced.len(),
            plain.len(),
            all.len(),
            path.display()
        );
    } else {
        // Calibrated workloads: every time is taken to reference speed
        // by the calibration units around it, then medians. The others
        // (their cells run in child processes, which no unit of this
        // process can speak for) keep the best observation: the noise is
        // one-sided, a cell never runs faster than the quiet host allows.
        let speed = Speed::new(rec.calibrator.take().map(|c| c.samples).unwrap_or_default());
        let at_reference = |began_s: f64, secs: f64| {
            secs * if w.calibrated() {
                speed.factor(began_s, began_s + secs)
            } else {
                1.0
            }
        };
        let pick = |xs: &[f64]| {
            if w.calibrated() {
                median(xs)
            } else {
                xs.iter().copied().fold(f64::INFINITY, f64::min)
            }
        };
        let mut groups: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for c in &rec.cells {
            let group = if w.cells_repeat() {
                c.id
            } else {
                c.pass as u32
            };
            groups
                .entry(group)
                .or_default()
                .push(at_reference(c.end_s - c.secs, c.secs) * 1e3);
        }
        let groups: Vec<Vec<f64>> = groups.into_values().collect();
        let (work_s, geo, p50, p90);
        if w.cells_repeat() {
            // The cells recur in every pass: each counts once.
            let cell_ms: Vec<f64> = groups.iter().map(|g| pick(g)).collect();
            work_s = cell_ms.iter().sum::<f64>() / 1e3;
            (geo, p50, p90) = (geomean(&cell_ms), median(&cell_ms), quantile(&cell_ms, 0.9));
        } else {
            // No request recurs: statistics per pass, then over the passes.
            work_s = pick(
                &plain
                    .iter()
                    .map(|(began_s, secs)| at_reference(*began_s, *secs))
                    .collect::<Vec<_>>(),
            );
            let over_passes =
                |f: &dyn Fn(&[f64]) -> f64| pick(&groups.iter().map(|g| f(g)).collect::<Vec<_>>());
            (geo, p50, p90) = (
                over_passes(&geomean),
                over_passes(&median),
                over_passes(&|g| quantile(g, 0.9)),
            );
        }
        let setup_s: Vec<f64> = setups
            .iter()
            .map(|(began_s, secs)| at_reference(*began_s, *secs))
            .collect();
        metrics.insert("setup_s", pick(&setup_s));
        metrics.insert("work_s", work_s);
        metrics.insert("cell_geomean_ms", geo);
        metrics.insert("cell_p50_ms", p50);
        metrics.insert("cell_p90_ms", p90);
        let walls: Vec<f64> = plain.iter().map(|p| p.1).collect();
        notes =
            format!(
            "{} over {} set-ups, {} passes, {} cell samples; wall time of the passes {walls:.3?}",
            if w.calibrated() { "medians at reference speed" } else { "best" },
            setups.len(),
            plain.len(),
            rec.cells.len(),
        );
    }
    Ok(RunResult {
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        messages: rec.messages,
        metrics,
        notes,
    })
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

fn print_result(name: &str, r: &RunResult, json_only: bool) {
    if !json_only {
        println!("workload {name}: {}", r.notes);
        // Layers off this workload's path read 0; the table leaves them out.
        for (metric, value) in r.metrics.iter().filter(|(_, v)| **v != 0.0) {
            println!("  {metric:<36} {value:>16.6} {}", unit_of(metric));
        }
        let share = r.failed as f64 / r.attempted as f64;
        println!(
            "  {:<36} {share:>16.6} share ({} of {})",
            "failed_share", r.failed, r.attempted
        );
        for m in &r.messages {
            println!("  failure: {m}");
        }
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(m, v)| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(m)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

/// Regenerates the expected checksums of every kernel and vm cell from
/// the hand-written references.
fn write_expected() -> Result<(), String> {
    use workloads::{kernels::reps_for, screen};
    let mut entries = BTreeMap::new();
    for name in workloads::BLAS.iter().chain(&workloads::STENCIL) {
        let kernel =
            polymix_polybench::kernel_by_name(name).ok_or(format!("unknown kernel {name}"))?;
        let params = kernel.dataset("standard").params;
        let reps = reps_for(&kernel, &params);
        entries.insert(
            expected::key(name, &params, reps),
            expected::reference_checksum(&kernel, &params, reps),
        );
        eprintln!("{name} standard x{reps}");
    }
    for kernel in polymix_polybench::all_kernels() {
        for p in 0..screen::RUNGS {
            let params = screen::rung_params(&kernel, p);
            entries.insert(
                expected::key(kernel.name, &params, 1),
                expected::reference_checksum(&kernel, &params, 1),
            );
        }
    }
    expected::write(&entries).map_err(|e| e.to_string())?;
    eprintln!(
        "{} entries written to {}",
        entries.len(),
        expected::path().display()
    );
    Ok(())
}

/// Counts that a later change may rest a claim on must repeat exactly:
/// run the traced `compile`, `screen` and `tune` counters twice in one
/// process and compare.
fn check_determinism(args: &Args, scratch: &Path) -> Result<(), String> {
    const COUNTS: [(&str, &str); 6] = [
        ("compile", "codegen.src_bytes"),
        ("compile", "ast.loops"),
        ("compile", "ast.stmts"),
        ("compile", "deps.deps"),
        ("screen", "vm.accesses_proven"),
        ("tune", "autotune.candidates"),
    ];
    let once = |round: usize| -> Result<Vec<f64>, String> {
        let args = Args {
            workload: None,
            seed: args.seed + round as u64,
            seconds: 1.0,
            trace: true,
            json: true,
            quick: args.quick,
            inject_fault: false,
            mode: Mode::Run,
        };
        let mut runs: BTreeMap<&str, RunResult> = BTreeMap::new();
        COUNTS
            .iter()
            .map(|(workload, metric)| {
                if !runs.contains_key(workload) {
                    runs.insert(
                        workload,
                        run_workload(workload, &args, &scratch.join(format!("round-{round}")))?,
                    );
                }
                Ok(runs[workload].metrics[metric])
            })
            .collect()
    };
    let (a, b) = (once(0)?, once(1)?);
    let mut same = true;
    for (((workload, metric), x), y) in COUNTS.iter().zip(&a).zip(&b) {
        let verdict = if x == y && *x > 0.0 {
            "repeats"
        } else {
            "DIFFERS"
        };
        same &= x == y && *x > 0.0;
        println!("{workload:<8} {metric:<22} {x:>12} {y:>12}  {verdict}");
    }
    if same {
        Ok(())
    } else {
        Err("a count did not repeat".into())
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.mode == Mode::Manifest {
        print!("{}", manifest::benchmark_json());
        return;
    }
    let outcome = Scratch::new()
        .map_err(|e| format!("scratch directory: {e}"))
        .and_then(|scratch| match args.mode {
            Mode::WriteExpected => write_expected(),
            Mode::CheckDeterminism => check_determinism(&args, &scratch.0),
            _ => {
                let names: Vec<&str> = match &args.workload {
                    Some(w) => vec![w.as_str()],
                    None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
                };
                let mut failed = 0;
                for name in names {
                    let r = run_workload(name, &args, &scratch.0)?;
                    print_result(name, &r, args.json);
                    failed += r.failed;
                }
                if args.quick && failed > 0 {
                    return Err(format!("{failed} operations failed"));
                }
                Ok(())
            }
        });
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
