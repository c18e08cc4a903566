//! `backend_bench` — the committed evidence for the in-process backend
//! (`BENCH_backend.json`): per-cell cost of a vm measurement vs a full
//! rustc round-trip (emit → `rustc -O` → spawn → parse), cross-backend
//! checksum agreement on every compared cell, explicit-vec (the
//! `vect` post-pass) vs auto-vec GFLOP/s on kernels with a
//! certified-doall innermost stride-1 loop, and checked vs proof-elided
//! vm throughput (the dynamic-bounds-check tax the bytecode certifier
//! buys back) with bit-exact checksum agreement required.
//!
//! ```text
//! cargo run --release -p polymix-bench --bin backend_bench -- \
//!     --dataset mini --out BENCH_backend.json
//! ```
//!
//! The rustc cell cost is charged against a cold binary cache — the
//! compile *is* the round-trip the vm backend exists to kill; a warm
//! cache would measure the wrong thing.

use polymix_bench::backend::{vm_measure, vm_measure_checked};
use polymix_bench::report::Cli;
use polymix_bench::runner::{compile_and_run, emit_source_with, EmitKnobs, Runner};
use polymix_bench::variants::{build_variant, Variant};
use polymix_dl::Machine;
use polymix_polybench::kernel_by_name;
use std::fmt::Write as _;
use std::time::Instant;

/// Kernel × variant cells for the cost/agreement matrix: one
/// compute-bound, one multi-statement, one memory-bound, two stencils —
/// each at native and one transformed structure.
const CELLS: &[(&str, Variant)] = &[
    ("gemm", Variant::Native),
    ("gemm", Variant::Pocc),
    ("2mm", Variant::Native),
    ("2mm", Variant::PolyAst),
    ("atax", Variant::Native),
    ("jacobi-1d-imper", Variant::Native),
    ("jacobi-1d-imper", Variant::Pocc),
    ("jacobi-2d-imper", Variant::Native),
];

/// Candidates for the explicit-vec comparison; kernels whose programs
/// expose no eligible loop are skipped (reported in the JSON).
const VECT_KERNELS: &[&str] = &["jacobi-1d-imper", "jacobi-2d-imper", "fdtd-2d", "gemver", "mvt"];

fn main() {
    let cli = Cli::parse();
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_backend.json".into());
    let machine = Machine::host();
    let runner = Runner::new(cli.threads);
    let scratch = std::env::temp_dir().join(format!("polymix-backend-bench-{}", std::process::id()));

    println!(
        "== backend_bench: dataset {}, {} thread(s), {} rep(s) ==",
        cli.dataset, runner.threads, runner.reps
    );
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"dataset\":\"{}\",\"threads\":{},\"reps\":{},\"cells\":[",
        cli.dataset, runner.threads, runner.reps
    );

    // --- per-cell cost + checksum agreement -------------------------
    let mut ratios: Vec<f64> = Vec::new();
    let mut disagreements = 0usize;
    let mut first = true;
    for &(name, variant) in CELLS {
        let k = kernel_by_name(name).expect("cell kernel");
        let params = k.dataset(&cli.dataset).params;
        let prog = match build_variant(&k, variant, &machine) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{name} {variant:?}: build failed, cell skipped: {e}");
                continue;
            }
        };
        // vm cell: lower + interpret, in-process.
        let t0 = Instant::now();
        let vm = match vm_measure(
            &k,
            &prog,
            &params,
            variant.name(),
            runner.threads,
            runner.reps,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name} {variant:?}: vm cell skipped: {e}");
                continue;
            }
        };
        let vm_cell_s = t0.elapsed().as_secs_f64();
        // rustc cell: emit + compile (cold cache) + spawn + parse.
        let dir = scratch.join(format!("{name}-{}", variant.name().replace(['(', ')', '+'], "_")));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let src = emit_source_with(&k, &prog, &params, runner.threads, runner.reps, EmitKnobs::default());
        let rustc = match compile_and_run(&src, &dir, &runner.rustc_flags, name) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name} {variant:?}: rustc cell failed: {e}");
                continue;
            }
        };
        let rustc_cell_s = t0.elapsed().as_secs_f64();
        let ratio = rustc_cell_s / vm_cell_s.max(1e-12);
        // The emitted binary prints `{:.6e}`, so agreement is judged at
        // that precision.
        let rel = (vm.checksum - rustc.checksum).abs() / rustc.checksum.abs().max(1.0);
        let agree = rel < 1e-6;
        if !agree {
            disagreements += 1;
        }
        ratios.push(ratio);
        println!(
            "  {name:18} {:16} vm {vm_cell_s:9.2e}s  rustc {rustc_cell_s:8.3}s  ratio {ratio:8.0}x  agree {agree}",
            variant.name()
        );
        let _ = write!(
            json,
            "{}{{\"kernel\":\"{name}\",\"variant\":\"{}\",\"vm_cell_s\":{vm_cell_s:.6e},\
             \"rustc_cell_s\":{rustc_cell_s:.6e},\"cost_ratio\":{ratio:.1},\
             \"vm_checksum\":{:.17e},\"rustc_checksum\":{:.17e},\"agree\":{agree}}}",
            if first { "" } else { "," },
            variant.name(),
            vm.checksum,
            rustc.checksum,
        );
        first = false;
    }
    let min_ratio = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let _ = write!(
        json,
        "],\"min_cost_ratio\":{:.1},\"checksum_disagreements\":{disagreements},\"vect\":[",
        if min_ratio.is_finite() { min_ratio } else { 0.0 }
    );

    // --- explicit-vec vs auto-vec -----------------------------------
    println!("-- explicit-vec (vect post-pass) vs auto-vec, rustc backend --");
    let mut first = true;
    let mut vect_cells = 0usize;
    for &name in VECT_KERNELS {
        let k = kernel_by_name(name).expect("vect kernel");
        let params = k.dataset(&cli.dataset).params;
        let prog = match build_variant(&k, Variant::Native, &machine) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{name}: build failed, skipped: {e}");
                continue;
            }
        };
        let vars = polymix_verify::vectorizable_inner_vars(&prog);
        if vars.is_empty() {
            println!("  {name:18} no certified-doall innermost stride-1 loop, skipped");
            continue;
        }
        let dir = scratch.join(format!("vect-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut gfs = [0.0f64; 2];
        let mut failed = false;
        for (i, vect) in [false, true].into_iter().enumerate() {
            let knobs = EmitKnobs { vect, ..EmitKnobs::default() };
            let src = emit_source_with(&k, &prog, &params, runner.threads, runner.reps, knobs);
            match compile_and_run(&src, &dir, &runner.rustc_flags, name) {
                Ok(r) => gfs[i] = r.gflops,
                Err(e) => {
                    eprintln!("{name} vect={vect}: {e}");
                    failed = true;
                }
            }
        }
        if failed {
            continue;
        }
        let ratio = gfs[1] / gfs[0].max(1e-12);
        println!(
            "  {name:18} vars {vars:?}  auto-vec {:.4} GF/s  explicit-vec {:.4} GF/s  ({ratio:.2}x)",
            gfs[0], gfs[1]
        );
        let vars_json: Vec<String> = vars.iter().map(usize::to_string).collect();
        let _ = write!(
            json,
            "{}{{\"kernel\":\"{name}\",\"vars\":[{}],\"autovec_gflops\":{:.6},\
             \"vect_gflops\":{:.6},\"ratio\":{ratio:.4}}}",
            if first { "" } else { "," },
            vars_json.join(","),
            gfs[0],
            gfs[1],
        );
        first = false;
        vect_cells += 1;
    }
    let _ = write!(json, "],\"vect_kernels_compared\":{vect_cells},\"elision\":[");

    // --- checked vs proof-elided vm throughput ----------------------
    // Same program, same interpreter: the only difference is whether
    // the dispatch loop re-validates addresses the certifier already
    // proved in-bounds. Checksums must match bit-for-bit — elision may
    // never change what executes, only what it re-checks.
    println!("-- vm backend: checked vs proof-elided dispatch --");
    let mut first = true;
    let mut elision_disagreements = 0usize;
    let mut elision_speedups: Vec<f64> = Vec::new();
    // vm cells are cheap; min-time over many interleaved rounds keeps
    // the comparison above the timer granularity at mini.
    let e_reps = runner.reps.max(2);
    const ROUNDS: usize = 12;
    for &(name, variant) in CELLS {
        let k = kernel_by_name(name).expect("cell kernel");
        let params = k.dataset(&cli.dataset).params;
        let prog = match build_variant(&k, variant, &machine) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{name} {variant:?}: build failed, cell skipped: {e}");
                continue;
            }
        };
        // Interleave the two fidelities round-robin and keep each
        // side's best round: back-to-back blocks would let machine
        // drift (noisy-neighbor vCPUs) masquerade as an elision
        // effect in either direction.
        let mut checked: Option<polymix_bench::runner::RunResult> = None;
        let mut elided: Option<polymix_bench::runner::RunResult> = None;
        let mut cell_err = None;
        for _ in 0..ROUNDS {
            match vm_measure_checked(
                &k,
                &prog,
                &params,
                variant.name(),
                runner.threads,
                e_reps,
            ) {
                Ok(r) => {
                    if checked.as_ref().is_none_or(|b| r.gflops > b.gflops) {
                        checked = Some(r);
                    }
                }
                Err(e) => {
                    cell_err = Some(e);
                    break;
                }
            }
            match vm_measure(
                &k,
                &prog,
                &params,
                variant.name(),
                runner.threads,
                e_reps,
            ) {
                Ok(r) => {
                    if elided.as_ref().is_none_or(|b| r.gflops > b.gflops) {
                        elided = Some(r);
                    }
                }
                Err(e) => {
                    cell_err = Some(e);
                    break;
                }
            }
        }
        let (checked, elided) = match (checked, elided, cell_err) {
            (Some(c), Some(e), None) => (c, e),
            (_, _, err) => {
                eprintln!(
                    "{name} {variant:?}: elision cell skipped: {}",
                    err.map_or_else(|| "no rounds completed".to_string(), |e| e.to_string())
                );
                continue;
            }
        };
        let speedup = elided.gflops / checked.gflops.max(1e-12);
        let agree = elided.checksum == checked.checksum;
        if !agree {
            elision_disagreements += 1;
        }
        elision_speedups.push(speedup);
        println!(
            "  {name:18} {:16} checked {:.4} GF/s  elided {:.4} GF/s  ({speedup:.2}x)  agree {agree}",
            variant.name(),
            checked.gflops,
            elided.gflops
        );
        let _ = write!(
            json,
            "{}{{\"kernel\":\"{name}\",\"variant\":\"{}\",\"checked_gflops\":{:.6},\
             \"elided_gflops\":{:.6},\"speedup\":{speedup:.4},\"agree\":{agree}}}",
            if first { "" } else { "," },
            variant.name(),
            checked.gflops,
            elided.gflops,
        );
        first = false;
    }
    let mean_speedup = if elision_speedups.is_empty() {
        0.0
    } else {
        elision_speedups.iter().sum::<f64>() / elision_speedups.len() as f64
    };
    let _ = write!(
        json,
        "],\"elision_mean_speedup\":{mean_speedup:.4},\
         \"elision_checksum_disagreements\":{elision_disagreements}}}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {out}: min cost ratio {min_ratio:.0}x, {disagreements} checksum disagreement(s), \
         {vect_cells} vect comparison(s), elision mean speedup {mean_speedup:.2}x \
         ({elision_disagreements} elision disagreement(s))"
    );
    if disagreements > 0 || elision_disagreements > 0 {
        std::process::exit(1);
    }
}
