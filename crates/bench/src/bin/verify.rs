//! Standalone static auditor: certifies every (kernel, variant)
//! transformed program and lints its emitted kernel source *without
//! compiling or running anything* — the static half of the paper's
//! legality story, applied after the fact to exactly the artifacts the
//! sweeps measure.
//!
//! ```text
//! verify [--dataset D] [--strict] [--variant NAME] [--backend vm] [kernel ... | file.rs ...]
//! ```
//!
//! * positional kernel names restrict the sweep (default: all 25, the
//!   paper's 22 and the extended three); a name that is no kernel's
//!   exits 2 before anything is audited;
//! * positional `.rs` paths are audited as cached kernel sources (lint
//!   only — the transformed AST is not recoverable from source);
//! * `--variant` restricts to one variant display name (e.g. `pocc`);
//! * `--strict` additionally fails on `unsupported` coverage notes;
//! * without `--backend vm` the emitted sources are the four-thread
//!   ones and a census of their runtime calls is printed at the end
//!   (`regions: doall N reduction N pipeline N wavefront N`): a
//!   construct whose count drops to zero has lost all its traffic; next,
//!   how many outermost marks of each of the last three kinds the
//!   emitter ran sequentially instead (`fallbacks: reduction N pipeline
//!   N wavefront N`, per program the marks minus the calls); then the
//!   number of loops marked `jam: f` (`jams: N`, each one proven by the
//!   certifier or the audit fails) and of pipeline marks the poly+AST
//!   flow turned sequential because the certifier refused a phased
//!   pipeline (`demoted: N`); after them, a census of what the tiling
//!   stage reported for every nest
//!   (`tiling: joint N chains N sunk N declined N reordered N
//!   untiled-levels N`: `declined` counts the nests the DL model judged
//!   not worth tiling, `reordered` the nests whose point loops were put
//!   in vector order, and the last number the statements `tile_nest`
//!   left with a loop around them that was not strip-mined): a form at
//!   zero is a dead path of `tile_nest`, and `untiled-levels` going up
//!   means statements lost tile coverage;
//! * `--backend vm` audits the *lowered bytecode* instead of the
//!   emitted source: each cell is lowered at the dataset's parameters
//!   and run through the bytecode certifier (bounds proofs; the `pairs`
//!   column of these rows is 0); the total proven-access count is
//!   printed at the end — zero means
//!   the elided measurement fast path would never engage, so a smoke
//!   run should assert it is nonzero;
//! * exit status is 1 iff any audited artifact fails, 2 on a usage
//!   error.

use polymix_ast::tree::{Node, Par, TileForm};
use polymix_bench::report::{usage, Cli, Spec};
use polymix_bench::runner::emit_source;
use polymix_bench::variants::{build_variant, Variant};
use polymix_dl::Machine;
use polymix_polybench::{all_kernels, extended_kernels};
use polymix_verify::{bytecode_certificate, verify_program, verify_source, Certificate};

fn audit(label: &str, cert: &Certificate, strict: bool, failures: &mut usize) {
    let errors = cert.errors().count();
    let notes = cert.violations.len() - errors;
    let failed = errors > 0 || (strict && notes > 0);
    if failed {
        *failures += 1;
    }
    let status = if errors > 0 {
        "FAIL"
    } else if notes > 0 {
        if strict {
            "FAIL"
        } else {
            "ok*"
        }
    } else {
        "ok"
    };
    println!(
        "{status:<5} {label:<40} deps {:>3}  pairs {:>4}  errors {errors}  notes {notes}",
        cert.deps_checked, cert.pairs_checked
    );
    for v in &cert.violations {
        if v.kind.is_error() || strict {
            println!("      {v}");
        }
    }
}

/// Adds to `marks` (in `polymix_verify::lint::KINDS` order) the loops
/// of `node` marked parallel under no loop so marked: the ones the
/// emitter turns into a region, or runs sequentially when it cannot.
fn outermost_marks(node: &Node, marks: &mut [usize; 4]) {
    match node {
        Node::Seq(xs) => xs.iter().for_each(|x| outermost_marks(x, marks)),
        Node::Guard(_, b) => outermost_marks(b, marks),
        Node::Loop(l) => match l.par {
            Par::Seq => outermost_marks(&l.body, marks),
            Par::Doall => marks[0] += 1,
            Par::Reduction(_) => marks[1] += 1,
            Par::Pipeline => marks[2] += 1,
            Par::Wavefront => marks[3] += 1,
        },
        Node::Stmt(_) => {}
    }
}

fn main() {
    let cli = Cli::parse(&Spec {
        switches: &["--strict"],
        positionals: true,
        ..Spec::values(&["--dataset", "--variant", "--backend"])
    });
    let dataset = cli.dataset("mini").unwrap_or_else(usage);
    let strict = cli.switch("--strict");
    let variant_filter = cli.value("--variant").map(|name| {
        Variant::parse(name).unwrap_or_else(|| usage(format!("verify: unknown --variant {name}")))
    });
    let vm_audit = match cli.value("--backend").unwrap_or("rustc") {
        "rustc" => false,
        "vm" => true,
        other => usage(format!("verify: unknown --backend {other} (rustc or vm)")),
    };

    let mut failures = 0usize;
    let mut census = [0usize; 4];
    // Outermost marks the emitter ran sequentially, per kind.
    let mut fallbacks = [0usize; 4];
    // Nests per tiling form (joint, chains, sunk), nests the DL model
    // declined to tile, nests with reordered point loops, then untiled
    // statements.
    let mut tiling = [0usize; 6];
    // Tiled nests per tile size (16, 32, 64), then guard conjuncts
    // separation took out of the emitted trees.
    let mut sizes = [0usize; 4];
    // Loops marked `jam: f`, and pipeline marks the flow demoted.
    let (mut jams, mut demoted) = (0usize, 0usize);
    let mut vm_proven = 0usize;
    let mut vm_total = 0usize;

    let (files, names): (Vec<&String>, Vec<&String>) =
        cli.positionals().iter().partition(|a| a.ends_with(".rs"));
    // A name that matches no kernel would audit nothing and exit 0.
    let kernels: Vec<_> = all_kernels()
        .into_iter()
        .chain(extended_kernels())
        .collect();
    if let Some(n) = names.iter().find(|n| kernels.iter().all(|k| k.name != n.as_str())) {
        return usage(format!("verify: unknown kernel {n}"));
    }
    // Cached kernel sources: lint-only audit.
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(src) => audit(f, &verify_source(f, &src), strict, &mut failures),
            Err(e) => {
                println!("FAIL  {f}: unreadable: {e}");
                failures += 1;
            }
        }
    }
    if !files.is_empty() && names.is_empty() {
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }

    // One memo scope for the run: the census below counts each distinct
    // emptiness question once, by how it ended.
    let memo = polymix_math::memo::scope();
    let machine = Machine::host();
    for k in kernels {
        if !names.is_empty() && !names.iter().any(|n| **n == k.name) {
            continue;
        }
        let params = k.dataset(&dataset).params;
        for v in Variant::ALL {
            if variant_filter.is_some_and(|f| f != v) {
                continue;
            }
            let label = format!("{} [{}]", k.name, v.name());
            let prog = match build_variant(&k, v, &machine) {
                Ok(p) => p,
                Err(e) => {
                    println!("FAIL  {label:<40} does not build: {e}");
                    failures += 1;
                    continue;
                }
            };
            if vm_audit {
                // Bytecode audit: lower at the dataset's parameters and
                // certify the artifact the vm backend would measure.
                // A cell that refuses to lower is skipped, not failed —
                // the vm backend cannot measure it either, so there is
                // no uncertified artifact to worry about.
                let vm = match polymix_vm::lower(&prog, &params) {
                    Ok(vm) => vm,
                    Err(e) => {
                        println!("skip  {label:<40} does not lower: {e}");
                        continue;
                    }
                };
                let cert = polymix_vm::certify(&vm);
                let (proven, total) = cert.counts();
                vm_proven += proven;
                vm_total += total;
                audit(
                    &format!("{label} (bytecode)"),
                    &bytecode_certificate(k.name, &cert),
                    strict,
                    &mut failures,
                );
                continue;
            }
            // Certificates 1-2: schedule legality and annotation safety
            // re-derived from the final program.
            audit(&label, &verify_program(&prog), strict, &mut failures);
            prog.body.visit_loops(&mut |l| jams += usize::from(l.jam > 1));
            demoted += prog.demoted;
            for r in &prog.tiling {
                match r.form {
                    TileForm::Joint => tiling[0] += 1,
                    TileForm::Chains => tiling[1] += 1,
                    TileForm::Sunk => tiling[2] += 1,
                    TileForm::Declined => tiling[3] += 1,
                    TileForm::None => {}
                }
                tiling[4] += usize::from(r.reordered);
                tiling[5] += r.untiled;
                if let Some(k) = [16, 32, 64].iter().position(|&t| t == r.tile) {
                    sizes[k] += 1;
                }
                sizes[3] += r.guards;
            }
            // Certificate 3: protocol lint over the emitted source.
            let src = emit_source(&k, &prog, &params, 4, 1);
            let mut marks = [0usize; 4];
            outermost_marks(&prog.body, &mut marks);
            for (i, kind) in polymix_verify::lint::KINDS.into_iter().enumerate() {
                let calls = src.matches(&format!("kernel_rt::{kind}(")).count();
                census[i] += calls;
                fallbacks[i] += marks[i].saturating_sub(calls);
            }
            audit(
                &format!("{label} (emitted source)"),
                &verify_source(k.name, &src),
                strict,
                &mut failures,
            );
        }
    }
    if vm_audit {
        println!("vm accesses proven: {vm_proven}/{vm_total}");
    } else {
        let [d, r, p, w] = census;
        println!("regions: doall {d} reduction {r} pipeline {p} wavefront {w}");
        let [_, r, p, w] = fallbacks;
        println!("fallbacks: reduction {r} pipeline {p} wavefront {w}");
        println!("jams: {jams}");
        println!("demoted: {demoted}");
        let [joint, chains, sunk, declined, reordered, untiled] = tiling;
        println!(
            "tiling: joint {joint} chains {chains} sunk {sunk} declined {declined} \
             reordered {reordered} untiled-levels {untiled}"
        );
        let [s16, s32, s64, guards] = sizes;
        println!("sizes: 16 {s16} 32 {s32} 64 {s64} guards-separated {guards}");
    }
    let e = memo.stats().emptiness;
    println!(
        "emptiness: hull {} witness {} eliminated {}",
        e.hull, e.witness, e.eliminated
    );
    if failures > 0 {
        println!("verify: {failures} artifact(s) failed");
        std::process::exit(1);
    }
    println!("verify: all audited artifacts certified");
}
