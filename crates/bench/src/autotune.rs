//! Closed-loop autotuner over the sweep executor.
//!
//! The paper's iterative column enumerates three fixed fusion
//! structures; this module closes the loop properly: a measured-feedback
//! search over *fusion structure × tile sizes × unroll factors*, driven
//! through the crash-safe sweep executor so every measured cell is
//! cached, timed out, retried, and appended to the resumable JSONL log.
//! A candidate is one program: the emitter's automatic pipeline batch
//! and doall grain are the only runtime settings there are.
//!
//! The search is budgeted in *measured cells*, so candidate triage
//! happens before anything is compiled:
//!
//! 1. **Build** every candidate once; one that fails to build is
//!    dropped (counted in [`TuneOutcome::pruned`]). Every later stage
//!    takes a clone of that program.
//! 2. **Rank** them with a transparent structural score ([`Features`] /
//!    [`score`]): loop depth, parallel-loop and synchronization-loop
//!    counts (the Par annotations summarize the dependence-vector shape
//!    each structure ended up with), and how well the tile footprint
//!    fits L1.
//! 3. **Screen** the most promising candidates with the in-process
//!    bytecode backend ([`crate::backend::vm_measure`]): the `budget`
//!    best-ranked candidates, less any whose loop tree equals a
//!    better-ranked one's, are interpreted without leaving the
//!    process — no emit, no `rustc`, no spawn — at one thread, since
//!    the vm runs every loop in schedule order.
//! 4. **Confirm** the union of the [`CONFIRM_TOP`] best *model-ranked*
//!    candidates and the [`CONFIRM_TOP`] fastest *screened* candidates
//!    that beat the model's picks by more than [`SCREEN_MARGIN`]
//!    (plus one native-baseline cell) at full fidelity through the
//!    rustc backend, at the runner's thread count. The two rankings
//!    cover each other's blind spots: interpreted wall time sees dynamic
//!    behavior (fusion killing recomputation, guard overhead) that the
//!    static score can only estimate, while the score sees what an
//!    unroll factor feeds LLVM's vectorizer, which interpreter op counts
//!    are structurally blind to.
//!    When the vm cannot model a kernel at all, every chosen candidate
//!    falls back to rustc. The JSONL log keys on *(id, backend)*, so vm
//!    screens and rustc confirmations of the same candidate never
//!    cross-satisfy each other on resume.
//! 5. **Pick** the healthy (non-degraded, non-error) *rustc* confirm
//!    with the highest GF/s, or `native` when none beats it
//!    ([`pick_winner`]).
//!
//! The winner is returned as a [`TunedConfig`] and stored nowhere, like
//! the paper's iterative column: the `tune` binary prints it, and the
//! JSONL log is what makes a search resumable.

use crate::backend::vm_measure;
use crate::runner::{RunResult, Runner};
use crate::sweep::{run_sweep, rustc_work, JobWork, SweepConfig, SweepJob};
use crate::variants::{build_variant, build_with, Variant};
use polymix_ast::tree::{Node, Par, Program};
use polymix_dl::Machine;
use polymix_ir::error::PolymixError;
use polymix_polybench::{kernel_by_name, Group, Kernel};

/// Per-level miss costs (cycles-ish) for the cache simulator: L1 miss,
/// L2 miss. The tuner does not read them; `benchmark/`'s `tune` workload
/// does, for its `cachesim.batch_cost` probe.
pub const LEVEL_COSTS: [f64; 2] = [1.0, 4.0];

/// How many programs *per ranking* (vm screen, structural score) are
/// confirmed at full rustc fidelity; the confirmation set is the union
/// of both prefixes (the screen's cut by [`SCREEN_MARGIN`]), so at most
/// `2 * CONFIRM_TOP` rustc cells beside the native baseline. Small on
/// purpose: both rankings already ordered the whole budget, so
/// confirmation only needs to absorb their respective blind spots
/// around the top. The model's prefix is load-bearing for one reason:
/// a jam is invisible to the vm, which runs the loop in its original
/// order, so it cannot see what LLVM gains from register tiling
/// (DESIGN §12).
pub const CONFIRM_TOP: usize = 2;

/// How much faster than the model's own picks a screened candidate must
/// interpret to be confirmed for its screen: `time · (1 + margin)` under
/// the best model pick's time. Below that the vm's wall time ranks
/// noise, not programs: gemm's five 64×64 structures at unroll 1×1
/// interpret within 3 % of one another on a quiet 2-core host, while a
/// burst of host load slows one screen by 30–50 % against its
/// neighbours — so a plain fastest-first cut would compile zero, one or
/// two extra programs per search, whichever the burst spared.
pub const SCREEN_MARGIN: f64 = 0.25;

/// One point of the search space: a transformation structure, and with
/// it one emitted program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Optimizer configuration: the flow and its fusion structure.
    pub opt: Variant,
    /// Rectangular tile size.
    pub tile: i64,
    /// Outer (time) tile size for pipeline-group kernels; equals `tile`
    /// elsewhere.
    pub time_tile: i64,
    /// Unroll-and-jam factors `(outer, inner)`.
    pub unroll: (i64, i64),
}

impl Candidate {
    /// Stable sweep-job id: the resume log keys on this, so it must
    /// encode every knob.
    pub fn id(&self, kernel: &str, dataset: &str) -> String {
        format!(
            "tune:{kernel}:{dataset}:{}:t{}:tt{}:u{}x{}",
            self.opt.name(),
            self.tile,
            self.time_tile,
            self.unroll.0,
            self.unroll.1,
        )
    }
}

/// Builds the transformed program for one candidate: [`build_with`] at
/// the candidate's knobs.
pub fn build_candidate(
    kernel: &Kernel,
    c: &Candidate,
    machine: &Machine,
) -> Result<Program, PolymixError> {
    build_with(&(kernel.build)(), c.opt, c.tile, c.time_tile, c.unroll, machine)
}

/// Enumerates the full candidate space for a kernel group. Deterministic
/// order: the search (and therefore the resume log) depends on it.
///
/// poly+AST chooses the tile of every nest without a time loop itself,
/// from the sizes up to its `tile` (`polymix_core::flow`, DESIGN §19), so
/// outside the pipeline group its families take one tile, the largest,
/// and the search does not decide that size a second time. The pipeline
/// group's stencil nests take the caller's sizes, and keep all three.
pub fn candidate_space(group: Group) -> Vec<Candidate> {
    let all_tiles: &[i64] = &[16, 32, 64];
    let time_tiles: &[i64] = if group == Group::Pipeline {
        &[4, 5, 8]
    } else {
        &[]
    };
    let unrolls: &[(i64, i64)] = &[(1, 1), (2, 2)];
    // poly+AST with and without fusion, then Pluto smart-, max- and no-fuse.
    let families = [
        Variant::PolyAst,
        Variant::PolyAstNoFuse,
        Variant::Pocc,
        Variant::IterativeMax,
        Variant::IterativeNo,
    ];
    let mut out = Vec::new();
    for opt in families {
        let poly_ast = matches!(opt, Variant::PolyAst | Variant::PolyAstNoFuse);
        let tiles = if poly_ast && group != Group::Pipeline {
            &all_tiles[2..]
        } else {
            all_tiles
        };
        for &tile in tiles {
            let tts: Vec<i64> = if time_tiles.is_empty() {
                vec![tile]
            } else {
                time_tiles.to_vec()
            };
            for tt in tts {
                for &unroll in unrolls {
                    out.push(Candidate {
                        opt,
                        tile,
                        time_tile: tt,
                        unroll,
                    });
                }
            }
        }
    }
    out
}

/// The transparent ranking features of one candidate, documented with
/// their weights in DESIGN §12 — no opaque learned weights.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Features {
    /// Maximum loop depth of the transformed program.
    pub depth: usize,
    /// Count of asynchronous parallel loops (doall + reduction).
    pub par_loops: usize,
    /// Count of synchronization-bearing loops (pipeline + wavefront) —
    /// the Par annotations summarize the dependence-vector shape the
    /// structure ended up with (forward-only ⇒ pipeline, diagonal ⇒
    /// wavefront).
    pub sync_loops: usize,
    /// `|ln(tile footprint / L1 capacity)|`: 0 when the working tile
    /// exactly fills L1, growing either way.
    pub tile_fit: f64,
}

/// Extracts ranking features from a transformed program; L1 is
/// `machine`'s primary level.
pub fn features(prog: &Program, c: &Candidate, machine: &Machine) -> Features {
    let mut f = Features::default();
    fn walk(node: &Node, depth: usize, f: &mut Features) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| walk(x, depth, f)),
            Node::Guard(_, b) => walk(b, depth, f),
            Node::Loop(l) => {
                f.depth = f.depth.max(depth + 1);
                match l.par {
                    Par::Doall | Par::Reduction(_) => f.par_loops += 1,
                    Par::Pipeline | Par::Wavefront => f.sync_loops += 1,
                    Par::Seq => {}
                }
                walk(&l.body, depth + 1, f);
            }
            Node::Stmt(_) => {}
        }
    }
    walk(&prog.body, 0, &mut f);
    // Working-set proxy: a square tile of f64 per array actively tiled.
    let l1 = machine.primary_level().capacity_bytes as f64;
    let footprint = (c.tile * c.tile * 8).max(1) as f64;
    f.tile_fit = (footprint / l1).ln().abs();
    f
}

/// Scalar rank (lower = more promising):
/// `depth + 3·sync − par + 2·tile_fit`. The weights are integers so that
/// the loop counts add exactly: two structures whose terms balance tie,
/// and a tie keeps enumeration order.
pub fn score(f: &Features) -> f64 {
    (f.depth as f64 + 3.0 * f.sync_loops as f64 - f.par_loops as f64) + 2.0 * f.tile_fit
}

/// A search's winner: the winning candidate plus its measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedConfig {
    /// Kernel name.
    pub kernel: String,
    /// Dataset the search measured at.
    pub dataset: String,
    /// Worker threads the search measured with.
    pub threads: usize,
    /// The winning candidate; `None` when no confirmed candidate beat
    /// the native baseline, which then is the winner.
    pub candidate: Option<Candidate>,
    /// Winning wall time (best-of-reps), seconds, as the emitted program
    /// prints it (to 1 µs).
    pub time_s: f64,
    /// Winning GFLOP/s.
    pub gflops: f64,
    /// Native-baseline wall time from the same search, seconds.
    pub native_time_s: f64,
    /// The winner's GF/s over native's: 1 when native wins, above 1
    /// otherwise.
    pub speedup_vs_native: f64,
}

/// What a search did, for reporting and tests.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The winner.
    pub config: TunedConfig,
    /// Candidate cells measured fresh this invocation (excludes the
    /// native baseline).
    pub measured: usize,
    /// Cells replayed from the resume log (baseline included).
    pub resumed: usize,
    /// Candidates that failed to build, and so were never ranked.
    pub pruned: usize,
    /// Total candidates in the enumerated space.
    pub total_candidates: usize,
}

/// The candidates the rustc stage confirms, as ascending indices into
/// `chosen` (which is in model order, most promising first), from the
/// healthy vm screens `(index, time_s)`: the model's first
/// [`CONFIRM_TOP`], plus the [`CONFIRM_TOP`] fastest screens among those
/// that beat the model's fastest-screening pick by more than
/// [`SCREEN_MARGIN`]. If no model pick screened, the bar is open and the
/// fastest screens join; if nothing screened (the vm lowered no
/// candidate), every chosen candidate confirms. Ascending, so the rustc
/// job sequence — and with it the resume log — does not depend on
/// interpreter timing noise between runs.
fn confirm_set(screened: &[(usize, f64)], chosen: usize) -> Vec<usize> {
    if screened.is_empty() {
        return (0..chosen).collect();
    }
    let model = 0..CONFIRM_TOP.min(chosen);
    let bar = screened
        .iter()
        .filter(|(i, _)| model.contains(i))
        .map(|&(_, t)| t)
        .fold(f64::INFINITY, f64::min);
    let mut faster: Vec<(usize, f64)> = screened
        .iter()
        .copied()
        .filter(|&(_, t)| t * (1.0 + SCREEN_MARGIN) < bar)
        .collect();
    faster.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut set: Vec<usize> = faster
        .iter()
        .take(CONFIRM_TOP)
        .map(|&(i, _)| i)
        .chain(model)
        .collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// The first `budget` of the `ranked` candidate indices, less every one
/// whose built loop tree equals a better-ranked one's: the tuner measures
/// programs, and the dropped slot is not refilled, so `budget` stays an
/// upper bound on the cells measured.
fn distinct_prefix(ranked: &[usize], progs: &[Option<Program>], budget: usize) -> Vec<usize> {
    let mut trees: Vec<&Node> = Vec::new();
    let mut out = Vec::new();
    for &ci in ranked.iter().take(budget) {
        let Some(prog) = &progs[ci] else { continue };
        if !trees.contains(&&prog.body) {
            trees.push(&prog.body);
            out.push(ci);
        }
    }
    out
}

/// Stage 5's pick from the healthy rustc confirms: the one with the
/// highest GF/s, if it beats `native`'s, else `None` (native wins). GF/s
/// decides because the emitted `main` computes it from the unrounded
/// timer, while `time_s` is printed to 1 µs. Ties keep the earlier
/// confirm, i.e. model order.
fn pick_winner<'a>(
    confirms: &'a [(Candidate, RunResult)],
    native: &RunResult,
) -> Option<&'a (Candidate, RunResult)> {
    let mut best: Option<&(Candidate, RunResult)> = None;
    for c in confirms {
        if c.1.gflops > best.map_or(native.gflops, |b| b.1.gflops) {
            best = Some(c);
        }
    }
    best
}

/// Runs the budgeted search for one kernel and returns the winner.
///
/// Deterministic given a fixed results log: candidate enumeration and
/// ranking depend only on the built programs, and measured cells replay
/// from the log by id — so re-running an interrupted search with the
/// same `cfg.results_path` re-measures nothing it already recorded and
/// converges to the same configuration.
pub fn autotune_kernel(
    kernel_name: &str,
    dataset: &str,
    budget: usize,
    runner: &Runner,
    cfg: &SweepConfig,
    machine: &Machine,
) -> Result<TuneOutcome, PolymixError> {
    let kernel = kernel_by_name(kernel_name)
        .ok_or_else(|| PolymixError::build(kernel_name, "unknown kernel"))?;
    let params = kernel.dataset(dataset).params;
    let space = candidate_space(kernel.group);
    let total_candidates = space.len();

    // --- Stage 1: build every candidate once. ---
    let mut progs: Vec<Option<Program>> = {
        // Every candidate is built from the same SCoP and asks about the
        // same dependence polyhedra.
        let _memo = polymix_math::memo::scope();
        let build = |c| build_candidate(&kernel, c, machine).ok();
        space.iter().map(build).collect()
    };
    let pruned = progs.iter().filter(|p| p.is_none()).count();

    // --- Stage 2: rank what built. Stable sort: ties keep enumeration
    // order, keeping the search deterministic for the resume log.
    let mut ranked: Vec<(usize, f64)> = progs
        .iter()
        .enumerate()
        .filter_map(|(ci, p)| Some((ci, score(&features(p.as_ref()?, &space[ci], machine)))))
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

    // --- Stage 3: the best-ranked distinct programs are the measured
    // cells, each with its built program.
    let ranked: Vec<usize> = ranked.iter().map(|&(ci, _)| ci).collect();
    let chosen: Vec<(Candidate, Program)> = distinct_prefix(&ranked, &progs, budget.max(1))
        .into_iter()
        .filter_map(|ci| Some((space[ci], progs[ci].take()?)))
        .collect();
    let job = |c: &Candidate, work: JobWork| SweepJob {
        id: c.id(kernel_name, dataset),
        kernel: kernel_name.to_string(),
        variant: c.opt.name().to_string(),
        dataset: dataset.to_string(),
        params: params.clone(),
        work,
    };

    // --- Stage 3b: screen every chosen candidate in-process, at one
    // thread (the vm runs every loop in schedule order); the rustc
    // confirmations below keep `runner.threads`. Same job ids: the
    // JSONL log and resume lookups key on (id, backend), so the two
    // fidelities never cross-satisfy each other.
    let vm_jobs: Vec<SweepJob> = chosen
        .iter()
        .map(|(c, prog)| {
            let (kc, pc, prog, name) = (kernel.clone(), params.clone(), prog.clone(), c.opt.name());
            let reps = runner.reps;
            let run = Box::new(move || vm_measure(&kc, &prog, &pc, name, reps));
            job(c, JobWork::InProcess { run })
        })
        .collect();
    let vm_outcomes = run_sweep(vm_jobs, runner, cfg);
    // Rank the healthy screens; run_sweep returns submission order, so
    // index i is chosen[i].
    let screened: Vec<(usize, f64)> = vm_outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.result.as_ref().ok().map(|r| (i, r.time_s)))
        .collect();
    let confirm = confirm_set(&screened, chosen.len());

    // --- Stage 4: confirm the screened front-runners with rustc. ---
    let native_id = format!("tune:{kernel_name}:{dataset}:native");
    // No sequential fallback: a degraded cell would not measure the
    // candidate's parallel structure, so it must not win.
    let (threads, reps) = (runner.threads, runner.reps);
    let mut jobs: Vec<SweepJob> = Vec::with_capacity(confirm.len() + 1);
    let kc = kernel.clone();
    jobs.push(SweepJob {
        id: native_id,
        kernel: kernel_name.to_string(),
        variant: "native".to_string(),
        dataset: dataset.to_string(),
        params: params.clone(),
        work: rustc_work(
            &kernel,
            &params,
            threads,
            reps,
            move || build_variant(&kc, Variant::Native, &Machine::host()),
            false,
        ),
    });
    for &ci in &confirm {
        let (c, prog) = &chosen[ci];
        let prog = prog.clone();
        let build = move || Ok(prog.clone());
        jobs.push(job(c, rustc_work(&kernel, &params, threads, reps, build, false)));
    }
    let rustc_outcomes = run_sweep(jobs, runner, cfg);

    // --- Stage 5: pick the winner among healthy *full-fidelity* cells
    // only; vm screens never decide directly. Submission order again:
    // the native baseline, then `confirm`.
    let native_failed = || {
        PolymixError::runner(kernel_name, "native", "native baseline failed to measure")
    };
    let (native_cell, confirm_cells) = rustc_outcomes.split_first().ok_or_else(native_failed)?;
    let native = native_cell.result.as_ref().map_err(|_| native_failed())?;
    let confirms: Vec<(Candidate, RunResult)> = confirm
        .iter()
        .zip(confirm_cells)
        .filter(|(_, o)| !o.degraded)
        .filter_map(|(&ci, o)| Some((chosen[ci].0, o.result.clone().ok()?)))
        .collect();
    if confirms.is_empty() {
        return Err(PolymixError::runner(
            kernel_name,
            "tune",
            "no candidate measured successfully",
        ));
    }
    let (candidate, best, speedup_vs_native) = match pick_winner(&confirms, native) {
        Some((c, r)) => (Some(*c), r, r.gflops / native.gflops),
        None => (None, native, 1.0),
    };
    let outcomes = || vm_outcomes.iter().chain(&rustc_outcomes);
    let resumed = outcomes().filter(|o| o.resumed).count();
    // Fresh candidate cells: every fresh cell but the native baseline.
    let measured = outcomes().filter(|o| !o.resumed).count() - usize::from(!native_cell.resumed);
    Ok(TuneOutcome {
        config: TunedConfig {
            kernel: kernel_name.to_string(),
            dataset: dataset.to_string(),
            threads: runner.threads,
            candidate,
            time_s: best.time_s,
            gflops: best.gflops,
            native_time_s: native.time_s,
            speedup_vs_native,
        },
        measured,
        resumed,
        pruned,
        total_candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_candidate() -> Candidate {
        Candidate {
            opt: Variant::PolyAst,
            tile: 32,
            time_tile: 5,
            unroll: (2, 2),
        }
    }

    #[test]
    fn candidate_ids_encode_every_knob() {
        let c = sample_candidate();
        let id = c.id("jacobi-2d-imper", "small");
        assert_eq!(id, "tune:jacobi-2d-imper:small:poly+ast:t32:tt5:u2x2");
        // Two candidates differing only in one knob get distinct ids —
        // the resume log must never alias them.
        let c2 = Candidate {
            unroll: (1, 1),
            ..c
        };
        assert_ne!(id, c2.id("jacobi-2d-imper", "small"));
    }

    /// Screens inside the margin of the model's picks add nothing,
    /// whichever of them timed fastest; a clear lead joins; a model
    /// prefix that did not screen leaves the bar open.
    #[test]
    fn screens_join_the_confirm_set_only_past_the_margin() {
        let tied = [(0, 3.9e-3), (1, 8.3e-3), (2, 3.8e-3), (3, 3.85e-3), (4, 4.2e-3)];
        assert_eq!(confirm_set(&tied, 5), vec![0, 1]);
        let lead = [(0, 3.9e-3), (1, 8.3e-3), (2, 2.0e-3), (3, 3.0e-3), (4, 2.5e-3)];
        assert_eq!(confirm_set(&lead, 5), vec![0, 1, 2, 4]);
        let no_model = [(2, 3.9e-3), (3, 3.8e-3), (4, 5.0e-3)];
        assert_eq!(confirm_set(&no_model, 5), vec![0, 1, 2, 3]);
        assert_eq!(confirm_set(&[], 3), vec![0, 1, 2]);
        assert_eq!(confirm_set(&[(0, 1.0)], 1), vec![0]);
    }

    #[test]
    fn candidate_space_is_deterministic_and_group_sensitive() {
        let a = candidate_space(Group::Doall);
        let b = candidate_space(Group::Doall);
        assert_eq!(a, b, "enumeration must be stable for the resume log");
        // 3 Pluto families x 3 tiles x 2 unrolls, and 2 poly+AST
        // families x 1 tile x 2 unrolls; pipeline-group spaces give
        // poly+AST all 3 tiles and add 3 time tiles.
        let p = candidate_space(Group::Pipeline);
        assert_eq!((a.len(), p.len()), (22, 90));
        let poly_ast_tiles = |space: &[Candidate]| {
            let mut t: Vec<i64> = space
                .iter()
                .filter(|c| matches!(c.opt, Variant::PolyAst | Variant::PolyAstNoFuse))
                .map(|c| c.tile)
                .collect();
            t.sort();
            t.dedup();
            t
        };
        assert_eq!((poly_ast_tiles(&a), poly_ast_tiles(&p)), (vec![64], vec![16, 32, 64]));
        // Every candidate is a distinct program: unique ids and unique
        // (opt, tile, time_tile, unroll) tuples.
        for space in [&a, &p] {
            let mut ids: Vec<String> = space.iter().map(|c| c.id("k", "d")).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), space.len(), "ids must not alias");
            let mut tuples: Vec<_> = space
                .iter()
                .map(|c| (c.opt.name(), c.tile, c.time_tile, c.unroll))
                .collect();
            tuples.sort();
            tuples.dedup();
            assert_eq!(tuples.len(), space.len(), "no two candidates share a structure");
        }
    }

    /// The DL model declines jacobi-1d-imper's tiles at every size, so
    /// its nine poly+AST 1×1 candidates (three tiles × three time tiles)
    /// are one program: it is screened once, a different program ranked
    /// behind it keeps its place, and no slot is refilled past the
    /// budget.
    #[test]
    fn each_program_is_screened_once() {
        let kernel = kernel_by_name("jacobi-1d-imper").expect("kernel");
        let space = candidate_space(kernel.group);
        let pick = |opt: Variant| -> Vec<usize> {
            (0..space.len())
                .filter(|&i| space[i].opt == opt && space[i].unroll == (1, 1))
                .collect()
        };
        let (fused, pocc) = (pick(Variant::PolyAst), pick(Variant::Pocc));
        assert_eq!(fused.len(), 9);
        let machine = Machine::nehalem();
        let progs: Vec<Option<Program>> = (0..space.len())
            .map(|i| {
                (fused.contains(&i) || i == pocc[0])
                    .then(|| build_candidate(&kernel, &space[i], &machine).ok())
                    .flatten()
            })
            .collect();
        assert_eq!(distinct_prefix(&fused, &progs, 9), vec![fused[0]]);
        let mixed = [fused[0], fused[1], pocc[0], fused[2]];
        assert_eq!(distinct_prefix(&mixed, &progs, 4), vec![fused[0], pocc[0]]);
        assert_eq!(distinct_prefix(&mixed, &progs, 2), vec![fused[0]]);
    }

    /// Fewer synchronizing loops and shallower nests rank first.
    #[test]
    fn score_prefers_cheap_shallow_parallel_structures() {
        let cheap = Features {
            depth: 3,
            par_loops: 2,
            sync_loops: 0,
            tile_fit: 0.1,
        };
        let synchronous = Features {
            sync_loops: 2,
            par_loops: 0,
            ..cheap
        };
        let deep = Features { depth: 5, ..cheap };
        assert!(score(&cheap) < score(&synchronous));
        assert!(score(&cheap) < score(&deep));
    }

    fn run(time_s: f64, gflops: f64) -> RunResult {
        RunResult {
            checksum: 1.0,
            time_s,
            gflops,
        }
    }

    /// Two confirms that both print `time_s` 1 µs are told apart by
    /// their GF/s, and native wins when no confirm beats it.
    #[test]
    fn the_winner_is_decided_by_gflops_and_may_be_native() {
        let (a, b) = (
            sample_candidate(),
            Candidate {
                unroll: (1, 1),
                ..sample_candidate()
            },
        );
        let confirms = [(a, run(1e-6, 3.1)), (b, run(1e-6, 3.4))];
        let winner = pick_winner(&confirms, &run(2e-6, 1.7));
        assert_eq!(winner.map(|w| w.0), Some(b));
        assert_eq!(pick_winner(&confirms, &run(1e-6, 3.4)), None, "a tie goes to native");
        assert_eq!(pick_winner(&confirms, &run(0.0, 9.0)), None);
        assert_eq!(pick_winner(&[], &run(1e-6, 1.0)), None);
        let tied = [(a, run(1e-6, 3.4)), (b, run(1e-6, 3.4))];
        assert_eq!(pick_winner(&tied, &run(1e-6, 1.0)).map(|w| w.0), Some(a));
    }
}
