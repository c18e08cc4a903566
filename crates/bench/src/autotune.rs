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
//! 1. **Prune** with the cache model: every candidate is simulated at
//!    the kernel's `mini` dataset through the [`polymix_cachesim`]
//!    hierarchy batch API; candidates whose weighted miss cost exceeds
//!    [`PRUNE_FACTOR`]× the best are dropped unmeasured.
//! 2. **Rank** survivors with a transparent feature-based cost model
//!    ([`Features`] / [`score`]): simulated miss cost, loop depth,
//!    parallel-loop and synchronization-loop counts (the Par annotations
//!    summarize the dependence-vector shape each structure ended up
//!    with), and how well the tile footprint fits L1.
//! 3. **Screen** the most promising candidates with the in-process
//!    bytecode backend ([`crate::backend::vm_measure`]): the `budget`
//!    best-ranked candidates are interpreted without leaving the
//!    process — no emit, no `rustc`, no spawn.
//! 4. **Confirm** the union of the [`CONFIRM_TOP`] fastest *screened*
//!    candidates and the [`CONFIRM_TOP`] best *model-ranked* candidates
//!    (plus one native-baseline cell for the speedup denominator) at
//!    full fidelity through the rustc backend. The two rankings cover
//!    each other's blind spots: interpreted wall time sees dynamic
//!    behavior (fusion killing recomputation, guard overhead) that the
//!    static model can only estimate, while the model sees what an
//!    unroll factor feeds LLVM's vectorizer, which interpreter op counts
//!    are structurally blind to.
//!    When the vm cannot model a kernel at all, every chosen candidate
//!    falls back to rustc. The JSONL log keys on *(id, backend)*, so vm
//!    screens and rustc confirmations of the same candidate never
//!    cross-satisfy each other on resume.
//!
//! The winner — minimum wall time among healthy (non-degraded,
//! non-error) *rustc* cells — is committed as a one-line JSON config
//! (`results/tuned/<kernel>.json`) that `table1 --tuned` and future
//! sweeps can load. A winner that fails to beat the measured native
//! baseline is marked `beats_native: 0`, and
//! [`TunedConfig::save_guarded`] refuses to overwrite a beating config
//! with a losing one.

use crate::backend::vm_measure;
use crate::runner::{emit_source, Runner};
use crate::sweep::{self, run_sweep, JobOutcome, JobWork, SweepConfig, SweepJob};
use crate::variants::{build_variant, Variant};
use polymix_ast::tree::{Node, Par, Program};
use polymix_cachesim::{batch_weighted_cost, CacheConfig};
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_dl::Machine;
use polymix_ir::error::PolymixError;
use polymix_pluto::{optimize_pluto, PlutoOptions, PlutoVariant};
use polymix_polybench::{kernel_by_name, Group, Kernel};
use std::path::{Path, PathBuf};

/// Candidates costing more than this factor times the cheapest
/// simulated candidate are pruned before compilation.
pub const PRUNE_FACTOR: f64 = 2.0;

/// Per-level miss costs (cycles-ish) weighting the simulated hierarchy:
/// L1 miss, L2 miss. Only ratios matter for pruning/ranking.
pub const LEVEL_COSTS: [f64; 2] = [1.0, 4.0];

/// How many programs *per ranking* (vm screen, cache model) are
/// confirmed at full rustc fidelity; the confirmation set is the union
/// of both prefixes, so at most `2 * CONFIRM_TOP` rustc cells beside
/// the native baseline. Small on
/// purpose: both rankings already ordered the whole budget, so
/// confirmation only needs to absorb their respective blind spots
/// around the top. The model's prefix is load-bearing for one reason:
/// the vm executes an unrolled tree op for op, so it cannot see what
/// LLVM gains from the unroll (DESIGN §12).
pub const CONFIRM_TOP: usize = 2;

/// The optimizer family of a candidate: which transformation flow and
/// which fusion structure it enumerates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptFamily {
    /// The paper's poly+AST flow with Algorithm 5 fusion.
    PolyAstFuse,
    /// poly+AST with inter-SCC fusion disabled.
    PolyAstNoFuse,
    /// Pluto smart-fuse (the `pocc` baseline).
    PlutoPocc,
    /// Pluto maximal fusion.
    PlutoMaxFuse,
    /// Pluto no fusion.
    PlutoNoFuse,
}

impl OptFamily {
    /// All families the search enumerates.
    pub fn all() -> [OptFamily; 5] {
        [
            OptFamily::PolyAstFuse,
            OptFamily::PolyAstNoFuse,
            OptFamily::PlutoPocc,
            OptFamily::PlutoMaxFuse,
            OptFamily::PlutoNoFuse,
        ]
    }

    /// Stable config-file name.
    pub fn name(self) -> &'static str {
        match self {
            OptFamily::PolyAstFuse => "polyast-fuse",
            OptFamily::PolyAstNoFuse => "polyast-nofuse",
            OptFamily::PlutoPocc => "pluto-pocc",
            OptFamily::PlutoMaxFuse => "pluto-maxfuse",
            OptFamily::PlutoNoFuse => "pluto-nofuse",
        }
    }

    /// Inverse of [`OptFamily::name`].
    pub fn parse(s: &str) -> Option<OptFamily> {
        OptFamily::all().into_iter().find(|o| o.name() == s)
    }
}

/// One point of the search space: a transformation structure, and with
/// it one emitted program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Optimizer family (fusion structure enumeration).
    pub opt: OptFamily,
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

/// Builds the transformed program for one candidate.
pub fn build_candidate(
    kernel: &Kernel,
    c: &Candidate,
    machine: &Machine,
) -> Result<Program, PolymixError> {
    let scop = (kernel.build)();
    match c.opt {
        OptFamily::PolyAstFuse | OptFamily::PolyAstNoFuse => optimize_poly_ast(
            &scop,
            &PolyAstOptions {
                machine: machine.clone(),
                tile: c.tile,
                time_tile: c.time_tile,
                tiling: true,
                parallelize: true,
                doall_only: false,
                unroll: c.unroll,
                fusion: c.opt == OptFamily::PolyAstFuse,
            },
        ),
        OptFamily::PlutoPocc | OptFamily::PlutoMaxFuse | OptFamily::PlutoNoFuse => {
            let pv = match c.opt {
                OptFamily::PlutoMaxFuse => PlutoVariant::MaxFuse,
                OptFamily::PlutoNoFuse => PlutoVariant::NoFuse,
                _ => PlutoVariant::Pocc,
            };
            optimize_pluto(
                &scop,
                &PlutoOptions {
                    variant: pv,
                    tile: c.tile,
                    time_tile: c.time_tile,
                    tiling: true,
                    unroll: c.unroll,
                },
            )
        }
    }
}

/// Enumerates the full candidate space for a kernel group. Deterministic
/// order: the search (and therefore the resume log) depends on it.
pub fn candidate_space(group: Group) -> Vec<Candidate> {
    let tiles: &[i64] = &[16, 32, 64];
    let time_tiles: &[i64] = if group == Group::Pipeline {
        &[4, 5, 8]
    } else {
        &[]
    };
    let unrolls: &[(i64, i64)] = &[(1, 1), (2, 2)];
    let mut out = Vec::new();
    for opt in OptFamily::all() {
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

/// The transparent ranking features of one candidate. Every
/// term is printed by `tune` in verbose mode and documented in
/// EXPERIMENTS.md — no opaque learned weights.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Features {
    /// Weighted miss cost from the cache-hierarchy simulation at `mini`.
    pub sim_cost: f64,
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

/// Extracts ranking features from a transformed program.
pub fn features(prog: &Program, c: &Candidate, sim_cost: f64) -> Features {
    let mut f = Features {
        sim_cost,
        ..Features::default()
    };
    fn walk(node: &Node, depth: usize, f: &mut Features) {
        match node {
            Node::Seq(xs) => xs.iter().for_each(|x| walk(x, depth, f)),
            Node::Guard(_, b) => walk(b, depth, f),
            Node::Loop(l) => {
                f.depth = f.depth.max(depth + 1);
                match l.par {
                    Par::Doall | Par::Reduction => f.par_loops += 1,
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
    let l1 = CacheConfig::l1_nehalem().capacity_bytes as f64;
    let footprint = (c.tile * c.tile * 8).max(1) as f64;
    f.tile_fit = (footprint / l1).ln().abs();
    f
}

/// Scalar rank (lower = more promising). Weights chosen so the
/// simulated miss cost dominates and the structural terms break ties:
/// `cost/min + 0.05·depth + 0.15·sync − 0.05·par + 0.10·tile_fit`.
pub fn score(f: &Features, min_cost: f64) -> f64 {
    let cost = if min_cost > 0.0 {
        f.sim_cost / min_cost
    } else {
        1.0
    };
    cost + 0.05 * f.depth as f64 + 0.15 * f.sync_loops as f64 - 0.05 * f.par_loops as f64
        + 0.10 * f.tile_fit
}

/// A committed tuned configuration: the winning candidate plus its
/// measurement, serialized as one flat JSON line (the schema is
/// documented in EXPERIMENTS.md).
#[derive(Clone, Debug, PartialEq)]
pub struct TunedConfig {
    /// Kernel name.
    pub kernel: String,
    /// Dataset the search measured at.
    pub dataset: String,
    /// Worker threads the search measured with.
    pub threads: usize,
    /// The winning candidate.
    pub candidate: Candidate,
    /// Winning wall time (best-of-reps), seconds.
    pub time_s: f64,
    /// Winning GFLOP/s.
    pub gflops: f64,
    /// Native-baseline wall time from the same search, seconds.
    pub native_time_s: f64,
    /// `native_time_s / time_s`.
    pub speedup_vs_native: f64,
    /// Whether the winner actually beat the measured native baseline.
    /// A losing config is still recorded (the search's honest answer)
    /// but marked, and [`TunedConfig::save_guarded`] will never replace
    /// a beating config with it.
    pub beats_native: bool,
}

impl TunedConfig {
    /// One-line JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kernel\":\"{}\",\"dataset\":\"{}\",\"threads\":{},\"opt\":\"{}\",\
             \"tile\":{},\"time_tile\":{},\"unroll\":[{},{}],\
             \"time_s\":{:e},\"gflops\":{:e},\"native_time_s\":{:e},\
             \"speedup_vs_native\":{:e},\"beats_native\":{}}}",
            sweep::json_escape(&self.kernel),
            sweep::json_escape(&self.dataset),
            self.threads,
            self.candidate.opt.name(),
            self.candidate.tile,
            self.candidate.time_tile,
            self.candidate.unroll.0,
            self.candidate.unroll.1,
            self.time_s,
            self.gflops,
            self.native_time_s,
            self.speedup_vs_native,
            u8::from(self.beats_native),
        )
    }

    /// Parses [`TunedConfig::to_json`] output; `None` on any violation.
    /// Unknown keys — the retired `taskgraph`, `pool`, `pipeline_batch`
    /// and `dyn_grain` of older files — are ignored.
    pub fn from_json(line: &str) -> Option<TunedConfig> {
        let rec = sweep::parse_record(line)?;
        let unroll = rec.arr_field("unroll")?;
        if unroll.len() != 2 {
            return None;
        }
        let candidate = Candidate {
            opt: OptFamily::parse(rec.str_field("opt")?)?,
            tile: rec.num_field("tile")? as i64,
            time_tile: rec.num_field("time_tile")? as i64,
            unroll: (unroll[0] as i64, unroll[1] as i64),
        };
        let speedup_vs_native = rec.num_field("speedup_vs_native")?;
        Some(TunedConfig {
            kernel: rec.str_field("kernel")?.to_string(),
            dataset: rec.str_field("dataset")?.to_string(),
            threads: rec.num_field("threads")? as usize,
            candidate,
            time_s: rec.num_field("time_s")?,
            gflops: rec.num_field("gflops")?,
            native_time_s: rec.num_field("native_time_s")?,
            speedup_vs_native,
            // Configs written before the marker existed derive it from
            // the recorded speedup.
            beats_native: rec
                .num_field("beats_native")
                .map(|v| v == 1.0)
                .unwrap_or(speedup_vs_native >= 1.0),
        })
    }

    /// Writes the config (one line + newline) to `path`, creating parent
    /// directories.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Loads a config written by [`TunedConfig::save`].
    pub fn load(path: &Path) -> Option<TunedConfig> {
        let text = std::fs::read_to_string(path).ok()?;
        TunedConfig::from_json(text.lines().next()?)
    }

    /// The regression guard on the committed-config directory: a config
    /// that beats native always commits, but a *losing* config never
    /// replaces one that beats native — a tuned sweep loading the file
    /// would silently regress below the untransformed baseline. Returns
    /// whether the config was written.
    pub fn save_guarded(&self, path: &Path) -> std::io::Result<bool> {
        if !self.beats_native {
            if let Some(existing) = TunedConfig::load(path) {
                if existing.beats_native {
                    return Ok(false);
                }
            }
        }
        self.save(path)?;
        Ok(true)
    }
}

/// Conventional location of a kernel's committed tuned config.
pub fn default_tuned_path(kernel: &str) -> PathBuf {
    PathBuf::from("results/tuned").join(format!("{kernel}.json"))
}

/// What a search did, for reporting and tests.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The committed winner.
    pub config: TunedConfig,
    /// Candidate cells measured fresh this invocation (excludes the
    /// native baseline).
    pub measured: usize,
    /// Cells replayed from the resume log (baseline included).
    pub resumed: usize,
    /// Candidates dropped by the cache-model prune.
    pub pruned: usize,
    /// Total candidates in the enumerated space.
    pub total_candidates: usize,
}

/// Runs the budgeted search for one kernel and returns the winner
/// (without writing it anywhere; callers commit via
/// [`TunedConfig::save`]).
///
/// Deterministic given a fixed results log: candidate enumeration,
/// pruning and ranking depend only on the simulated model, and measured
/// cells replay from the log by id — so re-running an interrupted search
/// with the same `cfg.results_path` re-measures nothing it already
/// recorded and converges to the same configuration.
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
    let mini = kernel.dataset("mini").params;
    let space = candidate_space(kernel.group);
    let total_candidates = space.len();

    // --- Stage 1: simulate every candidate once at mini. ---
    let progs: Vec<Option<Program>> = {
        // Every candidate is built from the same SCoP and asks about the
        // same dependence polyhedra.
        let _memo = polymix_math::memo::scope();
        let build = |c| build_candidate(&kernel, c, machine).ok();
        space.iter().map(build).collect()
    };
    let built: Vec<&Program> = progs.iter().flatten().collect();
    let configs = [CacheConfig::l1_nehalem(), CacheConfig::l2_nehalem()];
    let costs = batch_weighted_cost(&built, &mini, &configs, &LEVEL_COSTS);
    // Re-align costs with the (sparse) candidate list.
    let mut cost_iter = costs.into_iter();
    let sim_costs: Vec<Option<f64>> = progs
        .iter()
        .map(|p| p.as_ref().map(|_| cost_iter.next().unwrap_or(f64::MAX)))
        .collect();
    let min_cost = sim_costs
        .iter()
        .flatten()
        .copied()
        .fold(f64::MAX, f64::min);

    // --- Stage 2: prune and rank candidates. ---
    let mut ranked: Vec<(usize, f64)> = Vec::new(); // (candidate idx, score)
    let mut pruned = 0usize;
    for (ci, cost) in sim_costs.iter().enumerate() {
        let (Some(cost), Some(prog)) = (cost, &progs[ci]) else {
            pruned += 1; // candidates that failed to build are "pruned"
            continue;
        };
        if min_cost > 0.0 && *cost > PRUNE_FACTOR * min_cost {
            pruned += 1;
            continue;
        }
        let f = features(prog, &space[ci], *cost);
        ranked.push((ci, score(&f, min_cost)));
    }
    // Stable sort: ties keep enumeration order, keeping the search
    // deterministic for the resume log.
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

    // --- Stage 3: the best-ranked candidates are the measured cells. ---
    let chosen: Vec<Candidate> = ranked
        .iter()
        .take(budget.max(1))
        .map(|&(ci, _)| space[ci])
        .collect();

    // --- Stage 3b: screen every chosen candidate in-process. Same job
    // ids as the rustc confirmations below: the JSONL log and resume
    // lookups key on (id, backend), so the two fidelities never
    // cross-satisfy each other.
    let vm_jobs: Vec<SweepJob> = chosen
        .iter()
        .map(|c| {
            let (kc, mc, pc, cc) = (kernel.clone(), machine.clone(), params.clone(), *c);
            let (threads, reps) = (runner.threads, runner.reps);
            SweepJob {
                id: c.id(kernel_name, dataset),
                kernel: kernel_name.to_string(),
                variant: c.opt.name().to_string(),
                dataset: dataset.to_string(),
                params: params.clone(),
                work: JobWork::InProcess {
                    run: Box::new(move || {
                        let prog = build_candidate(&kc, &cc, &mc)?;
                        vm_measure(&kc, &prog, &pc, cc.opt.name(), threads, reps)
                    }),
                },
            }
        })
        .collect();
    let vm_outcomes = run_sweep(vm_jobs, runner, cfg);
    // Rank the healthy screens; run_sweep returns submission order, so
    // index i is chosen[i].
    let mut screened: Vec<(usize, f64)> = vm_outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.result.as_ref().ok().map(|r| (i, r.time_s)))
        .collect();
    screened.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let confirm: Vec<usize> = if screened.is_empty() {
        // The vm cannot model this kernel's candidates (lowering
        // rejected them all): confirm everything at full fidelity.
        (0..chosen.len()).collect()
    } else {
        // Union of the two rankings' prefixes. `chosen` is already in
        // model order (most promising first), so its prefix *is* the
        // model's top picks; the screened prefix adds the vm's. Kept in
        // ascending index order so the rustc job sequence — and with it
        // the resume log — does not depend on interpreter timing noise
        // between runs.
        let mut set: Vec<usize> = screened
            .iter()
            .take(CONFIRM_TOP)
            .map(|&(i, _)| i)
            .chain(0..CONFIRM_TOP.min(chosen.len()))
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    };

    // --- Stage 4: confirm the screened front-runners with rustc. ---
    let native_id = format!("tune:{kernel_name}:{dataset}:native");
    let mut jobs: Vec<SweepJob> = Vec::with_capacity(confirm.len() + 1);
    {
        let (kc, pc) = (kernel.clone(), params.clone());
        let (threads, reps) = (runner.threads, runner.reps);
        jobs.push(SweepJob {
            id: native_id.clone(),
            kernel: kernel_name.to_string(),
            variant: "native".to_string(),
            dataset: dataset.to_string(),
            params: params.clone(),
            work: JobWork::Rustc {
                source: Box::new(move || {
                    let prog = build_variant(&kc, Variant::Native, &Machine::host())?;
                    Ok(emit_source(&kc, &prog, &pc, threads, reps))
                }),
                seq_source: None,
            },
        });
    }
    for &ci in &confirm {
        let c = &chosen[ci];
        let (kc, mc, pc, cc) = (kernel.clone(), machine.clone(), params.clone(), *c);
        let (threads, reps) = (runner.threads, runner.reps);
        jobs.push(SweepJob {
            id: c.id(kernel_name, dataset),
            kernel: kernel_name.to_string(),
            variant: c.opt.name().to_string(),
            dataset: dataset.to_string(),
            params: params.clone(),
            work: JobWork::Rustc {
                source: Box::new(move || {
                    let prog = build_candidate(&kc, &cc, &mc)?;
                    Ok(emit_source(&kc, &prog, &pc, threads, reps))
                }),
                // No sequential fallback: a degraded cell would not measure
                // the candidate's parallel structure, so it must not win.
                seq_source: None,
            },
        });
    }
    let rustc_outcomes = run_sweep(jobs, runner, cfg);

    // --- Stage 5: pick the winner — min wall time among healthy
    // *full-fidelity* cells only; vm screens never decide directly.
    let native = rustc_outcomes
        .iter()
        .find(|o| o.id == native_id)
        .and_then(|o| o.result.as_ref().ok())
        .ok_or_else(|| {
            PolymixError::runner(kernel_name, "native", "native baseline failed to measure")
        })?;
    let healthy = |o: &&JobOutcome| o.id != native_id && !o.degraded && o.result.is_ok();
    let winner = rustc_outcomes
        .iter()
        .filter(healthy)
        .min_by(|a, b| {
            let (ta, tb) = (
                a.result.as_ref().map(|r| r.time_s).unwrap_or(f64::MAX),
                b.result.as_ref().map(|r| r.time_s).unwrap_or(f64::MAX),
            );
            ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .ok_or_else(|| {
            PolymixError::runner(kernel_name, "tune", "no candidate measured successfully")
        })?;
    let wi = chosen
        .iter()
        .position(|c| c.id(kernel_name, dataset) == winner.id)
        .ok_or_else(|| PolymixError::runner(kernel_name, "tune", "winner id out of space"))?;
    let Ok(wr) = winner.result.clone() else {
        return Err(PolymixError::runner(
            kernel_name,
            "tune",
            "winner lost its measurement",
        ));
    };
    let native = native.clone();
    let outcomes: Vec<JobOutcome> = vm_outcomes.into_iter().chain(rustc_outcomes).collect();
    let measured = outcomes.iter().filter(|o| !o.resumed).count()
        - usize::from(outcomes.iter().any(|o| o.id == native_id && !o.resumed));
    let resumed = outcomes.iter().filter(|o| o.resumed).count();
    let speedup_vs_native = if wr.time_s > 0.0 {
        native.time_s / wr.time_s
    } else {
        0.0
    };
    Ok(TuneOutcome {
        config: TunedConfig {
            kernel: kernel_name.to_string(),
            dataset: dataset.to_string(),
            threads: runner.threads,
            candidate: chosen[wi],
            time_s: wr.time_s,
            gflops: wr.gflops,
            native_time_s: native.time_s,
            speedup_vs_native,
            beats_native: speedup_vs_native >= 1.0,
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
            opt: OptFamily::PolyAstFuse,
            tile: 32,
            time_tile: 5,
            unroll: (2, 2),
        }
    }

    #[test]
    fn candidate_ids_encode_every_knob() {
        let c = sample_candidate();
        let id = c.id("jacobi-2d-imper", "small");
        assert_eq!(id, "tune:jacobi-2d-imper:small:polyast-fuse:t32:tt5:u2x2");
        // Two candidates differing only in one knob get distinct ids —
        // the resume log must never alias them.
        let c2 = Candidate {
            unroll: (1, 1),
            ..c
        };
        assert_ne!(id, c2.id("jacobi-2d-imper", "small"));
    }

    #[test]
    fn tuned_config_json_roundtrip() {
        let cfg = TunedConfig {
            kernel: "gemm".into(),
            dataset: "small".into(),
            threads: 8,
            candidate: sample_candidate(),
            time_s: 0.0042,
            gflops: 21.5,
            native_time_s: 0.02,
            speedup_vs_native: 4.76,
            beats_native: true,
        };
        let line = cfg.to_json();
        let back = TunedConfig::from_json(&line).expect("parses");
        assert_eq!(back, cfg);
    }

    #[test]
    fn tuned_config_save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("polymix-tuned-{}", std::process::id()));
        let path = dir.join("gemm.json");
        let cfg = TunedConfig {
            kernel: "gemm".into(),
            dataset: "small".into(),
            threads: 4,
            candidate: sample_candidate(),
            time_s: 0.001,
            gflops: 10.0,
            native_time_s: 0.004,
            speedup_vs_native: 4.0,
            beats_native: true,
        };
        cfg.save(&path).expect("save creates parents");
        assert_eq!(TunedConfig::load(&path), Some(cfg));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression (the shipped jacobi-2d config once recorded a 0.34×
    /// "winner"): a losing config must not replace a committed config
    /// that beats native, while losing-over-losing and
    /// beating-over-anything still commit.
    #[test]
    fn save_guarded_refuses_to_regress_a_beating_config() {
        let dir = std::env::temp_dir().join(format!("polymix-guard-{}", std::process::id()));
        let path = dir.join("gemm.json");
        let winning = TunedConfig {
            kernel: "gemm".into(),
            dataset: "small".into(),
            threads: 4,
            candidate: sample_candidate(),
            time_s: 0.001,
            gflops: 10.0,
            native_time_s: 0.004,
            speedup_vs_native: 4.0,
            beats_native: true,
        };
        let losing = TunedConfig {
            time_s: 0.012,
            gflops: 0.8,
            speedup_vs_native: 0.34,
            beats_native: false,
            ..winning.clone()
        };
        // A losing config commits onto an empty slot (marked, not hidden).
        assert!(losing.save_guarded(&path).expect("io"));
        assert_eq!(TunedConfig::load(&path), Some(losing.clone()));
        // A beating config replaces it.
        assert!(winning.save_guarded(&path).expect("io"));
        assert_eq!(TunedConfig::load(&path), Some(winning.clone()));
        // The losing config must now be refused.
        assert!(!losing.save_guarded(&path).expect("io"));
        assert_eq!(TunedConfig::load(&path), Some(winning));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pre-marker config lines (no `beats_native` key) derive the flag
    /// from the recorded speedup, and the retired `taskgraph`, `pool`,
    /// `pipeline_batch` and `dyn_grain` keys of older files are ignored.
    #[test]
    fn legacy_configs_derive_beats_native_from_speedup() {
        let cfg = TunedConfig {
            kernel: "gemm".into(),
            dataset: "small".into(),
            threads: 4,
            candidate: sample_candidate(),
            time_s: 0.001,
            gflops: 10.0,
            native_time_s: 0.004,
            speedup_vs_native: 0.34,
            beats_native: false,
        };
        let line = cfg.to_json().replace(",\"beats_native\":0", "");
        let back = TunedConfig::from_json(&line).expect("parses");
        assert!(!back.beats_native, "0.34x must derive as losing");
        let line2 = cfg
            .to_json()
            .replace(",\"beats_native\":0", "")
            .replace("\"speedup_vs_native\":3.4e-1", "\"speedup_vs_native\":2.5e0");
        let back2 = TunedConfig::from_json(&line2).expect("parses");
        assert!(back2.beats_native, "2.5x must derive as beating");
        let line3 = cfg
            .to_json()
            .replace(",\"time_s\"", ",\"taskgraph\":0,\"pool\":\"auto\",\"time_s\"");
        assert!(line3.contains("\"taskgraph\":0,\"pool\":\"auto\""), "{line3}");
        assert_eq!(TunedConfig::from_json(&line3), Some(cfg.clone()));
        let line4 = cfg
            .to_json()
            .replace("],\"time_s\"", "],\"pipeline_batch\":8,\"dyn_grain\":4,\"time_s\"");
        assert!(line4.contains("\"pipeline_batch\":8,\"dyn_grain\":4"), "{line4}");
        assert_eq!(TunedConfig::from_json(&line4), Some(cfg));
        for committed in [
            include_str!("../../../results/tuned/2mm.json"),
            include_str!("../../../results/tuned/gemm.json"),
            include_str!("../../../results/tuned/jacobi-2d-imper.json"),
        ] {
            assert!(TunedConfig::from_json(committed.trim_end()).is_some(), "{committed}");
        }
    }

    #[test]
    fn candidate_space_is_deterministic_and_group_sensitive() {
        let a = candidate_space(Group::Doall);
        let b = candidate_space(Group::Doall);
        assert_eq!(a, b, "enumeration must be stable for the resume log");
        // 5 families x 3 tiles x 2 unrolls; pipeline-group spaces add
        // 3 time tiles.
        let p = candidate_space(Group::Pipeline);
        assert_eq!((a.len(), p.len()), (30, 90));
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

    #[test]
    fn score_prefers_cheap_shallow_parallel_structures() {
        let cheap = Features {
            sim_cost: 100.0,
            depth: 3,
            par_loops: 2,
            sync_loops: 0,
            tile_fit: 0.1,
        };
        let expensive = Features {
            sim_cost: 190.0,
            depth: 3,
            par_loops: 2,
            sync_loops: 0,
            tile_fit: 0.1,
        };
        assert!(score(&cheap, 100.0) < score(&expensive, 100.0));
        let synchronous = Features {
            sync_loops: 2,
            par_loops: 0,
            ..cheap
        };
        assert!(score(&cheap, 100.0) < score(&synchronous, 100.0));
    }

    #[test]
    fn opt_family_names_roundtrip() {
        for o in OptFamily::all() {
            assert_eq!(OptFamily::parse(o.name()), Some(o));
        }
        assert_eq!(OptFamily::parse("nonsense"), None);
    }
}
