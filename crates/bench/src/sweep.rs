//! Crash-safe parallel sweep executor.
//!
//! The paper's evaluation is measurement-heavy: every table and figure
//! is a sweep over (kernel, variant, dataset) jobs, each of which must
//! emit a standalone program, compile it with `rustc -O`, and run it.
//! This module runs a sweep in two phases. Phase 1 emits and compiles
//! every job on a bounded worker pool, sharing one binary cache
//! (exactly-once compiles, atomic publish; see [`crate::runner`]).
//! Phase 2 measures the jobs one at a time, in submission order, after
//! every compile has finished, so no `rustc` of the sweep runs beside a
//! measured kernel.
//!
//! Results stream to an append-only JSONL log (one object per job), so
//! an interrupted sweep can be re-invoked with the same `--results` path
//! and resume by skipping every already-recorded job.

use crate::report::Cli;
use crate::runner::{
    emit_source, ensure_compiled, is_kernel_failure, run_binary, run_cached, CompileOutcome,
    RunResult, Runner,
};
use polymix_ast::tree::Program;
use polymix_ir::error::PolymixError;
use polymix_polybench::Kernel;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Deferred emission of one job's standalone Rust source.
pub type Source = Box<dyn FnOnce() -> Result<String, PolymixError> + Send>;

/// What a sweep job executes.
///
/// `Rustc` is the emit → `rustc -O` → spawn round trip that every table
/// and figure measures; `InProcess` is a closure that measures without
/// leaving the process (the tuner's `polymix-vm` screen). The JSONL log
/// and the resume keys record which of the two produced each cell, so a
/// vm screen and a rustc confirm of the same job id never cross-satisfy
/// each other.
pub enum JobWork {
    /// Emit standalone Rust, compile, run as a subprocess. Built by
    /// [`rustc_work`].
    Rustc {
        /// Builds the emitted Rust source for this job.
        source: Source,
        /// Builds a *sequential* (single-thread) emission of the same
        /// kernel, used as the graceful-degradation fallback: when the
        /// primary run fails at the kernel level (poisoned runtime,
        /// timeout, non-zero exit — see
        /// [`crate::runner::is_kernel_failure`]), the job re-runs this
        /// source and records a `degraded(sequential)` measurement
        /// instead of an error cell. `None` disables degradation.
        seq_source: Option<Source>,
    },
    /// Measure in-process (no subprocess, no filesystem). The closure
    /// runs in the sweep's measuring phase, alone, like a rustc job's
    /// binary; there is no retry (nothing transient to retry) and no
    /// sequential degradation (a poisoned vm run is a real,
    /// deterministic result).
    InProcess {
        /// The measurement itself.
        #[allow(clippy::type_complexity)]
        run: Box<dyn FnOnce() -> Result<RunResult, PolymixError> + Send>,
    },
}

impl JobWork {
    /// The backend name recorded in the JSONL log and the resume key.
    pub fn backend(&self) -> &'static str {
        match self {
            JobWork::Rustc { .. } => "rustc",
            JobWork::InProcess { .. } => "vm",
        }
    }
}

/// The rustc job measuring the program `build` returns for `kernel` at
/// `params`: emitted for `threads` workers with `reps` timing
/// repetitions. With `degrade`, a kernel-level failure re-runs a
/// one-thread emission of the same program and records it as
/// `degraded(sequential)` (tables and figures); without, the failure is
/// the cell (the tuner, where a sequential number must not win).
pub fn rustc_work(
    kernel: &Kernel,
    params: &[i64],
    threads: usize,
    reps: usize,
    build: impl Fn() -> Result<Program, PolymixError> + Send + Sync + 'static,
    degrade: bool,
) -> JobWork {
    let build = Arc::new(build);
    let emit = |workers: usize| -> Source {
        let (kernel, params, build) = (kernel.clone(), params.to_vec(), Arc::clone(&build));
        Box::new(move || Ok(emit_source(&kernel, &build()?, &params, workers, reps)))
    };
    JobWork::Rustc {
        source: emit(threads),
        seq_source: degrade.then(|| emit(1)),
    }
}

/// One (kernel, variant, dataset) measurement job.
///
/// A rustc job's source is emitted on a compile worker (building the
/// variant on the way); a build failure is recorded as that job's error
/// cell without disturbing other jobs.
pub struct SweepJob {
    /// Stable unique key; the resume log skips (id, backend) pairs it
    /// has already seen.
    pub id: String,
    /// Kernel name (reporting + error context).
    pub kernel: String,
    /// Variant label (reporting + error context).
    pub variant: String,
    /// Dataset name (reporting only).
    pub dataset: String,
    /// Parameter values (reporting only).
    pub params: Vec<i64>,
    /// The measurement itself (backend-specific; see [`JobWork`]).
    pub work: JobWork,
}

/// The outcome of one sweep job, in submission order.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's stable id.
    pub id: String,
    /// Kernel name.
    pub kernel: String,
    /// Variant label.
    pub variant: String,
    /// Dataset name.
    pub dataset: String,
    /// Parameter values the job ran at.
    pub params: Vec<i64>,
    /// Measurement, or the stage-tagged failure for the `error(<stage>)`
    /// cell.
    pub result: Result<RunResult, PolymixError>,
    /// `true` when the result was replayed from the JSONL log instead of
    /// re-measured.
    pub resumed: bool,
    /// `true` when the parallel run failed and `result` holds the
    /// sequential degradation re-run (rendered as a `†`-marked cell).
    pub degraded: bool,
    /// Which backend produced `result` (`"rustc"` or `"vm"`).
    pub backend: &'static str,
}

/// Execution policy for [`run_sweep`].
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Worker threads that emit and compile (default one per core).
    /// Measuring is sequential whatever this is.
    pub jobs: usize,
    /// Wall-clock budget per `rustc` invocation.
    pub compile_timeout: Duration,
    /// Wall-clock budget per measured run.
    pub run_timeout: Duration,
    /// Retries (with exponential backoff) for transient spawn/lock
    /// failures. Deterministic failures — compile errors, timeouts,
    /// non-zero exits — are never retried.
    pub retries: usize,
    /// Append-only JSONL results log; enables resume when set.
    pub results_path: Option<PathBuf>,
}

/// The flags that set a [`SweepConfig`], taken by the binaries that
/// sweep (the [`crate::figures::Grid`] drivers and `tune`) alone.
pub const SWEEP_FLAGS: [&str; 5] = [
    "--jobs",
    "--compile-timeout",
    "--run-timeout",
    "--retries",
    "--results",
];

impl SweepConfig {
    /// Policy from the [`SWEEP_FLAGS`] on `cli`, [`SweepConfig::default`]
    /// for each one absent; `--jobs` and the timeouts (s) refuse zero.
    pub fn from_cli(cli: &Cli) -> Result<SweepConfig, String> {
        let base = SweepConfig::default();
        let secs = |key, d: Duration| cli.count(key, d.as_secs()).map(Duration::from_secs);
        Ok(SweepConfig {
            jobs: cli.count("--jobs", base.jobs)?,
            compile_timeout: secs("--compile-timeout", base.compile_timeout)?,
            run_timeout: secs("--run-timeout", base.run_timeout)?,
            retries: cli.get("--retries", base.retries)?,
            results_path: cli.value("--results").map(PathBuf::from),
        })
    }
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            compile_timeout: crate::runner::DEFAULT_COMPILE_TIMEOUT,
            run_timeout: crate::runner::DEFAULT_RUN_TIMEOUT,
            retries: 2,
            results_path: None,
        }
    }
}

/// Mutex lock that shrugs off poisoning: a worker that panicked while
/// holding a slot's lock must not wedge every other worker.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Transient failures worth a backoff-retry: the OS refused a spawn
/// (EAGAIN under load), or cache lock coordination glitched. Compile
/// errors and kernel failures are deterministic and final. Public
/// because `polymix-service` applies the same classification to its
/// optimization and cache-persistence failures.
pub fn is_transient(detail: &str) -> bool {
    detail.contains("spawn:") || detail.contains("lockfile") || detail.contains("wait:")
}

/// Runs every job and returns outcomes in submission order, in two
/// phases. Phase 1 emits and compiles every fresh rustc job on
/// `cfg.jobs` workers. Phase 2 then measures one job at a time, in
/// submission order, while nothing else of the sweep runs, and appends
/// each record to the log as the job finishes. Jobs the log already
/// holds replay in neither phase. Never panics on job failure: each
/// failure becomes that job's `Err` outcome (and JSONL record) and the
/// sweep continues.
pub fn run_sweep(jobs: Vec<SweepJob>, runner: &Runner, cfg: &SweepConfig) -> Vec<JobOutcome> {
    #[allow(clippy::type_complexity)]
    let recorded: HashMap<(String, String), (Result<RunResult, PolymixError>, bool)> = cfg
        .results_path
        .as_deref()
        .map(load_results)
        .unwrap_or_default();
    let mut log = cfg.results_path.as_ref().and_then(|p| {
        if let Some(dir) = p.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        repair_log_tail(p);
        std::fs::OpenOptions::new().create(true).append(true).open(p).ok()
    });
    // Phase 1: emit and compile every fresh rustc job.
    let steps = par_map(jobs, cfg.jobs, |job| {
        let cell = Cell {
            id: job.id,
            kernel: job.kernel,
            variant: job.variant,
            dataset: job.dataset,
            params: job.params,
            backend: job.work.backend(),
        };
        let prior = recorded.get(&(cell.id.clone(), cell.backend.to_string()));
        let step = match (prior, job.work) {
            (Some((prior, degraded)), _) => Step::Replay(prior.clone(), *degraded),
            (None, JobWork::Rustc { source, seq_source }) => {
                Step::Rustc(compile(source, &cell.label(), runner, cfg), seq_source)
            }
            (None, JobWork::InProcess { run }) => Step::InProcess(run),
        };
        (cell, step)
    });
    // Phase 2: measure, one job at a time.
    steps
        .into_iter()
        .map(|(cell, step)| {
            let (result, degraded) = match step {
                Step::Replay(result, degraded) => return cell.outcome(result, true, degraded),
                Step::Rustc(built, seq_source) => {
                    measure_rustc(&cell, built, seq_source, runner, cfg)
                }
                Step::InProcess(run) => {
                    // A panic inside the closure fails this cell only,
                    // never the sweep.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                        .unwrap_or_else(|_| {
                            Err(PolymixError::runner(
                                &cell.kernel,
                                &cell.variant,
                                "runtime_error: in-process measurement panicked",
                            ))
                        });
                    (result, false)
                }
            };
            let done = cell.outcome(result, false, degraded);
            if let Some(f) = &mut log {
                let _ = writeln!(f, "{}", record_line(&done));
                let _ = f.flush();
            }
            done
        })
        .collect()
}

/// A job's reporting fields, carried from its [`SweepJob`] to its
/// [`JobOutcome`].
struct Cell {
    id: String,
    kernel: String,
    variant: String,
    dataset: String,
    params: Vec<i64>,
    backend: &'static str,
}

impl Cell {
    /// Names the job in error messages and `rustc` diagnostics.
    fn label(&self) -> String {
        format!("{}_{}", self.kernel, self.variant)
    }

    fn outcome(
        self,
        result: Result<RunResult, PolymixError>,
        resumed: bool,
        degraded: bool,
    ) -> JobOutcome {
        JobOutcome {
            id: self.id,
            kernel: self.kernel,
            variant: self.variant,
            dataset: self.dataset,
            params: self.params,
            result,
            resumed,
            degraded,
            backend: self.backend,
        }
    }
}

/// What phase 2 does with one job.
enum Step {
    /// Replay the logged result and its degraded flag.
    Replay(Result<RunResult, PolymixError>, bool),
    /// Run the binary phase 1 compiled, degrading to the sequential
    /// source, if any, when the kernel fails.
    Rustc(Result<Compiled, PolymixError>, Option<Source>),
    /// Run the closure.
    InProcess(Box<dyn FnOnce() -> Result<RunResult, PolymixError> + Send>),
}

/// One emitted source and what compiling it gave.
struct Compiled {
    src: String,
    bin: Result<CompileOutcome, String>,
}

/// `f` over `items` on up to `workers` scoped threads; the results come
/// back in input order.
fn par_map<T: Send, R: Send>(items: Vec<T>, workers: usize, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i).and_then(|m| lock(m).take()) else {
                    break;
                };
                *lock(&out[i]) = Some(f(item));
            });
        }
    });
    // Every slot is filled: a worker that panics re-raises out of the
    // scope.
    out.into_iter()
        .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// Emits `source` and compiles it into the binary cache, retrying
/// transient failures. A compile error is kept for phase 2 to record.
fn compile(
    source: Source,
    label: &str,
    runner: &Runner,
    cfg: &SweepConfig,
) -> Result<Compiled, PolymixError> {
    let src = source()?;
    let bin = ensure(&src, label, runner, cfg);
    Ok(Compiled { src, bin })
}

fn ensure(
    src: &str,
    label: &str,
    runner: &Runner,
    cfg: &SweepConfig,
) -> Result<CompileOutcome, String> {
    with_retries(cfg.retries, || {
        ensure_compiled(src, &runner.work_dir, &runner.rustc_flags, label, cfg.compile_timeout)
    })
}

/// Measures one rustc job, and, when the kernel itself fails and the job
/// supplied a `seq_source`, compiles and runs that source instead and
/// reports the result as `degraded`.
fn measure_rustc(
    cell: &Cell,
    built: Result<Compiled, PolymixError>,
    seq_source: Option<Source>,
    runner: &Runner,
    cfg: &SweepConfig,
) -> (Result<RunResult, PolymixError>, bool) {
    let label = cell.label();
    let result = run_compiled(built, &label, cell, runner, cfg);
    if let (Err(e), Some(seq)) = (&result, seq_source) {
        if kernel_failed(e) {
            eprintln!("{label}: parallel run failed ({e}); degrading to a sequential re-run");
            let seq_label = format!("{label}_seq");
            let seq_built = compile(seq, &seq_label, runner, cfg);
            match run_compiled(seq_built, &seq_label, cell, runner, cfg) {
                Ok(r) => return (Ok(r), true),
                // Keep the original (more informative) parallel failure
                // as the job's error cell.
                Err(e2) => eprintln!("{label}: sequential degradation also failed: {e2}"),
            }
        }
    }
    (result, false)
}

/// True when a job failure came from the kernel run itself (as opposed
/// to the emit/build stage or the environment), i.e. when a sequential
/// degradation re-run could still produce a measurement.
fn kernel_failed(e: &PolymixError) -> bool {
    matches!(e, PolymixError::Runner { detail, .. } if is_kernel_failure(detail))
}

/// Runs a compiled binary with transient retry and the stale-binary rule
/// ([`run_cached`]).
fn run_compiled(
    built: Result<Compiled, PolymixError>,
    label: &str,
    cell: &Cell,
    runner: &Runner,
    cfg: &SweepConfig,
) -> Result<RunResult, PolymixError> {
    let Compiled { src, bin } = built?;
    run_cached(
        bin,
        || ensure(&src, label, runner, cfg),
        |bin| with_retries(cfg.retries, || run_binary(bin, label, cfg.run_timeout)),
    )
    .map_err(|detail| PolymixError::runner(&cell.kernel, &cell.variant, detail))
}

/// Retries `f` on transient failures ([`is_transient`]) with
/// 100ms·2^k backoff. Shared with `polymix-service`.
pub fn with_retries<T>(retries: usize, f: impl Fn() -> Result<T, String>) -> Result<T, String> {
    let mut attempt = 0;
    loop {
        match f() {
            Err(e) if attempt < retries && is_transient(&e) => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(100 << attempt.min(6)));
            }
            other => return other,
        }
    }
}

// ---------------------------------------------------------------------
// JSONL results log.
// ---------------------------------------------------------------------

/// Escapes `s` for a JSON string literal. Each run of bytes that needs
/// no escape is copied whole: the bytes escaped (`"`, `\`, below 0x20)
/// are ASCII, so every run ends on a character boundary.
pub fn json_escape(s: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(s.len() + 2);
    let mut run = 0;
    while let Some(n) = find_special(&s.as_bytes()[run..], true) {
        let (i, b) = (run + n, s.as_bytes()[run + n]);
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}

/// The index of the first `"` or `\` in `bytes` (or byte below 0x20,
/// when `control`), tested eight bytes at a time. In a word, a byte `x`
/// has its high bit set in `(x - k) & !x & 0x80` when `x < k` (`k` ≤
/// 0x80); a borrow can mark bytes above a marked one but never below,
/// so the lowest mark is the first match.
fn find_special(bytes: &[u8], control: bool) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |w: u64, k: u64| w.wrapping_sub(ONES * k) & !w & HIGH;
    let mut words = bytes.chunks_exact(8);
    for (k, chunk) in words.by_ref().enumerate() {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        let mut marks =
            below(w ^ (ONES * u64::from(b'"')), 1) | below(w ^ (ONES * u64::from(b'\\')), 1);
        if control {
            marks |= below(w, 0x20);
        }
        if marks != 0 {
            return Some(8 * k + marks.trailing_zeros() as usize / 8);
        }
    }
    let tail = bytes.len() - words.remainder().len();
    let special = |&b: &u8| b == b'"' || b == b'\\' || (control && b < 0x20);
    words.remainder().iter().position(special).map(|n| tail + n)
}

/// Renders one outcome as its JSONL record.
fn record_line(o: &JobOutcome) -> String {
    let params = o
        .params
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let head = format!(
        "{{\"id\":\"{}\",\"backend\":\"{}\",\"kernel\":\"{}\",\"variant\":\"{}\",\"dataset\":\"{}\",\"params\":[{params}]",
        json_escape(&o.id),
        o.backend,
        json_escape(&o.kernel),
        json_escape(&o.variant),
        json_escape(&o.dataset),
    );
    // Degradation only ever replaces a failure with a sequential
    // *measurement*, so the flag appears on `ok` records alone.
    let degraded = if o.degraded {
        ",\"degraded\":\"sequential\"".to_string()
    } else {
        String::new()
    };
    match &o.result {
        Ok(r) => format!(
            "{head},\"status\":\"ok\",\"checksum\":{:e},\"time_s\":{:e},\"gflops\":{:e}{degraded}}}",
            r.checksum, r.time_s, r.gflops
        ),
        Err(e) => format!(
            "{head},\"status\":\"error\",\"stage\":\"{}\",\"detail\":\"{}\"}}",
            e.stage(),
            json_escape(&e.to_string()),
        ),
    }
}

/// A sweep killed mid-append can leave the log without a trailing
/// newline. A later append would then glue its first record onto the
/// torn fragment, corrupting *both* — so before reopening the log for
/// append, terminate the fragment. The fragment's own line stays in
/// place; [`load_results`] skips it (with the one-time warning) and the
/// cell it belonged to re-measures.
fn repair_log_tail(path: &Path) {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut f) = std::fs::OpenOptions::new().read(true).append(true).open(path) else {
        return;
    };
    let Ok(len) = f.seek(SeekFrom::End(0)) else {
        return;
    };
    if len == 0 || f.seek(SeekFrom::End(-1)).is_err() {
        return;
    }
    let mut last = [0u8; 1];
    if f.read_exact(&mut last).is_ok() && last[0] != b'\n' {
        let _ = f.write_all(b"\n");
    }
}

/// Loads previously recorded outcomes ((id, backend) → (result,
/// degraded)) from a JSONL log. Records without a `backend` field (logs
/// written before the vm backend existed) load as `"rustc"` cells —
/// the only backend those sweeps could have used. Unparseable lines
/// (e.g. one truncated by a crash mid-append, the torn trailing line of
/// a killed sweep) are tolerated: each is skipped with a one-time
/// warning naming how many lines were dropped, and the cells they
/// belonged to simply re-measure on resume. Later records win over
/// earlier ones with the same (id, backend).
#[allow(clippy::type_complexity)]
pub fn load_results(path: &Path) -> HashMap<(String, String), (Result<RunResult, PolymixError>, bool)> {
    let mut out = HashMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_entry(line) {
            Some((key, entry)) => {
                out.insert(key, entry);
            }
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!(
            "warning: results log {}: skipped {skipped} unparseable line(s) \
             (torn append from an interrupted sweep?); the affected cells \
             will be re-measured",
            path.display()
        );
    }
    out
}

/// Parses one results-log line into `((id, backend), (result,
/// degraded))`; `None` when the line is syntactically broken *or*
/// semantically incomplete (missing id / status / measurement fields) —
/// both shapes a torn append can produce. A missing `backend` field
/// reads as `"rustc"` (pre-vm logs).
#[allow(clippy::type_complexity)]
fn parse_entry(line: &str) -> Option<((String, String), (Result<RunResult, PolymixError>, bool))> {
    let rec = parse_record(line)?;
    let id = rec.str_field("id")?;
    let backend = rec.str_field("backend").unwrap_or("rustc");
    let result = match rec.str_field("status")? {
        "ok" => Ok(RunResult {
            checksum: rec.num_field("checksum")?,
            time_s: rec.num_field("time_s")?,
            gflops: rec.num_field("gflops")?,
        }),
        "error" => {
            let kernel = rec.str_field("kernel").unwrap_or("?").to_string();
            let variant = rec.str_field("variant").unwrap_or("?").to_string();
            let detail = rec.str_field("detail").unwrap_or("").to_string();
            Err(error_for_stage(
                rec.str_field("stage").unwrap_or("runner"),
                kernel,
                variant,
                detail,
            ))
        }
        _ => return None,
    };
    let degraded = rec.str_field("degraded") == Some("sequential");
    Some(((id.to_string(), backend.to_string()), (result, degraded)))
}

/// Reconstructs a stage-correct [`PolymixError`] from a log record, so a
/// resumed sweep renders the same `error(<stage>)` cell it did live.
fn error_for_stage(stage: &str, kernel: String, variant: String, detail: String) -> PolymixError {
    match stage {
        "build" => PolymixError::build(kernel, detail),
        "scheduling" => PolymixError::scheduling(kernel, 0, Vec::new(), detail),
        "legality" => PolymixError::Legality { kernel, detail },
        "transform" => PolymixError::transform(variant, detail),
        "codegen" => PolymixError::codegen(kernel, detail),
        _ => PolymixError::runner(kernel, variant, detail),
    }
}

/// A parsed flat JSON object (string keys; string / number / array
/// values) — exactly the shape [`record_line`] emits. Hand-rolled
/// because the workspace is offline and dependency-free by policy.
/// Shared with `polymix-service` (wire protocol and persistent cache
/// entries), which uses the same flat-object grammar.
pub struct Record {
    fields: Vec<(String, Value)>,
}

enum Value {
    Str(String),
    Num(f64),
    Arr(Vec<f64>),
}

impl Record {
    /// The string value of `key`, if present with that type.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    /// The numeric value of `key`, if present with that type.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::Num(x) if k == key => Some(*x),
            _ => None,
        })
    }

    /// The numeric-array value of `key`, if present with that type.
    pub fn arr_field(&self, key: &str) -> Option<&[f64]> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::Arr(xs) if k == key => Some(xs.as_slice()),
            _ => None,
        })
    }
}

/// Parses one flat JSONL record; `None` on any syntax violation.
pub fn parse_record(line: &str) -> Option<Record> {
    let mut p = Parser {
        text: line,
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Some(Record { fields });
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        fields.push((key, value));
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => return Some(Record { fields }),
            _ => return None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek()?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.text.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return None,
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash as
                    // one slice: both are ASCII, so the run ends on a
                    // character boundary of `text`.
                    let run = find_special(&self.text.as_bytes()[self.pos..], false)?;
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Option<f64> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos].parse().ok()
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut arr = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Some(Value::Arr(arr));
                }
                loop {
                    self.skip_ws();
                    arr.push(self.number()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Some(Value::Arr(arr));
                        }
                        _ => return None,
                    }
                }
            }
            _ => self.number().map(Value::Num),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_outcome(id: &str) -> JobOutcome {
        JobOutcome {
            id: id.into(),
            kernel: "gemm".into(),
            variant: "poly+ast".into(),
            dataset: "small".into(),
            params: vec![128, 128, 128],
            result: Ok(RunResult {
                checksum: 123.456,
                time_s: 0.0042,
                gflops: 2.34,
            }),
            resumed: false,
            degraded: false,
            backend: "rustc",
        }
    }

    fn key(id: &str, backend: &str) -> (String, String) {
        (id.to_string(), backend.to_string())
    }

    #[test]
    fn record_roundtrip_ok() {
        let line = record_line(&ok_outcome("gemm:poly+ast:small"));
        let map = {
            let mut m = HashMap::new();
            let rec = parse_record(&line).expect("parses");
            assert_eq!(rec.str_field("status"), Some("ok"));
            m.insert(rec.str_field("id").unwrap().to_string(), ());
            m
        };
        assert!(map.contains_key("gemm:poly+ast:small"));
        let dir = std::env::temp_dir().join(format!("polymix-jsonl-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("roundtrip.jsonl");
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let loaded = load_results(&path);
        let (result, degraded) = &loaded[&key("gemm:poly+ast:small", "rustc")];
        let r = result.as_ref().expect("ok record");
        assert!((r.checksum - 123.456).abs() < 1e-9);
        assert!((r.gflops - 2.34).abs() < 1e-9);
        assert!(!*degraded, "plain ok record is not degraded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_roundtrip_degraded_preserves_flag() {
        let mut o = ok_outcome("seidel:poly+ast:small");
        o.degraded = true;
        let line = record_line(&o);
        assert!(line.contains("\"degraded\":\"sequential\""), "{line}");
        let path = std::env::temp_dir().join(format!(
            "polymix-jsonl-deg-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let loaded = load_results(&path);
        let (result, degraded) = &loaded[&key("seidel:poly+ast:small", "rustc")];
        assert!(result.is_ok(), "degraded record still carries a measurement");
        assert!(*degraded, "resume must replay the degraded marker");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_roundtrip_error_preserves_stage() {
        let mut o = ok_outcome("adi:pocc:small");
        o.result = Err(PolymixError::runner(
            "adi",
            "pocc",
            "timeout: adi_pocc exceeded 5s (killed)\nwith \"quotes\" and \\slashes",
        ));
        let line = record_line(&o);
        let rec = parse_record(&line).expect("parses");
        assert_eq!(rec.str_field("status"), Some("error"));
        assert_eq!(rec.str_field("stage"), Some("runner"));
        let path = std::env::temp_dir().join(format!("polymix-jsonl-err-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let loaded = load_results(&path);
        let e = loaded[&key("adi:pocc:small", "rustc")]
            .0
            .as_ref()
            .expect_err("error record");
        assert_eq!(e.cell(), "error(runner)");
        assert!(e.to_string().contains("timeout"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_results_skips_corrupt_lines_and_keeps_last() {
        let path = std::env::temp_dir().join(format!("polymix-jsonl-cor-{}.jsonl", std::process::id()));
        let good1 = record_line(&ok_outcome("a"));
        let mut newer = ok_outcome("a");
        if let Ok(r) = &mut newer.result {
            r.gflops = 9.0;
        }
        let good2 = record_line(&newer);
        // A line truncated mid-append (crash) plus garbage must both be
        // skipped without poisoning the rest of the log.
        let truncated = &good1[..good1.len() / 2];
        std::fs::write(&path, format!("{good1}\n{truncated}\nnot json\n{good2}\n")).unwrap();
        let loaded = load_results(&path);
        assert_eq!(loaded.len(), 1);
        let r = loaded[&key("a", "rustc")].0.as_ref().unwrap();
        assert!((r.gflops - 9.0).abs() < 1e-12, "last record wins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn backend_keys_are_distinct_and_legacy_records_load_as_rustc() {
        let mut vm = ok_outcome("cell");
        vm.backend = "vm";
        if let Ok(r) = &mut vm.result {
            r.gflops = 7.0;
        }
        let line_rustc = record_line(&ok_outcome("cell"));
        let line_vm = record_line(&vm);
        assert!(line_rustc.contains("\"backend\":\"rustc\""), "{line_rustc}");
        assert!(line_vm.contains("\"backend\":\"vm\""), "{line_vm}");
        // A record written before the vm backend existed has no backend
        // field at all; it must load as a rustc cell.
        let legacy = "{\"id\":\"old\",\"kernel\":\"k\",\"variant\":\"v\",\
                      \"dataset\":\"mini\",\"params\":[4],\"status\":\"ok\",\
                      \"checksum\":1e0,\"time_s\":1e-3,\"gflops\":2e0}";
        let path = std::env::temp_dir().join(format!(
            "polymix-jsonl-bk-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, format!("{line_rustc}\n{line_vm}\n{legacy}\n")).unwrap();
        let loaded = load_results(&path);
        assert_eq!(loaded.len(), 3, "vm and rustc cells with one id stay distinct");
        let r_rustc = loaded[&key("cell", "rustc")].0.as_ref().unwrap();
        let r_vm = loaded[&key("cell", "vm")].0.as_ref().unwrap();
        assert!((r_rustc.gflops - 2.34).abs() < 1e-9);
        assert!((r_vm.gflops - 7.0).abs() < 1e-9);
        assert!(loaded.contains_key(&key("old", "rustc")), "legacy default");
        assert!(!loaded.contains_key(&key("old", "vm")));
        let _ = std::fs::remove_file(&path);
    }

    /// Tables and figures degrade to a one-thread emission of the same
    /// program; the tuner does not degrade at all.
    #[test]
    fn rustc_work_carries_a_one_thread_source_only_when_degrading() {
        use crate::variants::{build_variant, Variant};
        use polymix_dl::Machine;
        let k = polymix_polybench::kernel_by_name("gemm").expect("gemm");
        let params = k.dataset("mini").params;
        let prog = build_variant(&k, Variant::PolyAst, &Machine::host()).expect("builds");
        let build = {
            let k = k.clone();
            move || build_variant(&k, Variant::PolyAst, &Machine::host())
        };
        let JobWork::Rustc { source, seq_source } = rustc_work(&k, &params, 4, 3, build.clone(), true)
        else {
            panic!("rustc_work built a non-rustc job");
        };
        let parallel = source().expect("emits");
        let seq = seq_source.expect("degradation on")().expect("emits");
        assert_eq!(parallel, emit_source(&k, &prog, &params, 4, 3));
        assert_eq!(seq, emit_source(&k, &prog, &params, 1, 3));
        assert_ne!(parallel, seq, "gemm's poly+ast source has a parallel region");
        let JobWork::Rustc { seq_source, .. } = rustc_work(&k, &params, 4, 3, build, false) else {
            panic!("rustc_work built a non-rustc job");
        };
        assert!(seq_source.is_none(), "degradation off");
    }

    /// The definition of [`json_escape`], one `char` at a time.
    fn json_escape_by_char(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Seeded strings over every byte below 0x20, `"`, `\`, `/`, ASCII
    /// and multi-byte UTF-8, plus the served source of every kernel: the
    /// escape equals its definition and `parse_record` reads it back.
    #[test]
    fn json_escape_equals_its_definition_and_round_trips() {
        use crate::variants::{build_variant, Variant};
        use polymix_dl::Machine;
        let alphabet: Vec<char> = (0u8..0x20)
            .map(char::from)
            .chain(['"', '\\', '/', 'a', ' ', '}', 'é', '−', '𝛼'])
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut strings: Vec<String> = (0..2000)
            .map(|_| {
                let len = next(48);
                (0..len).map(|_| alphabet[next(alphabet.len())]).collect()
            })
            .collect();
        let kernels = polymix_polybench::all_kernels()
            .into_iter()
            .chain(polymix_polybench::extended_kernels());
        for k in kernels {
            let prog = build_variant(&k, Variant::PolyAst, &Machine::host()).expect("builds");
            strings.push(emit_source(&k, &prog, &k.dataset("mini").params, 2, 1));
        }
        for s in &strings {
            let escaped = json_escape(s);
            assert_eq!(escaped, json_escape_by_char(s), "{s:?}");
            let rec = parse_record(&format!("{{\"s\":\"{escaped}\"}}")).expect("parses");
            assert_eq!(rec.str_field("s"), Some(s.as_str()));
        }
    }

    #[test]
    fn parse_record_skips_json_whitespace() {
        let rec = parse_record("{\r\n  \"kernel\": \"gemm\",\n\t\"params\": [\n 1,\n 2\n ]\n}\n")
            .expect("pretty-printed object parses");
        assert_eq!(rec.str_field("kernel"), Some("gemm"));
        assert_eq!(rec.arr_field("params"), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn json_escape_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let rec = parse_record("{\"k\":\"a\\u0041\\\"b\"}").unwrap();
        assert_eq!(rec.str_field("k"), Some("aA\"b"));
        // Unescaped scalars of every UTF-8 width pass through whole.
        let rec = parse_record("{\"k\":\"aé−𝛼z\"}").unwrap();
        assert_eq!(rec.str_field("k"), Some("aé−𝛼z"));
    }
}
