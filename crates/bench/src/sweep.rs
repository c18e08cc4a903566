//! Crash-safe parallel sweep executor.
//!
//! The paper's evaluation is measurement-heavy: every table and figure
//! is a sweep over (kernel, variant, dataset) jobs, each of which must
//! emit a standalone program, compile it with `rustc -O`, and run it.
//! This module pipelines those stages across a bounded worker pool while
//! keeping the things that must not be concurrent — the binary cache
//! (exactly-once compiles, atomic publish; see [`crate::runner`]) and
//! the *measured* runs (serialized behind a semaphore so parallel
//! compilation never perturbs timing) — safe.
//!
//! Results stream to an append-only JSONL log (one object per job), so
//! an interrupted sweep can be re-invoked with the same `--results` path
//! and resume by skipping every already-recorded job.

use crate::report::Cli;
use crate::runner::{ensure_compiled, is_kernel_failure, run_binary, RunResult, Runner};
use polymix_ir::error::PolymixError;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// What a sweep job actually executes — the backend seam.
///
/// `Rustc` is the emit → `rustc -O` → spawn round trip (full fidelity);
/// `InProcess` is a closure that measures without leaving the process
/// (the `polymix-vm` bytecode backend). The JSONL log and the resume
/// keys record which backend produced each cell, so vm and rustc
/// measurements of the same job id never cross-satisfy each other.
pub enum JobWork {
    /// Emit standalone Rust, compile, run as a subprocess.
    Rustc {
        /// Builds the emitted Rust source for this job.
        #[allow(clippy::type_complexity)]
        source: Box<dyn FnOnce() -> Result<String, PolymixError> + Send>,
        /// Builds a *sequential* (single-thread) emission of the same
        /// kernel, used as the graceful-degradation fallback: when the
        /// primary run fails at the kernel level (poisoned runtime,
        /// timeout, non-zero exit — see
        /// [`crate::runner::is_kernel_failure`]), the job re-runs this
        /// source and records a `degraded(sequential)` measurement
        /// instead of an error cell. `None` disables degradation.
        #[allow(clippy::type_complexity)]
        seq_source: Option<Box<dyn FnOnce() -> Result<String, PolymixError> + Send>>,
    },
    /// Measure in-process (no subprocess, no filesystem). The closure
    /// still runs under the measurement semaphore so in-process timing
    /// is never perturbed by concurrent measured runs; there is no
    /// retry (nothing transient to retry) and no sequential
    /// degradation (a poisoned vm run is a real, deterministic result).
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

/// One (kernel, variant, dataset) measurement job.
///
/// `work` runs on a worker thread (building the variant on the way); a
/// build failure is recorded as that job's error cell without
/// disturbing other jobs.
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
    /// Worker threads pipelining emit → compile → run.
    pub jobs: usize,
    /// Concurrent *measured* runs (default 1: timing fidelity).
    pub measure_jobs: usize,
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

impl SweepConfig {
    /// Policy from the shared CLI flags (`--jobs`, `--measure-jobs`,
    /// `--compile-timeout`, `--run-timeout`, `--retries`, `--results`).
    pub fn from_cli(cli: &Cli) -> SweepConfig {
        SweepConfig {
            jobs: cli.jobs.max(1),
            measure_jobs: cli.measure_jobs.max(1),
            compile_timeout: Duration::from_secs(cli.compile_timeout_s.max(1)),
            run_timeout: Duration::from_secs(cli.run_timeout_s.max(1)),
            retries: cli.retries,
            results_path: cli.results.as_ref().map(PathBuf::from),
        }
    }
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            jobs: 1,
            measure_jobs: 1,
            compile_timeout: crate::runner::DEFAULT_COMPILE_TIMEOUT,
            run_timeout: crate::runner::DEFAULT_RUN_TIMEOUT,
            retries: 2,
            results_path: None,
        }
    }
}

/// Mutex lock that shrugs off poisoning: a worker that panicked while
/// holding the queue or log lock must not wedge every other worker.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A counting semaphore gating the measured runs.
struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut p = lock(&self.permits);
        while *p == 0 {
            p = self.cv.wait(p).unwrap_or_else(|e| e.into_inner());
        }
        *p -= 1;
    }

    fn release(&self) {
        *lock(&self.permits) += 1;
        self.cv.notify_one();
    }
}

/// Transient failures worth a backoff-retry: the OS refused a spawn
/// (EAGAIN under load), or cache lock coordination glitched. Compile
/// errors and kernel failures are deterministic and final. Public
/// because `polymix-service` applies the same classification to its
/// optimization and cache-persistence failures.
pub fn is_transient(detail: &str) -> bool {
    detail.contains("spawn:") || detail.contains("lockfile") || detail.contains("wait:")
}

/// Runs every job through emit → compile → run on `cfg.jobs` workers and
/// returns outcomes in submission order. Never panics on job failure:
/// each failure becomes that job's `Err` outcome (and JSONL record) and
/// the sweep continues.
pub fn run_sweep(jobs: Vec<SweepJob>, runner: &Runner, cfg: &SweepConfig) -> Vec<JobOutcome> {
    #[allow(clippy::type_complexity)]
    let recorded: HashMap<(String, String), (Result<RunResult, PolymixError>, bool)> = cfg
        .results_path
        .as_deref()
        .map(load_results)
        .unwrap_or_default();
    let log = cfg.results_path.as_ref().and_then(|p| {
        if let Some(dir) = p.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        repair_log_tail(p);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
            .map(Mutex::new)
            .ok()
    });
    let n = jobs.len();
    let queue: Vec<Mutex<Option<SweepJob>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let outcomes: Vec<Mutex<Option<JobOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let measure = Semaphore::new(cfg.measure_jobs.max(1));
    let workers = cfg.jobs.clamp(1, n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let Some(job) = lock(&queue[i]).take() else {
                    continue;
                };
                let backend = job.work.backend();
                let key = (job.id.clone(), backend.to_string());
                let outcome = if let Some((prior, degraded)) = recorded.get(&key) {
                    JobOutcome {
                        id: job.id,
                        kernel: job.kernel,
                        variant: job.variant,
                        dataset: job.dataset,
                        params: job.params,
                        result: prior.clone(),
                        resumed: true,
                        degraded: *degraded,
                        backend,
                    }
                } else {
                    let done = execute_job(job, runner, cfg, &measure);
                    if let Some(log) = &log {
                        let mut f = lock(log);
                        let _ = writeln!(f, "{}", record_line(&done));
                        let _ = f.flush();
                    }
                    done
                };
                *lock(&outcomes[i]) = Some(outcome);
            });
        }
    });
    outcomes
        .into_iter()
        .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// One job's emit → compile → (semaphore) run pipeline, with transient
/// retry, cached-binary invalidation, and — when the kernel itself
/// fails and the job supplied a `seq_source` — a sequential degradation
/// re-run recorded as a `degraded` measurement.
fn execute_job(job: SweepJob, runner: &Runner, cfg: &SweepConfig, measure: &Semaphore) -> JobOutcome {
    let SweepJob {
        id,
        kernel,
        variant,
        dataset,
        params,
        work,
    } = job;
    let backend = work.backend();
    let label = format!("{kernel}_{variant}");
    let mut degraded = false;
    let result = match work {
        JobWork::Rustc { source, seq_source } => {
            let mut result = run_one(source, &label, &kernel, &variant, runner, cfg, measure);
            if let (Err(e), Some(seq)) = (&result, seq_source) {
                if kernel_failed(e) {
                    eprintln!(
                        "{label}: parallel run failed ({e}); degrading to a sequential re-run"
                    );
                    let seq_label = format!("{label}_seq");
                    match run_one(seq, &seq_label, &kernel, &variant, runner, cfg, measure) {
                        Ok(r) => {
                            result = Ok(r);
                            degraded = true;
                        }
                        // Keep the original (more informative) parallel
                        // failure as the job's error cell.
                        Err(e2) => {
                            eprintln!("{label}: sequential degradation also failed: {e2}")
                        }
                    }
                }
            }
            result
        }
        JobWork::InProcess { run } => {
            // In-process measurement still serializes behind the
            // measurement semaphore; a panic inside the closure poisons
            // this cell only, never the sweep.
            measure.acquire();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .unwrap_or_else(|_| {
                    Err(PolymixError::runner(
                        &kernel,
                        &variant,
                        "runtime_error: in-process measurement panicked",
                    ))
                });
            measure.release();
            result
        }
    };
    JobOutcome {
        id,
        kernel,
        variant,
        dataset,
        params,
        result,
        resumed: false,
        degraded,
        backend,
    }
}

/// True when a job failure came from the kernel run itself (as opposed
/// to the emit/build stage or the environment), i.e. when a sequential
/// degradation re-run could still produce a measurement.
fn kernel_failed(e: &PolymixError) -> bool {
    matches!(e, PolymixError::Runner { detail, .. } if is_kernel_failure(detail))
}

/// Emit → compile → (semaphore) run for one source, with transient retry
/// and cached-binary invalidation.
#[allow(clippy::type_complexity)]
fn run_one(
    source: Box<dyn FnOnce() -> Result<String, PolymixError> + Send>,
    label: &str,
    kernel: &str,
    variant: &str,
    runner: &Runner,
    cfg: &SweepConfig,
    measure: &Semaphore,
) -> Result<RunResult, PolymixError> {
    let src = source()?;
    let err = |detail: String| PolymixError::runner(kernel, variant, detail);
    let compile = || {
        with_retries(cfg.retries, || {
            ensure_compiled(
                &src,
                &runner.work_dir,
                &runner.rustc_flags,
                label,
                cfg.compile_timeout,
            )
        })
    };
    let compiled = compile().map_err(&err)?;
    measure.acquire();
    let ran = with_retries(cfg.retries, || {
        run_binary(&compiled.bin_path, label, cfg.run_timeout)
    });
    let ran = match ran {
        // A failing *cached* binary may be a truncated artifact from
        // a killed earlier sweep: invalidate, recompile once, rerun.
        // Timeouts are real results, not cache corruption.
        Err(e) if !compiled.freshly_compiled && !e.starts_with("timeout") => {
            let _ = std::fs::remove_file(&compiled.bin_path);
            match compile() {
                Ok(rebuilt) => run_binary(&rebuilt.bin_path, label, cfg.run_timeout)
                    .map_err(|e2| format!("{e2} (cache invalidated after: {e})")),
                Err(e2) => Err(format!("{e2} (cache invalidated after: {e})")),
            }
        }
        other => other,
    };
    measure.release();
    ran.map_err(err)
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

/// Escapes `s` for a JSON string literal.
pub fn json_escape(s: &str) -> String {
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

/// Prints the `†` legend when any outcome in the sweep was measured via
/// the sequential degradation path, so a rendered table is never left
/// with an unexplained marker.
pub fn print_degraded_legend(outcomes: &[JobOutcome]) {
    if outcomes.iter().any(|o| o.degraded) {
        println!(
            "† degraded(sequential): the parallel kernel failed and the cell \
             reports a single-thread re-run (see EXPERIMENTS.md)"
        );
    }
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
/// Shared with [`crate::autotune`] (tuned-config files) and
/// `polymix-service` (wire protocol and persistent cache entries), which
/// use the same flat-object grammar.
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
        bytes: line.as_bytes(),
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
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        while matches!(self.peek(), Some(b' ' | b'\t')) {
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
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return None,
                    }
                }
                lead => {
                    // Consume one UTF-8 scalar (multi-byte safe). Only the
                    // scalar's own bytes are decoded: validating the whole
                    // rest of the line here made long strings (a served
                    // kernel source) quadratic to parse. A lead byte's
                    // leading ones are the scalar's length (none: ASCII).
                    let len = (lead.leading_ones() as usize).max(1);
                    let scalar = self.bytes.get(self.pos..self.pos + len)?;
                    out.push(std::str::from_utf8(scalar).ok()?.chars().next()?);
                    self.pos += len;
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
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
