//! The measurement pipeline: emit → `rustc -O` → run → parse.
//!
//! Crash-safety invariants (relied on by the parallel [`crate::sweep`]
//! executor):
//!
//! * binaries are compiled to a private temp path and atomically renamed
//!   into the cache, so a killed `rustc` can never leave a half-written
//!   binary where the cache lookup would execute it;
//! * a per-id lockfile makes concurrent compilations of the same source
//!   collapse to exactly one `rustc` invocation;
//! * every child process (rustc and the measured kernel) runs under a
//!   wall-clock deadline and is killed — not waited on forever — when it
//!   exceeds it;
//! * a *cached* binary that fails to execute (e.g. a truncated artifact
//!   predating the atomic rename) is deleted and recompiled once instead
//!   of failing the job.

use polymix_ast::tree::Program;
use polymix_codegen::emit::{emit_rust, EmitOptions};
use polymix_polybench::Kernel;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Default wall-clock budget for one `rustc` invocation.
pub const DEFAULT_COMPILE_TIMEOUT: Duration = Duration::from_secs(600);
/// Default wall-clock budget for one measured kernel run.
pub const DEFAULT_RUN_TIMEOUT: Duration = Duration::from_secs(600);

/// The FNV-1a offset basis, the standard starting value of [`fnv1a64`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `data`, starting from `basis` ([`FNV_OFFSET`], a
/// second independent basis, or a running hash to continue). Every
/// stable hash in the workspace is this one: the binary cache key, the
/// service's canonical keys, request fingerprints and entry checksums
/// must be stable across rustc releases, which rules out
/// `DefaultHasher` (its algorithm is explicitly unspecified and has
/// changed between releases, silently invalidating or — worse —
/// aliasing cached keys).
pub fn fnv1a64(data: &[u8], basis: u64) -> u64 {
    let [hash] = fnv1a64_lanes(data, [basis]);
    hash
}

/// [`fnv1a64`] from each of `bases` in one pass over `data`. The lanes
/// are independent, so their multiplies overlap instead of queueing.
pub fn fnv1a64_lanes<const N: usize>(data: &[u8], mut bases: [u64; N]) -> [u64; N] {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in data {
        for hash in &mut bases {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    bases
}

/// Stable cache key over the emitted source and the rustc flags.
fn cache_key(src: &str, rustc_flags: &[String]) -> u64 {
    let mut h = fnv1a64(src.as_bytes(), FNV_OFFSET);
    for f in rustc_flags {
        // Separator byte keeps ["-C","x"] distinct from ["-Cx"].
        h = fnv1a64(f.as_bytes(), h);
        h = fnv1a64(&[0xff], h);
    }
    h
}

/// True when a run failure is the *kernel's* fault — it ran and failed
/// (deadline overrun, a poisoned parallel runtime, a non-zero exit,
/// garbage output) — rather than the environment's (spawn refusal,
/// lockfile contention, a compile error). Only kernel failures are worth
/// a `degraded(sequential)` re-run: an environment failure would hit the
/// sequential attempt just the same, and a compile error has no working
/// binary in either configuration.
pub fn is_kernel_failure(detail: &str) -> bool {
    // Compile-stage deadlines also report `timeout:` ("rustc exceeded",
    // "waited …s for a concurrent compile"), but there is no binary to
    // degrade to — a sequential re-run would recompile and stall again.
    let compile_stage_timeout =
        detail.contains("rustc exceeded") || detail.contains("concurrent compile");
    (detail.starts_with("timeout") && !compile_stage_timeout)
        || detail.contains("runtime_error")
        || detail.contains("exited with")
        || detail.contains("unparseable output")
}

/// Parsed output of one standalone-program run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Checksum over the written arrays (for cross-variant validation).
    pub checksum: f64,
    /// Best wall time over the configured repetitions, seconds.
    pub time_s: f64,
    /// GFLOP/s derived from the kernel's FLOP formula.
    pub gflops: f64,
}

/// Where and how a sweep compiles and runs emitted programs: the binary
/// cache (keyed by source hash), workers, repetitions and rustc flags.
pub struct Runner {
    /// Working directory for sources and binaries.
    pub work_dir: PathBuf,
    /// Worker threads for parallel constructs.
    pub threads: usize,
    /// Timing repetitions per program (best is reported).
    pub reps: usize,
    /// Extra rustc flags (defaults to `-O -C target-cpu=native`).
    pub rustc_flags: Vec<String>,
    /// Wall-clock budget for one `rustc` invocation, for a caller to hand
    /// to [`SweepConfig`](crate::sweep::SweepConfig): the sweep reads the
    /// config's.
    pub compile_timeout: Duration,
    /// Wall-clock budget for one measured kernel run, likewise.
    pub run_timeout: Duration,
}

/// The shared binary-cache directory: `$POLYMIX_BENCH_DIR` if set,
/// otherwise `<workspace root>/target/polymix-bench`. Resolving against
/// the workspace root (the ancestor of this crate's manifest dir) rather
/// than the CWD keeps sweeps launched from different directories (e.g.
/// `ci.sh` vs a crate dir) on one cache instead of silently maintaining
/// disjoint ones.
pub fn default_work_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("POLYMIX_BENCH_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")); // …/crates/bench
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|ws| ws.join("target/polymix-bench"))
        .unwrap_or_else(|| PathBuf::from("target/polymix-bench"))
}

impl Runner {
    /// A runner writing under [`default_work_dir`].
    pub fn new(threads: usize) -> Runner {
        Runner {
            work_dir: default_work_dir(),
            threads,
            reps: 2,
            rustc_flags: vec![
                "--edition=2021".into(),
                "-O".into(),
                "-C".into(),
                "target-cpu=native".into(),
            ],
            compile_timeout: DEFAULT_COMPILE_TIMEOUT,
            run_timeout: DEFAULT_RUN_TIMEOUT,
        }
    }
}

/// Emits the standalone measurement program for `kernel`/`prog` at
/// `params`. Standalone (rather than a [`Runner`] method) so sweep jobs
/// can emit on worker threads without sharing the runner.
pub fn emit_source(
    kernel: &Kernel,
    prog: &Program,
    params: &[i64],
    threads: usize,
    reps: usize,
) -> String {
    let opts = EmitOptions {
        params: params.to_vec(),
        flops: (kernel.flops)(params),
        threads,
        init_rust: Some(kernel.init_rust(&prog.scop)),
        reps,
    };
    emit_rust(prog, &opts)
}

/// Compiles `src` (cached by content hash) and executes it, parsing the
/// `checksum:` / `time_s:` / `gflops:` lines, under the default stage
/// timeouts.
pub fn compile_and_run(
    src: &str,
    work_dir: &std::path::Path,
    rustc_flags: &[String],
    label: &str,
) -> Result<RunResult, String> {
    let compile = || ensure_compiled(src, work_dir, rustc_flags, label, DEFAULT_COMPILE_TIMEOUT);
    run_cached(compile(), compile, |bin| run_binary(bin, label, DEFAULT_RUN_TIMEOUT))
}

/// Runs the binary `compiled` left with `run`, under the stale-binary
/// rule: a *cached* binary that fails other than by timeout (spawn
/// error, crash, garbage output) is assumed to be a stale or truncated
/// artifact from an earlier, killed sweep, so it is deleted, rebuilt
/// once with `compile`, and rerun. A run *timeout* is never retried —
/// rebuilding an infinite loop would only double the stall. The sweep
/// compiles every job before it measures any, so it hands in the
/// outcome of that earlier compile.
pub(crate) fn run_cached(
    compiled: Result<CompileOutcome, String>,
    compile: impl Fn() -> Result<CompileOutcome, String>,
    run: impl Fn(&Path) -> Result<RunResult, String>,
) -> Result<RunResult, String> {
    let compiled = compiled?;
    match run(&compiled.bin_path) {
        Err(e) if !compiled.freshly_compiled && !e.starts_with("timeout") => {
            let _ = std::fs::remove_file(&compiled.bin_path);
            compile()
                .and_then(|rebuilt| run(&rebuilt.bin_path))
                .map_err(|e2| format!("{e2} (cache invalidated after: {e})"))
        }
        other => other,
    }
}

/// Where [`ensure_compiled`] left the binary, and whether this call was
/// the one that ran `rustc` (exactly one caller per distinct source
/// observes `freshly_compiled`).
#[derive(Clone, Debug)]
pub struct CompileOutcome {
    /// The cached binary, ready to execute.
    pub bin_path: PathBuf,
    /// `true` iff this call invoked `rustc` (cache miss it won).
    pub freshly_compiled: bool,
}

/// Compiles `src` into the binary cache under `work_dir` (keyed by
/// content + flags) unless already present, and returns the binary path.
/// `label` only names the cell in error messages: two labels asking for
/// the same source share one binary and one `rustc` run.
///
/// Concurrency-safe across threads *and* processes sharing `work_dir`:
/// a `create_new` lockfile elects exactly one compiler per id; everyone
/// else waits for the atomic rename to land. A lockfile older than the
/// compile timeout is presumed left by a crashed process and is stolen.
pub fn ensure_compiled(
    src: &str,
    work_dir: &Path,
    rustc_flags: &[String],
    label: &str,
    timeout: Duration,
) -> Result<CompileOutcome, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| e.to_string())?;
    // The leading letter keeps the file stem a valid crate name.
    let id = format!("k{:016x}", cache_key(src, rustc_flags));
    let src_path = work_dir.join(format!("{id}.rs"));
    let bin_path = work_dir.join(&id);
    let lock_path = work_dir.join(format!("{id}.lock"));
    // Waiters may sit behind a full compile, so their deadline is one
    // compile budget on top of their own.
    let deadline = Instant::now() + timeout + timeout;
    loop {
        if bin_path.exists() {
            return Ok(CompileOutcome {
                bin_path,
                freshly_compiled: false,
            });
        }
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(_) => {
                // Between the exists() check and winning the lock, the
                // previous holder may have finished: re-check, then
                // compile. Always release the lock, even on failure.
                let result = if bin_path.exists() {
                    Ok(CompileOutcome {
                        bin_path: bin_path.clone(),
                        freshly_compiled: false,
                    })
                } else {
                    compile_locked(src, work_dir, rustc_flags, label, timeout, &id, &src_path)
                        .map(|bin_path| CompileOutcome {
                            bin_path,
                            freshly_compiled: true,
                        })
                };
                let _ = std::fs::remove_file(&lock_path);
                return result;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if lock_is_stale(&lock_path, timeout) {
                    // Steal by *renaming* the stale lock aside, never by
                    // unlinking in place: with a bare remove_file, two
                    // stealers can both observe staleness, one wins the
                    // re-election, and the other's delayed remove then
                    // deletes the winner's *fresh* lock — electing a
                    // second concurrent compiler for the same id. The
                    // rename is atomic; exactly one stealer succeeds and
                    // the loser just re-enters the election.
                    let grave = work_dir.join(format!("{id}.lock.stale.{}", unique_suffix()));
                    if std::fs::rename(&lock_path, &grave).is_ok() {
                        let _ = std::fs::remove_file(&grave);
                        // The crashed holder may also have left a partial
                        // `.tmp.*` artifact behind; reap anything old
                        // enough that no live compile can own it.
                        clean_stale_partials(work_dir, &id, timeout);
                    }
                    continue;
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "timeout: waited {}s for a concurrent compile of {label}",
                        (timeout + timeout).as_secs()
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(format!("lockfile {}: {e}", lock_path.display())),
        }
    }
}

/// The compile step proper, entered only while holding the id lockfile:
/// write source, run `rustc` to a temp path under a deadline, rename.
fn compile_locked(
    src: &str,
    work_dir: &Path,
    rustc_flags: &[String],
    label: &str,
    timeout: Duration,
    id: &str,
    src_path: &Path,
) -> Result<PathBuf, String> {
    std::fs::write(src_path, src).map_err(|e| e.to_string())?;
    let bin_path = work_dir.join(id);
    // The suffix must be unique per *invocation*, not per process: after
    // a stale-lock steal, a re-elected compiler in the same process (the
    // sweep's workers are threads) would otherwise share its tmp path
    // with the one it displaced and corrupt the atomic publish.
    let tmp_path = work_dir.join(format!("{id}.tmp.{}", unique_suffix()));
    let child = Command::new("rustc")
        .args(rustc_flags)
        .arg("-o")
        .arg(&tmp_path)
        .arg(src_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("rustc spawn: {e}"))?;
    let out = match wait_with_deadline(child, timeout) {
        Err(e) => {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(format!("rustc wait: {e}"));
        }
        Ok(None) => {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(format!(
                "timeout: rustc exceeded {}s for {label}",
                timeout.as_secs()
            ));
        }
        Ok(Some(out)) => out,
    };
    if !out.status.success() {
        let _ = std::fs::remove_file(&tmp_path);
        return Err(format!(
            "rustc failed for {label}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    // Atomic publish: the cache never exposes a partially written binary.
    std::fs::rename(&tmp_path, &bin_path).map_err(|e| format!("cache rename: {e}"))?;
    Ok(bin_path)
}

/// Process-id + per-process counter: unique across every thread of every
/// process sharing the cache directory, including re-elections within
/// one process.
fn unique_suffix() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Removes `<id>.tmp.*` partial artifacts older than the compile budget:
/// droppings of a compiler that was killed mid-`rustc`. Age-gated so a
/// *live* concurrent compile's tmp file is never reaped.
fn clean_stale_partials(work_dir: &Path, id: &str, timeout: Duration) {
    let prefix = format!("{id}.tmp.");
    let Ok(entries) = std::fs::read_dir(work_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with(&prefix) {
            continue;
        }
        let old = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > timeout);
        if old {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// A lockfile whose mtime predates the compile budget belongs to a
/// process that died without cleaning up.
fn lock_is_stale(lock_path: &Path, timeout: Duration) -> bool {
    std::fs::metadata(lock_path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age > timeout)
}

/// Executes a cached binary under a wall-clock deadline and parses its
/// `checksum:` / `time_s:` / `gflops:` output. A deadline overrun kills
/// the process and reports a `timeout:`-prefixed error.
pub fn run_binary(bin_path: &Path, label: &str, timeout: Duration) -> Result<RunResult, String> {
    let child = Command::new(bin_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("run spawn: {e}"))?;
    let out = match wait_with_deadline(child, timeout) {
        Err(e) => return Err(format!("run wait: {e}")),
        Ok(None) => {
            return Err(format!(
                "timeout: {label} exceeded {}s (killed)",
                timeout.as_secs()
            ))
        }
        Ok(Some(out)) => out,
    };
    if !out.status.success() {
        return Err(format!(
            "{label} exited with {:?}:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_output(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| format!("{label}: unparseable output"))
}

/// Waits for `child` up to `timeout`, draining its piped stdout/stderr
/// on background threads (so a chatty child never deadlocks on a full
/// pipe). Returns `Ok(None)` — after killing the child — on timeout.
fn wait_with_deadline(mut child: Child, timeout: Duration) -> std::io::Result<Option<Output>> {
    fn drain<R: Read + Send + 'static>(pipe: Option<R>) -> std::thread::JoinHandle<Vec<u8>> {
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            if let Some(mut p) = pipe {
                let _ = p.read_to_end(&mut buf);
            }
            buf
        })
    }
    let out_pipe = drain(child.stdout.take());
    let err_pipe = drain(child.stderr.take());
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait()? {
            Some(status) => {
                return Ok(Some(Output {
                    status,
                    stdout: out_pipe.join().unwrap_or_default(),
                    stderr: err_pipe.join().unwrap_or_default(),
                }))
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                // Reader threads see EOF once the child is reaped.
                let _ = out_pipe.join();
                let _ = err_pipe.join();
                return Ok(None);
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn parse_output(stdout: &str) -> Option<RunResult> {
    // Exact `<key>:` matching, value = everything after the first `:`.
    // A `starts_with(key)` scan would let a future `time_s_total:` or
    // `checksum_b:` line silently shadow the intended field.
    let grab = |key: &str| -> Option<f64> {
        stdout
            .lines()
            .find_map(|l| l.split_once(':').filter(|(k, _)| *k == key))?
            .1
            .trim()
            .parse()
            .ok()
    };
    Some(RunResult {
        checksum: grab("checksum")?,
        time_s: grab("time_s")?,
        gflops: grab("gflops")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{build_variant, Variant};
    use polymix_dl::Machine;
    use polymix_polybench::kernel_by_name;

    #[test]
    fn kernel_failures_are_distinguished_from_environment_failures() {
        // Degradable: the kernel ran (or was run) and failed.
        assert!(is_kernel_failure("timeout: gemm_par exceeded 5s (killed)"));
        assert!(is_kernel_failure(
            "gemm_par exited with Some(101):\nruntime_error: worker 3 panicked"
        ));
        assert!(is_kernel_failure("gemm_par exited with Some(1):\n"));
        assert!(is_kernel_failure("gemm_par: unparseable output"));
        // Not degradable: the environment failed or the binary never
        // existed; a sequential re-run would fail identically.
        assert!(!is_kernel_failure("run spawn: Resource temporarily unavailable"));
        assert!(!is_kernel_failure("lockfile /tmp/x.lock: Permission denied"));
        assert!(!is_kernel_failure("rustc failed for gemm_par:\nerror[E0308]"));
        // Compile-stage deadlines are `timeout:`-prefixed too, but there
        // is no binary: degrading to sequential would recompile and
        // stall identically.
        assert!(!is_kernel_failure("timeout: rustc exceeded 5s for gemm_par"));
        assert!(!is_kernel_failure(
            "timeout: waited 10s for a concurrent compile of gemm_par"
        ));
    }

    #[test]
    fn parse_output_roundtrip() {
        let out = "checksum: 1.234560e2\ntime_s: 0.004200\ngflops: 2.3400\n";
        let r = parse_output(out).unwrap();
        assert!((r.checksum - 123.456).abs() < 1e-9);
        assert!((r.time_s - 0.0042).abs() < 1e-12);
        assert!((r.gflops - 2.34).abs() < 1e-12);
        assert!(parse_output("garbage").is_none());
    }

    #[test]
    fn parse_output_requires_exact_keys() {
        // Prefix look-alikes must not shadow the real fields, in either
        // order relative to them.
        let out = "checksum_b: 9.0\nchecksum: 2.0\ntime_s_total: 9.0\n\
                   time_s: 0.5\ngflops_peak: 9.0\ngflops: 1.5\n";
        let r = parse_output(out).unwrap();
        assert_eq!((r.checksum, r.time_s, r.gflops), (2.0, 0.5, 1.5));
        // A line with no `:` at all is skipped, not a parse abort.
        assert!(parse_output("checksum\ntime_s: 1\ngflops: 1").is_none());
    }

    #[test]
    fn work_dir_resolves_against_workspace_root() {
        // Independent of the CWD the sweep is launched from.
        if std::env::var("POLYMIX_BENCH_DIR").is_ok() {
            return; // explicit override in effect; nothing to check
        }
        let d = default_work_dir();
        assert!(d.is_absolute(), "work dir must not depend on CWD: {d:?}");
        assert!(d.ends_with("target/polymix-bench"), "{d:?}");
    }

    #[test]
    fn cache_key_is_stable_and_flag_sensitive() {
        // Pinned value: must never change across rustc or std releases,
        // or stale binaries would be reused / rebuilt spuriously.
        assert_eq!(cache_key("fn main() {}", &[]), 0xaa24_4faa_9019_a10f);
        let flags_o = vec!["-O".to_string()];
        let flags_none: Vec<String> = vec![];
        assert_ne!(
            cache_key("fn main() {}", &flags_o),
            cache_key("fn main() {}", &flags_none),
            "flags must feed the key"
        );
        assert_ne!(
            cache_key("fn main() {}", &["-C".into(), "x".into()]),
            cache_key("fn main() {}", &["-Cx".into()]),
            "flag boundaries must feed the key"
        );
    }

    /// End-to-end smoke test: gemm through native and poly+ast must
    /// compile, run, and agree on the checksum.
    #[test]
    fn emitted_variants_agree_on_checksum() {
        let k = kernel_by_name("gemm").unwrap();
        let params = k.dataset("small").params;
        let m = Machine::host();
        let dir = std::env::temp_dir().join("polymix-bench-test");
        let run = |v: Variant, label: &str| {
            let prog = build_variant(&k, v, &m).expect("variant builds");
            let src = emit_source(&k, &prog, &params, 2, 1);
            compile_and_run(&src, &dir, &["-O".into()], label).unwrap()
        };
        let r1 = run(Variant::Native, "gemm_native");
        let r2 = run(Variant::PolyAst, "gemm_polyast");
        let rel = (r1.checksum - r2.checksum).abs() / r1.checksum.abs().max(1.0);
        assert!(rel < 1e-9, "checksums {} vs {}", r1.checksum, r2.checksum);
        assert!(r1.gflops > 0.0 && r2.gflops > 0.0);
    }
}
