//! Crash-safety tests for the sweep executor and the binary cache under
//! contention: exactly-once compiles, truncated-cache recovery, run
//! timeouts that kill runaway kernels, and JSONL resume.
//!
//! These compile tiny real programs with `rustc` (no `-O`, sub-second
//! each) so they exercise the exact process-handling paths the
//! measurement harness uses.

use polymix_bench::runner::{compile_and_run, ensure_compiled, run_binary, RunResult, Runner};
use polymix_bench::sweep::{run_sweep, JobWork, SweepConfig, SweepJob};
use polymix_ir::error::Stage;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("polymix-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create tmp work dir");
    d
}

/// A well-formed measurement program printing the three expected keys.
fn ok_src(tag: u32) -> String {
    format!(
        "fn main() {{\n    println!(\"checksum: {tag}.5\");\n    \
         println!(\"time_s: 0.001\");\n    println!(\"gflops: 1.0\");\n}}\n"
    )
}

/// A kernel "miscompiled" into an infinite loop: never prints, never
/// exits.
const LOOP_SRC: &str = "fn main() { loop { std::hint::spin_loop() } }\n";

/// A kernel whose parallel runtime poisoned itself: it reports a
/// `runtime_error:` diagnostic on stderr and exits 101, exactly like the
/// emitted poisonable protocol (crates/codegen) does after containment.
const POISONED_SRC: &str = "fn main() {\n    \
     eprintln!(\"runtime_error: worker 1 panicked at cell (3, 4): boom\");\n    \
     std::process::exit(101);\n}\n";

fn test_runner(work_dir: PathBuf) -> Runner {
    Runner {
        work_dir,
        threads: 1,
        reps: 1,
        rustc_flags: vec![],
        ..Runner::new(1)
    }
}

fn job(id: &str, src: String) -> SweepJob {
    SweepJob {
        id: id.to_string(),
        kernel: id.to_string(),
        variant: "test".to_string(),
        dataset: "mini".to_string(),
        params: vec![4],
        work: JobWork::Rustc {
            source: Box::new(move || Ok(src)),
            seq_source: None,
        },
    }
}

/// Attach a sequential-fallback source to a rustc job.
fn set_seq(
    j: &mut SweepJob,
    f: Box<dyn FnOnce() -> Result<String, polymix_ir::error::PolymixError> + Send>,
) {
    match &mut j.work {
        JobWork::Rustc { seq_source, .. } => *seq_source = Some(f),
        JobWork::InProcess { .. } => panic!("in-process jobs have no sequential fallback"),
    }
}

/// An in-process job returning a fixed measurement without ever touching
/// `rustc` or the binary cache.
fn vm_job(id: &str, checksum: f64) -> SweepJob {
    SweepJob {
        id: id.to_string(),
        kernel: id.to_string(),
        variant: "test".to_string(),
        dataset: "mini".to_string(),
        params: vec![4],
        work: JobWork::InProcess {
            run: Box::new(move || {
                Ok(RunResult {
                    checksum,
                    time_s: 0.001,
                    gflops: 1.0,
                })
            }),
        },
    }
}

#[test]
fn concurrent_identical_sources_compile_exactly_once() {
    let dir = tmp_dir("contend");
    let src = ok_src(7);
    let flags: Vec<String> = vec![];
    let fresh = AtomicUsize::new(0);
    const N: usize = 8;
    std::thread::scope(|s| {
        for _ in 0..N {
            s.spawn(|| {
                // Every thread must run successfully...
                let r = compile_and_run(&src, &dir, &flags, "contend").expect("run succeeds");
                assert!((r.checksum - 7.5).abs() < 1e-12);
                // ...and at most one observes a cache-miss compile.
                let c = ensure_compiled(&src, &dir, &flags, "contend", Duration::from_secs(120))
                    .expect("compile resolves");
                if c.freshly_compiled {
                    fresh.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(fresh.load(Ordering::Relaxed), 0, "all post-run lookups hit the cache");
    // Exactly one binary, no leftover temp or lock files.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read work dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!names.iter().any(|n| n.contains(".tmp.")), "temp leak: {names:?}");
    assert!(!names.iter().any(|n| n.ends_with(".lock")), "lock leak: {names:?}");
    assert_eq!(
        names.iter().filter(|n| !n.ends_with(".rs")).count(),
        1,
        "exactly one cached binary: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Backdate a file's mtime far into the past so it reads as stale
/// against any compile budget.
fn backdate(path: &std::path::Path) {
    let st = std::process::Command::new("touch")
        .args(["-t", "202001010000"])
        .arg(path)
        .status()
        .expect("touch spawns");
    assert!(st.success(), "touch failed for {}", path.display());
}

/// Crash-at-kill: a compiler killed by the compile deadline leaves its
/// lockfile and a partial `.tmp.*` artifact behind. A retry (or a
/// concurrent tuner worker) arriving later must steal the stale lock,
/// reap the partial, recompile, and leave a clean cache — not wedge on
/// the dead lock or trip over the corpse.
#[test]
fn killed_compile_leftovers_are_stolen_and_reaped() {
    let dir = tmp_dir("crash-at-kill");
    let src = ok_src(6);
    let flags: Vec<String> = vec![];
    // Learn the cache id by compiling once, then erase the binary to
    // restage the cache as if the original compile never finished.
    let primed = ensure_compiled(&src, &dir, &flags, "crashy", Duration::from_secs(120))
        .expect("priming compile");
    let id = primed
        .bin_path
        .file_name()
        .expect("cache id")
        .to_string_lossy()
        .into_owned();
    std::fs::remove_file(&primed.bin_path).expect("unpublish binary");
    // Plant the kill scene: a lockfile and a half-written artifact, both
    // older than any compile budget.
    let dead_lock = dir.join(format!("{id}.lock"));
    let dead_tmp = dir.join(format!("{id}.tmp.99999_0"));
    std::fs::write(&dead_lock, b"").expect("plant lock");
    std::fs::write(&dead_tmp, b"\x7fELF half a binary").expect("plant partial");
    backdate(&dead_lock);
    backdate(&dead_tmp);
    // The retry must succeed promptly (well under the waiter deadline of
    // 2x the budget) by stealing, not by waiting the lock out.
    let t0 = Instant::now();
    let c = ensure_compiled(&src, &dir, &flags, "crashy", Duration::from_secs(120))
        .expect("retry steals the stale lock and recompiles");
    assert!(c.freshly_compiled, "retry must own the recompile");
    assert!(t0.elapsed() < Duration::from_secs(60), "stole, not waited");
    let r = run_binary(&c.bin_path, "crashy", Duration::from_secs(30)).expect("binary runs");
    assert!((r.checksum - 6.5).abs() < 1e-12);
    // The scene is cleaned: no lock, no partials (dead or fresh).
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read work dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!names.iter().any(|n| n.contains(".lock")), "lock leak: {names:?}");
    assert!(!names.iter().any(|n| n.contains(".tmp.")), "partial leak: {names:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Many workers hitting a stale lock at once: the rename-based steal
/// guarantees one re-election. With a bare `remove_file` steal, a slow
/// stealer could delete the *winner's fresh lock*, electing a second
/// compiler that shares the same tmp path — this test closes over that
/// regression by asserting exactly one fresh compile and a clean dir.
#[test]
fn concurrent_stale_lock_steal_elects_exactly_one_compiler() {
    let dir = tmp_dir("steal-race");
    let src = ok_src(8);
    let flags: Vec<String> = vec![];
    let primed = ensure_compiled(&src, &dir, &flags, "steal", Duration::from_secs(120))
        .expect("priming compile");
    let id = primed
        .bin_path
        .file_name()
        .expect("cache id")
        .to_string_lossy()
        .into_owned();
    std::fs::remove_file(&primed.bin_path).expect("unpublish binary");
    let dead_lock = dir.join(format!("{id}.lock"));
    std::fs::write(&dead_lock, b"").expect("plant lock");
    backdate(&dead_lock);
    let fresh = AtomicUsize::new(0);
    const N: usize = 8;
    std::thread::scope(|s| {
        for _ in 0..N {
            s.spawn(|| {
                let c = ensure_compiled(&src, &dir, &flags, "steal", Duration::from_secs(120))
                    .expect("every contender resolves");
                if c.freshly_compiled {
                    fresh.fetch_add(1, Ordering::Relaxed);
                }
                let r = run_binary(&c.bin_path, "steal", Duration::from_secs(30))
                    .expect("binary runs");
                assert!((r.checksum - 8.5).abs() < 1e-12);
            });
        }
    });
    assert_eq!(fresh.load(Ordering::Relaxed), 1, "exactly one re-elected compiler");
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read work dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!names.iter().any(|n| n.contains(".lock")), "lock leak: {names:?}");
    assert!(!names.iter().any(|n| n.contains(".tmp.")), "partial leak: {names:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_cached_binary_is_recompiled_not_trusted() {
    let dir = tmp_dir("truncate");
    let src = ok_src(3);
    let flags: Vec<String> = vec![];
    let c = ensure_compiled(&src, &dir, &flags, "trunc", Duration::from_secs(120))
        .expect("initial compile");
    assert!(c.freshly_compiled);
    // Simulate a binary half-written by a pre-atomic-rename sweep that
    // was killed mid-rustc: the cache entry exists but is garbage.
    std::fs::write(&c.bin_path, b"\x7fELF garbage, not a real binary").expect("truncate");
    assert!(
        run_binary(&c.bin_path, "trunc", Duration::from_secs(10)).is_err(),
        "garbage binary must not run"
    );
    // The full pipeline detects the failing cached binary, invalidates
    // it, recompiles, and succeeds.
    let r = compile_and_run(&src, &dir, &flags, "trunc").expect("recovers by recompiling");
    assert!((r.checksum - 3.5).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache keys on content: a label names the cell in errors, never
/// the binary. Two tuner candidates that emit the same program (Pluto
/// leaving a nest untouched emits the native source byte for byte)
/// share one `rustc` run.
#[test]
fn one_source_under_two_labels_compiles_once() {
    let dir = tmp_dir("labels");
    let src = ok_src(5);
    let flags: Vec<String> = vec![];
    let first = ensure_compiled(&src, &dir, &flags, "gemm_native", Duration::from_secs(120))
        .expect("first compile");
    assert!(first.freshly_compiled);
    let second = ensure_compiled(&src, &dir, &flags, "gemm_pluto-pocc", Duration::from_secs(120))
        .expect("second lookup");
    assert!(!second.freshly_compiled, "a second label must not recompile");
    assert_eq!(second.bin_path, first.bin_path);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn infinite_loop_times_out_without_stalling_other_jobs() {
    let dir = tmp_dir("timeout");
    let runner = test_runner(dir.clone());
    let cfg = SweepConfig {
        jobs: 2,
        run_timeout: Duration::from_secs(2),
        ..SweepConfig::default()
    };
    let t0 = Instant::now();
    let outcomes = run_sweep(
        vec![job("looper", LOOP_SRC.to_string()), job("good", ok_src(1))],
        &runner,
        &cfg,
    );
    let elapsed = t0.elapsed();
    assert_eq!(outcomes.len(), 2);
    let looper = &outcomes[0];
    let err = looper.result.as_ref().expect_err("looper must time out");
    assert_eq!(err.stage(), Stage::Runner);
    assert_eq!(err.cell(), "error(runner)");
    assert!(err.to_string().contains("timeout"), "detail: {err}");
    let good = &outcomes[1];
    assert!(good.result.is_ok(), "good job must complete: {:?}", good.result);
    // Well under the wedge-forever regime: deadline + compile + slack.
    assert!(elapsed < Duration::from_secs(60), "sweep stalled: {elapsed:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jsonl_resume_skips_recorded_jobs_with_zero_recompiles() {
    let dir = tmp_dir("resume");
    let log = dir.join("results.jsonl");
    let runner = test_runner(dir.join("cache-a"));
    let cfg = SweepConfig {
        jobs: 2,
        results_path: Some(log.clone()),
        ..SweepConfig::default()
    };
    let first = run_sweep(
        vec![job("j1", ok_src(1)), job("j2", ok_src(2))],
        &runner,
        &cfg,
    );
    assert!(first.iter().all(|o| o.result.is_ok() && !o.resumed));
    assert!(log.exists(), "sweep must write the JSONL log");

    // Re-invoke against a *fresh* cache dir: if resume works, no source
    // is ever built and no binary is ever compiled.
    let fresh_cache = dir.join("cache-b");
    let runner2 = test_runner(fresh_cache.clone());
    let built = std::sync::Arc::new(AtomicBool::new(false));
    let rebuilt_jobs: Vec<SweepJob> = [(1u32, "j1"), (2, "j2")]
        .into_iter()
        .map(|(tag, id)| SweepJob {
            id: id.to_string(),
            kernel: id.to_string(),
            variant: "test".to_string(),
            dataset: "mini".to_string(),
            params: vec![4],
            work: JobWork::Rustc {
                source: Box::new({
                    let built = built.clone();
                    let src = ok_src(tag);
                    move || {
                        built.store(true, Ordering::Relaxed);
                        Ok(src)
                    }
                }),
                seq_source: None,
            },
        })
        .collect();
    let second = run_sweep(rebuilt_jobs, &runner2, &cfg);
    assert_eq!(second.len(), 2);
    for (a, b) in first.iter().zip(&second) {
        assert!(b.resumed, "{} must be replayed from the log", b.id);
        let (ra, rb) = (a.result.as_ref().expect("ok"), b.result.as_ref().expect("ok"));
        assert_eq!(ra.checksum.to_bits(), rb.checksum.to_bits(), "bit-identical replay");
    }
    assert!(!built.load(Ordering::Relaxed), "resume must not rebuild sources");
    assert!(
        !fresh_cache.exists() || std::fs::read_dir(&fresh_cache).map(|d| d.count()).unwrap_or(0) == 0,
        "resume must not compile anything"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A poisoned parallel kernel with a `seq_source` fallback must produce
/// a `degraded(sequential)` measurement whose checksum matches the
/// sequential reference, record the marker in the JSONL log, and replay
/// it on resume without re-measuring.
#[test]
fn poisoned_kernel_degrades_to_sequential_and_resumes_degraded() {
    let dir = tmp_dir("degrade");
    let log = dir.join("results.jsonl");
    let cache = dir.join("cache");
    let runner = test_runner(cache.clone());
    let cfg = SweepConfig {
        jobs: 2,
        results_path: Some(log.clone()),
        ..SweepConfig::default()
    };
    let mut poisoned = job("poisoned", POISONED_SRC.to_string());
    set_seq(&mut poisoned, Box::new(|| Ok(ok_src(9))));
    let outcomes = run_sweep(vec![poisoned, job("good", ok_src(1))], &runner, &cfg);
    assert_eq!(outcomes.len(), 2);
    let o = &outcomes[0];
    assert!(o.degraded, "poisoned kernel must degrade, not error");
    let r = o.result.as_ref().expect("degraded run still measures");
    // The degraded measurement is exactly what the sequential reference
    // produces (same source → same cached binary → same output).
    let flags: Vec<String> = vec![];
    let reference =
        compile_and_run(&ok_src(9), &cache, &flags, "seq_ref").expect("sequential reference");
    assert_eq!(
        r.checksum.to_bits(),
        reference.checksum.to_bits(),
        "degraded checksum must match the sequential reference"
    );
    assert!(!outcomes[1].degraded, "healthy job is not marked degraded");

    // The JSONL record carries the marker...
    let text = std::fs::read_to_string(&log).expect("log written");
    let rec = text
        .lines()
        .find(|l| l.contains("\"id\":\"poisoned\""))
        .expect("poisoned record");
    assert!(rec.contains("\"degraded\":\"sequential\""), "{rec}");
    // ...and a resume replays it (flag included) without rebuilding.
    let mut resumed_poisoned = job(
        "poisoned",
        "fn main() { panic!(\"resume must not rebuild\") }".to_string(),
    );
    set_seq(
        &mut resumed_poisoned,
        Box::new(|| panic!("resume must not rebuild the fallback either")),
    );
    let second = run_sweep(vec![resumed_poisoned], &runner, &cfg);
    assert!(second[0].resumed, "must replay from the log");
    assert!(second[0].degraded, "degraded marker must survive resume");
    assert_eq!(
        second[0].result.as_ref().expect("ok").checksum.to_bits(),
        r.checksum.to_bits(),
        "bit-identical replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Partial resume over a mixed log: a sweep that recorded one degraded
/// and one healthy job is re-invoked with those two plus a job the log
/// has never seen. The recorded pair must replay (markers intact, no
/// source rebuilt) while the new job compiles and measures fresh — the
/// degraded-replay path and the run-fresh path share one executor pass.
#[test]
fn partial_resume_replays_mixed_log_and_runs_new_jobs() {
    let dir = tmp_dir("partial-resume");
    let log = dir.join("results.jsonl");
    let runner = test_runner(dir.join("cache"));
    let cfg = SweepConfig {
        jobs: 2,
        results_path: Some(log.clone()),
        ..SweepConfig::default()
    };
    let mut poisoned = job("degraded-one", POISONED_SRC.to_string());
    set_seq(&mut poisoned, Box::new(|| Ok(ok_src(9))));
    let first = run_sweep(vec![poisoned, job("healthy", ok_src(2))], &runner, &cfg);
    assert!(first[0].degraded && first[0].result.is_ok());
    assert!(!first[1].degraded && first[1].result.is_ok());

    // Second invocation: both recorded jobs wired to panic if rebuilt,
    // plus a genuinely new job.
    let mut replay_degraded = job(
        "degraded-one",
        "fn main() { panic!(\"resume must not rebuild\") }".to_string(),
    );
    set_seq(
        &mut replay_degraded,
        Box::new(|| panic!("resume must not rebuild the fallback")),
    );
    let replay_healthy = job(
        "healthy",
        "fn main() { panic!(\"resume must not rebuild\") }".to_string(),
    );
    let second = run_sweep(
        vec![replay_degraded, replay_healthy, job("newcomer", ok_src(4))],
        &runner,
        &cfg,
    );
    assert_eq!(second.len(), 3);
    assert!(second[0].resumed && second[0].degraded, "degraded replay");
    assert!(second[1].resumed && !second[1].degraded, "healthy replay");
    assert_eq!(
        second[0].result.as_ref().expect("ok").checksum.to_bits(),
        first[0].result.as_ref().expect("ok").checksum.to_bits(),
        "bit-identical degraded replay"
    );
    let newcomer = &second[2];
    assert!(!newcomer.resumed, "unseen job must run fresh");
    assert!(!newcomer.degraded);
    assert!(
        (newcomer.result.as_ref().expect("new job measures").checksum - 4.5).abs() < 1e-12
    );
    // The fresh measurement lands in the log, so a third invocation
    // replays all three.
    let third = run_sweep(vec![job("newcomer", ok_src(4))], &runner, &cfg);
    assert!(third[0].resumed, "newcomer is recorded after the mixed pass");
    let _ = std::fs::remove_dir_all(&dir);
}

/// When the sequential fallback fails too, the job keeps the original
/// (parallel) failure as its error cell and is not marked degraded.
#[test]
fn failing_fallback_keeps_the_original_error() {
    let dir = tmp_dir("degrade-fail");
    let runner = test_runner(dir.clone());
    let cfg = SweepConfig {
        jobs: 1,
        ..SweepConfig::default()
    };
    let mut j = job("both-poisoned", POISONED_SRC.to_string());
    set_seq(&mut j, Box::new(|| Ok(POISONED_SRC.to_string())));
    let outcomes = run_sweep(vec![j], &runner, &cfg);
    let o = &outcomes[0];
    assert!(!o.degraded);
    let e = o.result.as_ref().expect_err("both runs failed");
    assert_eq!(e.stage(), Stage::Runner);
    assert!(e.to_string().contains("runtime_error"), "detail: {e}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Environmental failures (here: a compile error) must NOT trigger the
/// sequential fallback — degradation is reserved for kernels that ran
/// and failed.
#[test]
fn compile_errors_do_not_degrade() {
    let dir = tmp_dir("no-degrade");
    let runner = test_runner(dir.clone());
    let cfg = SweepConfig {
        jobs: 1,
        ..SweepConfig::default()
    };
    let fallback_built = std::sync::Arc::new(AtomicBool::new(false));
    let mut j = job("bad-compile", "fn main() { not rust at all }".to_string());
    set_seq(
        &mut j,
        Box::new({
            let fallback_built = fallback_built.clone();
            move || {
                fallback_built.store(true, Ordering::Relaxed);
                Ok(ok_src(5))
            }
        }),
    );
    let outcomes = run_sweep(vec![j], &runner, &cfg);
    assert!(outcomes[0].result.is_err(), "compile error stays an error");
    assert!(!outcomes[0].degraded);
    assert!(
        !fallback_built.load(Ordering::Relaxed),
        "fallback must not even be emitted for a compile error"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn trailing JSONL line (the process died mid-append) must not
/// poison resume: the intact records replay, the torn cell is
/// re-measured, and the re-run log ends up complete again.
#[test]
fn torn_trailing_jsonl_line_is_skipped_and_remeasured() {
    let dir = tmp_dir("torn-line");
    let log = dir.join("results.jsonl");
    let runner = test_runner(dir.join("cache-a"));
    let cfg = SweepConfig {
        jobs: 2,
        results_path: Some(log.clone()),
        ..SweepConfig::default()
    };
    let first = run_sweep(
        vec![job("j1", ok_src(1)), job("j2", ok_src(2))],
        &runner,
        &cfg,
    );
    assert!(first.iter().all(|o| o.result.is_ok()));

    // Tear the last record mid-line, as if the sweep died between
    // `write` and the trailing newline reaching disk.
    let text = std::fs::read_to_string(&log).expect("log readable");
    let last_start = text.trim_end().rfind('\n').expect("two records") + 1;
    let torn_id = &text[last_start..]
        [..text[last_start..].find("\"id\"").map_or(8, |p| p + 20)];
    let cut = last_start + (text.len() - last_start) / 2;
    std::fs::write(&log, &text[..cut]).expect("truncate log");
    let _ = torn_id;

    // Identify which job the torn record belonged to so the assertion
    // below can name it: it is whichever id no longer parses from the
    // log.
    let intact: Vec<String> = std::fs::read_to_string(&log)
        .expect("log readable")
        .lines()
        .filter_map(|l| {
            polymix_bench::sweep::parse_record(l)
                .and_then(|r| r.str_field("id").map(str::to_string))
        })
        .collect();
    assert_eq!(intact.len(), 1, "exactly one record must survive the tear");

    // Resume against a fresh cache: the intact cell replays, the torn
    // cell re-measures (and therefore compiles again).
    let runner2 = test_runner(dir.join("cache-b"));
    let second = run_sweep(
        vec![job("j1", ok_src(1)), job("j2", ok_src(2))],
        &runner2,
        &cfg,
    );
    assert_eq!(second.len(), 2);
    for o in &second {
        assert!(o.result.is_ok(), "{} must succeed", o.id);
        assert_eq!(
            o.resumed,
            intact.contains(&o.id),
            "{}: only the intact record may replay; the torn cell must re-measure",
            o.id
        );
    }

    // The log is whole again: both cells parse, so a third run replays
    // everything.
    let third = run_sweep(
        vec![job("j1", ok_src(1)), job("j2", ok_src(2))],
        &test_runner(dir.join("cache-c")),
        &cfg,
    );
    assert!(third.iter().all(|o| o.resumed), "re-measured cell must be re-recorded");
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-process (vm) jobs run on the same executor without ever touching
/// `rustc` or the binary cache, and their outcomes carry the `vm`
/// backend tag.
#[test]
fn in_process_jobs_run_without_compiling() {
    let dir = tmp_dir("inproc");
    let cache = dir.join("cache");
    let runner = test_runner(cache.clone());
    let cfg = SweepConfig {
        jobs: 2,
        ..SweepConfig::default()
    };
    let outcomes = run_sweep(vec![vm_job("v1", 1.5), vm_job("v2", 2.5)], &runner, &cfg);
    assert_eq!(outcomes.len(), 2);
    for (o, want) in outcomes.iter().zip([1.5, 2.5]) {
        assert_eq!(o.backend, "vm");
        assert!(!o.degraded);
        let r = o.result.as_ref().expect("in-process job measures");
        assert!((r.checksum - want).abs() < 1e-12);
    }
    assert!(
        !cache.exists() || std::fs::read_dir(&cache).map(|d| d.count()).unwrap_or(0) == 0,
        "in-process jobs must not populate the binary cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume keys on `(id, backend)`: a recorded rustc cell must never
/// satisfy a vm job with the same id, nor the other way round. Mixing
/// them would let a low-fidelity vm measurement masquerade as a rustc
/// confirmation (or vice versa) across an interrupted two-fidelity
/// tuning run.
#[test]
fn resume_never_crosses_backends_for_the_same_id() {
    let dir = tmp_dir("backend-resume");
    let log = dir.join("results.jsonl");
    let runner = test_runner(dir.join("cache"));
    let cfg = SweepConfig {
        jobs: 2,
        results_path: Some(log.clone()),
        ..SweepConfig::default()
    };
    // Record a rustc cell under id "shared".
    let first = run_sweep(vec![job("shared", ok_src(1))], &runner, &cfg);
    assert!(first[0].result.is_ok() && !first[0].resumed);
    assert_eq!(first[0].backend, "rustc");

    // A vm job with the *same id* must run fresh — the rustc record is a
    // different fidelity and must not cross-satisfy it.
    let second = run_sweep(vec![vm_job("shared", 42.5)], &runner, &cfg);
    assert!(
        !second[0].resumed,
        "vm job must not replay a rustc record with the same id"
    );
    assert_eq!(second[0].backend, "vm");
    assert!((second[0].result.as_ref().expect("ok").checksum - 42.5).abs() < 1e-12);

    // Both records now coexist in the log, tagged by backend.
    let text = std::fs::read_to_string(&log).expect("log written");
    let recs: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"id\":\"shared\""))
        .collect();
    assert_eq!(recs.len(), 2, "one record per (id, backend): {text}");
    assert!(recs.iter().any(|l| l.contains("\"backend\":\"rustc\"")));
    assert!(recs.iter().any(|l| l.contains("\"backend\":\"vm\"")));

    // A third pass with both jobs replays each from its *own* record:
    // the rustc replay keeps the rustc checksum, the vm replay the vm
    // one, and neither builds or runs anything.
    let rustc_again = SweepJob {
        work: JobWork::Rustc {
            source: Box::new(|| panic!("resume must not rebuild")),
            seq_source: None,
        },
        ..job("shared", String::new())
    };
    let vm_again = SweepJob {
        work: JobWork::InProcess {
            run: Box::new(|| panic!("resume must not re-execute")),
        },
        ..job("shared", String::new())
    };
    let third = run_sweep(vec![rustc_again, vm_again], &runner, &cfg);
    assert!(third.iter().all(|o| o.resumed), "both fidelities replay");
    assert_eq!(third[0].backend, "rustc");
    assert_eq!(third[1].backend, "vm");
    assert!((third[0].result.as_ref().expect("ok").checksum - 1.5).abs() < 1e-12);
    assert!((third[1].result.as_ref().expect("ok").checksum - 42.5).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Measured runs take one lock whatever `jobs` is: four workers never
/// overlap two measurements, and a measurement that panics fails its own
/// cell while the others still take their turn.
#[test]
fn measured_runs_take_one_lock_whatever_the_worker_count() {
    let active = std::sync::Arc::new(AtomicUsize::new(0));
    let peak = std::sync::Arc::new(AtomicUsize::new(0));
    let jobs: Vec<SweepJob> = (0..6)
        .map(|i| {
            let (active, peak) = (active.clone(), peak.clone());
            let run = move || {
                peak.fetch_max(active.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                active.fetch_sub(1, Ordering::SeqCst);
                assert!(i != 2, "measurement {i} panics");
                Ok(RunResult {
                    checksum: 1.0,
                    time_s: 0.001,
                    gflops: 1.0,
                })
            };
            SweepJob {
                work: JobWork::InProcess { run: Box::new(run) },
                ..vm_job(&format!("m{i}"), 1.0)
            }
        })
        .collect();
    let cfg = SweepConfig {
        jobs: 4,
        ..SweepConfig::default()
    };
    let dir = tmp_dir("one-lock");
    let outcomes = run_sweep(jobs, &test_runner(dir.clone()), &cfg);
    assert_eq!(peak.load(Ordering::SeqCst), 1, "two measured runs overlapped");
    assert_eq!(outcomes.len(), 6);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.result.is_ok(), i != 2, "{}: {:?}", o.id, o.result);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The names in `dir` (none when it does not exist yet).
fn dir_names(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

/// The sweep compiles every job before it measures any: at four workers,
/// each in-process measurement finds no `rustc` in flight (no temp
/// artifact, no lockfile) and every rustc job's binary already
/// published, wherever it stands in the submission order.
#[test]
fn no_measured_run_overlaps_a_compile() {
    let dir = tmp_dir("two-phase");
    let cache = dir.join("cache");
    const RUSTC_JOBS: u32 = 4;
    let mut jobs = Vec::new();
    for tag in 0..RUSTC_JOBS {
        let cache = cache.clone();
        let run = move || {
            let names = dir_names(&cache);
            assert!(
                !names.iter().any(|n| n.contains(".tmp.") || n.contains(".lock")),
                "a compile is in flight: {names:?}"
            );
            let published = names.iter().filter(|n| !n.ends_with(".rs")).count();
            assert_eq!(published, RUSTC_JOBS as usize, "unpublished binaries: {names:?}");
            Ok(RunResult {
                checksum: 1.0,
                time_s: 0.001,
                gflops: 1.0,
            })
        };
        jobs.push(SweepJob {
            work: JobWork::InProcess { run: Box::new(run) },
            ..vm_job(&format!("v{tag}"), 1.0)
        });
        jobs.push(job(&format!("r{tag}"), ok_src(tag)));
    }
    let cfg = SweepConfig {
        jobs: 4,
        ..SweepConfig::default()
    };
    let outcomes = run_sweep(jobs, &test_runner(cache.clone()), &cfg);
    assert_eq!(outcomes.len(), 2 * RUSTC_JOBS as usize);
    for o in &outcomes {
        assert!(o.result.is_ok(), "{}: {:?}", o.id, o.result);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fresh records reach the log in submission order at any worker count,
/// not in the order the compiles finish.
#[test]
fn the_log_lists_fresh_jobs_in_submission_order() {
    let dir = tmp_dir("log-order");
    let log = dir.join("results.jsonl");
    let cfg = SweepConfig {
        jobs: 4,
        results_path: Some(log.clone()),
        ..SweepConfig::default()
    };
    let jobs = vec![
        job("r1", ok_src(1)),
        job("r2", ok_src(2)),
        vm_job("v1", 1.5),
        job("r3", ok_src(3)),
        vm_job("v2", 2.5),
        job("r4", ok_src(4)),
    ];
    let submitted: Vec<String> = jobs.iter().map(|j| j.id.clone()).collect();
    let outcomes = run_sweep(jobs, &test_runner(dir.join("cache")), &cfg);
    assert!(outcomes.iter().all(|o| o.result.is_ok() && !o.resumed));
    let logged: Vec<String> = std::fs::read_to_string(&log)
        .expect("log written")
        .lines()
        .filter_map(|l| {
            polymix_bench::sweep::parse_record(l)
                .and_then(|r| r.str_field("id").map(str::to_string))
        })
        .collect();
    assert_eq!(logged, submitted);
    let _ = std::fs::remove_dir_all(&dir);
}
