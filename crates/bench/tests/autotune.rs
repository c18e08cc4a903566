//! Interrupted-search resume determinism for the autotuner.
//!
//! The tuner's promise is that killing it mid-search loses at most the
//! cell that was in flight: re-running with the same JSONL results log
//! replays every recorded measurement (re-measuring nothing) and
//! converges to the same tuned configuration. These tests run the real
//! two-fidelity search — in-process vm screens plus real `rustc`
//! confirmations (no `-O`, mini dataset, tiny budget) — against the
//! same log twice. With `BUDGET` candidates the log carries `BUDGET` vm
//! screen cells, the native baseline, and (when the screens are
//! healthy) `BUDGET` rustc confirmations, each keyed by `(id,
//! backend)`.

use polymix_bench::autotune::autotune_kernel;
use polymix_bench::runner::Runner;
use polymix_bench::sweep::SweepConfig;
use polymix_dl::Machine;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("polymix-tune-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create tmp work dir");
    d
}

fn test_runner(work_dir: PathBuf) -> Runner {
    Runner {
        work_dir,
        threads: 1,
        reps: 1,
        rustc_flags: vec![],
        ..Runner::new(1)
    }
}

const BUDGET: usize = 2;

fn cfg_with_log(log: PathBuf) -> SweepConfig {
    SweepConfig {
        // jobs=1 keeps the JSONL record order deterministic, so the
        // truncation scenario below knows which cell it re-exposed.
        jobs: 1,
        results_path: Some(log),
        ..SweepConfig::default()
    }
}

#[test]
fn interrupted_search_resumes_without_remeasuring() {
    let dir = tmp_dir("resume");
    let log = dir.join("tune.jsonl");
    let machine = Machine::host();
    let runner = test_runner(dir.clone());

    // Uninterrupted search: BUDGET vm screens, then the native baseline
    // plus BUDGET rustc confirmations. BUDGET (2) <= CONFIRM_TOP (2), so
    // the model's prefix alone is every chosen program and each one
    // confirms. `measured` counts candidate cells at both fidelities,
    // excluding the baseline.
    let first = autotune_kernel("gemm", "mini", BUDGET, &runner, &cfg_with_log(log.clone()), &machine)
        .expect("first search succeeds");
    assert_eq!(
        first.measured,
        2 * BUDGET,
        "fresh search measures its budget at both fidelities"
    );
    assert_eq!(first.resumed, 0);

    // Scenario 1: the tuner was killed *after* the last measurement but
    // before committing the config (the log is complete). Re-running
    // with the same log must re-measure nothing and reproduce the
    // configuration bit-for-bit — every value replays from the log.
    let second = autotune_kernel("gemm", "mini", BUDGET, &runner, &cfg_with_log(log.clone()), &machine)
        .expect("resumed search succeeds");
    assert_eq!(second.measured, 0, "no candidate may be re-measured");
    assert_eq!(
        second.resumed,
        2 * BUDGET + 1,
        "all cells (vm screens, baseline, confirmations) replay"
    );
    assert_eq!(
        second.config.to_json(),
        first.config.to_json(),
        "resumed search must converge to the identical tuned config"
    );

    // Scenario 2: killed *mid-append* — the last record is lost. With
    // jobs=1 the records land in submission order, so dropping the last
    // line re-exposes exactly the final candidate cell; a re-run must
    // re-measure that one cell and nothing else.
    let text = std::fs::read_to_string(&log).expect("log readable");
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 * BUDGET + 1, "one record per measured cell");
    lines.pop();
    let truncated = dir.join("tune-truncated.jsonl");
    std::fs::write(&truncated, format!("{}\n", lines.join("\n"))).expect("write truncated log");
    let third = autotune_kernel("gemm", "mini", BUDGET, &runner, &cfg_with_log(truncated), &machine)
        .expect("search over truncated log succeeds");
    assert_eq!(third.measured, 1, "only the lost cell is re-measured");
    assert_eq!(third.resumed, 2 * BUDGET, "every surviving record replays");
    // The re-measured cell gets fresh timing, so the winner may legally
    // differ — but the search must still commit a complete, parseable
    // config for the same kernel/dataset.
    assert_eq!(third.config.kernel, "gemm");
    assert_eq!(third.config.dataset, "mini");
    assert!(third.config.time_s > 0.0 && third.config.native_time_s > 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}
