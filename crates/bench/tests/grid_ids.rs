//! Every measuring driver keys its cells in the `--results` log as it
//! always has, so a log an older build wrote still replays. Each driver
//! runs over a log that already holds one record per id pinned here: it
//! must append nothing (an id it spells differently would be measured
//! fresh and logged) and print each record's GF/s in its cell.

use polymix_bench::variants::variant_list;
use polymix_polybench::{all_kernels, Group};
use std::process::Command;

/// The GF/s recorded for the `i`-th id: distinct, and unlike any other
/// number a driver prints.
fn gflops(i: usize) -> String {
    format!("{}.25", 1000 + i)
}

fn record(i: usize, id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"backend\":\"rustc\",\"kernel\":\"k\",\"variant\":\"v\",\
         \"dataset\":\"mini\",\"params\":[1],\"status\":\"ok\",\"checksum\":1.5e0,\
         \"time_s\":1e-3,\"gflops\":{}}}",
        gflops(i)
    )
}

/// Runs `bin` at `mini` over a log holding one healthy record per id
/// plus the `extra` records, checks that nothing was appended, and
/// returns its stdout.
fn replay(bin: &str, ids: &[String], extra: &[String]) -> String {
    let dir = std::env::temp_dir().join(format!("polymix-grid-{bin}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let log = dir.join("results.jsonl");
    let mut lines: Vec<String> = ids.iter().enumerate().map(|(i, id)| record(i, id)).collect();
    lines.extend_from_slice(extra);
    let written = lines.join("\n") + "\n";
    std::fs::write(&log, &written).expect("write log");
    let out = Command::new(match bin {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "fig5" => env!("CARGO_BIN_EXE_fig5"),
        "fig7" => env!("CARGO_BIN_EXE_fig7"),
        "fig8" => env!("CARGO_BIN_EXE_fig8"),
        "fig9" => env!("CARGO_BIN_EXE_fig9"),
        "ablation_fusion" => env!("CARGO_BIN_EXE_ablation_fusion"),
        "ablation_unroll" => env!("CARGO_BIN_EXE_ablation_unroll"),
        _ => unreachable!("{bin}"),
    })
    .args(["--dataset", "mini", "--threads", "1", "--jobs", "2", "--retries", "0"])
    .args(["--compile-timeout", "1", "--run-timeout", "1", "--results"])
    .arg(&log)
    .env("POLYMIX_BENCH_DIR", dir.join("cache"))
    .output()
    .expect("spawn driver");
    assert!(out.status.success(), "{bin}: {}", String::from_utf8_lossy(&out.stderr));
    let after = std::fs::read_to_string(&log).expect("read log");
    assert_eq!(after, written, "{bin} measured a cell its log already holds");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    for (i, id) in ids.iter().enumerate() {
        assert!(
            stdout.split_whitespace().any(|c| c.trim_end_matches('†') == gflops(i)),
            "{bin}: {id} is not rendered\n{stdout}"
        );
    }
    stdout
}

/// `<prefix><row>:<column>:mini` for every row × column, row-major.
fn ids(prefix: &str, rows: &[&str], columns: &[&str]) -> Vec<String> {
    rows.iter()
        .flat_map(|r| columns.iter().map(move |c| format!("{prefix}{r}:{c}:mini")))
        .collect()
}

#[test]
fn group_figures_key_cells_kernel_variant_dataset() {
    let variants: Vec<&str> = variant_list().iter().map(|v| v.name()).collect();
    let figures = [("fig7", Group::Doall), ("fig8", Group::Reduction), ("fig9", Group::Pipeline)];
    for (bin, group) in figures {
        let kernels: Vec<&str> =
            all_kernels().into_iter().filter(|k| k.group == group).map(|k| k.name).collect();
        replay(bin, &ids("", &kernels, &variants), &[]);
    }
}

#[test]
fn table1_keys_cells_by_variant_and_renders_every_outcome() {
    let ids: Vec<String> = ["native", "iter(max)", "pocc"]
        .iter()
        .map(|v| format!("table1:{v}:mini"))
        .collect();
    // The fourth cell replays degraded, then failed: `†` (with its
    // legend) and `error(<stage>)`.
    let ours = "table1:poly+ast:mini";
    let degraded = record(ids.len(), ours).replace("}", ",\"degraded\":\"sequential\"}");
    let out = replay("table1", &ids, &[degraded]);
    assert!(out.contains(&format!("{}†", gflops(ids.len()))), "{out}");
    assert!(out.contains("† degraded(sequential)"), "{out}");
    let failed = format!(
        "{{\"id\":\"{ours}\",\"backend\":\"rustc\",\"status\":\"error\",\
         \"stage\":\"codegen\",\"detail\":\"x\"}}"
    );
    let out = replay("table1", &ids, &[failed]);
    assert!(out.contains("error(codegen)") && !out.contains('†'), "{out}");
}

#[test]
fn fig5_and_ablations_key_cells_by_driver_row_column_dataset() {
    replay(
        "fig5",
        &ids("fig5:", &["fig5-copy", "fig5-reduction", "fig5-stencil"], &["ours", "doall"]),
        &[],
    );
    let fused = ["2mm", "3mm", "gemm", "syrk", "gesummv", "atax", "correlation", "fdtd-2d"];
    replay("ablation_fusion", &ids("fuse:", &fused, &["true", "false"]), &[]);
    let columns = ["none", "1x1", "1x2", "2x2", "2x4", "4x4"];
    replay("ablation_unroll", &ids("unroll:", &["gemm", "2mm", "syrk"], &columns), &[]);
}
