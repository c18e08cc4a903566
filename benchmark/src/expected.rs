//! Expected checksums from an independent source.
//!
//! Every kernel and vm cell the benchmark runs is compared with
//! `expected/checksums.json`. That file is written by `--write-expected`
//! from the hand-written [`Kernel::reference`] loop nests — never from a
//! program the compiler under test produced — with the same parameters,
//! the same repetition count and the same checksum weighting the emitted
//! programs print.

use polymix_ir::Scop;
use polymix_polybench::Kernel;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// The repo's tolerance for checksums of FP-reordered executions of the
/// same kernel (`polymix_bench::figures`); emitted programs also print
/// only seven significant digits.
pub const REL_TOLERANCE: f64 = 1e-6;

pub fn path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/checksums.json")
}

/// The checksum emitted programs print: every written array, element `k`
/// weighted by `k % 31 + 1`.
pub fn checksum(scop: &Scop, arrays: &[Vec<f64>]) -> f64 {
    let mut written: Vec<usize> = scop.statements.iter().map(|s| s.write.array.0).collect();
    written.sort_unstable();
    written.dedup();
    let mut sum = 0.0f64;
    for ai in written {
        for (k, &x) in arrays[ai].iter().enumerate() {
            sum += x * ((k % 31) as f64 + 1.0);
        }
    }
    sum
}

/// Runs the hand-written reference `reps` times on one set of buffers,
/// as the emitted programs and the vm backend do, and reduces them.
pub fn reference_checksum(kernel: &Kernel, params: &[i64], reps: usize) -> f64 {
    let scop = (kernel.build)();
    let mut arrays = kernel.fresh_arrays(&scop, params);
    for _ in 0..reps {
        (kernel.reference)(params, &mut arrays);
    }
    checksum(&scop, &arrays)
}

pub fn key(kernel: &str, params: &[i64], reps: usize) -> String {
    let ps: Vec<String> = params.iter().map(|p| p.to_string()).collect();
    format!("{kernel}|{}|x{reps}", ps.join(","))
}

pub struct Expected {
    values: BTreeMap<String, f64>,
    /// `--inject-fault`: the first lookup returns a wrong value, to show
    /// that a wrong output is counted as a failure.
    poison_next: AtomicBool,
}

impl Expected {
    pub fn load(inject_fault: bool) -> Result<Expected, String> {
        let p = path();
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        // Written by `write` below: one `"key": value` entry per line.
        let mut values = BTreeMap::new();
        for line in text.lines() {
            let Some((k, v)) = line.trim().trim_end_matches(',').split_once("\": ") else {
                continue;
            };
            let v: f64 = v
                .parse()
                .map_err(|e| format!("{}: {k}: {e}", p.display()))?;
            values.insert(k.trim_start_matches('"').to_string(), v);
        }
        Ok(Expected {
            values,
            poison_next: AtomicBool::new(inject_fault),
        })
    }

    /// `Ok` when `actual` is the expected checksum of the cell.
    pub fn check(
        &self,
        kernel: &str,
        params: &[i64],
        reps: usize,
        actual: f64,
    ) -> Result<(), String> {
        let k = key(kernel, params, reps);
        let mut want = *self
            .values
            .get(&k)
            .ok_or_else(|| format!("no expected checksum for {k}; run --write-expected"))?;
        if self.poison_next.swap(false, Ordering::Relaxed) {
            want = want * 1.5 + 1.0;
        }
        let rel = (actual - want).abs() / want.abs().max(1.0);
        if rel < REL_TOLERANCE && actual.is_finite() {
            Ok(())
        } else {
            Err(format!("{k}: checksum {actual:e}, expected {want:e}"))
        }
    }
}

/// Writes `entries` (already keyed) as one flat JSON object, sorted.
pub fn write(entries: &BTreeMap<String, f64>) -> std::io::Result<()> {
    let p = path();
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:e}"))
        .collect();
    std::fs::write(p, format!("{{\n{}\n}}\n", body.join(",\n")))
}
