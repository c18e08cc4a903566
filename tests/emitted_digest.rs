//! Every emitted byte is pinned: the 22 paper kernels × {poly+ast, pocc}
//! (`benchmark/`'s 41 `compile` cells and the three tail cells it keeps
//! out of its timed set, `standard` parameters, `emit_source(.., 1, 2)`)
//! are built here and their sources compared — length and FNV-1a — with
//! `tests/golden/emitted_digest.txt`.
//!
//! A change that claims "same answers, cheaper" (a faster emptiness
//! kernel, a memo, a refactored certifier) passes this unedited; a change
//! that means to move a schedule or the emitter replaces the golden file
//! with the table this test prints, and says why: lines starting with
//! `#` in the golden file are those reasons and are skipped here.

use polymix_bench::runner::emit_source;
use polymix_bench::variants::{build_variant, Variant};
use polymix_dl::Machine;
use polymix_polybench::all_kernels;
use std::fmt::Write as _;

fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn emitted_sources_match_the_golden_digest() {
    let machine = Machine::nehalem();
    let mut table = String::new();
    for kernel in all_kernels() {
        for variant in [Variant::PolyAst, Variant::Pocc] {
            let prog = build_variant(&kernel, variant, &machine).expect("builds");
            let params = kernel.dataset("standard").params;
            let src = emit_source(&kernel, &prog, &params, 1, 2);
            let (name, v) = (kernel.name, variant.name());
            let _ = writeln!(
                table,
                "{name} {v} {} {:016x}",
                src.len(),
                fnv1a64(src.as_bytes())
            );
        }
    }
    let golden: String = include_str!("golden/emitted_digest.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(
        table == golden,
        "emitted sources differ from tests/golden/emitted_digest.txt; the new table:\n{table}"
    );
}
