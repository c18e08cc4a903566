//! Redundancy cannot creep back unnoticed: the number of *distinct*
//! polyhedral questions one cell asks repeats exactly from run to run, so
//! a change that makes probes build new systems (or stops a stage from
//! re-using what an earlier stage asked) fails a count here, not a
//! timing somewhere else.
//!
//! A cell is `build_variant` then `verify_program` under one outer
//! scope — what the service's `optimize` does. Only `computed` and the
//! number of questions the emptiness witness answered are pinned: debug
//! builds certify inside the optimizers as well, which asks more and
//! computes nothing new, and a question ends the same way wherever it
//! is computed.

use polymix_bench::variants::{build_variant, Variant};
use polymix_dl::Machine;
use polymix_math::memo::{self, Stats};
use polymix_polybench::kernel_by_name;
use polymix_verify::verify_program;

fn cell(kernel: &str, variant: Variant) -> Stats {
    let memo = memo::scope();
    let kernel = kernel_by_name(kernel).expect("kernel");
    let prog = build_variant(&kernel, variant, &Machine::nehalem()).expect("builds");
    assert!(verify_program(&prog).into_result().is_ok());
    memo.stats()
}

/// Every computed emptiness question ends one way: refuted by the hull,
/// answered by the hull's lower corner, or handed to elimination.
fn assert_ends_once(s: &Stats) {
    let e = s.emptiness;
    assert_eq!(
        e.hull + e.witness + e.eliminated,
        s.is_empty.computed,
        "{s:?}"
    );
}

/// 3322 before guard separation, which asks, for each of the two
/// guard conjuncts left in adi's tiled tree, whether its loops' ranges
/// decide it (they do not), in the contexts it sits in: 12 new systems.
#[test]
fn adi_poly_ast_asks_each_question_once() {
    let s = cell("adi", Variant::PolyAst);
    assert_eq!(
        (s.is_empty.computed, s.sample.computed),
        (3334, 105),
        "{s:?}"
    );
    assert!(s.is_empty.asked >= 10 * s.is_empty.computed, "{s:?}");
    assert!(s.sample.asked >= 10 * s.sample.computed, "{s:?}");
    assert_eq!(s.emptiness.witness, 981, "{s:?}");
    assert_ends_once(&s);
}

/// 322 until ISSUE 21: the certifier is asked about a different tree now,
/// 2mm in the sunk tiling form, and that walk needs two distinct systems
/// fewer. (The sunk nest is also certified once inside the optimizer, in
/// every profile; under this outer scope that asks again and computes
/// nothing, which is why debug and release still agree on the count.)
#[test]
fn two_mm_pocc_asks_each_question_once() {
    let s = cell("2mm", Variant::Pocc);
    assert_eq!((s.is_empty.computed, s.sample.computed), (320, 5), "{s:?}");
    assert!(s.is_empty.asked > s.is_empty.computed, "{s:?}");
    assert_eq!(s.emptiness.witness, 91, "{s:?}");
    assert_ends_once(&s);
}
