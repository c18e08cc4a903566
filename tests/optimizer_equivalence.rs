//! Cross-crate equivalence: every experimental variant of the harness
//! must reproduce the reference semantics on every kernel, at the mini
//! dataset and at deliberately awkward (non-multiple-of-tile) sizes that
//! exercise ragged tile edges, guards, and union bounds.

use polymix::ast::interp::execute;
use polymix::dl::Machine;
use polymix_bench::variants::{build_variant, Variant};
use polymix_polybench::{all_kernels, extended_kernels};

fn check_all(variant: Variant, bump: i64) {
    let machine = Machine::nehalem();
    for k in all_kernels().into_iter().chain(extended_kernels()) {
        let scop = (k.build)();
        // Awkward sizes: mini + bump (never a multiple of the tile size).
        let params: Vec<i64> = k
            .dataset("mini")
            .params
            .iter()
            .map(|&p| p + bump)
            .collect();
        let mut expected = k.fresh_arrays(&scop, &params);
        (k.reference)(&params, &mut expected);
        let prog = build_variant(&k, variant, &machine).expect("variant builds");
        let mut actual = k.fresh_arrays(&scop, &params);
        execute(&prog, &params, &mut actual);
        for (ai, (e, a)) in expected.iter().zip(&actual).enumerate() {
            for (off, (x, y)) in e.iter().zip(a).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{:?} {} array {} ({}) offset {off}: {x:?} vs {y:?} (params {params:?})",
                    variant,
                    k.name,
                    ai,
                    scop.arrays[ai].name
                );
            }
        }
    }
}

#[test]
fn poly_ast_bitwise_on_awkward_sizes() {
    check_all(Variant::PolyAst, 3);
}

#[test]
fn pocc_bitwise_on_awkward_sizes() {
    check_all(Variant::Pocc, 3);
}

#[test]
fn pocc_vect_bitwise_on_awkward_sizes() {
    check_all(Variant::PoccVect, 1);
}

#[test]
fn maxfuse_bitwise_on_awkward_sizes() {
    check_all(Variant::IterativeMax, 5);
}

#[test]
fn nofuse_bitwise_on_awkward_sizes() {
    check_all(Variant::IterativeNo, 2);
}

#[test]
fn doall_only_mode_bitwise() {
    check_all(Variant::PolyAstDoallOnly, 3);
}
