//! The workspace's foundational oracle test: for every PolyBench kernel,
//! generating code from the SCoP's *original* schedules and executing it
//! with the AST interpreter must reproduce the native Rust reference
//! implementation bit-for-bit. Everything else (optimizers, transforms)
//! builds on this equivalence.

use polymix::codegen::from_poly::original_program;
use polymix::polybench::{all_kernels, extended_kernels};

#[test]
fn every_kernel_scop_matches_its_reference_bitwise() {
    check_at(|p| p.to_vec());
}

#[test]
fn every_kernel_scop_matches_at_awkward_sizes() {
    // Non-round sizes catch floating-point association mismatches and
    // boundary off-by-ones that round sizes can hide.
    check_at(|p| p.iter().map(|&x| x + 3).collect());
}

fn check_at(adjust: impl Fn(&[i64]) -> Vec<i64>) {
    for k in all_kernels().into_iter().chain(extended_kernels()) {
        let scop = (k.build)();
        let params = adjust(&k.dataset("mini").params);

        let mut expected = k.fresh_arrays(&scop, &params);
        (k.reference)(&params, &mut expected);

        let prog = original_program(&scop).expect("original program");
        let mut actual = k.fresh_arrays(&scop, &params);
        polymix::ast::interp::execute(&prog, &params, &mut actual);

        for (ai, (e, a)) in expected.iter().zip(&actual).enumerate() {
            assert_eq!(
                e.len(),
                a.len(),
                "{}: array {ai} ({}) length mismatch",
                k.name,
                scop.arrays[ai].name
            );
            for (off, (x, y)) in e.iter().zip(a).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{}: array {} ({}) differs at offset {off}: reference {x:?} vs scop {y:?}",
                    k.name,
                    ai,
                    scop.arrays[ai].name
                );
            }
        }
    }
}

#[test]
fn flop_formulas_match_domain_enumeration() {
    // The closed-form FLOP formulas must agree with brute-force counting
    // (domain cardinality × flops per statement instance) at mini sizes.
    for k in all_kernels().into_iter().chain(extended_kernels()) {
        let scop = (k.build)();
        let params = k.dataset("mini").params;
        let counted = scop.flops_by_enumeration(&params).expect("bounded domains");
        let formula = (k.flops)(&params);
        let rel = (counted as f64 - formula as f64).abs() / counted.max(1) as f64;
        assert!(
            rel < 0.35,
            "{}: formula {formula} vs counted {counted} (rel {rel:.2})",
            k.name
        );
    }
}
