//! Bytecode-certifier integration suite.
//!
//! Clean direction: every polybench kernel, lowered from the standard
//! variant families at mini and small parameters, certifies with *every*
//! reachable access proven in-bounds — the precondition for the elided
//! measurement hot path.
//!
//! Adversarial direction: programmatically corrupted bytecode (widened
//! bound, skewed address, relabeled annotation, mispointed accumulator)
//! is rejected with the structured violation the corruption deserves —
//! the certifier re-derives safety from the artifact, so every mutation
//! class a lowering bug could produce must be caught.

use polymix_bench::variants::{build_variant, Variant};
use polymix_dl::Machine;
use polymix_polybench::all_kernels;
use polymix_vm::{certify, lower, AccessSite, CLoop, CNode, VmProgram, VmViolationKind};

const FAMILIES: [Variant; 3] = [Variant::Native, Variant::Pocc, Variant::PolyAst];

#[test]
fn every_kernel_certifies_clean_with_all_accesses_proven() {
    let machine = Machine::host();
    let mut audited = 0usize;
    let mut proven_total = 0usize;
    for k in all_kernels() {
        for dataset in ["mini", "small"] {
            let params = k.dataset(dataset).params;
            for v in FAMILIES {
                let label = format!("{} [{}] {dataset}", k.name, v.name());
                let prog = match build_variant(&k, v, &machine) {
                    Ok(p) => p,
                    Err(e) => panic!("{label}: does not build: {e}"),
                };
                let vm = match lower(&prog, &params) {
                    Ok(vm) => vm,
                    Err(e) => panic!("{label}: does not lower: {e}"),
                };
                let cert = certify(&vm);
                assert!(
                    cert.is_certified(),
                    "{label}: {:?}",
                    cert.violations
                );
                let (proven, total) = cert.counts();
                assert_eq!(
                    proven, total,
                    "{label}: only {proven}/{total} accesses proven"
                );
                assert!(total > 0, "{label}: no accesses audited");
                audited += 1;
                proven_total += proven;
            }
        }
    }
    // 22 kernels × 2 datasets × 3 families.
    assert_eq!(audited, 22 * 2 * 3);
    assert!(proven_total > 500, "suspiciously few proofs: {proven_total}");
}

/// Applies `f` to every loop of the compiled tree (pre-order).
fn for_each_loop(n: &mut CNode, f: &mut dyn FnMut(&mut CLoop)) {
    match n {
        CNode::Seq(xs) => xs.iter_mut().for_each(|x| for_each_loop(x, f)),
        CNode::Guard(_, b) => for_each_loop(b, f),
        CNode::Stmt(_) => {}
        CNode::Loop(l) => {
            f(l);
            for_each_loop(&mut l.body, f);
        }
    }
}

fn lowered(kernel: &str, variant: Variant, dataset: &str) -> VmProgram {
    let machine = Machine::host();
    let k = all_kernels()
        .into_iter()
        .find(|k| k.name == kernel)
        .expect("kernel");
    let params = k.dataset(dataset).params;
    let prog = build_variant(&k, variant, &machine).expect("variant builds");
    lower(&prog, &params).expect("lowers")
}

/// Widening any gemm loop's upper bound by one pushes its last iteration
/// one past an array extent — the certifier must find the escape (with a
/// concrete witness frame) for each of the three loops independently.
#[test]
fn mutation_widened_bound_is_rejected() {
    let clean = lowered("gemm", Variant::Native, "mini");
    assert!(certify(&clean).is_certified());
    let mut n_loops = 0usize;
    for_each_loop(&mut clean.clone().body, &mut |_| n_loops += 1);
    assert!(n_loops >= 3, "gemm native has a 3-deep nest");
    for target in 0..n_loops {
        let mut vm = clean.clone();
        let mut seen = 0usize;
        for_each_loop(&mut vm.body, &mut |l| {
            if seen == target {
                for (e, _) in &mut l.hi.exprs {
                    e.c += 1;
                }
            }
            seen += 1;
        });
        let cert = certify(&vm);
        assert!(
            cert.violations
                .iter()
                .any(|v| v.kind == VmViolationKind::OutOfBounds),
            "loop {target}: widened bound not caught: {:?}",
            cert.violations
        );
    }
}

/// A constant skew on a store address walks off the end of the array at
/// the last iteration (or before the start, for a negative skew).
#[test]
fn mutation_skewed_address_is_rejected() {
    for skew in [1i64, -1] {
        let mut vm = lowered("gemm", Variant::Native, "mini");
        vm.stmts[0].store_addr.c += skew;
        let cert = certify(&vm);
        assert!(
            cert.violations
                .iter()
                .any(|v| v.kind == VmViolationKind::OutOfBounds),
            "skew {skew}: {:?}",
            cert.violations
        );
    }
}

/// A store coefficient at the edge of `i64` has no negation, and no
/// product with a loop bound that fits: the obligation rows it cannot
/// be written into are dropped, the store stays unproven and is
/// reported, and nothing aborts — with overflow checks (`cargo test`)
/// or with wrapping arithmetic (`cargo test --release`).
#[test]
fn mutation_extreme_coefficient_is_rejected_without_aborting() {
    for k in [i64::MIN, i64::MIN + 1, i64::MAX] {
        let mut vm = lowered("gemm", Variant::Native, "mini");
        vm.stmts[0].store_addr.terms[0].1 = k;
        let cert = certify(&vm);
        assert!(!cert.is_certified(), "coefficient {k}: certified");
        let store = cert
            .accesses
            .iter()
            .find(|a| a.stmt == 0 && a.site == AccessSite::Store)
            .expect("the store is audited");
        assert!(!store.proven, "coefficient {k}: store proven in bounds");
        assert!(
            cert.violations.iter().any(|v| {
                v.stmt == Some(0)
                    && v.detail.starts_with("store")
                    && matches!(
                        v.kind,
                        VmViolationKind::OutOfBounds | VmViolationKind::BoundsUnproven
                    )
            }),
            "coefficient {k}: {:?}",
            cert.violations
        );
    }
}

/// gemm's k-loop accumulates into `C[i][j]`: every iteration writes the
/// same cell, so relabeling it doall is a race the bytecode footprints
/// expose without consulting the AST certificate.
#[test]
fn mutation_relabeled_doall_is_rejected() {
    use polymix_ast::tree::Par;
    let mut vm = lowered("gemm", Variant::Native, "mini");
    let mut deepest: Option<*mut CLoop> = None;
    for_each_loop(&mut vm.body, &mut |l| {
        deepest = Some(l as *mut CLoop);
    });
    // Safety: the raw pointer is used immediately, before the tree moves.
    unsafe {
        let l = &mut *deepest.expect("a loop");
        assert!(l.par != Par::Doall);
        l.par = Par::Doall;
    }
    let cert = certify(&vm);
    assert!(
        cert.violations
            .iter()
            .any(|v| v.kind == VmViolationKind::DoallCarriesDep),
        "{:?}",
        cert.violations
    );
}

/// Pointing a reduction loop's recorded accumulator at a different array
/// breaks the additive-self-update shape the privatization relies on.
#[test]
fn mutation_wrong_accumulator_is_rejected() {
    use polymix_ast::tree::Par;
    // poly+ast marks covariance's accumulation loop as a reduction.
    let mut vm = lowered("covariance", Variant::PolyAst, "mini");
    let mut mutated = false;
    let n_arrays = vm.array_lens.len() as u32;
    for_each_loop(&mut vm.body, &mut |l| {
        if l.par == Par::Reduction && !mutated {
            if let Some(acc) = l.reduction_array {
                l.reduction_array = Some((acc + 1) % n_arrays);
                mutated = true;
            }
        }
    });
    assert!(mutated, "covariance poly+ast carries a reduction accumulator");
    let cert = certify(&vm);
    assert!(
        cert.violations
            .iter()
            .any(|v| v.kind == VmViolationKind::ReductionUnsafe),
        "{:?}",
        cert.violations
    );
}
