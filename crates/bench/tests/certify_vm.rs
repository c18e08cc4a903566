//! Bytecode-certifier integration suite.
//!
//! Clean direction: every polybench kernel, lowered from the standard
//! variant families at mini and small parameters, certifies with *every*
//! reachable access proven in-bounds — the precondition for the elided
//! measurement hot path.
//!
//! Adversarial direction: programmatically corrupted bytecode (widened
//! bound, skewed address, extreme coefficient) is rejected with the
//! structured violation the corruption deserves —
//! the certifier re-derives safety from the artifact, so every mutation
//! class a lowering bug could produce must be caught.

use polymix_bench::variants::{build_variant, Variant};
use polymix_dl::Machine;
use polymix_polybench::all_kernels;
use polymix_vm::{
    certify, certify_and_apply, lower, run_opts, AccessSite, AffExpr, CBound, CLoop, CNode,
    CompiledStmt, Instr, VmOptions, VmProgram, VmViolationKind,
};

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

/// The elided fast path strength-reduces a loop's addresses: it adds
/// `Σcoeff·step` to each after every trip, including the last. On a
/// certified one-trip loop (`lo = hi = 0`) the store `A[k·v + 5]` into
/// `len 8` is in bounds whatever `k` is, yet the delta (`k = 2^62`,
/// step 2) or the advance past the last trip (`k = i64::MAX`) leaves
/// `i64`: neither value is ever read, so neither may abort.
#[test]
fn elided_one_trip_loop_with_extreme_coefficient_runs_without_aborting() {
    for (coef, step) in [(i64::MAX, 1), (1i64 << 62, 2)] {
        let bound = || CBound {
            exprs: vec![(AffExpr { terms: Vec::new(), c: 0 }, 1)],
        };
        let mut vm = VmProgram {
            n_vars: 1,
            max_regs: 1,
            array_lens: vec![8],
            stmts: vec![CompiledStmt {
                code: vec![Instr::Const { dst: 0, val: 1.0 }],
                result: 0,
                store_array: 0,
                store_addr: AffExpr {
                    terms: vec![(0, coef)],
                    c: 5,
                },
                store_proven: false,
                n_regs: 1,
            }],
            body: CNode::Loop(Box::new(CLoop {
                var: 0,
                lo: bound(),
                hi: bound(),
                step,
                body: CNode::Stmt(0),
            })),
        };
        certify_and_apply(&mut vm).expect("the one trip stores A[5]: certified");
        let mut arrays = vec![vec![0.0; 8]];
        let opts = VmOptions {
            elide: true,
            ..VmOptions::default()
        };
        run_opts(&vm, &mut arrays, opts).expect("elided run");
        assert_eq!(arrays[0][5], 1.0, "coefficient {coef}, step {step}");
    }
}
