//! The race query answers each *class* of site pair once: sites with the
//! same address and context ask the same two-copy system. A class key
//! that forgot either would merge a racing site into a safe one and lose
//! its violation; these programs race only between the second stores of
//! what such a key would call one class.

use polymix_ast::tree::Par;
use polymix_vm::{
    certify, AffExpr, CBound, CLoop, CNode, CompiledStmt, Instr, VmProgram, VmViolationKind,
    UNMODELED_KNOBS,
};

fn aff(terms: &[(u32, i64)], c: i64) -> AffExpr {
    let terms = terms.to_vec();
    AffExpr { terms, c }
}

fn for_loop(var: usize, lo: i64, hi: i64, par: Par, body: CNode) -> CNode {
    let bound = |c| CBound {
        exprs: vec![(aff(&[], c), 1)],
    };
    CNode::Loop(Box::new(CLoop {
        var,
        lo: bound(lo),
        hi: bound(hi),
        step: 1,
        par,
        reduction_array: None,
        rect_grid: false,
        body,
    }))
}

/// `A[store_addr] = 1.0`, twice, under one doall loop over variable 0.
fn program(stores: [AffExpr; 2], bodies: impl Fn(usize) -> CNode) -> VmProgram {
    let stmt = |store_addr| CompiledStmt {
        code: vec![Instr::Const { dst: 0, val: 1.0 }],
        result: 0,
        store_array: 0,
        store_addr,
        store_proven: false,
        n_regs: 1,
    };
    VmProgram {
        n_vars: 2,
        max_regs: 1,
        array_lens: vec![256],
        stmts: stores.map(stmt).to_vec(),
        body: for_loop(0, 0, 7, Par::Doall, CNode::Seq(vec![bodies(0), bodies(1)])),
        unmodeled_knobs: UNMODELED_KNOBS,
    }
}

fn only_violation(vm: &VmProgram) -> String {
    let cert = certify(vm);
    assert_eq!(cert.loops_checked, 1);
    assert_eq!(cert.pairs_checked, 4, "store × store, both statements");
    let [v] = &cert.violations[..] else {
        panic!("expected one violation, got {:?}", cert.violations);
    };
    assert_eq!(v.kind, VmViolationKind::DoallCarriesDep);
    assert_eq!(v.stmt, Some(1));
    v.detail.clone()
}

/// `A[i]` is iteration-private, `A[8]` is written by every iteration and
/// by nobody else, in equal contexts.
#[test]
fn a_race_between_second_members_that_differ_by_address_is_reported() {
    let vm = program([aff(&[(0, 1)], 0), aff(&[], 8)], |k| {
        for_loop(1, 0, 0, Par::Seq, CNode::Stmt(k as u32))
    });
    assert_eq!(
        only_violation(&vm),
        "distinct iterations of the loop over variable 0 conflict on array 0 \
         (stmt 1 Store vs stmt 1 Store); witness frames [0, 0] / [1, 0]"
    );
}

/// `A[4i + j]` for `j` in `0..=3` tiles the array; for `j` in `100..=107`
/// consecutive iterations overlap, far from the first statement's cells:
/// one address expression, two contexts.
#[test]
fn a_race_between_second_members_that_differ_by_context_is_reported() {
    let addr = || aff(&[(0, 4), (1, 1)], 0);
    let vm = program([addr(), addr()], |k| {
        let lo = 100 * k as i64;
        for_loop(
            1,
            lo,
            lo + 3 + 4 * k as i64,
            Par::Seq,
            CNode::Stmt(k as u32),
        )
    });
    assert_eq!(
        only_violation(&vm),
        "distinct iterations of the loop over variable 0 conflict on array 0 \
         (stmt 1 Store vs stmt 1 Store); witness frames [0, 104] / [1, 100]"
    );
}
