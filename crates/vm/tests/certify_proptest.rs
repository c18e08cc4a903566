//! Soundness fuzz of the bytecode certifier: for random affine loop
//! nests, every access an instrumented concrete walk of the same
//! bytecode reaches must have been audited, and a `proven` verdict must
//! mean no concrete address ever leaves the array.

use polymix_ast::tree::Par;
use polymix_vm::{
    certify, AccessSite, AffExpr, CBound, CLoop, CNode, CompiledStmt, Instr, VmProgram,
};
use proptest::prelude::*;

const N_VARS: usize = 3;

fn aff(coeffs: &[i64], c: i64) -> AffExpr {
    AffExpr {
        terms: coeffs
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != 0)
            .map(|(v, &k)| (v as u32, k))
            .collect(),
        c,
    }
}

/// Random 3-deep nest over one copy statement (one load, one store,
/// both with random affine addresses). Lower bounds are constants;
/// upper bounds optionally lean on the enclosing variable so
/// triangular shapes are exercised; steps of 2 exercise the
/// certifier's stride over-approximation.
fn program() -> impl Strategy<Value = VmProgram> {
    (
        prop::collection::vec((0i64..3, 3i64..8, 0i64..=1, 1i64..=2), N_VARS..N_VARS + 1),
        (prop::collection::vec(-2i64..=2, N_VARS..N_VARS + 1), 0i64..12),
        (prop::collection::vec(-2i64..=2, N_VARS..N_VARS + 1), 0i64..12),
        1usize..160,
    )
        .prop_map(|(loops, (lc, lk), (sc, sk), len)| {
            let stmt = CompiledStmt {
                code: vec![Instr::Load {
                    dst: 0,
                    array: 0,
                    addr: aff(&lc, lk),
                    proven: false,
                }],
                result: 0,
                store_array: 0,
                store_addr: aff(&sc, sk),
                store_proven: false,
                n_regs: 1,
            };
            let mut body = CNode::Stmt(0);
            for (d, &(lo_c, hi_c, lean, step)) in loops.iter().enumerate().rev() {
                let mut hi = aff(&[], hi_c);
                if lean == 1 && d > 0 {
                    hi.terms.push(((d - 1) as u32, 1));
                }
                body = CNode::Loop(Box::new(CLoop {
                    var: d,
                    lo: CBound {
                        exprs: vec![(aff(&[], lo_c), 1)],
                    },
                    hi: CBound { exprs: vec![(hi, 1)] },
                    step,
                    par: Par::Seq,
                    reduction_array: None,
                    rect_grid: false,
                    body,
                }));
            }
            VmProgram {
                n_vars: N_VARS,
                max_regs: 1,
                array_lens: vec![len],
                stmts: vec![stmt],
                body,
            }
        })
}

/// Instrumented concrete walk: executes the control tree with the real
/// bound semantics (`eval_lower` / `eval_upper`, inclusive upper,
/// positive stride) and records every address each access computes.
fn walk(n: &CNode, vm: &VmProgram, vars: &mut [i64], out: &mut Vec<(u32, AccessSite, i64)>) {
    match n {
        CNode::Seq(xs) => xs.iter().for_each(|x| walk(x, vm, vars, out)),
        CNode::Guard(gs, b) => {
            if gs.iter().all(|g| g.eval(vars) >= 0) {
                walk(b, vm, vars, out);
            }
        }
        CNode::Stmt(s) => {
            let cs = &vm.stmts[*s as usize];
            for (pos, i) in cs.code.iter().enumerate() {
                if let Instr::Load { addr, .. } = i {
                    out.push((*s, AccessSite::Load(pos), addr.eval(vars)));
                }
            }
            out.push((*s, AccessSite::Store, cs.store_addr.eval(vars)));
        }
        CNode::Loop(l) => {
            let lo = l.lo.eval_lower(vars);
            let hi = l.hi.eval_upper(vars);
            let mut v = lo;
            while v <= hi {
                vars[l.var] = v;
                walk(&l.body, vm, vars, out);
                v += l.step;
            }
        }
    }
}

proptest! {
    /// Every concretely reached access is audited, and a proven access
    /// never leaves its array.
    #[test]
    fn proven_accesses_stay_in_bounds_on_every_concrete_address(vm in program()) {
        prop_assert!(vm.validate().is_ok(), "generator built invalid bytecode");
        let cert = certify(&vm);
        let mut observed = Vec::new();
        let mut vars = vec![0i64; vm.n_vars];
        walk(&vm.body, &vm, &mut vars, &mut observed);
        for &(stmt, site, addr) in &observed {
            let proof = cert
                .accesses
                .iter()
                .find(|a| a.stmt == stmt && a.site == site);
            let proof = match proof {
                Some(p) => p,
                None => {
                    // A concretely reached access the certifier did not
                    // even enumerate would be an unsoundness.
                    prop_assert!(false, "access ({stmt}, {site:?}) reached but not audited");
                    unreachable!()
                }
            };
            if proof.proven {
                let len = vm.array_lens[proof.array as usize] as i64;
                prop_assert!(
                    0 <= addr && addr < len,
                    "proven access ({stmt}, {site:?}) computed out-of-bounds address {addr} (len {len})"
                );
            }
        }
    }
}
