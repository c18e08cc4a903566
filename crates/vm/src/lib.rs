//! # polymix-vm — in-process bytecode backend
//!
//! The second backend of the measurement harness: instead of emitting
//! standalone Rust and round-tripping through a `rustc` subprocess, a
//! transformed [`Program`](polymix_ast::tree::Program) is [`lower`]ed to
//! a compact register bytecode — parameters folded, affine subscripts
//! pre-composed with each site's inverse schedule and the arrays'
//! row-major strides — and executed [`run`] directly over the caller's
//! buffers.
//!
//! Semantics match [`polymix_ast::interp::execute`] exactly (same loop
//! bound evaluation, same value-before-write statement order, same
//! row-major addressing), so the two backends agree checksum-for-
//! checksum; what changes is cost: lowering is microseconds and a run
//! touches no subprocess, no lockfile, no filesystem. Parallel
//! annotations dispatch through `polymix-runtime`'s safe wrappers over
//! `kernel_rt`, the runtime the emitted kernels carry, with the same
//! poison/containment story ([`exec`] module docs).
//!
//! The backend exists for the measurement hot path: screening autotuner
//! candidates and differential checks where a full emit → `rustc` →
//! spawn round trip per cell would dominate wall-clock.

pub mod certify;
mod exec;
mod lower;

pub use certify::{
    certify, certify_and_apply, AccessProof, AccessSite, VmCertificate, VmViolation,
    VmViolationKind,
};
pub use exec::{run, run_counted, run_opts, Dispatch, VmOptions};
pub use lower::{lower, AffExpr, CBound, CLoop, CNode, CompiledStmt, Instr, VmProgram};

use std::fmt;

/// Failure of the bytecode backend: a shape the lowering does not model,
/// a failed static certificate, or a poisoned run (bad address, worker
/// panic, runtime misuse).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Lowering rejected the program.
    Lower(String),
    /// Static certification rejected the bytecode.
    Certify(String),
    /// Execution was poisoned.
    Runtime(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Lower(d) => write!(f, "vm lowering: {d}"),
            VmError::Certify(d) => write!(f, "vm certify: {d}"),
            VmError::Runtime(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ast::interp::{alloc_arrays, execute};
    use polymix_ast::tree::{Bound, LinExpr, Loop, Node, Par, Program, StmtNode};
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::expr::Expr;

    /// `for i in 0..N: A[i] = A[i] + 1`, annotation selectable.
    fn inc_program(par_kind: Par) -> Program {
        let mut b = ScopBuilder::new("inc", &["N"], &[8]);
        let a = b.array("A", &["N"]);
        b.enter("i", con(0), par("N"));
        let body = Expr::add(b.rd(a, &[ix("i")]), Expr::Const(1.0));
        b.stmt("S", a, &[ix("i")], body);
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let body = Node::loop_(Loop {
            var: 0,
            name: "i".into(),
            lo: Bound::con(0),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: par_kind,
            body: Node::Stmt(StmtNode {
                stmt_idx: 0,
                iter_exprs: vec![LinExpr::var(0)],
            }),
        });
        Program {
            scop,
            body,
            n_vars: 1,
            tiling: Vec::new(),
        }
    }

    fn checksum(arrays: &[Vec<f64>]) -> f64 {
        arrays
            .iter()
            .flat_map(|a| a.iter().enumerate())
            .map(|(k, &x)| x * ((k % 31) as f64 + 1.0))
            .sum()
    }

    #[test]
    fn sequential_run_matches_interpreter() {
        for params in [[5i64], [8], [1]] {
            let p = inc_program(Par::Seq);
            let vm = lower(&p, &params).expect("lowers");
            let mut a = alloc_arrays(&p.scop, &params);
            let mut b = alloc_arrays(&p.scop, &params);
            for (k, x) in a[0].iter_mut().enumerate() {
                *x = k as f64 * 0.5;
            }
            b[0].copy_from_slice(&a[0]);
            execute(&p, &params, &mut a);
            run(&vm, &mut b).expect("vm runs");
            assert_eq!(a, b, "params {params:?}");
        }
    }

    #[test]
    fn doall_dispatch_matches_sequential() {
        let p = inc_program(Par::Doall);
        let vm = lower(&p, &[8]).expect("lowers");
        let mut seq = alloc_arrays(&p.scop, &[8]);
        let mut par4 = alloc_arrays(&p.scop, &[8]);
        execute(&p, &[8], &mut seq);
        run_opts(
            &vm,
            &mut par4,
            VmOptions {
                threads: 4,
                ..VmOptions::default()
            },
        )
        .expect("parallel vm runs");
        assert_eq!(seq, par4);
    }

    #[test]
    fn reduction_dispatch_accumulates_exactly() {
        // s[0] += B[i]  over i in 0..N: an additive self-update, the
        // privatizable shape.
        let mut b = ScopBuilder::new("sum", &["N"], &[64]);
        let s = b.array_dims("s", vec![con(1)]);
        let arr = b.array("B", &["N"]);
        b.enter("i", con(0), par("N"));
        let body = Expr::add(b.rd(s, &[con(0)]), b.rd(arr, &[ix("i")]));
        b.stmt("S", s, &[con(0)], body);
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let body = Node::loop_(Loop {
            var: 0,
            name: "i".into(),
            lo: Bound::con(0),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: Par::Reduction,
            body: Node::Stmt(StmtNode {
                stmt_idx: 0,
                iter_exprs: vec![LinExpr::var(0)],
            }),
        });
        let p = Program {
            scop,
            body,
            n_vars: 1,
            tiling: Vec::new(),
        };
        let vm = lower(&p, &[64]).expect("lowers");
        let mut arrays = alloc_arrays(&p.scop, &[64]);
        for (k, x) in arrays[1].iter_mut().enumerate() {
            *x = (k + 1) as f64;
        }
        arrays[0][0] = 100.0;
        run_opts(
            &vm,
            &mut arrays,
            VmOptions {
                threads: 4,
                ..VmOptions::default()
            },
        )
        .expect("reduction vm runs");
        assert_eq!(arrays[0][0], 100.0 + (64.0 * 65.0) / 2.0);
    }

    /// 2-level nest with a flow dependence `(1, 0)`: pipeline and
    /// wavefront dispatch must both reproduce the sequential result.
    fn stencil_program(par_kind: Par) -> Program {
        let mut b = ScopBuilder::new("st", &["N"], &[6]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(0), par("N"));
        let body = Expr::add(
            b.rd(a, &[ix("i") - con(1), ix("j")]),
            Expr::Const(1.0),
        );
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let inner = Node::loop_(Loop {
            var: 1,
            name: "j".into(),
            lo: Bound::con(0),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: Par::Seq,
            body: Node::Stmt(StmtNode {
                stmt_idx: 0,
                iter_exprs: vec![LinExpr::var(0), LinExpr::var(1)],
            }),
        });
        let body = Node::loop_(Loop {
            var: 0,
            name: "i".into(),
            lo: Bound::con(1),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: par_kind,
            body: inner,
        });
        Program {
            scop,
            body,
            n_vars: 2,
            tiling: Vec::new(),
        }
    }

    #[test]
    fn grid_dispatches_match_sequential() {
        let reference = {
            let p = stencil_program(Par::Seq);
            let mut a = alloc_arrays(&p.scop, &[6]);
            for (k, x) in a[0].iter_mut().enumerate() {
                *x = (k % 7) as f64;
            }
            execute(&p, &[6], &mut a);
            a
        };
        for par_kind in [Par::Pipeline, Par::Wavefront] {
            let p = stencil_program(par_kind);
            let vm = lower(&p, &[6]).expect("lowers");
            let mut a = alloc_arrays(&p.scop, &[6]);
            for (k, x) in a[0].iter_mut().enumerate() {
                *x = (k % 7) as f64;
            }
            let dispatched = run_counted(
                &vm,
                &mut a,
                VmOptions {
                    threads: 3,
                    ..VmOptions::default()
                },
            )
            .expect("grid vm runs");
            assert_eq!(dispatched, [0, 0, 1], "{par_kind:?}: one grid region");
            assert_eq!(checksum(&reference), checksum(&a), "{par_kind:?}");
        }
    }

    #[test]
    fn out_of_bounds_store_poisons_instead_of_corrupting() {
        let mut p = inc_program(Par::Seq);
        // Push the loop one past the end: A[N] is out of bounds.
        if let Node::Loop(l) = &mut p.body {
            l.hi = Bound::of(LinExpr::param(0));
        }
        let vm = lower(&p, &[8]).expect("lowers");
        let mut a = alloc_arrays(&p.scop, &[8]);
        let err = run(&vm, &mut a).expect_err("must poison");
        assert!(
            matches!(&err, VmError::Runtime(d) if d.contains("runtime_error")),
            "{err:?}"
        );
    }

    #[test]
    fn parameter_arity_mismatch_is_a_lower_error() {
        let p = inc_program(Par::Seq);
        assert!(matches!(lower(&p, &[]), Err(VmError::Lower(_))));
    }

    #[test]
    fn guards_are_compiled_and_honored() {
        let mut p = inc_program(Par::Seq);
        let inner = match &p.body {
            Node::Loop(l) => l.body.clone(),
            other => panic!("unexpected root {other:?}"),
        };
        if let Node::Loop(l) = &mut p.body {
            l.body = Node::Guard(vec![LinExpr::var(0).plus(-3)], Box::new(inner));
        }
        let vm = lower(&p, &[6]).expect("lowers");
        let mut a = alloc_arrays(&p.scop, &[6]);
        run(&vm, &mut a).expect("vm runs");
        assert_eq!(a[0], vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn certifier_proves_every_access_and_elides() {
        let p = inc_program(Par::Seq);
        let mut vm = lower(&p, &[8]).expect("lowers");
        let cert = certify(&vm);
        assert!(cert.is_certified(), "{:?}", cert.violations);
        let (proven, total) = cert.counts();
        assert_eq!(total, 2, "one load + one store");
        assert_eq!(proven, total);
        cert.apply(&mut vm).expect("apply");
        // The elided run must still produce the exact result.
        let mut checked = alloc_arrays(&p.scop, &[8]);
        let mut elided = alloc_arrays(&p.scop, &[8]);
        run(&vm, &mut checked).expect("checked run");
        run_opts(
            &vm,
            &mut elided,
            VmOptions {
                elide: true,
                ..VmOptions::default()
            },
        )
        .expect("elided run");
        assert_eq!(checked, elided);
    }

    #[test]
    fn certifier_finds_out_of_bounds_with_witness() {
        let mut p = inc_program(Par::Seq);
        if let Node::Loop(l) = &mut p.body {
            l.hi = Bound::of(LinExpr::param(0)); // A[N] at the last trip
        }
        let vm = lower(&p, &[8]).expect("lowers");
        let cert = certify(&vm);
        assert!(!cert.is_certified());
        assert!(
            cert.violations
                .iter()
                .all(|v| v.kind == VmViolationKind::OutOfBounds),
            "{:?}",
            cert.violations
        );
        // The uncertified program must not be appliable.
        let mut vm2 = vm.clone();
        assert!(matches!(cert.apply(&mut vm2), Err(VmError::Certify(_))));
    }

    #[test]
    fn certifier_rejects_relabeled_doall() {
        // The stencil carries a (1, 0) flow dependence on the outer
        // loop; relabeling the lowered loop as doall must be caught from
        // the bytecode footprints alone.
        let p = stencil_program(Par::Seq);
        let mut vm = lower(&p, &[6]).expect("lowers");
        if let CNode::Loop(l) = &mut vm.body {
            l.par = Par::Doall;
        }
        let cert = certify(&vm);
        assert!(cert
            .violations
            .iter()
            .any(|v| v.kind == VmViolationKind::DoallCarriesDep),
            "{:?}", cert.violations);
    }

    #[test]
    fn certifier_accepts_safe_doall_and_reduction() {
        for par_kind in [Par::Doall, Par::Reduction] {
            let p = inc_program(par_kind);
            let vm = lower(&p, &[8]).expect("lowers");
            let cert = certify(&vm);
            // `A[i] = A[i] + 1` is iteration-disjoint: safe as doall,
            // and (as an additive self-update) safe as reduction.
            assert!(cert.is_certified(), "{par_kind:?}: {:?}", cert.violations);
            assert!(cert.loops_checked <= 1);
        }
    }

    #[test]
    fn certifier_rejects_wrong_reduction_accumulator() {
        // s[0] += B[i] with the accumulator annotation pointed at B.
        let p = {
            let mut b = ScopBuilder::new("sum", &["N"], &[64]);
            let s = b.array_dims("s", vec![con(1)]);
            let arr = b.array("B", &["N"]);
            b.enter("i", con(0), par("N"));
            let body = Expr::add(b.rd(s, &[con(0)]), b.rd(arr, &[ix("i")]));
            b.stmt("S", s, &[con(0)], body);
            b.exit();
            let scop = b.finish().expect("well-formed SCoP");
            Program {
                scop,
                body: Node::loop_(Loop {
                    var: 0,
                    name: "i".into(),
                    lo: Bound::con(0),
                    hi: Bound::of(LinExpr::param(0).plus(-1)),
                    step: 1,
                    par: Par::Reduction,
                    body: Node::Stmt(StmtNode {
                        stmt_idx: 0,
                        iter_exprs: vec![LinExpr::var(0)],
                    }),
                }),
                n_vars: 1,
                tiling: Vec::new(),
            }
        };
        let mut vm = lower(&p, &[16]).expect("lowers");
        assert!(certify(&vm).is_certified(), "clean program certifies");
        if let CNode::Loop(l) = &mut vm.body {
            assert_eq!(l.reduction_array, Some(0));
            l.reduction_array = Some(1); // point at B instead of s
        }
        let cert = certify(&vm);
        assert!(cert
            .violations
            .iter()
            .any(|v| v.kind == VmViolationKind::ReductionUnsafe),
            "{:?}", cert.violations);
    }

    #[test]
    fn invalid_program_is_rejected_before_the_hot_loop() {
        let p = inc_program(Par::Seq);
        let mut vm = lower(&p, &[8]).expect("lowers");
        vm.body = CNode::Stmt(7); // stmt table has one entry
        let mut a = alloc_arrays(&p.scop, &[8]);
        let err = run(&vm, &mut a).expect_err("must reject");
        assert!(
            matches!(&err, VmError::Runtime(d) if d.contains("invalid program")),
            "{err:?}"
        );
        let cert = certify(&vm);
        assert!(cert
            .violations
            .iter()
            .any(|v| v.kind == VmViolationKind::Malformed));
    }
}
