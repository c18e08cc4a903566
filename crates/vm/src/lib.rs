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
//! touches no subprocess, no lockfile, no filesystem. Every loop runs
//! sequentially in schedule order: `Par` annotations are lowered once,
//! by the emitter (`polymix-codegen`), and the vm is the tuner's
//! one-thread screen ([`exec`] module docs).
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
pub use exec::{run, run_opts, VmOptions};
pub use lower::{lower, AffExpr, CBound, CLoop, CNode, CompiledStmt, Instr, VmProgram};

use std::fmt;

/// Failure of the bytecode backend: a shape the lowering does not model,
/// a failed static certificate, or a failed run (a bad address, or a
/// program that fails validation at entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Lowering rejected the program.
    Lower(String),
    /// Static certification rejected the bytecode.
    Certify(String),
    /// Execution failed.
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
            jam: 1,
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
            demoted: 0,
        }
    }

    /// Annotations do not change what the vm runs: every loop runs in
    /// schedule order, whatever it is marked.
    #[test]
    fn sequential_run_matches_interpreter() {
        let annotations = [Par::Seq, Par::Doall, Par::Reduction(vec![0]), Par::Pipeline, Par::Wavefront];
        for (params, par_kind) in [[5i64], [8], [1]]
            .into_iter()
            .flat_map(|p| annotations.clone().map(|a| (p, a)))
        {
            let p = inc_program(par_kind.clone());
            let vm = lower(&p, &params).expect("lowers");
            let mut a = alloc_arrays(&p.scop, &params);
            let mut b = alloc_arrays(&p.scop, &params);
            for (k, x) in a[0].iter_mut().enumerate() {
                *x = k as f64 * 0.5;
            }
            b[0].copy_from_slice(&a[0]);
            execute(&p, &params, &mut a);
            run(&vm, &mut b).expect("vm runs");
            assert_eq!(a, b, "params {params:?}, {par_kind:?}");
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
