//! The bytecode audit in certificate form: `polymix_vm::certify` proves
//! every address of the *lowered bytecode* in bounds, re-derived from
//! the `VmProgram` alone, and this module lifts its violations into
//! [`Certificate`] rows, so `verify --backend vm` reports a lowering bug
//! (a skewed address, a widened bound, a malformed table) like any other
//! certification failure before a single cell is measured.

use crate::violation::{Certificate, Violation, ViolationKind};
use polymix_vm::{VmCertificate, VmViolationKind};

fn lift(kind: VmViolationKind) -> ViolationKind {
    match kind {
        VmViolationKind::OutOfBounds | VmViolationKind::BoundsUnproven => ViolationKind::VmBounds,
        VmViolationKind::Malformed => ViolationKind::LoweringMismatch,
        VmViolationKind::Unsupported => ViolationKind::Unsupported,
    }
}

/// `bytecode`'s violations as rows of a [`Certificate`] labelled
/// `kernel`; `deps_checked` counts the bytecode accesses audited.
pub fn bytecode_certificate(kernel: &str, bytecode: &VmCertificate) -> Certificate {
    let violations = bytecode
        .violations
        .iter()
        .map(|v| Violation {
            kind: lift(v.kind),
            src: v.stmt.map(|s| format!("vm stmt {s}")).unwrap_or_default(),
            dst: String::new(),
            vector: Vec::new(),
            level: 0,
            loop_name: String::new(),
            detail: format!("bytecode: {}", v.detail),
            fix: "fix the lowering (or the transformation that produced this tree); \
                  the bytecode is what measurement cells execute"
                .to_string(),
        })
        .collect();
    Certificate {
        kernel: kernel.to_string(),
        deps_checked: bytecode.accesses.len(),
        pairs_checked: 0,
        violations,
    }
}
