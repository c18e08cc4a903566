//! Structured diagnostics: what the certifier found, where, and how to
//! fix it.

use polymix_deps::DepElem;
use polymix_ir::error::PolymixError;
use std::fmt;

/// What kind of certificate a [`Violation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// The transformed program executes the target of a dependence
    /// before (or at the same timestamp as) its source.
    IllegalOrder,
    /// A loop annotated [`polymix_ast::tree::Par::Doall`] carries a
    /// dependence.
    DoallCarriesDep,
    /// A carried dependence of a `Pipeline` loop is not covered by the
    /// Sec. IV-D await cone: a cell `(i, j)` waits for `(i - 1, j)` and
    /// `(i, j - 1)` only, and some dependent pair moves backward in the
    /// outer phase or leftward in the grid column.
    PipelineConeUncovered,
    /// A `Reduction` loop carries a dependence that is not a self-update
    /// of an array it privatizes.
    ReductionUnsafe,
    /// An array a reduction loop privatizes is touched inside the loop
    /// body other than by an additive self-update.
    ReductionAccumulatorAliased,
    /// A `Wavefront` pair of loops orders some dependent pair backward
    /// across (or races it within) a diagonal.
    WavefrontUnsafe,
    /// A loop's `jam: f` mark reorders a dependence: two dependent
    /// instances 1 to `f - 1` iterations apart in the loop meet in one
    /// block of the unroll-and-jam, where the target's position or inner
    /// iteration comes first.
    JamUnsafe,
    /// The emitted kernel source breaks the progress/poison protocol
    /// (missing await, raw store on progress, unguarded worker, ...).
    KernelLint,
    /// A bytecode address is not statically in-bounds over its compiled
    /// loop polyhedron (found by `polymix_vm::certify` during lowering
    /// translation validation).
    VmBounds,
    /// The lowered bytecode fails structural validation (a statement,
    /// array, register or loop variable outside its table).
    LoweringMismatch,
    /// The program shape is outside the certifier's model; nothing was
    /// proved for the affected dependence. Not an error by itself.
    Unsupported,
}

impl ViolationKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::IllegalOrder => "illegal-order",
            ViolationKind::DoallCarriesDep => "doall-carries-dep",
            ViolationKind::PipelineConeUncovered => "pipeline-cone-uncovered",
            ViolationKind::ReductionUnsafe => "reduction-unsafe",
            ViolationKind::ReductionAccumulatorAliased => "reduction-accumulator-aliased",
            ViolationKind::WavefrontUnsafe => "wavefront-unsafe",
            ViolationKind::JamUnsafe => "jam-unsafe",
            ViolationKind::KernelLint => "kernel-lint",
            ViolationKind::VmBounds => "vm-bounds",
            ViolationKind::LoweringMismatch => "lowering-mismatch",
            ViolationKind::Unsupported => "unsupported",
        }
    }

    /// Whether this kind fails certification (everything except
    /// [`ViolationKind::Unsupported`], which only limits coverage).
    pub fn is_error(self) -> bool {
        !matches!(self, ViolationKind::Unsupported)
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One certification failure, located at a statement pair and loop level.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Source statement name (empty for kernel-lint findings).
    pub src: String,
    /// Target statement name (empty for kernel-lint findings).
    pub dst: String,
    /// Dependence vector in the transformed loop space, one element per
    /// walked common level up to and including the failing one.
    pub vector: Vec<DepElem>,
    /// Loop level (0 = outermost common loop) the violation surfaced at.
    pub level: usize,
    /// Display name of the loop at `level` (empty when not applicable).
    pub loop_name: String,
    /// What exactly went wrong.
    pub detail: String,
    /// Suggested fix.
    pub fix: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.kind)?;
        if !self.src.is_empty() || !self.dst.is_empty() {
            write!(f, " {} -> {}", self.src, self.dst)?;
        }
        if !self.loop_name.is_empty() {
            write!(f, " at level {} ({})", self.level, self.loop_name)?;
        }
        if !self.vector.is_empty() {
            write!(f, " vector {:?}", self.vector)?;
        }
        write!(f, ": {}", self.detail)?;
        if !self.fix.is_empty() {
            write!(f, " (fix: {})", self.fix)?;
        }
        Ok(())
    }
}

/// The result of a certification run.
#[derive(Clone, Debug, Default)]
pub struct Certificate {
    /// Kernel / SCoP name.
    pub kernel: String,
    /// Dependence edges examined.
    pub deps_checked: usize,
    /// (dependence, occurrence pair) combinations walked.
    pub pairs_checked: usize,
    /// Everything found, deduplicated, errors first.
    pub violations: Vec<Violation>,
}

impl Certificate {
    /// Violations that fail certification.
    pub fn errors(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.kind.is_error())
    }

    /// True when every dependence was proved respected and every
    /// annotation proved safe (unsupported shapes allowed).
    pub fn is_certified(&self) -> bool {
        self.errors().next().is_none()
    }

    /// True when additionally no shape fell outside the model.
    pub fn is_complete(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fails with a [`PolymixError::Legality`] when not certified.
    pub fn into_result(self) -> Result<Certificate, PolymixError> {
        let n = self.errors().count();
        let first = self.errors().next().map(|v| v.to_string());
        let Some(first) = first else {
            return Ok(self);
        };
        let detail = if n == 1 {
            format!("static certification failed: {first}")
        } else {
            format!("static certification failed ({n} violations; first: {first})")
        };
        Err(PolymixError::Legality {
            kernel: self.kernel,
            detail,
        })
    }
}
