//! The shared error type of the compile pipeline.
//!
//! Every stage of the flow — Pluto-like scheduling, the DL-guided affine
//! stage, AST transformations, polyhedral code generation, and the bench
//! runner — is a heuristic that can fail to find a legal choice for a
//! given SCoP. Those failures are *data*, not bugs: drivers degrade to a
//! weaker variant (ultimately the original loop order, which is always
//! legal) and record what went wrong. [`PolymixError`] carries enough
//! context (kernel, stage, statement group, detail) to render the
//! `error(<stage>)` cells of the results tables.
//!
//! The type lives in `polymix-ir` so every layer can name it; the facade
//! re-export is `polymix_core::error::PolymixError`.

use std::fmt;

/// Pipeline stage an error originated from; used both for reporting
/// (`error(<stage>)` table cells) and for fallback-chain decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// SCoP construction (`ScopBuilder`).
    Build,
    /// Affine scheduling: Pluto-like scheduler or the DL-guided stage.
    Scheduling,
    /// A dependence-legality violation detected outside scheduling.
    Legality,
    /// A syntactic AST transformation (tiling, unrolling, skewing, …).
    Transform,
    /// Polyhedral-to-AST code generation or Rust emission.
    Codegen,
    /// The source-to-source measurement harness.
    Runner,
}

impl Stage {
    /// Short lowercase name, as printed in `error(<stage>)` cells.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Build => "build",
            Stage::Scheduling => "scheduling",
            Stage::Legality => "legality",
            Stage::Transform => "transform",
            Stage::Codegen => "codegen",
            Stage::Runner => "runner",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed, contextual failure from any stage of the compile pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolymixError {
    /// SCoP construction failed (builder misuse or malformed input).
    Build {
        /// SCoP name, if known at the point of failure.
        scop: String,
        detail: String,
    },
    /// No legal schedule choice at some level for a statement group.
    Scheduling {
        /// Kernel / SCoP name.
        kernel: String,
        /// Schedule level (loop depth) at which the search failed.
        level: usize,
        /// Indices of the statements in the failing group.
        statements: Vec<usize>,
        detail: String,
    },
    /// A schedule violates a dependence.
    Legality {
        kernel: String,
        detail: String,
    },
    /// An AST transformation could not be applied legally.
    Transform {
        /// Transform name (`unroll`, …).
        transform: String,
        detail: String,
    },
    /// Code generation / emission failed.
    Codegen {
        kernel: String,
        detail: String,
    },
    /// The measurement harness failed for one kernel × variant.
    Runner {
        kernel: String,
        /// Experimental variant label, if applicable.
        variant: String,
        detail: String,
    },
}

impl PolymixError {
    /// The pipeline stage this error belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            PolymixError::Build { .. } => Stage::Build,
            PolymixError::Scheduling { .. } => Stage::Scheduling,
            PolymixError::Legality { .. } => Stage::Legality,
            PolymixError::Transform { .. } => Stage::Transform,
            PolymixError::Codegen { .. } => Stage::Codegen,
            PolymixError::Runner { .. } => Stage::Runner,
        }
    }

    /// Convenience constructor for scheduling failures.
    pub fn scheduling(
        kernel: impl Into<String>,
        level: usize,
        statements: Vec<usize>,
        detail: impl Into<String>,
    ) -> Self {
        PolymixError::Scheduling {
            kernel: kernel.into(),
            level,
            statements,
            detail: detail.into(),
        }
    }

    /// Convenience constructor for transform failures.
    pub fn transform(transform: impl Into<String>, detail: impl Into<String>) -> Self {
        PolymixError::Transform {
            transform: transform.into(),
            detail: detail.into(),
        }
    }

    /// Convenience constructor for codegen failures.
    pub fn codegen(kernel: impl Into<String>, detail: impl Into<String>) -> Self {
        PolymixError::Codegen {
            kernel: kernel.into(),
            detail: detail.into(),
        }
    }

    /// Convenience constructor for builder failures.
    pub fn build(scop: impl Into<String>, detail: impl Into<String>) -> Self {
        PolymixError::Build {
            scop: scop.into(),
            detail: detail.into(),
        }
    }

    /// Convenience constructor for runner failures.
    pub fn runner(
        kernel: impl Into<String>,
        variant: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        PolymixError::Runner {
            kernel: kernel.into(),
            variant: variant.into(),
            detail: detail.into(),
        }
    }

    /// The `error(<stage>)` cell text used by the results tables.
    pub fn cell(&self) -> String {
        format!("error({})", self.stage())
    }
}

impl fmt::Display for PolymixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolymixError::Build { scop, detail } => {
                write!(f, "build error in SCoP `{scop}`: {detail}")
            }
            PolymixError::Scheduling {
                kernel,
                level,
                statements,
                detail,
            } => write!(
                f,
                "scheduling error in `{kernel}` at level {level} (statements {statements:?}): {detail}"
            ),
            PolymixError::Legality { kernel, detail } => {
                write!(f, "legality error in `{kernel}`: {detail}")
            }
            PolymixError::Transform { transform, detail } => {
                write!(f, "transform error in `{transform}`: {detail}")
            }
            PolymixError::Codegen { kernel, detail } => {
                write!(f, "codegen error in `{kernel}`: {detail}")
            }
            PolymixError::Runner {
                kernel,
                variant,
                detail,
            } => write!(f, "runner error in `{kernel}` ({variant}): {detail}"),
        }
    }
}

impl std::error::Error for PolymixError {}

/// Pipeline-wide result alias.
pub type Result<T> = std::result::Result<T, PolymixError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_cells() {
        let e = PolymixError::scheduling("gemm", 1, vec![0, 2], "no legal row");
        assert_eq!(e.stage(), Stage::Scheduling);
        assert_eq!(e.cell(), "error(scheduling)");
        assert!(e.to_string().contains("gemm"));
        assert!(e.to_string().contains("level 1"));
    }

    #[test]
    fn display_carries_context() {
        let e = PolymixError::transform("unroll", "factor 0 < 1");
        assert_eq!(e.cell(), "error(transform)");
        assert!(e.to_string().contains("unroll"));
        let e = PolymixError::runner("adi", "pocc", "compile failed");
        assert_eq!(e.stage().name(), "runner");
    }
}
