//! The benchmark registry: all 22 kernels of Table II.

use crate::kernel::Kernel;
use crate::{
    kernels_blas as blas, kernels_extended as ext, kernels_solver as solver,
    kernels_stat as stat, kernels_stencil as stencil,
};

/// Every kernel of the paper's Table II, in the table's order.
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        blas::two_mm(),
        blas::three_mm(),
        solver::adi(),
        blas::atax(),
        blas::bicg(),
        solver::cholesky(),
        stat::correlation(),
        stat::covariance(),
        blas::doitgen(),
        stencil::fdtd_2d(),
        stencil::fdtd_apml(),
        blas::gemm(),
        blas::gemver(),
        blas::gesummv(),
        stencil::jacobi_1d(),
        stencil::jacobi_2d(),
        blas::mvt(),
        stencil::seidel_2d(),
        blas::symm(),
        blas::syr2k(),
        blas::syrk(),
        solver::trisolv(),
    ]
}

/// Kernels beyond Table II (not part of the reproduced figures): their
/// triangular / in-place dependence patterns broaden optimizer coverage.
pub fn extended_kernels() -> Vec<Kernel> {
    vec![ext::lu(), ext::trmm(), ext::gramschmidt()]
}

/// Looks up a kernel by name across the Table II and extended suites.
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    all_kernels()
        .into_iter()
        .chain(extended_kernels())
        .find(|k| k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_22_table_ii_entries() {
        let ks = all_kernels();
        assert_eq!(ks.len(), 22);
        let names: Vec<&str> = ks.iter().map(|k| k.name).collect();
        for expected in [
            "2mm",
            "3mm",
            "adi",
            "atax",
            "bicg",
            "cholesky",
            "correlation",
            "covariance",
            "doitgen",
            "fdtd-2d",
            "fdtd-apml",
            "gemm",
            "gemver",
            "gesummv",
            "jacobi-1d-imper",
            "jacobi-2d-imper",
            "mvt",
            "seidel-2d",
            "symm",
            "syr2k",
            "syrk",
            "trisolv",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn every_kernel_has_four_datasets_and_positive_flops() {
        for k in all_kernels() {
            let ds = (k.datasets)();
            assert_eq!(ds.len(), 4, "{}", k.name);
            for d in &ds {
                assert!((k.flops)(&d.params) > 0, "{} {}", k.name, d.name);
            }
        }
    }

    #[test]
    fn scop_default_params_match_param_count() {
        for k in all_kernels() {
            let scop = (k.build)();
            assert_eq!(
                scop.params.len(),
                k.dataset("mini").params.len(),
                "{}",
                k.name
            );
            assert_eq!(scop.default_params.len(), scop.params.len());
        }
    }

    #[test]
    fn kernel_by_name_roundtrip() {
        assert!(kernel_by_name("gemm").is_some());
        assert!(kernel_by_name("nope").is_none());
    }

    #[test]
    fn domains_are_enumerable_at_mini_sizes() {
        // Every statement's domain must be a bounded polyhedron once
        // parameters are fixed; also sanity-check instance counts > 0.
        for k in all_kernels() {
            let scop = (k.build)();
            let params = k.dataset("mini").params;
            let mut total = 0usize;
            for s in &scop.statements {
                let dom = scop.instantiate_domain(s, &params);
                total += dom.enumerate().expect("bounded domain").len();
            }
            assert!(total > 0, "{} has empty domains", k.name);
        }
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;

    /// Every kernel's SCoP must pass structural + bounds validation at
    /// its default parameters (catches builder typos in subscripts).
    #[test]
    fn every_kernel_scop_validates() {
        for k in all_kernels().into_iter().chain(extended_kernels()) {
            let scop = (k.build)();
            scop.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }
}
