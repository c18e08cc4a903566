//! The experimental variants of Sec. V-A.

use polymix_ast::tree::Program;
use polymix_codegen::from_poly::original_program;
use polymix_core::error::PolymixError;
use polymix_core::{optimize_poly_ast, PolyAstOptions};
use polymix_dl::Machine;
use polymix_ir::Scop;
use polymix_pluto::{optimize_pluto, Fusion, PlutoOptions};
use polymix_polybench::{Group, Kernel};

/// One optimizer configuration: the experimental variants of the paper
/// (Sec. V-A names in comments) and the tuner's search families. Its
/// [`Variant::name`] is the only spelling of each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `icc-auto` / `xlc-auto` analogue: the reference loop nest compiled
    /// by the native compiler (rustc/LLVM; no auto-parallelizer).
    Native,
    /// `pocc`: Pluto smart-fuse + tiling + doall-or-wavefront.
    Pocc,
    /// `pocc+vect`: `pocc` with register tiling at (2, 2)
    /// ([`paper_knobs`]).
    PoccVect,
    /// `iterative` member: Pluto with maximal fusion (the Fig. 2
    /// structure, Table I's "pocc (maxfuse)" row). The figures report
    /// `iterative` as the best of `pocc` and both members, mirroring
    /// PoCC's auto-tuning.
    IterativeMax,
    /// `iterative` member: no fusion.
    IterativeNo,
    /// `poly+ast`: the paper's flow.
    PolyAst,
    /// `poly+ast` restricted to doall parallelism (Fig. 5 comparison).
    PolyAstDoallOnly,
    /// `poly+ast` with Algorithm 5's inter-SCC fusion disabled (the
    /// fusion ablation and a tuner family); not in [`Variant::ALL`].
    PolyAstNoFuse,
}

impl Variant {
    /// The paper's variants: what the audits walk (in this order) and the
    /// service accepts.
    pub const ALL: [Variant; 7] = [
        Variant::Native,
        Variant::Pocc,
        Variant::PoccVect,
        Variant::IterativeMax,
        Variant::IterativeNo,
        Variant::PolyAst,
        Variant::PolyAstDoallOnly,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Native => "native",
            Variant::Pocc => "pocc",
            Variant::PoccVect => "pocc+vect",
            Variant::IterativeMax => "iter(max)",
            Variant::IterativeNo => "iter(no)",
            Variant::PolyAst => "poly+ast",
            Variant::PolyAstDoallOnly => "poly+ast(doall)",
            Variant::PolyAstNoFuse => "poly+ast(nofuse)",
        }
    }

    /// The variant of [`Variant::ALL`] whose [`Variant::name`] is `label`
    /// (the service's wire spelling and the bins' `--variant` argument).
    pub fn parse(label: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.name() == label)
    }
}

/// The variant set of Figs. 7–9 (iterative is reported as the max over
/// its members by the figure binaries).
pub fn variant_list() -> Vec<Variant> {
    vec![
        Variant::Native,
        Variant::Pocc,
        Variant::PoccVect,
        Variant::IterativeMax,
        Variant::IterativeNo,
        Variant::PolyAst,
    ]
}

/// The paper's knob settings for `variant` on a kernel of `group`, as
/// `(tile, time_tile, unroll)`: tile 32 everywhere, 5 for the outer time
/// tile of the pipeline group; register tiling (2, 2) for the `vect`
/// configuration and `(1, 1)` elsewhere, which leaves poly+AST to pick
/// its own jams from the machine's add latency (DESIGN §19, "Register
/// tiling is a mark"; the paper tunes unroll-and-jam factors
/// empirically over {1,2,4,6,8}).
pub fn paper_knobs(group: Group, variant: Variant) -> (i64, i64, (i64, i64)) {
    let time_tile = if group == Group::Pipeline { 5 } else { 32 };
    let unroll = if variant == Variant::PoccVect { (2, 2) } else { (1, 1) };
    (32, time_tile, unroll)
}

/// Builds the optimized program for `kernel` under `variant` with the
/// paper's knob settings ([`paper_knobs`]).
///
/// Both optimizers degrade gracefully inside (fusion fallback chain,
/// best-effort AST stages); an `Err` means the kernel could not be
/// compiled at all and the sweep should record it and continue.
pub fn build_variant(
    kernel: &Kernel,
    variant: Variant,
    machine: &Machine,
) -> Result<Program, PolymixError> {
    let (tile, time_tile, unroll) = paper_knobs(kernel.group, variant);
    build_with(&(kernel.build)(), variant, tile, time_tile, unroll, machine)
}

/// The one mapping from a [`Variant`] to optimizer options, with the
/// tile and unroll knobs explicit: [`build_variant`] passes the paper's
/// defaults, the tuner and the register-tiling ablation their own, the
/// optimization service whatever the request resolved to.
pub fn build_with(
    scop: &Scop,
    variant: Variant,
    tile: i64,
    time_tile: i64,
    unroll: (i64, i64),
    machine: &Machine,
) -> Result<Program, PolymixError> {
    let pluto = |fusion| {
        optimize_pluto(
            scop,
            &PlutoOptions {
                fusion,
                tile,
                time_tile,
                tiling: true,
                unroll,
            },
        )
    };
    match variant {
        Variant::Native => original_program(scop),
        Variant::Pocc | Variant::PoccVect => pluto(Fusion::Smart),
        Variant::IterativeMax => pluto(Fusion::Max),
        Variant::IterativeNo => pluto(Fusion::None),
        Variant::PolyAst | Variant::PolyAstDoallOnly | Variant::PolyAstNoFuse => optimize_poly_ast(
            scop,
            &PolyAstOptions {
                machine: machine.clone(),
                tile,
                time_tile,
                tiling: true,
                doall_only: variant == Variant::PolyAstDoallOnly,
                unroll,
                fusion: variant != Variant::PolyAstNoFuse,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_ast::interp::execute;
    use polymix_polybench::kernel_by_name;

    #[test]
    fn all_variants_build_and_match_reference_on_gemm() {
        let k = kernel_by_name("gemm").unwrap();
        let scop = (k.build)();
        let params = k.dataset("mini").params;
        let mut expected = k.fresh_arrays(&scop, &params);
        (k.reference)(&params, &mut expected);
        let m = Machine::host();
        for v in Variant::ALL {
            let prog = build_variant(&k, v, &m).expect("variant builds");
            let mut actual = k.fresh_arrays(&scop, &params);
            execute(&prog, &params, &mut actual);
            assert_eq!(actual[0], expected[0], "variant {v:?}");
        }
    }

    #[test]
    fn variant_names_are_stable() {
        assert_eq!(Variant::Pocc.name(), "pocc");
        assert_eq!(Variant::PolyAst.name(), "poly+ast");
        assert_eq!(variant_list().len(), 6);
    }

    #[test]
    fn every_variant_name_parses_back() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.name()), Some(v));
        }
        assert_eq!(Variant::parse("pluto9000"), None);
        // Maximal fusion is `iter(max)` alone, and poly+AST without
        // fusion is neither audited nor served.
        assert_eq!(Variant::parse("pluto-maxfuse"), None);
        assert_eq!(Variant::parse("poly+ast(nofuse)"), None);
    }
}
