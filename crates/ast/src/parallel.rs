//! The parallelism detector of Sec. IV-A.
//!
//! Loop-level parallelism is classified from dependence vectors into
//! **doall** (no carried dependence), **pipeline** (all carried
//! dependences forward in this level and non-negative in the next —
//! runnable with point-to-point synchronization), or **reduction** (all
//! carried dependences come from associative-commutative updates). A level
//! that pipelines with reduction carries mixed in is a pipeline: the
//! reductions need no ordering. Anything else is sequential.

use crate::tree::Par;
use polymix_deps::NestDep;

/// Classifies loop level `k` of a nest of `depth` loops from the
/// dependence list of the nest, as the annotation the level may carry
/// ([`Par::Seq`] when none). Pipeline parallelism at level `k`
/// synchronizes across levels `k` and `k+1`, so it requires
/// `k + 1 < depth` (the paper's "at least two-level pipeline parallelism"
/// condition).
///
/// Records an outer level carries are ignored, the paper's "not
/// satisfied by the outer loops": the detector reads each record's
/// carried level ([`NestDep::open_at`]), like every other test of the
/// AST stage.
pub fn classify_level_in_nest(deps: &[NestDep], k: usize, depth: usize) -> Par {
    let relevant: Vec<&NestDep> = deps.iter().filter(|d| d.open_at(k)).collect();

    // doall: every relevant vector has e_k == 0.
    if relevant.iter().all(|d| d.at(k).is_zero()) {
        return Par::Doall;
    }

    let mut pipeline_ok = k + 1 < depth;
    let mut reduction_ok = true;
    let mut any_pipeline_carried = false;
    let mut any_reduction_carried = false;
    for d in &relevant {
        let ek = d.at(k);
        if ek.is_zero() {
            // Not carried here — but a backward component at k+1 breaks
            // the left-to-right block order of the p2p construct.
            if !d.reduction && d.at(k + 1).may_be_negative() {
                pipeline_ok = false;
            }
            continue;
        }
        // Carried dependence. The point-to-point construct synchronizes
        // on the full product-order cone of (k, k+1), so a dependence is
        // pipelineable when it is strictly forward at k and non-negative
        // at k+1 (uniformity is not required for the await cone).
        if d.reduction {
            any_reduction_carried = true;
            // A reduction dep needs no ordering at all.
        } else if ek.is_positive() && d.at(k + 1).is_nonneg() {
            any_pipeline_carried = true;
            reduction_ok = false;
        } else {
            pipeline_ok = false;
            reduction_ok = false;
        }
    }

    // The emitter privatizes a reduction's whole accumulator array per
    // worker: a statement under the loop that touches it other than by a
    // reduction self-update carried here would see partial sums.
    let accumulators: Vec<(usize, usize)> = relevant
        .iter()
        .filter(|d| d.reduction && !d.at(k).is_zero())
        .map(|d| (d.src, d.array))
        .collect();
    if relevant.iter().any(|d| {
        accumulators.iter().any(|&(_, a)| a == d.array)
            && !(accumulators.contains(&(d.src, d.array)) && accumulators.contains(&(d.dst, d.array)))
    }) {
        reduction_ok = false;
    }

    if pipeline_ok && any_pipeline_carried {
        Par::Pipeline
    } else if reduction_ok && any_reduction_carried {
        Par::Reduction
    } else {
        Par::Seq
    }
}

/// Finds the outermost parallel level of a nest of `depth` loops, with its
/// annotation — the paper's strategy "use the loop parallelism at the
/// outermost possible level regardless of kind". With `doall_only`, only
/// a [`Par::Doall`] level counts (the comparison mode of Fig. 5).
pub fn outermost_parallel(deps: &[NestDep], depth: usize, doall_only: bool) -> Option<(usize, Par)> {
    (0..depth)
        .map(|k| (k, classify_level_in_nest(deps, k, depth)))
        .find(|&(_, par)| par == Par::Doall || (!doall_only && par != Par::Seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymix_deps::DepElem::{self, *};

    /// A list of records of one statement onto itself.
    fn deps(vectors: &[(&[DepElem], bool)]) -> Vec<NestDep> {
        vectors
            .iter()
            .map(|&(v, reduction)| NestDep::new(v.to_vec(), reduction, 0, 0, 0))
            .collect()
    }

    #[test]
    fn no_deps_is_doall() {
        assert_eq!(classify_level_in_nest(&[], 0, 1), Par::Doall);
    }

    #[test]
    fn zero_component_is_doall() {
        let v = deps(&[(&[Const(0), Const(1)], false)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Doall);
        assert_eq!(classify_level_in_nest(&v, 1, 2), Par::Seq);
    }

    #[test]
    fn stencil_unit_deps_are_pipeline() {
        // seidel: (1,0), (0,1), (1,1)-ish. At level 0: carried (1,0),(1,1)
        // uniform forward; (0,1) not carried at 0.
        let v = deps(&[
            (&[Const(1), Const(0)], false),
            (&[Const(0), Const(1)], false),
            (&[Const(1), Const(1)], false),
        ]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Pipeline);
    }

    #[test]
    fn negative_next_level_blocks_pipeline() {
        // (1,-1): forward at 0 but backward at 1 → needs skewing first.
        let v = deps(&[(&[Const(1), Const(-1)], false)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Seq);
    }

    #[test]
    fn nonuniform_forward_cone_is_pipeline() {
        // A non-uniform but strictly forward dependence is covered by the
        // await cone: (≥1, ≥0) pipelines.
        let v = deps(&[(&[Plus, Const(0)], false)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Pipeline);
        // But a possibly-negative next level is not.
        let v = deps(&[(&[Plus, Star], false)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Seq);
    }

    /// Statement 0 sums into array 0 along level 0; statement 1 reads that
    /// accumulator in the same iteration. Privatized, it would read a
    /// worker's partial sum: the level is not a reduction. A record on
    /// another array between the two statements changes nothing.
    #[test]
    fn a_statement_that_touches_the_accumulator_refuses_the_reduction() {
        let sum = NestDep::new(vec![Const(1), Const(0)], true, 0, 0, 0);
        let read = |array| NestDep::new(vec![Const(0), Const(0)], false, 0, 1, array);
        assert_eq!(classify_level_in_nest(&[sum.clone(), read(1)], 0, 2), Par::Reduction);
        assert_eq!(classify_level_in_nest(&[sum, read(0)], 0, 2), Par::Seq);
    }

    #[test]
    fn reduction_deps_allow_reduction_parallelism() {
        let v = deps(&[(&[Const(1), Const(0)], true)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Reduction);
        // Even non-uniform reduction carries are fine.
        let v = deps(&[(&[Plus, Star], true)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Reduction);
    }

    #[test]
    fn mixed_reduction_and_pipeline() {
        let v = deps(&[(&[Const(1), Const(0)], true), (&[Const(1), Const(1)], false)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Pipeline);
    }

    #[test]
    fn outer_satisfied_deps_are_ignored_inside() {
        // A record carried at level 0 doesn't serialize level 1, nor does
        // the `(+, *)` half of a `(0+, +)` edge ...
        for carried in [&[Const(1), Const(-5)][..], &[Plus, Star]] {
            let v = deps(&[(carried, false)]);
            assert_eq!(classify_level_in_nest(&v, 1, 2), Par::Doall);
        }
        // ... but its `(0, +)` half does, and so does a record whose
        // first non-zero component is `0+`: level 0 leaves its pairs with
        // a zero first component to level 1.
        for open in [&[Const(0), Plus][..], &[NonNeg, Plus]] {
            let v = deps(&[(&[Plus, Star], false), (open, false)]);
            assert_eq!(classify_level_in_nest(&v, 1, 2), Par::Seq);
        }
    }

    #[test]
    fn outermost_parallel_scan() {
        // Level 0 pipelines via the cone; without the next-level loop it
        // would fall through to level 1's doall.
        let v = deps(&[(&[Plus, Const(0)], false)]);
        assert_eq!(outermost_parallel(&v, 2, false), Some((0, Par::Pipeline)));
        assert_eq!(outermost_parallel(&v, 1, false), None); // no level to pipe over

        // Counting doall only, the scan goes on to level 1.
        assert_eq!(outermost_parallel(&v, 2, true), Some((1, Par::Doall)));
        // Fully serial chain in one loop.
        let v = deps(&[(&[Star], false)]);
        assert_eq!(outermost_parallel(&v, 1, false), None);
    }
}
