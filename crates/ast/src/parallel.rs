//! The parallelism detector of Sec. IV-A.
//!
//! Loop-level parallelism is classified from dependence vectors into
//! **doall** (no carried dependence), **pipeline** (all carried
//! dependences uniform and forward in this and the next level — runnable
//! with point-to-point synchronization), **reduction** (all carried
//! dependences come from associative-commutative updates), or their
//! combination; anything else is sequential.

use polymix_deps::DepElem;

/// Result of classifying one loop level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopParallelism {
    /// No dependence carried by the loop.
    Doall,
    /// All carried dependences are uniform, non-negative here and at the
    /// next level: point-to-point pipeline across a 2-D grid.
    Pipeline,
    /// All carried dependences come from reductions.
    Reduction,
    /// Mixture of pipelineable and reduction-carried dependences.
    ReductionPipeline,
    /// None of the above.
    Sequential,
}

impl LoopParallelism {
    /// True when the loop can run threads without a serial schedule.
    pub fn is_parallel(self) -> bool {
        self != LoopParallelism::Sequential
    }

    /// The `await source(..)` offsets the runtime protocol must observe
    /// for this kind of parallelism, as `(d_outer, d_inner)` deltas: a
    /// cell `(i, j)` may only run after `(i + d_outer, j + d_inner)` for
    /// every listed source. Doall and reduction levels impose no
    /// point-to-point ordering (reductions reorder freely by
    /// associativity); pipeline levels synchronize on the Sec. IV-D
    /// cone `source(i-1, j) source(i, j-1)`. The runtime's `order-check`
    /// feature and the emitted poisonable protocol both enforce exactly
    /// this set.
    pub fn await_sources(self) -> &'static [(i64, i64)] {
        match self {
            LoopParallelism::Pipeline | LoopParallelism::ReductionPipeline => {
                &[(-1, 0), (0, -1)]
            }
            LoopParallelism::Doall
            | LoopParallelism::Reduction
            | LoopParallelism::Sequential => &[],
        }
    }
}

/// Classifies loop level `k` of a nest given the dependence vectors of
/// every edge whose endpoints are inside the loop. Each entry is
/// `(vector, is_reduction_dep)`. Vectors already satisfied by an outer
/// level (a component `>= 1` before `k`) are ignored, matching the
/// paper's "not satisfied by the outer loops" filtering.
///
/// The filter drops every vector whose components before `k` are not all
/// `0`, which is looser than [`polymix_deps::carried_before`]: `(0+, +)`
/// counts as settled at level 1 although its pairs with a zero first
/// component are carried there. `polymix-verify` re-proves every mark
/// from the dependence polyhedra; the sound filter would drop all the
/// doall regions of the Pluto variants of fdtd-2d and jacobi-2d-imper,
/// which those proofs accept: `(0, 0+, 0+)` cannot tell a dependence
/// carried at level 2 from one whose last two components are equal.
pub fn classify_level(vectors: &[(Vec<DepElem>, bool)], k: usize) -> LoopParallelism {
    classify_level_in_nest(vectors, k, usize::MAX)
}

/// Like [`classify_level`] but aware of the nest depth: pipeline
/// parallelism at level `k` synchronizes across levels `k` and `k+1`, so
/// it requires `k + 1 < depth` (the paper's "at least two-level pipeline
/// parallelism" condition).
pub fn classify_level_in_nest(
    vectors: &[(Vec<DepElem>, bool)],
    k: usize,
    depth: usize,
) -> LoopParallelism {
    let relevant: Vec<&(Vec<DepElem>, bool)> = vectors
        .iter()
        .filter(|(v, _)| {
            // Unsatisfied at outer levels: every component before k is 0.
            v.iter().take(k).all(|e| e.is_zero())
        })
        .collect();

    let elem_at = |v: &[DepElem], i: usize| v.get(i).copied().unwrap_or(DepElem::Const(0));

    // doall: every relevant vector has e_k == 0.
    if relevant.iter().all(|(v, _)| elem_at(v, k).is_zero()) {
        return LoopParallelism::Doall;
    }

    let mut pipeline_ok = true;
    let mut reduction_ok = true;
    let mut any_pipeline_carried = false;
    let mut any_reduction_carried = false;
    for (v, is_red) in &relevant {
        let ek = elem_at(v, k);
        if ek.is_zero() {
            // Not carried here — but a backward component at k+1 breaks
            // the left-to-right block order of the p2p construct.
            if !*is_red && elem_at(v, k + 1).may_be_negative() {
                pipeline_ok = false;
            }
            continue;
        }
        // Carried dependence. The point-to-point construct synchronizes
        // on the full product-order cone of (k, k+1), so a dependence is
        // pipelineable when it is strictly forward at k and non-negative
        // at k+1 (uniformity is not required for the await cone).
        let cone_forward = ek.is_positive() && elem_at(v, k + 1).is_nonneg();
        if *is_red {
            any_reduction_carried = true;
            // A reduction dep needs no ordering at all.
        } else if cone_forward {
            any_pipeline_carried = true;
            reduction_ok = false;
        } else {
            pipeline_ok = false;
            reduction_ok = false;
        }
    }

    if k + 1 >= depth {
        pipeline_ok = false;
    }
    match (
        pipeline_ok && any_pipeline_carried,
        reduction_ok && any_reduction_carried,
        any_reduction_carried,
    ) {
        (true, _, true) => LoopParallelism::ReductionPipeline,
        (true, _, false) => LoopParallelism::Pipeline,
        (false, true, _) => LoopParallelism::Reduction,
        _ => LoopParallelism::Sequential,
    }
}

/// Finds the outermost parallel level of a nest of `depth` loops, with its
/// classification — the paper's strategy "use the loop parallelism at the
/// outermost possible level regardless of kind".
pub fn outermost_parallel(
    vectors: &[(Vec<DepElem>, bool)],
    depth: usize,
) -> Option<(usize, LoopParallelism)> {
    for k in 0..depth {
        let c = classify_level_in_nest(vectors, k, depth);
        if c.is_parallel() {
            return Some((k, c));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use DepElem::*;

    #[test]
    fn no_deps_is_doall() {
        assert_eq!(classify_level(&[], 0), LoopParallelism::Doall);
    }

    #[test]
    fn zero_component_is_doall() {
        let v = vec![(vec![Const(0), Const(1)], false)];
        assert_eq!(classify_level(&v, 0), LoopParallelism::Doall);
        assert_eq!(classify_level_in_nest(&v, 1, 2), LoopParallelism::Sequential);
    }

    #[test]
    fn stencil_unit_deps_are_pipeline() {
        // seidel: (1,0), (0,1), (1,1)-ish. At level 0: carried (1,0),(1,1)
        // uniform forward; (0,1) not carried at 0.
        let v = vec![
            (vec![Const(1), Const(0)], false),
            (vec![Const(0), Const(1)], false),
            (vec![Const(1), Const(1)], false),
        ];
        assert_eq!(classify_level(&v, 0), LoopParallelism::Pipeline);
    }

    #[test]
    fn negative_next_level_blocks_pipeline() {
        // (1,-1): forward at 0 but backward at 1 → needs skewing first.
        let v = vec![(vec![Const(1), Const(-1)], false)];
        assert_eq!(classify_level(&v, 0), LoopParallelism::Sequential);
    }

    #[test]
    fn nonuniform_forward_cone_is_pipeline() {
        // A non-uniform but strictly forward dependence is covered by the
        // await cone: (≥1, ≥0) pipelines.
        let v = vec![(vec![Plus, Const(0)], false)];
        assert_eq!(classify_level(&v, 0), LoopParallelism::Pipeline);
        // But a possibly-negative next level is not.
        let v = vec![(vec![Plus, Star], false)];
        assert_eq!(classify_level(&v, 0), LoopParallelism::Sequential);
    }

    #[test]
    fn reduction_deps_allow_reduction_parallelism() {
        let v = vec![(vec![Const(1), Const(0)], true)];
        assert_eq!(classify_level(&v, 0), LoopParallelism::Reduction);
        // Even non-uniform reduction carries are fine.
        let v = vec![(vec![Plus, Star], true)];
        assert_eq!(classify_level(&v, 0), LoopParallelism::Reduction);
    }

    #[test]
    fn mixed_reduction_and_pipeline() {
        let v = vec![
            (vec![Const(1), Const(0)], true),
            (vec![Const(1), Const(1)], false),
        ];
        assert_eq!(classify_level(&v, 0), LoopParallelism::ReductionPipeline);
    }

    #[test]
    fn outer_satisfied_deps_are_ignored_inside() {
        // Dep carried at level 0 doesn't serialize level 1.
        let v = vec![(vec![Const(1), Const(-5)], false)];
        assert_eq!(classify_level(&v, 1), LoopParallelism::Doall);
    }

    #[test]
    fn await_sources_match_the_sec_ivd_cone() {
        assert_eq!(
            LoopParallelism::Pipeline.await_sources(),
            &[(-1, 0), (0, -1)]
        );
        assert_eq!(
            LoopParallelism::ReductionPipeline.await_sources(),
            &[(-1, 0), (0, -1)]
        );
        assert!(LoopParallelism::Doall.await_sources().is_empty());
        assert!(LoopParallelism::Reduction.await_sources().is_empty());
        assert!(LoopParallelism::Sequential.await_sources().is_empty());
    }

    #[test]
    fn outermost_parallel_scan() {
        // Level 0 pipelines via the cone; without the next-level loop it
        // would fall through to level 1's doall.
        let v = vec![(vec![Plus, Const(0)], false)];
        assert_eq!(
            outermost_parallel(&v, 2),
            Some((0, LoopParallelism::Pipeline))
        );
        assert_eq!(outermost_parallel(&v, 1), None); // no level to pipe over
        // Fully serial chain in one loop.
        let v = vec![(vec![Star], false)];
        assert_eq!(outermost_parallel(&v, 1), None);
    }
}
