//! The parallelism detector of Sec. IV-A.
//!
//! Loop-level parallelism is classified from dependence vectors into
//! **doall** (no carried dependence), **pipeline** (all carried
//! dependences forward in this level and non-negative in the next —
//! runnable with point-to-point synchronization), or **reduction** (all
//! carried dependences come from associative-commutative updates, whose
//! arrays the mark lists). A level that pipelines with reduction carries
//! mixed in is a pipeline: the reductions need no ordering. Anything else
//! is sequential.
//!
//! The vectors say what is legal; [`runnable`] says what the emitter can
//! run. A level that passes the first and not the second is not marked.

use crate::tree::{Loop, Node, Par};
use polymix_deps::NestDep;
use polymix_ir::{Access, Scop, Statement};

/// Classifies loop level `k` of a nest of `depth` loops from the
/// dependence list of the nest, as the annotation the level may carry
/// ([`Par::Seq`] when none). Pipeline parallelism at level `k`
/// synchronizes across levels `k` and `k+1`, so it requires
/// `k + 1 < depth` (the paper's "at least two-level pipeline parallelism"
/// condition). A reduction lists the arrays of the reduction records
/// carried at `k`: the ones its workers privatize.
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
    let mut reduced: Vec<usize> = Vec::new();
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
            // A reduction dep needs no ordering at all.
            reduced.push(d.array);
        } else if ek.is_positive() && d.at(k + 1).is_nonneg() {
            any_pipeline_carried = true;
            reduction_ok = false;
        } else {
            pipeline_ok = false;
            reduction_ok = false;
        }
    }

    if pipeline_ok && any_pipeline_carried {
        Par::Pipeline
    } else if reduction_ok && !reduced.is_empty() {
        reduced.sort_unstable();
        reduced.dedup();
        Par::Reduction(reduced)
    } else {
        Par::Seq
    }
}

/// Whether access `acc` of `stmt` is the self-pair of an additive update:
/// the write or the read `A[f]` of `A[f] = A[f] + e`. Inside a reduction
/// region every access to a listed array must be one. A worker's copy
/// starts at zero and holds only its own partial sum, so any other read
/// would see a partial sum, any other write would be lost or summed
/// twice, and an update by another operator (`*=`) would not survive
/// the combine, which adds.
pub fn additive_self_pair(stmt: &Statement, acc: &Access) -> bool {
    stmt.is_additive_update() && acc.array == stmt.write.array && acc.map == stmt.write.map
}

/// The sub-loops a pipeline loop runs as the phases of each of its
/// steps: the loops of its body when the body is loops alone, one or a
/// sequence of them. `None` otherwise: a statement beside them would have
/// no phase to run in.
pub fn pipeline_phases(l: &Loop) -> Option<Vec<&Loop>> {
    let siblings: &[Node] = match &l.body {
        Node::Seq(xs) => xs,
        single => std::slice::from_ref(single),
    };
    let subs: Vec<&Loop> = siblings
        .iter()
        .filter_map(|x| match x {
            Node::Loop(il) => Some(il.as_ref()),
            _ => None,
        })
        .collect();
    (!subs.is_empty() && subs.len() == siblings.len()).then_some(subs)
}

/// Whether the emitter can run loop `l` of `scop` as a region of kind
/// `par`: a pipeline needs phases ([`pipeline_phases`]), and a reduction
/// needs every access below `l` to a listed array to be an additive
/// self-pair ([`additive_self_pair`]). Other marks always can.
pub fn runnable(scop: &Scop, l: &Loop, par: &Par) -> bool {
    match par {
        Par::Pipeline => pipeline_phases(l).is_some(),
        Par::Reduction(arrays) => {
            let mut ok = true;
            l.body.visit_stmts(&mut |s| {
                let stmt = &scop.statements[s.stmt_idx];
                let privatizable = |acc: &Access| !arrays.contains(&acc.array.0) || additive_self_pair(stmt, acc);
                ok &= stmt.accesses().iter().all(|(acc, _)| privatizable(acc));
            });
            ok
        }
        _ => true,
    }
}

/// Finds the outermost parallel level of a nest of `depth` loops, with its
/// annotation — the paper's strategy "use the loop parallelism at the
/// outermost possible level regardless of kind". With `doall_only`, only
/// a [`Par::Doall`] level counts (the comparison mode of Fig. 5).
pub fn outermost_parallel(deps: &[NestDep], depth: usize, doall_only: bool) -> Option<(usize, Par)> {
    (0..depth)
        .map(|k| (k, classify_level_in_nest(deps, k, depth)))
        .find(|(_, par)| *par == Par::Doall || (!doall_only && *par != Par::Seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Bound, LinExpr, StmtNode};
    use polymix_deps::DepElem::{self, *};
    use polymix_ir::{con, ix, par, BinOp, ScopBuilder};

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

    /// The loop `for i { body }` of `scop`, its statements in order at
    /// `i` = variable 0.
    fn loop_over(scop: &Scop) -> Loop {
        let stmt = |k| Node::Stmt(StmtNode { stmt_idx: k, iter_exprs: vec![LinExpr::var(0)] });
        Loop {
            var: 0,
            name: "i".into(),
            lo: Bound::con(0),
            hi: Bound::of(LinExpr::param(0).plus(-1)),
            step: 1,
            par: Par::Seq,
            jam: 1,
            body: Node::Seq((0..scop.statements.len()).map(stmt).collect()),
        }
    }

    /// `ACC[0] op= X[i]`, then `Y[i] = ACC[0]` or `Y[i] = X[i]`.
    fn accumulate(op: BinOp, reads_acc: bool) -> (Scop, usize) {
        let mut b = ScopBuilder::new("acc", &["N"], &[8]);
        let x = b.array("X", &["N"]);
        let acc = b.array("ACC", &[]);
        let y = b.array("Y", &["N"]);
        b.enter("i", con(0), par("N"));
        let rhs = b.rd(x, &[ix("i")]);
        b.stmt_update("S0", acc, &[], op, rhs);
        let body = if reads_acc { b.rd(acc, &[]) } else { b.rd(x, &[ix("i")]) };
        b.stmt("S1", y, &[ix("i")], body);
        b.exit();
        (b.finish().expect("well-formed SCoP"), acc.0)
    }

    /// A privatized accumulator holds a worker's partial sum: a statement
    /// under the loop that reads it refuses the reduction, one that reads
    /// another array does not, and an unlisted array is written in place.
    /// Copies are combined by adding them, so a `*=` accumulator is
    /// refused too.
    #[test]
    fn a_statement_that_touches_the_accumulator_refuses_the_reduction() {
        let cases = [(BinOp::Add, false, true), (BinOp::Add, true, false), (BinOp::Mul, false, false)];
        for (op, reads_acc, ok) in cases {
            let (scop, acc) = accumulate(op, reads_acc);
            let l = loop_over(&scop);
            let got = runnable(&scop, &l, &Par::Reduction(vec![acc]));
            assert_eq!(got, ok, "{op:?}, reads ACC: {reads_acc}");
            assert!(runnable(&scop, &l, &Par::Reduction(vec![])));
        }
    }

    /// A pipeline runs its body's loops as phases; a statement beside
    /// them has none to run in.
    #[test]
    fn a_pipeline_runs_only_a_body_of_loops() {
        let (scop, _) = accumulate(BinOp::Add, false);
        let inner = loop_over(&scop);
        let mut outer = inner.clone();
        outer.body = Node::loop_(inner.clone());
        assert!(runnable(&scop, &outer, &Par::Pipeline));
        outer.body = Node::Seq(vec![Node::loop_(inner.clone()), inner.body.clone()]);
        assert!(pipeline_phases(&outer).is_none());
        assert!(!runnable(&scop, &outer, &Par::Pipeline));
        assert!(runnable(&scop, &outer, &Par::Doall));
    }

    #[test]
    fn reduction_deps_allow_reduction_parallelism() {
        let v = deps(&[(&[Const(1), Const(0)], true)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Reduction(vec![0]));
        // Even non-uniform reduction carries are fine.
        let v = deps(&[(&[Plus, Star], true)]);
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Reduction(vec![0]));
        // The mark lists the arrays of the records carried at its level,
        // sorted, once each; a record carried further in lists nothing.
        let on = |array, vector: &[DepElem]| NestDep::new(vector.to_vec(), true, 0, 0, array);
        let v = [
            on(3, &[Const(1), Const(0)]),
            on(1, &[Plus, Star]),
            on(3, &[Const(2), Const(0)]),
            on(2, &[Const(0), Const(1)]),
        ];
        assert_eq!(classify_level_in_nest(&v, 0, 2), Par::Reduction(vec![1, 3]));
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
