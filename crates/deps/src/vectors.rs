//! Dependence distance / direction vectors of the transformed code.
//!
//! The AST-based stage works on dependence *vectors* rather than
//! polyhedra (Sec. IV): one element per loop level of the transformed
//! nest, each a constant distance when uniform or a direction otherwise.
//! Vectors are extracted from the dependence polyhedra by exact emptiness
//! queries, so they are as precise as the polyhedral representation.

use crate::depgraph::Dep;
use polymix_ir::Schedule;
use polymix_math::Polyhedron;

/// One element of a dependence vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepElem {
    /// Uniform distance.
    Const(i64),
    /// Always strictly positive but not constant (`+`).
    Plus,
    /// Always strictly negative but not constant (`-`).
    Minus,
    /// Always `>= 0` but neither constant nor strictly positive (`0+`).
    NonNeg,
    /// Always `<= 0` but neither constant nor strictly negative (`0-`).
    NonPos,
    /// Unknown sign (`*`).
    Star,
}

impl DepElem {
    /// The element is exactly zero for every dependent pair.
    pub fn is_zero(self) -> bool {
        self == DepElem::Const(0)
    }

    /// The element is `>= 0` for every dependent pair.
    pub fn is_nonneg(self) -> bool {
        matches!(self, DepElem::Const(c) if c >= 0)
            || matches!(self, DepElem::Plus | DepElem::NonNeg)
    }

    /// The element is `>= 1` for every dependent pair.
    pub fn is_positive(self) -> bool {
        matches!(self, DepElem::Const(c) if c >= 1) || self == DepElem::Plus
    }

    /// The element can be negative for some pair.
    pub fn may_be_negative(self) -> bool {
        !self.is_nonneg()
    }
}

/// True when the dependence with vector `v` is certainly carried by one
/// of the levels before `from` — a run of `0` / `0+` components ending
/// in a strictly positive one — so no loop at `from` or deeper sees it.
/// A prefix that is not all `0` does not suffice: `(0+, +)` is open at
/// level 1, its pairs with a zero first component are carried there.
pub fn carried_before(v: &[DepElem], from: usize) -> bool {
    for e in &v[..from.min(v.len())] {
        if e.is_positive() {
            return true;
        }
        if !e.is_nonneg() {
            return false;
        }
    }
    false
}

/// One dependence edge inside a loop nest, as the AST stage reads it: its
/// vector in the nest's (transformed) loop coordinates, whether it is an
/// associative-commutative self-update, and its source and target
/// statements (indices into `scop.statements`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestDep {
    /// One element per loop level of the nest.
    pub vector: Vec<DepElem>,
    /// The edge is a reduction self-update.
    pub reduction: bool,
    /// Source statement.
    pub src: usize,
    /// Target statement.
    pub dst: usize,
}

impl NestDep {
    /// The component at level `k`; `0` past the vector's end (a level
    /// neither endpoint has).
    pub fn at(&self, k: usize) -> DepElem {
        self.vector.get(k).copied().unwrap_or(DepElem::Const(0))
    }

    /// Whether the edge still constrains loops at level `from` or deeper
    /// among the statements `stmts`: both endpoints are in `stmts` and no
    /// level before `from` certainly carries it ([`carried_before`]).
    pub fn open_in(&self, stmts: &[usize], from: usize) -> bool {
        stmts.contains(&self.src) && stmts.contains(&self.dst) && !carried_before(&self.vector, from)
    }
}

/// Classifies the affine form `row` (dependence space, trailing constant
/// column) over the dependence polyhedron, using `sample_params` to find a
/// candidate constant distance.
pub fn classify(poly: &Polyhedron, row: &[i64], sample_params: &[i64]) -> DepElem {
    // Candidate constant from a sample point with parameters pinned.
    let n_vars = poly.n_dims() - sample_params.len();
    let mut pinned = poly.clone();
    for (k, &v) in sample_params.iter().enumerate() {
        pinned = pinned.fix(n_vars + k, v);
    }
    // A value (or neighbour) that does not fit `i64` is no candidate, and
    // the direction queries below decide.
    let candidate = pinned.sample().and_then(|pt| {
        let mut terms = row.iter().zip(pt.iter().chain(&[1]));
        let val = terms.try_fold(0i128, |acc, (&a, &x)| {
            acc.checked_add(i128::from(a) * i128::from(x))
        })?;
        let val = i64::try_from(val).ok()?;
        Some((val, val.checked_add(1)?, val.checked_sub(1)?))
    });
    if let Some((val, above, below)) = candidate {
        // `row == val` everywhere: nothing above it, nothing below it.
        if poly.and_ge(row, above).is_empty() && poly.and_le(row, below).is_empty() {
            return DepElem::Const(val);
        }
    }
    // `row >= b` everywhere iff `poly ∧ row <= b - 1` is empty, and dually.
    let ge1 = poly.and_le(row, 0).is_empty();
    let ge0 = ge1 || poly.and_le(row, -1).is_empty();
    let le_neg1 = !ge0 && poly.and_ge(row, 0).is_empty();
    let le0 = le_neg1 || poly.and_ge(row, 1).is_empty();
    match (ge1, ge0, le_neg1, le0) {
        (true, _, _, _) => DepElem::Plus,
        (false, true, _, _) => DepElem::NonNeg,
        (_, _, true, _) => DepElem::Minus,
        (_, _, false, true) => DepElem::NonPos,
        _ => DepElem::Star,
    }
}

/// Dependence vector of the edge under the (final) schedules, one element
/// per common loop level `0..depth`: [`dep_vector_transformed`] under the
/// identity transform. `sample_params` supplies concrete parameter values
/// used only to *guess* constant distances (the guess is then verified
/// parametrically).
pub fn dep_vector(
    dep: &Dep,
    sched_src: &Schedule,
    sched_dst: &Schedule,
    depth: usize,
    sample_params: &[i64],
) -> Vec<DepElem> {
    let identity: Vec<Vec<i64>> = (0..depth)
        .map(|k| (0..depth).map(|j| i64::from(j == k)).collect())
        .collect();
    dep_vector_transformed(dep, sched_src, sched_dst, &identity, sample_params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::{build_podg, DepKind};
    use polymix_ir::builder::{con, ix, par, ScopBuilder};
    use polymix_ir::Scop;

    /// jacobi-like: A[i][j] = B[i-1][j] + B[i][j-1]; B written elsewhere —
    /// simpler: seidel-style in-place: A[i][j] = A[i-1][j] + A[i][j-1].
    fn seidel_like() -> Scop {
        let mut b = ScopBuilder::new("sweep", &["N"], &[6]);
        b.assume_params_at_least(3);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(1), par("N"));
        let body = polymix_ir::Expr::add(
            b.rd(a, &[ix("i") - con(1), ix("j")]),
            b.rd(a, &[ix("i"), ix("j") - con(1)]),
        );
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        b.finish().expect("well-formed SCoP")
    }

    /// A prefix settles a vector only when it ends in a strictly positive
    /// component after `0`s and `0+`s.
    #[test]
    fn carried_before_needs_a_positive_component_after_a_nonneg_run() {
        use DepElem::*;
        let answers = [
            carried_before(&[NonNeg, Plus], 1),
            carried_before(&[NonNeg, Plus], 2),
            carried_before(&[Const(0), Const(2), Minus], 2),
            carried_before(&[Star, Plus], 2),
            carried_before(&[Const(1)], 5),
        ];
        assert_eq!(answers, [false, true, true, false, true]);
    }

    /// The open filter keeps an edge with both ends inside that no earlier
    /// level settles. `(0+, +)` stays open at level 1: its pairs with a
    /// zero first component are carried there. (The parallelism detector's
    /// own filter, "every component before `k` is `0`", drops it.)
    #[test]
    fn the_open_filter_wants_both_ends_inside_and_no_settling_prefix() {
        use DepElem::*;
        let dep = |vector: Vec<DepElem>, src, dst| NestDep { vector, reduction: false, src, dst };
        let list = [
            dep(vec![Const(0), Const(1)], 0, 1),
            dep(vec![Const(0), Const(1)], 0, 2),
            dep(vec![Const(0), NonNeg, Plus, Minus], 1, 1),
            dep(vec![NonNeg, Plus], 1, 0),
            dep(vec![Star, Const(0)], 0, 0),
        ];
        let open = |from| -> Vec<usize> {
            (0..list.len()).filter(|&i| list[i].open_in(&[0, 1], from)).collect()
        };
        // Statement 2 is outside the set at every level.
        assert_eq!(open(0), [0, 2, 3, 4]);
        assert_eq!(open(1), [0, 2, 3, 4]);
        // From level 2 on, `(0, 1)` and `(0+, +)` are settled; `0, 0+, +`
        // settles the third edge from level 3 on. A `*` settles nothing.
        assert_eq!(open(2), [2, 4]);
        assert_eq!(open(3), [4]);
        assert_eq!((list[2].at(3), list[2].at(9)), (Minus, Const(0)));
    }

    #[test]
    fn seidel_flow_distances_are_unit_vectors() {
        let scop = seidel_like();
        let g = build_podg(&scop);
        let s = &scop.statements[0].schedule;
        let mut vecs: Vec<Vec<DepElem>> = g
            .deps
            .iter()
            .filter(|d| d.kind == DepKind::Flow)
            .map(|d| dep_vector(d, s, s, 2, &[6]))
            .collect();
        vecs.sort_by_key(|v| format!("{v:?}"));
        assert!(vecs.contains(&vec![DepElem::Const(0), DepElem::Const(1)]));
        assert!(vecs.contains(&vec![DepElem::Const(1), DepElem::Const(0)]));
    }

    #[test]
    fn classify_direction_nonuniform() {
        // Dep from S(x) to S(y) for all x < y (e.g. through a scalar-like
        // cell): distance y - x ranges over 1..N-1 → Plus.
        let mut b = ScopBuilder::new("allpairs", &["N"], &[6]);
        let a = b.array("A", &[]); // scalar cell
        let o = b.array("O", &["N"]);
        b.enter("i", con(0), par("N"));
        b.stmt("W", a, &[], polymix_ir::Expr::Const(1.0));
        let body = b.rd(a, &[]);
        b.stmt("R", o, &[ix("i")], body);
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let g = build_podg(&scop);
        // Flow W(x) -> R(y) splits into an x < y branch (non-constant,
        // strictly positive distance: Plus) and an x == y branch (Const 0).
        let sw = &scop.statements[0].schedule;
        let sr = &scop.statements[1].schedule;
        let vecs: Vec<Vec<DepElem>> = g
            .deps
            .iter()
            .filter(|d| d.kind == DepKind::Flow)
            .map(|d| dep_vector(d, sw, sr, 1, &[6]))
            .collect();
        assert!(vecs.contains(&vec![DepElem::Plus]));
        assert!(vecs.contains(&vec![DepElem::Const(0)]));
    }

    #[test]
    fn reversal_flips_distance_sign() {
        let scop = seidel_like();
        let g = build_podg(&scop);
        let mut s = scop.statements[0].schedule.clone();
        s.reverse_level(0);
        let has_minus = g
            .deps
            .iter()
            .filter(|d| d.kind == DepKind::Flow)
            .map(|d| dep_vector(d, &s, &s, 2, &[6]))
            .any(|v| v[0] == DepElem::Const(-1));
        assert!(has_minus);
    }

    #[test]
    fn skewing_makes_all_elements_nonnegative() {
        let scop = seidel_like();
        let g = build_podg(&scop);
        let mut s = scop.statements[0].schedule.clone();
        s.skew(1, 0, 1); // j' = i + j
        for d in g.deps.iter().filter(|d| d.kind == DepKind::Flow) {
            let v = dep_vector(d, &s, &s, 2, &[6]);
            assert!(v.iter().all(|e| e.is_nonneg()), "vector {v:?}");
        }
    }

    #[test]
    fn dep_elem_predicates() {
        assert!(DepElem::Const(0).is_zero());
        assert!(DepElem::Const(2).is_positive());
        assert!(DepElem::Plus.is_positive());
        assert!(!DepElem::NonNeg.is_positive());
        assert!(DepElem::NonNeg.is_nonneg());
        assert!(DepElem::Star.may_be_negative());
        assert!(DepElem::Minus.may_be_negative());
        assert!(!DepElem::Const(1).may_be_negative());
    }
}

/// Dependence vector under the schedules *composed with* a row-transform
/// matrix `cmat` (one row per target level; `cmat[k][j]` is the
/// coefficient of original schedule level `j` in new level `k`). This is
/// how AST-level skewing is modeled exactly: new level `k` computes
/// `Σ_j cmat[k][j] · θ_j`, and each element is classified over the FULL
/// dependence polyhedron — the classical distance/direction vector. (No
/// peeling of pairs already separated at outer levels: tiling legality
/// needs the complete vector, and the parallelism detector filters on
/// zero prefixes itself.)
///
/// A level neither schedule has contributes nothing; an element with no
/// contribution at all is `Const(0)`. An element whose combined row does
/// not fit `i64` is `Star`: unknown sign, so skewing and tiling stay
/// conservative instead of reading a wrapped distance.
pub fn dep_vector_transformed(
    dep: &Dep,
    sched_src: &Schedule,
    sched_dst: &Schedule,
    cmat: &[Vec<i64>],
    sample_params: &[i64],
) -> Vec<DepElem> {
    let levels = sched_src.dim().min(sched_dst.dim());
    let base: Vec<Vec<i64>> = (0..cmat.len().min(levels))
        .map(|j| dep.diff_row(&sched_src.loop_row(j), &sched_dst.loop_row(j)))
        .collect();
    cmat.iter()
        .map(|row| {
            let mut wide = vec![0i128; dep.poly.n_dims() + 1];
            let mut any = false;
            for (&c, b) in row.iter().zip(&base) {
                if c != 0 {
                    any = true;
                    for (d, &b) in wide.iter_mut().zip(b) {
                        *d += i128::from(c) * i128::from(b);
                    }
                }
            }
            if !any {
                return DepElem::Const(0);
            }
            let diff: Option<Vec<i64>> = wide.iter().map(|&d| i64::try_from(d).ok()).collect();
            diff.map_or(DepElem::Star, |diff| {
                classify(&dep.poly, &diff, sample_params)
            })
        })
        .collect()
}

#[cfg(test)]
mod transformed_tests {
    use super::*;
    use crate::depgraph::{build_podg, DepKind};
    use polymix_ir::builder::{con, ix, par, ScopBuilder};

    #[test]
    fn transform_matrix_models_ast_skewing() {
        // seidel-like with dep (1, -1): skewing level 1 by level 0
        // (cmat row1 = [1, 1]) must make the component non-negative.
        let mut b = ScopBuilder::new("sk", &["N"], &[6]);
        b.assume_params_at_least(3);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(0), par("N") - con(1));
        let body = b.rd(a, &[ix("i") - con(1), ix("j") + con(1)]);
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let g = build_podg(&scop);
        let s = &scop.statements[0].schedule;
        let flow = g.deps.iter().find(|d| d.kind == DepKind::Flow).unwrap();
        let ident = vec![vec![1, 0], vec![0, 1]];
        let v0 = dep_vector_transformed(flow, s, s, &ident, &[6]);
        assert_eq!(v0, vec![DepElem::Const(1), DepElem::Const(-1)]);
        let skewed = vec![vec![1, 0], vec![1, 1]];
        let v1 = dep_vector_transformed(flow, s, s, &skewed, &[6]);
        assert_eq!(v1, vec![DepElem::Const(1), DepElem::Const(0)]);
        // Skew factor 2 overshoots to +1.
        let skewed2 = vec![vec![1, 0], vec![2, 1]];
        let v2 = dep_vector_transformed(flow, s, s, &skewed2, &[6]);
        assert_eq!(v2, vec![DepElem::Const(1), DepElem::Const(1)]);
    }

    #[test]
    fn identity_transform_matches_dep_vector() {
        let mut b = ScopBuilder::new("id", &["N"], &[5]);
        let a = b.array("A", &["N", "N"]);
        b.enter("i", con(1), par("N"));
        b.enter("j", con(1), par("N"));
        let body = polymix_ir::Expr::add(
            b.rd(a, &[ix("i") - con(1), ix("j")]),
            b.rd(a, &[ix("i"), ix("j") - con(1)]),
        );
        b.stmt("S", a, &[ix("i"), ix("j")], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let g = build_podg(&scop);
        let s = &scop.statements[0].schedule;
        let ident = vec![vec![1, 0], vec![0, 1]];
        for d in &g.deps {
            assert_eq!(
                dep_vector(d, s, s, 2, &[5]),
                dep_vector_transformed(d, s, s, &ident, &[5])
            );
        }
    }
}
