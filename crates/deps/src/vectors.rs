//! Dependence distance / direction vectors of the transformed code.
//!
//! The AST-based stage works on dependence *vectors* rather than
//! polyhedra (Sec. IV): one element per loop level of the transformed
//! nest, each a constant distance when uniform or a direction otherwise.
//! Vectors are extracted from the dependence polyhedra by exact emptiness
//! queries, so they are as precise as the polyhedral representation, and
//! each edge is split into records by the level that carries its pairs
//! ([`dep_records`]).

use crate::depgraph::Dep;
use polymix_ir::Schedule;
use polymix_math::{IntMat, Polyhedron};
use std::borrow::Cow;

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

/// One dependence record inside a loop nest, as the AST stage reads it:
/// its vector in the nest's (transformed) loop coordinates, the level
/// that carries it, whether it is an associative-commutative
/// self-update, and its source and target statements (indices into
/// `scop.statements`). One PoDG edge gives one record per level that
/// may carry its pairs ([`dep_records`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestDep {
    /// One element per loop level of the nest.
    pub vector: Vec<DepElem>,
    /// The level that carries every pair of the record: its component
    /// is `>= 1` there and `0` before. `None` when no loop level
    /// certainly does — statement order carries an all-`0` vector, and a
    /// first non-zero component that may be negative settles nothing.
    pub carried: Option<usize>,
    /// The edge is a reduction self-update.
    pub reduction: bool,
    /// Source statement.
    pub src: usize,
    /// Target statement.
    pub dst: usize,
    /// Index of the array the edge's two accesses touch.
    pub array: usize,
}

impl NestDep {
    /// The record of `vector`, carried at its first non-zero component
    /// when that component is `>= 1`.
    pub fn new(vector: Vec<DepElem>, reduction: bool, src: usize, dst: usize, array: usize) -> NestDep {
        let carried = vector
            .iter()
            .position(|e| !e.is_zero())
            .filter(|&k| vector[k].is_positive());
        NestDep { vector, carried, reduction, src, dst, array }
    }

    /// The component at level `k`; `0` past the vector's end (a level
    /// neither endpoint has).
    pub fn at(&self, k: usize) -> DepElem {
        self.vector.get(k).copied().unwrap_or(DepElem::Const(0))
    }

    /// Whether the record still constrains loops at level `from` or
    /// deeper: no level before `from` carries it.
    pub fn open_at(&self, from: usize) -> bool {
        self.carried.is_none_or(|c| c >= from)
    }

    /// Whether the record still constrains loops at level `from` or
    /// deeper among the statements `stmts`: both endpoints are in
    /// `stmts` and it is [open](NestDep::open_at) at `from`.
    pub fn open_in(&self, stmts: &[usize], from: usize) -> bool {
        stmts.contains(&self.src) && stmts.contains(&self.dst) && self.open_at(from)
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

/// The records of the edge `dep` under the schedules composed with the
/// row transform `cmat` (`cmat[(k, j)]` is the coefficient of original
/// schedule level `j` in new level `k`: how AST-level skewing is modeled
/// exactly). Each element is [`classify`]'s answer over its record's pairs.
///
/// The walk goes outermost-in over the pairs no level has carried yet.
/// Where the first non-zero element is `0+`, the pairs split: those on
/// which it is `>= 1` are a record carried there (`+` at that level), and
/// those on which it is `0` are walked on from the next level. Any other
/// first non-zero element ends the walk with one record, so an edge with
/// no `0+` on its way is one record: the vector of the whole polyhedron.
///
/// An element no level of either schedule contributes to is `Const(0)`;
/// one whose combined row does not fit `i64` is `Star` (unknown sign, not
/// a wrapped distance).
pub fn dep_records(
    dep: &Dep,
    sched_src: &Schedule,
    sched_dst: &Schedule,
    cmat: &IntMat,
    sample_params: &[i64],
) -> Vec<NestDep> {
    let levels = sched_src.dim().min(sched_dst.dim());
    let base: Vec<Vec<i64>> = (0..cmat.cols().min(levels))
        .map(|j| dep.diff_row(&sched_src.loop_row(j), &sched_dst.loop_row(j)))
        .collect();
    // Each new level's difference row, or its element when that needs no
    // question.
    let rows: Vec<Result<Vec<i64>, DepElem>> = (0..cmat.rows())
        .map(|k| {
            let mut wide = vec![0i128; dep.poly.n_dims() + 1];
            let mut any = false;
            for (&c, b) in cmat.row(k).iter().zip(&base) {
                if c != 0 {
                    any = true;
                    for (d, &b) in wide.iter_mut().zip(b) {
                        *d += i128::from(c) * i128::from(b);
                    }
                }
            }
            if !any {
                return Err(DepElem::Const(0));
            }
            wide.iter()
                .map(|&d| i64::try_from(d).ok())
                .collect::<Option<Vec<i64>>>()
                .ok_or(DepElem::Star)
        })
        .collect();
    let elem = |piece: &Polyhedron, k: usize| match &rows[k] {
        Ok(row) => classify(piece, row, sample_params),
        Err(e) => *e,
    };
    // `0` before level `k`, `head` at it, the rest classified on `piece`.
    let record = |piece: &Polyhedron, k: usize, head: Option<DepElem>| {
        let mut vector = vec![DepElem::Const(0); k];
        vector.extend(head);
        vector.extend((k + 1..rows.len()).map(|j| elem(piece, j)));
        NestDep::new(vector, dep.is_reduction, dep.src.0, dep.dst.0, dep.array.0)
    };
    let mut out = Vec::new();
    let mut piece = Cow::Borrowed(&dep.poly);
    for (k, row) in rows.iter().enumerate() {
        match (elem(&piece, k), row) {
            (e, _) if e.is_zero() => {}
            (DepElem::NonNeg, Ok(row)) => {
                out.push(record(&piece.and_ge(row, 1), k, Some(DepElem::Plus)));
                piece = Cow::Owned(piece.and_eq0(row));
            }
            (e, _) => {
                out.push(record(&piece, k, Some(e)));
                return out;
            }
        }
    }
    out.push(record(&piece, rows.len(), None));
    out
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

    /// The vectors of the records of every flow edge of `scop`'s one
    /// statement under `s` (`depth` levels, identity transform).
    fn flow_vectors(scop: &Scop, s: &Schedule, depth: usize) -> Vec<Vec<DepElem>> {
        build_podg(scop)
            .deps
            .iter()
            .filter(|d| d.kind == DepKind::Flow)
            .flat_map(|d| dep_records(d, s, s, &IntMat::identity(depth), &[6]))
            .map(|r| r.vector)
            .collect()
    }

    /// A record is carried at its first non-zero component, and only when
    /// that component is strictly positive.
    #[test]
    fn a_record_is_carried_at_its_first_nonzero_component_when_that_is_positive() {
        use DepElem::*;
        let carried = |v: &[DepElem]| NestDep::new(v.to_vec(), false, 0, 0, 0).carried;
        let answers = [
            carried(&[NonNeg, Plus]),
            carried(&[Plus, Minus]),
            carried(&[Const(0), Const(2), Minus]),
            carried(&[Star, Plus]),
            carried(&[Const(0), Minus, Plus]),
            carried(&[Const(0), Const(0)]),
        ];
        assert_eq!(answers, [None, Some(0), Some(1), None, None, None]);
    }

    /// The open filter keeps a record with both ends inside that no
    /// earlier level carries. The two records of a `(0+, +)` edge, `(+, *)`
    /// and `(0, +)`, leave it open at level 1 through the second.
    #[test]
    fn the_open_filter_wants_both_ends_inside_and_no_settling_prefix() {
        use DepElem::*;
        let list = [
            NestDep::new(vec![Const(0), Const(1)], false, 0, 1, 0),
            NestDep::new(vec![Const(0), Const(1)], false, 0, 2, 0),
            NestDep::new(vec![Const(0), Const(0), Plus, Minus], false, 1, 1, 0),
            NestDep::new(vec![Plus, Star], false, 1, 0, 0),
            NestDep::new(vec![Const(0), Plus], false, 1, 0, 0),
            NestDep::new(vec![Star, Const(0)], false, 0, 0, 0),
        ];
        let open = |from| -> Vec<usize> {
            (0..list.len()).filter(|&i| list[i].open_in(&[0, 1], from)).collect()
        };
        // Statement 2 is outside the set at every level.
        assert_eq!(open(0), [0, 2, 3, 4, 5]);
        assert_eq!(open(1), [0, 2, 4, 5]);
        // From level 2 on, `(0, 1)` and `(0, +)` are settled; the third
        // record from level 3 on. A `*` settles nothing.
        assert_eq!(open(2), [2, 5]);
        assert_eq!(open(3), [5]);
        assert_eq!((list[2].at(3), list[2].at(9)), (Minus, Const(0)));
    }

    /// `for i, j: A[i][j] = 1;  for i { for j in 1..i+2: B[i][j-1] = A[j-1][0] }`:
    /// under the statements' own schedules the flow edge reads `(0+, +)`
    /// over its whole polyhedron. It becomes `(+, +)` carried at 0 (the
    /// pairs `j <= i`) and `(0, +)` carried at 1 (the pairs `j = i + 1`).
    #[test]
    fn an_edge_whose_first_nonzero_component_is_nonneg_splits_there() {
        let mut b = ScopBuilder::new("split", &["N"], &[6]);
        b.assume_params_at_least(3);
        let a = b.array("A", &["N", "N"]);
        let o = b.array("B", &["N", "N"]);
        b.enter("i", con(0), par("N"));
        b.enter("j", con(0), par("N"));
        b.stmt("S", a, &[ix("i"), ix("j")], polymix_ir::Expr::Const(1.0));
        b.exit();
        b.exit();
        b.enter("i", con(0), par("N"));
        b.enter("j", con(1), ix("i") + con(2));
        let body = b.rd(a, &[ix("j") - con(1), con(0)]);
        b.stmt("T", o, &[ix("i"), ix("j") - con(1)], body);
        b.exit();
        b.exit();
        let scop = b.finish().expect("well-formed SCoP");
        let g = build_podg(&scop);
        let (s, t) = (&scop.statements[0].schedule, &scop.statements[1].schedule);
        let flow = g.deps.iter().find(|d| d.kind == DepKind::Flow).expect("a flow edge");
        let whole: Vec<DepElem> = (0..2)
            .map(|k| classify(&flow.poly, &flow.diff_row(&s.loop_row(k), &t.loop_row(k)), &[6]))
            .collect();
        assert_eq!(whole, [DepElem::NonNeg, DepElem::Plus]);
        let records = dep_records(flow, s, t, &IntMat::identity(2), &[6]);
        let got: Vec<(Vec<DepElem>, Option<usize>)> =
            records.into_iter().map(|r| (r.vector, r.carried)).collect();
        assert_eq!(
            got,
            [
                (vec![DepElem::Plus, DepElem::Plus], Some(0)),
                (vec![DepElem::Const(0), DepElem::Plus], Some(1)),
            ]
        );
    }

    #[test]
    fn seidel_flow_distances_are_unit_vectors() {
        let scop = seidel_like();
        let vecs = flow_vectors(&scop, &scop.statements[0].schedule, 2);
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
            .flat_map(|d| dep_records(d, sw, sr, &IntMat::identity(1), &[6]))
            .map(|r| r.vector)
            .collect();
        assert!(vecs.contains(&vec![DepElem::Plus]));
        assert!(vecs.contains(&vec![DepElem::Const(0)]));
    }

    #[test]
    fn reversal_flips_distance_sign() {
        let scop = seidel_like();
        let mut s = scop.statements[0].schedule.clone();
        s.reverse_level(0);
        assert!(flow_vectors(&scop, &s, 2).iter().any(|v| v[0] == DepElem::Const(-1)));
    }

    #[test]
    fn skewing_makes_all_elements_nonnegative() {
        let scop = seidel_like();
        let mut s = scop.statements[0].schedule.clone();
        s.skew(1, 0, 1); // j' = i + j
        for v in flow_vectors(&scop, &s, 2) {
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
        let vectors = |rows: &[Vec<i64>]| -> Vec<Vec<DepElem>> {
            dep_records(flow, s, s, &IntMat::from_rows(rows), &[6])
                .into_iter()
                .map(|r| r.vector)
                .collect()
        };
        use DepElem::Const;
        assert_eq!(vectors(&[vec![1, 0], vec![0, 1]]), [[Const(1), Const(-1)]]);
        assert_eq!(vectors(&[vec![1, 0], vec![1, 1]]), [[Const(1), Const(0)]]);
        // Skew factor 2 overshoots to +1.
        assert_eq!(vectors(&[vec![1, 0], vec![2, 1]]), [[Const(1), Const(1)]]);
    }

    /// An edge with no `0+` before its first non-zero component gives one
    /// record: every level classified over the whole polyhedron.
    #[test]
    fn an_unsplit_edge_is_one_record_with_the_whole_vector() {
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
        for d in &g.deps {
            let whole: Vec<DepElem> = (0..2)
                .map(|k| classify(&d.poly, &d.diff_row(&s.loop_row(k), &s.loop_row(k)), &[5]))
                .collect();
            let records = dep_records(d, s, s, &IntMat::identity(2), &[5]);
            assert_eq!(records, [NestDep::new(whole, d.is_reduction, 0, 0, d.array.0)]);
        }
    }
}
