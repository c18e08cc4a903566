//! Dense integer matrices.
//!
//! These back the `2d+1` scheduling matrices, access functions and the
//! unimodular transformation algebra of the compiler. The dimensions in
//! play are tiny (a handful of loop iterators), so a straightforward dense
//! row-major representation is the right tool. Rank, determinant and
//! inverse come from one fraction-free (Bareiss) elimination in checked
//! `i128`: exact, integer-only, and an entry that does not fit is an
//! answer (`None`), not an abort.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `i64` matrix.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IntMat {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> IntMat {
        IntMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n`×`n` identity.
    pub fn identity(n: usize) -> IntMat {
        let mut m = IntMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Builds a matrix from row slices; all rows must share one length.
    pub fn from_rows(rows: &[Vec<i64>]) -> IntMat {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in IntMat::from_rows");
            data.extend_from_slice(row);
        }
        IntMat { rows: r, cols: c, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    pub fn row(&self, r: usize) -> &[i64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends a row. Panics if the width differs.
    pub fn push_row(&mut self, row: &[i64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &IntMat) -> IntMat {
        assert_eq!(self.cols, rhs.rows, "IntMat::mul shape mismatch");
        let mut out = IntMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        assert_eq!(self.cols, v.len(), "IntMat::mul_vec shape mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> IntMat {
        let mut out = IntMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Fraction-free (Bareiss) elimination to row echelon form: every
    /// intermediate entry is a minor of `self`, so all divisions are exact
    /// and the arithmetic stays in integers. With `jordan`, the identity is
    /// carried along on the right and rows *above* each pivot are
    /// eliminated too, which leaves `[p·I | p·self⁻¹]` for an invertible
    /// square matrix with last pivot `p`. `None` when an intermediate does
    /// not fit `i128`.
    fn bareiss(&self, jordan: bool) -> Option<Echelon> {
        let (n, cols) = (self.rows, self.cols);
        let width = if jordan { cols + n } else { cols };
        let mut m = vec![0i128; n * width];
        for r in 0..n {
            for (c, &x) in self.row(r).iter().enumerate() {
                m[r * width + c] = i128::from(x);
            }
            if jordan {
                m[r * width + cols + r] = 1;
            }
        }
        let (mut rank, mut pivot, mut negated) = (0, 1i128, false);
        for col in 0..cols {
            if rank == n {
                break;
            }
            let Some(p) = (rank..n).find(|&r| m[r * width + col] != 0) else {
                continue;
            };
            if p != rank {
                for c in 0..width {
                    m.swap(rank * width + c, p * width + c);
                }
                negated = !negated;
            }
            let prev = std::mem::replace(&mut pivot, m[rank * width + col]);
            for r in if jordan { 0 } else { rank + 1 }..n {
                if r == rank {
                    continue;
                }
                let f = m[r * width + col];
                for c in 0..width {
                    let kept = pivot.checked_mul(m[r * width + c])?;
                    let gone = f.checked_mul(m[rank * width + c])?;
                    m[r * width + c] = kept.checked_sub(gone)? / prev;
                }
            }
            rank += 1;
        }
        Some(Echelon {
            m,
            width,
            rank,
            pivot,
            negated,
        })
    }

    /// Rank over the rationals; `None` on `i128` overflow.
    pub fn rank(&self) -> Option<usize> {
        Some(self.bareiss(false)?.rank)
    }

    /// Determinant (square matrices only), computed exactly; `None` when
    /// it, or an intermediate, does not fit.
    pub fn det(&self) -> Option<i64> {
        assert_eq!(self.rows, self.cols, "det of non-square matrix");
        let e = self.bareiss(false)?;
        if e.rank < self.rows {
            return Some(0);
        }
        i64::try_from(if e.negated { e.pivot.checked_neg()? } else { e.pivot }).ok()
    }

    /// True iff the matrix is square with determinant ±1 (false when the
    /// determinant cannot be computed without overflow).
    pub fn is_unimodular(&self) -> bool {
        self.rows == self.cols && self.rows > 0 && matches!(self.det(), Some(1 | -1))
    }

    /// True iff the matrix is square and a *signed permutation*: exactly one
    /// nonzero entry per row and per column, each ±1. This is the schedule
    /// class the paper restricts its polyhedral stage to (Sec. III-A).
    pub fn is_signed_permutation(&self) -> bool {
        if self.rows != self.cols || self.rows == 0 {
            return false;
        }
        let mut col_seen = vec![false; self.cols];
        for i in 0..self.rows {
            let mut hits = 0;
            for j in 0..self.cols {
                match self[(i, j)] {
                    0 => {}
                    1 | -1 => {
                        if col_seen[j] {
                            return false;
                        }
                        col_seen[j] = true;
                        hits += 1;
                    }
                    _ => return false,
                }
            }
            if hits != 1 {
                return false;
            }
        }
        true
    }

    /// Exact inverse of a matrix whose inverse is *integer* (e.g. a
    /// unimodular one); `None` when the matrix is not square, is singular,
    /// has a fractional inverse, or overflows on the way.
    pub fn inverse_unimodular(&self) -> Option<IntMat> {
        let n = self.rows;
        if n != self.cols {
            return None;
        }
        let e = self.bareiss(true)?;
        if e.rank < n {
            return None;
        }
        let mut out = IntMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let scaled = e.m[i * e.width + n + j];
                if scaled % e.pivot != 0 {
                    return None;
                }
                out[(i, j)] = i64::try_from(scaled / e.pivot).ok()?;
            }
        }
        Some(out)
    }
}

/// What [`IntMat::bareiss`] leaves behind.
struct Echelon {
    /// The eliminated matrix, row-major, `width` columns.
    m: Vec<i128>,
    width: usize,
    rank: usize,
    /// The last pivot (1 for rank 0): for a full-rank square matrix, its
    /// determinant up to `negated`.
    pivot: i128,
    /// Whether an odd number of row swaps happened.
    negated: bool,
}

impl Index<(usize, usize)> for IntMat {
    type Output = i64;
    fn index(&self, (r, c): (usize, usize)) -> &i64 {
        assert!(r < self.rows && c < self.cols, "IntMat index out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for IntMat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut i64 {
        assert!(r < self.rows && c < self.cols, "IntMat index out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for IntMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IntMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_mul() {
        let a = IntMat::from_rows(&[vec![1, 2], vec![3, 4]]);
        let i = IntMat::identity(2);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
        let b = IntMat::from_rows(&[vec![0, 1], vec![1, 0]]);
        assert_eq!(
            a.mul(&b),
            IntMat::from_rows(&[vec![2, 1], vec![4, 3]])
        );
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = IntMat::from_rows(&[vec![1, 2, 3], vec![0, -1, 4]]);
        assert_eq!(a.mul_vec(&[1, 1, 1]), vec![6, 3]);
    }

    #[test]
    fn det_and_unimodularity() {
        let skew = IntMat::from_rows(&[vec![1, 0], vec![1, 1]]);
        assert_eq!(skew.det(), Some(1));
        assert!(skew.is_unimodular());
        let scale = IntMat::from_rows(&[vec![2, 0], vec![0, 1]]);
        assert_eq!(scale.det(), Some(2));
        assert!(!scale.is_unimodular());
        let singular = IntMat::from_rows(&[vec![1, 2], vec![2, 4]]);
        assert_eq!(singular.det(), Some(0));
        // A row swap flips the sign; a zero leading entry forces one.
        let swap = IntMat::from_rows(&[vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]]);
        assert_eq!(swap.det(), Some(-1));
        assert!(swap.is_unimodular());
        let dense = IntMat::from_rows(&[vec![2, -1, 3], vec![4, 0, -2], vec![-1, 5, 1]]);
        assert_eq!(dense.det(), Some(82));
    }

    #[test]
    fn signed_permutation_detection() {
        let p = IntMat::from_rows(&[vec![0, 1, 0], vec![-1, 0, 0], vec![0, 0, 1]]);
        assert!(p.is_signed_permutation());
        let skew = IntMat::from_rows(&[vec![1, 0], vec![1, 1]]);
        assert!(!skew.is_signed_permutation());
        let double = IntMat::from_rows(&[vec![2, 0], vec![0, 1]]);
        assert!(!double.is_signed_permutation());
    }

    #[test]
    fn unimodular_inverse_roundtrip() {
        for m in [
            IntMat::from_rows(&[vec![1, 0, 0], vec![1, 1, 0], vec![0, 2, 1]]),
            // Needs a row swap, and eliminates above the pivot.
            IntMat::from_rows(&[vec![0, 1, 3], vec![1, 2, 0], vec![0, 0, -1]]),
            IntMat::from_rows(&[
                vec![1, 2, 0, 0],
                vec![0, 1, 0, 3],
                vec![0, 0, 1, 0],
                vec![1, 2, 0, 1],
            ]),
        ] {
            let inv = m.inverse_unimodular().expect("unimodular");
            let n = m.rows();
            assert_eq!(m.mul(&inv), IntMat::identity(n), "{m:?}");
            assert_eq!(inv.mul(&m), IntMat::identity(n), "{m:?}");
        }
    }

    #[test]
    fn singular_inverse_is_none() {
        let singular = IntMat::from_rows(&[vec![1, 2], vec![2, 4]]);
        assert_eq!(singular.inverse_unimodular(), None);
        // Invertible over the rationals, but the inverse is fractional.
        let scale = IntMat::from_rows(&[vec![2, 0], vec![0, 1]]);
        assert_eq!(scale.inverse_unimodular(), None);
        assert_eq!(IntMat::zeros(2, 3).inverse_unimodular(), None);
    }

    #[test]
    fn entries_at_the_edge_of_i64_are_answered_or_refused_never_wrapped() {
        let big = i64::MAX;
        // Products of two entries fit `i128`; the determinant does not fit
        // `i64`, and says so.
        let m = IntMat::from_rows(&[vec![big, 1], vec![1, big]]);
        assert_eq!(m.rank(), Some(2));
        assert_eq!(m.det(), None);
        assert!(!m.is_unimodular());
        assert_eq!(m.inverse_unimodular(), None);
        // Unimodular with a huge entry: exact inverse.
        let skew = IntMat::from_rows(&[vec![1, 0], vec![big, 1]]);
        assert_eq!(skew.det(), Some(1));
        assert_eq!(
            skew.inverse_unimodular(),
            Some(IntMat::from_rows(&[vec![1, 0], vec![-big, 1]]))
        );
        // Three-deep products leave `i128`: no answer, no abort.
        let cube = IntMat::from_rows(&[vec![big, 1, 1], vec![1, big, 1], vec![1, 1, big]]);
        assert_eq!(cube.rank(), None);
        assert_eq!(cube.det(), None);
        assert_eq!(cube.inverse_unimodular(), None);
    }

    #[test]
    fn rank_of_rectangular() {
        let m = IntMat::from_rows(&[vec![1, 2, 3], vec![2, 4, 6], vec![0, 1, 1]]);
        assert_eq!(m.rank(), Some(2));
        assert_eq!(IntMat::zeros(3, 4).rank(), Some(0));
        assert_eq!(IntMat::identity(4).rank(), Some(4));
        // A pivot-free column in the middle, then more pivots.
        let gap = IntMat::from_rows(&[vec![1, 2, 0, 1], vec![2, 4, 1, 0], vec![3, 6, 1, 1]]);
        assert_eq!(gap.rank(), Some(2));
        let wide = IntMat::from_rows(&[vec![1, 2, 0, 1], vec![2, 4, 1, 0], vec![0, 0, 0, 5]]);
        assert_eq!(wide.rank(), Some(3));
    }
}
