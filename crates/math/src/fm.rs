//! Fourier–Motzkin elimination over affine constraint rows.
//!
//! Eliminating a dimension `d` from a constraint system proceeds in two
//! phases:
//!
//! 1. **Exact equality substitution** — if some equality mentions `d`, it is
//!    used to substitute `d` out of every other constraint. This step is
//!    exact over the integers.
//! 2. **Inequality combination** — every (lower, upper) pair
//!    `a·x_d + f >= 0` (a > 0) and `-b·x_d + g >= 0` (b > 0) is combined
//!    into `b·f + a·g >= 0`. When `a == 1` or `b == 1` this is the *exact
//!    shadow*; otherwise it is the rational (real) shadow, which is sound
//!    but may over-approximate the integer projection. All sets produced by
//!    this workspace have unit coefficients on the eliminated dimensions,
//!    so the elimination is exact in practice.
//!
//! Both phases multiply rows by coefficients of other rows. The products
//! are computed in checked `i64` arithmetic and an overflow fails the
//! whole step with [`Overflow`] — never a wrapped row, which would
//! describe a different set.

use crate::poly::{CmpOp, Polyhedron};
use std::fmt;

/// A coefficient of an eliminated row left the `i64` range. The caller
/// must treat the elimination as not performed: a wrapped coefficient
/// would describe a different set, and an emptiness test run on it could
/// "prove" a non-empty set empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overflow;

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fourier–Motzkin coefficient overflows i64")
    }
}

/// Writes the row `x·l + y·u` into `out`, with column `d` (where the two
/// terms cancel by construction) set to zero.
fn combine(x: i64, l: &[i64], y: i64, u: &[i64], d: usize, out: &mut [i64]) -> Option<()> {
    for (k, ((&lk, &uk), o)) in l.iter().zip(u).zip(out).enumerate() {
        if k != d {
            *o = x.checked_mul(lk)?.checked_add(y.checked_mul(uk)?)?;
        }
    }
    Some(())
}

/// Eliminates dimension `d` from `src` into `out` (emptied first): rows
/// that no longer mention it, normalized and without repeats like every
/// row of a [`Polyhedron`]. The dimension count (row width) is preserved.
pub(crate) fn eliminate_dim(
    src: &Polyhedron,
    d: usize,
    out: &mut Polyhedron,
) -> Result<(), Overflow> {
    out.truncate(0);
    // Phase 1: equality substitution. Among the equalities mentioning
    // `d`, prefer the one with the smallest |coefficient| — a unit
    // coefficient makes the substitution exact over the integers.
    let eqs = src.constraints().enumerate();
    let eqs = eqs.filter(|(_, c)| c.op == CmpOp::Eq && c.mentions(d));
    if let Some((eq_idx, eq)) = eqs.min_by_key(|(_, c)| c.coeff(d).unsigned_abs()) {
        let a = eq.coeff(d); // a * x_d + f == 0
        for (i, c) in src.constraints().enumerate() {
            if i == eq_idx {
                continue;
            }
            let b = c.coeff(d);
            if b == 0 {
                out.push_copy(c.row, c.op);
                continue;
            }
            // c: b * x_d + g OP 0. Multiply by |a| (positive: preserves OP)
            // then replace b*|a|*x_d = -sgn(a)*b*f.
            let (abs_a, sb) = a
                .checked_abs()
                .zip(b.checked_mul(-a.signum()))
                .ok_or(Overflow)?;
            out.push_row(c.op, |r| combine(abs_a, c.row, sb, eq.row, d, r))
                .ok_or(Overflow)?;
        }
        return Ok(());
    }

    // Phase 2: inequality combination. No equality mentions `d` here, so
    // a positive coefficient is a lower bound and a negative one an upper.
    for c in src.constraints().filter(|c| !c.mentions(d)) {
        out.push_copy(c.row, c.op);
    }
    for lo in src.constraints().filter(|c| c.coeff(d) > 0) {
        let a = lo.coeff(d);
        for up in src.constraints().filter(|c| c.coeff(d) < 0) {
            let b = up.coeff(d).checked_neg().ok_or(Overflow)?;
            // b*lo + a*up : coefficient on d becomes b*a - a*b = 0.
            out.push_row(CmpOp::Ge, |r| combine(b, lo.row, a, up.row, d, r))
                .ok_or(Overflow)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Constraint;

    fn eliminated(cs: Vec<Constraint>, d: usize) -> Polyhedron {
        let mut p = Polyhedron::universe(cs[0].row.len() - 1);
        cs.into_iter().for_each(|c| p.add(c));
        let mut out = Polyhedron::universe(p.n_dims());
        eliminate_dim(&p, d, &mut out).expect("no overflow");
        out
    }

    #[test]
    fn eliminate_with_equality_is_exact() {
        // { x = 2y, 0 <= x <= 10 } project out x -> 0 <= 2y <= 10.
        let p = eliminated(
            vec![
                Constraint::eq(vec![1, -2, 0]),
                Constraint::ge(vec![1, 0, 0]),
                Constraint::ge(vec![-1, 0, 10]),
            ],
            0,
        );
        assert!(p.contains(&[99, 0]));
        assert!(p.contains(&[99, 5]));
        assert!(!p.contains(&[99, 6]));
        assert!(!p.contains(&[99, -1]));
    }

    #[test]
    fn eliminate_negative_coefficient_equality() {
        // { -x + y + 1 == 0 (x = y+1), x <= 5 } -> y <= 4.
        let p = eliminated(
            vec![
                Constraint::eq(vec![-1, 1, 1]),
                Constraint::ge(vec![-1, 0, 5]),
            ],
            0,
        );
        assert!(p.contains(&[0, 4]));
        assert!(!p.contains(&[0, 5]));
    }

    #[test]
    fn inequality_combination_projects_band() {
        // { 0 <= x, x <= y, y <= 3 } eliminate x -> { 0 <= y <= 3 }.
        let p = eliminated(
            vec![
                Constraint::ge(vec![1, 0, 0]),
                Constraint::ge(vec![-1, 1, 0]),
                Constraint::ge(vec![0, -1, 3]),
            ],
            0,
        );
        assert!(p.contains(&[42, 0]));
        assert!(p.contains(&[42, 3]));
        assert!(!p.contains(&[42, -1]));
    }

    #[test]
    fn elimination_preserves_row_width() {
        let p = eliminated(vec![Constraint::ge(vec![1, 1, 1, 0])], 1);
        assert_eq!(p.constraints().len(), 0); // only a lower bound: drops away
        let p = eliminated(
            vec![
                Constraint::ge(vec![0, 1, 0, 0]),
                Constraint::ge(vec![1, -1, 0, 5]),
            ],
            1,
        );
        let rows: Vec<_> = p.constraints().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].row.len(), 4);
    }
}
